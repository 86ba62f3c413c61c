import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from icborrow import (
    Comparison,
    MetricsReport,
    Quarter,
    ReferenceEntry,
    RunConfig,
    ValidationError,
    bootstrap,
    check_negative_controls,
    compare_methods,
    load_reference,
    load_reports,
    parameter_sweep,
    quarterly_curves,
    score,
    sweep_points,
)
from icborrow.cli import write_compare_csv, write_metrics_csv, write_sweep_csv
from icborrow.synth import PRESETS, generate

from oracles import loop_bootstrap, loop_compare, loop_quarterly_curves, loop_score

Q = Quarter.parse


def ref(drug, pt, kind, label=None):
    return ReferenceEntry(drug, pt, kind, Q(label) if label else None)


GOOD_REFERENCE = """\
# drug<TAB>pt<TAB>kind[<TAB>label quarter]
D1\tP1\tPOSITIVE\t2016Q1
D1\tP2\tNEGATIVE
D2\tP1\tNEGATIVE\t
"""


def write(tmp_path, text, name="reference.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_reference_round_trip(tmp_path):
    entries = load_reference(write(tmp_path, GOOD_REFERENCE))
    assert entries == [
        ref("D1", "P1", "POSITIVE", "2016Q1"),
        ref("D1", "P2", "NEGATIVE"),
        ref("D2", "P1", "NEGATIVE"),
    ]


@pytest.mark.parametrize(
    "row",
    [
        "D1\tP1",
        "D1\tP1\tMAYBE\t2016Q1",
        "D1\tP1\tPOSITIVE",
        "D1\tP1\tPOSITIVE\t",
        "D1\tP1\tNEGATIVE\t2016Q1",
        "D1\tP1\tPOSITIVE\t2016Q9",
        "\tP1\tNEGATIVE",
        "D1\t\tPOSITIVE\t2016Q1",
    ],
)
def test_load_reference_rejects(tmp_path, row):
    with pytest.raises(ValidationError, match=":1:"):
        load_reference(write(tmp_path, row + "\n"))


def test_load_reference_rejects_duplicates(tmp_path):
    text = "D1\tP1\tNEGATIVE\nD1\tP1\tPOSITIVE\t2016Q1\n"
    with pytest.raises(ValidationError, match="duplicate"):
        load_reference(write(tmp_path, text))


def test_negative_control_check(chain_ontology):
    entries = [
        ref("D1", "L1", "POSITIVE", "2016Q1"),
        ref("D2", "L2", "NEGATIVE"),
        ref("D3", "L1", "NEGATIVE"),
    ]
    flags = check_negative_controls(entries, chain_ontology)
    assert len(flags) == 2
    assert "('D2', 'L2')" in flags[0] or "(D2, L2)" in flags[0]
    assert "L1" in flags[0]
    # a negative with no HLT overlap stays silent
    assert check_negative_controls([ref("D1", "L1", "NEGATIVE")], chain_ontology) == []


def test_metric_formulas():
    r = MetricsReport.from_counts(tp=1332, fp=0, tn=0, fn=1005)
    assert r.sensitivity == pytest.approx(1332 / 2337, abs=1e-12)
    assert round(r.sensitivity, 3) == 0.570

    r = MetricsReport.from_counts(tp=57, fp=81, tn=169, fn=43)
    assert r.sensitivity == pytest.approx(0.570)
    assert r.specificity == pytest.approx(0.676)
    assert r.youden == pytest.approx(0.246)
    assert r.ppv == pytest.approx(57 / 138)
    assert r.f1 == pytest.approx(2 * r.ppv * r.sensitivity / (r.ppv + r.sensitivity))


def test_metrics_none_on_empty_denominators():
    r = MetricsReport.from_counts(tp=0, fp=0, tn=5, fn=0)
    assert r.sensitivity is None and r.ppv is None
    assert r.f1 is None and r.youden is None
    assert r.specificity == 1.0


SCORE_ENTRIES = [
    ref("D1", "P1", "POSITIVE", "2016Q1"),  # alerted early -> tp
    ref("D1", "P2", "POSITIVE", "2016Q1"),  # alerted at label -> ignored
    ref("D1", "P3", "POSITIVE", "2016Q1"),  # alerted after label -> ignored
    ref("D1", "P4", "POSITIVE", "2016Q1"),  # never alerted -> fn
    ref("D2", "P1", "NEGATIVE"),  # alerted -> fp
    ref("D2", "P2", "NEGATIVE"),  # never alerted -> tn
]
SCORE_ALERTS = {
    ("D1", "P1"): Q("2015Q3"),
    ("D1", "P2"): Q("2016Q1"),
    ("D1", "P3"): Q("2016Q3"),
    ("D2", "P1"): Q("2017Q2"),
}


def test_score_strict_window():
    r = score(SCORE_ALERTS, SCORE_ENTRIES)
    assert (r.tp, r.fp, r.tn, r.fn) == (1, 1, 1, 1)


def test_score_non_strict_window():
    r = score(SCORE_ALERTS, SCORE_ENTRIES, strict_before=False)
    # the at-label alert becomes a detection; the late alert stays ignored
    assert (r.tp, r.fp, r.tn, r.fn) == (2, 1, 1, 1)


def test_quarterly_curves_hand_scored():
    entries = [
        ref("D1", "P1", "POSITIVE", "2015Q4"),
        ref("D1", "P2", "POSITIVE", "2016Q2"),
        ref("D2", "P1", "NEGATIVE"),
    ]
    alerts = {("D1", "P1"): Q("2015Q2"), ("D2", "P1"): Q("2015Q3")}
    quarters = [Q("2015Q1"), Q("2015Q2"), Q("2015Q3"), Q("2015Q4"), Q("2016Q1")]
    curves = quarterly_curves(alerts, entries, quarters)

    assert (curves[Q("2015Q1")].tp, curves[Q("2015Q1")].fn) == (0, 2)
    assert curves[Q("2015Q1")].fp == 0 and curves[Q("2015Q1")].tn == 1
    assert (curves[Q("2015Q2")].tp, curves[Q("2015Q2")].fn) == (1, 1)
    assert curves[Q("2015Q3")].fp == 1
    # P1's label has passed by 2015Q4: it leaves the positive pool
    assert (curves[Q("2015Q4")].tp, curves[Q("2015Q4")].fn) == (0, 1)
    assert (curves[Q("2016Q1")].tp, curves[Q("2016Q1")].fn) == (0, 1)


def comparison_entries(n_pos):
    return [ref("D", f"P{i}", "POSITIVE", "2016Q1") for i in range(n_pos)] + [
        ref("D", "NEG", "NEGATIVE")
    ]


def test_compare_identical_methods():
    entries = comparison_entries(4)
    alerts = {("D", "P0"): Q("2015Q1"), ("D", "P1"): Q("2015Q3")}
    comp = compare_methods(alerts, alerts, entries)
    assert (comp.both, comp.only_a, comp.only_b, comp.neither) == (2, 0, 0, 2)
    assert comp.mean_delta == 0.0
    assert comp.deltas_observed == {0: 2}
    assert comp.n_imputed == 0


def test_compare_one_quarter_earlier():
    entries = comparison_entries(1)
    a = {("D", "P0"): Q("2015Q3")}
    b = {("D", "P0"): Q("2015Q2")}
    comp = compare_methods(a, b, entries, method_a="IC", method_b="IC_SSM")
    assert comp.both == 1
    assert comp.deltas_observed == {-1: 1}
    assert comp.mean_delta == -1.0
    assert (comp.method_a, comp.method_b) == ("IC", "IC_SSM")


def test_compare_imputes_one_sided_detections():
    entries = comparison_entries(2)
    a = {("D", "P0"): Q("2015Q1")}
    b = {("D", "P1"): Q("2015Q2")}
    comp = compare_methods(a, b, entries)
    assert (comp.both, comp.only_a, comp.only_b, comp.neither) == (0, 1, 1, 0)
    # default imputed quarter is one past the latest label (2016Q1 -> 2016Q2)
    assert comp.deltas_imputed == {
        Q("2016Q2") - Q("2015Q1"): 1,
        Q("2015Q2") - Q("2016Q2"): 1,
    }
    assert comp.n_imputed == 2
    # a later label, on a positive neither method detects, moves the
    # imputed quarter with it (2016Q4 -> 2017Q1)
    later = compare_methods(a, b, entries + [ref("D", "P9", "POSITIVE", "2016Q4")])
    assert later.neither == comp.neither + 1
    assert later.deltas_imputed == {
        Q("2017Q1") - Q("2015Q1"): 1,
        Q("2015Q2") - Q("2017Q1"): 1,
    }


def test_compare_partitions_evaluable_positives():
    entries = comparison_entries(5)
    a = {("D", "P0"): Q("2015Q1"), ("D", "P1"): Q("2016Q1")}  # P1 at label: ignored
    b = {("D", "P0"): Q("2015Q2"), ("D", "P2"): Q("2015Q4")}
    comp = compare_methods(a, b, entries)
    # P1 is ignored for method a, so the pair drops out entirely
    assert comp.evaluated == 4
    assert comp.both + comp.only_a + comp.only_b + comp.neither == comp.evaluated


def test_compare_requires_a_positive():
    with pytest.raises(ValidationError):
        compare_methods({}, {}, [ref("D", "NEG", "NEGATIVE")])


def test_bootstrap_identical_methods_is_half():
    entries = comparison_entries(6)
    alerts = {("D", "P0"): Q("2015Q1"), ("D", "NEG"): Q("2015Q2")}
    out = bootstrap({"A": alerts, "B": dict(alerts)}, entries, n_iter=200)
    for metric, frac in out["fractions"]["A>B"].items():
        assert frac == 0.5, metric


def test_bootstrap_detects_dominant_method():
    entries = [ref("D", f"P{i}", "POSITIVE", "2016Q1") for i in range(12)] + [
        ref("D", f"N{i}", "NEGATIVE") for i in range(4)
    ]
    strong = {("D", f"P{i}"): Q("2015Q1") for i in range(10)}
    weak = {("D", f"P{i}"): Q("2015Q1") for i in range(2)}  # strict subset
    out = bootstrap({"strong": strong, "weak": weak}, entries, n_iter=300, seed=9)
    assert out["fractions"]["strong>weak"]["sensitivity"] >= 0.99
    assert out["fractions"]["weak>strong"]["sensitivity"] <= 0.01
    # specificity is identical (no false positives on either side)
    assert out["fractions"]["strong>weak"]["specificity"] == 0.5


def test_bootstrap_guards():
    entries = comparison_entries(2)
    with pytest.raises(ValueError):
        bootstrap({"A": {}, "B": {}}, entries, n_iter=99)
    with pytest.raises(ValidationError):
        bootstrap({"A": {}, "B": {}}, [], n_iter=100)


def test_bootstrap_deterministic():
    entries = comparison_entries(8)
    a = {("D", f"P{i}"): Q("2015Q1") for i in range(5)}
    b = {("D", f"P{i}"): Q("2015Q1") for i in range(3, 8)}
    one = bootstrap({"A": a, "B": b}, entries, n_iter=150, seed=4)
    two = bootstrap({"A": a, "B": b}, entries, n_iter=150, seed=4)
    assert one == two


# Eight quarters, so alerts often land on a label quarter or one away from it.
QUARTERS = [Q("2015Q1") + k for k in range(8)]


@st.composite
def scored_runs(draw):
    """A reference of up to 20 entries and three methods' alert maps over its
    pairs and one pair outside it."""
    entries = []
    for i in range(draw(st.integers(1, 20))):
        label = draw(st.none() | st.sampled_from(QUARTERS))
        kind = "NEGATIVE" if label is None else "POSITIVE"
        entries.append(ReferenceEntry(draw(st.sampled_from("DE")), f"P{i}", kind, label))
    pairs = st.sampled_from([(e.drug, e.pt) for e in entries] + [("D", "OUT")])
    alerts = {
        m: draw(st.dictionaries(pairs, st.sampled_from(QUARTERS))) for m in "ABC"
    }
    return entries, alerts


@settings(max_examples=60, deadline=None)
@given(scored_runs(), st.booleans(), st.integers(0, 2**32))
def test_evaluators_match_the_loop_oracle(run, strict_before, seed):
    entries, alerts = run
    a, b = alerts["A"], alerts["B"]
    assert score(a, entries, strict_before) == loop_score(a, entries, strict_before)
    assert quarterly_curves(a, entries, QUARTERS) == loop_quarterly_curves(
        a, entries, QUARTERS
    )
    if any(e.kind == "POSITIVE" for e in entries):
        assert compare_methods(
            a, b, entries, strict_before=strict_before
        ) == loop_compare(a, b, entries, strict_before=strict_before)
    assert bootstrap(
        alerts, entries, n_iter=100, seed=seed, strict_before=strict_before
    ) == loop_bootstrap(
        alerts, entries, n_iter=100, seed=seed, strict_before=strict_before
    )


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sweep")
    generate(replace(PRESETS["basic"], seed=3), str(outdir))
    store = load_reports(str(outdir / "reports.tsv"))
    entries = load_reference(str(outdir / "reference.tsv"))
    return store, entries


def test_parameter_sweep_threshold_axis(sweep_inputs):
    store, entries = sweep_inputs
    config = RunConfig(methods=("IC",), n_samples=2_000, seed=1)
    points = sweep_points(config, {"threshold": [1.0, 99.0]})
    rows = parameter_sweep(store, entries, points)
    assert [(r.param, r.value) for r in rows] == [
        ("threshold", "0"),
        ("threshold", "1"),
        ("threshold", "99"),
    ]
    tps = [r.report.tp for r in rows]
    assert tps == sorted(tps, reverse=True)
    silent = rows[-1].report
    assert silent.tp == 0 and silent.fp == 0
    assert parameter_sweep(store, entries, []) == []


def test_parameter_sweep_keeps_reference_point(sweep_inputs):
    store, entries = sweep_inputs
    config = RunConfig(methods=("IC",), n_samples=2_000, seed=1, threshold=1.0)
    rows = parameter_sweep(
        store, entries, sweep_points(config, {"threshold": [1.0, 0.0]})
    )
    # the reference value is already on the axis: no duplicate row
    assert [r.value for r in rows] == ["1", "0"]


def test_parameter_sweep_rejects_unknown_param():
    config = RunConfig(methods=("IC",), n_samples=2_000)
    with pytest.raises(ValidationError):
        sweep_points(config, {"n_samples": [100]})


def test_parameter_sweep_checks_every_point_before_screening():
    # sweep_points builds every point's config; it reads and screens no data.
    config = RunConfig(methods=("IC",), n_samples=2_000)
    with pytest.raises(ValidationError, match="vague_sd"):
        sweep_points(config, {"vague_sd": [1.0, -1.0]})


@pytest.mark.parametrize(
    "reference, grid, label",
    [
        ({}, {"threshold": [0.5, 0.5]}, "0.5"),
        ({}, {"w": ["max_ssm", "max_ssm"]}, "max_ssm"),
        ({}, {"threshold": [0.1234567, 0.1234568]}, "0.123457"),
        ({"threshold": 0.1234567}, {"threshold": [0.1234568]}, "0.123457"),
        ({}, {"threshold": [-0.0, 0.0]}, "0"),
    ],
)
def test_sweep_points_rejects_repeated_values(reference, grid, label):
    # Two points of one axis with one sweep.csv label, the reference included.
    config = RunConfig(methods=("IC",), n_samples=2_000, **reference)
    (key,) = grid
    with pytest.raises(ValidationError, match=f"'{key}' has the value {label} twice"):
        sweep_points(config, grid)


def test_write_metrics_csv(tmp_path):
    curves = {
        "IC": {
            Q("2015Q1"): MetricsReport.from_counts(1, 0, 2, 1),
            Q("2015Q2"): MetricsReport.from_counts(2, 1, 1, 0),
        }
    }
    path = tmp_path / "metrics.csv"
    write_metrics_csv(curves, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "quarter,method,tp,fp,tn,fn,sensitivity,specificity,ppv,f1,youden"
    assert lines[1].startswith("2015Q1,IC,1,0,2,1,0.500000,1.000000,1.000000,")
    assert len(lines) == 3


def test_write_compare_csv(tmp_path):
    entries = comparison_entries(2)
    a = {("D", "P0"): Q("2015Q1")}
    b = {("D", "P0"): Q("2015Q2"), ("D", "P1"): Q("2015Q1")}
    comp = compare_methods(a, b, entries, method_a="IC", method_b="IC_SSM")
    main, deltas = tmp_path / "c.csv", tmp_path / "d.csv"
    write_compare_csv(comp, str(main), str(deltas))
    lines = main.read_text().splitlines()
    assert lines[0] == (
        "method_a,method_b,both,only_a,only_b,neither,evaluated,"
        "n_imputed,mean_delta_quarters"
    )
    assert lines[1].startswith("IC,IC_SSM,1,0,1,0,2,1,")
    dlines = deltas.read_text().splitlines()
    assert dlines[0] == "delta_quarters,observed_count,imputed_count"
    assert "1,1,0" in dlines  # observed delta of +1 quarter


def test_write_sweep_csv(tmp_path, sweep_inputs):
    store, entries = sweep_inputs
    config = RunConfig(methods=("IC",), n_samples=2_000)
    rows = parameter_sweep(store, entries, sweep_points(config, {"threshold": [2.0]}))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "param,value,method,tp,fp,tn,fn,sensitivity,specificity,ppv,f1,youden"
    assert len(lines) == 3
    assert lines[1].startswith("threshold,0,IC,")
    assert lines[2].startswith("threshold,2,IC,")
