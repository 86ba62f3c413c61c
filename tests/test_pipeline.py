import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import icborrow.pipeline
from icborrow import (
    METHOD_HLGT,
    METHOD_IC,
    METHOD_SSM,
    Quarter,
    RunConfig,
    RunContext,
    ValidationError,
    build_similarity,
    load_ontology,
    load_reports,
    run_quarters,
)
from icborrow.pipeline import (
    _BATCH,
    MAX_THREADS,
    METHODS,
    IcCache,
    config_snapshot,
    derive_seed,
    parse_config,
    posterior_ic,
)
from icborrow.cli import write_results_csv
from icborrow.evaluate import ReferenceEntry, parameter_sweep, sweep_points
from icborrow.synth import PRESETS, generate

from conftest import grouped_ontology, make_store

Q = Quarter.parse


@pytest.fixture(scope="module")
def basic_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("basic")
    generate(replace(PRESETS["basic"], seed=3), str(outdir))
    store = load_reports(str(outdir / "reports.tsv"))
    ontology = load_ontology(str(outdir / "ontology.tsv"))
    similarity = build_similarity(ontology, min_ssm=0.3)
    return store, ontology, similarity


@pytest.fixture(scope="module")
def concordant_run(tmp_path_factory):
    """Full quarterly run of IC and IC_SSM over the concordant scenario.

    Restricted to the planted drug to keep the pair set small; planted
    pairs sit with their cluster siblings, so borrowing has real sources.
    """
    outdir = tmp_path_factory.mktemp("concordant")
    manifest = generate(replace(PRESETS["concordant"], seed=7), str(outdir))
    store = load_reports(str(outdir / "reports.tsv"))
    ontology = load_ontology(str(outdir / "ontology.tsv"))
    similarity = build_similarity(ontology, min_ssm=0.3)
    cfg = RunConfig(
        methods=(METHOD_IC, METHOD_SSM),
        n_samples=10_000,
        seed=7,
        drug_filter=frozenset({"D000"}),
    )
    ctx = RunContext(store, cfg, similarity=similarity, ontology=ontology)
    return manifest, run_quarters(ctx)


def small_config(**overrides):
    base = dict(n_samples=2_000, seed=5, methods=(METHOD_IC, METHOD_SSM))
    base.update(overrides)
    return RunConfig(**base)


def test_derive_seed_is_stable_and_keyed():
    q = Q("2015Q1")
    assert derive_seed(0, "D", "E", q) == derive_seed(0, "D", "E", q)
    keys = {
        derive_seed(0, "D", "E", q),
        derive_seed(1, "D", "E", q),
        derive_seed(0, "X", "E", q),
        derive_seed(0, "D", "Y", q),
        derive_seed(0, "D", "E", Q("2015Q2")),
    }
    assert len(keys) == 5
    assert all(0 <= k < 2**64 for k in keys)


def test_ic_cache_memoizes(six_report_store, monkeypatch):
    q = Q("2015Q3")
    table = six_report_store.contingency("DRUG", "EV", q)
    cfg = small_config(methods=(METHOD_IC,), seed=0, n_samples=1_500)
    cache = IcCache()
    a = cache.posterior("DRUG", "EV", q, table, cfg)
    assert cache.posterior("DRUG", "EV", q, table, cfg) is a
    # Two contexts given one cache share it: the second screen draws nothing.
    c1 = RunContext(six_report_store, cfg, cache=cache)
    c2 = RunContext(six_report_store, replace(cfg, threshold=1.0), cache=cache)
    assert c1.cache is c2.cache is cache
    assert RunContext(six_report_store, cfg).cache is not cache
    run_quarters(c1)
    draws = []
    real = icborrow.pipeline.posterior_ic

    def counting(table, **kw):
        draws.append(table)
        return real(table, **kw)

    monkeypatch.setattr(icborrow.pipeline, "posterior_ic", counting)
    run_quarters(c2)
    assert draws == []
    assert c2.cache.posterior("DRUG", "EV", q, table, c2.config) is a
    # Another seed or n_samples, through the shared cache, gets its own
    # posteriors: those of a fresh cache.
    for other in (replace(cfg, seed=1), replace(cfg, n_samples=2_000)):
        shared = run_quarters(RunContext(six_report_store, other, cache=cache))
        assert shared == run_quarters(RunContext(six_report_store, other))
        assert shared != run_quarters(c1)
        post = cache.posterior("DRUG", "EV", q, table, other)
        assert post == IcCache().posterior("DRUG", "EV", q, table, other)
        assert post != a
    assert cache.posterior("DRUG", "EV", q, table, cfg) is a


def test_ic_cache_keys_on_the_table(six_report_store):
    # A second store in which (DRUG, EV) has another table at 2015Q3.
    other = make_store([
        ("R1", "2015Q1", {"DRUG"}, {"EV"}),
        ("R2", "2015Q2", {"OTHER_DRUG"}, {"EV"}),
        ("R3", "2015Q3", {"DRUG"}, {"OTHER_EV"}),
    ])
    q = Q("2015Q3")
    cfg = small_config(methods=(METHOD_IC,), seed=0, n_samples=1_500)
    stores = (six_report_store, other)
    tables = [s.contingency("DRUG", "EV", q) for s in stores]
    assert tables[0] != tables[1]
    cache = IcCache()
    for store in stores:
        shared = run_quarters(RunContext(store, cfg, cache=cache))
        assert shared == run_quarters(RunContext(store, cfg))
    seed = derive_seed(cfg.seed, "DRUG", "EV", q)
    got = [cache.posterior("DRUG", "EV", q, t, cfg) for t in tables]
    assert got == [posterior_ic(t, n_samples=cfg.n_samples, seed=seed) for t in tables]
    assert got[0] != got[1]


def test_degenerate_source_is_skipped(chain_ontology, monkeypatch, caplog):
    # (DRUG, L1) is the one active pair at min_a 2; L2, its only similarity
    # neighbour above min_ssm 0.1 (ssm 0.2), is a source with a = 1.
    store = make_store([
        ("R1", "2015Q1", {"DRUG"}, {"L1"}),
        ("R2", "2015Q1", {"DRUG"}, {"L1"}),
        ("R3", "2015Q1", {"DRUG"}, {"L2"}),
        ("R4", "2015Q1", {"OTHER_DRUG"}, {"L1"}),
        ("R5", "2015Q1", {"OTHER_DRUG"}, {"L2"}),
        ("R6", "2015Q1", {"OTHER_DRUG"}, {"P"}),
    ])
    cfg = small_config(min_ssm=0.1, min_a=2)
    ctx = RunContext(
        store, cfg, similarity=build_similarity(chain_ontology, min_ssm=0.1)
    )
    assert ctx.neighbors("L1", METHOD_SSM) == [("L2", pytest.approx(0.2))]
    source_seed = derive_seed(cfg.seed, "DRUG", "L2", Q("2015Q1"))
    real = icborrow.pipeline.posterior_ic

    def degenerate_source(table, *, n_samples, seed):
        post = real(table, n_samples=n_samples, seed=seed)
        return replace(post, variance=0.0) if seed == source_seed else post

    monkeypatch.setattr(icborrow.pipeline, "posterior_ic", degenerate_source)
    caplog.set_level("WARNING", logger="icborrow.pipeline")
    plain, borrowed = run_quarters(ctx).results
    assert [r.getMessage() for r in caplog.records] == [
        "skipping degenerate source (DRUG, L2) at 2015Q1"
    ]
    assert (plain.method, borrowed.method) == (METHOD_IC, METHOD_SSM)
    assert borrowed.event == "L1" and borrowed.s_count == 0
    summary = ("pme", "variance", "ci_low", "ci_high", "signal")
    assert [getattr(borrowed, f) for f in summary] == [getattr(plain, f) for f in summary]


@pytest.mark.parametrize(
    "overrides",
    [
        {"methods": ("IC_BOGUS",)},
        {"w": "median"},
        {"effects": "mixed"},
        {"threads": 0},
        {"methods": ("IC", "IC")},
        {"methods": ()},
        {"w": 1.5},
        {"w": -0.1},
        {"w": math.nan},
        {"drug_filter": frozenset()},
        {"n_samples": 999},
        {"min_ssm": 7.0},
        {"min_ssm": -0.1},
        {"vague_sd": -1.0},
        {"vague_sd": 0.0},
        {"vague_sd": math.nan},
        {"vague_sd": math.inf},
        {"vague_sd": 1e300},
        {"vague_sd": 1e-300},
        {"vague_sd": 1e-160},
        {"seed": -1},
        {"min_a": -3},
        {"min_a": 0},
        {"threshold": math.nan},
        {"start": Q("2016Q1"), "end": Q("2015Q1")},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValidationError):
        RunConfig(**overrides)


def test_threads_are_bounded():
    # Only configs are built here: no pool is started with a large count.
    assert parse_config({"threads": str(MAX_THREADS)}).threads == MAX_THREADS
    with pytest.raises(ValidationError, match=r"threads must be in \[1, 64\]"):
        parse_config({"threads": str(MAX_THREADS + 1)})


def test_context_requires_method_inputs(six_report_store, chain_ontology):
    with pytest.raises(ValidationError):
        RunContext(six_report_store, small_config(methods=(METHOD_SSM,)))
    with pytest.raises(ValidationError):
        RunContext(six_report_store, small_config(methods=(METHOD_HLGT,)))
    # A matrix built above min_ssm would silently drop IC_SSM sources.
    narrow = build_similarity(chain_ontology, min_ssm=0.4)
    with pytest.raises(ValidationError, match="min_ssm 0.4"):
        RunContext(six_report_store, small_config(min_ssm=0.3), similarity=narrow)
    RunContext(six_report_store, small_config(min_ssm=0.4), similarity=narrow)


def test_context_neighbors(six_report_store, chain_ontology):
    similarity = build_similarity(chain_ontology, min_ssm=0.1)
    for min_ssm, ssm_mates in [(0.1, [("L2", pytest.approx(0.2))]), (0.3, [])]:
        ctx = RunContext(
            six_report_store,
            small_config(methods=(METHOD_SSM, METHOD_HLGT), min_ssm=min_ssm),
            similarity=similarity,
            ontology=chain_ontology,
        )
        # the 0.2 pair falls below the default threshold
        assert ctx.neighbors("L1", METHOD_SSM) == ssm_mates
        assert ctx.neighbors("L1", METHOD_HLGT) == [("L2", 1.0)]
        with pytest.raises(ValueError):
            ctx.neighbors("L1", METHOD_IC)


def test_context_neighbors_read_the_matrix_and_ontology(six_report_store):
    # Contexts at three similarity cutoffs share one matrix built at the
    # lowest and one ontology; each reads its candidates from them on every
    # call.
    ontology = grouped_ontology(0)
    similarity = build_similarity(ontology, min_ssm=0.2)
    kept = []
    for min_ssm in (0.2, 0.3, 0.4):
        ctx = RunContext(
            six_report_store,
            small_config(methods=(METHOD_SSM, METHOD_HLGT), min_ssm=min_ssm),
            similarity=similarity,
            ontology=ontology,
        )
        own = build_similarity(ontology, min_ssm=min_ssm)
        n_kept = 0
        for pt in ontology.pts():
            ssm = ctx.neighbors(pt, METHOD_SSM)
            assert ssm == [(n, s) for n, s in similarity.neighbors(pt) if s > min_ssm]
            assert ssm == own.neighbors(pt)
            assert ctx.neighbors(pt, METHOD_HLGT) == [
                (n, 1.0) for n in ontology.hlgt_neighbors(pt)
            ]
            n_kept += len(ssm)
        kept.append(n_kept)
    assert kept[0] > kept[1] > kept[2] > 0


def test_hlgt_warning_comes_once_per_code(chain_ontology, caplog):
    # M5 is the chain's HLGT: an event coded at M5 has no HLGT ancestor.
    store = make_store([
        ("R1", "2015Q1", {"DRUG"}, {"M5", "L1"}),
        ("R2", "2015Q2", {"DRUG"}, {"M5", "L2"}),
        ("R3", "2015Q2", {"OTHER_DRUG"}, {"L2"}),
    ])
    cfg = small_config(methods=(METHOD_IC, METHOD_HLGT))
    caplog.set_level("WARNING", logger="icborrow.ontology")
    run = run_quarters(RunContext(store, cfg, ontology=chain_ontology))
    assert run.quarters == [Q("2015Q1"), Q("2015Q2")]
    assert sum(r.event == "M5" for r in run.results) == 4
    points = sweep_points(cfg, {"w": [0.5]})
    assert len(points) == 2
    parameter_sweep(
        store, [ReferenceEntry("DRUG", "M5", "NEGATIVE")], points,
        ontology=chain_ontology,
    )
    warned = [r.getMessage() for r in caplog.records if r.name == "icborrow.ontology"]
    assert warned == ["HLGT M5 has no HLGT ancestor; no group neighbors"]


def test_context_is_frozen_and_holds_only_its_inputs(six_report_store):
    ctx = RunContext(six_report_store, small_config(methods=(METHOD_IC,)))
    assert [f.name for f in fields(RunContext)] == [
        "store", "config", "similarity", "ontology", "cache"
    ]
    with pytest.raises(FrozenInstanceError):
        ctx.cache = IcCache()


@pytest.mark.parametrize(
    "w, ssm_w, hlgt_w", [("max_ssm", pytest.approx(0.2), 1.0), (0.8, 0.8, 0.8)]
)
def test_prior_weight_applies_to_both_borrowing_methods(
    chain_ontology, w, ssm_w, hlgt_w
):
    store = make_store(
        [
            ("R1", "2015Q1", {"D"}, {"L1"}),
            ("R2", "2015Q1", {"D"}, {"L2"}),
            ("R3", "2015Q1", {"D"}, {"L1", "L2"}),
            ("R4", "2015Q1", {"X"}, {"L2"}),
        ]
    )
    ctx = RunContext(
        store,
        small_config(methods=METHODS, min_ssm=0.1, w=w),
        similarity=build_similarity(chain_ontology, min_ssm=0.1),
        ontology=chain_ontology,
    )
    results = run_quarters(ctx).results
    by_method = {r.method: r for r in results if (r.drug, r.event) == ("D", "L1")}
    assert by_method[METHOD_IC].w is None
    assert by_method[METHOD_SSM].s_count == by_method[METHOD_HLGT].s_count == 1
    assert by_method[METHOD_SSM].w == ssm_w
    assert by_method[METHOD_HLGT].w == hlgt_w
    if hlgt_w == 1.0:
        # HLGT mates enter with similarity 1: the vague component never does.
        assert by_method[METHOD_HLGT].w_tilde == 1.0


@pytest.mark.parametrize(
    "drugs, events",
    [({"D"}, {"L1"}), ({"D"}, {"NOT_A_PT"}), ({"D1", "D2"}, {"L1", "L2"})],
)
def test_one_report_store_gives_one_row_per_method(chain_ontology, drugs, events):
    # Every table is (1, 0, 0, 0); with two events each borrows from the other.
    store = make_store([("R1", "2015Q1", drugs, events)])
    ctx = RunContext(
        store,
        small_config(methods=METHODS, min_ssm=0.1),
        similarity=build_similarity(chain_ontology, min_ssm=0.1),
        ontology=chain_ontology,
    )
    run = run_quarters(ctx)
    assert run.quarters == [Q("2015Q1")]
    assert len(run.results) == len(METHODS) * len(drugs) * len(events)
    for r in run.results:
        assert (r.a, r.b, r.c, r.d) == (1, 0, 0, 0)
        assert r.s_count == (len(events) - 1 if r.method != METHOD_IC else 0)
        assert math.isfinite(r.pme) and r.variance > 0.0
        assert r.ci_low <= r.ci_high


def test_run_quarters_result_order_and_thread_invariance(basic_run):
    # cutoff, then (drug, event), then the configured methods, at any
    # thread count
    store, ontology, similarity = basic_run
    cutoffs = [Q("2015Q3"), Q("2015Q4")]
    cfg = small_config(
        methods=(METHOD_SSM, METHOD_IC), start=cutoffs[0], end=cutoffs[-1]
    )
    runs = []
    for threads in (1, 4):
        ctx = RunContext(store, replace(cfg, threads=threads), similarity=similarity)
        runs.append(run_quarters(ctx).results)
    one, four = runs
    assert one == four
    keys = [(r.cutoff, r.drug, r.event, r.method) for r in one]
    expected = [
        (q, drug, event, method)
        for q in cutoffs
        for drug, event in sorted(store.active_pairs(q, min_a=1, drugs=None))
        for method in cfg.methods
    ]
    assert keys == expected
    assert len({k[:3] for k in keys}) > 100


@pytest.fixture(scope="module")
def batched_store():
    """At min_a 2: no pair at 2015Q1, 3 * _BATCH + 5 pairs at 2015Q2 and
    4 * _BATCH + 3 at 2015Q3, so neither cutoff is a whole number of batches."""
    pairs = [(f"D{i // 8:02d}", f"E{i % 8}") for i in range(4 * _BATCH + 3)]
    rows = [(f"A{i}", "2015Q1", {d}, {e}) for i, (d, e) in enumerate(pairs)]
    rows += [(f"B{i}", "2015Q2" if i < 3 * _BATCH + 5 else "2015Q3", {d}, {e})
             for i, (d, e) in enumerate(pairs)]
    return make_store(rows)


def test_run_quarters_batches_each_cutoff(batched_store, monkeypatch):
    cfg = small_config(methods=(METHOD_IC,), n_samples=1000, min_a=2)
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args[0][0])  # the task's cutoff
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(icborrow.pipeline, "ThreadPoolExecutor", CountingPool)
    runs = []
    for threads in (1, 2, 3):
        submitted.clear()
        ctx = RunContext(batched_store, replace(cfg, threads=threads))
        runs.append(run_quarters(ctx))
        # one task per batch at each cutoff with pairs; none on one thread
        assert Counter(submitted) == ({} if threads == 1 else {
            Q("2015Q2"): math.ceil((3 * _BATCH + 5) / _BATCH),
            Q("2015Q3"): math.ceil((4 * _BATCH + 3) / _BATCH),
        })
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].quarters == [Q("2015Q1"), Q("2015Q2"), Q("2015Q3")]
    per_cutoff = Counter(r.cutoff for r in runs[0].results)
    assert per_cutoff == {Q("2015Q2"): 3 * _BATCH + 5, Q("2015Q3"): 4 * _BATCH + 3}


def test_run_quarters_drug_filter(basic_run):
    store, _, similarity = basic_run
    cfg = small_config(methods=(METHOD_IC,), start=Q("2015Q4"), end=Q("2015Q4"))
    everything = run_quarters(RunContext(store, cfg)).results
    assert {r.drug for r in everything} > {"D001"}
    for codes in ({"D001"}, {"D001", "NO_SUCH_DRUG"}):
        ctx = RunContext(store, replace(cfg, drug_filter=frozenset(codes)))
        results = run_quarters(ctx).results
        assert results == [r for r in everything if r.drug == "D001"]


def test_run_quarters_hand_counted_table(six_report_store):
    ctx = RunContext(
        six_report_store,
        small_config(methods=(METHOD_IC,), start=Q("2015Q4"), end=Q("2015Q4")),
    )
    results = run_quarters(ctx).results
    matches = [r for r in results if (r.drug, r.event) == ("DRUG", "EV")]
    assert len(matches) == 1
    r = matches[0]
    assert (r.a, r.b, r.c, r.d) == (2, 1, 1, 2)
    assert r.oe == pytest.approx(6 * 2 / (3 * 3))


def test_run_quarters_first_alerts(basic_run):
    store, _, similarity = basic_run
    ctx = RunContext(store, small_config(), similarity=similarity)
    run = run_quarters(ctx)
    assert run.quarters == store.quarters()
    for method, alerts in run.first_alerts.items():
        for pair, quarter in alerts.items():
            flagged = [
                r.cutoff
                for r in run.results
                if r.method == method and (r.drug, r.event) == pair and r.signal
            ]
            assert quarter == min(flagged)


def test_run_quarters_threshold_inf_silences(basic_run):
    store, _, similarity = basic_run
    ctx = RunContext(
        store, small_config(threshold=math.inf), similarity=similarity
    )
    run = run_quarters(ctx)
    assert all(not alerts for alerts in run.first_alerts.values())
    assert not any(r.signal for r in run.results)


def test_run_quarters_subrange_agrees(basic_run):
    store, _, similarity = basic_run
    full = run_quarters(
        RunContext(store, small_config(), similarity=similarity)
    )
    late = run_quarters(
        RunContext(
            store, small_config(start=Q("2015Q3")), similarity=similarity
        )
    )
    assert late.quarters == [q for q in full.quarters if q >= Q("2015Q3")]
    # a pair first alerted in the shared window alerts at the same quarter
    for pair, quarter in full.first_alerts[METHOD_IC].items():
        if quarter >= Q("2015Q3"):
            assert late.first_alerts[METHOD_IC].get(pair) == quarter


def test_run_quarters_empty_window(six_report_store):
    ctx = RunContext(
        six_report_store,
        small_config(
            methods=(METHOD_IC,), start=Q("2020Q1"), end=Q("2020Q4")
        ),
    )
    with pytest.raises(ValidationError):
        run_quarters(ctx)


def csv_rows(tmp_path, results, method):
    """write_results_csv's lines for one method: the header, then the rows."""
    path = tmp_path / f"results_{method}.csv"
    write_results_csv(results, method, str(path))
    return path.read_text(encoding="utf-8").splitlines()


def test_results_csv(tmp_path, six_report_store, chain_ontology):
    similarity = build_similarity(chain_ontology, min_ssm=0.1)
    ctx = RunContext(
        six_report_store,
        small_config(min_ssm=0.1, start=Q("2015Q4"), end=Q("2015Q4")),
        similarity=similarity,
    )
    results = [
        r
        for r in run_quarters(ctx).results
        if (r.drug, r.event) == ("DRUG", "EV")
    ]

    ic_header, *ic_rows = csv_rows(tmp_path, results, METHOD_IC)
    assert ic_header == "drug,event,cutoff,a,b,c,d,oe,pme,var,ci_low,ci_high,signal"
    assert len(ic_rows) == 1
    fields = ic_rows[0].split(",")
    assert fields[:8] == ["DRUG", "EV", "2015Q4", "2", "1", "1", "2", "1.333333"]
    assert fields[12] in {"0", "1"}
    assert len(fields) == 13

    ssm_header, *ssm_rows = csv_rows(tmp_path, results, METHOD_SSM)
    assert ssm_header == ic_header + ",method,s_count,tau2,w,w_tilde,map_mu,map_v"
    assert len(ssm_rows) == 1
    ssm_fields = ssm_rows[0].split(",")
    assert ssm_fields[:8] == fields[:8]
    assert ssm_fields[13] == METHOD_SSM
    assert len(ssm_fields) == 20


def test_results_csv_keeps_run_order_per_method(tmp_path, six_report_store):
    run = run_quarters(RunContext(six_report_store, small_config(methods=(METHOD_IC,))))
    _, *rows = csv_rows(tmp_path, run.results, METHOD_IC)
    keys = [tuple(row.split(",")[:3]) for row in rows]
    assert keys == [(r.drug, r.event, str(r.cutoff)) for r in run.results]
    assert len({cutoff for _, _, cutoff in keys}) == 4


def test_no_sources_leaves_borrow_columns_blank(
    tmp_path, six_report_store, chain_ontology
):
    # at the default 0.3 cutoff the chain ontology has no qualifying pairs
    similarity = build_similarity(chain_ontology, min_ssm=0.3)
    ctx = RunContext(
        six_report_store,
        small_config(start=Q("2015Q4"), end=Q("2015Q4")),
        similarity=similarity,
    )
    results = [
        r
        for r in run_quarters(ctx).results
        if (r.drug, r.event) == ("DRUG", "EV")
    ]
    ssm = next(r for r in results if r.method == METHOD_SSM)
    ic = next(r for r in results if r.method == METHOD_IC)
    assert ssm.s_count == 0
    assert ssm.tau2 is None and ssm.w is None and ssm.w_tilde is None
    assert (ssm.pme, ssm.variance) == (ic.pme, ic.variance)
    _, row = csv_rows(tmp_path, results, METHOD_SSM)
    assert row.endswith(f",{METHOD_SSM},0,,,,,")


def test_config_snapshot_round_trip():
    cfg = small_config(drug_filter=frozenset({"D2", "D1"}), start=Q("2015Q1"))
    snap = config_snapshot(cfg)
    lines = snap.splitlines()
    assert lines == sorted(lines)
    got = dict(line.split(" = ", 1) for line in lines)
    assert got["rng"] == "philox"
    assert got["drug_filter"] == "D1;D2"
    assert got["start"] == "2015Q1"
    assert got["end"] == ""
    assert got["n_samples"] == "2000"
    assert got["methods"] == "IC,IC_SSM"
    assert got["w"] == "max_ssm"
    assert set(got) == {f.name for f in fields(RunConfig)} | {"rng", "version"}
    assert parse_config(got) == cfg
    fixed = replace(cfg, w=0.5, include_target_in_reml=True)
    assert parse_config(dict(
        line.split(" = ", 1) for line in config_snapshot(fixed).splitlines()
    )) == fixed


def test_parse_config_checks_provenance():
    assert parse_config({"version": "0.0.0", "rng": "philox"}) == RunConfig()
    with pytest.raises(ValidationError, match="rng"):
        parse_config({"rng": "pcg64"})


def test_planted_pairs_alert_near_onset(concordant_run):
    manifest, run = concordant_run
    start = Q(manifest["scenario"]["start"])
    for entry in manifest["scenario"]["planted"]:
        pair = (entry["drug"], entry["pt"])
        label = Q(
            next(
                p["label_quarter"]
                for p in manifest["positives"]
                if (p["drug"], p["pt"]) == pair
            )
        )
        alert = run.first_alerts[METHOD_SSM][pair]
        assert abs((alert.ordinal - start.ordinal) - entry["onset"]) <= 1, pair
        assert alert < label, pair


def test_borrowing_raises_ci_low_on_fresh_signals(concordant_run):
    # At the onset cutoff the planted counts are still small, which is
    # exactly where pooling the elevated siblings should pay off.
    manifest, run = concordant_run
    start = Q(manifest["scenario"]["start"])
    onset_cutoff = start.ordinal + manifest["scenario"]["planted"][0]["onset"]
    by_key = {(r.method, r.cutoff.ordinal, r.drug, r.event): r for r in run.results}
    for entry in manifest["scenario"]["planted"]:
        pair = (entry["drug"], entry["pt"])
        plain = by_key[(METHOD_IC, onset_cutoff) + pair]
        borrowed = by_key[(METHOD_SSM, onset_cutoff) + pair]
        assert borrowed.ci_low > plain.ci_low, pair
