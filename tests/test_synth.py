import json
import os
import shutil
import statistics
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icborrow import (
    PRESETS,
    ClusterSpec,
    PlantedSignal,
    Quarter,
    Scenario,
    ValidationError,
    build_similarity,
    check_negative_controls,
    generate,
    load_ontology,
    load_reference,
    load_reports,
    verify_manifest,
)
from icborrow.synth import (
    drug_code,
    pt_code,
    render,
    scenario_from_echo,
    _scenario_echo,
)

from conftest import MALFORMED_ECHOES, TAMPERINGS, break_scenario_echo, similarity_of

Q = Quarter.parse


@pytest.fixture(scope="module")
def basic_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("synth_basic")
    manifest = generate(replace(PRESETS["basic"], seed=7), str(outdir))
    return outdir, manifest


def test_regeneration_is_byte_identical(tmp_path):
    scenario = replace(PRESETS["basic"], seed=7)
    a, b = tmp_path / "a", tmp_path / "b"
    generate(scenario, str(a))
    generate(scenario, str(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seeds_change_reports_not_structure(tmp_path):
    files7, _ = render(replace(PRESETS["basic"], seed=7))
    files8, _ = render(replace(PRESETS["basic"], seed=8))
    assert files7["reports.tsv"] != files8["reports.tsv"]
    assert files7["ontology.tsv"] == files8["ontology.tsv"]
    assert files7["reference.tsv"] == files8["reference.tsv"]


def test_verify_manifest_round_trip(basic_dir):
    outdir, _ = basic_dir
    assert verify_manifest(str(outdir))


def test_verify_manifest_catches_edits(tmp_path):
    outdir = tmp_path / "edited"
    generate(replace(PRESETS["basic"], seed=7), str(outdir))
    path = outdir / "reports.tsv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace("\tD0", "\tD1", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert not verify_manifest(str(outdir))


@pytest.mark.parametrize("kind", sorted(TAMPERINGS))
def test_verify_manifest_refuses_tampered_copy(basic_dir, tmp_path, caplog, kind):
    outdir, _ = basic_dir
    copy = tmp_path / kind
    shutil.copytree(outdir, copy)
    TAMPERINGS[kind](copy)
    (changed,) = [
        name for name in os.listdir(copy)
        if (copy / name).read_bytes() != (outdir / name).read_bytes()
    ]
    assert not verify_manifest(str(copy))
    # One short line naming the file, never the file's contents.
    (record,) = caplog.records
    message = record.getMessage()
    assert changed in message
    assert "\n" not in message and len(message) < 300


@pytest.fixture(scope="module")
def flip_dir(basic_dir, tmp_path_factory):
    copy = tmp_path_factory.mktemp("synth_flip") / "basic"
    shutil.copytree(basic_dir[0], copy)
    return copy


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["ontology.tsv", "reference.tsv", "reports.tsv"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 255),
)
def test_verify_manifest_refuses_any_changed_byte(flip_dir, name, where, mask):
    path = flip_dir / name
    original = path.read_bytes()
    changed = bytearray(original)
    changed[int(where * len(original))] ^= mask
    path.write_bytes(changed)
    try:
        assert not verify_manifest(str(flip_dir))
    finally:
        path.write_bytes(original)
    assert verify_manifest(str(flip_dir))


def test_verify_manifest_requires_manifest(tmp_path):
    assert not verify_manifest(str(tmp_path))


def test_verify_manifest_requires_every_file(basic_dir, tmp_path, caplog):
    copy = tmp_path / "basic"
    shutil.copytree(basic_dir[0], copy)
    (copy / "reports.tsv").unlink()
    assert not verify_manifest(str(copy))
    assert f"missing generated file {copy / 'reports.tsv'}" in caplog.text


@pytest.mark.parametrize("kind", sorted(MALFORMED_ECHOES))
def test_verify_manifest_rejects_malformed_scenario(tmp_path, caplog, kind):
    outdir = tmp_path / kind
    generate(replace(PRESETS["basic"], seed=7), str(outdir))
    break_scenario_echo(outdir, MALFORMED_ECHOES[kind])
    assert not verify_manifest(str(outdir))
    assert "cannot regenerate the scenario" in caplog.text


def test_verify_manifest_rejects_text_that_is_not_json(tmp_path, caplog):
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    assert not verify_manifest(str(tmp_path))
    assert "cannot regenerate the scenario" in caplog.text


def test_verify_manifest_empty_scenario(tmp_path):
    empty = replace(PRESETS["basic"], seed=1, name="empty", n_reports=0, planted=())
    outdir = tmp_path / "empty"
    manifest = generate(empty, str(outdir))
    assert manifest["totals"]["reports"] == 0
    assert manifest["totals"]["positives"] == 0
    assert verify_manifest(str(outdir))
    assert len(load_reports(str(outdir / "reports.tsv"))) == 0


def test_manifest_counts_match_store(basic_dir):
    outdir, manifest = basic_dir
    store = load_reports(str(outdir / "reports.tsv"))
    assert store.load_warnings == []
    assert len(store) == manifest["totals"]["reports"]
    assert sum(manifest["counts"].values()) == manifest["totals"]["reports"]
    for key, n_cell in list(manifest["counts"].items())[:25]:
        drug, event, quarter = key.split("|")
        q = Q(quarter)
        after = store.contingency(drug, event, q).a
        before = (
            store.contingency(drug, event, q - 1).a
            if q > store.quarters()[0]
            else 0
        )
        assert after - before == n_cell, key


def test_ontology_matches_manifest(basic_dir):
    outdir, manifest = basic_dir
    ontology = load_ontology(str(outdir / "ontology.tsv"))
    scenario = scenario_from_echo(manifest["scenario"])
    assert len(ontology.pts()) == scenario.n_pts
    assert len(ontology.concepts) == manifest["totals"]["concepts"]


def test_designed_ssm_matches_built_similarity(basic_dir):
    outdir, manifest = basic_dir
    ontology = load_ontology(str(outdir / "ontology.tsv"))
    similarity = build_similarity(ontology, min_ssm=0.05)
    (members,) = manifest["cluster_members"]
    (designed,) = manifest["designed_ssm"]
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            assert similarity_of(similarity, a, b) == pytest.approx(designed, abs=1e-9)


def test_infeasible_similarity_target_names_requirement():
    scenario = replace(
        PRESETS["basic"],
        n_pts=10,
        clusters=(ClusterSpec("concordant", size=6, target_ssm=0.9),),
    )
    with pytest.raises(ValidationError, match="concepts"):
        render(scenario)


def test_groupmates_need_enough_background_pts():
    # 12 PTs: 5 cluster members leave 7 background PTs for 8 group-mates.
    scenario = replace(
        PRESETS["discordant"], n_pts=12, planted=(),
        clusters=(ClusterSpec("discordant", size=5, target_ssm=0.35, n_groupmates=8),),
    )
    with pytest.raises(ValidationError, match="not enough background PTs"):
        render(scenario)


def test_reference_composition():
    _, concordant = render(replace(PRESETS["concordant"], seed=1))
    assert concordant["totals"]["positives"] == 5
    assert concordant["totals"]["negatives"] == 10  # one planted drug

    _, null = render(replace(PRESETS["null"], seed=1))
    assert null["totals"]["positives"] == 0
    assert null["totals"]["negatives"] == 40  # all four drugs


def test_positive_labels_trail_onset():
    scenario = replace(PRESETS["concordant"], seed=1)
    _, manifest = render(scenario)
    for p in manifest["positives"]:
        assert Q(p["label_quarter"]) == scenario.start + (2 + scenario.label_lag)


def test_negatives_avoid_positive_hlts(tmp_path):
    outdir = tmp_path / "conc"
    generate(replace(PRESETS["concordant"], seed=2), str(outdir))
    ontology = load_ontology(str(outdir / "ontology.tsv"))
    entries = load_reference(str(outdir / "reference.tsv"))
    assert check_negative_controls(entries, ontology) == []


def test_discordant_layout():
    scenario = replace(PRESETS["discordant"], seed=0)
    _, manifest = render(scenario)
    (members,) = manifest["cluster_members"]
    (mates,) = manifest["groupmates"]
    assert members == [pt_code(i) for i in range(5)]
    assert mates == [pt_code(i) for i in range(5, 9)]
    planted = {(p["drug"], p["pt"]) for p in manifest["scenario"]["planted"]}
    assert (drug_code(0), pt_code(0)) in planted
    assert all((drug_code(0), m) in planted for m in mates)


def test_planted_pair_is_elevated(basic_dir):
    outdir, manifest = basic_dir
    store = load_reports(str(outdir / "reports.tsv"))
    last = store.quarters()[-1]
    planted = manifest["scenario"]["planted"][0]
    table = store.contingency(planted["drug"], planted["pt"], last)
    assert table.observed_expected() > 2.0


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_scenario_echo_round_trip(name):
    scenario = replace(PRESETS[name], seed=5)
    echo = json.loads(json.dumps(_scenario_echo(scenario)))
    assert scenario_from_echo(echo) == scenario


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("label_lag", {"label_lag": -6}),
        (
            "n_groupmates",
            {"clusters": (ClusterSpec("discordant", size=5, n_groupmates=-2),)},
        ),
        *(
            ("target_ssm", {"clusters": (ClusterSpec("discordant", 5, t),)})
            for t in (float("nan"), float("inf"), 0.0, 1.0)
        ),
    ],
)
def test_negative_scenario_fields_are_rejected_by_name(field, overrides):
    with pytest.raises(ValidationError, match=field):
        render(replace(PRESETS["discordant"], **overrides))


@pytest.mark.parametrize(
    "overrides",
    [
        {"planted": (PlantedSignal("D999", "PT0000", 2.0, 0),)},
        {"planted": (PlantedSignal("D000", "PT0000", 0.5, 0),)},
        {"planted": (PlantedSignal("D000", "PT0000", 2.0, 99),)},
        {"planted": (PlantedSignal("D000", "PT0000", 2.0, 1.5),)},
    ],
)
def test_planting_validation(overrides):
    with pytest.raises(ValidationError):
        render(replace(PRESETS["basic"], **overrides))


@pytest.mark.parametrize(
    "clusters",
    [
        (ClusterSpec("concordant", size=999),),
        (ClusterSpec("concordant", size=1),),
        (ClusterSpec("sideways", size=3),),
    ],
)
def test_cluster_validation(clusters):
    with pytest.raises(ValidationError):
        render(replace(PRESETS["basic"], clusters=clusters))


def test_manifest_digests_match_files(basic_dir):
    import hashlib

    outdir, manifest = basic_dir
    for name, digest in manifest["digests"].items():
        data = (outdir / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_manifest_json_is_stable(basic_dir):
    outdir, manifest = basic_dir
    with open(outdir / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh) == manifest


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="c = 0 artifact: a table whose event no other drug has reported "
    "gets a near-zero cell-c prior, so plain IC signals on one report",
)
def test_null_scenario_is_quiet_at_every_cutoff(tmp_path):
    """With nothing planted, at most 5% of the screened pairs signal under
    plain IC at each cutoff, not only at the last, for null seeds 4, 5, 6.

    Early cutoffs fail today: at 2015Q1, seed 4 flags 140 of 316 pairs and
    138 of those 140 are c = 0 tables.
    """
    from icborrow import METHOD_IC, RunConfig, RunContext, run_quarters

    bound = 0.05
    rates = {}
    for seed in (4, 5, 6):
        outdir = tmp_path / f"null{seed}"
        generate(replace(PRESETS["null"], seed=seed), str(outdir))
        store = load_reports(str(outdir / "reports.tsv"))
        cfg = RunConfig(methods=(METHOD_IC,), n_samples=2_000, seed=seed)
        screened, flagged = {}, {}
        for r in run_quarters(RunContext(store, cfg)).results:
            screened[r.cutoff] = screened.get(r.cutoff, 0) + 1
            flagged[r.cutoff] = flagged.get(r.cutoff, 0) + r.signal
        rates.update({(seed, str(q)): (flagged[q], n) for q, n in screened.items()})
    over = {key: f"{k}/{n}" for key, (k, n) in rates.items() if k > bound * n}
    assert not over, over


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="c = 0 artifact: plain IC signals on one report, and the borrowing "
    "methods take such signals in from their sources",
)
def test_null_pairs_of_the_planted_drug_rarely_alert(tmp_path):
    """On concordant seeds 0-19, drug D000, at most 2% of the null pairs
    screened at each cutoff alert, pooled over the seeds, under each of IC,
    IC_SSM and IC_HLGT. A null pair is not planted, and its PT is neither a
    cluster member nor a groupmate.

    Early cutoffs fail today: at 2015Q1, IC and IC_SSM flag 376 of the 939
    null pairs and IC_HLGT 727; IC_HLGT fails at every cutoff.
    """
    from icborrow import RunConfig, RunContext, run_quarters
    from icborrow.pipeline import METHODS

    bound = 0.02
    screened, flagged = Counter(), Counter()  # by (method, cutoff)
    for seed in range(20):
        outdir = tmp_path / f"conc{seed}"
        scenario = replace(PRESETS["concordant"], seed=seed)
        manifest = generate(scenario, str(outdir))
        planted = {(p.drug, p.pt) for p in scenario.planted}
        near = {pt for pts in manifest["cluster_members"] + manifest["groupmates"]
                for pt in pts}
        ontology = load_ontology(str(outdir / "ontology.tsv"))
        store = load_reports(str(outdir / "reports.tsv"), ontology)
        cfg = RunConfig(methods=METHODS, n_samples=1000, seed=seed,
                        drug_filter=frozenset({"D000"}))
        similarity = build_similarity(ontology, min_ssm=cfg.min_ssm)
        ctx = RunContext(store, cfg, similarity=similarity, ontology=ontology)
        for r in run_quarters(ctx).results:
            if (r.drug, r.event) not in planted and r.event not in near:
                screened[r.method, r.cutoff] += 1
                flagged[r.method, r.cutoff] += r.signal
    over = {(m, str(q)): f"{flagged[m, q]}/{n}"
            for (m, q), n in screened.items() if flagged[m, q] > bound * n}
    assert not over, over


def test_null_scenario_keeps_plain_ic_quiet(tmp_path):
    """With nothing planted, drug and event draws are independent, so O/E
    hovers around 1 and the credible-interval test should rarely fire.

    Pooled over 20 seeds the false-signal rate at threshold 0 must stay
    under 5%.
    """
    from icborrow import METHOD_IC, RunConfig, RunContext, run_quarters

    flagged = 0
    total = 0
    oes = []
    for seed in range(20):
        outdir = tmp_path / f"null{seed}"
        generate(replace(PRESETS["null"], seed=seed), str(outdir))
        store = load_reports(str(outdir / "reports.tsv"))
        final = store.quarters()[-1]
        cfg = RunConfig(
            methods=(METHOD_IC,), n_samples=2_000, seed=seed, start=final, end=final
        )
        results = run_quarters(RunContext(store, cfg)).results
        flagged += sum(1 for r in results if r.signal)
        total += len(results)
        oes.extend(r.oe for r in results if r.oe is not None)
    assert total > 10_000
    assert flagged / total <= 0.05
    # conditioning on >= 1 observed report skews the mean upward; the
    # median is the honest location check
    assert 0.9 < statistics.median(oes) < 1.2
