"""End-to-end acceptance gates.

Each test checks one release criterion at its stated tolerance and runtime
budget and prints a single PASS/FAIL line (run with ``pytest -s`` to see the
lines as they happen). Unit-level diagnostics live in the other test files;
these are the coarse go/no-go checks.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np

from icborrow import (
    ContingencyTable,
    MetricsReport,
    Quarter,
    ReferenceEntry,
    RobustPrior,
    RunConfig,
    RunContext,
    build_similarity,
    compare_methods,
    generate,
    load_ontology,
    load_reference,
    load_reports,
    mixture_posterior,
    posterior_ic,
    run_quarters,
    score,
)
from icborrow.borrow import reml_tau2
from icborrow.cli import main as cli_main
from icborrow.pipeline import METHOD_HLGT, METHOD_IC, METHOD_SSM
from icborrow.synth import PRESETS

from conftest import load_similarity_csv, make_ontology
from oracles import grid_mixture, grid_reml_tau2, random_dag, seco_ic, bfs_ancestors


def _gate(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_summary_metrics_and_overlap_counts():
    t0 = time.perf_counter()
    se = MetricsReport.from_counts(tp=1332, fp=0, tn=0, fn=1005).sensitivity
    se_ok = abs(se - 0.570) <= 0.0005

    balanced = MetricsReport.from_counts(tp=570, fp=324, tn=676, fn=430)
    youden_ok = (
        balanced.sensitivity == 0.570
        and balanced.specificity == 0.676
        and abs(balanced.youden - 0.246) <= 0.001
    )

    # Constructed record set: 2337 positives split into the four overlap
    # cells, scored strictly before a far-future label quarter.
    label = Quarter(2016, 1)
    entries = [
        ReferenceEntry(f"D{i}", f"P{i}", "POSITIVE", label) for i in range(2337)
    ]
    alert = Quarter(2015, 1)
    alerts_ic = {(f"D{i}", f"P{i}"): alert for i in range(1167)}
    alerts_ic.update({(f"D{i}", f"P{i}"): alert for i in range(1332, 1335)})
    alerts_ssm = {(f"D{i}", f"P{i}"): alert for i in range(1332)}
    comp = compare_methods(
        alerts_ic, alerts_ssm, entries, method_a=METHOD_IC, method_b=METHOD_SSM
    )
    cells = (comp.both, comp.only_b, comp.only_a, comp.neither)
    cells_ok = cells == (1167, 165, 3, 1002)
    ssm_se = score(alerts_ssm, entries).sensitivity
    tally_ok = abs(ssm_se - 0.570) <= 0.0005

    elapsed = time.perf_counter() - t0
    _gate(
        "summary metrics and overlap counts",
        se_ok and youden_ok and cells_ok and tally_ok and elapsed < 1.0,
        f"se={se:.6f}, youden={balanced.youden:.3f}, cells={cells}, "
        f"{elapsed:.2f}s",
    )


def test_ic_engine_convergence_and_shrinkage():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    worst = 0.0
    converged = True
    for i in range(50):
        a = int(rng.integers(3, 200))
        b = int(rng.integers(a, 20 * a))
        c = int(rng.integers(a, 20 * a))
        d = int(rng.integers(100, 100_000))
        table = ContingencyTable(a, b, c, d)
        lo = posterior_ic(table, n_samples=10_000, seed=1000 + i)
        hi = posterior_ic(table, n_samples=1_000_000, seed=5000 + i)
        se = math.sqrt(
            lo.variance / lo.n_samples + hi.variance / hi.n_samples
        )
        gap = abs(lo.pme - hi.pme) / se
        worst = max(worst, gap)
        converged = converged and gap <= 3.0

    checked = 0
    shrinkage = True
    while checked < 1000:
        a = int(rng.integers(15, 101))
        b = int(rng.integers(3 * a, 6 * a))
        c = int(rng.integers(3 * a, 6 * a))
        oe_target = 2.0 ** rng.uniform(0.5, 2.0)
        d = int(round(oe_target * (a + b) * (a + c) / a)) - a - b - c
        table = ContingencyTable(a, b, c, max(d, 1))
        log_oe = math.log2(table.observed_expected())
        if log_oe < 0.5:
            continue
        post = posterior_ic(table, n_samples=20_000, seed=70_000 + checked)
        shrinkage = shrinkage and 0.0 < post.pme < log_oe
        checked += 1

    elapsed = time.perf_counter() - t0
    _gate(
        "ic engine: mc convergence and shrinkage",
        converged and shrinkage and elapsed < 120.0,
        f"worst gap {worst:.2f} se on 50 tables, shrinkage on {checked} "
        f"tables, {elapsed:.1f}s",
    )


def test_mixture_posterior_against_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    ok = True
    for w in (0.0, 0.5, 0.96, 1.0):
        for _ in range(5):
            mu = float(rng.normal(0.8, 1.0))
            v = float(rng.uniform(0.05, 0.8))
            sd = float(rng.uniform(1.0, 3.0))
            ic = float(rng.normal(0.5, 1.2))
            vic = float(rng.uniform(0.05, 0.8))
            post = mixture_posterior(RobustPrior(mu, v, w, sd), ic, vic)
            mean, var, lo, hi, _ = grid_mixture(mu, v, w, sd, ic, vic)
            gaps = (
                abs(post.pme - mean),
                abs(post.variance - var),
                abs(post.ci_low - lo),
                abs(post.ci_high - hi),
            )
            worst = max(worst, *gaps)
            ok = ok and max(gaps) <= 1e-4
    elapsed = time.perf_counter() - t0
    _gate(
        "mixture posterior vs quadrature",
        ok and elapsed < 30.0,
        f"worst gap {worst:.2e} over 20 cases, {elapsed:.1f}s",
    )


def test_heterogeneity_estimate_against_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)
    worst = 0.0
    ok = True
    for _ in range(20):
        n = int(rng.integers(3, 10))
        y = rng.normal(0.0, 1.2, size=n)
        v = rng.uniform(0.05, 0.6, size=n)
        tau2, converged = reml_tau2(y, v)
        gap = abs(tau2 - grid_reml_tau2(y, v))
        worst = max(worst, gap)
        ok = ok and converged and gap <= 1e-3 and tau2 < 9.0

    homogeneous = all(
        reml_tau2([level] * 4, [0.1, 0.2, 0.3, 0.4])[0] == 0.0
        for level in (-1.0, 0.0, 2.5)
    )
    elapsed = time.perf_counter() - t0
    _gate(
        "heterogeneity estimate vs grid search",
        ok and homogeneous and elapsed < 30.0,
        f"worst gap {worst:.2e} over 20 sets, exact zero on homogeneous, "
        f"{elapsed:.1f}s",
    )


def test_group_borrowing_equals_forced_similarity(tmp_path):
    t0 = time.perf_counter()
    generate(replace(PRESETS["basic"], seed=5), str(tmp_path))
    ontology = load_ontology(str(tmp_path / "ontology.tsv"))
    store = load_reports(str(tmp_path / "reports.tsv"), ontology)

    pairs = set()
    for pt in ontology.pts():
        for nb in ontology.hlgt_neighbors(pt):
            pairs.add((min(pt, nb), max(pt, nb)))
    forced_path = tmp_path / "forced.csv"
    with open(forced_path, "w", encoding="utf-8") as fh:
        fh.write("pt_a,pt_b,ssm\n")
        for a, b in sorted(pairs):
            fh.write(f"{a},{b},1.000000\n")
    forced = load_similarity_csv(str(forced_path), min_ssm=0.3)

    ssm_cfg = RunConfig(
        methods=(METHOD_SSM,), n_samples=5_000, seed=9, w=0.8,
    )
    hlgt_cfg = RunConfig(
        methods=(METHOD_HLGT,), n_samples=5_000, seed=9, w=0.8,
    )
    via_ssm = run_quarters(
        RunContext(store=store, config=ssm_cfg, similarity=forced, ontology=ontology)
    )
    via_hlgt = run_quarters(
        RunContext(store=store, config=hlgt_cfg, ontology=ontology)
    )

    def strip_method(results):
        return [
            (r.drug, r.event, r.cutoff, r.a, r.b, r.c, r.d, r.oe, r.pme,
             r.variance, r.ci_low, r.ci_high, r.signal, r.s_count, r.tau2,
             r.w, r.w_tilde, r.map_mu, r.map_v)
            for r in results
        ]

    rows_a = strip_method(via_ssm.results)
    rows_b = strip_method(via_hlgt.results)
    ok = bool(rows_a) and rows_a == rows_b
    elapsed = time.perf_counter() - t0
    _gate(
        "group borrowing equals forced-similarity borrowing",
        ok,
        f"{len(rows_a)} result rows identical, {elapsed:.1f}s",
    )


def test_similarity_search_against_brute_force():
    t0 = time.perf_counter()
    ok = True
    n_pairs = n_kept = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        parents = random_dag(rng, 50)
        codes = ["C000"] + sorted(parents)
        ont = make_ontology(parents, codes, levels={c: "PT" for c in codes})

        ics = seco_ic(parents, codes)
        ancestors = {c: bfs_ancestors(parents, c) for c in codes}
        above = {}  # all-pairs reference for the pruned build at 0.3
        for i, a in enumerate(codes):
            ok = ok and ont.sokal_sneath(a, a) == 1.0
            for b in codes[i + 1 :]:
                common = ancestors[a] & ancestors[b]
                brute = max((ics[c] for c in common), default=0.0)
                if ont.mica_ic(a, b) != brute:
                    ok = False
                s_ab = ont.sokal_sneath(a, b)
                ok = ok and 0.0 <= s_ab <= 1.0
                ok = ok and s_ab == ont.sokal_sneath(b, a)
                if s_ab > 0.3:
                    above[(a, b)] = s_ab
                n_pairs += 1
        matrix = build_similarity(ont, min_ssm=0.3)
        kept = {(a, b): s for a in codes for b, s in matrix.neighbors(a) if a < b}
        ok = ok and kept == above
        n_kept += len(kept)
    elapsed = time.perf_counter() - t0
    _gate(
        "similarity search vs brute force",
        ok and elapsed < 60.0,
        f"{n_pairs} pairs across 100 graphs, {n_kept} kept at 0.3, {elapsed:.1f}s",
    )


def _concordant_seed_outcome(seed: int, workdir: str) -> tuple[bool, bool]:
    scenario = replace(PRESETS["concordant"], seed=seed)
    outdir = os.path.join(workdir, f"conc{seed}")
    generate(scenario, outdir)
    ontology = load_ontology(os.path.join(outdir, "ontology.tsv"))
    store = load_reports(os.path.join(outdir, "reports.tsv"), ontology)
    similarity = build_similarity(ontology, min_ssm=0.3)
    config = RunConfig(
        methods=(METHOD_IC, METHOD_SSM),
        n_samples=20_000,
        seed=seed,
        drug_filter=frozenset({"D000"}),  # every planted pair is on D000
    )
    ctx = RunContext(
        store=store, config=config, similarity=similarity, ontology=ontology
    )
    run = run_quarters(ctx)
    planted = sorted({(p.drug, p.pt) for p in scenario.planted})
    impute = run.quarters[-1].ordinal + 1

    stats = {}
    for method in config.methods:
        alerts = run.first_alerts[method]
        quarters = [
            alerts[p].ordinal if p in alerts else impute for p in planted
        ]
        stats[method] = (
            sum(quarters) / len(quarters),
            sum(p in alerts for p in planted) / len(planted),
        )
    mean_ic, sens_ic = stats[METHOD_IC]
    mean_ssm, sens_ssm = stats[METHOD_SSM]
    return mean_ssm <= mean_ic, sens_ssm >= sens_ic


def test_borrowing_direction_on_synthetic_scenarios(tmp_path):
    t0 = time.perf_counter()
    good_seeds = 0
    for seed in range(20):
        earlier, at_least_as_sensitive = _concordant_seed_outcome(
            seed, str(tmp_path)
        )
        good_seeds += earlier and at_least_as_sensitive

    flagged = total = 0
    for seed in range(3):
        outdir = tmp_path / f"null{seed}"
        generate(replace(PRESETS["null"], seed=seed), str(outdir))
        ontology = load_ontology(str(outdir / "ontology.tsv"))
        store = load_reports(str(outdir / "reports.tsv"), ontology)
        similarity = build_similarity(ontology, min_ssm=0.3)
        final = store.quarters()[-1]
        config = RunConfig(
            methods=(METHOD_SSM,), n_samples=20_000, seed=seed, start=final, end=final
        )
        ctx = RunContext(
            store=store, config=config, similarity=similarity, ontology=ontology
        )
        results = run_quarters(ctx).results
        flagged += sum(r.signal for r in results)
        total += len(results)
    false_rate = flagged / total

    elapsed = time.perf_counter() - t0
    _gate(
        "borrowing helps on concordant clusters, stays calibrated on null",
        good_seeds >= 16 and false_rate <= 0.075 and elapsed < 600.0,
        f"{good_seeds}/20 seeds, null false-signal rate "
        f"{flagged}/{total}={false_rate:.3f}, {elapsed:.0f}s",
    )


def _discordant_target_pmes(seed: int, workdir: str) -> dict[str, float]:
    """Each method's pme of (D000, PT0000) at the last cutoff of a
    discordant scenario."""
    outdir = os.path.join(workdir, f"disc{seed}")
    generate(replace(PRESETS["discordant"], seed=seed), outdir)
    ontology = load_ontology(os.path.join(outdir, "ontology.tsv"))
    store = load_reports(os.path.join(outdir, "reports.tsv"), ontology)
    final = store.quarters()[-1]
    config = RunConfig(
        methods=(METHOD_IC, METHOD_SSM, METHOD_HLGT),
        n_samples=10_000,
        seed=seed,
        start=final,
        end=final,
        drug_filter=frozenset({"D000"}),
    )
    ctx = RunContext(
        store=store,
        config=config,
        similarity=build_similarity(ontology, min_ssm=config.min_ssm),
        ontology=ontology,
    )
    return {
        r.method: r.pme
        for r in run_quarters(ctx).results
        if (r.drug, r.event) == ("D000", "PT0000")
    }


def test_group_borrowing_moves_further_on_discordant_clusters(tmp_path):
    # The target's similar siblings are null and rare, its HLGT group-mates
    # elevated but less so: group borrowing pulls its estimate further
    # from the plain IC than similarity borrowing does. The bound is the
    # concordant gate's, 16 of 20 seeds.
    t0 = time.perf_counter()
    further = 0
    for seed in range(20):
        pme = _discordant_target_pmes(seed, str(tmp_path))
        further += abs(pme[METHOD_HLGT] - pme[METHOD_IC]) > abs(
            pme[METHOD_SSM] - pme[METHOD_IC]
        )
    elapsed = time.perf_counter() - t0
    _gate(
        "group borrowing moves further than similarity on discordant clusters",
        further >= 16,
        f"{further}/20 seeds, {elapsed:.0f}s",
    )


def test_determinism_across_worker_threads(tmp_path, capsys):
    t0 = time.perf_counter()
    data = tmp_path / "data"
    assert cli_main(
        ["generate", "--preset", "basic", "--seed", "11", "--out", str(data)]
    ) == 0
    capsys.readouterr()

    contents = {}
    for threads in ("1", "8"):
        for attempt in ("a", "b"):
            out = tmp_path / f"t{threads}{attempt}"
            code = cli_main(
                [
                    "run",
                    "--reports", str(data / "reports.tsv"),
                    "--ontology", str(data / "ontology.tsv"),
                    "--out", str(out),
                    "--seed", "42",
                    "--n-samples", "2000",
                    "--threads", threads,
                ]
            )
            assert code == 0
            contents[(threads, attempt)] = tuple(
                (out / name).read_bytes()
                for name in ("results_IC.csv", "results_IC_SSM.csv")
            )

    repeat_1 = contents[("1", "a")] == contents[("1", "b")]
    repeat_8 = contents[("8", "a")] == contents[("8", "b")]
    across = contents[("1", "a")] == contents[("8", "a")]
    elapsed = time.perf_counter() - t0
    _gate(
        "byte-identical reruns at 1 and 8 threads",
        repeat_1 and repeat_8 and across,
        f"rerun@1={repeat_1}, rerun@8={repeat_8}, 1-vs-8={across}, "
        f"{elapsed:.0f}s",
    )
