"""Full study loop: generate, screen with two methods, score, compare.

Uses the concordant-cluster scenario (five similar sibling events all
planted on one drug) at seed 4: ``dataclasses.replace(PRESETS["concordant"],
seed=4)``. Similarity borrowing should find the planted pairs
no later than the plain information component and often a quarter or two
earlier; the script prints per-quarter sensitivity for both methods and
the head-to-head detection table.

Run with:  python demos/full_evaluation.py        (about a minute)
"""

import os
import tempfile
from dataclasses import replace

from icborrow import (
    METHOD_IC,
    METHOD_SSM,
    PRESETS,
    RunConfig,
    RunContext,
    build_similarity,
    compare_methods,
    generate,
    load_ontology,
    load_reference,
    load_reports,
    quarterly_curves,
    run_quarters,
    score,
)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="icborrow-eval-")
    generate(replace(PRESETS["concordant"], seed=4), workdir)
    ontology = load_ontology(os.path.join(workdir, "ontology.tsv"))
    store = load_reports(os.path.join(workdir, "reports.tsv"), ontology)
    entries = load_reference(os.path.join(workdir, "reference.tsv"))
    config = RunConfig(
        methods=(METHOD_IC, METHOD_SSM),
        n_samples=20_000,
        seed=4,
        drug_filter=frozenset({"D000"}),  # the scenario plants only on D000
    )
    similarity = build_similarity(ontology, min_ssm=config.min_ssm)
    print(
        f"{len(store)} reports, {len(entries)} reference pairs, "
        f"{similarity.n_pairs()} similar event pairs"
    )

    ctx = RunContext(
        store=store, config=config, similarity=similarity, ontology=ontology
    )
    run = run_quarters(ctx)

    print("\nper-quarter sensitivity (positive controls still unlabeled):")
    print(f"{'quarter':<8} {METHOD_IC:>6} {METHOD_SSM:>8}")
    curves = {
        m: quarterly_curves(run.first_alerts[m], entries, run.quarters)
        for m in config.methods
    }
    for q in run.quarters:
        cells = []
        for m in config.methods:
            se = curves[m][q].sensitivity
            cells.append("   -" if se is None else f"{se:.2f}")
        print(f"{str(q):<8} {cells[0]:>6} {cells[1]:>8}")

    for m in config.methods:
        r = score(run.first_alerts[m], entries)
        print(
            f"\n{m}: tp={r.tp} fp={r.fp} tn={r.tn} fn={r.fn} "
            f"sensitivity={r.sensitivity:.2f}"
        )

    comp = compare_methods(
        run.first_alerts[METHOD_IC],
        run.first_alerts[METHOD_SSM],
        entries,
        method_a=METHOD_IC,
        method_b=METHOD_SSM,
    )
    print(
        f"\nhead to head: both={comp.both} only_{METHOD_IC}={comp.only_a} "
        f"only_{METHOD_SSM}={comp.only_b} neither={comp.neither}"
    )
    if comp.mean_delta is not None:
        print(
            f"mean detection delta = {comp.mean_delta:+.2f} quarters "
            f"(negative means {METHOD_SSM} alerts earlier)"
        )
    print("\nequivalent command line:")
    print(
        f"  icborrow compare --reports {workdir}/reports.tsv "
        f"--ontology {workdir}/ontology.tsv "
        f"--reference {workdir}/reference.tsv --methods IC,IC_SSM --out out/"
    )


if __name__ == "__main__":
    main()
