"""Smallest useful session: make data, screen it, read the output.

Generates a small synthetic reporting history, screens every active
(drug, event) pair with the plain information component, and prints the
pairs whose 95% interval clears zero at the final quarter. The history is
the basic preset, ``PRESETS["basic"]``; another seed or size is
``dataclasses.replace(PRESETS["basic"], seed=3, n_reports=2000)``.

Run with:  python demos/quickstart.py
"""

import os
import tempfile

from icborrow import (
    METHOD_IC,
    PRESETS,
    RunConfig,
    RunContext,
    generate,
    load_ontology,
    load_reports,
    run_quarters,
)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="icborrow-quickstart-")
    manifest = generate(PRESETS["basic"], workdir)
    print(f"wrote {manifest['totals']['reports']} reports to {workdir}")

    ontology = load_ontology(os.path.join(workdir, "ontology.tsv"))
    store = load_reports(os.path.join(workdir, "reports.tsv"), ontology)

    final = store.quarters()[-1]
    config = RunConfig(
        methods=(METHOD_IC,), n_samples=20_000, seed=0, start=final, end=final
    )
    results = run_quarters(RunContext(store=store, config=config)).results

    flagged = sorted(
        (r for r in results if r.signal), key=lambda r: -r.ci_low
    )
    print(f"\n{len(results)} pairs screened at {final}, {len(flagged)} flagged:")
    print(f"{'drug':<6} {'event':<8} {'a':>4} {'o/e':>6} {'pme':>6} {'ci_low':>7}")
    for r in flagged:
        print(
            f"{r.drug:<6} {r.event:<8} {r.a:>4} {r.oe:>6.2f} "
            f"{r.pme:>6.2f} {r.ci_low:>7.2f}"
        )
    print("\nplanted pairs (listed in manifest.json) should dominate the top;")
    print("equivalent command line:")
    print(f"  icborrow run --reports {workdir}/reports.tsv --methods IC "
          f"--start {final} --end {final} --n-samples 20000 --out out/")


if __name__ == "__main__":
    main()
