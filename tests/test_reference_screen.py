"""Whole screens against the oracles: every row that ``icborrow run`` writes,
rebuilt by ``oracles.reference_screen`` from brute-force counts, numpy IC
summaries, brute-force similarity and groups, and the grid REML and mixture
oracles. Run with ``pytest -s`` to see how many borrowed rows sit too close
to the threshold for their signal to be checked."""

import csv
from collections import Counter
from dataclasses import replace

import pytest

from icborrow import RunContext, build_similarity, load_ontology, load_reports
from icborrow.cli import main, write_results_csv
from icborrow.pipeline import parse_config, run_quarters
from icborrow.synth import PRESETS, generate

from conftest import CHAIN_ONTOLOGY, SIX_REPORTS
from oracles import reference_screen

# Tolerance of a value that comes from a grid oracle, as in test_borrow:
# 1e-3 for the heterogeneity, 1e-4 for the rest, plus the 5e-7 of the
# CSV's six decimals.
TAU2_TOL = 1e-3
GRID_TOL = 1e-4 + 5e-7

ALL_METHODS = ["--methods", "IC,IC_SSM,IC_HLGT"]


@pytest.fixture(scope="module")
def concordant(tmp_path_factory):
    data = tmp_path_factory.mktemp("concordant")
    generate(replace(PRESETS["concordant"], seed=4), str(data))
    (data / "drugs.txt").write_text("D000\n", encoding="utf-8")
    return data


def read_config(outdir):
    text = (outdir / "effective_config.txt").read_text(encoding="utf-8")
    pairs = (line.split(" = ", 1) for line in text.splitlines())
    return parse_config({key: value for key, value in pairs})


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_rows(data, outdir, config, label):
    """Compare every results file in outdir with the reference screen of
    data under config; return the number of rows checked."""
    want = reference_screen(str(data), config)
    checked = near = 0
    for method in config.methods:
        got = read_rows(outdir / f"results_{method}.csv")
        assert len(got) == len(want[method]), method
        for g, w in zip(got, want[method]):
            assert list(g) == list(w), method
            where = (method, g["drug"], g["event"], g["cutoff"])
            for column, expected in w.items():
                if column == "signal":
                    continue
                if isinstance(expected, float):
                    tol = TAU2_TOL if column == "tau2" else GRID_TOL
                    assert float(g[column]) == pytest.approx(expected, abs=tol), (
                        where, column
                    )
                else:
                    assert g[column] == (expected or ""), (where, column)
            ci_low = w["ci_low"]
            if isinstance(ci_low, float) and abs(ci_low - config.threshold) <= GRID_TOL:
                near += 1
            else:
                assert g["signal"] == w["signal"], where
            checked += 1
    assert checked
    print(f"reference screen, {label}: {checked} rows, {near} borrowed rows with "
          f"ci_low within {GRID_TOL:.1e} of the threshold (signal not checked)")
    return checked


@pytest.mark.parametrize(
    "label, flags",
    [
        ("defaults", ["--end", "2015Q1"]),
        ("fixed weight, target in REML, D000, two cutoffs",
         ["--w", "0.5", "--include-target-in-reml", "--drug-filter", "drugs.txt",
          "--start", "2015Q1", "--end", "2015Q2"]),
        ("fixed effects", ["--end", "2015Q1", "--effects", "fixed"]),
    ],
)
def test_concordant_run_matches_reference_screen(concordant, tmp_path, label, flags):
    flags = [str(concordant / f) if f.endswith(".txt") else f for f in flags]
    out = tmp_path / "out"
    assert main([
        "run", "--reports", str(concordant / "reports.tsv"),
        "--ontology", str(concordant / "ontology.tsv"), "--out", str(out),
        "--n-samples", "2000", *ALL_METHODS, *flags,
    ]) == 0
    check_rows(concordant, out, read_config(out), label)


def test_six_report_run_matches_reference_screen(tmp_path):
    # The chain ontology with its two leaves renamed to the store's events:
    # they share the HLGT M5, and their similarity 0.2 clears --min-ssm 0.1.
    data = tmp_path / "data"
    data.mkdir()
    (data / "reports.tsv").write_text(SIX_REPORTS, encoding="utf-8")
    (data / "ontology.tsv").write_text(
        CHAIN_ONTOLOGY.replace("L1", "EV").replace("L2", "OTHER_EV"), encoding="utf-8"
    )
    out = tmp_path / "out"
    assert main([
        "run", "--reports", str(data / "reports.tsv"),
        "--ontology", str(data / "ontology.tsv"), "--out", str(out),
        "--n-samples", "1000", "--min-ssm", "0.1", *ALL_METHODS,
    ]) == 0
    config = read_config(out)
    # 2, 3, 4 and 5 active pairs at the four cutoffs, each under 3 methods.
    assert check_rows(data, out, config, "six reports") == 3 * 14


def test_sweep_point_screen_matches_reference_screen(concordant, tmp_path):
    # A sweep screens every point with one similarity matrix, built at the
    # lowest min_ssm of its grid; a point's own cutoff then decides. Here
    # that cutoff is the similarity most pairs share, so sources sit exactly
    # on it and must be left out.
    ontology = load_ontology(str(concordant / "ontology.tsv"))
    store = load_reports(str(concordant / "reports.tsv"), ontology)
    similarity = build_similarity(ontology, min_ssm=0.3)
    values = Counter(
        s for pt in ontology.pts() for _, s in similarity.neighbors(pt)
    )
    cutoff = values.most_common(1)[0][0]
    config = parse_config({
        "methods": "IC_SSM", "n_samples": "2000", "end": "2015Q1",
        "min_ssm": repr(cutoff),
    })
    assert config.min_ssm == cutoff
    run = run_quarters(RunContext(
        store=store, config=config, similarity=similarity, ontology=ontology
    ))
    write_results_csv(run.results, "IC_SSM", str(tmp_path / "results_IC_SSM.csv"))
    check_rows(concordant, tmp_path, config, f"sweep point min_ssm={cutoff!r}")
