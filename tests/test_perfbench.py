"""The benchmark's child wraps package attributes from outside the package;
these tests check that every wrapped layer still records spans when traced,
and that the timed probe still bounds the screen and counts its rows."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from icborrow.synth import PRESETS, generate

ROOT = Path(__file__).resolve().parent.parent

# Span names that perfbench/child.py's install_tracing records when a
# command reaches the wrapped call.
RUN_SPANS = {
    "ontology.load_ontology",
    "reports.load_reports",
    "ontology.build_similarity",
    "pipeline.run_quarters",
    "reports.active_pairs",
    "pipeline.analyze_pair",
    "ic.posterior_ic",
    "borrow.borrow",
    "borrow.random_effects_map",
    "borrow.reml_tau2",
    "borrow.mixture_posterior",
    "pipeline.write",
}
SWEEP_SPANS = RUN_SPANS | {"evaluate.parameter_sweep", "evaluate.score"}
# Per-lookup wraps record counts only.
COUNTS = (
    "reports.contingency.calls",
    "pipeline.cache.calls",
    "ontology.sokal_sneath.calls",
    "borrow.sources",
)


@pytest.fixture(scope="module")
def concordant(tmp_path_factory):
    data = tmp_path_factory.mktemp("concordant")
    generate(replace(PRESETS["concordant"], seed=4), str(data))
    return data


def run_child(data, workdir, trace, command, extra=()):
    """perfbench/child.py's record of one icborrow command on data, traced
    ("1") or timed ("0"), with its --out in workdir/out."""
    record = workdir / "record.json"
    extra = [str(data / a) if a.endswith(".tsv") else a for a in extra]
    args = [
        command,
        "--reports", str(data / "reports.tsv"),
        "--ontology", str(data / "ontology.tsv"),
        "--out", str(workdir / "out"),
        "--methods", "IC,IC_SSM,IC_HLGT",
        "--end", "2015Q1",
        "--n-samples", "1000",
    ] + extra
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(record), trace,
         "--", *args],
        env=env, cwd=workdir, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(record.read_text())


SWEEP = ["--reference", "reference.tsv", "--grid", "w=0.5,0.8"]


@pytest.mark.parametrize(
    "command, extra, spans",
    [("run", [], RUN_SPANS), ("sweep", SWEEP, SWEEP_SPANS)],
)
def test_traced_child_records_every_layer(
    concordant, tmp_path, command, extra, spans
):
    traced = run_child(concordant, tmp_path, "1", command, extra)
    recorded = {name for _, name, _, _, _ in traced["spans"]}
    assert spans <= recorded, spans - recorded
    for key in COUNTS:
        assert traced["counts"].get(key, 0) > 0, key


def test_timed_child_counts_every_screened_row(concordant, tmp_path):
    # The timed runs record only the screen's bounds and its result rows:
    # one row per written results line, once per sweep point.
    (tmp_path / "run").mkdir()
    (tmp_path / "sweep").mkdir()
    timed = run_child(concordant, tmp_path / "run", "0", "run")
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) - 1
        for path in (tmp_path / "run" / "out").glob("results_*.csv")
    )
    assert timed["screen_start"] < timed["screen_end"]
    assert timed["rows"] == lines > 0
    swept = run_child(concordant, tmp_path / "sweep", "0", "sweep", SWEEP)
    assert swept["screen_start"] < swept["screen_end"]
    assert swept["rows"] == 3 * lines
