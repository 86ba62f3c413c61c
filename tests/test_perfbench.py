"""The benchmark's traced child wraps package attributes from outside the
package; these tests check that every wrapped layer still records spans."""

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


@pytest.mark.parametrize(
    "command, extra, spans",
    [
        ("run", [], RUN_SPANS),
        ("sweep", ["--reference", "reference.tsv", "--grid", "w=0.5,0.8"],
         SWEEP_SPANS),
    ],
)
def test_traced_child_records_every_layer(
    concordant, tmp_path, command, extra, spans
):
    record = tmp_path / "record.json"
    extra = [str(concordant / a) if a.endswith(".tsv") else a for a in extra]
    args = [
        command,
        "--reports", str(concordant / "reports.tsv"),
        "--ontology", str(concordant / "ontology.tsv"),
        "--out", str(tmp_path / "out"),
        "--methods", "IC,IC_SSM,IC_HLGT",
        "--end", "2015Q1",
        "--n-samples", "1000",
    ] + extra
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(record), "1",
         "--", *args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(record.read_text())
    recorded = {name for _, name, _, _, _ in traced["spans"]}
    assert spans <= recorded, spans - recorded
    for key in COUNTS:
        assert traced["counts"].get(key, 0) > 0, key
