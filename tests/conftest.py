import csv
import json
import os
import tempfile

import numpy as np
import pytest

from icborrow import Ontology, Quarter, ReportStore, SimilarityMatrix, load_reports
from icborrow.errors import ValidationError
from icborrow.ontology import Concept

from oracles import random_dag

# Nine-concept chain: ROOT > M1 > ... > M5 > P > {L1, L2}. With N = 9 the
# parent P of the two leaves has exactly two descendants, so its intrinsic
# information content is 1 - log(3)/log(9) = 1/2 and sokal(L1, L2) lands on
# the round value 0.5 / (2 + 2 - 1.5) = 0.2.
CHAIN_ONTOLOGY = """\
# chain fixture
N\tROOT\tOTHER\troot
N\tM1\tOTHER\tmid 1
N\tM2\tOTHER\tmid 2
N\tM3\tOTHER\tmid 3
N\tM4\tSOC\tmid 4
N\tM5\tHLGT\tmid 5
N\tP\tHLT\tleaf parent
N\tL1\tPT\tleaf one
N\tL2\tPT\tleaf two
E\tM1\tROOT\tISA
E\tM2\tM1\tISA
E\tM3\tM2\tISA
E\tM4\tM3\tISA
E\tM5\tM4\tISA
E\tP\tM5\tISA
E\tL1\tP\tISA
E\tL2\tP\tISA
E\tL1\tP\tMEDDRA
E\tL2\tP\tMEDDRA
E\tP\tM5\tMEDDRA
E\tM5\tM4\tMEDDRA
"""

# Six reports giving the pair (DRUG, EV) the hand-counted table (2, 1, 1, 2).
SIX_REPORTS = """\
# hand-built store
R1\t2015Q1\tDRUG\tEV
R2\t2015Q1\tDRUG\tEV;OTHER_EV
R3\t2015Q2\tDRUG\tOTHER_EV
R4\t2015Q2\tOTHER_DRUG\tEV
R5\t2015Q3\tOTHER_DRUG\tOTHER_EV
R6\t2015Q4\tOTHER_DRUG;THIRD_DRUG\tOTHER_EV
"""


@pytest.fixture
def chain_ontology_path(tmp_path):
    path = tmp_path / "chain.tsv"
    path.write_text(CHAIN_ONTOLOGY, encoding="utf-8")
    return str(path)


@pytest.fixture
def chain_ontology(chain_ontology_path):
    from icborrow import load_ontology

    return load_ontology(chain_ontology_path)


@pytest.fixture
def six_report_path(tmp_path):
    path = tmp_path / "reports.tsv"
    path.write_text(SIX_REPORTS, encoding="utf-8")
    return str(path)


@pytest.fixture
def six_report_store(six_report_path):
    return load_reports(six_report_path)


def make_ontology(
    parents: dict,
    codes: list[str],
    levels: dict | None = None,
    meddra_parents: dict | None = None,
) -> Ontology:
    """Assemble an Ontology directly from an ISA parent map and, optionally,
    a MEDDRA one."""
    levels = levels or {}
    concepts = {c: Concept(c, levels.get(c, "OTHER"), c.lower()) for c in codes}
    return Ontology(
        concepts=concepts,
        isa_parents={c: tuple(ps) for c, ps in parents.items()},
        meddra_parents={c: tuple(ps) for c, ps in (meddra_parents or {}).items()},
    )


def grouped_ontology(seed: int) -> Ontology:
    """A random 40-code graph, ISA and MEDDRA edges each a random DAG, whose
    last 25 codes are PTs and whose codes 3, 6 and 9 are HLGTs."""
    rng = np.random.default_rng(seed)
    codes = [f"C{i:03d}" for i in range(40)]
    levels = {c: "PT" if i >= 15 else "HLGT" if i in (3, 6, 9) else "OTHER"
              for i, c in enumerate(codes)}
    return make_ontology(random_dag(rng, 40), codes, levels, random_dag(rng, 40))


def make_store(rows: list[tuple[str, str, set, set]]) -> ReportStore:
    """Load a store from (report_id, quarter string, drugs, events) rows,
    written to a temporary report file."""
    lines = [
        f"{rid}\t{q}\t{';'.join(sorted(drugs))}\t{';'.join(sorted(events))}\n"
        for rid, q, drugs, events in rows
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reports.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        return load_reports(path)


def break_scenario_echo(outdir, change) -> None:
    """Rewrite outdir's manifest.json with change applied to its parsed JSON."""
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    change(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


# Scenario echoes verify_manifest cannot rebuild a scenario from. Each edits
# the echo of a scenario with one cluster and at least one planted pair.
MALFORMED_ECHOES = {
    "missing-key": lambda m: m["scenario"].pop("label_lag"),
    "unknown-key": lambda m: m["scenario"].update(colour="blue"),
    "cluster-missing-key": lambda m: m["scenario"]["clusters"][0].pop("n_groupmates"),
    "planted-unknown-key": lambda m: m["scenario"]["planted"][0].update(note="x"),
    "not-an-object": lambda m: m.update(scenario=3),
    "bad-quarter": lambda m: m["scenario"].update(start="2015Q5"),
    "start-not-text": lambda m: m["scenario"].update(start=2015),
    "mistyped-count": lambda m: m["scenario"].update(n_reports="many"),
    "zero-quarters": lambda m: m["scenario"].update(n_quarters=0),
    "negative-label-lag": lambda m: m["scenario"].update(label_lag=-6),
    "negative-groupmates": lambda m: m["scenario"]["clusters"][0].update(n_groupmates=-2),
    "nan-target-ssm": lambda m: m["scenario"]["clusters"][0].update(
        target_ssm=float("nan")
    ),
    # One field's JSON type changed; each of these rendered before.
    "name-not-text": lambda m: m["scenario"].update(name=3),
    "seed-as-boolean": lambda m: m["scenario"].update(seed=False),
    "onset-as-boolean": lambda m: m["scenario"]["planted"][0].update(onset=True),
    "groupmates-as-boolean": lambda m: m["scenario"]["clusters"][0].update(
        n_groupmates=True
    ),
    "multiplier-as-text": lambda m: m["scenario"]["planted"][0].update(multiplier="5"),
    "long-count-as-text": lambda m: m["scenario"].update(n_drugs="9" * 20000),
}


def _rewrite_manifest(change, indent=2):
    """A tampering that applies change to the parsed manifest and writes it
    back as generate does, or with another indent."""

    def tamper(outdir) -> None:
        path = outdir / "manifest.json"
        manifest = json.loads(path.read_bytes())
        change(manifest)
        text = json.dumps(manifest, indent=indent, sort_keys=True) + "\n"
        path.write_bytes(text.encode())

    return tamper


def _append_ff(name):
    def tamper(outdir) -> None:
        with open(outdir / name, "ab") as fh:
            fh.write(b"\xff")

    return tamper


def _crlf(outdir) -> None:
    path = outdir / "reports.tsv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


# Changes to a generated directory that verify_manifest must refuse although
# the scenario echo still renders. Each edits a scenario with planted pairs
# and one cluster.
TAMPERINGS = {
    "totals-reports": _rewrite_manifest(
        lambda m: m["totals"].update(reports=m["totals"]["reports"] + 1)
    ),
    "digests": _rewrite_manifest(
        lambda m: m["digests"].update({"reports.tsv": "0" * 64})
    ),
    "positives": _rewrite_manifest(lambda m: m["positives"].pop()),
    "designed-ssm": _rewrite_manifest(lambda m: m.update(designed_ssm=[0.5])),
    "indent-4": _rewrite_manifest(lambda m: None, indent=4),
    "crlf-reports": _crlf,
    "ff-manifest": _append_ff("manifest.json"),
    "ff-reports": _append_ff("reports.tsv"),
}


def all_pairs_similarity(ont: Ontology, codes: list[str], min_ssm: float) -> dict:
    """{(a, b): ssm} with a < b over every pair of codes, each one scored."""
    codes = sorted(set(codes))
    out = {}
    for i, a in enumerate(codes):
        for b in codes[i + 1 :]:
            s = ont.sokal_sneath(a, b)
            if s > min_ssm:
                out[(a, b)] = s
    return out


def quarter_range(start: Quarter, end: Quarter) -> list[Quarter]:
    """All quarters from start to end inclusive."""
    if end < start:
        raise ValueError(f"empty quarter range {start}..{end}")
    return [Quarter.from_ordinal(o) for o in range(start.ordinal, end.ordinal + 1)]


def similarity_of(matrix: SimilarityMatrix, pt_a: str, pt_b: str) -> float:
    """A matrix's stored similarity of two PTs: 1 for a PT with itself,
    0 for a pair it does not keep."""
    if pt_a == pt_b:
        return 1.0
    return dict(matrix.neighbors(pt_a)).get(pt_b, 0.0)


SIMILARITY_HEADER = ["pt_a", "pt_b", "ssm"]


def save_similarity_csv(matrix: SimilarityMatrix, path: str) -> None:
    """Write the pairs a < b of a matrix as sorted pt_a,pt_b,ssm rows."""
    rows = sorted(
        (a, b, s) for a in matrix._adj for b, s in matrix.neighbors(a) if a < b
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SIMILARITY_HEADER)
        for a, b, s in rows:
            writer.writerow([a, b, f"{s:.6f}"])


def load_similarity_csv(path: str, min_ssm: float) -> SimilarityMatrix:
    """A matrix from pt_a,pt_b,ssm rows, keeping the values above min_ssm."""
    out = SimilarityMatrix(min_ssm)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SIMILARITY_HEADER:
            raise ValidationError(f"{path}: bad similarity header {header!r}")
        for row in reader:
            if len(row) != 3:
                raise ValidationError(f"{path}: bad similarity row {row!r}")
            value = float(row[2])
            if value > min_ssm:
                out._put(row[0], row[1], value)
    return out
