"""Synthetic report/ontology/reference generation with known ground truth.

The generated ontology is a flat balanced shape whose intrinsic information
content is analytically known: sibling PTs under a dedicated cluster parent
have pairwise similarity m / (4 - 3m) with m = 1 - log(size+1) / log(N).
Raising the total concept count N is the lever that raises within-cluster
similarity, so feasibility is checked up front.

Baseline reports draw drug and event independently; planted pairs multiply
the joint cell probability from their onset quarter onward. Everything is
deterministic per (scenario, seed): regenerating yields byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, quote
from .quarters import Quarter

log = logging.getLogger(__name__)

CONCORDANT = "concordant"
DISCORDANT = "discordant"

REPORTS_FILE = "reports.tsv"
ONTOLOGY_FILE = "ontology.tsv"
REFERENCE_FILE = "reference.tsv"
MANIFEST_FILE = "manifest.json"

_PTS_PER_HLT = 8
_HLTS_PER_HLGT = 2


@dataclass(frozen=True)
class PlantedSignal:
    drug: str
    pt: str
    multiplier: float
    onset: int  # quarter offset from scenario start


@dataclass(frozen=True)
class ClusterSpec:
    kind: str
    size: int
    target_ssm: float = 0.35
    n_groupmates: int = 4  # discordant only: common PTs sharing the HLT


@dataclass(frozen=True)
class Scenario:
    name: str
    n_drugs: int
    n_pts: int
    n_reports: int
    n_quarters: int
    seed: int
    planted: tuple[PlantedSignal, ...] = ()
    clusters: tuple[ClusterSpec, ...] = ()
    start: Quarter = Quarter(2015, 1)
    label_lag: int = 4
    negatives_per_drug: int = 10

    def __post_init__(self) -> None:
        for name, least in (
            ("n_drugs", 1),
            ("n_pts", 1),
            ("n_reports", 0),
            ("n_quarters", 1),
            ("negatives_per_drug", 0),
            ("seed", 0),
            ("label_lag", 0),
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise ValidationError(
                    f"scenario {name} must be an integer >= {least}, got {quote(value)}"
                )


def drug_code(i: int) -> str:
    return f"D{i:03d}"


def pt_code(i: int) -> str:
    return f"PT{i:04d}"


@dataclass
class Layout:
    """Deterministic structural assignment derived from a scenario."""

    cluster_members: list[list[str]]
    groupmates: list[list[str]]
    background: list[str]
    pt_hlts: dict[str, list[str]]  # every PT's MedDRA HLT parents


def _layout(s: Scenario) -> Layout:
    if sum(c.size for c in s.clusters) > s.n_pts:
        raise ValidationError("cluster sizes exceed n_pts")
    members = []
    offset = 0
    for c in s.clusters:
        if c.kind not in (CONCORDANT, DISCORDANT):
            raise ValidationError(f"unknown cluster kind {quote(c.kind)}")
        if c.size < 2:
            raise ValidationError("clusters need at least 2 PTs")
        if not isinstance(c.n_groupmates, int) or c.n_groupmates < 0:
            raise ValidationError(
                "cluster n_groupmates must be an integer >= 0, got "
                f"{quote(c.n_groupmates)}"
            )
        # A NaN target would pass the similarity check below vacuously.
        if not (isinstance(c.target_ssm, (int, float)) and 0.0 < c.target_ssm < 1.0):
            raise ValidationError(
                "cluster target_ssm must be a number in (0, 1), got "
                f"{quote(c.target_ssm)}"
            )
        members.append([pt_code(offset + j) for j in range(c.size)])
        offset += c.size
    background = [pt_code(i) for i in range(offset, s.n_pts)]
    groupmates = []
    take = 0
    for c in s.clusters:
        n = c.n_groupmates if c.kind == DISCORDANT else 0
        if take + n > len(background):
            raise ValidationError("not enough background PTs for group-mates")
        groupmates.append(background[take : take + n])
        take += n

    pt_hlts = {pt: [f"HLTC{idx:02d}"] for idx, ms in enumerate(members) for pt in ms}
    for j, pt in enumerate(background):
        pt_hlts[pt] = [f"HLT{j // _PTS_PER_HLT:03d}"]
    for idx, mates in enumerate(groupmates):
        for pt in mates:
            pt_hlts[pt].append(f"HLTC{idx:02d}")
    return Layout(members, groupmates, background, pt_hlts)


def _designed_ssm(s: Scenario, n_concepts: int) -> list[float]:
    """Each cluster's sibling similarity in a graph of n_concepts concepts;
    refuses a cluster that falls short of its target."""
    designed = []
    for c in s.clusters:
        m = 1.0 - math.log(c.size + 1) / math.log(n_concepts)
        ssm = m / (4.0 - 3.0 * m) if m > 0 else 0.0
        if ssm < c.target_ssm:
            m_req = 4.0 * c.target_ssm / (1.0 + 3.0 * c.target_ssm)
            n_req = math.ceil(math.exp(math.log(c.size + 1) / (1.0 - m_req)))
            raise ValidationError(
                f"cluster of size {c.size} reaches sibling similarity "
                f"{ssm:.4f} < target {c.target_ssm} with {n_concepts} concepts; "
                f"the flat shape needs at least {n_req} concepts, so raise "
                f"n_pts by about {n_req - n_concepts}"
            )
        designed.append(ssm)
    return designed


def _render_ontology(s: Scenario, lay: Layout) -> tuple[str, int]:
    """The ontology file's text and its number of concepts."""
    lines = ["# synthetic concept graph"]
    nodes: list[tuple[str, str, str]] = [("ROOT", "OTHER", "root"), ("SOC0", "SOC", "system organ class 0")]
    edges: list[tuple[str, str, str]] = [("SOC0", "ROOT", "ISA")]

    def add_node(code: str, level: str, label: str, isa_parent: str = "ROOT"):
        nodes.append((code, level, label))
        edges.append((code, isa_parent, "ISA"))

    for idx, c in enumerate(s.clusters):
        add_node(f"GRP{idx:02d}", "OTHER", f"cluster parent {idx}")
        add_node(f"HLGC{idx:02d}", "HLGT", f"cluster group {idx}")
        add_node(f"HLTC{idx:02d}", "HLT", f"cluster term group {idx}")
        edges.append((f"HLGC{idx:02d}", "SOC0", "MEDDRA"))
        edges.append((f"HLTC{idx:02d}", f"HLGC{idx:02d}", "MEDDRA"))
        for pt in lay.cluster_members[idx]:
            add_node(pt, "PT", f"term {pt}", isa_parent=f"GRP{idx:02d}")

    n_bg_hlt = math.ceil(len(lay.background) / _PTS_PER_HLT)
    for k in range(n_bg_hlt):
        add_node(f"HLT{k:03d}", "HLT", f"term group {k}")
        edges.append((f"HLT{k:03d}", f"HLG{k // _HLTS_PER_HLGT:03d}", "MEDDRA"))
    for k in range(math.ceil(n_bg_hlt / _HLTS_PER_HLGT)):
        add_node(f"HLG{k:03d}", "HLGT", f"group {k}")
        edges.append((f"HLG{k:03d}", "SOC0", "MEDDRA"))
    for pt in lay.background:
        add_node(pt, "PT", f"term {pt}")
    for pt, hlts in lay.pt_hlts.items():
        edges.extend((pt, hlt, "MEDDRA") for hlt in hlts)

    for code, level, label in nodes:
        lines.append(f"N\t{code}\t{level}\t{label}")
    for child, parent, kind in sorted(edges):
        lines.append(f"E\t{child}\t{parent}\t{kind}")
    return "\n".join(lines) + "\n", len(nodes)


def _event_weights(s: Scenario, lay: Layout) -> np.ndarray:
    weights = {pt: 1.0 for pt in (pt_code(i) for i in range(s.n_pts))}
    for idx, c in enumerate(s.clusters):
        if c.kind == CONCORDANT:
            for pt in lay.cluster_members[idx]:
                weights[pt] = 3.0
        else:
            member_iter = iter(lay.cluster_members[idx])
            weights[next(member_iter)] = 3.0  # target stays visible
            for pt in member_iter:
                weights[pt] = 0.6  # rare, noisy neighbors
            for pt in lay.groupmates[idx]:
                weights[pt] = 5.0  # common group-mates, tightly null
    w = np.array([weights[pt_code(i)] for i in range(s.n_pts)])
    return w / w.sum()


def _drug_weights(s: Scenario) -> np.ndarray:
    w = np.array([1.0 + (i % 3) for i in range(s.n_drugs)])
    return w / w.sum()


def _render_reports(s: Scenario, lay: Layout) -> tuple[str, dict[str, int]]:
    p_drug = _drug_weights(s)
    p_event = _event_weights(s, lay)
    drug_idx = {drug_code(i): i for i in range(s.n_drugs)}
    pt_idx = {pt_code(i): i for i in range(s.n_pts)}
    for p in s.planted:
        if p.drug not in drug_idx or p.pt not in pt_idx:
            raise ValidationError(f"planted pair {quote((p.drug, p.pt))} not in scenario")
        if p.multiplier < 1.0:
            raise ValidationError("planted multipliers must be >= 1")
        if not isinstance(p.onset, int) or not 0 <= p.onset < s.n_quarters:
            raise ValidationError(
                f"onset {quote(p.onset)} is not an integer in 0..{s.n_quarters - 1}"
            )

    rng = np.random.Generator(np.random.Philox(s.seed))
    lines = ["# synthetic spontaneous reports"]
    counts: dict[str, int] = {}
    report_no = 0
    base = s.n_reports // s.n_quarters
    extra = s.n_reports % s.n_quarters
    for q_off in range(s.n_quarters):
        quarter = s.start + q_off
        n_q = base + (1 if q_off < extra else 0)
        cell_p = np.outer(p_drug, p_event)
        for p in s.planted:
            if q_off >= p.onset:
                cell_p[drug_idx[p.drug], pt_idx[p.pt]] *= p.multiplier
        cell_p /= cell_p.sum()
        cell_counts = rng.multinomial(n_q, cell_p.ravel())
        for flat_i in np.flatnonzero(cell_counts):
            d = drug_code(flat_i // s.n_pts)
            e = pt_code(flat_i % s.n_pts)
            n_cell = int(cell_counts[flat_i])
            counts[f"{d}|{e}|{quarter}"] = n_cell
            for _ in range(n_cell):
                report_no += 1
                lines.append(f"R{report_no:07d}\t{quarter}\t{d}\t{e}")
    return "\n".join(lines) + "\n", counts


def _render_reference(s: Scenario, lay: Layout) -> tuple[str, list[dict], list[dict]]:
    lines = ["# reference set"]
    positives = []
    for p in sorted(s.planted, key=lambda p: (p.drug, p.pt)):
        label = s.start + (p.onset + s.label_lag)
        lines.append(f"{p.drug}\t{p.pt}\tPOSITIVE\t{label}")
        positives.append({"drug": p.drug, "pt": p.pt, "label_quarter": str(label)})

    planted_pts = {p.pt for p in s.planted}
    blocked_hlts = {hlt for pt in planted_pts for hlt in lay.pt_hlts[pt]}
    groupmate_pts = {pt for mates in lay.groupmates for pt in mates}
    candidates = [
        pt
        for pt in lay.background
        if pt not in planted_pts
        and pt not in groupmate_pts
        and blocked_hlts.isdisjoint(lay.pt_hlts[pt])
    ]
    drugs = sorted({p.drug for p in s.planted}) or [
        drug_code(i) for i in range(s.n_drugs)
    ]
    negatives = []
    for drug in drugs:
        for pt in candidates[: s.negatives_per_drug]:
            lines.append(f"{drug}\t{pt}\tNEGATIVE")
            negatives.append({"drug": drug, "pt": pt})
    return "\n".join(lines) + "\n", positives, negatives


def _scenario_echo(s: Scenario) -> dict:
    return {
        **dataclasses.asdict(s),
        "start": str(s.start),
        "planted": [dataclasses.asdict(p) for p in s.planted],
        "clusters": [dataclasses.asdict(c) for c in s.clusters],
    }


# The JSON values an echo field declared with each scalar type may hold. An
# integer is a number; a boolean is neither, though Python counts it an int.
_ECHO_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


def _fields_of(cls, echo: object) -> dict:
    """echo itself, once it is checked to hold exactly the fields of cls,
    each text, integer or number field with a value of that type."""
    if not isinstance(echo, dict):
        raise ValidationError(f"{cls.__name__} echo is not an object: {quote(echo)}")
    names = {f.name for f in dataclasses.fields(cls)}
    if echo.keys() != names:
        raise ValidationError(
            f"{cls.__name__} echo: missing fields {quote(sorted(names - echo.keys()))}, "
            f"unknown fields {quote(sorted(echo.keys() - names))}"
        )
    for f in dataclasses.fields(cls):
        value = echo[f.name]
        if f.type in _ECHO_TYPES and (
            isinstance(value, bool) or not isinstance(value, _ECHO_TYPES[f.type])
        ):
            raise ValidationError(
                f"{cls.__name__} echo field {f.name} must be {f.type}, "
                f"got {type(value).__name__}"
            )
    return echo


def scenario_from_echo(echo: object) -> Scenario:
    """The scenario a manifest echo describes. Every field must be present,
    and none unknown, in the scenario and in each planted pair and cluster."""
    fields = _fields_of(Scenario, echo)
    planted = [PlantedSignal(**_fields_of(PlantedSignal, p)) for p in fields["planted"]]
    clusters = [ClusterSpec(**_fields_of(ClusterSpec, c)) for c in fields["clusters"]]
    return Scenario(
        **{
            **fields,
            "start": Quarter.parse(fields["start"]),
            "planted": tuple(planted),
            "clusters": tuple(clusters),
        }
    )


def render(scenario: Scenario) -> tuple[dict[str, bytes], dict]:
    """The bytes of every file generate writes, manifest included, and the
    manifest as a dict; both fully deterministic. The manifest's digests are
    taken from the same bytes."""
    lay = _layout(scenario)
    ontology_text, n_concepts = _render_ontology(scenario, lay)
    designed_ssm = _designed_ssm(scenario, n_concepts)
    reports_text, counts = _render_reports(scenario, lay)
    reference_text, positives, negatives = _render_reference(scenario, lay)
    files = {
        ONTOLOGY_FILE: ontology_text.encode(),
        REPORTS_FILE: reports_text.encode(),
        REFERENCE_FILE: reference_text.encode(),
    }
    manifest = {
        "format_version": 1,
        "scenario": _scenario_echo(scenario),
        "counts": counts,
        "totals": {
            "reports": scenario.n_reports,
            "concepts": n_concepts,
            "positives": len(positives),
            "negatives": len(negatives),
        },
        "designed_ssm": [round(v, 12) for v in designed_ssm],
        "cluster_members": lay.cluster_members,
        "groupmates": lay.groupmates,
        "positives": positives,
        "negatives": negatives,
        "digests": {
            name: hashlib.sha256(data).hexdigest() for name, data in files.items()
        },
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    files[MANIFEST_FILE] = text.encode()
    return files, manifest


def generate(scenario: Scenario, outdir: str) -> dict:
    """Write the files of render(scenario), manifest last; returns the manifest."""
    files, manifest = render(scenario)
    os.makedirs(outdir, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(outdir, name), "wb") as fh:
            fh.write(data)
    return manifest


def verify_manifest(outdir: str) -> bool:
    """Render again from the manifest's scenario echo and compare every file,
    manifest included, byte for byte.

    Logs the first differing file and line, or why the manifest is missing
    or its scenario cannot be rendered; True only on an exact match.
    """
    try:
        with open(os.path.join(outdir, MANIFEST_FILE), "rb") as fh:
            manifest_bytes = fh.read()
    except FileNotFoundError:
        log.error("no %s in %s", MANIFEST_FILE, outdir)
        return False
    try:
        files, _ = render(scenario_from_echo(json.loads(manifest_bytes)["scenario"]))
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        # Not %r: a UnicodeDecodeError's repr carries the whole manifest.
        log.error("cannot regenerate the scenario in %s: %s: %s",
                  MANIFEST_FILE, type(exc).__name__, exc)
        return False
    for name, expected in files.items():
        path = os.path.join(outdir, name)
        try:
            with open(path, "rb") as fh:
                actual = fh.read()
        except FileNotFoundError:
            log.error("missing generated file %s", path)
            return False
        if actual != expected:
            n = min(len(actual), len(expected))
            got, want = (np.frombuffer(b, np.uint8, n) for b in (actual, expected))
            differ = np.flatnonzero(got != want)
            at = int(differ[0]) if differ.size else n
            log.error("%s differs from its regeneration at line %d",
                      path, actual.count(b"\n", 0, at) + 1)
            return False
    return True


# -- stock scenarios -----------------------------------------------------------
#
# Callers take a preset with another seed or size through
# dataclasses.replace(PRESETS[name], seed=..., n_reports=...).

_CONCORDANT = Scenario(
    name="concordant", n_drugs=4, n_pts=300, n_reports=3000, n_quarters=8, seed=0,
    clusters=(ClusterSpec(CONCORDANT, size=5, target_ssm=0.35),),
    # five similar sibling PTs all planted on one drug
    planted=tuple(
        PlantedSignal(drug_code(0), pt_code(j), multiplier=6.0, onset=2)
        for j in range(5)
    ),
)

PRESETS: dict[str, Scenario] = {
    # small mixed scenario for demos and CLI round-trips
    "basic": Scenario(
        name="basic", n_drugs=3, n_pts=48, n_reports=900, n_quarters=6, seed=0,
        clusters=(ClusterSpec(CONCORDANT, size=3, target_ssm=0.3),),
        planted=(
            PlantedSignal(drug_code(0), pt_code(0), multiplier=5.0, onset=1),
            PlantedSignal(drug_code(0), pt_code(1), multiplier=5.0, onset=1),
            PlantedSignal(drug_code(1), pt_code(10), multiplier=4.0, onset=2),
        ),
        negatives_per_drug=8,
    ),
    "concordant": _CONCORDANT,
    "null": dataclasses.replace(_CONCORDANT, name="null", planted=()),
    # One strongly elevated target whose similar siblings are rare and null,
    # while its well-reported HLGT group-mates carry a weaker elevation. Group
    # borrowing then pools a confident prior centered well below the target's
    # own signal; similarity borrowing sees only the uninformative siblings.
    # By the layout rule the cluster takes PT0000-PT0004 and its four
    # group-mates the next codes, PT0005-PT0008.
    "discordant": dataclasses.replace(
        _CONCORDANT,
        name="discordant",
        clusters=(ClusterSpec(DISCORDANT, size=5, target_ssm=0.35, n_groupmates=4),),
        planted=(PlantedSignal(drug_code(0), pt_code(0), multiplier=6.0, onset=2),)
        + tuple(
            PlantedSignal(drug_code(0), pt_code(j), multiplier=2.5, onset=0)
            for j in range(5, 9)
        ),
    ),
}
