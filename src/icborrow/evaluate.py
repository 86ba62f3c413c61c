"""Scoring screening runs against a time-stamped reference set.

Positive controls carry the quarter their product label changed; an alert
only counts as a true positive when it lands strictly before that quarter
(configurable to non-strict). Positives alerted at or after their label
quarter are excluded from the confusion counts entirely. Negative controls
count as false positives when alerted at any time. Every function here
returns records; ``cli`` writes them to the metrics, compare, sweep and
bootstrap files.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import ValidationError, data_lines, quote
from .ontology import Ontology, build_similarity
from .pipeline import METHOD_SSM, RunConfig, RunContext, run_quarters
from .quarters import Quarter
from .reports import ReportStore

log = logging.getLogger(__name__)

POSITIVE = "POSITIVE"
NEGATIVE = "NEGATIVE"

Alerts = Mapping[tuple[str, str], Quarter]


@dataclass(frozen=True)
class ReferenceEntry:
    drug: str
    pt: str
    kind: str
    label_quarter: Quarter | None = None


def load_reference(path: str) -> list[ReferenceEntry]:
    """Parse ``<drug> <pt> <POSITIVE|NEGATIVE> [YYYYQn]`` rows (tab-separated).

    Duplicate (drug, pt) entries, positives without a label quarter, and
    negatives with one are all rejected.
    """
    entries: list[ReferenceEntry] = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, line in data_lines(path):
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise ValidationError(
                f"{path}:{lineno}: reference row needs 3 or 4 tab-separated fields"
            )
        drug, pt, kind = fields[0], fields[1], fields[2]
        for name, code in (("drug", drug), ("PT", pt)):
            if not code:
                raise ValidationError(f"{path}:{lineno}: empty {name} code")
        if kind not in (POSITIVE, NEGATIVE):
            raise ValidationError(f"{path}:{lineno}: unknown control kind {quote(kind)}")
        label = None
        if len(fields) == 4 and fields[3]:
            try:
                label = Quarter.parse(fields[3])
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if kind == POSITIVE and label is None:
            raise ValidationError(
                f"{path}:{lineno}: positive control needs a label quarter"
            )
        if kind == NEGATIVE and label is not None:
            raise ValidationError(
                f"{path}:{lineno}: negative control must not carry a quarter"
            )
        key = (drug, pt)
        if key in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate reference pair {quote(key)}, "
                f"first at line {seen[key]}"
            )
        seen[key] = lineno
        entries.append(ReferenceEntry(drug, pt, kind, label))
    return entries


def check_negative_controls(
    entries: list[ReferenceEntry], ontology: Ontology
) -> list[str]:
    """Flag negatives whose PT shares an HLT with any positive control PT."""
    positive_hlts: dict[str, set[str]] = {}
    for e in entries:
        if e.kind == POSITIVE:
            for h in ontology.hlt_of(e.pt):
                positive_hlts.setdefault(h, set()).add(e.pt)
    flags = []
    for e in entries:
        if e.kind != NEGATIVE:
            continue
        for h in sorted(ontology.hlt_of(e.pt)):
            if h in positive_hlts:
                flags.append(
                    f"negative ({e.drug}, {e.pt}) shares HLT {h} with positive "
                    f"PT(s) {', '.join(sorted(positive_hlts[h]))}"
                )
    return flags


# -- confusion counts and summary metrics -------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    tn: int
    fn: int
    sensitivity: float | None
    specificity: float | None
    ppv: float | None
    f1: float | None
    youden: float | None

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "MetricsReport":
        se = tp / (tp + fn) if tp + fn else None
        sp = tn / (tn + fp) if tn + fp else None
        ppv = tp / (tp + fp) if tp + fp else None
        f1 = None
        if ppv is not None and se is not None and ppv + se > 0:
            f1 = 2 * ppv * se / (ppv + se)
        youden = se + sp - 1 if se is not None and sp is not None else None
        return cls(tp, fp, tn, fn, se, sp, ppv, f1, youden)


# The columns of _cells, and the all-zero row of an entry with no cell.
_TP, _FP, _TN, _FN, _NO_CELL = range(5)
_ONE_HOT = np.eye(5, 4, dtype=np.int64)


def _cells(
    alerts: Alerts, entries: list[ReferenceEntry], strict_before: bool
) -> np.ndarray:
    """Each entry's confusion cell as an (n, 4) 0/1 matrix, columns tp, fp,
    tn, fn.

    A never-alerted positive is fn and an earlier-alerted one tp; a positive
    alerted at or after its label quarter (after it, when not
    ``strict_before``) has no cell and its row is all zero. A negative is fp
    when alerted at any time and tn otherwise.
    """
    cells = []
    for e in entries:
        alert = alerts.get((e.drug, e.pt))
        if e.kind == NEGATIVE:
            cells.append(_TN if alert is None else _FP)
        elif alert is None:
            cells.append(_FN)
        else:
            label = e.label_quarter
            hit = alert < label if strict_before else alert <= label
            cells.append(_TP if hit else _NO_CELL)
    return _ONE_HOT[np.array(cells, dtype=np.intp)]


def score(
    alerts: Alerts, entries: list[ReferenceEntry], strict_before: bool = True
) -> MetricsReport:
    """Confusion counts of a run's first alerts against the reference set.

    Reference pairs never alerted are false negatives (positives) or true
    negatives (negatives); positives alerted at/after their label quarter
    drop out of all four cells.
    """
    counts = _cells(alerts, entries, strict_before).sum(axis=0)
    return MetricsReport.from_counts(*counts.tolist())


def quarterly_curves(
    alerts: Alerts, entries: list[ReferenceEntry], quarters: list[Quarter]
) -> dict[Quarter, MetricsReport]:
    """Metrics at each cutoff using only knowledge available then.

    At cutoff q the positive pool keeps only entries whose label quarter is
    still in the future; an alert counts when it happened at or before q.
    """
    return {
        q: score(
            {pair: a for pair, a in alerts.items() if a <= q},
            [e for e in entries if e.kind == NEGATIVE or e.label_quarter > q],
        )
        for q in sorted(quarters)
    }


# -- head-to-head comparison ---------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """Positive-control detection overlap between two methods."""

    method_a: str
    method_b: str
    both: int
    only_a: int
    only_b: int
    neither: int
    mean_delta: float | None
    deltas_observed: Counter
    deltas_imputed: Counter
    n_imputed: int

    @property
    def evaluated(self) -> int:
        return self.both + self.only_a + self.only_b + self.neither


def compare_methods(
    alerts_a: Alerts,
    alerts_b: Alerts,
    entries: list[ReferenceEntry],
    method_a: str = "A",
    method_b: str = "B",
    strict_before: bool = True,
) -> Comparison:
    """Detection overlap and timing deltas on the shared positive universe.

    Positives ignored by either method (alerted at or after their label) drop
    out. Delta is first_alert_b - first_alert_a in quarters; one-sided
    detections impute one quarter past the latest label quarter for the
    missing side and are tallied separately.
    """
    positives = [e for e in entries if e.kind == POSITIVE]
    latest = max((e.label_quarter for e in positives), default=None)
    if latest is None:
        raise ValidationError("comparison needs at least one positive control")
    imputed_quarter = latest + 1
    cells_a = _cells(alerts_a, positives, strict_before)
    cells_b = _cells(alerts_b, positives, strict_before)
    kept = cells_a.any(axis=1) & cells_b.any(axis=1)
    hit_a, hit_b = cells_a[:, _TP] == 1, cells_b[:, _TP] == 1
    neither, only_b, only_a, both = np.bincount(
        2 * hit_a[kept] + hit_b[kept], minlength=4
    ).tolist()
    observed: Counter = Counter()
    imputed: Counter = Counter()
    deltas: list[int] = []
    for i in np.flatnonzero(kept & (hit_a | hit_b)).tolist():
        pair = (positives[i].drug, positives[i].pt)
        # A method that missed takes the imputed quarter.
        fa = alerts_a[pair] if hit_a[i] else imputed_quarter
        fb = alerts_b[pair] if hit_b[i] else imputed_quarter
        delta = fb - fa
        (observed if hit_a[i] and hit_b[i] else imputed)[delta] += 1
        deltas.append(delta)
    mean_delta = float(np.mean(deltas)) if deltas else None
    return Comparison(
        method_a=method_a,
        method_b=method_b,
        both=both,
        only_a=only_a,
        only_b=only_b,
        neither=neither,
        mean_delta=mean_delta,
        deltas_observed=observed,
        deltas_imputed=imputed,
        n_imputed=sum(imputed.values()),
    )


# -- bootstrap ------------------------------------------------------------------

_BOOT_METRICS = ("sensitivity", "specificity", "ppv", "f1", "youden")
MIN_BOOTSTRAP_ITER = 100


def bootstrap(
    alerts_by_method: dict[str, Alerts],
    entries: list[ReferenceEntry],
    n_iter: int = 1000,
    seed: int = 0,
    strict_before: bool = True,
) -> dict:
    """Resample reference entries with replacement; tally pairwise superiority.

    Each method's entries are put in their confusion cells once; a resample
    counts each entry's cell as many times as it draws the entry. For each
    ordered method pair and metric, reports the fraction of iterations where
    the first method's value beats the second's; ties (and undefined values
    on both sides) count one half, so identical inputs give exactly 0.5.
    Deterministic for a given seed.
    """
    if n_iter < MIN_BOOTSTRAP_ITER:
        raise ValueError(f"n_iter must be >= {MIN_BOOTSTRAP_ITER}, got {n_iter}")
    methods = sorted(alerts_by_method)
    rng = np.random.Generator(np.random.Philox(seed))
    n = len(entries)
    if n == 0:
        raise ValidationError("bootstrap needs a non-empty reference set")
    pairs = [(a, b) for a in methods for b in methods if a != b]
    wins = {(a, b, m): 0.0 for a, b in pairs for m in _BOOT_METRICS}
    cells = {m: _cells(alerts_by_method[m], entries, strict_before) for m in methods}
    for _ in range(n_iter):
        # How many times the resample draws each entry.
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n)
        reports = {
            m: MetricsReport.from_counts(*(weights @ cells[m]).tolist())
            for m in methods
        }
        for a, b in pairs:
            for metric in _BOOT_METRICS:
                va = getattr(reports[a], metric)
                vb = getattr(reports[b], metric)
                if va is None or vb is None or va == vb:
                    wins[(a, b, metric)] += 0.5
                elif va > vb:
                    wins[(a, b, metric)] += 1.0
    fractions = {
        f"{a}>{b}": {m: wins[(a, b, m)] / n_iter for m in _BOOT_METRICS}
        for a, b in pairs
    }
    return {"n_iter": n_iter, "seed": seed, "fractions": fractions}


# -- parameter sweep -------------------------------------------------------------

SWEEP_PARAMS = ("min_ssm", "w", "vague_sd", "threshold")


@dataclass(frozen=True)
class SweepRow:
    param: str
    value: str
    method: str
    report: MetricsReport


def parameter_sweep(
    store: ReportStore,
    entries: list[ReferenceEntry],
    points: list[tuple[str, object, RunConfig]],
    ontology: Ontology | None = None,
    strict_before: bool = True,
) -> list[SweepRow]:
    """Screen and score each (param, value, config) point of sweep_points.

    Monte Carlo work is shared across points through a common cache, and
    IC_SSM's similarity is built once from ``ontology`` at the points'
    lowest min_ssm.
    """
    similarity = None
    if any(METHOD_SSM in cfg.methods for _, _, cfg in points):
        if ontology is None:
            raise ValidationError("sweep needs an ontology for IC_SSM")
        floor = min(cfg.min_ssm for _, _, cfg in points)
        similarity = build_similarity(ontology, min_ssm=floor)

    cache = None  # the first point's, shared with every later point
    rows: list[SweepRow] = []
    for param, value, cfg in points:
        ctx = RunContext(
            store, cfg, similarity=similarity, ontology=ontology, cache=cache
        )
        cache = ctx.cache
        run = run_quarters(ctx)
        for method in cfg.methods:
            report = score(
                run.first_alerts[method], entries, strict_before=strict_before
            )
            rows.append(
                SweepRow(
                    param=param, value=_sweep_label(value), method=method,
                    report=report,
                )
            )
    return rows


def sweep_points(
    config: RunConfig, grid: dict[str, list]
) -> list[tuple[str, object, RunConfig]]:
    """(param, value, config) for every sweep point, in sweep order.

    One-at-a-time around ``config``: grid maps a subset of SWEEP_PARAMS to
    value lists (``w`` takes numbers or "max_ssm"), and the reference value
    is prepended to an axis that lacks it. A bad key or value, or two values
    of one axis with one sweep label, fails here, before any screening.
    """
    for key in grid:
        if key not in SWEEP_PARAMS:
            raise ValidationError(f"unknown sweep parameter {key!r}")
    points = []
    for param in SWEEP_PARAMS:
        if param not in grid:
            continue
        values = list(grid[param])
        reference_value = getattr(config, param)
        if reference_value not in values:
            values = [reference_value] + values
        labels = set()
        for value in values:
            label = _sweep_label(value)
            if label in labels:
                raise ValidationError(
                    f"sweep parameter {param!r} has the value {label} twice"
                )
            labels.add(label)
            points.append((param, value, replace(config, **{param: value})))
    return points


def _sweep_label(value) -> str:
    # + 0.0 turns -0.0, which screens as 0.0, into 0.0: one label, "0".
    return value if isinstance(value, str) else f"{float(value) + 0.0:g}"

