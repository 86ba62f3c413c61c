"""Spontaneous-report storage and cumulative 2x2 contingency tables."""

from __future__ import annotations

import logging
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .ontology import Ontology
from .quarters import Quarter

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ContingencyTable:
    """Counts for one (drug, event) pair: a=both, b=drug only, c=event only, d=rest."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError(f"negative cell in {self}")

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def drug_margin(self) -> int:
        return self.a + self.b

    @property
    def event_margin(self) -> int:
        return self.a + self.c

    def observed_expected(self) -> float | None:
        """O/E ratio, or None when a zero margin leaves it undefined."""
        expected = self.drug_margin * self.event_margin / self.n if self.n else 0.0
        if expected == 0.0:
            return None
        return self.a / expected


class _Columns:
    """Reports as flat integer columns, filled one report at a time.

    Drug and event codes are numbered on first sight. Per record it keeps
    the quarter ordinal and how many drugs and events the report names;
    the codes themselves go into two flat buffers in record order.
    """

    def __init__(self) -> None:
        self.drug_codes: dict[str, int] = {}
        self.event_codes: dict[str, int] = {}
        self.quarter = array("q")
        self.n_drugs = array("q")
        self.n_events = array("q")
        self.drugs = array("q")
        self.events = array("q")

    def add(self, quarter: int, drugs, events) -> int:
        """Append one report (distinct codes); returns its record index."""
        dc, ec = self.drug_codes, self.event_codes
        self.quarter.append(quarter)
        self.n_drugs.append(len(drugs))
        self.n_events.append(len(events))
        self.drugs.extend([dc.setdefault(d, len(dc)) for d in drugs])
        self.events.extend([ec.setdefault(e, len(ec)) for e in events])
        return len(self.quarter) - 1


def _sorted_codes(codes: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """Names in sorted order, and the map from first-sight code to sorted rank."""
    names = list(codes)  # first-sight order is code order
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names), dtype=np.int64)
    return [names[i] for i in order], rank


def _cumulative(
    keys: np.ndarray, quarter_idx: np.ndarray, n_keys: int, n_q: int
) -> np.ndarray:
    """[n_keys, n_q] counts of (key, quarter) incidences, cumulative over quarters."""
    flat = np.bincount(keys * n_q + quarter_idx, minlength=n_keys * n_q)
    return flat.reshape(n_keys, n_q).cumsum(axis=1)


def _ints(buf: array) -> np.ndarray:
    return np.frombuffer(buf, dtype=np.int64)


class ReportStore:
    """Cumulative report counts per quarter, held as integer arrays.

    Drugs and events are numbered in sorted order. For every stored quarter
    the store keeps the number of reports, of reports naming each drug, each
    event and each co-reported (drug, event) pair, all cumulative over
    quarters, so a contingency table at any cutoff is a few lookups.
    Built by ``load_reports``, which counts the records whose alive flag
    is set.
    """

    def __init__(self, cols: _Columns, alive: np.ndarray, warnings: list[str]):
        self.load_warnings = warnings
        rec_q = _ints(cols.quarter)
        n_drugs, n_events = _ints(cols.n_drugs), _ints(cols.n_events)
        self._drug_names, drug_rank = _sorted_codes(cols.drug_codes)
        self._event_names, event_rank = _sorted_codes(cols.event_codes)
        self._drug_index = {d: i for i, d in enumerate(self._drug_names)}
        self._event_index = {e: i for i, e in enumerate(self._event_names)}
        n_d, n_e = len(self._drug_names), len(self._event_names)

        ordinals = np.unique(rec_q[alive])
        self._ordinals = ordinals.tolist()
        self._quarters = [Quarter.from_ordinal(o) for o in self._ordinals]
        n_q = len(self._ordinals)
        rec_qi = np.searchsorted(ordinals, rec_q)
        self._n = np.bincount(rec_qi[alive], minlength=n_q).cumsum()
        self._n_reports = int(alive.sum())

        # One row per (record, drug) incidence; keep the alive records.
        d_rec = np.repeat(np.arange(len(rec_q)), n_drugs)
        d_keep = alive[d_rec]
        d_rec, d_code = d_rec[d_keep], drug_rank[_ints(cols.drugs)][d_keep]
        e_rec = np.repeat(np.arange(len(rec_q)), n_events)
        e_code_all = event_rank[_ints(cols.events)]
        e_keep = alive[e_rec]
        self._drug = _cumulative(d_code, rec_qi[d_rec], n_d, n_q)
        self._event = _cumulative(
            e_code_all[e_keep], rec_qi[e_rec[e_keep]], n_e, n_q
        )

        # (record, drug, event): each alive drug incidence once per event of
        # its record; `within` runs 0..k-1 over the record's k events.
        reps = n_events[d_rec]
        within = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        e_start = np.cumsum(n_events) - n_events
        p_event = e_code_all[np.repeat(e_start[d_rec], reps) + within]
        p_key = np.repeat(d_code, reps) * n_e + p_event
        self._pair_keys, pair_idx = np.unique(p_key, return_inverse=True)
        self._pair = _cumulative(
            pair_idx.ravel(), rec_qi[np.repeat(d_rec, reps)], len(self._pair_keys), n_q
        )

    def __len__(self) -> int:
        return self._n_reports

    def quarters(self) -> list[Quarter]:
        return list(self._quarters)

    def _quarter_index(self, cutoff: Quarter) -> int:
        """Index of the last stored quarter <= cutoff, or -1."""
        return bisect_right(self._ordinals, cutoff.ordinal) - 1

    def contingency(self, drug: str, event: str, cutoff: Quarter) -> ContingencyTable:
        """2x2 table over all reports with quarter <= cutoff."""
        qi = self._quarter_index(cutoff)
        if qi < 0:
            raise ValidationError(f"no reports at or before {cutoff}")
        di = self._drug_index.get(drug)
        ei = self._event_index.get(event)
        a = 0
        if di is not None and ei is not None:
            key = di * len(self._event_names) + ei
            k = int(self._pair_keys.searchsorted(key))
            if k < len(self._pair_keys) and self._pair_keys.item(k) == key:
                a = self._pair.item(k, qi)
        b = (self._drug.item(di, qi) if di is not None else 0) - a
        c = (self._event.item(ei, qi) if ei is not None else 0) - a
        return ContingencyTable(a=a, b=b, c=c, d=self._n.item(qi) - a - b - c)

    def active_pairs(
        self, cutoff: Quarter, min_a: int = 1, drugs: Iterable[str] | None = None
    ) -> list[tuple[str, str]]:
        """(drug, event) pairs with a >= min_a at cutoff, sorted.

        With ``drugs`` given, only pairs whose drug is one of those codes;
        codes absent from the store match nothing.
        """
        qi = self._quarter_index(cutoff)
        if qi < 0:
            return []
        # Pairs first reported after the cutoff count 0 there: never active.
        keys = self._pair_keys[self._pair[:, qi] >= max(min_a, 1)]
        n_e = len(self._event_names)
        drug_idx = keys // n_e
        if drugs is not None:
            wanted = [self._drug_index[d] for d in drugs if d in self._drug_index]
            keep = np.isin(drug_idx, np.array(wanted, dtype=np.int64))
            keys, drug_idx = keys[keep], drug_idx[keep]
        names, events = self._drug_names, self._event_names
        return [
            (names[d], events[e])
            for d, e in zip(drug_idx.tolist(), (keys % n_e).tolist())
        ]


def load_reports(path: str, ontology: Ontology | None = None) -> ReportStore:
    """Parse a tab-separated report file into a ReportStore.

    Rows are ``<report_id> <YYYYQn> <drug1;drug2;...> <pt1;pt2;...>``;
    ``#`` starts a comment line. Duplicate report ids keep the last record
    (logged). Unknown PT codes are kept but warned about when an ontology
    is supplied. Malformed rows reject the whole file with a line number.
    """
    cols = _Columns()
    warnings: list[str] = []
    latest: dict[str, int] = {}  # report id -> record index of its last line
    record_line = array("q")
    quarter_memo: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            head = line.lstrip()
            if not head or head[0] == "#":
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValidationError(
                    f"{path}:{lineno}: report row needs 4 tab-separated fields"
                )
            report_id, quarter_text, drug_field, event_field = fields
            if not report_id:
                raise ValidationError(f"{path}:{lineno}: empty report id")
            quarter = quarter_memo.get(quarter_text)
            if quarter is None:
                try:
                    quarter = Quarter.parse(quarter_text).ordinal
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
                quarter_memo[quarter_text] = quarter
            drugs = set(drug_field.split(";"))
            drugs.discard("")
            events = set(event_field.split(";"))
            events.discard("")
            if not drugs or not events:
                raise ValidationError(
                    f"{path}:{lineno}: report needs at least one drug and one event"
                )
            record = cols.add(quarter, drugs, events)
            record_line.append(lineno)
            previous = latest.get(report_id)
            if previous is not None:
                msg = (
                    f"duplicate report id {report_id!r} at line {lineno} replaces "
                    f"line {record_line[previous]}"
                )
                log.warning("%s: %s", path, msg)
                warnings.append(msg)
            latest[report_id] = record
    if ontology is not None:
        for code in sorted(set(cols.event_codes) - set(ontology.pts())):
            msg = f"event code {code!r} not present in the ontology"
            log.warning("%s: %s", path, msg)
            warnings.append(msg)
    alive = np.zeros(len(record_line), dtype=bool)
    alive[np.fromiter(latest.values(), dtype=np.int64, count=len(latest))] = True
    return ReportStore(cols, alive, warnings)
