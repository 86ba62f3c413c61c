"""Spontaneous-report storage and cumulative 2x2 contingency tables."""

from __future__ import annotations

import logging
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .ontology import Ontology
from .quarters import Quarter

log = logging.getLogger(__name__)

# Report text parsed at a time, in characters (the ``readlines`` hint of a
# text stream). Larger blocks load no faster, and a whole block's strings
# are alive at once: at a million characters a 3000-row file left the
# process 0.6 MB larger than a line-by-line parse did.
_BLOCK_CHARS = 1 << 15


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


@dataclass
class _Columns:
    """Reports as flat integer columns, the input of ``ReportStore``.

    Drug and event codes are numbered on first sight. Per record it keeps
    the quarter ordinal and how many distinct drugs and events the report
    names; ``drugs`` and ``events`` hold the codes themselves in record
    order.
    """

    drug_codes: dict[str, int]
    event_codes: dict[str, int]
    quarter: np.ndarray
    n_drugs: np.ndarray
    n_events: np.ndarray
    drugs: np.ndarray
    events: np.ndarray


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
    counts = np.bincount(keys * n_q + quarter_idx, minlength=n_keys * n_q)
    counts = counts.reshape(n_keys, n_q)
    return np.cumsum(counts, axis=1, out=counts)


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
        rec_q, n_drugs, n_events = cols.quarter, cols.n_drugs, cols.n_events
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
        d_rec, d_code = d_rec[d_keep], drug_rank[cols.drugs][d_keep]
        e_rec = np.repeat(np.arange(len(rec_q)), n_events)
        e_code_all = event_rank[cols.events]
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

    Rows are ``<report_id> <YYYYQn> <drug1;drug2;...> <pt1;pt2;...>``. A
    line is skipped when it is empty or only whitespace, or when its first
    non-whitespace character is ``#``. Within a row, empty codes are dropped
    and a code named twice counts once. Duplicate report ids keep the last
    row (logged). Unknown PT codes are kept but warned about when an
    ontology is supplied. A malformed row rejects the whole file; the error
    names its line number, counting every physical line, comments and blank
    lines included.

    The file is parsed in blocks of about 32k characters with string and
    numpy operations over the whole block, so the parse holds one block of
    text at a time, however long the file is.
    """
    loader = _BlockLoader(path)
    with open(path, encoding="utf-8") as fh:
        while lines := fh.readlines(_BLOCK_CHARS):
            loader.add(lines)
    return loader.store(ontology)


class _BlockLoader:
    """What ``load_reports`` carries from one block of lines to the next."""

    def __init__(self, path: str):
        self.path = path
        self.drug_codes: dict[str, int] = {}
        self.event_codes: dict[str, int] = {}
        self.quarter_memo: dict[str, int] = {}  # quarter text -> ordinal
        self.latest: dict[str, int] = {}  # report id -> record of its last row
        self.record_line = array("q")  # record index -> physical line number
        self.warnings: list[str] = []
        empty = np.zeros(0, dtype=np.int64)
        # Per block: quarter, n_drugs, n_events, drugs, events.
        self.blocks: list[tuple[np.ndarray, ...]] = [(empty,) * 5]
        self.lines_read = 0

    def add(self, lines: list[str]) -> None:
        """Parse the next lines of the file; raise on the first bad row."""
        first_line = self.lines_read + 1
        self.lines_read += len(lines)
        linenos = [
            no
            for no, raw in enumerate(lines, first_line)
            if raw.lstrip()[:1] not in ("", "#")
        ]
        if not linenos:
            return
        rows = lines
        if len(linenos) < len(lines):
            rows = [lines[no - first_line] for no in linenos]
        if not rows[-1].endswith("\n"):  # the file's last line
            rows[-1] += "\n"
        first_record = len(self.record_line)
        self.record_line.extend(linenos)
        parsed = self._parse(rows)
        if parsed is None:
            bad, msg = _first_bad_row(rows)
            good_ids = [row.split("\t", 1)[0] for row in rows[:bad]]
            self._note_duplicates(good_ids, first_record)  # rows above it still warn
            raise ValidationError(f"{self.path}:{linenos[bad]}: {msg}")
        ids, columns = parsed
        self._note_duplicates(ids, first_record)
        self.blocks.append(columns)

    def _parse(self, rows: list[str]) -> tuple[list[str], tuple] | None:
        """The report ids and columns of rows ending in newlines, or None
        if one is malformed. New quarter texts and codes join the maps."""
        n = len(rows)
        # Each row's last field ends with its newline: the rows have 4
        # fields each exactly when there are 4n fields and the n newlines
        # all fall in fields 3, 7, 11, ... (4n alone also fits 3 + 5 fields).
        fields = "\t".join(rows).split("\t")
        event_text = "".join(fields[3::4])
        if len(fields) != 4 * n or event_text.count("\n") != n:
            return None
        ids, quarter_texts = fields[0::4], fields[1::4]
        if "" in ids:
            return None
        memo = self.quarter_memo
        for text in set(quarter_texts).difference(memo):
            try:
                memo[text] = Quarter.parse(text).ordinal
            except ValidationError:
                return None
        drug_fields = fields[2::4]
        drugs, n_drugs = _code_column(
            drug_fields, ";".join(drug_fields), self.drug_codes
        )
        events, n_events = _code_column(
            fields[3::4], event_text[:-1].replace("\n", ";"), self.event_codes
        )
        if not (n_drugs.all() and n_events.all()):
            return None
        quarter = np.fromiter(
            map(memo.__getitem__, quarter_texts), dtype=np.int64, count=n
        )
        return ids, (quarter, n_drugs, n_events, drugs, events)

    def _note_duplicates(self, ids: list[str], first_record: int) -> None:
        """Point each id at its record, in file order, warning of each replacement."""
        latest, record_line = self.latest, self.record_line
        for record, report_id in enumerate(ids, first_record):
            previous = latest.get(report_id)
            if previous is not None:
                msg = (
                    f"duplicate report id {report_id!r} at line "
                    f"{record_line[record]} replaces line {record_line[previous]}"
                )
                log.warning("%s: %s", self.path, msg)
                self.warnings.append(msg)
            latest[report_id] = record

    def store(self, ontology: Ontology | None) -> ReportStore:
        """The store of every block added; the loader is spent after it."""
        if ontology is not None:
            for code in sorted(set(self.event_codes) - set(ontology.pts())):
                msg = f"event code {code!r} not present in the ontology"
                log.warning("%s: %s", self.path, msg)
                self.warnings.append(msg)
        records = np.fromiter(self.latest.values(), dtype=np.int64)
        alive = np.zeros(len(self.record_line), dtype=bool)
        alive[records] = True
        del records, self.latest, self.record_line
        columns = [np.concatenate(col) for col in zip(*self.blocks)]
        del self.blocks
        cols = _Columns(self.drug_codes, self.event_codes, *columns)
        return ReportStore(cols, alive, self.warnings)


def _code_column(
    fields: list[str], codes_text: str, codes: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes of each row, numbered, and how many each row has.

    ``codes_text`` is the fields joined by ``;``. New names are numbered in
    order of first sight. Empty codes are dropped and a code repeated within
    a row is kept once; only a block with an empty code or a row of several
    codes is sorted for that. Skipping the sort for blocks of one-code rows
    took a 150k-row file of such rows from 0.52 to 0.38 s on 2 vCPUs.
    """
    names = codes_text.split(";")
    new = set(names).difference(codes)
    new.discard("")
    if new:
        for name in dict.fromkeys(names):
            if name in new:
                codes[name] = len(codes)
    code = np.fromiter(
        map(codes.get, names, repeat(-1)), dtype=np.int64, count=len(names)
    )
    if len(names) == len(fields):  # one code per row: nothing repeats
        per_row = np.ones(len(fields), dtype=np.int64)
        if code.min() >= 0:
            return code, per_row
    else:
        per_row = np.fromiter(
            map(str.count, fields, repeat(";")), dtype=np.int64, count=len(fields)
        )
        per_row += 1
    # One key per (row, code), with empty codes (-1) at 0 within their row.
    width = len(codes) + 1
    row = np.repeat(np.arange(len(fields), dtype=np.int64), per_row)
    key = np.unique(row * width + code + 1)
    key = key[key % width != 0]
    return key % width - 1, np.bincount(key // width, minlength=len(fields))


def _first_bad_row(rows: list[str]) -> tuple[int, str]:
    """Index and message of the first malformed row, checked one by one.

    Checks run in this order: 4 fields, a report id, the quarter, then at
    least one drug and one event. Called only for a block that failed a
    bulk check, so it always finds a row.
    """
    for i, row in enumerate(rows):
        fields = row.rstrip("\n").split("\t")
        if len(fields) != 4:
            return i, "report row needs 4 tab-separated fields"
        report_id, quarter_text, drug_field, event_field = fields
        if not report_id:
            return i, "empty report id"
        try:
            Quarter.parse(quarter_text)
        except ValidationError as exc:
            return i, str(exc)
        drugs, events = set(drug_field.split(";")), set(event_field.split(";"))
        if not drugs - {""} or not events - {""}:
            return i, "report needs at least one drug and one event"
    raise AssertionError("no malformed row in a block that failed a bulk check")
