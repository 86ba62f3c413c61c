"""Spontaneous-report storage and cumulative 2x2 contingency tables."""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ValidationError, is_data_line, open_text, quote
from .ontology import Ontology
from .quarters import Quarter

log = logging.getLogger(__name__)

# Report text read at a time, in characters; the whole lines read so far
# are parsed together. Larger blocks load little faster, and a whole
# block's text, its UTF-8 bytes and the positions found in them are alive
# at once, which ``test_load_peak_per_report`` bounds.
_BLOCK_CHARS = 1 << 15


def _index_dtype(n: int) -> np.dtype:
    """int32 for arrays of values below ``n`` when ``n`` < 2**31, else int64.

    Record numbers, code numbers, per-record counts and positions among
    the code incidences are all below the number of records, codes or
    incidences, so arrays of them narrow to int32 under this bound.
    """
    return np.dtype(np.int32 if n < 1 << 31 else np.int64)


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

    Drug and event codes are numbered in any order: the store ranks them
    by name. Per record it keeps the quarter ordinal and how many distinct
    drugs and events the report names; ``drugs`` and ``events`` hold the
    codes themselves in record order. Any integer dtype will do: the store
    casts each column to its own index dtype as it takes it.
    """

    drug_codes: dict[str, int]
    event_codes: dict[str, int]
    quarter: np.ndarray
    n_drugs: np.ndarray
    n_events: np.ndarray
    drugs: np.ndarray
    events: np.ndarray

    def take(self, name: str, dtype: np.dtype) -> np.ndarray:
        """Column ``name`` as ``dtype``; the columns no longer hold it."""
        return vars(self).pop(name).astype(dtype, copy=False)


def _sorted_codes(
    codes: dict[str, int], dtype: np.dtype
) -> tuple[list[str], np.ndarray]:
    """Names in sorted order, and the map from first-sight code to sorted rank."""
    names = list(codes)  # first-sight order is code order
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=dtype)
    rank[order] = np.arange(len(names), dtype=dtype)
    return [names[i] for i in order], rank


def _cumulative(
    keys: np.ndarray, quarter_idx: np.ndarray, n_keys: int, n_q: int
) -> np.ndarray:
    """[n_keys, n_q] counts of (key, quarter) incidences, cumulative over quarters."""
    flat = np.multiply(keys, n_q, dtype=np.int64)  # n_keys * n_q may pass 2**31
    flat += quarter_idx
    counts = np.bincount(flat, minlength=n_keys * n_q).reshape(n_keys, n_q)
    return np.cumsum(counts, axis=1, out=counts)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in ``values``, as a mask.

    ``values`` may be a bytes array, as the wide keys of ``_FieldValues``
    are: the ``!=`` operator compares those on every numpy from the 1.24
    floor on, where the ``np.not_equal`` ufunc may have no bytes loop.
    """
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    starts[1:] = values[1:] != values[:-1]
    return starts


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted. np.unique would do, but its first call
    imports numpy.ma: 1.3 MB resident and about 10 ms under numpy 2.4."""
    values = np.sort(values)
    return values[_run_starts(values)]


def _alive_codes(
    codes: np.ndarray, per_record: np.ndarray, rank: np.ndarray, alive: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Record and sorted rank of each code of the alive records, in record order."""
    rec = np.repeat(np.arange(len(per_record), dtype=per_record.dtype), per_record)
    keep = alive[rec]
    rec = rec[keep]  # the unfiltered records are freed before the codes are read
    return rec, rank[codes[keep]]


def _pair_events(
    e_rec: np.ndarray, e_code: np.ndarray, d_rec: np.ndarray, reps: np.ndarray
) -> np.ndarray:
    """Event rank of every (record, drug, event): for each drug incidence
    in turn, the ``reps`` events of its record in record order.

    The events of drug incidence i's record start at
    ``e_rec.searchsorted(d_rec[i])`` and its pairs at the sum of the
    ``reps`` before it, so each pair reads the event at its own position
    shifted by the difference of the two.
    """
    n = int(reps.sum())
    dtype = _index_dtype(max(n, len(e_rec)))
    shift = np.cumsum(reps, dtype=dtype)
    shift -= reps
    # Shifts lie in (-n, len(e_rec)], so they fit ``dtype``.
    np.subtract(e_rec.searchsorted(d_rec), shift, out=shift, casting="unsafe")
    at = np.repeat(shift, reps)
    del shift
    at += np.arange(n, dtype=dtype)
    return e_code[at]


def _pair_quarter_keys(
    d_code: np.ndarray,
    pair_event: np.ndarray,
    d_qi: np.ndarray,
    reps: np.ndarray,
    n_e: int,
    n_q: int,
) -> np.ndarray:
    """``(drug * n_e + event) * n_q + quarter index`` of every (record, drug,
    event): drug incidence ``i`` with its quarter index ``d_qi[i]`` pairs
    with the next ``reps[i]`` events of ``pair_event``.

    The keys are int64, so no product of ranks may overflow.
    """
    key = np.multiply(np.repeat(d_code, reps), n_e, dtype=np.int64)
    key += pair_event
    key *= n_q
    key += np.repeat(d_qi, reps)
    return key


class ReportStore:
    """Cumulative report counts per quarter, held as integer arrays.

    Drugs and events are numbered in sorted order. For every stored quarter
    the store keeps the number of reports and of reports naming each drug
    and each event, cumulative over quarters. Co-reported (drug, event)
    pairs are kept only at the quarters they were reported in: one sorted
    key per (pair, quarter) incidence with the pair's cumulative count, so
    their memory grows with what was reported, not with pairs × quarters.
    A contingency table at any cutoff is a few lookups. Built by
    ``load_reports``, which counts the records whose alive flag is set.

    Every array the store keeps is int64: the counts, the keys
    ``(drug * n_events + event) * n_quarters + quarter index`` and the
    pairs, 16 bytes per (pair, quarter) incidence and 8 per pair: about 22
    bytes a report on 150k reports of one drug and one event each. While it
    is built, every array indexed by record or by code incidence (record
    numbers, code ranks, quarter indexes, per-record counts) is int32 when
    the records, the codes and the code incidences are each below 2**31,
    and int64 otherwise. The columns are spent by the constructor: each one
    is dropped once it is read.
    """

    def __init__(self, cols: _Columns, alive: np.ndarray, warnings: list[str]):
        self.load_warnings = warnings
        n_d, n_e = len(cols.drug_codes), len(cols.event_codes)
        idx = _index_dtype(
            max(len(cols.quarter), len(cols.drugs), len(cols.events), n_d, n_e)
        )
        self._drug_names, drug_rank = _sorted_codes(cols.drug_codes, idx)
        self._event_names, event_rank = _sorted_codes(cols.event_codes, idx)
        self._drug_index = {d: i for i, d in enumerate(self._drug_names)}
        self._event_index = {e: i for i, e in enumerate(self._event_names)}

        rec_q = cols.take("quarter", idx)
        ordinals = _distinct(rec_q[alive])
        self._ordinals = ordinals.tolist()
        self._quarters = [Quarter.from_ordinal(o) for o in self._ordinals]
        n_q = len(self._ordinals)
        rec_qi = np.searchsorted(ordinals, rec_q).astype(idx)
        del rec_q
        self._n = np.bincount(rec_qi[alive], minlength=n_q).cumsum()
        self._n_reports = int(alive.sum())

        # One row per (record, code) incidence of the alive records. Each
        # array is dropped after its last reader: together they set the
        # load's peak.
        d_rec, d_code = _alive_codes(
            cols.take("drugs", idx), cols.take("n_drugs", idx), drug_rank, alive
        )
        n_events = cols.take("n_events", idx)
        e_rec, e_code = _alive_codes(
            cols.take("events", idx), n_events, event_rank, alive
        )
        reps = n_events[d_rec]  # events paired with each drug incidence
        del n_events
        d_qi = rec_qi[d_rec]
        self._drug = _cumulative(d_code, d_qi, n_d, n_q)
        self._event = _cumulative(e_code, rec_qi[e_rec], n_e, n_q)
        del rec_qi
        pair_event = _pair_events(e_rec, e_code, d_rec, reps)
        del e_rec, e_code, d_rec
        keys = _pair_quarter_keys(d_code, pair_event, d_qi, reps, n_e, n_q)
        del d_code, pair_event, d_qi, reps

        # One sorted key per (pair, quarter) incidence; a pair's keys form one
        # run, and each key carries the pair's count up to its quarter. The
        # keys are sorted in place, where np.unique would sort a copy.
        keys.sort()
        n_keys = len(keys)
        first = _run_starts(keys)
        self._inc = keys[first]
        end = np.flatnonzero(first)  # each distinct key's first position
        del keys, first
        pair = self._inc // n_q
        pair_first = _run_starts(pair)
        self._pair_keys = pair[pair_first]
        del pair
        # A key's count: the end of its run less the start of its pair's
        # first run. Positions grow, so a running maximum carries each
        # pair's start over its keys.
        start = np.where(pair_first, end, 0)
        del pair_first
        np.maximum.accumulate(start, out=start)
        end[:-1] = end[1:]
        end[-1:] = n_keys
        end -= start
        self._inc_count = end

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
            # The last incidence at or before (pair, qi), if it is the pair's.
            n_q, pair = len(self._ordinals), di * len(self._event_names) + ei
            k = int(self._inc.searchsorted(pair * n_q + qi, "right")) - 1
            if k >= 0 and self._inc.item(k) // n_q == pair:
                a = self._inc_count.item(k)
        b = (self._drug.item(di, qi) if di is not None else 0) - a
        c = (self._event.item(ei, qi) if ei is not None else 0) - a
        return ContingencyTable(a=a, b=b, c=c, d=self._n.item(qi) - a - b - c)

    def active_pairs(
        self, cutoff: Quarter, *, min_a: int, drugs: Iterable[str] | None
    ) -> list[tuple[str, str]]:
        """(drug, event) pairs with a >= min_a at cutoff, sorted.

        With ``drugs`` None, every drug; otherwise only pairs whose drug is
        one of those codes, and codes absent from the store match nothing.
        """
        qi = self._quarter_index(cutoff)
        if qi < 0:
            return []
        keys = self._pair_keys
        n_q, n_e = len(self._ordinals), len(self._event_names)
        if drugs is not None:
            wanted = [self._drug_index[d] for d in drugs if d in self._drug_index]
            keys = keys[np.isin(keys // n_e, np.array(wanted, dtype=np.int64))]
        # Each pair's last incidence at or before qi, if it is the pair's, as
        # in contingency; otherwise its first report is after the cutoff.
        k = self._inc.searchsorted(keys * n_q + qi, "right") - 1
        a = np.where((k >= 0) & (self._inc[k] // n_q == keys), self._inc_count[k], 0)
        keys = keys[a >= max(min_a, 1)]
        drug_idx = keys // n_e
        names, events = self._drug_names, self._event_names
        return [
            (names[d], events[e])
            for d, e in zip(drug_idx.tolist(), (keys % n_e).tolist())
        ]


def load_reports(path: str, ontology: Ontology | None = None) -> ReportStore:
    """Parse a tab-separated report file into a ReportStore.

    Rows are ``<report_id> <YYYYQn> <drug1;drug2;...> <pt1;pt2;...>``; a
    line that ``errors.is_data_line`` rejects is skipped. Within a row,
    empty codes are dropped and a code named twice counts once. Duplicate
    report ids keep the last row (logged). Unknown PT codes are kept but
    warned about when an ontology is supplied. A malformed row rejects the
    whole file; the error names its line number, counting every physical
    line, comments and blank lines included.

    The file is read as text in blocks of about 32k characters, so
    universal newlines are those of a text stream (a byte that is not UTF-8
    is reported with its line, as ``errors.open_text`` counts it), and
    each block's whole lines are parsed as UTF-8 bytes with numpy: tabs,
    newlines and ``;`` are found in one pass each, and Python sees only a
    line that starts with whitespace or a non-ASCII character, and each
    quarter text and code the first time it occurs. The parse holds one
    block at a time, however long the file is. Each row is kept as integer
    columns and its report id as UTF-8 bytes, not as a Python object: ids
    of one length share a bytes array that wide, and duplicates are found
    by one sort per length. The columns are int32 (the quarter ordinal,
    the line number and the drug and event counts of each row, and one
    number per code it names) while the records, the codes and the code
    incidences are each below 2**31, and int64 otherwise; the keys of the
    store are int64 whatever the sizes. A report of one drug and one event
    with an 8-character id holds 34 bytes until the store is built: 24 of
    integers, 9 of id and tab and 1 of id length. The load's traced peak,
    the returned store included, is about 54 B a report on 150k such
    reports.
    """
    loader = _BlockLoader(path)
    with open_text(path) as fh:
        pending: list[str] = []  # text read since the last newline
        while text := fh.read(_BLOCK_CHARS):
            cut = text.rfind("\n") + 1
            if cut:
                loader.add("".join(pending) + text[:cut])
                pending.clear()
            pending.append(text[cut:])
        if last := "".join(pending):  # a last line without a newline
            loader.add(last + "\n")
    return loader.store(ontology)


# What the first byte of a line says of ``errors.is_data_line``: a row, a
# line to skip (empty, or a comment), or one the rule must judge whole, as
# it starts with ASCII whitespace or a non-ASCII character.
_ROW, _SKIP, _ASK = 0, 1, 2
_FIRST_BYTE = np.array(
    [_ASK if c > 127 or chr(c).isspace() else _ROW for c in range(256)], dtype=np.uint8
)
_FIRST_BYTE[[ord("\n"), ord("#")]] = _SKIP
_NEWLINE, _TAB, _SEMICOLON = ord("\n"), ord("\t"), ord(";")

# Field keys are built a word of 8 bytes at a time. _KEEP[n] keeps the
# first n bytes of a word, in memory order, and _FILL[n] sets the rest to
# 0xFF, a byte that UTF-8 never uses.
_KEEP = np.frombuffer(
    b"".join(b"\xff" * n + b"\0" * (8 - n) for n in range(9)), dtype=np.uint64
)
_FILL = ~_KEEP


class _FieldValues:
    """An integer for each text field, and every distinct text seen.

    ``parse`` gives a new text its value; without it, texts are numbered
    in the order they are first looked up. A field of L bytes is keyed by
    its bytes padded with 0xFF to the next multiple of 8: a uint64 up to 8
    bytes, a bytes scalar beyond. Equal keys of one width are equal texts,
    so per width a sorted table of the keys seen gives each field its
    value, and Python decodes only the keys the table lacks.
    """

    def __init__(self, parse: Callable[[str], int] | None = None):
        self.parse = parse
        self.names: dict[str, int] = {}  # text -> value
        # Per key width in words, the sorted keys seen and their values.
        self.tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, buf: bytes, start: np.ndarray, length: np.ndarray) -> np.ndarray:
        """The value of each field ``buf[start:start + length]``, ``length``
        at least 1, as int64. ``buf`` holds 7 bytes past the last field.
        ``parse`` errors are raised as they come."""
        words = (length + 7) >> 3
        if (words == words[0]).all():
            return self._values(buf, start, length, int(words[0]))
        values = np.empty(len(start), dtype=np.int64)
        for n_words in _distinct(words).tolist():
            at = words == n_words
            values[at] = self._values(buf, start[at], length[at], n_words)
        return values

    def _values(
        self, buf: bytes, start: np.ndarray, length: np.ndarray, n_words: int
    ) -> np.ndarray:
        """``__call__`` for fields of ``n_words`` words each."""
        # Every 8 bytes of buf, as a (mostly unaligned) uint64.
        windows = np.ndarray(
            (len(buf) - 7,), dtype=np.uint64, buffer=buf, strides=(1,)
        )
        last = n_words - 1  # the words before it are whole
        keys = windows[start + 8 * last]
        left = length - 8 * last
        keys &= _KEEP[left]
        keys |= _FILL[left]
        if n_words > 1:
            whole = np.empty((len(start), n_words), dtype=np.uint64)
            for j in range(last):
                whole[:, j] = windows[start + 8 * j]
            whole[:, last] = keys
            keys = whole.view(f"S{8 * n_words}").ravel()
        table = self.tables.get(n_words)
        if table is not None:
            known, values = table
            at = known.searchsorted(keys)
            np.minimum(at, len(known) - 1, out=at)
            hit = known[at] == keys
            if hit.all():
                return values[at]
            new = _distinct(keys[~hit])
        else:
            known, values = keys[:0], np.zeros(0, dtype=np.int64)
            new = _distinct(keys)
        blob, size = new.tobytes(), 8 * n_words
        texts = [
            blob[i : i + size].rstrip(b"\xff").decode("utf-8")
            for i in range(0, len(blob), size)
        ]
        added = np.fromiter(map(self._value, texts), dtype=np.int64, count=len(texts))
        known = np.concatenate((known, new))
        order = known.argsort()
        known, values = known[order], np.concatenate((values, added))[order]
        self.tables[n_words] = known, values
        return values[known.searchsorted(keys)]

    def _value(self, text: str) -> int:
        value = len(self.names) if self.parse is None else self.parse(text)
        self.names[text] = value
        return value


class _BlockLoader:
    """What ``load_reports`` carries from one block of lines to the next."""

    def __init__(self, path: str):
        self.path = path
        self.drugs = _FieldValues()
        self.events = _FieldValues()
        self.quarters = _FieldValues(lambda text: Quarter.parse(text).ordinal)
        # Report ids, each with a tab, UTF-8, by their length in bytes: per
        # length, a bytes array that wide for each block; and per block, the
        # length of each record's id.
        self.ids: dict[int, list[np.ndarray]] = {}
        self.id_widths: list[np.ndarray] = [np.zeros(0, dtype=np.uint8)]
        # Per block, the physical line number of each record.
        self.record_line: list[np.ndarray] = [np.zeros(0, dtype=np.int32)]
        self.warnings: list[str] = []
        # Per column (quarter, n_drugs, n_events, drugs, events), its blocks.
        self.columns = tuple([np.zeros(0, dtype=np.int32)] for _ in range(5))
        self.lines_read = 0

    def add(self, text: str) -> None:
        """Parse the next lines of the file, each ending in a newline; raise
        on the first bad row."""
        buf = (text + "\0" * 7).encode("utf-8")  # 7 bytes for the last key's word
        arr = np.frombuffer(buf, dtype=np.uint8, count=len(buf) - 7)
        ends = np.flatnonzero(arr == _NEWLINE)
        starts = np.empty_like(ends)
        starts[:1] = 0
        np.add(ends[:-1], 1, out=starts[1:])
        kind = _FIRST_BYTE[arr[starts]]
        ask = np.flatnonzero(kind == _ASK)
        for i, s, e in zip(ask.tolist(), starts[ask].tolist(), ends[ask].tolist()):
            kind[i] = _ROW if is_data_line(buf[s:e].decode("utf-8")) else _SKIP
        rows = np.flatnonzero(kind == _ROW)
        lines = rows + (self.lines_read + 1)
        self.lines_read += len(ends)
        if not len(rows):
            return
        start, end = starts[rows], ends[rows]
        parsed = self._parse_rows(buf, arr, start, end)
        if parsed is None:
            row_text = text.split("\n")
            bad, msg = _first_bad_row([row_text[i] for i in rows.tolist()])
            # The rows above it are whole, so each id ends at its first tab.
            tabs = np.flatnonzero(arr == _TAB)
            start = start[:bad]
            self._add_records(lines[:bad], buf, start, tabs[tabs.searchsorted(start)])
            self._replaced()  # rows above it still warn
            raise ValidationError(f"{self.path}:{lines[bad]}: {msg}")
        id_end, columns = parsed
        self._add_records(lines, buf, start, id_end)
        for blocks, column in zip(self.columns, columns):
            blocks.append(column)

    def _parse_rows(
        self, buf: bytes, arr: np.ndarray, start: np.ndarray, end: np.ndarray
    ) -> tuple[np.ndarray, tuple] | None:
        """Where each row's id ends, and the row's columns, or None if a row
        is malformed. Rows are ``arr[start:end]``. New quarter texts and
        codes join the loader's tables."""
        tabs = np.flatnonzero(arr == _TAB)
        first = tabs.searchsorted(start)
        if (tabs.searchsorted(end) - first != 3).any():
            return None
        id_end, quarter_end, drugs_end = tabs[first], tabs[first + 1], tabs[first + 2]
        quarter_len = quarter_end - id_end - 1
        if (id_end == start).any() or not quarter_len.all():
            return None
        try:
            # Ordinals of 4-digit years are below 40000.
            quarter = self.quarters(buf, id_end + 1, quarter_len).astype(np.int32)
        except ValidationError:
            return None
        semis = np.flatnonzero(arr == _SEMICOLON)
        drugs = _code_column(self.drugs, buf, semis, quarter_end + 1, drugs_end)
        events = _code_column(self.events, buf, semis, drugs_end + 1, end)
        if drugs is None or events is None:
            return None
        (drug_code, n_drugs), (event_code, n_events) = drugs, events
        return id_end, (quarter, n_drugs, n_events, drug_code, event_code)

    def _add_records(
        self, lines: np.ndarray, buf: bytes, start: np.ndarray, id_end: np.ndarray
    ) -> None:
        """File the next records: their line numbers, and their ids
        ``buf[start:id_end]`` by length.

        A field holds no tab or newline. The tab after each id keeps the
        length of an id that ends in NULs, which numpy's bytes type strips.
        """
        if not len(lines):
            return
        self.record_line.append(lines.astype(_index_dtype(self.lines_read)))
        width = id_end - start + 1
        # One byte a record in a block whose ids are all under 255 bytes.
        self.id_widths.append(width.astype(np.min_scalar_type(width.max())))
        widths = _distinct(width).tolist()
        for w in widths:
            # Every w bytes of the block, as a bytes scalar.
            windows = np.ndarray(
                (len(buf) - w + 1,), dtype=f"S{w}", buffer=buf, strides=(1,)
            )
            at = start if len(widths) == 1 else start[width == w]
            self.ids.setdefault(w, []).append(windows[at])

    def _replaced(self) -> np.ndarray:
        """The records whose id a later record reuses, warning of each
        replacement in file order; the ids are spent after it."""
        # Only ids of one length can match, so each length is sorted alone
        # and no id is padded.
        widths = np.concatenate(self.id_widths)
        found = []  # (record, the record it replaces, id)
        for width in sorted(self.ids):
            ids = np.concatenate(self.ids.pop(width))
            # A stable sort keeps each id's records in file order, so every
            # record is replaced by the next one in its run.
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            same = np.flatnonzero(ids[1:] == ids[:-1])
            if len(same):
                # The records of this length in file order, as ``ids`` held them.
                records = np.flatnonzero(widths == width)
                found += zip(
                    records[order[same + 1]].tolist(),
                    records[order[same]].tolist(),
                    ids[same].tolist(),
                )
        del self.ids, self.id_widths
        found.sort()
        record_line = np.concatenate(self.record_line) if found else None
        for record, previous, report_id in found:
            msg = (
                f"duplicate report id {quote(report_id.decode('utf-8')[:-1])} at line "
                f"{record_line[record]} replaces line {record_line[previous]}"
            )
            log.warning("%s: %s", self.path, msg)
            self.warnings.append(msg)
        return np.array([previous for _, previous, _ in found], dtype=np.int64)

    def store(self, ontology: Ontology | None) -> ReportStore:
        """The store of every block added; the loader is spent after it."""
        replaced = self._replaced()
        drug_codes, event_codes = self.drugs.names, self.events.names
        if ontology is not None:
            for code in sorted(set(event_codes) - set(ontology.pts())):
                msg = f"event code {quote(code)} not present in the ontology"
                log.warning("%s: %s", self.path, msg)
                self.warnings.append(msg)
        alive = np.ones(sum(map(len, self.record_line)), dtype=bool)
        alive[replaced] = False
        del replaced, self.record_line
        # One column at a time, each one's blocks freed once it is joined.
        cols = _Columns(drug_codes, event_codes, *map(_joined, self.columns))
        del self.columns
        return ReportStore(cols, alive, self.warnings)


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks as one array; the list is emptied."""
    whole = np.concatenate(blocks)
    blocks.clear()
    return whole


def _code_column(
    values: _FieldValues,
    buf: bytes,
    semis: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct codes of each field ``buf[start:end]``, numbered, and
    how many each field has; None if a field has none.

    ``semis`` holds the block's ``;`` positions; those inside a field split
    its codes. Empty codes are dropped and a code repeated within a field
    is kept once; only a block with an empty code or a field of several
    codes is sorted for that.
    """
    n = len(start)
    row = None  # the field of each code, when some field has several
    if len(semis):
        field = start.searchsorted(semis, "right") - 1
        inside = (field >= 0) & (semis < end[field])
        if inside.any():
            cut, field = semis[inside], field[inside]
            start = np.sort(np.concatenate((start, cut + 1)))
            end = np.sort(np.concatenate((cut, end)))
            row = np.repeat(np.arange(n), np.bincount(field, minlength=n) + 1)
    length = end - start
    if row is None and length.all():  # one code per field: nothing repeats
        code = values(buf, start, length)
        dtype = _index_dtype(len(values.names))
        return code.astype(dtype), np.ones(n, dtype=dtype)
    if row is None:
        row = np.arange(n)
    kept = length > 0
    if not kept.any():
        return None
    code = values(buf, start[kept], length[kept])
    # One key per (field, code): the distinct ones, in field order.
    width = len(values.names)
    key = _distinct(row[kept] * width + code)
    per_row = np.bincount(key // width, minlength=n)
    if not per_row.all():
        return None
    dtype = _index_dtype(max(width, len(key)))
    return (key % width).astype(dtype), per_row.astype(dtype)


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
