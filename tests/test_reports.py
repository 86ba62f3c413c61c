import logging
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icborrow import ContingencyTable, Quarter, load_ontology, load_reports, reports
from icborrow.errors import ValidationError, data_lines

from conftest import CHAIN_ONTOLOGY, make_store
from oracles import load_reports_by_line, rescan_table, store_state

Q = Quarter.parse


def test_six_report_fixture(six_report_store):
    t = six_report_store.contingency("DRUG", "EV", Q("2015Q4"))
    assert (t.a, t.b, t.c, t.d) == (2, 1, 1, 2)
    assert t.n == 6
    assert t.drug_margin == 3 and t.event_margin == 3


def test_cutoff_is_inclusive_and_monotone(six_report_store):
    earlier = six_report_store.contingency("DRUG", "EV", Q("2015Q2"))
    later = six_report_store.contingency("DRUG", "EV", Q("2015Q4"))
    assert (earlier.a, earlier.b, earlier.c, earlier.d) == (2, 1, 1, 0)
    for cell in "abcd":
        assert getattr(later, cell) >= getattr(earlier, cell)


def test_contingency_before_first_report(six_report_store):
    with pytest.raises(ValidationError):
        six_report_store.contingency("DRUG", "EV", Q("2014Q4"))


def test_unreported_codes_land_in_margins(six_report_store):
    t = six_report_store.contingency("NO_SUCH_DRUG", "EV", Q("2015Q4"))
    assert (t.a, t.b) == (0, 0)
    assert t.c == 3
    t = six_report_store.contingency("DRUG", "NO_SUCH_EV", Q("2015Q4"))
    assert (t.a, t.c) == (0, 0)


def test_observed_expected():
    assert ContingencyTable(10, 90, 90, 810).observed_expected() == pytest.approx(1.0)
    assert ContingencyTable(10, 0, 0, 90).observed_expected() == pytest.approx(10.0)
    assert ContingencyTable(0, 10, 10, 80).observed_expected() == 0.0
    # zero margin: undefined, signaled as absent
    assert ContingencyTable(0, 0, 10, 90).observed_expected() is None
    with pytest.raises(ValueError):
        ContingencyTable(-1, 0, 0, 0)


def test_every_report_has_pair():
    store = make_store(
        [(f"R{i}", "2015Q1", {"D"}, {"E"}) for i in range(4)]
    )
    t = store.contingency("D", "E", Q("2015Q1"))
    assert (t.a, t.b, t.c, t.d) == (4, 0, 0, 0)


def test_active_pairs(six_report_store):
    pairs = six_report_store.active_pairs(Q("2015Q4"), min_a=1, drugs=None)
    assert pairs == [
        ("DRUG", "EV"),
        ("DRUG", "OTHER_EV"),
        ("OTHER_DRUG", "EV"),
        ("OTHER_DRUG", "OTHER_EV"),
        ("THIRD_DRUG", "OTHER_EV"),
    ]
    assert six_report_store.active_pairs(Q("2015Q4"), min_a=2, drugs=None) == [
        ("DRUG", "EV"),
        ("DRUG", "OTHER_EV"),
        ("OTHER_DRUG", "OTHER_EV"),
    ]
    assert six_report_store.active_pairs(Q("2015Q4"), min_a=99, drugs=None) == []
    for drug, event in pairs:
        assert six_report_store.contingency(drug, event, Q("2015Q4")).a >= 1


def test_dedup_last_wins(tmp_path, caplog):
    path = tmp_path / "dup.tsv"
    path.write_text(
        "R1\t2015Q1\tD1\tE1\nR1\t2015Q2\tD2\tE2\n", encoding="utf-8"
    )
    store = load_reports(str(path))
    assert len(store) == 1
    # Only the second line counts: R1 at 2015Q2 with D2 and E2.
    assert store.quarters() == [Q("2015Q2")]
    t = store.contingency("D2", "E2", Q("2015Q2"))
    assert (t.a, t.b, t.c, t.d) == (1, 0, 0, 0)
    t = store.contingency("D1", "E1", Q("2015Q2"))
    assert (t.a, t.b, t.c, t.d) == (0, 0, 0, 1)
    assert len(store.load_warnings) == 1
    assert "R1" in store.load_warnings[0]


def test_duplicate_chain_across_blocks(tmp_path, caplog):
    # R7 on lines 1, 6 and 11, in three different 64-character blocks;
    # R1 and R1\x00 are two reports.
    rows = [
        "R7\t2015Q1\tD1\tE1",
        "R1\t2015Q1\tD1\tE2",
        "R1\x00\t2015Q1\tD2\tE2",
        "R2\t2015Q1\tD3\tE3",
        "R3\t2015Q1\tD3\tE3",
        "R7\t2015Q2\tD2\tE1",
        "R4\t2015Q2\tD3\tE3",
        "R5\t2015Q2\tD3\tE3",
        "R6\t2015Q2\tD3\tE3",
        "R8\t2015Q2\tD3\tE3",
        "R7\t2015Q3\tD4\tE4",
    ]
    path = tmp_path / "chain.tsv"
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    with patch.object(reports, "_BLOCK_CHARS", 64), caplog.at_level(logging.WARNING):
        store = load_reports(str(path))
    want = [
        "duplicate report id 'R7' at line 6 replaces line 1",
        "duplicate report id 'R7' at line 11 replaces line 6",
    ]
    assert store.load_warnings == want
    assert [r.getMessage() for r in caplog.records] == [f"{path}: {w}" for w in want]
    assert len(store) == 9
    assert store.active_pairs(Q("2015Q3"), min_a=1, drugs=None) == [
        ("D1", "E2"), ("D2", "E2"), ("D3", "E3"), ("D4", "E4")
    ]
    assert store.contingency("D3", "E3", Q("2015Q3")).a == 6
    q2 = store.active_pairs(Q("2015Q2"), min_a=1, drugs=None)
    assert q2 == [("D1", "E2"), ("D2", "E2"), ("D3", "E3")]
    assert store.active_pairs(Q("2015Q1"), min_a=1, drugs=None) == q2


def test_store_memory_grows_with_incidences(tmp_path):
    # 20 drugs x 20 events: 400 pairs, each reported in one of 40 quarters,
    # three reports a quarter. A pair x quarter matrix would hold 16000.
    lines, n = [], 0
    for j in range(40):
        quarter = f"{2010 + j // 4}Q{j % 4 + 1}"
        drugs = ";".join(f"D{2 * (j // 4) + i:02d}" for i in range(2))
        events = ";".join(f"E{5 * (j % 4) + i:02d}" for i in range(5))
        for _ in range(3):
            n += 1
            lines.append(f"R{n}\t{quarter}\t{drugs}\t{events}\n")
    path = tmp_path / "reports.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    store = load_reports(str(path))
    n_q, incidences = len(store.quarters()), 400
    assert n_q == 40
    assert len(store.active_pairs(Q("2019Q4"), min_a=1, drugs=None)) == incidences
    held = sum(v.size for v in vars(store).values() if isinstance(v, np.ndarray))
    assert held <= 4 * (len(store) + incidences + (20 + 20) * n_q)


def _traced_peak(load, path) -> int:
    tracemalloc.start()
    try:
        load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_id_widens_no_other(tmp_path):
    # Ids padded to the longest one would take n * width bytes here.
    n, width = 20_000, 2_000
    ids = [f"R{i}" for i in range(n)]
    peaks = []
    for name in ("short.tsv", "long.tsv"):
        path = tmp_path / name
        path.write_text("".join(f"{i}\t2015Q1\tD1\tE1\n" for i in ids), encoding="utf-8")
        peaks.append(_traced_peak(load_reports, str(path)))
        ids[n // 2] = "L" * width
    assert peaks[1] - peaks[0] < n * width / 4


def test_load_peak_per_report(tmp_path):
    # 30k one-drug, one-event reports over 200 drugs, 1000 events and 16
    # quarters. With int64 record columns, all five joined while their
    # blocks were alive, the load's traced peak was 133 B a report; int32
    # columns, each freed after its last reader, take it to 58.
    rng = np.random.default_rng(0)
    n = 30_000
    drugs = rng.integers(0, 200, n).tolist()
    events = rng.integers(0, 1000, n).tolist()
    quarters = rng.integers(0, 16, n).tolist()
    path = tmp_path / "reports.tsv"
    path.write_text(
        "".join(
            f"R{i:06d}\t{2015 + q // 4}Q{q % 4 + 1}\tD{d:03d}\tE{e:04d}\n"
            for i, (q, d, e) in enumerate(zip(quarters, drugs, events))
        ),
        encoding="utf-8",
    )
    load_reports(str(path))  # a process's first load also fills one-time caches
    assert _traced_peak(load_reports, str(path)) / n < 90


def test_index_dtype_narrows_below_2_31():
    assert reports._index_dtype(0) == np.int32
    assert reports._index_dtype(2**31 - 1) == np.int32
    assert reports._index_dtype(2**31) == np.int64
    assert reports._index_dtype(2**40) == np.int64


def test_int64_columns_load_the_same_store(tmp_path):
    # No test file is large enough for _index_dtype's int64 branch, so it is
    # forced: every column that narrows to int32 is built as int64 instead.
    rng = np.random.default_rng(0)
    drugs = [f"D{i}" for i in range(40)]
    events = [f"E{i}" for i in range(60)]
    path = tmp_path / "reports.tsv"
    path.write_text(_report_lines(_multi_code_rows(rng, 3000, 1500, drugs, events)),
                    encoding="utf-8")
    narrow = store_state(load_reports(str(path)))
    with patch.object(reports, "_index_dtype", return_value=np.dtype(np.int64)) as wide:
        assert store_state(load_reports(str(path))) == narrow
    assert wide.call_count > 0
    assert narrow == store_state(load_reports_by_line(str(path)))


def test_keys_past_2_31_match_the_line_loop_and_a_rescan(tmp_path):
    # 3000 reports, each with its own drug and event, spread over the 240
    # quarters 1960Q1-2019Q4: the keys (drug * 3000 + event) * 240 + quarter
    # reach 2.16e9, past 2**31, so only int64 products keep them in order.
    n, first = 3000, Q("1960Q1")
    quarters = [first + i * 240 // n for i in range(n)]
    path = tmp_path / "reports.tsv"
    path.write_text(
        "".join(f"R{i}\t{q}\tD{i:04d}\tE{i:04d}\n" for i, q in enumerate(quarters)),
        encoding="utf-8",
    )
    store = load_reports(str(path))
    assert store_state(store) == store_state(load_reports_by_line(str(path)))
    assert len(store.quarters()) == 240
    assert store.active_pairs(Q("2019Q4"), min_a=1, drugs=None) == [
        (f"D{i:04d}", f"E{i:04d}") for i in range(n)
    ]
    raw = [(q, {f"D{i:04d}"}, {f"E{i:04d}"}) for i, q in enumerate(quarters)]
    # The reports with the largest keys, and a random sample; each with its
    # own event and with the next report's, a pair never reported.
    rng = np.random.default_rng(0)
    picks = list(range(n - 10, n)) + rng.choice(n - 10, 10, replace=False).tolist()
    cutoffs = [quarters[0], Q("1985Q2"), quarters[-2], quarters[-1]]
    for i in picks:
        for j in (i, (i + 1) % n):
            drug, event = f"D{i:04d}", f"E{j:04d}"
            for cutoff in cutoffs:
                t = store.contingency(drug, event, cutoff)
                assert (t.a, t.b, t.c, t.d) == rescan_table(raw, drug, event, cutoff)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# nothing here\n", encoding="utf-8")
    store = load_reports(str(path))
    assert len(store) == 0
    assert store.quarters() == []


ROW_ERRORS = {
    "R1\t2015Q1\tD1": "report row needs 4 tab-separated fields",
    "R1\t2015Q1\tD1\tE1\tE2": "report row needs 4 tab-separated fields",
    # 3 + 5 fields: as many as two good rows, each field in a good place.
    "R1\t2015Q1\tD1\nE1\tR2\t2015Q1\tD1\tE1": (
        "report row needs 4 tab-separated fields"
    ),
    "\t2015Q1\tD1\tE1": "empty report id",
    "R1\tbadq\tD1\tE1": "bad quarter 'badq', expected YYYYQn",
    "R1\t2015Q1\t\tE1": "report needs at least one drug and one event",
    "R1\t2015Q1\t;;\tE1": "report needs at least one drug and one event",
    "R1\t2015Q1\tD1\t": "report needs at least one drug and one event",
}


@pytest.mark.parametrize("line", list(ROW_ERRORS))
def test_malformed_lines_rejected(tmp_path, line):
    # Line numbers count every physical line: the comment and the blank
    # line before the bad row, not only the rows.
    path = tmp_path / "bad.tsv"
    path.write_text(f"# header\n\n{line}\nR2\t2015Q1\tD1\tE1\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_reports(str(path))
    assert str(err.value) == f"{path}:3: {ROW_ERRORS[line]}"


def test_unknown_pt_warns_but_keeps(tmp_path, chain_ontology):
    path = tmp_path / "reports.tsv"
    path.write_text("R1\t2015Q1\tD1\tL1;MYSTERY\n", encoding="utf-8")
    store = load_reports(str(path), chain_ontology)
    assert len(store) == 1
    assert any("MYSTERY" in w for w in store.load_warnings)
    for event in ("L1", "MYSTERY"):
        t = store.contingency("D1", event, Q("2015Q1"))
        assert (t.a, t.b, t.c, t.d) == (1, 0, 0, 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_indexed_counts_match_full_rescan(seed):
    rng = np.random.default_rng(seed)
    drugs = [f"D{i}" for i in range(4)]
    events = [f"E{i}" for i in range(6)]
    rows = []
    raw = []
    for i in range(int(rng.integers(1, 200))):
        q = f"2015Q{int(rng.integers(1, 5))}"
        ds = set(rng.choice(drugs, size=int(rng.integers(1, 3)), replace=False))
        es = set(rng.choice(events, size=int(rng.integers(1, 4)), replace=False))
        rows.append((f"R{i}", q, ds, es))
        raw.append((Q(q), ds, es))
    store = make_store(rows)
    for cutoff in store.quarters():
        for drug in drugs:
            for event in events:
                t = store.contingency(drug, event, cutoff)
                assert (t.a, t.b, t.c, t.d) == rescan_table(raw, drug, event, cutoff)
                assert t.n == sum(1 for q, _, _ in raw if q <= cutoff)


GAPPED_QUARTERS = ["2015Q1", "2015Q3", "2016Q2"]
# Stored quarters, cutoffs between them, and one after the last.
CUTOFFS = ["2015Q1", "2015Q2", "2015Q3", "2016Q1", "2016Q2", "2017Q4"]


def _multi_code_rows(rng, n_rows, n_ids, drugs, events):
    """(id, quarter, drugs, events) rows over GAPPED_QUARTERS; ids repeat,
    and codes are drawn with replacement, so a report can name one twice."""
    rows = []
    for _ in range(n_rows):
        rid = f"R{int(rng.integers(0, n_ids))}"
        q = GAPPED_QUARTERS[int(rng.integers(0, 3))]
        ds = [str(x) for x in rng.choice(drugs, size=int(rng.integers(1, 4)))]
        es = [str(x) for x in rng.choice(events, size=int(rng.integers(1, 4)))]
        rows.append((rid, q, ds, es))
    return rows


def _report_lines(rows) -> str:
    return "".join(f"{rid}\t{q}\t{';'.join(ds)}\t{';'.join(es)}\n" for rid, q, ds, es in rows)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_loaded_counts_match_rescan_across_gaps_and_duplicates(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    drugs = [f"D{i}" for i in range(4)]
    events = [f"E{i}" for i in range(6)]
    rows = _multi_code_rows(rng, int(rng.integers(1, 120)), 60, drugs, events)
    # report id -> its last row: the one load_reports keeps
    latest = {rid: (q, set(ds), set(es)) for rid, q, ds, es in rows}
    path = tmp_path_factory.mktemp("gaps") / "reports.tsv"
    path.write_text(_report_lines(rows), encoding="utf-8")
    loaded = load_reports(str(path))
    rows = [(rid, q, ds, es) for rid, (q, ds, es) in latest.items()]
    built = make_store(rows)
    raw = [(Q(q), ds, es) for _, q, ds, es in rows]

    assert len(loaded) == len(built) == len(latest)
    stored = sorted({quarter for quarter, _, _ in raw})
    assert loaded.quarters() == built.quarters() == stored
    for text in ["2014Q4"] + CUTOFFS:
        cutoff = Q(text)
        if cutoff < stored[0]:
            for store in (loaded, built):
                with pytest.raises(ValidationError):
                    store.contingency("D0", "E0", cutoff)
                assert store.active_pairs(cutoff, min_a=1, drugs=None) == []
            continue
        for drug in drugs + ["NO_DRUG"]:
            for event in events + ["NO_EVENT"]:
                want = rescan_table(raw, drug, event, cutoff)
                for store in (loaded, built):
                    t = store.contingency(drug, event, cutoff)
                    assert (t.a, t.b, t.c, t.d) == want
        for min_a in (1, 2, 3):
            brute = sorted(
                (d, e)
                for d in drugs
                for e in events
                if rescan_table(raw, d, e, cutoff)[0] >= min_a
            )
            assert loaded.active_pairs(cutoff, min_a=min_a, drugs=None) == brute
            assert built.active_pairs(cutoff, min_a=min_a, drugs=None) == brute
            # A random drug subset, with codes the store may lack or never
            # has, and a subset that matches nothing.
            subset = [d for d in drugs + ["NO_DRUG"] if rng.random() < 0.5]
            for wanted in (subset, ["NO_DRUG"], []):
                filtered = [p for p in brute if p[0] in wanted]
                for store in (loaded, built):
                    got = store.active_pairs(cutoff, min_a=min_a, drugs=wanted)
                    assert got == filtered


# Codes may hold characters that str.splitlines() would break on; a file
# line ends only at \n, \r\n or \r, so these stay inside their field.
# Codes of exactly 8 UTF-8 bytes and of more (two that differ only past
# their first 8), and non-ASCII ones, take every width of key the loader
# builds.
FILE_CODES = [
    "D1", "D2", "E1", "L1", "X\x1cY", "P Q", "V\x0bW",
    "EXACTLY8", "LONGER_THAN_8", "LONGER_THAN_9", "Ü", "ÉÉÉÉÉ",
]
# Ids that differ only by a trailing NUL, by a prefix or by an inner
# space, and ones that are not ASCII, at the end and at the start.
REPORT_IDS = [f"R{i}" for i in range(10)] + ["R1\x00", "R10", "Ré", "R 1", "éR"]
# Comments (some with tabs), blank and whitespace-only lines, and
# indented comments; \x1c, \xa0 and \u3000 are whitespace to str.lstrip().
SKIPPED_LINES = [
    "#", "# note", "#\tx\ty", "", " ", " \t ", "\x1c", "  # x", "\t#\tx",
    "\xa0# x", "\u3000",
]
MALFORMED_ROWS = {
    "3 fields": ["R9\t2015Q1\tD1"],
    "5 fields": ["R9\t2015Q1\tD1\tE1\tE2"],
    # 3 + 5 fields: 8 in all, as many as two good rows have, and every
    # field in a good row's place would pass for it.
    "3 then 5 fields": ["R9\t2015Q1\tD1", "E1\tR8\t2015Q1\tD1\tE1"],
    "empty id": ["\t2015Q1\tD1\tE1"],
    "bad quarter": ["R9\t2015Q5\tD1\tE1"],
    "no drug": ["R9\t2015Q1\t;;\tE1"],
    "no event": ["R9\t2015Q1\tD1\t"],
}


@st.composite
def report_files(draw):
    """Report file text with every kind of skipped line, line ending and
    code list, and at most one malformed row."""
    codes = st.lists(st.sampled_from(FILE_CODES + [""]), min_size=1, max_size=4)
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        skipped = draw(st.none() | st.sampled_from(SKIPPED_LINES))
        if skipped is not None:
            lines.append(skipped)
            continue
        drugs, events = draw(codes), draw(codes)
        if not any(drugs):
            drugs.append("D1")
        if not any(events):
            events.append("E1")
        lines.append(
            "\t".join(
                [
                    draw(st.sampled_from(REPORT_IDS)),
                    draw(st.sampled_from(GAPPED_QUARTERS + [" 2015Q3"])),
                    ";".join(drugs),
                    ";".join(events),
                ]
            )
        )
    bad = draw(st.none() | st.sampled_from(sorted(MALFORMED_ROWS)))
    if bad is not None:
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = MALFORMED_ROWS[bad]
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _load_outcome(load, path, ontology):
    """What a loader returns or raises, and what it logs on the way."""
    logger = logging.getLogger("icborrow.reports")
    handler = _Messages()
    logger.addHandler(handler)
    try:
        store = load(path, ontology)
    except ValidationError as exc:
        return ("error", str(exc)), handler.messages
    finally:
        logger.removeHandler(handler)
    return ("store", store_state(store), len(store), store.quarters()), handler.messages


@settings(max_examples=300, deadline=None)
@given(text=report_files(), with_ontology=st.booleans())
def test_block_loader_equals_line_loop(tmp_path_factory, text, with_ontology):
    folder = tmp_path_factory.mktemp("blocks")
    path = str(folder / "reports.tsv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    ontology = None
    if with_ontology:
        (folder / "chain.tsv").write_text(CHAIN_ONTOLOGY, encoding="utf-8")
        ontology = load_ontology(str(folder / "chain.tsv"))
    # Blocks of a few lines each: rows, new codes, duplicate ids and bad
    # rows fall on both sides of block boundaries.
    with patch.object(reports, "_BLOCK_CHARS", 64):
        got = _load_outcome(load_reports, path, ontology)
    assert got == _load_outcome(load_reports_by_line, path, ontology)


# Characters str.lstrip() takes for whitespace: ASCII ones, and \x1c-\x1f,
# \x85, \xa0 and \u3000, which a text stream does not end a line at.
WHITESPACE = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
              "\x85", "\xa0", "\u3000"]


@st.composite
def skip_rule_files(draw):
    """File text of rows, comments and blank lines, each after a run of
    whitespace, with \\n, \\r\\n and \\r ends; and its rows. Row ids start
    with ASCII and with non-ASCII characters; row i names drug D<i>."""
    lines, rows = [], []
    for i in range(draw(st.integers(0, 20))):
        lead = draw(st.text(st.sampled_from(WHITESPACE), max_size=3))
        kind = draw(st.sampled_from(["row", "comment", "blank"]))
        if kind == "row":
            lead = lead.replace("\t", "")  # a tab would start a fifth field
            first = draw(st.sampled_from(["R", "é", "\u4e00", "\U0001f600"]))
            rows.append(f"{lead}{first}{i}\t2015Q1\tD{i}\tE1")
            lines.append(rows[-1])
        elif kind == "comment":
            lines.append(lead + "#" + draw(st.sampled_from(["", " x", "\tx", "é"])))
        else:
            lines.append(lead)
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(endings) for line in lines), rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=skip_rule_files())
def test_report_rows_are_the_data_lines(tmp_path_factory, case):
    # Lines that start with ASCII are judged by the loader's first-byte
    # table, the others by errors.is_data_line; data_lines keeps the same
    # rows, numbered as universal newlines count lines.
    text, rows = case
    path = tmp_path_factory.mktemp("skip") / "reports.tsv"
    path.write_bytes(text.encode("utf-8"))
    physical = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    kept = list(data_lines(str(path)))
    assert [line for _, line in kept] == rows
    assert all(physical[lineno - 1] == line for lineno, line in kept)
    drugs = {row.split("\t")[2] for row in rows}
    with patch.object(reports, "_BLOCK_CHARS", 64):
        store = load_reports(str(path))
    assert len(store) == len(drugs)
    pairs = store.active_pairs(Quarter(2015, 1), min_a=1, drugs=None) if drugs else []
    assert {drug for drug, _ in pairs} == drugs
