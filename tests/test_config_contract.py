"""The config contract of run, evaluate, compare and sweep.

Each example gives one config key one text value, drawn from that key's pool
of valid, out-of-range, malformed, NaN, infinite, negative and extreme
values. The value goes in as ``--key=value`` (so that ``-1`` and ``-inf``
reach the config parser, not argparse), as a line of a ``--config`` file or,
for a sweep parameter, as a second ``--grid`` axis. The contract:

- with a missing reports file the command exits 1 (the config is valid) or
  2 (it is not), with exactly one JSON line on stderr;
- where it exited 1, the same arguments on real data exit 0 and write the
  documented files, with the value in effect;
- no exception escapes ``main``, and a failed command leaves no ``--out``
  directory and no ``.partial-*`` sibling.

The data half holds ``validate`` and ``run`` to the same contract on a small
generated data set with one change at a time to one of the five text inputs:
reports, ontology, reference, ``--drug-filter`` and ``--config``; ``sweep``
with one ``--grid`` value list at a time; and ``generate``, with a malformed
scenario echo under ``--verify`` or an ``--out`` it cannot write.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from icborrow.cli import main
from icborrow.evaluate import SWEEP_PARAMS, sweep_points
from icborrow.pipeline import CONFIG_SCHEMA, parse_config, parse_config_value

from conftest import CHAIN_ONTOLOGY, MALFORMED_ECHOES, SIX_REPORTS, break_scenario_echo

# The six-report store with its events renamed to the chain ontology's PTs,
# so that both borrowing methods find sources: L1 and L2 share an HLGT, and
# their similarity, 0.2, clears the base min_ssm.
REPORTS = SIX_REPORTS.replace("OTHER_EV", "L2").replace("EV", "L1")
REFERENCE = "DRUG\tL1\tPOSITIVE\t2015Q3\nOTHER_DRUG\tL2\tNEGATIVE\n"

# Every example runs with these unless it draws the key itself.
BASE = {"methods": "IC_SSM,IC_HLGT", "min_ssm": "0.1", "n_samples": "1000"}

COMMANDS = {
    "run": [],
    "evaluate": ["--bootstrap", "100"],
    "compare": [],
    "sweep": ["--grid", "w=0.5"],
}

# Valid n_samples are kept at 1000 or 2000 and valid threads at 1 or 2, so
# no example asks for a long screen or many threads; valid start and end
# values leave the data's 2015Q1..2015Q4 window non-empty.
VALUES = {
    "methods": ["IC", "IC,IC_SSM", "IC_HLGT,IC", "IC,IC_SSM,IC_HLGT", "IC,IC",
                "", "ic", "IC_BOGUS", ",IC_SSM,,IC,"],
    "min_ssm": ["0", "0.3", "1", "1e-300", "-0.1", "7", "nan", "inf", "-inf", "x"],
    "w": ["max_ssm", "0", "0.5", "1", "5e-324", "-0.1", "1.5", "nan", "inf",
          "-inf", "MAX_SSM", ""],
    "vague_sd": ["2", "0.5", "1e150", "1e-150", "0", "-1", "nan", "inf", "-inf",
                 "1e300", "1e-300", "1e-160", "abc"],
    "effects": ["random", "fixed", "mixed", "", "RANDOM"],
    "include_target_in_reml": ["true", "false", "yes", "0", "maybe", ""],
    "threshold": ["0", "0.5", "-2", "1e308", "-1e308", "inf", "-inf", "nan", "x"],
    "n_samples": ["1000", "2000", "999", "0", "-1", "1e3", "2000.0", "inf", "nan"],
    "seed": ["0", "3", "18446744073709551616", "-1", "-18446744073709551616",
             "1.5", "nan", "inf", ""],
    "min_a": ["1", "2", "1000000000000", "0", "-3", "1.0", "nan", "inf"],
    "threads": ["1", "2", "0", "-1", "65", "100000000000000000000", "1.5", "nan",
                "inf"],
    "start": ["2015Q2", "0001Q1", "", "2015Q5", "2015q2", "-1", "nan", "inf"],
    "end": ["2015Q3", "9999Q4", "", "2015Q0", "15Q1", "-1", "nan", "inf"],
    "drug_filter": ["DRUG", "DRUG;OTHER_DRUG", "NO_SUCH_DRUG", "", ";", " ; "],
}


def test_every_config_key_has_a_value_pool():
    assert set(VALUES) == set(CONFIG_SCHEMA)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for name, text in [("reports.tsv", REPORTS), ("ontology.tsv", CHAIN_ONTOLOGY),
                       ("reference.tsv", REFERENCE)]:
        (root / name).write_text(text, encoding="utf-8")
    return root


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    key = draw(st.sampled_from(sorted(VALUES)))
    value = draw(st.sampled_from(VALUES[key]))
    ways = ["flag", "file"]
    if command == "sweep" and key in SWEEP_PARAMS:
        ways.append("grid")
    return command, key, value, draw(st.sampled_from(ways))


def _arguments(case, tmp) -> list[str]:
    """The command's own and config arguments: all but the inputs and --out."""
    command, key, value, way = case
    args = list(COMMANDS[command])
    flags = {k: v for k, v in BASE.items() if not (k == key and way != "grid")}
    if way == "grid":
        args += ["--grid", f"{key}={value}"]
    elif way == "file":
        (tmp / "run.cfg").write_text(f"{key} = {value}\n", encoding="utf-8")
        args += ["--config", str(tmp / "run.cfg")]
    elif key == "include_target_in_reml":  # a switch: present means true
        args.append("--include-target-in-reml")
    elif key == "drug_filter":  # the flag names a file of codes
        (tmp / "drugs.txt").write_text(value.replace(";", "\n"), encoding="utf-8")
        args.append(f"--drug-filter={tmp / 'drugs.txt'}")
    else:
        flags[key] = value
    args += [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
    return args


def _invoke(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def _one_json_error(err: str, code: int) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1, err
    payload = json.loads(lines[0])
    assert payload["exit_code"] == code
    return payload


def _documented_outputs(command, out):
    """The config out was written with, once out is checked to hold exactly
    the files the command documents."""
    text = (out / "effective_config.txt").read_text(encoding="utf-8")
    config = parse_config(dict(line.split(" = ", 1) for line in text.splitlines()))
    documented = {
        "run": [f"results_{m}.csv" for m in config.methods],
        "evaluate": ["metrics.csv", "bootstrap.json"],
        "compare": ["compare.csv", "compare_deltas.csv"],
        "sweep": ["sweep.csv"],
    }[command]
    assert sorted(os.listdir(out)) == sorted(
        documented + ["README.md", "effective_config.txt"]
    )
    return config


def _check_outputs(case, args, out) -> None:
    command, key, value, way = case
    config = _documented_outputs(command, out)
    if way == "flag" and key == "include_target_in_reml":
        assert config.include_target_in_reml is True
    elif way != "grid":
        assert getattr(config, key) == parse_config_value(key, value)
    if command == "sweep":
        # one row per sweep point and method, every --grid axis included
        grid: dict[str, list] = {}
        for flag, axis in zip(args, args[1:]):
            if flag == "--grid":
                name, _, values = axis.partition("=")
                grid.setdefault(name, []).extend(
                    parse_config_value(name, v) for v in values.split(",")
                )
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == len(sweep_points(config, grid)) * len(config.methods)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=cases())
@example(case=("evaluate", "seed", "-1", "flag"))
@example(case=("run", "vague_sd", "1e300", "file"))
@example(case=("compare", "vague_sd", "1e-160", "flag"))
@example(case=("sweep", "w", "0.7", "grid"))
@example(case=("run", "w", "5e-324", "flag"))
@example(case=("evaluate", "start", "0001Q1", "file"))
def test_config_contract(inputs, case):
    command = case[0]
    io_args = ["--ontology", str(inputs / "ontology.tsv")]
    if command != "run":
        io_args += ["--reference", str(inputs / "reference.tsv")]
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        args = _arguments(case, tmp)
        for name in ("missing", "real"):
            (tmp / name).mkdir()

        missing = tmp / "no_reports.tsv"
        code, err = _invoke([command, "--reports", str(missing), "--out",
                             str(tmp / "missing" / "out")] + io_args + args)
        assert code in (1, 2), err
        payload = _one_json_error(err, code)
        assert os.listdir(tmp / "missing") == []
        if code == 2:
            return
        assert payload["error"] == "FileNotFoundError", err

        out = tmp / "real" / "out"
        code, err = _invoke([command, "--reports", str(inputs / "reports.tsv"),
                             "--out", str(out)] + io_args + args)
        assert code == 0, err
        assert os.listdir(tmp / "real") == ["out"]
        _check_outputs(case, args, out)


# -- the data half ---------------------------------------------------------------


def _sub(old: str, new: str):
    """An edit that replaces the first ``old`` in a file's text."""

    def edit(text: str) -> bytes:
        assert old in text
        return text.replace(old, new, 1).encode()

    return edit


def _append(line: str):
    return lambda text: (text + line + "\n").encode()


def _prepend(line: str):
    return lambda text: (line + "\n" + text).encode()


def _keep_comments(text: str) -> bytes:
    return "".join(l for l in text.splitlines(True) if l.startswith("#")).encode()


LONG = "9" * 20000
ENDS = {"crlf": "\r\n", "cr": "\r"}

# Per input file, named changes and the exit code each one must give.
DATA_EDITS = {
    "ontology.tsv": {
        "unknown level": (_sub("N\tROOT\tOTHER", "N\tROOT\tLLT"), 2),
        "node of 3 fields": (_sub("N\tROOT\tOTHER\troot", "N\tROOT\tOTHER"), 2),
        "duplicate node": (_append("N\tROOT\tOTHER\tagain"), 2),
        "unknown edge kind": (_sub("ROOT\tISA", "ROOT\tPART_OF"), 2),
        "edge to an unknown code": (_append("E\tGRP00\tNOWHERE\tISA"), 2),
        "edge before its nodes": (_prepend("E\tGRP00\tROOT\tISA"), 2),
        "unknown row tag": (_append("X\tGRP00\tROOT\tISA"), 2),
        "ISA cycle": (_append("E\tROOT\tGRP00\tISA"), 2),
        "MEDDRA cycle": (_append("E\tSOC0\tHLG000\tMEDDRA"), 2),
        "ISA and MEDDRA cycle": (_append("E\tSOC0\tHLT000\tISA"), 2),
        "self loop": (_append("E\tROOT\tROOT\tISA"), 2),
        "PT with no parent": (_append("N\tPT9999\tPT\tlonely"), 2),
        "long PT code with no parent": (_append(f"N\t{LONG}\tPT\tlonely"), 2),
        "long code in a cycle": (
            _append(f"N\t{LONG}\tOTHER\tx\nE\t{LONG}\tROOT\tISA\n"
                    f"E\tROOT\t{LONG}\tISA"),
            2,
        ),
        "long level": (_sub("N\tROOT\tOTHER", "N\tROOT\t" + LONG), 2),
        "byte order mark": (_prepend("\ufeff"), 2),
        "empty code": (_append("N\t\tPT\tnameless\nE\t\tGRP00\tISA\n"
                               "E\t\tHLT000\tMEDDRA"), 2),
        "edge given twice": (_append("E\tGRP00\tROOT\tISA"), 0),
        "indented comments": (_prepend(" # x\n\u3000# y\n\t\n"), 0),
        "comments only": (_keep_comments, 0),
    },
    "reports.tsv": {
        "row of 3 fields": (_append("R9999999\t2015Q2\tD000"), 2),
        "empty id": (_append("\t2015Q2\tD000\tPT0000"), 2),
        "bad quarter": (_append("R9999999\t2015Q5\tD000\tPT0000"), 2),
        "long quarter": (_append("R9999999\t" + LONG + "\tD000\tPT0000"), 2),
        "no drug": (_append("R9999999\t2015Q2\t;\tPT0000"), 2),
        "event not in the ontology": (_append("R9999999\t2015Q2\tD000\tNOPE"), 0),
        "duplicate id": (_append("R0000001\t2015Q3\tD001\tPT0003"), 0),
        "codes in lists": (_append("R9999999\t2015Q2\tD000;D001;\tPT0001;PT0001"), 0),
        "id after Unicode whitespace": (_append("\u3000R9\t2015Q2\tD000\tPT0000"), 0),
        "long id": (_append(LONG + "\t2015Q2\tD000\tPT0000"), 0),
        "earlier quarter": (_append("R9999999\t2014Q4\tD000\tPT0000"), 0),
        "comments only": (_keep_comments, {"validate": 0, "run": 2}),
        "row after a next-line character": (_append("\x85R9\t2015Q2\tD000\tPT0000"), 0),
        "NUL in an id": (_append("R9\x00\t2015Q2\tD000\tPT0000"), 0),
    },
    "reference.tsv": {
        "row of 2 fields": (_append("D000\tPT0020"), 2),
        "unknown kind": (_append("D000\tPT0020\tMAYBE"), 2),
        "positive without quarter": (_append("D000\tPT0020\tPOSITIVE"), 2),
        "negative with quarter": (_append("D000\tPT0020\tNEGATIVE\t2016Q1"), 2),
        "long label quarter": (_append("D000\tPT0020\tPOSITIVE\t" + LONG), 2),
        "pair given twice": (_append("D000\tPT0000\tPOSITIVE\t2016Q3"), 2),
        "empty drug": (_append("\tPT0020\tNEGATIVE"), 2),
        "empty PT": (_append("D000\t\tNEGATIVE"), 2),
        "PT not in the ontology": (_append("D000\tNOPE\tNEGATIVE"), 0),
        "comments only": (_keep_comments, 0),
    },
    "drugs.txt": {
        "comments only": (_keep_comments, 2),
        "unknown drug": (_append("NO_SUCH_DRUG"), 0),
        "only unknown drugs": (lambda text: b"NO_SUCH_DRUG\n", 0),
        "codes in a list": (lambda text: b"D000;D001\n", 0),
        "code after Unicode whitespace": (_append("\u3000D002"), 0),
        "long code": (_append(LONG), 0),
    },
    "run.cfg": {
        "no equals sign": (_append("seed 3"), 2),
        "unknown key": (_append("colour = blue"), 2),
        "key given twice": (_append("n_samples = 2000"), 2),
        "bad value": (_append("w = heavy"), 2),
        "long number": (_append("w = " + "x" * 20000), 2),
        "long method": (_sub("methods = IC", "methods = " + "X" * 20000), 2),
        "long method list": (_sub("methods = IC", "methods = IC" + ",IC" * 7000), 2),
        "long key": (_append(LONG + " = 1"), 2),
        "other generator": (_append("rng = sfc64"), 2),
        "version line": (_append("version = 0.0"), 0),
        "empty value": (_append("start ="), 0),
        "indented comment": (_append("\u3000# w = heavy"), 0),
        "comments only": (_keep_comments, 0),
    },
}
# Every file also takes each line end, and a byte that is not UTF-8, and
# is emptied.
for _name, _edits in DATA_EDITS.items():
    for _end, _sep in ENDS.items():
        _edits[f"{_end} line ends"] = (
            lambda text, sep=_sep: text.replace("\n", sep).encode(), 0
        )
    _edits["byte 0xff"] = (lambda text: text.encode() + b"# \xff\n", 2)
    _edits.setdefault("empty", (lambda text: b"", _edits["comments only"][1]))

# The commands that read each file.
READERS = {
    "ontology.tsv": ("validate", "run"),
    "reports.tsv": ("validate", "run"),
    "reference.tsv": ("validate",),
    "drugs.txt": ("run",),
    "run.cfg": ("run",),
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data_contract")
    assert main(["generate", "--preset", "basic", "--seed", "0", "--n-reports", "300",
                 "--n-quarters", "3", "--out", str(root)]) == 0
    (root / "drugs.txt").write_text("# drugs to screen\nD000\nD001\n")
    (root / "run.cfg").write_text(
        "# a small screen\nmethods = IC,IC_SSM,IC_HLGT\nn_samples = 1000\n"
    )
    return root


@pytest.mark.parametrize(
    "name, change",
    [(name, change) for name in DATA_EDITS for change in sorted(DATA_EDITS[name])],
)
def test_data_contract(dataset, tmp_path, capsys, name, change):
    edit, codes = DATA_EDITS[name][change]
    paths = {}
    for file in READERS:
        paths[file] = tmp_path / file
        text = (dataset / file).read_text(encoding="utf-8")
        paths[file].write_bytes(edit(text) if file == name else text.encode())
    inputs = ["--reports", str(paths["reports.tsv"]),
              "--ontology", str(paths["ontology.tsv"])]
    capsys.readouterr()
    for command in READERS[name]:
        if command == "validate":
            args = ["validate"] + inputs + ["--reference", str(paths["reference.tsv"])]
        else:
            (tmp_path / "o").mkdir()
            args = ["run"] + inputs + [
                "--drug-filter", str(paths["drugs.txt"]),
                "--config", str(paths["run.cfg"]),
                "--n-samples", "1000", "--threads", "1",
                "--out", str(tmp_path / "o" / "out"),
            ]
        code = main(args)
        out, err = capsys.readouterr()
        assert code == (codes if isinstance(codes, int) else codes[command]), err
        if code:
            payload = _one_json_error(err, code)
            assert len(err) < 300, payload
        elif command == "validate":
            assert {"reports", "concepts", "reference"} <= json.loads(out).keys()
        else:
            _documented_outputs("run", tmp_path / "o" / "out")
        if command == "run":
            assert os.listdir(tmp_path / "o") == (["out"] if code == 0 else [])


# One --grid value list each, and the exit code it must give. A value of
# 20 000 nines parses as inf: out of range for w, a valid threshold.
GRID_EDITS = {
    "empty value": ("w=", 2),
    "empty item": ("w=0.5,", 2),
    "repeated value": ("w=0.5,0.5", 2),
    "repeated label": ("w=0.5,0.50", 2),
    "value out of range": ("w=1.5", 2),
    "long number": ("w=" + LONG, 2),
    "long text": ("w=" + "x" * 20000, 2),
    "long threshold": ("threshold=" + LONG, 0),
    "two values": ("w=0.5,0.8", 0),
}


@pytest.mark.parametrize("change", sorted(GRID_EDITS))
def test_grid_contract(dataset, tmp_path, capsys, change):
    grid, want = GRID_EDITS[change]
    args = ["--methods", "IC_SSM", "--n-samples", "1000", "--threads", "1",
            "--grid", grid]
    (tmp_path / "o").mkdir()
    out = tmp_path / "o" / "out"
    capsys.readouterr()
    code = main(["sweep", "--reports", str(dataset / "reports.tsv"),
                 "--ontology", str(dataset / "ontology.tsv"),
                 "--reference", str(dataset / "reference.tsv"),
                 "--out", str(out)] + args)
    _, err = capsys.readouterr()
    assert code == want, err
    if code:
        payload = _one_json_error(err, code)
        assert len(err) < 300, payload
        assert os.listdir(tmp_path / "o") == []
    else:
        _check_outputs(("sweep", None, None, "grid"), args, out)


def _short_lines(text: str) -> None:
    assert "Traceback" not in text
    assert all(len(line) < 300 for line in text.splitlines()), text[:300]


@pytest.mark.parametrize("kind", sorted(MALFORMED_ECHOES))
def test_verify_contract(dataset, tmp_path, capsys, caplog, kind):
    copy = tmp_path / "copy"
    shutil.copytree(dataset, copy)
    break_scenario_echo(copy, MALFORMED_ECHOES[kind])
    capsys.readouterr()
    code = main(["generate", "--verify", str(copy)])
    out, err = capsys.readouterr()
    assert code == 2, err
    assert out == json.dumps({"verified": False, "dir": str(copy)}) + "\n"
    assert "cannot regenerate the scenario" in caplog.text
    _short_lines(err)
    _short_lines(caplog.text)


@pytest.mark.parametrize("where", ["existing file", "under a file", "missing parents"])
def test_generate_out_contract(tmp_path, capsys, where):
    # --out is made with its missing parents; a file in its place is an I/O
    # failure that leaves the file as it was and writes nothing else.
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    out = {"existing file": tmp_path / "file",
           "under a file": tmp_path / "file" / "data",
           "missing parents": tmp_path / "a" / "b" / "data"}[where]
    capsys.readouterr()
    code = main(["generate", "--preset", "basic", "--n-reports", "300",
                 "--n-quarters", "3", "--out", str(out)])
    _, err = capsys.readouterr()
    if where == "missing parents":
        assert code == 0, err
        assert sorted(os.listdir(out)) == ["manifest.json", "ontology.tsv",
                                           "reference.tsv", "reports.tsv"]
        assert main(["generate", "--verify", str(out)]) == 0
        return
    payload = _one_json_error(err, 1)
    assert len(err) < 300, payload
    assert os.listdir(tmp_path) == ["file"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"
