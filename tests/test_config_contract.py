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
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from icborrow.cli import main
from icborrow.evaluate import SWEEP_PARAMS, sweep_points
from icborrow.pipeline import CONFIG_SCHEMA, parse_config, parse_config_value

from conftest import CHAIN_ONTOLOGY, SIX_REPORTS

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


def _check_outputs(case, args, out) -> None:
    command, key, value, way = case
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
