import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import icborrow.pipeline
from icborrow.cli import build_parser, main
from icborrow.errors import NumericalError
from icborrow.pipeline import CONFIG_SCHEMA

from conftest import (
    CHAIN_ONTOLOGY,
    MALFORMED_ECHOES,
    SIX_REPORTS,
    TAMPERINGS,
    break_scenario_echo,
)

BASE = [
    "--n-samples", "2000",
    "--seed", "3",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("cli_data")
    code = main(
        [
            "generate",
            "--preset", "basic",
            "--seed", "3",
            "--n-reports", "400",
            "--n-quarters", "4",
            "--out", str(outdir),
        ]
    )
    assert code == 0
    return outdir


def io_args(dataset, with_reference=True):
    args = [
        "--reports", str(dataset / "reports.tsv"),
        "--ontology", str(dataset / "ontology.tsv"),
    ]
    if with_reference:
        args += ["--reference", str(dataset / "reference.tsv")]
    return args


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_generate_prints_summary(dataset, capsys):
    main(["generate", "--preset", "basic", "--seed", "3",
          "--n-reports", "400", "--n-quarters", "4", "--out", str(dataset)])
    summary = json.loads(capsys.readouterr().out)
    assert summary["scenario"] == "basic"
    assert summary["totals"]["reports"] == 400
    for name in ("reports.tsv", "ontology.tsv", "reference.tsv", "manifest.json"):
        assert (dataset / name).exists()


def test_generate_verify(dataset, tmp_path, capsys):
    assert main(["generate", "--verify", str(dataset)]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True

    tampered = tmp_path / "tampered"
    main(["generate", "--preset", "basic", "--seed", "3", "--out", str(tampered)])
    capsys.readouterr()
    reports = tampered / "reports.tsv"
    reports.write_text(reports.read_text() + "R9999999\t2015Q1\tD000\tPT0000\n")
    assert main(["generate", "--verify", str(tampered)]) == 2
    assert json.loads(capsys.readouterr().out)["verified"] is False


@pytest.mark.parametrize(
    "kind",
    [
        "missing-key",
        "unknown-key",
        "not-an-object",
        "mistyped-count",
        "zero-quarters",
        "nan-target-ssm",
    ],
)
def test_generate_verify_malformed_manifest(dataset, tmp_path, capsys, kind):
    copy = tmp_path / "copy"
    shutil.copytree(dataset, copy)
    break_scenario_echo(copy, MALFORMED_ECHOES[kind])
    assert main(["generate", "--verify", str(copy)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "verified": False, "dir": str(copy)
    }


@pytest.mark.parametrize("kind", sorted(TAMPERINGS))
def test_generate_verify_refuses_tampered_copy(dataset, tmp_path, capsys, kind):
    copy = tmp_path / "copy"
    shutil.copytree(dataset, copy)
    TAMPERINGS[kind](copy)
    assert main(["generate", "--verify", str(copy)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == [json.dumps({"verified": False, "dir": str(copy)})]
    assert "Traceback" not in err


def test_generate_verify_quotes_a_long_echo_value_short(tmp_path, capsys):
    # A verify log line quotes the bad echo value cut short, not whole.
    copy = tmp_path / "basic"
    assert main(["generate", "--preset", "basic", "--out", str(copy)]) == 0
    break_scenario_echo(copy, lambda m: m["scenario"].update(n_drugs="9" * 20000))
    proc = subprocess.run(
        [sys.executable, "-m", "icborrow.cli", "generate", "--verify", str(copy)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"verified": False, "dir": str(copy)}
    assert "n_drugs" in proc.stderr and "Traceback" not in proc.stderr
    assert all(len(line) < 300 for line in proc.stderr.splitlines())


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--preset", "null", "--n-quarters", "0"], "n_quarters"),
        (["--preset", "basic", "--negatives-per-drug", "-3"], "negatives_per_drug"),
        (["--n-reports", "-5"], "n_reports"),
        (["--n-drugs", "0"], "n_drugs"),
        (["--seed", "-1"], "seed"),
    ],
)
def test_generate_rejects_sizes_it_cannot_render(tmp_path, capsys, flags, field):
    out = tmp_path / "out"
    assert main(["generate", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert field in payload["message"]
    assert not out.exists()


def test_validate_summarizes_inputs(dataset, capsys):
    assert main(["validate"] + io_args(dataset)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["reports"] == 400
    assert summary["quarters"] == ["2015Q1", "2015Q2", "2015Q3", "2015Q4"]
    assert summary["load_warnings"] == []
    assert summary["pts"] == 48
    assert summary["reference"] == {"positives": 3, "negatives": 16}
    assert summary["negative_control_flags"] == []
    assert summary["reference_pts_not_in_ontology"] == []


def test_validate_lists_reference_pts_missing_from_ontology(dataset, tmp_path, capsys):
    reference = tmp_path / "reference.tsv"
    reference.write_text(
        (dataset / "reference.tsv").read_text(encoding="utf-8")
        + "D000\tTYPO_PT\tNEGATIVE\n"
        + "D001\tA_TYPO\tNEGATIVE\n",
        encoding="utf-8",
    )
    args = io_args(dataset, with_reference=False) + ["--reference", str(reference)]
    assert main(["validate"] + args) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["reference"] == {"positives": 3, "negatives": 18}
    assert summary["reference_pts_not_in_ontology"] == ["A_TYPO", "TYPO_PT"]
    assert summary["negative_control_flags"] == []


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(["validate", "--reports", str(tmp_path / "nope.tsv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert err["exit_code"] == 1


def test_cyclic_ontology_is_validation_error(dataset, tmp_path, capsys):
    bad = tmp_path / "cycle.tsv"
    bad.write_text(
        "N\tA\tPT\ta\nN\tB\tPT\tb\n"
        "E\tA\tB\tISA\nE\tB\tA\tISA\n",
        encoding="utf-8",
    )
    code = main(
        ["validate", "--reports", str(dataset / "reports.tsv"),
         "--ontology", str(bad)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CycleError"
    assert "cycle" in err["message"]


def test_run_writes_results_and_snapshot(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["run"] + io_args(dataset, with_reference=False)
        + ["--out", str(out), "--methods", "IC,IC_SSM"] + BASE
    )
    assert code == 0
    assert capsys.readouterr().out == ""  # data goes to files, not stdout
    assert (out / "results_IC.csv").exists()
    assert (out / "results_IC_SSM.csv").exists()
    assert (out / "README.md").exists()
    snapshot = (out / "effective_config.txt").read_text()
    assert "n_samples = 2000\n" in snapshot
    assert "rng = philox\n" in snapshot
    header = (out / "results_IC.csv").read_text().splitlines()[0]
    assert header == "drug,event,cutoff,a,b,c,d,oe,pme,var,ci_low,ci_high,signal"
    plain = tmp_path / "plain"
    os.mkdir(plain)  # the output directory gets the umask's mode, as this one
    assert out.stat().st_mode == plain.stat().st_mode


def test_run_single_method_writes_one_csv(dataset, tmp_path):
    out = tmp_path / "one"
    assert main(
        ["run", "--reports", str(dataset / "reports.tsv"),
         "--out", str(out), "--methods", "IC"] + BASE
    ) == 0
    assert (out / "results_IC.csv").exists()
    assert not (out / "results_IC_SSM.csv").exists()


def test_run_ssm_requires_ontology(tmp_path, capsys):
    # The reports file does not exist: the missing --ontology must be
    # reported first, as a validation error, not as the I/O error's exit 1.
    out = tmp_path / "x"
    for command, methods in [
        ("run", "IC_SSM"), ("run", "IC_HLGT"), ("run", "IC,IC_SSM,IC_HLGT"),
        ("evaluate", "IC_HLGT"), ("compare", "IC,IC_SSM"),
        ("sweep", "IC_SSM"), ("sweep", "IC_HLGT"),
    ]:
        args = [command, "--reports", str(tmp_path / "missing.tsv"),
                "--out", str(out), "--methods", methods] + BASE
        if command != "run":
            args += ["--reference", str(tmp_path / "missing_ref.tsv")]
        assert main(args) == 2, (command, methods)
        err = json.loads(capsys.readouterr().err)
        borrowing = ", ".join(m for m in methods.split(",") if m != "IC")
        assert err["error"] == "ValidationError"
        assert err["message"] == f"--ontology is required by {borrowing}"
        assert not out.exists()


@pytest.mark.parametrize("n_iter", ["50", "-5"])
def test_bad_bootstrap_fails_before_screening(dataset, tmp_path, capsys, n_iter):
    out = tmp_path / "x"
    code = main(
        ["evaluate"] + io_args(dataset)
        + ["--out", str(out), "--methods", "IC", "--bootstrap", n_iter] + BASE
    )
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValidationError" and "--bootstrap" in err["message"]
    assert not out.exists()


def test_config_file_and_flag_precedence(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\nthreshold = 2.0\nseed = 9\nn_samples = 2000\nmethods = IC\n"
    )
    out = tmp_path / "cfg_run"
    assert main(
        ["run", "--reports", str(dataset / "reports.tsv"), "--out", str(out),
         "--config", str(cfg), "--threshold", "1.0"]
    ) == 0
    snapshot = (out / "effective_config.txt").read_text()
    assert "threshold = 1.0\n" in snapshot  # flag beats file
    assert "seed = 9\n" in snapshot  # file beats default


def test_config_file_rejects_unknown_key(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = 10\n")
    code = main(
        ["run", "--reports", str(dataset / "reports.tsv"),
         "--out", str(tmp_path / "x"), "--config", str(cfg)]
    )
    assert code == 2
    assert "unknown config key" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize(
    "bad",
    [["--n-samples", "abc"], ["--config", "n_samples = abc\n"]],
    ids=["flag", "file"],
)
def test_bad_config_value_names_key(dataset, tmp_path, capsys, bad):
    if bad[0] == "--config":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bad[1])
        bad = ["--config", str(cfg)]
    code = main(
        ["run", "--reports", str(dataset / "reports.tsv"),
         "--out", str(tmp_path / "x"), "--methods", "IC"] + bad
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert "n_samples" in err["message"]


@pytest.mark.parametrize(
    "flag, value, key",
    [("--n-samples", "999", "n_samples"), ("--min-ssm", "7", "min_ssm"),
     ("--vague-sd", "-1", "vague_sd"), ("--min-a", "-3", "min_a"),
     ("--threshold", "nan", "threshold"), ("--threads", "0", "threads"),
     ("--threads", "65", "threads"), ("--seed", "-1", "seed"),
     ("--vague-sd", "1e300", "vague_sd"), ("--vague-sd", "1e-300", "vague_sd"),
     ("--vague-sd", "1e-160", "vague_sd"), ("--vague-sd", "inf", "vague_sd")],
)
def test_out_of_range_config_fails_before_loading(
    tmp_path, capsys, flag, value, key
):
    # The reports file does not exist: only a config check that runs before
    # loading can give exit 2 here instead of the I/O error's exit 1.
    out = tmp_path / "x"
    code = main(
        ["run", "--reports", str(tmp_path / "missing.tsv"), "--out", str(out),
         "--methods", "IC", flag, value]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and key in err["message"]
    assert not out.exists()


def test_start_after_end_fails_before_loading(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(
        ["run", "--reports", str(tmp_path / "missing.tsv"), "--out", str(out),
         "--methods", "IC", "--start", "2016Q1", "--end", "2015Q1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["message"] == "start 2016Q1 is after end 2015Q1"
    assert not out.exists()


def test_bad_sweep_grid_fails_before_loading(tmp_path, capsys):
    # Every sweep point's config is checked before the (missing) reports
    # file is opened, so this is exit 2, not the I/O error's exit 1.
    # A key named twice is refused, not merged or overwritten, and so is a
    # value that repeats another's sweep.csv label on its axis.
    out = tmp_path / "x"
    for key, axes, fragment in [
        ("vague_sd", ["-1"], "vague_sd"), ("vague_sd", ["1e300"], "vague_sd"),
        ("threshold", ["nan"], "threshold"), ("threshold", ["0.5", "1"], "threshold"),
        ("threshold", ["0.5,0.5,0.50"], "'threshold' has the value 0.5 twice"),
        ("w", ["max_ssm,max_ssm"], "'w' has the value max_ssm twice"),
        ("threshold", ["0.1234567,0.1234568"],
         "'threshold' has the value 0.123457 twice"),
    ]:
        grid = [arg for values in axes for arg in ("--grid", f"{key}={values}")]
        code = main(
            ["sweep", "--reports", str(tmp_path / "missing.tsv"),
             "--reference", str(tmp_path / "missing_ref.tsv"), "--out", str(out),
             "--methods", "IC"] + grid
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError" and fragment in err["message"]
        assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, reference, message",
    [
        ("compare", ["--methods", "IC,IC_SSM"], "D001\tP1\tNEGATIVE\n",
         "comparison needs at least one positive control"),
        ("evaluate", ["--methods", "IC", "--bootstrap", "100"], "# no rows\n",
         "bootstrap needs a non-empty reference set"),
    ],
    ids=["compare", "evaluate"],
)
def test_reference_content_is_checked_before_loading(
    dataset, tmp_path, capsys, monkeypatch, command, flags, reference, message
):
    def no_loading(*args, **kwargs):
        raise AssertionError("reports loaded before the reference was checked")

    monkeypatch.setattr("icborrow.cli.load_reports", no_loading)
    ref, out = tmp_path / "reference.tsv", tmp_path / "x"
    ref.write_text(reference)
    code = main(
        [command] + io_args(dataset, with_reference=False)
        + ["--reference", str(ref), "--out", str(out)] + flags + BASE
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and err["message"] == message
    assert not out.exists()


def test_config_file_rejects_a_key_named_twice(tmp_path, capsys):
    cfg, out = tmp_path / "run.cfg", tmp_path / "x"
    cfg.write_text("seed = 1\n# the last value used to win\nseed = 2\n")
    code = main(
        ["run", "--reports", str(tmp_path / "missing.tsv"), "--out", str(out),
         "--methods", "IC", "--config", str(cfg)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == f"{cfg}:3: key 'seed' given twice, first at line 1"
    assert not out.exists()


# Valid inputs for each of evaluate's five text readers.
FIVE_INPUTS = {
    "reports": SIX_REPORTS,
    "ontology": CHAIN_ONTOLOGY,
    "reference": "DRUG\tEV\tPOSITIVE\t2016Q1\n",
    "drug-filter": "DRUG\n",
    "config": "seed = 3\nn_samples = 2000\nmethods = IC\n",
}


@pytest.mark.parametrize("which", sorted(FIVE_INPUTS))
@pytest.mark.parametrize(
    "newline, pad",
    [("\n", 0), ("\n", 4000), ("\r\n", 4000), ("\r", 4000)],
    ids=["first-block", "past-32k", "crlf", "cr"],
)
def test_byte_that_is_not_utf8_names_file_and_line(
    tmp_path, capsys, which, newline, pad
):
    # 4000 comment lines put the bad byte past the report loader's first
    # 32k-character block, and past the line readers' first chunks.
    paths = {}
    for name, text in FIVE_INPUTS.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(text.replace("\n", newline).encode())
    valid = FIVE_INPUTS[which].splitlines()
    lines = [line.encode() for line in valid + ["# padding"] * pad]
    lines += [b"# caf\xe9", b"# after"]
    paths[which].write_bytes(newline.encode().join(lines) + newline.encode())
    out = tmp_path / "out"
    code = main(
        ["evaluate", "--out", str(out)]
        + [arg for name, path in paths.items() for arg in (f"--{name}", str(path))]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    bad_line = len(valid) + pad + 1
    assert payload["message"] == (
        f"{paths[which]}:{bad_line}: byte 0xe9 is not UTF-8 "
        "(invalid continuation byte)"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIVE_INPUTS)


def test_long_label_quarter_is_quoted_short(dataset, tmp_path, capsys):
    reference = tmp_path / "reference.tsv"
    reference.write_text("D000\tPT0000\tPOSITIVE\t" + "2" * 20000 + "\n")
    code = main(["validate", "--reports", str(dataset / "reports.tsv"),
                 "--reference", str(reference)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 300
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["message"].startswith(f"{reference}:1: bad quarter '2222")
    assert "(str of length 20000)" in payload["message"]


def test_empty_drug_filter_is_rejected(dataset, tmp_path, capsys):
    empty = tmp_path / "drugs.txt"
    empty.write_text("# no codes\n")
    out = tmp_path / "x"
    code = main(
        ["run", "--reports", str(dataset / "reports.tsv"), "--out", str(out),
         "--methods", "IC", "--drug-filter", str(empty)] + BASE
    )
    assert code == 2
    assert "drug filter" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config_flags, grid",
    [
        ("run", ["--methods", "IC,IC_SSM", "--w", "0.5", "--start", "2015Q2",
                 "--include-target-in-reml", "--drug-filter", "DRUGS"], []),
        ("sweep", ["--methods", "IC,IC_SSM", "--w", "0.8"],
         ["--grid", "w=0.5,max_ssm", "--grid", "threshold=0.5"]),
    ],
)
def test_replay_from_effective_config(dataset, tmp_path, command, config_flags, grid):
    drugs = tmp_path / "drugs.txt"
    drugs.write_text("D001\nD000\n")
    config_flags = [str(drugs) if f == "DRUGS" else f for f in config_flags]
    io = io_args(dataset, with_reference=command == "sweep")
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(
        [command] + io + ["--out", str(first)] + grid + config_flags + BASE
    ) == 0
    assert main(
        [command] + io + ["--out", str(replay)] + grid
        + ["--config", str(first / "effective_config.txt")]
    ) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in replay.iterdir())
    assert "effective_config.txt" in names
    for name in names:
        assert (first / name).read_bytes() == (replay / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, first, second, left",
    [
        ("run", ["--methods", "IC,IC_SSM"], ["--methods", "IC"], ["results_IC.csv"]),
        ("evaluate", ["--bootstrap", "120"], [], ["metrics.csv"]),
    ],
)
def test_rerun_leaves_no_stale_files(dataset, tmp_path, command, first, second, left):
    out = tmp_path / "out"
    out.mkdir()  # an empty directory is a valid --out too
    io = io_args(dataset, with_reference=command != "run")
    for flags in (first, second):  # a trailing separator names the same --out
        assert main([command] + io + ["--out", f"{out}{os.sep}", "--methods", "IC"]
                    + flags + BASE) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(left + ["README.md", "effective_config.txt"])
    readme = (out / "README.md").read_text()
    assert "IC_SSM" not in readme and "bootstrap" not in readme
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def _tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("exc", [NumericalError, KeyboardInterrupt])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_run_leaves_out_as_it_was(dataset, tmp_path, monkeypatch, exc, existing):
    real = icborrow.pipeline.analyze_pair
    for threads in (1, 2):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        out = root / "out"
        args = (["run"] + io_args(dataset, with_reference=False)
                + ["--out", str(out), "--methods", "IC,IC_SSM",
                   "--threads", str(threads)] + BASE)
        if existing:
            assert main(args) == 0
            before = _tree(out)
        calls = []

        def failing(*a, **kw):
            calls.append(1)
            if len(calls) > 3:
                raise exc("injected")
            return real(*a, **kw)

        monkeypatch.setattr(icborrow.pipeline, "analyze_pair", failing)
        if exc is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(args)
        else:
            assert main(args) == 3
        monkeypatch.undo()
        if threads == 1:  # the failing pair stops the screen at once
            assert len(calls) == 4
        if existing:
            assert _tree(out) == before
        # no new directory and no partial sibling is left behind
        assert sorted(p.name for p in root.iterdir()) == (["out"] if existing else [])


def test_failed_placement_puts_old_out_back(dataset, tmp_path, monkeypatch):
    # The old --out is moved aside before the new one is renamed into place;
    # if that rename fails, the old one must come back unchanged.
    out = tmp_path / "out"
    args = ["run", "--reports", str(dataset / "reports.tsv"), "--out", str(out),
            "--methods", "IC"] + BASE
    assert main(args) == 0
    before = _tree(out)
    real = os.replace

    def replace(src, dst):
        if ".partial-" in str(src):
            raise PermissionError("injected")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(args) == 1
    assert _tree(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("kind", ["file", "foreign-dir"])
def test_out_must_be_empty_or_an_output_dir(tmp_path, capsys, kind):
    # The reports file does not exist: the --out check must come first, as a
    # validation error, not as the I/O error's exit 1.
    out = tmp_path / "out"
    if kind == "file":
        out.write_text("keep me\n")
    else:
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
    before = out.read_bytes() if kind == "file" else _tree(out)
    code = main(
        ["run", "--reports", str(tmp_path / "missing.tsv"), "--out", str(out),
         "--methods", "IC"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError" and "--out" in payload["message"]
    assert (out.read_bytes() if kind == "file" else _tree(out)) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_out_under_missing_parent_is_refused(tmp_path, capsys):
    # No parent of --out is created: the run exits 2 before the (missing)
    # reports file is read and leaves the tree as it was.
    nest = tmp_path / "nest"
    nest.mkdir()
    code = main(
        ["run", "--reports", str(nest / "missing.tsv"),
         "--out", str(nest / "a" / "b" / "c"), "--methods", "IC"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError" and "--out" in payload["message"]
    assert list(nest.iterdir()) == []


def test_too_few_samples_is_rejected(dataset, tmp_path, capsys):
    code = main(
        ["run", "--reports", str(dataset / "reports.tsv"),
         "--out", str(tmp_path / "x"), "--methods", "IC", "--n-samples", "999"]
    )
    assert code == 2
    capsys.readouterr()


def test_thread_count_does_not_change_results(dataset, tmp_path):
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        assert main(
            ["run"] + io_args(dataset, with_reference=False)
            + ["--out", str(out), "--threads", threads] + BASE
        ) == 0
        outs.append(out)
    for name in ("results_IC.csv", "results_IC_SSM.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_evaluate_writes_metrics_and_bootstrap(dataset, tmp_path):
    out = tmp_path / "eval"
    assert main(
        ["evaluate"] + io_args(dataset)
        + ["--out", str(out), "--methods", "IC", "--bootstrap", "120"] + BASE
    ) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("quarter,method,tp,fp,tn,fn,")
    assert len(lines) == 5  # four quarters, one method
    boot = json.loads((out / "bootstrap.json").read_text())
    assert boot["n_iter"] == 120 and boot["fractions"] == {}


def test_compare_needs_two_methods(dataset, tmp_path, capsys):
    code = main(
        ["compare"] + io_args(dataset)
        + ["--out", str(tmp_path / "x"), "--methods", "IC"] + BASE
    )
    assert code == 2
    assert "two methods" in json.loads(capsys.readouterr().err)["message"]


def test_compare_writes_overlap(dataset, tmp_path):
    out = tmp_path / "cmp"
    assert main(
        ["compare"] + io_args(dataset)
        + ["--out", str(out), "--methods", "IC,IC_SSM"] + BASE
    ) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[1].startswith("IC,IC_SSM,")
    assert (out / "compare_deltas.csv").exists()


def test_sweep_writes_rows(dataset, tmp_path):
    out = tmp_path / "sweep"
    assert main(
        ["sweep"] + io_args(dataset)
        + ["--out", str(out), "--methods", "IC",
           "--grid", "threshold=0.5,1.5"] + BASE
    ) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0", "0.5", "1.5"]


def test_sweep_rejects_bad_grid(dataset, tmp_path, capsys):
    code = main(
        ["sweep"] + io_args(dataset)
        + ["--out", str(tmp_path / "x"), "--methods", "IC", "--grid", "threshold"]
    )
    assert code == 2
    capsys.readouterr()


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "icborrow.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing it would cost every
    # invocation about a second of start-up.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import icborrow.cli, sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_flags_are_the_schema_keys():
    # The flags of run, evaluate, compare and sweep beyond these are exactly
    # the config keys, with `_` written as `-`; --non-strict goes only to the
    # commands that score against a reference.
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    schema = {"--" + key.replace("_", "-") for key in CONFIG_SCHEMA}
    for name in ("run", "evaluate", "compare", "sweep"):
        options = {o for a in commands.choices[name]._actions for o in a.option_strings}
        other = {"-h", "--help", "--reports", "--ontology", "--out", "--config"}
        if name != "run":
            other |= {"--reference", "--non-strict"}
        other |= {"evaluate": {"--bootstrap"}, "sweep": {"--grid"}}.get(name, set())
        assert options - other == schema, name
        assert ("--non-strict" in options) == (name != "run"), name


def test_readme_config_table_names_the_schema_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Key | Value |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    keys = set()
    for row in table.splitlines():
        keys.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    assert keys == set(CONFIG_SCHEMA)
