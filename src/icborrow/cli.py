"""Command-line interface, and the one writer of every output file.

Subcommands: validate, run, evaluate, compare, sweep, generate. Exit codes:
0 success, 1 I/O failure, 2 validation failure, 3 numerical failure. Errors
are emitted as one-line JSON objects on stderr; stdout carries data only.

``pipeline`` and ``evaluate`` compute records; this module alone knows the
output formats: the results, metrics, compare, sweep and bootstrap writers,
their one number format (``_fmt``), and the ``_OUTPUT_DOCS`` that each
output directory's README.md is made from.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import json
import logging
import os
import shutil
import sys

from ._version import __version__
from .errors import NumericalError, ValidationError, data_lines, quote
from .evaluate import (
    MIN_BOOTSTRAP_ITER,
    POSITIVE,
    SWEEP_PARAMS,
    Comparison,
    MetricsReport,
    SweepRow,
    bootstrap,
    check_negative_controls,
    compare_methods,
    load_reference,
    parameter_sweep,
    quarterly_curves,
    score,
    sweep_points,
)
from .ontology import build_similarity, load_ontology
from .pipeline import (
    CONFIG_SCHEMA,
    METHOD_HLGT,
    METHOD_IC,
    METHOD_SSM,
    PairResult,
    QuarterlyRun,
    RunConfig,
    RunContext,
    config_snapshot,
    parse_config,
    parse_config_value,
    run_quarters,
)
from .quarters import Quarter
from .reports import load_reports
from .synth import PRESETS, generate, verify_manifest

log = logging.getLogger(__name__)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in data_lines(path):
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ValidationError(
                f"{path}:{lineno}: key {quote(key)} given twice, first at line "
                f"{first_line[key]}"
            )
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Config file values, overlaid by every flag given, then parsed.

    A borrowing method without --ontology fails here, before any data file
    is read.
    """
    values = _read_config_file(args.config) if args.config else {}
    for key in CONFIG_SCHEMA:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if args.drug_filter is not None:  # the flag names a file of codes
        values["drug_filter"] = ";".join(_read_code_list(args.drug_filter))
    config = parse_config(values)
    borrowing = [m for m in config.methods if m in (METHOD_SSM, METHOD_HLGT)]
    if borrowing and not args.ontology:
        raise ValidationError(f"--ontology is required by {', '.join(borrowing)}")
    return config


def _read_code_list(path: str) -> list[str]:
    codes = [line.strip() for _, line in data_lines(path)]
    if not codes:
        raise ValidationError(f"{path}: drug filter lists no drug codes")
    return codes


def _screen(args: argparse.Namespace, config: RunConfig) -> QuarterlyRun:
    """Load the inputs and screen them with every configured method."""
    ontology = load_ontology(args.ontology) if args.ontology else None
    store = load_reports(args.reports, ontology)
    similarity = None
    if METHOD_SSM in config.methods:
        log.info("building similarity matrix (threshold %.3g)", config.min_ssm)
        similarity = build_similarity(ontology, min_ssm=config.min_ssm)
    return run_quarters(RunContext(
        store=store, config=config, similarity=similarity, ontology=ontology
    ))


_OUTPUT_DOCS = {
    "results_<METHOD>.csv": (
        "one row per screened (drug, event) pair per cutoff quarter; columns "
        "drug, event, cutoff, a, b, c, d (contingency cells), oe (observed/"
        "expected, empty when a margin is zero), pme (posterior mean), var, "
        "ci_low, ci_high (central 95% bounds; when a = n, ci_high can sit on "
        "a floating-point atom near 0), signal (1 when ci_low clears the "
        "threshold); borrowing methods add method, s_count (sources "
        "used), tau2 (heterogeneity), w (prior weight), w_tilde (posterior "
        "weight), map_mu, map_v (pooled prior)"
    ),
    "metrics.csv": (
        "per-quarter confusion counts and metrics per method; columns "
        "quarter, method, tp, fp, tn, fn, sensitivity, specificity, ppv, f1, "
        "youden (empty when a denominator is zero)"
    ),
    "compare.csv": (
        "detection overlap between two methods on positive controls: both, "
        "only_a, only_b, neither, evaluated, n_imputed, mean_delta_quarters"
    ),
    "compare_deltas.csv": (
        "detection-delay histogram; delta_quarters, observed_count (both "
        "methods detected), imputed_count (one side imputed past the window)"
    ),
    "sweep.csv": (
        "one-at-a-time parameter sweep; param, value, method plus the "
        "metrics.csv metric columns, aggregated over the full run"
    ),
    "bootstrap.json": (
        "reference-set bootstrap: per ordered method pair and metric, the "
        "fraction of resamples where the first method beats the second "
        "(ties count one half)"
    ),
    "effective_config.txt": (
        "the fully resolved configuration for this run; pass it back with "
        "--config to replay the run"
    ),
}


def _fmt(value: float | None) -> str:
    """The one number format of every CSV output: 6 decimals, empty for None."""
    return "" if value is None else f"{value:.6f}"


_BASE_COLUMNS = "drug,event,cutoff,a,b,c,d,oe,pme,var,ci_low,ci_high,signal"
_BORROW_COLUMNS = _BASE_COLUMNS + ",method,s_count,tau2,w,w_tilde,map_mu,map_v"
_METRIC_COLUMNS = "tp,fp,tn,fn,sensitivity,specificity,ppv,f1,youden"


def write_results_csv(results: list[PairResult], method: str, path: str) -> None:
    """One method's rows of ``results``, in their order, as a CSV file."""
    borrowing = method != METHOD_IC
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write((_BORROW_COLUMNS if borrowing else _BASE_COLUMNS) + "\n")
        for r in results:
            if r.method != method:
                continue
            row = (
                f"{r.drug},{r.event},{r.cutoff},{r.a},{r.b},{r.c},{r.d},"
                f"{_fmt(r.oe)},{_fmt(r.pme)},{_fmt(r.variance)},"
                f"{_fmt(r.ci_low)},{_fmt(r.ci_high)},{int(r.signal)}"
            )
            if borrowing:
                row += (
                    f",{method},{r.s_count},{_fmt(r.tau2)},{_fmt(r.w)},"
                    f"{_fmt(r.w_tilde)},{_fmt(r.map_mu)},{_fmt(r.map_v)}"
                )
            fh.write(row + "\n")


def _metric_fields(report: MetricsReport) -> str:
    return (
        f"{report.tp},{report.fp},{report.tn},{report.fn},"
        f"{_fmt(report.sensitivity)},{_fmt(report.specificity)},"
        f"{_fmt(report.ppv)},{_fmt(report.f1)},{_fmt(report.youden)}"
    )


def write_metrics_csv(
    curves_by_method: dict[str, dict[Quarter, MetricsReport]], path: str
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"quarter,method,{_METRIC_COLUMNS}\n")
        for method in sorted(curves_by_method):
            for q, report in sorted(curves_by_method[method].items()):
                fh.write(f"{q},{method},{_metric_fields(report)}\n")


def write_compare_csv(comparison: Comparison, path: str, deltas_path: str) -> None:
    c = comparison
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            "method_a,method_b,both,only_a,only_b,neither,evaluated,"
            "n_imputed,mean_delta_quarters\n"
            f"{c.method_a},{c.method_b},{c.both},{c.only_a},{c.only_b},"
            f"{c.neither},{c.evaluated},{c.n_imputed},{_fmt(c.mean_delta)}\n"
        )
    observed, imputed = c.deltas_observed, c.deltas_imputed
    with open(deltas_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("delta_quarters,observed_count,imputed_count\n")
        for d in sorted(set(observed) | set(imputed)):
            fh.write(f"{d},{observed.get(d, 0)},{imputed.get(d, 0)}\n")


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"param,value,method,{_METRIC_COLUMNS}\n")
        for row in rows:
            fh.write(
                f"{row.param},{row.value},{row.method},{_metric_fields(row.report)}\n"
            )


@contextlib.contextmanager
def _output_dir(out: str, config: RunConfig):
    """Yield a new sibling directory of out. On success add effective_config.txt
    and a README.md of the files present, then rename it to out, replacing an
    earlier output directory (one holding effective_config.txt) whole; a
    missing parent directory or any other non-empty out is refused before the
    command reads data. On any exception the sibling is removed and out is
    left as it was."""
    path = os.path.realpath(out)
    if not os.path.isdir(os.path.dirname(path)):
        raise ValidationError(f"--out {out}: parent directory does not exist")
    if os.path.lexists(path) and not (os.path.isdir(path) and (
        not os.listdir(path)
        or os.path.isfile(os.path.join(path, "effective_config.txt"))
    )):
        raise ValidationError(f"--out {out} is neither empty nor an icborrow output")
    partial, old = f"{path}.partial-{os.getpid()}", f"{path}.old-{os.getpid()}"
    os.mkdir(partial)  # follows the umask; tempfile.mkdtemp would give 0700
    try:
        yield partial
        with open(os.path.join(partial, "effective_config.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(config_snapshot(config))
        names = os.listdir(partial)
        lines = ["# Output files", ""] + [
            f"- `{key}`: {doc}" for key, doc in _OUTPUT_DOCS.items()
            if fnmatch.filter(names, key.replace("<METHOD>", "*"))
        ]
        with open(os.path.join(partial, "README.md"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + [""]))
        if os.path.lexists(path):
            os.replace(path, old)
        os.replace(partial, path)
    except BaseException:
        if os.path.lexists(old) and not os.path.lexists(path):
            os.replace(old, path)
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if os.path.lexists(old):
        shutil.rmtree(old)


def _writes_output(body):
    """Build the config, then run body(args, config, outdir) in an _output_dir."""

    def command(args: argparse.Namespace) -> int:
        config = _build_config(args)
        with _output_dir(args.out, config) as outdir:
            body(args, config, outdir)
        return 0

    return command


def _cmd_validate(args: argparse.Namespace) -> int:
    ontology = load_ontology(args.ontology) if args.ontology else None
    store = load_reports(args.reports, ontology)
    summary: dict = {
        "reports": len(store),
        "quarters": [str(q) for q in store.quarters()],
        "load_warnings": store.load_warnings,
    }
    if ontology is not None:
        summary["concepts"] = len(ontology)
        summary["pts"] = len(ontology.pts())
    if args.reference:
        entries = load_reference(args.reference)
        summary["reference"] = {
            "positives": sum(e.kind == "POSITIVE" for e in entries),
            "negatives": sum(e.kind == "NEGATIVE" for e in entries),
        }
        if ontology is not None:
            summary["negative_control_flags"] = check_negative_controls(
                entries, ontology
            )
            summary["reference_pts_not_in_ontology"] = sorted(
                {e.pt for e in entries if e.pt not in ontology.concepts}
            )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


@_writes_output
def _cmd_run(args: argparse.Namespace, config: RunConfig, outdir: str) -> None:
    run = _screen(args, config)
    for method in config.methods:
        name = f"results_{method}.csv"
        write_results_csv(run.results, method, os.path.join(outdir, name))
    log.info("wrote %d result rows to %s", len(run.results), args.out)


@_writes_output
def _cmd_evaluate(args: argparse.Namespace, config: RunConfig, outdir: str) -> None:
    if args.bootstrap and args.bootstrap < MIN_BOOTSTRAP_ITER:
        raise ValidationError(
            f"--bootstrap must be 0 or >= {MIN_BOOTSTRAP_ITER}, got {args.bootstrap}"
        )
    entries = load_reference(args.reference)
    if args.bootstrap and not entries:
        raise ValidationError("bootstrap needs a non-empty reference set")
    run = _screen(args, config)
    curves = {
        method: quarterly_curves(run.first_alerts[method], entries, run.quarters)
        for method in config.methods
    }
    write_metrics_csv(curves, os.path.join(outdir, "metrics.csv"))
    if args.bootstrap:
        result = bootstrap(
            {m: run.first_alerts[m] for m in config.methods},
            entries,
            n_iter=args.bootstrap,
            seed=config.seed,
            strict_before=not args.non_strict,
        )
        with open(os.path.join(outdir, "bootstrap.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for method in config.methods:
        report = score(run.first_alerts[method], entries,
                       strict_before=not args.non_strict)
        log.info(
            "%s: tp=%d fp=%d tn=%d fn=%d", method, report.tp, report.fp,
            report.tn, report.fn,
        )


@_writes_output
def _cmd_compare(args: argparse.Namespace, config: RunConfig, outdir: str) -> None:
    if len(config.methods) != 2:
        raise ValidationError("compare needs exactly two methods")
    entries = load_reference(args.reference)
    if not any(e.kind == POSITIVE for e in entries):
        raise ValidationError("comparison needs at least one positive control")
    run = _screen(args, config)
    method_a, method_b = config.methods
    comparison = compare_methods(
        run.first_alerts[method_a],
        run.first_alerts[method_b],
        entries,
        method_a=method_a,
        method_b=method_b,
        strict_before=not args.non_strict,
    )
    write_compare_csv(
        comparison,
        os.path.join(outdir, "compare.csv"),
        os.path.join(outdir, "compare_deltas.csv"),
    )


def _parse_grid(items: list[str]) -> dict[str, list]:
    grid: dict[str, list] = {}
    for item in items:
        if "=" not in item:
            raise ValidationError(f"bad --grid {item!r}, expected key=v1,v2,...")
        key, _, values = item.partition("=")
        key = key.strip()
        if key in grid:
            raise ValidationError(f"--grid names {key!r} twice")
        grid[key] = [parse_config_value(key, tok.strip()) for tok in values.split(",")]
    return grid


@_writes_output
def _cmd_sweep(args: argparse.Namespace, config: RunConfig, outdir: str) -> None:
    points = sweep_points(config, _parse_grid(args.grid))  # before any data is read
    entries = load_reference(args.reference)
    ontology = load_ontology(args.ontology) if args.ontology else None
    store = load_reports(args.reports, ontology)
    rows = parameter_sweep(
        store, entries, points, ontology=ontology, strict_before=not args.non_strict
    )
    write_sweep_csv(rows, os.path.join(outdir, "sweep.csv"))


# Scenario fields that generate takes as flags (--n-drugs for n_drugs).
_SIZES = ("n_drugs", "n_pts", "n_reports", "n_quarters", "negatives_per_drug")


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.verify:
        ok = verify_manifest(args.verify)
        print(json.dumps({"verified": ok, "dir": args.verify}))
        return 0 if ok else 2
    overrides = {f: getattr(args, f) for f in _SIZES if getattr(args, f) is not None}
    scenario = dataclasses.replace(PRESETS[args.preset], seed=args.seed, **overrides)
    manifest = generate(scenario, args.out)
    print(
        json.dumps(
            {
                "dir": args.out,
                "scenario": manifest["scenario"]["name"],
                "seed": scenario.seed,
                "totals": manifest["totals"],
            },
            sort_keys=True,
        )
    )
    return 0


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    for key, (_, _, text) in CONFIG_SCHEMA.items():
        if key == "include_target_in_reml":  # a switch: present means true
            p.add_argument(_flag(key), action="store_const", const="true", help=text)
        else:
            p.add_argument(_flag(key), help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icborrow",
        description="adverse-event signal detection with similarity-informed "
        "Bayesian borrowing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="progress logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in [
        ("validate", _cmd_validate, "check input files and summarize them"),
        ("run", _cmd_run, "screen all active pairs quarter by quarter"),
        ("evaluate", _cmd_evaluate, "score a run against a reference set"),
        ("compare", _cmd_compare, "head-to-head overlap of two methods"),
        ("sweep", _cmd_sweep, "one-at-a-time parameter sweep"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--reports", required=True)
        p.add_argument("--ontology")
        if name != "run":
            p.add_argument("--reference", required=name != "validate")
        if name != "validate":
            p.add_argument("--out", required=True)
            _add_config_flags(p)
        if name not in ("validate", "run"):
            p.add_argument("--non-strict", action="store_true",
                           help="count alerts landing on the label quarter as hits")
        p.set_defaults(func=func)
    sub.choices["evaluate"].add_argument(
        "--bootstrap", type=int, default=0,
        help=f"bootstrap iterations, 0 (disabled) or at least {MIN_BOOTSTRAP_ITER}",
    )
    sub.choices["sweep"].add_argument(
        "--grid", action="append", default=[],
        help=f"axis as key=v1,v2,... (repeatable); keys: {', '.join(SWEEP_PARAMS)}",
    )

    p = sub.add_parser("generate", help="emit a synthetic data set")
    p.add_argument("--preset", choices=sorted(PRESETS), default="basic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="synthetic")
    for size in _SIZES:
        p.add_argument(_flag(size), type=int)
    p.add_argument("--verify", metavar="DIR",
                   help="instead of generating, render DIR again from its "
                   "manifest and compare all four files byte for byte")
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        return _fail(2, exc)
    except NumericalError as exc:
        return _fail(3, exc)
    except OSError as exc:
        return _fail(1, exc)


def _fail(code: int, exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
