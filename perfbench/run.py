"""Screening benchmark for icborrow: three workloads, end-to-end and per layer.

Run from the root of a checkout (it needs ``src/icborrow``)::

    python3 perfbench/run.py --workload concordant-run --seed 4 --seconds 35 --trace 0

Each run generates its inputs with ``icborrow generate`` from ``--seed``,
checks them with ``icborrow generate --verify``, then starts the workload's
``icborrow`` command as fresh child processes (``perfbench/child.py``), one
after another, for ``--seconds`` seconds. Every child's result files are
hashed and compared with a reference: the digest stored in
``perfbench/digests.json`` at a workload's default seed, otherwise a
``--threads 1`` run of the same seed. The last line of stdout is one JSON
object; the lines before it name every metric with its unit. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORK_ROOT = ".bench_work"
MIN_REPS = 3
CHILD_TIMEOUT_S = 50.0
PLANTED_DRUGS = ("D000", "D001")  # the basic preset plants its signals here


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Timed end-to-end children always run with ``--threads 1``: on a
    machine with few cores, a single thread is not slowed down when another
    process takes a second core, so its timings stay steady. ``threads`` is
    the worker count of the traced children; above 1, every untraced run
    also starts one untimed child at that count whose outputs must match.
    """

    preset: str
    generate: tuple[str, ...]  # extra `icborrow generate` flags
    command: str  # run or sweep
    flags: tuple[str, ...]
    threads: int
    outputs: tuple[str, ...]
    drug_filter: bool = False


WORKLOADS = {
    # The IC engine (100k Dirichlet draws per pair) is nearly all of the
    # screen. Its traced run and its determinism check use 2 worker threads.
    "concordant-run": Workload(
        preset="concordant",
        generate=(),
        command="run",
        flags=("--methods", "IC,IC_SSM", "--end", "2015Q1"),
        threads=2,
        outputs=("results_IC.csv", "results_IC_SSM.csv"),
    ),
    # Mixture updates of the borrowing layer dominate; the IC cache is read
    # by every sweep point after the first.
    "concordant-sweep": Workload(
        preset="concordant",
        generate=(),
        command="sweep",
        flags=("--methods", "IC_SSM,IC_HLGT", "--n-samples", "20000",
               "--end", "2015Q1", "--grid", "w=0.5,0.8"),
        threads=1,
        outputs=("sweep.csv",),
    ),
    # Parsing, cumulative snapshots and the all-pairs similarity build
    # dominate; only the two drugs with planted signals are screened, at the
    # last four cutoffs (2018Q1 to 2018Q4). With min_a 1 that is ~3100
    # pair-quarters, with a coefficient of variation of 3.4% across seeds
    # 0-5; min_a 2 over all 16 cutoffs screened half as many with 11%.
    "large-history": Workload(
        preset="basic",
        generate=("--n-reports", "150000", "--n-drugs", "200",
                  "--n-pts", "1000", "--n-quarters", "16"),
        command="run",
        flags=("--methods", "IC,IC_SSM", "--min-a", "1", "--n-samples", "2000",
               "--start", "2018Q1"),
        threads=1,
        outputs=("results_IC.csv", "results_IC_SSM.csv"),
        drug_filter=True,
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "screen_s": "s",
    "verdicts_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    """The inputs could not be generated or verified."""


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    record: dict
    digests: dict[str, str]
    correct: bool = False  # exited 0 and its outputs matched the reference


class Runner:
    """Starts icborrow commands against one checkout's sources."""

    def __init__(self, root: str, work: str) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.work = work
        self._n = 0

    def cli(self, *args: str) -> str:
        """Run an untimed helper command; return its stdout."""
        proc = subprocess.run(
            [sys.executable, "-m", "icborrow.cli", *args], env=self.env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"icborrow {args[0]} failed: {proc.stderr.strip()}")
        return proc.stdout

    def child(self, cli_args: list[str], trace: bool,
              outputs: tuple[str, ...]) -> ChildRun:
        """One timed child process; wall time runs from spawn to exit."""
        self._n += 1
        out = os.path.join(self.work, f"out{self._n}")
        record_path = os.path.join(self.work, f"record{self._n}.json")
        argv = [sys.executable, CHILD, record_path, "1" if trace else "0", "--",
                *cli_args, "--out", out]
        log_path = os.path.join(self.work, f"child{self._n}.log")
        with open(log_path, "wb") as log:
            t0 = now()
            proc = subprocess.Popen(argv, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = now() - t0
        # Reaped by wait4, so tell Popen the child is gone.
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        record: dict = {"spawn": t0}
        digests: dict[str, str] = {}
        if code == 0:
            try:
                with open(record_path, encoding="utf-8") as fh:
                    record.update(json.load(fh))
                digests = {name: sha256(os.path.join(out, name)) for name in outputs}
            except OSError:
                code = -1  # a missing output counts as a failed run
        if code != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"child exited with {code}:\n{tail}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return ChildRun(code, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, record, digests)


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def prepare_inputs(runner: Runner, wl: Workload, seed: int) -> list[str]:
    """Generate and verify the data; return the workload's icborrow arguments."""
    data = os.path.join(runner.work, "data")
    runner.cli("generate", "--preset", wl.preset, "--seed", str(seed),
               "--out", data, *wl.generate)
    if not json.loads(runner.cli("generate", "--verify", data))["verified"]:
        raise BenchError("generated inputs failed verification")
    args = [wl.command, "--reports", os.path.join(data, "reports.tsv"),
            "--ontology", os.path.join(data, "ontology.tsv")]
    if wl.command == "sweep":
        args += ["--reference", os.path.join(data, "reference.tsv")]
    if wl.drug_filter:
        path = os.path.join(runner.work, "drugs.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(d + "\n" for d in PLANTED_DRUGS))
        args += ["--drug-filter", path]
    return args + list(wl.flags)


def stored_digests(name: str) -> dict:
    """{"seed": default seed, "files": {result file: SHA-256}} of a workload."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[name]


def screen_times(run: ChildRun) -> tuple[float, float]:
    """(setup_s, screen_s) from the untraced record."""
    rec = run.record
    return rec["screen_start"] - rec["spawn"], rec["screen_end"] - rec["screen_start"]


def end_to_end(runs: list[ChildRun]) -> dict[str, float]:
    good = [r for r in runs if r.correct]
    if not good:
        return {}
    setup, screen = zip(*(screen_times(r) for r in good))
    per_run = {
        "wall_s": [r.wall_s for r in good],
        "setup_s": setup,
        "screen_s": screen,
        "verdicts_per_s": [r.record["rows"] / s for r, s in zip(good, screen)],
        "cpu_s": [r.cpu_s for r in good],
        "peak_rss_mb": [r.peak_rss_mb for r in good],
    }
    return {name: statistics.median(values) for name, values in per_run.items()}


# -- per-layer metrics from a traced record ----------------------------------

def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (0 when there are no values)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(run: ChildRun, threads: int) -> dict[str, float]:
    rec = run.record
    counts = rec["counts"]
    spans = rec["spans"]  # [thread, name, start, end, parent index]

    def layer(i: int) -> str:
        return spans[i][1].split(".")[0]

    def durations(name: str) -> list[float]:
        return [s[3] - s[2] for s in spans if s[1] == name]

    def busy(name: str) -> float:
        return sum(durations(name))

    def count(key: str) -> float:
        return counts.get(key, 0)

    # Pipeline self time, per thread: the run_quarters spans plus worker
    # analyze_pair spans, less the main thread's wait for its pool and less
    # the outermost ic, borrow and reports calls made inside them.
    self_s = -count("reports.contingency.s")
    runs = [s for s in spans if s[1] == "pipeline.run_quarters"]
    for thread, _, start, end, _ in runs:
        inside = [i for i, s in enumerate(spans) if start <= s[2] and s[3] <= end]
        workers = [spans[i] for i in inside
                   if spans[i][1] == "pipeline.analyze_pair" and spans[i][0] != thread]
        self_s += end - start
        if workers:
            self_s += sum(w[3] - w[2] for w in workers)
            self_s -= max(w[3] for w in workers) - min(w[2] for w in workers)
        for i in inside:
            parent = spans[i][4]
            if layer(i) in ("ic", "borrow", "reports") and (
                    parent < 0 or layer(parent) == "pipeline"):
                self_s -= spans[i][3] - spans[i][2]

    ic_ms = [d * 1e3 for d in durations("ic.posterior_ic")]
    mix_ms = [d * 1e3 for d in durations("borrow.mixture_posterior")]
    ic_busy = busy("ic.posterior_ic")
    draws = count("ic.draws")
    lookups = count("pipeline.cache.calls")
    scored = count("ontology.sokal_sneath.calls")
    borrow_calls = len(durations("borrow.borrow"))
    load_s = busy("reports.load_reports")
    sweep_ids = {i for i, s in enumerate(spans) if s[1] == "evaluate.parameter_sweep"}
    screen_spans = runs + [spans[i] for i in sweep_ids]
    return {
        "cli.import_s": rec["import_s"],
        "ontology.load_s": busy("ontology.load_ontology"),
        "ontology.similarity_s": busy("ontology.build_similarity"),
        "ontology.pairs_scored": scored,
        "ontology.pairs_kept": count("ontology.pairs_kept"),
        "ontology.keep_ratio": count("ontology.pairs_kept") / scored if scored else 0.0,
        "reports.load_s": load_s,
        "reports.reports_per_s": count("reports.reports") / load_s,
        "reports.load_rss_mb": count("reports.load_rss_mb"),
        "reports.snapshot_s": busy("reports.active_pairs"),
        "reports.snapshot_rss_mb": count("reports.snapshot_rss_mb"),
        "reports.active_pairs_calls": len(durations("reports.active_pairs")),
        "reports.contingency_calls": count("reports.contingency.calls"),
        "reports.contingency_s": count("reports.contingency.s"),
        "ic.calls": len(ic_ms),
        "ic.busy_s": ic_busy,
        "ic.draws": draws,
        "ic.draws_per_s": draws / ic_busy,
        "ic.call_ms_p50": _quantile(ic_ms, 50),
        "ic.call_ms_p99": _quantile(ic_ms, 99),
        "ic.bytes_computed": draws * 4 * 8,
        "ic.floored_draws": count("ic.floored_draws"),
        "pipeline.tasks": len(durations("pipeline.analyze_pair")),
        "pipeline.cache_lookups": lookups,
        "pipeline.cache_misses": len(ic_ms),
        "pipeline.cache_hit_ratio": 1.0 - len(ic_ms) / lookups,
        "pipeline.thread_utilization":
            busy("pipeline.analyze_pair") / (threads * busy("pipeline.run_quarters")),
        "pipeline.self_s": self_s,
        "pipeline.sources_skipped": count("pipeline.sources_skipped"),
        "pipeline.write_s": busy("pipeline.write"),
        "pipeline.bytes_written": count("pipeline.bytes_written"),
        "borrow.calls": borrow_calls,
        "borrow.busy_s": busy("borrow.borrow"),
        "borrow.passthrough_calls": count("borrow.passthrough_calls"),
        "borrow.sources_per_call": count("borrow.sources") / borrow_calls,
        "borrow.reml_calls": len(durations("borrow.reml_tau2")),
        "borrow.reml_s": busy("borrow.reml_tau2"),
        "borrow.reml_fallbacks": count("borrow.reml_fallbacks"),
        "borrow.mixture_calls": len(mix_ms),
        "borrow.mixture_s": sum(mix_ms) / 1e3,
        "borrow.mixture_ms_p50": _quantile(mix_ms, 50),
        "borrow.mixture_ms_p99": _quantile(mix_ms, 99),
        "evaluate.sweep_points": sum(1 for s in runs if s[4] in sweep_ids),
        "evaluate.score_s": busy("evaluate.score"),
        # Not per-layer metrics; used for the split check printed by trace runs.
        "_screen_s": max(s[3] for s in screen_spans) - min(s[2] for s in runs),
        "_worker_busy_s": busy("pipeline.analyze_pair"),
        "_wall_s": run.wall_s,
    }


LAYER_UNITS = {
    "cli.import_s": "s", "ontology.load_s": "s", "ontology.similarity_s": "s",
    "ontology.pairs_scored": "count", "ontology.pairs_kept": "count",
    "ontology.keep_ratio": "ratio", "reports.load_s": "s",
    "reports.reports_per_s": "1/s", "reports.load_rss_mb": "MB",
    "reports.snapshot_s": "s", "reports.snapshot_rss_mb": "MB",
    "reports.active_pairs_calls": "count", "reports.contingency_calls": "count",
    "reports.contingency_s": "s", "ic.calls": "count", "ic.busy_s": "s",
    "ic.draws": "count", "ic.draws_per_s": "1/s", "ic.call_ms_p50": "ms",
    "ic.call_ms_p99": "ms", "ic.bytes_computed": "B", "ic.floored_draws": "count",
    "pipeline.tasks": "count", "pipeline.cache_lookups": "count",
    "pipeline.cache_misses": "count", "pipeline.cache_hit_ratio": "ratio",
    "pipeline.thread_utilization": "ratio", "pipeline.thread_scaling": "ratio",
    "pipeline.self_s": "s", "pipeline.sources_skipped": "count",
    "pipeline.write_s": "s", "pipeline.bytes_written": "B",
    "borrow.calls": "count", "borrow.busy_s": "s",
    "borrow.passthrough_calls": "count", "borrow.sources_per_call": "count",
    "borrow.reml_calls": "count", "borrow.reml_s": "s",
    "borrow.reml_fallbacks": "count", "borrow.mixture_calls": "count",
    "borrow.mixture_s": "s", "borrow.mixture_ms_p50": "ms",
    "borrow.mixture_ms_p99": "ms", "evaluate.sweep_points": "count",
    "evaluate.score_s": "s", "trace.overhead_ratio": "ratio",
}


# -- the two kinds of run -------------------------------------------------------

class Session:
    """Timed children of one benchmark run, each checked against the reference."""

    def __init__(self, runner: Runner, wl: Workload, args: list[str],
                 expected: dict[str, str] | None) -> None:
        self.runner, self.wl, self.args = runner, wl, args
        self.expected = expected
        self.attempted = self.failed = self.repeated = 0

    def run(self, trace: bool = False, threads: int | None = None) -> ChildRun:
        threads = self.wl.threads if threads is None else threads
        result = self.runner.child([*self.args, "--threads", str(threads)],
                                   trace, self.wl.outputs)
        if result.code == 0 and self.expected is None and threads == 1:
            self.expected = result.digests  # this seed's single-thread reference
        result.correct = result.code == 0 and result.digests == self.expected
        self.attempted += 1
        self.failed += not result.correct
        return result

    def repeat(self, seconds: float, minimum: int,
               trace: bool) -> list[tuple[ChildRun, ...]]:
        """Rounds of children one after another for about `seconds`, at
        least `minimum` of them. An untraced round is one single-thread
        child; a traced round is an untraced and a traced child, both on
        the workload's threads, so that both see the same phase of the
        host."""
        start, rounds = now(), []
        while len(rounds) < minimum or (
                now() - start + sum(r.wall_s for r in rounds[-1]) <= seconds):
            if trace:
                rounds.append((self.run(), self.run(trace=True)))
            else:
                rounds.append((self.run(threads=1),))
            if not all(r.correct for r in rounds[-1]):
                break  # the run is already incorrect; stop early
        self.repeated = len(rounds)
        return rounds


def measure(session: Session, seconds: float, trace: bool) -> dict[str, float]:
    wl = session.wl
    if not trace:
        rounds = session.repeat(seconds, MIN_REPS, False)
        metrics = end_to_end([r for r, in rounds])
        if wl.threads > 1:
            session.run()  # untimed: must match the single-thread outputs
        return metrics

    baseline = session.run(threads=1) if wl.threads > 1 else None
    rounds = session.repeat(seconds, 1, True)
    untraced = [u for u, _ in rounds if u.correct]
    traced = [t for _, t in rounds if t.correct]
    if not traced or not untraced:
        return {}
    scaling = 1.0  # a single-threaded workload is its own baseline
    if baseline is not None and baseline.correct:
        scaling = screen_times(baseline)[1] / statistics.median(
            screen_times(u)[1] for u in untraced)
    per_run = [layer_metrics(r, wl.threads) for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    metrics["pipeline.thread_scaling"] = scaling
    metrics["trace.overhead_ratio"] = metrics["_wall_s"] / statistics.median(
        u.wall_s for u in untraced)
    return metrics


def report(metrics: dict[str, float], units: dict[str, str], session: Session,
           runs_note: str) -> dict:
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    print(f"{'failed_ratio':32s} {session.failed / session.attempted:14.6g} "
          f"ratio ({session.failed} of {session.attempted} runs)")
    print(runs_note)
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def run_workload(root: str, name: str, seed: int, seconds: float,
                 trace: bool) -> dict | None:
    """One workload: print its metrics and return its result, None on failure."""
    wl = WORKLOADS[name]
    stored = stored_digests(name)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        runner = Runner(root, work)
        cli_args = prepare_inputs(runner, wl, seed)
        session = Session(runner, wl, cli_args,
                          stored["files"] if seed == stored["seed"] else None)
        metrics = measure(session, seconds, trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print(f"benchmark failed: no correct {name} run to measure", file=sys.stderr)
        return None
    print(f"== {name}, seed {seed}")
    if not trace:
        return report(metrics, END_TO_END_UNITS, session,
                      f"timings are medians over {session.repeated} runs")
    print("split: ic.busy_s / worker busy = {:.3f}; borrow.busy_s / screen_s "
          "= {:.3f}; (reports.load_s + reports.snapshot_s) / wall_s = {:.3f} "
          "(traced run)".format(
              metrics["ic.busy_s"] / metrics["_worker_busy_s"],
              metrics["borrow.busy_s"] / metrics["_screen_s"],
              (metrics["reports.load_s"] + metrics["reports.snapshot_s"])
              / metrics["_wall_s"]))
    return report(metrics, LAYER_UNITS, session,
                  f"medians over {session.repeated} traced runs")


def _terminate(signum, frame):
    # Unwind through the handlers that kill and reap a running child.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: each workload's default seed)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting timed children")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced children")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "icborrow", "cli.py")):
        print("run from the root of an icborrow checkout (src/icborrow missing)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = stored_digests(name)["seed"] if args.seed is None else args.seed
        result = run_workload(root, name, seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
