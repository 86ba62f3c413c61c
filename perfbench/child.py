"""Child process of the benchmark: runs the ``icborrow`` command once.

Usage::

    python perfbench/child.py RECORD_JSON TRACE(0|1) -- <icborrow arguments>

It does what ``python -m icborrow.cli <arguments>`` does, after wrapping a
few module attributes from outside the package. No file of the package is
changed.

- Untraced (``TRACE`` 0): only the screening call is wrapped. The record
  holds the monotonic time of the first ``run_quarters`` entry (the end of
  set-up), the time the screening call returned (``run_quarters`` for
  ``run``, ``parameter_sweep`` for ``sweep``) and the number of result rows.
- Traced (``TRACE`` 1): the calls into each layer are wrapped where their
  caller looks them up. Per-pair or coarser calls record spans; per-lookup
  calls record only counts (``contingency`` also its summed time). The
  record also holds the counters that ``run.py`` turns into per-layer
  metrics.

Records are kept per thread, so worker threads never share a list or a
counter, and are merged when the command has returned.
"""

from __future__ import annotations

import functools
import json
import logging
import resource
import sys
import threading
import time


def now() -> float:
    """System-wide monotonic clock, comparable with the parent's reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ThreadRecord:
    """Spans and counters of one thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Recorder:
    """The per-thread records of one traced child."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records: list[ThreadRecord] = []

    def record(self) -> ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = ThreadRecord()
            with self._lock:
                self._records.append(rec)
        return rec

    def dump(self) -> dict:
        """Merged record; call after every worker thread has finished."""
        with self._lock:
            records = list(self._records)
        spans, counts = [], {}
        for thread, rec in enumerate(records):
            offset = len(spans)
            for name, t0, t1, parent in rec.spans:
                parent = parent + offset if parent >= 0 else -1
                spans.append([thread, name, t0, t1, parent])
            for key, value in rec.counts.items():
                counts[key] = counts.get(key, 0) + value
        return {"spans": spans, "counts": counts}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span(recorder: Recorder, name: str, fn, observe=None, rss_key=None):
    """Wrap fn so each call records (name, start, end, parent span index).

    observe(rec, result, args) adds counters from the returned value;
    rss_key sums the growth of the peak RSS across the call.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = recorder.record()
        parent = rec.stack[-1] if rec.stack else -1
        index = len(rec.spans)
        rec.spans.append(None)
        rec.stack.append(index)
        rss0 = _maxrss_mb() if rss_key else 0.0
        t0 = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = now()
            rec.stack.pop()
            rec.spans[index] = (name, t0, t1, parent)
        if rss_key:
            rec.add(rss_key, _maxrss_mb() - rss0)
        if observe is not None:
            observe(rec, result, args)
        return result

    return wrapper


def counted(recorder: Recorder, name: str, fn, timed: bool = False):
    """Wrap a per-lookup call: a count, and with timed=True the summed time."""
    calls, seconds = name + ".calls", name + ".s"

    if not timed:

        @functools.wraps(fn)
        def count_only(*args, **kwargs):
            recorder.record().add(calls)
            return fn(*args, **kwargs)

        return count_only

    @functools.wraps(fn)
    def count_and_time(*args, **kwargs):
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            rec = recorder.record()
            rec.add(calls)
            rec.add(seconds, now() - t0)

    return count_and_time


class DegenerateSourceCounter(logging.Handler):
    """Counts the pipeline's "skipping degenerate source" warnings."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__(level=logging.WARNING)
        self._recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("skipping degenerate source"):
            self._recorder.record().add("pipeline.sources_skipped")


def install_screen_probe(out: dict) -> None:
    """Untraced run: time the screening call and nothing else."""
    import icborrow.cli as cli
    import icborrow.evaluate as evaluate

    out["rows"] = 0

    def entry_probe(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out.setdefault("screen_start", now())
            result = fn(*args, **kwargs)
            out["rows"] += len(result.results)
            return result

        return wrapper

    def exit_probe(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            out["screen_end"] = now()
            return result

        return wrapper

    evaluate.run_quarters = entry_probe(evaluate.run_quarters)
    cli.run_quarters = exit_probe(entry_probe(cli.run_quarters))
    cli.parameter_sweep = exit_probe(cli.parameter_sweep)


def install_tracing(recorder: Recorder) -> None:
    """Traced run: wrap the calls into every layer."""
    import os

    import icborrow.cli as cli
    import icborrow.evaluate as evaluate
    import icborrow.pipeline as pipeline
    from icborrow.ontology import Ontology
    from icborrow.pipeline import IcCache
    from icborrow.reports import ReportStore

    # icborrow.borrow is the re-exported function; the module is here.
    borrow_mod = sys.modules["icborrow.borrow"]

    def on_ic(rec, post, args):
        rec.add("ic.draws", post.n_samples)
        rec.add("ic.floored_draws", post.n_floored)

    def on_borrow(rec, result, args):
        rec.add("borrow.sources", len(args[1]))
        if result.map_prior is None:
            rec.add("borrow.passthrough_calls")

    def on_reml(rec, result, args):
        if not result[1]:
            rec.add("borrow.reml_fallbacks")

    def on_similarity(rec, sim, args):
        rec.add("ontology.pairs_kept", sim.n_pairs())

    def on_reports(rec, store, args):
        rec.add("reports.reports", len(store))

    def on_write(rec, result, args):
        rec.add("pipeline.bytes_written", os.path.getsize(args[-1]))

    def wrap(owner, attr, name, **kw):
        setattr(owner, attr, span(recorder, name, getattr(owner, attr), **kw))

    wrap(pipeline, "posterior_ic", "ic.posterior_ic", observe=on_ic)
    wrap(pipeline, "borrow", "borrow.borrow", observe=on_borrow)
    wrap(pipeline, "analyze_pair", "pipeline.analyze_pair")
    wrap(borrow_mod, "mixture_posterior", "borrow.mixture_posterior")
    wrap(borrow_mod, "random_effects_map", "borrow.random_effects_map")
    wrap(borrow_mod, "reml_tau2", "borrow.reml_tau2", observe=on_reml)
    wrap(cli, "load_reports", "reports.load_reports", observe=on_reports,
         rss_key="reports.load_rss_mb")
    wrap(cli, "load_ontology", "ontology.load_ontology")
    for owner in (cli, evaluate):
        wrap(owner, "build_similarity", "ontology.build_similarity",
             observe=on_similarity)
        wrap(owner, "run_quarters", "pipeline.run_quarters")
    wrap(cli, "parameter_sweep", "evaluate.parameter_sweep")
    wrap(evaluate, "score", "evaluate.score")
    wrap(cli, "write_results_csv", "pipeline.write", observe=on_write)
    wrap(cli, "write_sweep_csv", "pipeline.write", observe=on_write)
    wrap(ReportStore, "active_pairs", "reports.active_pairs",
         rss_key="reports.snapshot_rss_mb")
    ReportStore.contingency = counted(
        recorder, "reports.contingency", ReportStore.contingency, timed=True
    )
    IcCache.posterior = counted(recorder, "pipeline.cache", IcCache.posterior)
    Ontology.sokal_sneath = counted(
        recorder, "ontology.sokal_sneath", Ontology.sokal_sneath
    )
    logging.getLogger("icborrow.pipeline").addHandler(
        DegenerateSourceCounter(recorder)
    )


def main() -> int:
    record_path, trace, sep, *cli_args = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py RECORD_JSON 0|1 -- ARGS...", file=sys.stderr)
        return 2
    traced = trace == "1"
    t0 = now() if traced else 0.0
    import icborrow.cli as cli

    out: dict = {"import_s": now() - t0} if traced else {}
    recorder = Recorder()
    if traced:
        install_tracing(recorder)
    else:
        install_screen_probe(out)
    code = cli.main(cli_args)
    if traced:
        out.update(recorder.dump())
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
