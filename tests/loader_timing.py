"""Time ``load_reports`` against the line-by-line oracle loader.

Usage (from the repository root)::

    icborrow generate --preset basic --seed 0 --out DATA --n-quarters 16 \\
        --n-reports 150000 --n-drugs 200 --n-pts 1000
    PYTHONPATH=src python tests/loader_timing.py DATA/reports.tsv

Besides the given file, it times a multi-code version of it: the rows of
each quarter, shuffled with a fixed seed, are folded into reports of 1 to
4 rows each, so a report names several drugs and events, with repeats, and
every 50th report reuses the id of an earlier one. Both loaders must build
the same store from each file. Prints the best of ``--repeats`` loads per
loader and file, and the peak of the memory each loader allocates while it
loads the file once more under ``tracemalloc``, in MB and in bytes per
report.
"""

from __future__ import annotations

import argparse
import logging
import os
import tempfile
import time
import tracemalloc
from collections import defaultdict

import numpy as np
from oracles import load_reports_by_line, store_state

from icborrow.reports import load_reports


def fold_reports(src: str, dst: str, seed: int = 0) -> int:
    """Write ``src``'s rows as multi-code reports to ``dst``; return the count."""
    by_quarter: dict[str, list[tuple[str, str]]] = defaultdict(list)
    with open(src, encoding="utf-8") as fh:
        for raw in fh:
            if raw.lstrip()[:1] in ("", "#"):
                continue
            _, quarter, drugs, events = raw.rstrip("\n").split("\t")
            by_quarter[quarter].append((drugs, events))
    rng = np.random.Generator(np.random.Philox(seed))
    n = 0
    with open(dst, "w", encoding="utf-8") as out:
        for quarter, rows in by_quarter.items():
            order = rng.permutation(len(rows)).tolist()
            start = 0
            while start < len(order):
                group = [rows[i] for i in order[start : start + 1 + n % 4]]
                start += len(group)
                report_id = f"M{n - 25 if n % 50 == 49 else n:07d}"
                drugs = ";".join(d for d, _ in group)
                events = ";".join(e for _, e in group)
                out.write(f"{report_id}\t{quarter}\t{drugs}\t{events}\n")
                n += 1
    return n


def _best(loader, path: str, repeats: int):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        store = loader(path)
        times.append(time.perf_counter() - t0)
    return min(times), store


def _traced_peak(loader, path: str) -> int:
    """Peak bytes allocated while ``loader`` loads ``path``, the store included."""
    tracemalloc.start()
    try:
        loader(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("reports", help="a reports.tsv file")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    logging.getLogger("icborrow.reports").setLevel(logging.ERROR)  # duplicate ids
    with tempfile.TemporaryDirectory() as tmp:
        folded = os.path.join(tmp, "folded.tsv")
        fold_reports(args.reports, folded)
        for label, path in (("as given", args.reports), ("multi-code", folded)):
            t_block, block = _best(load_reports, path, args.repeats)
            t_line, line = _best(load_reports_by_line, path, args.repeats)
            if store_state(block) != store_state(line):
                raise SystemExit(f"{label}: the loaders disagree")
            print(
                f"{label:10s} reports={len(block):7d} "
                f"warnings={len(block.load_warnings):5d} "
                f"load_reports={t_block:.3f}s by_line={t_line:.3f}s "
                f"ratio={t_block / t_line:.2f}"
            )
            for name, loader in (("load_reports", load_reports),
                                 ("by_line", load_reports_by_line)):
                peak = _traced_peak(loader, path)
                print(
                    f"{label:10s} {name} peak={peak / 1e6:.2f}MB "
                    f"({peak / max(len(block), 1):.0f} B/report)"
                )


if __name__ == "__main__":
    main()
