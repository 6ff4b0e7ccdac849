#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, in one process.

    python3 scripts/ab_inprocess.py OLD_TREE NEW_TREE WORKLOAD
        [--rounds N] [--queries Q] [--seed S] [--smoke]

Each tree's `src/gkmc` is copied into a temporary directory under its
own package name (`gkmc_old`, `gkmc_new`) and imported from there, so
the two programs live side by side.  The workload (`eval_oneshot`,
`bisim_witness` or `separate_stream`) comes from `perfbench/workloads.py`
next to this script and is built once per side from the same seed.
Each side first makes its Q inputs and serves and checks each query once,
untimed, which also warms caches such as the shared sentence stream.
Then the rounds alternate the sides, the side that goes first swapping
each round; a round times the side's Q queries one after the other.

Printed per side: the median over rounds of the mean time per query,
p50 and p90 over every timed query, and how many rounds the side had the
lower mean.  Also printed: queries whose check failed and queries whose
answers differ between the sides.  Fresh processes of one tree can differ
by more than a change does, which is why the two sides share one
process.  The script prints and gates nothing: it exits 0 unless it
cannot run.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402

LAYERS = ("syntax", "model", "semantics", "distinguish", "bisim", "generate")

_clock = time.perf_counter


def _import_tree(tree: pathlib.Path, package: str, scratch: pathlib.Path) -> SimpleNamespace:
    """The layer modules of `tree`'s `src/gkmc`, imported as `package`."""
    source = tree / "src" / "gkmc"
    if not source.is_dir():
        raise SystemExit(f"{tree}: no src/gkmc")
    shutil.copytree(source, scratch / package, ignore=shutil.ignore_patterns("__pycache__"))
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}") for name in LAYERS})


class _Side:
    def __init__(self, name: str, gk, workload_cls, seed: int, smoke: bool, queries: int):
        self.name = name
        self.workload = workload_cls(gk, seed, smoke)
        self.inputs = [self.workload.input(k) for k in range(queries)]
        self.answers = [self.workload.query(inp) for inp in self.inputs]
        self.wrong = sum(self.workload.check(inp, out).startswith("wrong") for inp, out in zip(self.inputs, self.answers))
        self.round_means: list[float] = []
        self.latencies: list[float] = []
        self.wins = 0

    def run_round(self) -> float:
        query, times = self.workload.query, []
        for inp in self.inputs:
            t0 = _clock()
            query(inp)
            times.append(_clock() - t0)
        self.latencies += times
        self.round_means.append(statistics.fmean(times))
        return self.round_means[-1]


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_tree", type=pathlib.Path)
    parser.add_argument("new_tree", type=pathlib.Path)
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--queries", type=int, default=400, help="queries per side per round")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="the workload's smoke sizes")
    args = parser.parse_args()

    workload_cls = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        sides = [
            _Side(name, _import_tree(tree.resolve(), f"gkmc_{name}", pathlib.Path(scratch)), workload_cls, args.seed, args.smoke, args.queries)
            for name, tree in (("old", args.old_tree), ("new", args.new_tree))
        ]
        for r in range(args.rounds):
            order = sides if r % 2 == 0 else sides[::-1]
            means = {side.name: side.run_round() for side in order}
            min(sides, key=lambda side: means[side.name]).wins += 1

    old, new = sides
    print(f"{args.workload}: {args.rounds} rounds of {args.queries} queries per side, seed {args.seed}")
    for side in sides:
        print(
            f"  {side.name}: median per-query {statistics.median(side.round_means) * 1e6:9.1f} us"
            f"  p50 {_quantile(side.latencies, 0.5) * 1e3:.3f} ms  p90 {_quantile(side.latencies, 0.9) * 1e3:.3f} ms"
            f"  rounds won {side.wins}/{args.rounds}  wrong answers {side.wrong}"
        )
    ratio = statistics.median(new.round_means) / statistics.median(old.round_means)
    print(f"  new/old median per-query time: {ratio:.3f}")
    differing = sum(a != b for a, b in zip(old.answers, new.answers))
    print(f"  answers that differ between the sides: {differing}/{args.queries}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
