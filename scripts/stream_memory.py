#!/usr/bin/env python3
"""Report what the shared sentence stream costs at one setting.

    python3 scripts/stream_memory.py COST MODAL

Builds the stream of `enumerate_sentences` over the vocabulary `{p}` /
`{c}`, `xi` on, up to connective cost COST and modal depth MODAL, and
prints the number of sentences, the build's wall seconds and the memory
the kept stream holds, in MB (10^6 bytes) by `tracemalloc` after a full
collection.  The time is taken on a first build with `tracemalloc` off;
the memory on a second build from nothing, since tracing slows the
build.  Standard library only; it prints and exits 0, it checks nothing.
"""

import argparse
import gc
import pathlib
import sys
import time
import tracemalloc

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

from gkmc.distinguish import EnumerationBudget, enumerate_sentences
from gkmc.syntax import Vocabulary

VOCAB = Vocabulary.of(props=["p"], constants=["c"])


def build(cost: int, modal: int) -> int:
    """The stream's length at (cost, modal), built unless it is kept."""
    return sum(1 for _ in enumerate_sentences(EnumerationBudget(cost, modal, VOCAB)))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("cost", type=int, help="connective cost")
    parser.add_argument("modal", type=int, help="modal depth")
    args = parser.parse_args()

    start = time.perf_counter()
    count = build(args.cost, args.modal)
    seconds = time.perf_counter() - start

    build(0, args.modal + 1)  # another setting's stream replaces this one
    gc.collect()
    tracemalloc.start()
    build(args.cost, args.modal)
    gc.collect()
    held, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"cost {args.cost}  modal {args.modal}  sentences {count}  build_s {seconds:.3f}  held_mb {held / 1e6:.1f}")


if __name__ == "__main__":
    main()
