#!/usr/bin/env python3
"""Measure how often the bounded distinguisher separates tiny pointed
model pairs that the brute-force oracle certifies as non-bisimilar, and
check every separator it returns.

Desk-scale evidence for the bounded search, not a completeness claim:
a miss means only that no separator exists within the budget tried.
Each separator is evaluated again on both sides without memo tables;
the script exits 1 if one does not separate its pair or a case raises.
"""

import argparse
import pathlib
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from distinguish_digest import TINY
from gkmc.bisim import brute_force_bisim
from gkmc.distinguish import EnumerationBudget, distinguish
from gkmc.generate import GenSpec, SplitMix64, break_child, gen_model
from gkmc.model import PointedModel
from gkmc.semantics import holds_at
from gkmc.syntax import Vocabulary, format_formula


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=100)
    parser.add_argument("--max-depth", type=int, default=5, help="connective budget (staged from 4)")
    parser.add_argument("--max-modal-depth", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--show-misses", action="store_true")
    args = parser.parse_args()

    vocab = Vocabulary.of(props=["p"], constants=["c"])

    cases = []
    seed = args.seed
    while len(cases) < args.cases and seed < args.seed + 100 * args.cases:
        m = gen_model(GenSpec(seed=seed, **TINY))
        seed += 1
        if not m.children:
            continue
        rng = SplitMix64(seed * 31 + 7)
        label = rng.choice(sorted(m.children))
        broken = break_child(m, label, "p", rng.choice(m.children[label].worlds))
        pm, pn = PointedModel(m, m.worlds[0]), PointedModel(broken, broken.worlds[0])
        if not brute_force_bisim(pm, pn):
            cases.append((pm, pn))
    print(f"{len(cases)} oracle-certified non-bisimilar pairs")

    started = time.perf_counter()
    separated = failed = 0
    sizes = []
    for k, (pm, pn) in enumerate(cases):
        try:
            separator = None
            for stage in range(4, args.max_depth + 1):
                separator = distinguish(pm, pn, EnumerationBudget(stage, args.max_modal_depth, vocab))
                if separator is not None:
                    break
            if separator is None:
                if args.show_misses:
                    print(f"  miss: case {k}")
                continue
            text = format_formula(separator)
            if holds_at(pm.model, pm.world, separator, use_memo=False) == holds_at(pn.model, pn.world, separator, use_memo=False):
                failed += 1
                print(f"  FAILED: case {k}: {text} does not separate the pair")
                continue
        except Exception as exc:
            failed += 1
            print(f"  FAILED: case {k} raised {type(exc).__name__}: {exc}")
            traceback.print_exc()
            continue
        separated += 1
        sizes.append(len(text))
    elapsed = time.perf_counter() - started
    rate = separated / len(cases) if cases else 0.0
    per_case_ms = 1000 * elapsed / len(cases) if cases else 0.0
    print(f"separated {separated}/{len(cases)} ({rate:.1%}) in {elapsed:.1f}s ({per_case_ms:.2f} ms per case)")
    if sizes:
        print(f"separator text length: min {min(sizes)}, max {max(sizes)}")
    if failed:
        print(f"{failed} case(s) failed")
        sys.exit(1)


if __name__ == "__main__":
    main()
