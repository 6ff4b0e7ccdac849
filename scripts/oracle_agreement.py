#!/usr/bin/env python3
"""Cross-check the bisimilarity search against the brute-force oracle on
random tiny pointed pairs and report agreement counts.  Every witness
also goes through its JSON document and back: the re-read witness must
pass the checker and serialize to the same bytes."""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gkmc.bisim import bisimilar, brute_force_bisim, check_witness, witness_from_document, witness_to_document
from gkmc.generate import GenSpec, SplitMix64, break_child, gen_model
from gkmc.model import PointedModel


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    tiny = dict(max_worlds=3, max_children=2, max_depth=2, prop_count=1, constant_count=1, edge_density=0.45)
    started = time.perf_counter()
    agree = disagree = positives = 0
    for k in range(args.pairs):
        seed = args.seed + k
        m = gen_model(GenSpec(seed=seed, **tiny))
        rng = SplitMix64(seed)
        if k % 2 == 0 or not m.children:
            other = gen_model(GenSpec(seed=seed + 70_000, **tiny))
        else:
            label = rng.choice(sorted(m.children))
            other = break_child(m, label, "p", rng.choice(m.children[label].worlds))
        pm = PointedModel(m, rng.choice(m.worlds))
        pn = PointedModel(other, rng.choice(other.worlds))
        verdict = bisimilar(pm, pn)
        oracle = brute_force_bisim(pm, pn)
        if verdict.bisimilar == oracle:
            agree += 1
        else:
            disagree += 1
            print(f"  DISAGREEMENT at seed {seed}")
        if verdict.bisimilar:
            positives += 1
            assert check_witness(pm, pn, verdict.witness).ok
            text = json.dumps(witness_to_document(verdict.witness))
            restored = witness_from_document(json.loads(text))
            assert check_witness(pm, pn, restored).ok
            assert json.dumps(witness_to_document(restored)) == text
    elapsed = time.perf_counter() - started
    per_pair_ms = 1000 * elapsed / args.pairs if args.pairs else 0.0
    print(
        f"{agree}/{args.pairs} agree ({positives} bisimilar, witnesses verified and round-tripped)"
        f" in {elapsed:.1f}s ({per_pair_ms:.2f} ms per pair)"
    )
    if disagree:
        sys.exit(1)


if __name__ == "__main__":
    main()
