#!/usr/bin/env python3
"""Print one SHA-256 over the bisimilarity verdicts and witness documents
of a seeded pair population, so two versions of the decider can be
compared byte for byte:

    python3 scripts/bisim_digest.py --pairs N --seed S

Pairs cycle through four kinds: two independent tiny models, a W8 model
and its `dup_child`, a W8 model and its `break_child`, and a tiny model
with twin children against its `retrack`.  Each pair adds its kind and
verdict to the hash and, when bisimilar, its witness document."""

import argparse
import hashlib
import json
import pathlib
import sys
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gkmc.bisim import bisimilar, witness_to_document
from gkmc.generate import GenSpec, SplitMix64, break_child, derive, dup_child, gen_model, retrack
from gkmc.model import PointedModel

TINY = dict(max_worlds=3, max_children=2, max_depth=2, prop_count=1, constant_count=1, edge_density=0.45)
W8 = dict(max_worlds=8, max_children=4, max_depth=2, edge_density=0.4)
KINDS = ("tiny", "dup_child", "break_child", "retrack")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(digest(args.pairs, args.seed))


def digest(count: int, seed: int) -> str:
    h = hashlib.sha256()
    for k in range(count):
        kind = KINDS[k % len(KINDS)]
        pm, pn = pair(kind, derive(seed, kind, k))
        verdict = bisimilar(pm, pn)
        h.update(f"{kind} {verdict.bisimilar}\n".encode())
        if verdict.bisimilar:
            h.update(json.dumps(witness_to_document(verdict.witness), sort_keys=True).encode())
    return h.hexdigest()


def pair(kind: str, seed: int):
    """The pointed pair of one kind drawn from `seed`."""
    rng = SplitMix64(derive(seed, "pick"))
    m = gen_model(GenSpec(seed=seed, **(TINY if kind in ("tiny", "retrack") else W8)))
    if kind == "tiny" or not m.children:
        n = gen_model(GenSpec(seed=derive(seed, "other"), **TINY))
        return PointedModel(m, rng.choice(m.worlds)), PointedModel(n, rng.choice(n.worlds))
    label = rng.choice(sorted(m.children))
    if kind == "dup_child":
        n = dup_child(m, label)
    elif kind == "break_child":
        n = break_child(m, label, "p", rng.choice(m.children[label].worlds))
    else:
        child = m.children[label]
        tracking = {w: {"a": row[label], "b": rng.choice(child.worlds)} for w, row in m.tracking.items()}
        assignment = {w: dict.fromkeys(row, "a") for w, row in m.assignment.items()}
        m = replace(m, children={"a": child, "b": child}, tracking=tracking, assignment=assignment)
        n = retrack(m, rng.choice(m.worlds), "a", "b")
    world = rng.choice(m.worlds)
    return PointedModel(m, world), PointedModel(n, world)


if __name__ == "__main__":
    main()
