#!/usr/bin/env python3
"""Print two SHA-256 digests over a seeded pair population, one over the
bisimilarity verdicts and one over the witness documents, so two versions
of the decider can be compared byte for byte:

    python3 scripts/bisim_digest.py --pairs N --seed S

The default population (`PAIRS` pairs at `SEED`) gives `PINNED_VERDICTS`
and `PINNED_WITNESSES`; the Tier-1 suite checks both.  The verdict digest
is the one the decider gave before a witness became its cover's fixpoint,
before a witness entry stored its cover `H` once in place of a per-pair
`f`, before the cover search grew `H` one label at a time, in place of
listing minimal covers, and before a pair of structurally equal models at
one world got the identity witness in place of a searched one; these
changes moved the witness bytes only.

Pairs cycle through four kinds: two independent tiny models, a W8 model
and its `dup_child`, a W8 model and its `break_child`, and a tiny model
with twin children against its `retrack` (built by `distinguish_digest`;
a draw whose model has no child gives a tiny pair).  Each pair adds its
kind and verdict to the verdict digest and, when bisimilar, its witness
document to the witness digest."""

import argparse
import hashlib
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from distinguish_digest import TINY, twins_and_retrack
from gkmc.bisim import bisimilar, witness_to_document
from gkmc.generate import GenSpec, SplitMix64, break_child, derive, dup_child, gen_model
from gkmc.model import PointedModel

W8 = dict(max_worlds=8, max_children=4, max_depth=2, edge_density=0.4)
KINDS = ("tiny", "dup_child", "break_child", "retrack")
PAIRS, SEED = 200, 0
PINNED_VERDICTS = "e82d8ec1863c8593e46062ebed21c7a97f27235266e8237178f3c4a9e9212440"
PINNED_WITNESSES = "8dd98808ae8750f4bf1bd7aa2598c4fa28ecdcb44699e47e9a01311c77c85d1b"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=PAIRS)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args()
    verdicts, witnesses = digests(args.pairs, args.seed)
    print(f"verdicts  {verdicts}\nwitnesses {witnesses}")


def digests(count: int, seed: int) -> tuple[str, str]:
    """The verdict digest and the witness digest of `count` pairs drawn
    from `seed`."""
    verdicts, witnesses = hashlib.sha256(), hashlib.sha256()
    for k in range(count):
        kind = KINDS[k % len(KINDS)]
        pm, pn = pair(kind, derive(seed, kind, k))
        verdict = bisimilar(pm, pn)
        verdicts.update(f"{kind} {verdict.bisimilar}\n".encode())
        if verdict.bisimilar:
            witnesses.update(json.dumps(witness_to_document(verdict.witness), sort_keys=True).encode() + b"\n")
    return verdicts.hexdigest(), witnesses.hexdigest()


def pair(kind: str, seed: int):
    """The pointed pair of one kind drawn from `seed`."""
    rng = SplitMix64(derive(seed, "pick"))
    twins = twins_and_retrack(seed) if kind == "retrack" else None
    if twins is not None:
        m, n = twins
    else:
        m = gen_model(GenSpec(seed=seed, **(TINY if kind in ("tiny", "retrack") else W8)))
        if kind in ("tiny", "retrack") or not m.children:
            n = gen_model(GenSpec(seed=derive(seed, "other"), **TINY))
            return PointedModel(m, rng.choice(m.worlds)), PointedModel(n, rng.choice(n.worlds))
        label = rng.choice(sorted(m.children))
        if kind == "dup_child":
            n = dup_child(m, label)
        else:
            n = break_child(m, label, "p", rng.choice(m.children[label].worlds))
    world = rng.choice(m.worlds)
    return PointedModel(m, world), PointedModel(n, world)


if __name__ == "__main__":
    main()
