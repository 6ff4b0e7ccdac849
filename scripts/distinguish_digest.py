#!/usr/bin/env python3
"""Print one SHA-256 over the separators `distinguish` returns at (4,4) for
a seeded pair population, so two versions of the search can be compared
byte for byte:

    python3 scripts/distinguish_digest.py --pairs N --seed S

The default population (`PAIRS` pairs at `SEED`) gives `PINNED`, the
digest from before `distinguish` learned to stop at a proof of
bisimilarity; the Tier-1 suite checks it.

The population is shaped like the `separate_stream` benchmark: tiny
`break_child` pairs that the brute-force oracle certifies as
non-bisimilar (a few of them have no separator at (4,4)), `dup_child`
copies, and tiny models with twin children against a `retrack` that the
oracle certifies as bisimilar.  Each pair adds its kind and its formatted
separator, or `None`, to the hash."""

import argparse
import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gkmc.bisim import brute_force_bisim
from gkmc.distinguish import EnumerationBudget, distinguish
from gkmc.generate import GenSpec, SplitMix64, break_child, derive, dup_child, gen_model, retrack
from gkmc.model import PointedModel, replace_model
from gkmc.syntax import Vocabulary, format_formula

TINY = dict(max_worlds=3, max_children=2, max_depth=2, prop_count=1, constant_count=1, edge_density=0.45)
BUDGET = EnumerationBudget(4, 4, Vocabulary.of(props=["p"], constants=["c"]))
# Mostly non-bisimilar pairs, as in the benchmark, each block ending in
# one bisimilar pair of each kind.
KINDS = ("break_child",) * 8 + ("dup_child", "retrack")
PAIRS, SEED = 100, 3
PINNED = "8b2a1283428f34ca18f930698006d70a1b674ea6c9268b13443998b531a7ca31"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=PAIRS)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args()
    print(digest(outcomes(args.pairs, args.seed)))


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


def outcomes(count: int, seed: int) -> list[str]:
    """One "kind separator" line per pair, the separator formatted or `None`."""
    lines = []
    for kind, pm, pn in population(count, seed):
        separator = distinguish(pm, pn, BUDGET)
        lines.append(f"{kind} {None if separator is None else format_formula(separator)}")
    return lines


def population(count: int, seed: int):
    """(kind, left, right) for each of `count` pairs drawn from `seed`."""
    for k in range(count):
        kind = KINDS[k % len(KINDS)]
        for attempt in range(1000):
            got = pair(kind, derive(seed, kind, k, attempt))
            if got is not None:
                yield (kind, *got)
                break
        else:
            raise RuntimeError(f"no {kind} pair for pair {k}")


def pair(kind: str, seed: int):
    """The pointed pair of one kind drawn from `seed`, or None when the
    draw does not give one."""
    rng = SplitMix64(derive(seed, "pick"))
    if kind == "retrack":
        got = twins_and_retrack(seed)
        if got is None:
            return None
        m, n = got
    else:
        m = gen_model(GenSpec(seed=seed, **TINY))
        if not m.children:
            return None
        label = rng.choice(sorted(m.children))
        if kind == "dup_child":
            n = dup_child(m, label)
        else:
            n = break_child(m, label, "p", rng.choice(m.children[label].worlds))
    world = rng.choice(m.worlds)
    pm, pn = PointedModel(m, world), PointedModel(n, world)
    if kind != "dup_child" and brute_force_bisim(pm, pn) != (kind == "retrack"):
        return None
    return pm, pn


def twins_and_retrack(seed: int):
    """A tiny model with its first child under two labels, `a` tracked as
    generated and `b` at seeded random worlds, and its `retrack` at a
    seeded world; None when the model has no child."""
    m = gen_model(GenSpec(seed=seed, **TINY))
    if not m.children:
        return None
    rng = SplitMix64(derive(seed, "retrack"))
    first = sorted(m.children)[0]
    child = m.children[first]
    tracking = {w: {"a": row[first], "b": rng.choice(child.worlds)} for w, row in m.tracking.items()}
    assignment = {w: dict.fromkeys(row, "a") for w, row in m.assignment.items()}
    m = replace_model(m, children={"a": child, "b": child}, tracking=tracking, assignment=assignment)
    return m, retrack(m, rng.choice(m.worlds), "a", "b")

if __name__ == "__main__":
    main()
