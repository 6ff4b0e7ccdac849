#!/usr/bin/env python3
"""Cross-check the bisimilarity search against the brute-force oracle on
random tiny pointed pairs and report agreement counts.  Every witness
also goes through its JSON document and back: the re-read witness must
pass the checker and serialize to the same bytes.

A second population, reported on its own line, pairs tiny models with
their `retrack` at one world; some of these pairs survive plain
refinement and are rejected only by the cover search.  A third pairs
each tiny model of the first with its `rename_worlds` copy at one world:
bisimilar pairs that reflexivity cannot answer, so their witnesses come
from the cover search."""

import argparse
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from distinguish_digest import TINY
from gkmc.bisim import bisimilar, brute_force_bisim, check_witness, witness_from_document, witness_to_document
from gkmc.generate import GenSpec, SplitMix64, break_child, derive, gen_model, rename_worlds, retrack
from gkmc.model import PointedModel, replace_model


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    agree, disagree, positives, failed = cross_check(random_pair(args.seed + k, k % 2 == 1) for k in range(args.pairs))
    elapsed = time.perf_counter() - started
    per_pair_ms = 1000 * elapsed / args.pairs if args.pairs else 0.0
    print(
        f"{agree}/{args.pairs} agree ({positives} bisimilar, {positives - failed} witnesses verified and round-tripped)"
        f" in {elapsed:.1f}s ({per_pair_ms:.2f} ms per pair)"
    )
    retracked = (retrack_pair(args.seed + k) for k in range(args.pairs))
    r_agree, r_disagree, r_positives, r_failed = cross_check(pair for pair in retracked if pair is not None)
    print(f"retrack: {r_agree}/{r_agree + r_disagree} agree ({r_positives} bisimilar, {r_positives - r_failed} witnesses verified)")
    n_agree, n_disagree, n_positives, n_failed = cross_check(renamed_pair(args.seed + k) for k in range(args.pairs))
    print(f"renamed: {n_agree}/{n_agree + n_disagree} agree ({n_positives} bisimilar, {n_positives - n_failed} witnesses verified)")
    if disagree or r_disagree or n_disagree or failed or r_failed or n_failed:
        sys.exit(1)


def cross_check(pairs):
    """Compare the search with the oracle on `(pm, pn, seed)` triples and
    round-trip every witness; return (agree, disagree, positives, failed),
    `failed` counting the witnesses `witness_fault` finds at fault."""
    agree = disagree = positives = failed = 0
    for pm, pn, seed in pairs:
        verdict = bisimilar(pm, pn)
        if verdict.bisimilar == brute_force_bisim(pm, pn):
            agree += 1
        else:
            disagree += 1
            print(f"  DISAGREEMENT at seed {seed}")
        if verdict.bisimilar:
            positives += 1
            fault = witness_fault(pm, pn, verdict.witness)
            if fault:
                failed += 1
                print(f"  WITNESS FAULT at seed {seed}: {fault}")
    return agree, disagree, positives, failed


def witness_fault(pm, pn, witness):
    """What goes wrong with `witness` in the checker or through its JSON
    document and back, or None when nothing does."""
    if not check_witness(pm, pn, witness).ok:
        return "check_witness rejects it"
    text = json.dumps(witness_to_document(witness))
    restored = witness_from_document(json.loads(text))
    if not check_witness(pm, pn, restored).ok:
        return "check_witness rejects it after the round trip"
    if json.dumps(witness_to_document(restored)) != text:
        return "the round trip changes its bytes"
    return None


def random_pair(seed, mutate):
    """Two independent tiny models, or a model and its `break_child` when
    `mutate` and the model has a child, each pointed at a random world."""
    m = gen_model(GenSpec(seed=seed, **TINY))
    rng = SplitMix64(seed)
    if not mutate or not m.children:
        other = gen_model(GenSpec(seed=seed + 70_000, **TINY))
    else:
        label = rng.choice(sorted(m.children))
        other = break_child(m, label, "p", rng.choice(m.children[label].worlds))
    return PointedModel(m, rng.choice(m.worlds)), PointedModel(other, rng.choice(other.worlds)), seed


def renamed_pair(seed):
    """The tiny model of `random_pair(seed, ...)` against its
    `rename_worlds` copy, pointed at one random world and its copy."""
    m = gen_model(GenSpec(seed=seed, **TINY))
    world = SplitMix64(derive(seed, "renamed")).choice(m.worlds)
    return PointedModel(m, world), PointedModel(rename_worlds(m), "r" + world), seed


def retrack_pair(seed):
    """A tiny model with its first child under two labels, `a` tracked as
    generated and `b` at seeded random worlds, against its `retrack` at a
    random world, both pointed at one random world; None without children.
    Equal children tracked apart are what the cover search can tell from
    their swap when plain refinement cannot."""
    m = gen_model(GenSpec(seed=seed + 140_000, **TINY))
    if not m.children:
        return None
    rng = SplitMix64(derive(seed, "retrack"))
    first = sorted(m.children)[0]
    child = m.children[first]
    tracking = {w: {"a": row[first], "b": rng.choice(child.worlds)} for w, row in m.tracking.items()}
    assignment = {w: dict.fromkeys(row, "a") for w, row in m.assignment.items()}
    m = replace_model(m, children={"a": child, "b": child}, tracking=tracking, assignment=assignment)
    other = retrack(m, rng.choice(m.worlds), "a", "b")
    world = rng.choice(m.worlds)
    return PointedModel(m, world), PointedModel(other, world), seed


if __name__ == "__main__":
    main()
