#!/usr/bin/env python3
"""Check the bisimilarity decider on every ordered pointed pair of a small
scope, after the small-scope hypothesis (Jackson, *Software
Abstractions*, 2006): most faults show on some small input.

    python3 scripts/exhaustive.py

For every pair it checks that `bisimilar` equals `brute_force_bisim`
and that every witness passes `check_witness` and keeps its bytes
through `witness_to_document` and `witness_from_document`.  Over the
whole scope it checks that the verdict is symmetric and that the
decided relation is transitive.  It prints the model, pair, bisimilar
and cover-rejected counts and exits 1 on any fault.

The scope, over the proposition `p` and the constant `c`:
- every childless model with one or two worlds, up to world renaming
  (40 leaves);
- every one-world parent with no child, or with one child `a` drawn
  from the leaves, tracked at any of its worlds and named or not by
  `c` (612 models);
- every two-world parent, up to world renaming, with any relation and
  one child `a`, a two-world child with `p` at `x` only, tracked at any
  of its worlds (36 models), pointed at both worlds;
- every two-world parent `s -> s1` with two labels `a` and `b` for that
  child, tracked at any of its worlds at each parent world (16 models),
  pointed at both worlds.
A one-child parent gives G at most one pair, so only the two-child
parents reach the cover search.  Two worlds with branching relations
let a pair's successors on one side fall while the other side's stay.

A pair is cover-rejected when it is not bisimilar, yet lies in the
greatest zig/zag-closed set of pairs that agree on atoms and whose
child pairs bisimilar at tracked worlds, taken from the oracle, cover
both sides and the constants' pairs: it fell to the choice of one child
correspondence H alone.  A pair whose check raises counts as a
disagreement."""

import itertools
import pathlib
import sys
import time
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gkmc.bisim import bisimilar, brute_force_bisim
from gkmc.model import GenealogicalModel, PointedModel, to_document, validate
from oracle_agreement import witness_fault


def main():
    started = time.perf_counter()
    leaves, one_child, two_world, twins = scope()
    pointed = [PointedModel(m, w) for m in one_child + two_world + twins for w in m.worlds]
    report = check(pointed)
    elapsed = time.perf_counter() - started
    print(
        f"scope: {len(leaves)} leaves, {len(one_child)} one-world parents, {len(two_world)} two-world parents,"
        f" {len(twins)} twin-child parents; {len(pointed)} pointed models"
    )
    print(
        f"{report.pairs} ordered pairs: {report.pairs - report.disagree} agree with the oracle, {report.bisimilar} bisimilar"
        f" ({report.bisimilar - report.bad_witnesses} witnesses verified and round-tripped), {report.cover_rejected} cover-rejected"
    )
    print(f"symmetric: {report.asymmetric == 0}; transitive: {report.intransitive == 0}; {elapsed:.1f}s")
    for fault in report.faults[:20]:
        print(f"  {fault}")
    if report.faults:
        sys.exit(1)


def scope():
    """(leaves, one-world parents, two-world parents, twin-child parents),
    each in a fixed order."""
    leaves = []
    for worlds in (("x",), ("x", "y")):
        product = list(itertools.product(worlds, repeat=2))
        for edges in _subsets(product):
            for holds in _subsets(worlds):
                if len(worlds) == 1 or _canonical(edges, holds):
                    leaves.append(_model(worlds, edges, holds))
    one_child = []
    for edges in _subsets([("s", "s")]):
        for holds in _subsets(["s"]):
            one_child.append(_model(("s",), edges, holds))
            for leaf in leaves:
                for tracked in leaf.worlds:
                    for named in ({}, {"s": {"c": "a"}}):
                        one_child.append(_model(("s",), edges, holds, {"a": leaf}, named, {"s": {"a": tracked}}))
    child = _model(("x", "y"), (), ("x",))
    swap = {"s": "s1", "s1": "s"}
    two_world = [
        _model(("s", "s1"), edges, (), {"a": child}, {}, {"s": {"a": a}, "s1": {"a": a1}})
        for edges in _subsets(list(itertools.product(("s", "s1"), repeat=2)))
        for a, a1 in itertools.product(child.worlds, repeat=2)
        if (sorted(edges), a, a1) <= (sorted((swap[u], swap[v]) for u, v in edges), a1, a)
    ]
    twins = [
        _model(("s", "s1"), [("s", "s1")], (), {"a": child, "b": child}, {}, {"s": {"a": a, "b": b}, "s1": {"a": a1, "b": b1}})
        for a, b, a1, b1 in itertools.product(child.worlds, repeat=4)
    ]
    for m in leaves + one_child + two_world + twins:
        if not validate(m).verdict:
            raise ValueError(f"the scope holds an invalid model: {to_document(m)}")
    return leaves, one_child, two_world, twins


def _subsets(items):
    return [combo for k in range(len(items) + 1) for combo in itertools.combinations(items, k)]


def _canonical(edges, holds) -> bool:
    """Whether a two-world leaf is the least of itself and its x/y swap."""
    swap = {"x": "y", "y": "x"}
    key = (sorted(edges), sorted(holds))
    return key <= (sorted((swap[u], swap[v]) for u, v in edges), sorted(swap[w] for w in holds))


def _model(worlds, edges, holds, children=None, assignment=None, tracking=None) -> GenealogicalModel:
    return GenealogicalModel(tuple(worlds), frozenset(edges), {"p": frozenset(holds)}, children or {}, assignment or {}, tracking or {})


@dataclass
class Report:
    pairs: int = 0
    disagree: int = 0
    bisimilar: int = 0
    bad_witnesses: int = 0
    cover_rejected: int = 0
    asymmetric: int = 0
    intransitive: int = 0
    faults: list = field(default_factory=list)


def check(pointed: list[PointedModel]) -> Report:
    """Run every check over every ordered pair of `pointed`."""
    report = Report()
    child_verdicts: dict = {}
    related = [0] * len(pointed)  # bit j of related[i]: pointed[i] decided bisimilar to pointed[j]
    for (i, pm), (j, pn) in itertools.product(enumerate(pointed), repeat=2):
        report.pairs += 1
        try:
            verdict = bisimilar(pm, pn)
            agrees = verdict.bisimilar == brute_force_bisim(pm, pn)
            fault = verdict.bisimilar and witness_fault(pm, pn, verdict.witness)
        except Exception as error:  # a crash is this pair's fault; the other pairs still run
            report.disagree += 1
            report.faults.append(f"raised {type(error).__name__}: {error}: {_describe(pm)} vs {_describe(pn)}")
            continue
        if not agrees:
            report.disagree += 1
            report.faults.append(f"oracle disagrees with bisimilar={verdict.bisimilar}: {_describe(pm)} vs {_describe(pn)}")
        if verdict.bisimilar:
            report.bisimilar += 1
            related[i] |= 1 << j
            if fault:
                report.bad_witnesses += 1
                report.faults.append(f"{fault}: {_describe(pm)} vs {_describe(pn)}")
        elif (pm.world, pn.world) in _candidates(pm.model, pn.model, child_verdicts):
            report.cover_rejected += 1
    for i, j in itertools.product(range(len(pointed)), repeat=2):
        if related[i] >> j & 1 and not related[j] >> i & 1:
            report.asymmetric += 1
            report.faults.append(f"not symmetric: {_describe(pointed[i])} vs {_describe(pointed[j])}")
        if related[i] >> j & 1 and related[j] & ~related[i]:
            k = (related[j] & ~related[i]).bit_length() - 1
            report.intransitive += 1
            report.faults.append(f"not transitive: {_describe(pointed[i])} ~ {_describe(pointed[j])} ~ {_describe(pointed[k])}")
    return report


def _candidates(m, n, child_verdicts) -> set:
    """The greatest zig/zag-closed set of world pairs that agree on atoms
    and whose bisimilar child pairs cover both sides and the constants'."""
    def child_bisimilar(a, b, u, v):
        key = (m.children[a], n.children[b], m.tracking[u][a], n.tracking[v][b])
        if key not in child_verdicts:
            child_verdicts[key] = brute_force_bisim(PointedModel(key[0], key[2]), PointedModel(key[1], key[3]))
        return child_verdicts[key]

    def locally_ok(u, v):
        if (u in m.valuation["p"]) != (v in n.valuation["p"]):
            return False
        g = {(a, b) for a in m.children for b in n.children if child_bisimilar(a, b, u, v)}
        named = {(m.assignment.get(u, {}).get("c"), n.assignment.get(v, {}).get("c"))} - {(None, None)}
        return {a for a, _ in g} == set(m.children) and {b for _, b in g} == set(n.children) and named <= g

    alive = {(u, v) for u in m.worlds for v in n.worlds if locally_ok(u, v)}
    while True:
        kept = {
            (u, v) for (u, v) in alive
            if all(any((u2, v2) in alive for (v1, v2) in n.relation if v1 == v) for (u1, u2) in m.relation if u1 == u)
            and all(any((u2, v2) in alive for (u1, u2) in m.relation if u1 == u) for (v1, v2) in n.relation if v1 == v)
        }
        if kept == alive:
            return alive
        alive = kept


def _describe(pm: PointedModel) -> str:
    return f"{to_document(pm.model)} at {pm.world}"


if __name__ == "__main__":
    main()
