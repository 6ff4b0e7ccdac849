"""Seeded deterministic generators and mutations for the property suites.

Randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit mixer),
chosen because it is trivially portable across languages and splittable:
substreams are derived by hashing a parent seed with FNV-1a over token
strings, so sibling subtrees draw from independent streams and inserting
a draw in one subtree never perturbs another.  Reference outputs for
seed 0 are frozen in the tests (first draw 0xE220A8397B1DCDAF).

Draw order within one model node is fixed and documented by the code
order in `_gen_model`; changing it is a compatibility break for frozen
expected values.
"""

from __future__ import annotations

from .model import GenealogicalModel, replace_model, rt_closure, CLOSURE_NONE, CLOSURE_RT
from .syntax import (
    And,
    Box,
    Forall,
    Formula,
    FormulaVar,
    Not,
    Prop,
    QueryConst,
    QueryVar,
    Record,
    Top,
    Vocabulary,
    Xi,
    _FORMULA_VARS,
    _MODEL_VARS,
    _set,
    bot,
    diamond,
    exists,
)

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random stream over a 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def chance(self, p: float) -> bool:
        return self.next_u64() < p * 2.0**64

    def choice(self, seq):
        return seq[self.below(len(seq))]


def derive(seed: int, *tokens) -> int:
    """Child-stream seed: FNV-1a of the tokens' text, folded into the seed."""
    h = 0xCBF29CE484222325
    for token in tokens:
        for byte in str(token).encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK
    return SplitMix64(seed ^ h).next_u64()


_PROPS = ("p", "q", "r", "s")
_CONSTS = ("c", "d", "e")


def _names(pool, count, prefix):
    return [pool[k] if k < len(pool) else f"{prefix}{k}" for k in range(count)]


class GenSpec(Record):
    """Shape parameters for random model generation; output is a pure
    function of the whole spec."""

    __slots__ = __match_args__ = ("seed", "max_worlds", "max_children", "max_depth", "prop_count", "constant_count", "closure", "edge_density")

    def __init__(self, seed: int, max_worlds: int = 4, max_children: int = 2, max_depth: int = 2, prop_count: int = 1,
                 constant_count: int = 1, closure: str = CLOSURE_NONE, edge_density: float = 0.3):
        _set(self, "seed", seed)
        _set(self, "max_worlds", max_worlds)
        _set(self, "max_children", max_children)
        _set(self, "max_depth", max_depth)
        _set(self, "prop_count", prop_count)
        _set(self, "constant_count", constant_count)
        _set(self, "closure", closure)
        _set(self, "edge_density", edge_density)


def gen_model(spec: GenSpec) -> GenealogicalModel:
    """A valid random model, deterministic in the spec, depth <= max_depth."""
    if spec.closure not in (CLOSURE_NONE, CLOSURE_RT):
        raise ValueError(f"unknown closure flag {spec.closure!r}")
    for name in ("max_worlds", "max_children", "max_depth", "prop_count", "constant_count"):
        least = 1 if name == "max_worlds" else 0
        if getattr(spec, name) < least:
            raise ValueError(f"{name} must be at least {least}, not {getattr(spec, name)!r}")
    if not 0 <= spec.edge_density <= 1:  # NaN fails every comparison
        raise ValueError(f"edge density {spec.edge_density!r} is not in [0, 1]")
    props = _names(_PROPS, spec.prop_count, "p")
    consts = _names(_CONSTS, spec.constant_count, "c")
    return _gen_model(spec, spec.seed, spec.max_depth, props, consts)


def _gen_model(spec, seed, depth_left, props, consts) -> GenealogicalModel:
    rng = SplitMix64(seed)
    worlds = tuple(f"s{k}" for k in range(1 + rng.below(spec.max_worlds)))

    relation = set()
    for a in worlds:
        for b in worlds:
            if rng.chance(spec.edge_density):
                relation.add((a, b))
    if spec.closure == CLOSURE_RT:
        relation = rt_closure(relation, worlds)

    valuation = {}
    for prop in props:
        member = [w for w in worlds if rng.chance(0.5)]
        valuation[prop] = frozenset(member)

    n_children = rng.below(spec.max_children + 1) if depth_left > 0 else 0
    children = {
        f"n{k}": _gen_model(spec, derive(seed, "child", k), depth_left - 1, props, consts)
        for k in range(n_children)
    }

    tracking = {}
    if children:
        for w in worlds:
            tracking[w] = {label: rng.choice(child.worlds) for label, child in children.items()}

    assignment = {}
    if children:
        labels = list(children)
        for w in worlds:
            row = {}
            for const in consts:
                if rng.chance(0.5):
                    row[const] = rng.choice(labels)
            if row:
                assignment[w] = row

    return GenealogicalModel(
        worlds=worlds,
        relation=frozenset(relation),
        valuation=valuation,
        children=children,
        assignment=assignment,
        tracking=tracking,
    )


# --------------------------------------------------------------------------
# Mutations


def _fresh_label(m: GenealogicalModel, base: str) -> str:
    k = 1
    label = f"{base}_dup"
    while label in m.children:
        k += 1
        label = f"{base}_dup{k}"
    return label


def dup_child(m: GenealogicalModel, label: str) -> GenealogicalModel:
    """Copy the child under a fresh label, replicating its tracking rows.

    The result is bisimilar to the original at every world: the copy can
    always pair with the original in a child correspondence.
    """
    if label not in m.children:
        raise ValueError(f"unknown child label {label!r}")
    fresh = _fresh_label(m, label)
    tracking = {w: {**row, fresh: row[label]} for w, row in m.tracking.items()}
    return replace_model(m, children={**m.children, fresh: m.children[label]}, tracking=tracking)


def break_child(m: GenealogicalModel, label: str, prop: str, world: str) -> GenealogicalModel:
    """Flip one proposition at one world of one child; applying it twice
    restores the original.  Generically bisimilarity-breaking, though flips
    at worlds no tracking or relation path can observe may preserve it."""
    if label not in m.children:
        raise ValueError(f"unknown child label {label!r}")
    child = m.children[label]
    if world not in child.worlds:
        raise ValueError(f"unknown world {world!r} in child {label!r}")
    member = child.valuation.get(prop, frozenset())
    flipped = member - {world} if world in member else member | {world}
    new_child = replace_model(child, valuation={**child.valuation, prop: flipped})
    return replace_model(m, children={**m.children, label: new_child})


def retrack(m: GenealogicalModel, world: str, a: str, b: str) -> GenealogicalModel:
    """Swap the tracked worlds of children `a` and `b` at `world`; applying
    it twice restores the original."""
    if world not in m.worlds or a not in m.children or b not in m.children:
        raise ValueError(f"no children {a!r} and {b!r} at world {world!r}")
    row = m.tracking[world]
    if row[b] not in m.children[a].worlds or row[a] not in m.children[b].worlds:
        raise ValueError(f"children {a!r} and {b!r} cannot trade tracked worlds at {world!r}")
    return replace_model(m, tracking={**m.tracking, world: {**row, a: row[b], b: row[a]}})


def rename_worlds(m: GenealogicalModel) -> GenealogicalModel:
    """Copy `m` with every world `w` of every generation renamed `rw`.
    The copy is bisimilar to `m` at each renamed world, but no submodel
    of it has the structure of the one it copies, so reflexivity cannot
    answer the pair and the cover search must."""
    return GenealogicalModel(
        tuple("r" + w for w in m.worlds),
        frozenset(("r" + u, "r" + v) for u, v in m.relation),
        {p: frozenset("r" + w for w in ws) for p, ws in m.valuation.items()},
        {label: rename_worlds(child) for label, child in m.children.items()},
        {"r" + w: row for w, row in m.assignment.items()},
        {"r" + w: {a: "r" + v for a, v in row.items()} for w, row in m.tracking.items()},
    )


# --------------------------------------------------------------------------
# Formula and sentence generation

def gen_sentence(seed: int, vocab: Vocabulary, max_connectives: int = 6, allow_xi: bool = True) -> Formula:
    """A random sentence: closed, every xi subformula closed, query bodies
    free of model variables.  Deterministic in the arguments."""
    rng = SplitMix64(seed)
    props = sorted(vocab.props)
    consts = sorted(vocab.constants)

    # mv: forall-bound names usable as query terms here; ok: formula
    # variables already guarded by a query under their binder; pending:
    # bound by xi but not yet usable.
    def go(budget, mv, ok, pending):
        atoms = [Top(), bot()] + [Prop(p) for p in props] + [FormulaVar(X) for X in sorted(ok)]
        if budget == 0 or rng.chance(0.15):
            return rng.choice(atoms)
        choices = ["not", "and", "box", "diamond", "forall", "exists"]
        if allow_xi and len(pending) + len(ok) < len(_FORMULA_VARS):
            choices.append("xi")
        if consts or mv:
            choices.extend(["query", "query"])
        kind = rng.choice(choices)
        if kind == "not":
            return Not(go(budget - 1, mv, ok, pending))
        if kind == "and":
            half = budget - 1
            return And(
                go(half // 2, mv, ok, pending),
                go(half - half // 2, mv, ok, pending),
            )
        if kind == "box":
            return Box(go(budget - 1, mv, ok, pending))
        if kind == "diamond":
            return diamond(go(budget - 1, mv, ok, pending))
        if kind in ("forall", "exists"):
            var = _MODEL_VARS[len(mv) % len(_MODEL_VARS)]
            body = go(budget - 1, mv + (var,), ok, pending)
            return Forall(var, body) if kind == "forall" else exists(var, body)
        if kind == "xi":
            var = _FORMULA_VARS[(len(pending) + len(ok)) % len(_FORMULA_VARS)]
            # xi bodies must be closed on their own, so visible bindings reset
            return Xi(var, go(budget - 1, (), frozenset(), frozenset((var,))))
        body = go(budget - 1, (), ok | pending, frozenset())
        terms = list(consts)
        var_terms = list(mv)
        if var_terms and (not terms or rng.chance(0.5)):
            return QueryVar(body, rng.choice(var_terms))
        return QueryConst(body, rng.choice(terms))

    return go(max_connectives, (), frozenset(), frozenset())
