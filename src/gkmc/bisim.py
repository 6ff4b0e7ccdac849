"""Bisimilarity of pointed genealogical Kripke models.

A bisimulation between two pointed models is a world-pair relation Z
together with a per-pair child correspondence f mapping each Z pair to a
set of child pairs, such that: the queried pair is in Z; related worlds
agree on all propositions; f((u,v)) covers every child on both sides;
every f-related child pair is itself bisimilar at its tracked worlds;
constants are either undefined on both sides or point to bisimilar
children at tracked worlds; and the usual zig/zag transfer holds with f
monotone along it, f((u,v)) being a subset of the successor pair's value.
A constant f ≡ H is always enough, as shown below, so a witness stores
the pair (Z, H).

The decision procedure works bottom-up by generation: child pointed
bisimilarity is decided first (memoized), giving for every world pair the
set G(u,v) of child pairs bisimilar at tracked worlds.  Call (u,v) locally
ok when it passes the atom and constant clauses and G(u,v) is surjective.
Then (s,t) is bisimilar iff, for some surjective H ⊆ G(s,t), (s,t) lies
in the fixpoint of H: the greatest zig/zag-closed set of locally ok pairs
q with H ⊆ G(q).  If: that set with f ≡ H is a bisimulation, a constant
f being monotone; it is the witness returned.  Only if: given (Z, f),
answer every zig/zag step from (s,t) with a monotone response in Z.  f
only grows along the way, so each pair q reached has f(s,t) ⊆ f(q) ⊆
G(q), and the reached pairs lie in the fixpoint of H = f(s,t).

Candidate sets are zig/zag-closed and agree on atoms, so lie in P, plain
bisimilarity (atoms, zig/zag).  Each `bisimilar` call builds a context
that computes P on construction by partition refinement (Kanellakis &
Smolka 1990) over the disjoint union of the distinct frames (worlds,
relation, valuation on the vocabulary's props) of both input trees.  A
world's class depends on its atoms and the worlds it reaches alone, so
on its frame: models of one frame share one class map, and P on two
components of the union is P between them.  So `decide` answers False
at once for a pair outside P, building no level, the one table per model
pair that holds G, the candidates, the fixpoints and each world pair's
cover and each cover's witness.  A level makes child decisions only at
pairs in P: P ∩ L and L, the locally ok pairs, share their greatest
zig/zag-closed subset.

Bisimilarity is reflexive, and `decide` answers by reflexivity, before
any level, a pair of models that are one structure at one world.  Call
m and n one structure when their worlds, relation, valuation, assignment
and tracking are equal, their child labels are the same in the same
order and their children are pairwise one structure.  Then (m, w) and
(n, w) are bisimilar at every world w, with Z the diagonal and H the
identity on labels: each (u, u) agrees on atoms and constants, H is
surjective and holds the constants' pairs (a, a), a step on one side is
answered by the same step on the other, and each child pair (a, a) at
its tracked worlds (u', u') is again one structure at one world, which
by induction on generations has its own such witness.  That witness
reads m alone, not n nor w, so structurally equal models share it: the
context builds one identity witness per model and gives it to every
pair the shortcut answers.  The structure test is lazy, made only where
a level would otherwise be built, memoized per model pair, and spends no
node of the budget.

The search grows H from the empty set by a pair of G(s,t) reaching the
first label H misses, and drops a branch once (s,t) leaves H's fixpoint,
which only shrinks as H grows.  It is complete: given a surjective H*
that works, the branch that always adds a pair of H* stays inside H*,
so its fixpoints hold that of H* and (s,t), and it ends at a surjective
subset of H*, minimal or not, which is all the witness needs.  A search
node, one fixpoint test, costs one unit of the node budget, which the
context counts; exceeding it raises instead of returning a wrong
verdict.  `brute_force_bisim`, an independent oracle for tiny inputs,
enumerates relations Z and functions f and shares no code with the search.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .model import GenealogicalModel, PointedModel, depth, model_vocabulary
from .syntax import Record, Vocabulary

DEFAULT_BUDGET = 500_000


class BudgetExceededError(RuntimeError):
    """Search cutoff reached; the answer is unknown, not 'no'."""


class OracleSizeError(ValueError):
    """Inputs exceed the brute-force oracle's size guard."""


class BisimWitness(Record):
    """The bisimulation (Z, f ≡ H): the world pairs Z, the child pairs H
    and one child witness per child pair at tracked worlds, keyed
    `(left label, right label, left world, right world)` in
    `child_witnesses`.  It hashes by identity, so a witness DAG indexes
    its shared nodes."""

    __slots__ = __match_args__ = ("z", "h", "child_witnesses")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class BisimVerdict(Record):
    """Whether the pair is bisimilar and, if so, a `BisimWitness`."""

    __slots__ = __match_args__ = ("bisimilar", "witness")


class WitnessReport(Record):
    """Whether a witness checks out; `failures` holds (clause tag, message) pairs."""

    __slots__ = __match_args__ = ("ok", "failures")


def _successors(m: GenealogicalModel) -> dict[str, tuple[str, ...]]:
    table: dict[str, list[str]] = {w: [] for w in m.worlds}
    for a, b in sorted(m.relation):
        table[a].append(b)
    return {w: tuple(ts) for w, ts in table.items()}


class _PairLevel:
    """Everything known about one (left model, right model) pair: G per
    world pair, the candidate pairs, the fixpoint of each H tried, the
    witness of each H found and the cover of each world pair decided."""

    def __init__(self, ctx, m, n):
        self.ctx = ctx
        self.m = m
        self.n = n
        self.labels_m = tuple(m.children)
        self.labels_n = tuple(n.children)
        self.g: dict[tuple[str, str], frozenset] = {}
        cls_m, cls_n = ctx.classes[m], ctx.classes[n]
        bucket: dict[int, list[str]] = {}
        for v in n.worlds:
            bucket.setdefault(cls_n[v], []).append(v)
        # The greatest zig/zag-closed set of locally ok pairs: every
        # bisimulation's Z lies inside it, whatever its f.
        self.candidates = self._refine({(u, v) for u in m.worlds for v in bucket.get(cls_m[u], ()) if self._local_ok(u, v)})
        self.fixpoints: dict[frozenset, frozenset] = {}
        self.witnesses: dict[frozenset, BisimWitness] = {}
        self.covers: dict[tuple[str, str], Optional[frozenset]] = {}

    def _local_ok(self, u, v) -> bool:
        """G(u,v) is surjective and holds the constants' pairs.  The cover
        search would reject a non-surjective G too, but only by spending
        budget, so this prune answers such a pair even at budget 0."""
        m, n = self.m, self.n
        g = self.g[(u, v)] = frozenset(
            (a, b)
            for a in self.labels_m
            for b in self.labels_n
            if self.ctx.decide(m.children[a], n.children[b], m.tracking[u][a], n.tracking[v][b])
        )
        return _surjective(g, self.labels_m, self.labels_n) and _constant_pairs(m, n, u, v, self.ctx.vocab) <= g

    def fixpoint(self, h: frozenset) -> frozenset:
        """The greatest zig/zag-closed set of candidate pairs q with h ⊆ G(q)."""
        got = self.fixpoints.get(h)
        if got is None:
            alive = {q for q in self.candidates if h <= self.g[q]}
            # The candidates are closed already, so only a drop calls for refinement.
            got = self.candidates if len(alive) == len(self.candidates) else self._refine(alive)
            self.fixpoints[h] = got
        return got

    def _refine(self, alive: set) -> frozenset:
        """Shrink `alive` to its greatest subset closed under plain zig/zag."""
        succ_m, succ_n = self.ctx.succ[self.m], self.ctx.succ[self.n]
        changed = True
        while changed:
            changed = False
            for (u, v) in list(alive):
                if not (
                    all(any((u2, v2) in alive for v2 in succ_n[v]) for u2 in succ_m[u])
                    and all(any((u2, v2) in alive for u2 in succ_m[u]) for v2 in succ_n[v])
                ):
                    alive.discard((u, v))
                    changed = True
        return frozenset(alive)

    def cover(self, s, t) -> Optional[frozenset]:
        """The first surjective H ⊆ G(s,t) whose fixpoint contains (s, t),
        or None.  Grow H one pair of G(s,t) at a time, each reaching the
        first label H misses, and drop a branch once (s, t) leaves H's
        fixpoint.  G is known at every pair of one plain class."""
        if (s, t) not in self.covers:
            ctx, g = self.ctx, sorted(self.g[s, t])
            ends = [(0, a) for a in self.labels_m] + [(1, b) for b in self.labels_n]

            def grow(h):
                ctx.nodes += 1
                if ctx.nodes > ctx.budget:
                    raise BudgetExceededError("bisimulation search budget exhausted")
                if (s, t) not in self.fixpoint(h):
                    return None
                missed = next(((side, label) for side, label in ends if all(p[side] != label for p in h)), None)
                if missed is None:
                    return h
                side, label = missed
                found = (grow(h | {p}) for p in g if p[side] == label)
                return next((got for got in found if got is not None), None)

            self.covers[s, t] = grow(frozenset()) if (s, t) in self.candidates else None
        return self.covers[s, t]

    def witness(self, h: frozenset) -> BisimWitness:
        """The witness of cover `h`, shared by every pair of this level it
        covers: Z is H's fixpoint.  Each q in Z is a candidate with H ⊆
        G(q) holding its constants' pairs, so every child pair below was
        decided bisimilar and has a witness."""
        got = self.witnesses.get(h)
        if got is None:
            m, n, ctx = self.m, self.n, self.ctx
            z = self.fixpoint(h)
            child_witnesses = {}
            for (u, v) in z:
                for a, b in h | _constant_pairs(m, n, u, v, ctx.vocab):
                    wa, wb = m.tracking[u][a], n.tracking[v][b]
                    child_witnesses[a, b, wa, wb] = ctx.witness(m.children[a], n.children[b], wa, wb)
            got = self.witnesses[h] = BisimWitness(z, h, child_witnesses)
        return got


def _surjective(pairs, labels_m, labels_n) -> bool:
    return (
        {a for a, _ in pairs} == set(labels_m)
        and {b for _, b in pairs} == set(labels_n)
    )


def _constant_pairs(m, n, u, v, vocab) -> set:
    """The child pairs the constants name at (u, v).  A constant defined on
    one side only gives a pair holding None, which no G contains."""
    pairs = {(m.assignment.get(u, {}).get(c), n.assignment.get(v, {}).get(c)) for c in vocab.constants}
    return pairs - {(None, None)}


class _Ctx:
    def __init__(self, vocab: Vocabulary, budget: int, *roots: GenealogicalModel):
        self.vocab = vocab
        self.budget = budget
        self.nodes = 0
        # Keyed by the model objects, which hash by identity.
        self.levels: dict[tuple[GenealogicalModel, GenealogicalModel], _PairLevel] = {}
        self.equal: dict[tuple[GenealogicalModel, GenealogicalModel], bool] = {}
        self.identities: dict[GenealogicalModel, BisimWitness] = {}
        # Per model under `roots`: its successor table and each world's
        # plain-bisimilarity class, ids shared by all.  Both read only its
        # frame (worlds, relation, valuation on `vocab.props`), which keys
        # them.  Split every (frame, world) by atoms, then by class and
        # successors' classes, until the class count stops growing.
        self.succ: dict[GenealogicalModel, dict[str, tuple[str, ...]]] = {}
        self.classes: dict[GenealogicalModel, dict[str, int]] = {}
        props = sorted(vocab.props)
        frames: dict[tuple, GenealogicalModel] = {}  # frame -> its first model
        todo = list(roots)
        while todo:
            m = todo.pop()
            if m not in self.classes:
                first = frames.setdefault((m.worlds, m.relation, *[m.valuation.get(p) or () for p in props]), m)
                self.succ[m] = _successors(m) if first is m else self.succ[first]
                self.classes[m] = {} if first is m else self.classes[first]
                todo.extend(m.children.values())
        nodes = [(m, w) for m in frames.values() for w in m.worlds]
        index = {node: k for k, node in enumerate(nodes)}
        succ = [[index[m, w2] for w2 in self.succ[m][w]] for m, w in nodes]
        ids: dict = {}
        cls = [ids.setdefault(tuple(w in m.valuation.get(p, ()) for p in props), len(ids)) for m, w in nodes]
        count = 0
        while len(ids) > count:
            count, ids, prev = len(ids), {}, cls
            cls = [ids.setdefault((c, frozenset(map(prev.__getitem__, ts))), len(ids)) for c, ts in zip(prev, succ)]
        for (m, w), c in zip(nodes, cls):
            self.classes[m][w] = c

    def decide(self, m, n, s, t) -> bool:
        """Whether (m, s) and (n, t) are bisimilar.  At once when they are
        not plainly bisimilar, or when they are one structure at one world;
        else whether the level of (m, n) finds a cover of (s, t)."""
        if self.classes[m][s] != self.classes[n][t]:
            return False
        if s == t and self._equal(m, n):
            return True
        level = self.levels.get((m, n))
        if level is None:
            level = self.levels[m, n] = _PairLevel(self, m, n)
        return level.cover(s, t) is not None

    def witness(self, m, n, s, t) -> BisimWitness:
        """The witness of a pair `decide` found bisimilar."""
        if s == t and self._equal(m, n):
            return self._identity(m)
        level = self.levels[m, n]
        return level.witness(level.cover(s, t))

    def _equal(self, m, n) -> bool:
        """Whether m and n are one structure: equal worlds, relation,
        valuation, assignment and tracking, the same child labels in the
        same order, and children pairwise one structure.  Memoized per
        pair; each pair's children are settled before the pair."""
        memo = self.equal
        got = memo.get((m, n))
        if got is not None:
            return got
        stack = [(m, n, False)]
        while stack:
            a, b, expanded = stack.pop()
            if expanded:
                memo[a, b] = all(memo[pair] for pair in zip(a.children.values(), b.children.values()))
            elif (a, b) not in memo:
                # Overwritten by the expanded entry before any parent reads it.
                memo[a, b] = a is b
                if a is not b and (
                    a.worlds == b.worlds
                    and a.relation == b.relation
                    and a.valuation == b.valuation
                    and a.assignment == b.assignment
                    and a.tracking == b.tracking
                    and list(a.children) == list(b.children)
                ):
                    stack.append((a, b, True))
                    stack.extend((ca, cb, False) for ca, cb in zip(a.children.values(), b.children.values()))
        return memo[m, n]

    def _identity(self, m) -> BisimWitness:
        """The identity witness of m, built once per model: Z the
        diagonal, H the identity on child labels and each (a, a, w, w)
        pointing to child a's identity witness."""
        built = self.identities
        stack = [m]
        while stack:
            c = stack[-1]
            pending = [child for child in c.children.values() if child not in built]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if c not in built:
                built[c] = BisimWitness(
                    frozenset((w, w) for w in c.worlds),
                    frozenset((a, a) for a in c.children),
                    {(a, a, w, w): built[c.children[a]] for row in c.tracking.values() for a, w in row.items()},
                )
        return built[m]


def bisimilar(
    pm: PointedModel,
    pn: PointedModel,
    vocab: Optional[Vocabulary] = None,
    budget: int = DEFAULT_BUDGET,
) -> BisimVerdict:
    """Decide bisimilarity; when true, the verdict carries a witness that
    `check_witness` accepts.  Raises `BudgetExceededError` on cutoff rather
    than guessing, and `ValueError` on a budget that is not an `int` >= 0."""
    if not isinstance(budget, int) or budget < 0:
        raise ValueError(f"the bisimulation budget must be a non-negative int, not {budget!r}")
    if vocab is None:
        vocab = model_vocabulary(pm.model, pn.model)
    m, n, s, t = pm.model, pn.model, pm.world, pn.world
    # Pointed worlds that disagree on an atom need no context.
    if any((s in m.valuation.get(p, ())) != (t in n.valuation.get(p, ())) for p in vocab.props):
        return BisimVerdict(False, None)
    ctx = _Ctx(vocab, budget, m, n)
    if not ctx.decide(m, n, s, t):
        return BisimVerdict(False, None)
    return BisimVerdict(True, ctx.witness(m, n, s, t))


# --------------------------------------------------------------------------
# Witness verification


def check_witness(
    pm: PointedModel,
    pn: PointedModel,
    witness: BisimWitness,
    vocab: Optional[Vocabulary] = None,
) -> WitnessReport:
    """Mechanically verify every clause of the bisimulation (Z, f ≡ H) of
    a candidate witness and of its child witnesses.  A witness object is
    checked once per call and pair of models it serves, so its failures
    are reported once; each reference to it checks only that its pointed
    pair lies in its Z.  The witness DAG is walked depth first with a
    stack of `_check_into` generators, so its depth needs no Python frames."""
    if witness is None:
        return WitnessReport(False, (("pointed-pair", "missing witness"),))
    if vocab is None:
        vocab = model_vocabulary(pm.model, pn.model)
    call = _CheckCall(sorted(vocab.props), sorted(vocab.constants), {}, [])
    done = set()  # the (m, n, witness) triples checked
    stack = [iter([(pm.model, pn.model, pm.world, pn.world, witness, "")])]
    while stack:
        reference = next(stack[-1], None)
        if reference is None:
            stack.pop()
            continue
        m, n, s, t, w, where = reference
        if (s, t) not in w.z:
            call.failures.append(("pointed-pair", f"{where}({s}, {t}) not in Z"))
        if (m, n, w) not in done:
            done.add((m, n, w))
            stack.append(_check_into(m, n, w, where, call))
    return WitnessReport(not call.failures, tuple(call.failures))


class _CheckCall(Record):
    """One `check_witness` call: the props and constants, sorted once, each
    model's successor table, built once, and the failures."""

    __slots__ = __match_args__ = ("props", "constants", "succ", "failures")


def _check_into(m, n, w, where, call):
    """Check `w`'s own clauses for (m, n), then yield the reference to each
    child witness in key order; a missing one fails when its turn comes,
    after the subtrees of the keys before it."""
    def fail(tag, message):
        call.failures.append((tag, f"{where}{message}"))

    succ_m = call.succ.get(m) or call.succ.setdefault(m, _successors(m))
    succ_n = call.succ.get(n) or call.succ.setdefault(n, _successors(n))
    labels_m, labels_n = set(m.children), set(n.children)
    worlds_m, worlds_n = set(m.worlds), set(n.worlds)

    known = w.h & set(itertools.product(labels_m, labels_n))
    for a, b in sorted(w.h - known):
        fail("children", f"H mentions unknown child pair ({a}, {b})")
    if {a for a, _ in known} != labels_m:
        fail("surjective-left", "H misses a left child")
    if {b for _, b in known} != labels_n:
        fail("surjective-right", "H misses a right child")
    # (a, b, wa, wb) -> the clause its child witness serves, first one met
    used: dict[tuple[str, str, str, str], str] = {}
    for (u, v) in sorted(w.z):
        if u not in worlds_m or v not in worlds_n:
            fail("pointed-pair", f"({u}, {v}) is not a world pair")
            continue
        for p in call.props:
            if (u in m.valuation.get(p, frozenset())) != (v in n.valuation.get(p, frozenset())):
                fail("atoms", f"({u}, {v}) disagree on {p!r}")
        for a, b in known:
            used.setdefault((a, b, m.tracking[u][a], n.tracking[v][b]), "children")
        for c in call.constants:
            ca = m.assignment.get(u, {}).get(c)
            cb = n.assignment.get(v, {}).get(c)
            if (ca is None) != (cb is None):
                fail("constants", f"constant {c!r} defined on one side only at ({u}, {v})")
            elif ca is not None:
                used.setdefault((ca, cb, m.tracking[u][ca], n.tracking[v][cb]), "constants")
        for u2 in succ_m[u]:
            if not any((u2, v2) in w.z for v2 in succ_n[v]):
                fail("zig", f"no response in Z for {u} -> {u2} from ({u}, {v})")
        for v2 in succ_n[v]:
            if not any((u2, v2) in w.z for u2 in succ_m[u]):
                fail("zag", f"no response in Z for {v} -> {v2} from ({u}, {v})")
    for (a, b, wa, wb), tag in sorted(used.items()):
        child = w.child_witnesses.get((a, b, wa, wb))
        if child is None:
            fail(tag, f"missing child witness for ({a}, {b}) at ({wa}, {wb})")
        else:
            yield m.children[a], n.children[b], wa, wb, child, f"{where}{a}|{b}|{wa}|{wb}: "


# --------------------------------------------------------------------------
# Witness serialization


def witness_to_document(w: BisimWitness) -> dict:
    """The witness DAG as one table `{"witnesses": [entry, ...]}`: each
    distinct witness object once, children before parents, the root last.
    An entry is `{"z": [[u, v], ...], "h": [[a, b], ...], "children":
    [[a, b, wa, wb, i], ...]}`, `i` being an earlier entry's index.
    Entries are numbered in post-order over sorted child keys and every
    list is sorted, so output is bit-stable."""
    index: dict[BisimWitness, int] = {}
    stack = [(w, iter(sorted(w.child_witnesses.items())))]
    while stack:
        node, pending = stack[-1]
        child = next((c for _, c in pending if c not in index), None)
        if child is None:
            stack.pop()
            index[node] = len(index)
        elif any(child is open_node for open_node, _ in stack):
            raise ValueError("a witness cannot contain itself")
        else:
            stack.append((child, iter(sorted(child.child_witnesses.items()))))
    return {"witnesses": [
        {
            "z": [list(pair) for pair in sorted(node.z)],
            "h": [list(pair) for pair in sorted(node.h)],
            "children": [[*key, index[c]] for key, c in sorted(node.child_witnesses.items())],
        }
        for node in index
    ]}


def witness_from_document(doc: dict) -> BisimWitness:
    """Read `witness_to_document`'s table in one forward pass and return
    its last entry.  Each entry becomes one object, so shared sub-witnesses
    come back shared.  A document of any other shape, an entry whose keys
    are not exactly z, h and children, a pair or child key that is not an
    array of strings, a child index that is not an earlier entry, or an
    empty table raises `ValueError`, so no cycle can be written down."""
    if type(doc) is not dict or doc.keys() != {"witnesses"}:
        raise ValueError("a witness table must be an object with the one key witnesses")
    built: list[BisimWitness] = []
    try:
        for entry in doc["witnesses"]:
            if type(entry) is not dict or entry.keys() != {"z", "h", "children"}:
                raise ValueError("a witness entry must have exactly the keys z, h and children")
            children = {}
            for *key, i in entry["children"]:
                if type(i) is not int or not 0 <= i < len(built):
                    raise ValueError(f"child witness index {i!r} is not an earlier entry")
                children[_names(key, 4)] = built[i]
            z = frozenset(_names(pair, 2) for pair in entry["z"])
            built.append(BisimWitness(z, frozenset(_names(pair, 2) for pair in entry["h"]), children))
    except (KeyError, TypeError) as error:
        raise ValueError(f"not a witness table: {error}") from None
    if not built:
        raise ValueError("empty witness table")
    return built[-1]


def _names(row, width: int) -> tuple:
    """`row` as a tuple, if it is an array of `width` strings."""
    if type(row) is not list or len(row) != width or not all(type(name) is str for name in row):
        raise ValueError(f"{row!r} is not an array of {width} strings")
    return tuple(row)


# --------------------------------------------------------------------------
# Brute-force oracle


def brute_force_bisim(
    pm: PointedModel,
    pn: PointedModel,
    vocab: Optional[Vocabulary] = None,
) -> bool:
    """Literal enumeration of (Z, f) per the definition; tiny inputs only.

    Child bisimilarity is decided by recursive brute force, never by the
    search procedure above, so the two sides stay independent.
    """
    m, n = pm.model, pn.model
    if len(m.worlds) * len(n.worlds) > 12:
        raise OracleSizeError("world-pair count exceeds oracle guard (12)")
    for side in (m, n):
        if depth(side) > 2:
            raise OracleSizeError("depth exceeds oracle guard (2)")
        stack = [side]
        while stack:
            node = stack.pop()
            if len(node.children) > 2:
                raise OracleSizeError("child count exceeds oracle guard (2)")
            stack.extend(node.children.values())
    if vocab is None:
        vocab = model_vocabulary(m, n)
    memo: dict[tuple[GenealogicalModel, GenealogicalModel, str, str], bool] = {}
    return _bf_decide(m, n, pm.world, pn.world, vocab, memo)


def _bf_decide(m, n, s, t, vocab, memo) -> bool:
    key = (m, n, s, t)
    got = memo.get(key)
    if got is not None:
        return got
    memo[key] = result = _bf_search(m, n, s, t, vocab, memo)
    return result


def _bf_search(m, n, s, t, vocab, memo) -> bool:
    labels_m, labels_n = tuple(m.children), tuple(n.children)
    succ_m = {u: [u2 for (u1, u2) in m.relation if u1 == u] for u in m.worlds}
    succ_n = {v: [v2 for (v1, v2) in n.relation if v1 == v] for v in n.worlds}

    g = {}
    ok_pairs = []
    for u in m.worlds:
        for v in n.worlds:
            if any((u in m.valuation.get(p, frozenset())) != (v in n.valuation.get(p, frozenset()))
                   for p in vocab.props):
                continue  # atom clause can never hold for this pair
            table = frozenset(
                (a, b)
                for a in labels_m
                for b in labels_n
                if _bf_decide(m.children[a], n.children[b],
                              m.tracking[u][a], n.tracking[v][b], vocab, memo)
            )
            if not _bf_onto(table, labels_m, labels_n):
                continue  # no f value below the child clause can cover both sides
            constants_ok = True
            for c in vocab.constants:
                a = m.assignment.get(u, {}).get(c)
                b = n.assignment.get(v, {}).get(c)
                if (a is None) != (b is None) or (a is not None and (a, b) not in table):
                    constants_ok = False
                    break
            if not constants_ok:
                continue
            g[(u, v)] = table
            ok_pairs.append((u, v))

    if (s, t) not in g:
        return False

    values = {}
    for pair in ok_pairs:
        table = sorted(g[pair])
        pair_values = []
        for mask in range(1 << len(table)):
            subset = frozenset(table[k] for k in range(len(table)) if mask >> k & 1)
            if _bf_onto(subset, labels_m, labels_n):
                pair_values.append(subset)
        values[pair] = pair_values

    others = [pair for pair in ok_pairs if pair != (s, t)]
    for size in range(len(others) + 1):
        for extra in itertools.combinations(others, size):
            z = {(s, t), *extra}
            if not _bf_zigzag_membership(z, succ_m, succ_n):
                continue
            if _bf_assign(sorted(z), 0, {}, z, values, succ_m, succ_n):
                return True
    return False


def _bf_onto(pairs, labels_m, labels_n) -> bool:
    """Every left child and every right child occurs in some pair."""
    return all(any(a == x for x, _ in pairs) for a in labels_m) and all(any(b == y for _, y in pairs) for b in labels_n)


def _bf_zigzag_membership(z, succ_m, succ_n) -> bool:
    for (u, v) in z:
        for u2 in succ_m[u]:
            if not any((u2, v2) in z for v2 in succ_n[v]):
                return False
        for v2 in succ_n[v]:
            if not any((u2, v2) in z for u2 in succ_m[u]):
                return False
    return True


def _bf_assign(pairs, k, chosen, z, values, succ_m, succ_n) -> bool:
    if k == len(pairs):
        return _bf_monotone(chosen, z, succ_m, succ_n, partial=False)
    pair = pairs[k]
    for value in values[pair]:
        chosen[pair] = value
        if _bf_monotone(chosen, z, succ_m, succ_n, partial=True) and _bf_assign(
            pairs, k + 1, chosen, z, values, succ_m, succ_n
        ):
            return True
        del chosen[pair]
    return False


def _bf_monotone(chosen, z, succ_m, succ_n, partial) -> bool:
    for (u, v), value in chosen.items():
        for u2 in succ_m[u]:
            responses = [(u2, v2) for v2 in succ_n[v] if (u2, v2) in z]
            if partial and any(r not in chosen for r in responses):
                continue  # may still be satisfied by an unassigned response
            if not any(value <= chosen[r] for r in responses if r in chosen):
                return False
        for v2 in succ_n[v]:
            responses = [(u2, v2) for u2 in succ_m[u] if (u2, v2) in z]
            if partial and any(r not in chosen for r in responses):
                continue
            if not any(value <= chosen[r] for r in responses if r in chosen):
                return False
    return True
