"""Bisimilarity of pointed genealogical Kripke models.

A bisimulation between two pointed models is a world-pair relation Z
together with a per-pair child correspondence f mapping each Z pair to a
set of child pairs, such that: the queried pair is in Z; related worlds
agree on all propositions; f((u,v)) covers every child on both sides;
every f-related child pair is itself bisimilar at its tracked worlds;
constants are either undefined on both sides or point to bisimilar
children at tracked worlds; and the usual zig/zag transfer holds with f
monotone along it, f((u,v)) being a subset of the successor pair's value.

The decision procedure works bottom-up by generation: child pointed
bisimilarity is decided first (memoized), giving for every world pair the
set G(u,v) of child pairs bisimilar at tracked worlds.  Candidate world
pairs failing the per-pair clauses or a plain zig/zag refinement are
discarded, then a depth-first search assigns an f value (a surjective
subset of G) to each pair reachable from the queried one, backtracking
over successor choices and f values when monotonicity cannot be met.
The search is exact; exceeding the node budget raises instead of
returning a wrong verdict.  `brute_force_bisim` is an independent
oracle for tiny inputs that literally enumerates relations Z and
functions f.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from .model import GenealogicalModel, PointedModel, depth, model_vocabulary
from .syntax import Vocabulary

DEFAULT_BUDGET = 500_000


class BudgetExceededError(RuntimeError):
    """Search cutoff reached; the answer is unknown, not 'no'."""


class OracleSizeError(ValueError):
    """Inputs exceed the brute-force oracle's size guard."""


@dataclass(frozen=True)
class BisimWitness:
    z: frozenset[tuple[str, str]]
    f: Mapping[tuple[str, str], frozenset[tuple[str, str]]]
    # (left label, right label, left world, right world) -> child witness
    child_witnesses: Mapping[tuple[str, str, str, str], "BisimWitness"]


@dataclass(frozen=True)
class BisimVerdict:
    bisimilar: bool
    witness: Optional[BisimWitness]


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    failures: tuple[tuple[str, str], ...]  # (clause tag, message)


def _union_vocab(m: GenealogicalModel, n: GenealogicalModel) -> Vocabulary:
    vm, vn = model_vocabulary(m), model_vocabulary(n)
    return Vocabulary(vm.props | vn.props, vm.constants | vn.constants)


def _successors(m: GenealogicalModel) -> dict[str, tuple[str, ...]]:
    table: dict[str, list[str]] = {w: [] for w in m.worlds}
    for a, b in sorted(m.relation):
        table[a].append(b)
    return {w: tuple(ts) for w, ts in table.items()}


class _Budget:
    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, n: int = 1):
        self.remaining -= n
        if self.remaining < 0:
            raise BudgetExceededError("bisimulation search budget exhausted")


class _PairLevel:
    """Search data for one (left model, right model) pair."""

    def __init__(self, ctx, m, n):
        self.ctx = ctx
        self.m = m
        self.n = n
        self.succ_m = _successors(m)
        self.succ_n = _successors(n)
        self.labels_m = tuple(m.children)
        self.labels_n = tuple(n.children)
        self.g: dict[tuple[str, str], frozenset] = {}
        self.ok: dict[tuple[str, str], bool] = {}
        self.viable: dict[tuple[str, str], tuple[frozenset, ...]] = {}
        self.candidates: Optional[frozenset] = None

    def g_table(self, u, v) -> frozenset:
        got = self.g.get((u, v))
        if got is None:
            got = frozenset(
                (a, b)
                for a in self.labels_m
                for b in self.labels_n
                if self.ctx.decide(self.m.children[a], self.n.children[b],
                                   self.m.tracking[u][a], self.n.tracking[v][b]).bisimilar
            )
            self.g[(u, v)] = got
        return got

    def local_ok(self, u, v) -> bool:
        got = self.ok.get((u, v))
        if got is not None:
            return got
        ok = all((u in self.m.valuation.get(p, frozenset())) == (v in self.n.valuation.get(p, frozenset()))
                 for p in self.ctx.vocab.props)
        if ok:
            g = self.g_table(u, v)
            ok = _surjective(g, self.labels_m, self.labels_n)
        if ok:
            for c in self.ctx.vocab.constants:
                a = self.m.assignment.get(u, {}).get(c)
                b = self.n.assignment.get(v, {}).get(c)
                if (a is None) != (b is None):
                    ok = False
                    break
                if a is not None and (a, b) not in self.g_table(u, v):
                    ok = False
                    break
        self.ok[(u, v)] = ok
        return ok

    def candidate_pairs(self) -> frozenset:
        """Pairs surviving the per-pair clauses and plain zig/zag refinement.

        The refinement ignores f monotonicity, so it over-approximates Z
        membership: anything it removes can belong to no bisimulation.
        """
        if self.candidates is not None:
            return self.candidates
        alive = {(u, v) for u in self.m.worlds for v in self.n.worlds if self.local_ok(u, v)}
        changed = True
        while changed:
            changed = False
            for (u, v) in sorted(alive):
                zig = all(any((u2, v2) in alive for v2 in self.succ_n[v]) for u2 in self.succ_m[u])
                zag = zig and all(any((u2, v2) in alive for u2 in self.succ_m[u]) for v2 in self.succ_n[v])
                if not zag:
                    alive.discard((u, v))
                    changed = True
        self.candidates = frozenset(alive)
        return self.candidates

    def viable_values(self, u, v) -> tuple[frozenset, ...]:
        """All surjective child correspondences below G(u,v), small first."""
        got = self.viable.get((u, v))
        if got is None:
            g = sorted(self.g_table(u, v))
            if len(g) > 16:
                raise BudgetExceededError("child correspondence space too large")
            values = []
            for mask in range(1 << len(g)):
                subset = frozenset(g[k] for k in range(len(g)) if mask >> k & 1)
                if _surjective(subset, self.labels_m, self.labels_n):
                    values.append(subset)
            values.sort(key=lambda s: (len(s), sorted(s)))
            got = tuple(values)
            self.viable[(u, v)] = got
        return got


def _surjective(pairs, labels_m, labels_n) -> bool:
    return (
        {a for a, _ in pairs} == set(labels_m)
        and {b for _, b in pairs} == set(labels_n)
    )


class _Ctx:
    def __init__(self, vocab: Vocabulary, budget: _Budget):
        self.vocab = vocab
        self.budget = budget
        # Keyed by the model objects, which hash by identity.
        self.levels: dict[tuple[GenealogicalModel, GenealogicalModel], _PairLevel] = {}
        self.verdicts: dict[tuple[GenealogicalModel, GenealogicalModel, str, str], BisimVerdict] = {}

    def level(self, m, n) -> _PairLevel:
        key = (m, n)
        got = self.levels.get(key)
        if got is None:
            got = _PairLevel(self, m, n)
            self.levels[key] = got
        return got

    def decide(self, m, n, s, t) -> BisimVerdict:
        key = (m, n, s, t)
        got = self.verdicts.get(key)
        if got is None:
            got = self._search(self.level(m, n), s, t)
            self.verdicts[key] = got
        return got

    def _search(self, level: _PairLevel, s, t) -> BisimVerdict:
        if (s, t) not in level.candidate_pairs():
            return BisimVerdict(False, None)
        committed: dict[tuple[str, str], frozenset] = {}

        def obligations_of(pair):
            u, v = pair
            obls = [("zig", pair, u2) for u2 in level.succ_m[u]]
            obls += [("zag", pair, v2) for v2 in level.succ_n[v]]
            return obls

        def dfs(obligations) -> bool:
            if not obligations:
                return True
            side, pair, w2 = obligations[0]
            rest = obligations[1:]
            bound = committed[pair]
            u, v = pair
            if side == "zig":
                responses = [(w2, v2) for v2 in level.succ_n[v]]
            else:
                responses = [(u2, w2) for u2 in level.succ_m[u]]
            for cand in responses:
                if cand not in level.candidate_pairs():
                    continue
                if cand in committed:
                    if bound <= committed[cand] and dfs(rest):
                        return True
                    continue
                for value in level.viable_values(*cand):
                    if not (bound <= value):
                        continue
                    self.budget.spend()
                    committed[cand] = value
                    if dfs(rest + obligations_of(cand)):
                        return True
                    del committed[cand]
            return False

        for value in level.viable_values(s, t):
            self.budget.spend()
            committed[(s, t)] = value
            if dfs(obligations_of((s, t))):
                return BisimVerdict(True, self._witness(level, committed))
            committed.clear()
        return BisimVerdict(False, None)

    def _witness(self, level: _PairLevel, committed) -> BisimWitness:
        child_witnesses = {}
        for (u, v), pairs in committed.items():
            needed = set(pairs)
            for c in self.vocab.constants:
                a = level.m.assignment.get(u, {}).get(c)
                b = level.n.assignment.get(v, {}).get(c)
                if a is not None and b is not None:
                    needed.add((a, b))
            for a, b in needed:
                wa = level.m.tracking[u][a]
                wb = level.n.tracking[v][b]
                key = (a, b, wa, wb)
                if key not in child_witnesses:
                    verdict = self.decide(level.m.children[a], level.n.children[b], wa, wb)
                    child_witnesses[key] = verdict.witness
        return BisimWitness(
            z=frozenset(committed),
            f={pair: frozenset(value) for pair, value in committed.items()},
            child_witnesses=child_witnesses,
        )


def bisimilar(
    pm: PointedModel,
    pn: PointedModel,
    vocab: Optional[Vocabulary] = None,
    budget: int = DEFAULT_BUDGET,
) -> BisimVerdict:
    """Decide bisimilarity; when true, the verdict carries a witness that
    `check_witness` accepts.  Raises `BudgetExceededError` on cutoff rather
    than guessing."""
    if vocab is None:
        vocab = _union_vocab(pm.model, pn.model)
    ctx = _Ctx(vocab, _Budget(budget))
    return ctx.decide(pm.model, pn.model, pm.world, pn.world)


# --------------------------------------------------------------------------
# Witness verification


def check_witness(
    pm: PointedModel,
    pn: PointedModel,
    witness: BisimWitness,
    vocab: Optional[Vocabulary] = None,
) -> WitnessReport:
    """Mechanically verify every bisimulation clause of a candidate witness,
    recursing into its child witnesses."""
    if vocab is None:
        vocab = _union_vocab(pm.model, pn.model)
    failures: list[tuple[str, str]] = []
    _check_into(pm.model, pn.model, pm.world, pn.world, witness, vocab, "", failures)
    return WitnessReport(not failures, tuple(failures))


def _check_into(m, n, s, t, w, vocab, where, failures):
    def fail(tag, message):
        failures.append((tag, f"{where}{message}"))

    if w is None:
        fail("pointed-pair", "missing witness")
        return
    if (s, t) not in w.z:
        fail("pointed-pair", f"({s}, {t}) not in Z")
    if set(w.f) != set(w.z):
        fail("f-domain", "f must be defined exactly on Z")

    succ_m = _successors(m)
    succ_n = _successors(n)
    labels_m, labels_n = set(m.children), set(n.children)

    for (u, v) in sorted(w.z):
        if u not in set(m.worlds) or v not in set(n.worlds):
            fail("pointed-pair", f"({u}, {v}) is not a world pair")
            continue
        for p in sorted(vocab.props):
            if (u in m.valuation.get(p, frozenset())) != (v in n.valuation.get(p, frozenset())):
                fail("atoms", f"({u}, {v}) disagree on {p!r}")
        pairs = w.f.get((u, v), frozenset())
        if {a for a, _ in pairs} != labels_m:
            fail("surjective-left", f"f(({u}, {v})) misses a left child")
        if {b for _, b in pairs} != labels_n:
            fail("surjective-right", f"f(({u}, {v})) misses a right child")
        for a, b in sorted(pairs):
            if a not in labels_m or b not in labels_n:
                fail("children", f"f(({u}, {v})) mentions unknown child pair ({a}, {b})")
                continue
            wa, wb = m.tracking[u][a], n.tracking[v][b]
            _check_child(m, n, a, b, wa, wb, w, vocab, where, failures, "children")
        for c in sorted(vocab.constants):
            ca = m.assignment.get(u, {}).get(c)
            cb = n.assignment.get(v, {}).get(c)
            if (ca is None) != (cb is None):
                fail("constants", f"constant {c!r} defined on one side only at ({u}, {v})")
            elif ca is not None:
                wa, wb = m.tracking[u][ca], n.tracking[v][cb]
                _check_child(m, n, ca, cb, wa, wb, w, vocab, where, failures, "constants")
        for u2 in succ_m[u]:
            if not any(
                (u2, v2) in w.z and pairs <= w.f.get((u2, v2), frozenset())
                for v2 in succ_n[v]
            ):
                fail("zig", f"no monotone response in Z for {u} -> {u2} from ({u}, {v})")
        for v2 in succ_n[v]:
            if not any(
                (u2, v2) in w.z and pairs <= w.f.get((u2, v2), frozenset())
                for u2 in succ_m[u]
            ):
                fail("zag", f"no monotone response in Z for {v} -> {v2} from ({u}, {v})")


def _check_child(m, n, a, b, wa, wb, w, vocab, where, failures, tag):
    child = w.child_witnesses.get((a, b, wa, wb))
    if child is None:
        failures.append((tag, f"{where}missing child witness for ({a}, {b}) at ({wa}, {wb})"))
        return
    _check_into(m.children[a], n.children[b], wa, wb, child, vocab, f"{where}{a}|{b}|{wa}|{wb}: ", failures)


# --------------------------------------------------------------------------
# Witness serialization


def witness_to_document(w: BisimWitness) -> dict:
    for key in w.child_witnesses:
        if any("|" in part for part in key):
            raise ValueError("witness serialization requires names without '|'")
    return {
        "z": [list(pair) for pair in sorted(w.z)],
        "f": [
            {"pair": list(pair), "children": [list(c) for c in sorted(w.f[pair])]}
            for pair in sorted(w.f)
        ],
        "children": {
            "|".join(key): witness_to_document(child)
            for key, child in sorted(w.child_witnesses.items())
        },
    }


def witness_from_document(doc: dict) -> BisimWitness:
    z = frozenset((u, v) for u, v in doc.get("z", []))
    f = {
        (entry["pair"][0], entry["pair"][1]): frozenset((a, b) for a, b in entry["children"])
        for entry in doc.get("f", [])
    }
    children = {}
    for key, sub in doc.get("children", {}).items():
        parts = tuple(key.split("|"))
        if len(parts) != 4:
            raise ValueError(f"bad child witness key {key!r}")
        children[parts] = witness_from_document(sub)
    return BisimWitness(z=z, f=f, child_witnesses=children)


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
        vocab = _union_vocab(m, n)
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
    succ_m, succ_n = _successors(m), _successors(n)

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
            if not _surjective(table, labels_m, labels_n):
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
            if _surjective(subset, labels_m, labels_n):
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
