"""Evaluation of sentences over genealogical Kripke models.

A formula denotes the set of worlds where it holds, computed by
structural recursion under two interpretations: one mapping model
variables to children of the current model (by label) and one mapping
formula variables to the nodes they stand for, in a sentence their `xi`.
Query application `?[phi] t` descends into the named child at its
tracked world, inheriting the formula-variable interpretation but
resetting the model-variable one, since the child has its own domain.
A constant undefined at a world makes `?[phi] #c` false there for every
body; the dual behavior is expressible as `~?[~phi] #c` rather than
special-cased.

Tree-shaped models make the recursion well-founded without any
fixed-point machinery: a formula-variable expansion can only be reached
again strictly deeper in the generation tree.  Evaluation is pure over
immutable inputs; an `Evaluator` may be reused to share work across
sentences but must not be shared across threads (results are
deterministic, so concurrent duplication is merely wasted work).

World sets are `int` bitmasks, bit `i` standing for `m.worlds[i]`, so
`~` is one XOR with the full mask, `[]` one AND-test per world against
its successor mask, and a query one bit test per world in the child's
mask.  An `Evaluator` keeps one `_ModelRecord` per model it visits:
the model's world bits and memo table, built on the first visit, and
its successor masks, built at the first `[]`.  The memo stores closed
nodes only, under the node alone, as their value depends on the model
alone; C2 makes each `xi` of a sentence closed, so every unfolding of
`X` is a lookup.  Only the public entry points turn a mask back into a
`frozenset` of world names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .model import GenealogicalModel
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
    SentenceDiagnostics,
    Top,
    Xi,
    check_sentence,
    free_vars,
)


class NotASentenceError(ValueError):
    def __init__(self, diagnostics: SentenceDiagnostics):
        tags = ", ".join(sorted({v.tag for v in diagnostics.violations}))
        super().__init__(f"not a sentence ({tags})")
        self.diagnostics = diagnostics


class UndefinedInterpretationError(RuntimeError):
    """An interpretation lookup failed mid-evaluation.

    Unreachable when evaluating a checked sentence over a valid model;
    raising it therefore signals a bug in the sentence checker.
    """


@dataclass(frozen=True)
class InterpretationPair:
    """The two partial maps threaded through evaluation."""

    model_vars: Mapping[str, str]  # variable -> child label of the current model
    formula_vars: Mapping[str, Formula]  # variable -> the node it stands for, e.g. its xi

    def bind_model_var(self, var: str, label: str) -> "InterpretationPair":
        return InterpretationPair({**self.model_vars, var: label}, self.formula_vars)

    def bind_formula_var(self, var: str, body: Formula) -> "InterpretationPair":
        return InterpretationPair(self.model_vars, {**self.formula_vars, var: body})


EMPTY_INTERPRETATION = InterpretationPair({}, {})


class Evaluator:
    """Evaluates formulas, optionally sharing memo tables across calls.

    A model's memo table keys each closed node (no free model or formula
    variables by `free_vars`) by the node alone, its value depending on
    the model alone, so entries are reused across worlds, conjuncts,
    sentence streams and the interpretations given to `formula_worlds`;
    open nodes are evaluated each time.  The records hold their models
    for the evaluator's lifetime.  `use_memo=False` runs the same clauses
    with no memo table; the test suite checks both paths against an
    independent set-based evaluator.

    `sentence_worlds` checks its argument with `check_sentence`, whose
    verdict is cached on the formula node, so evaluating an already
    checked sentence repeats no check.
    """

    def __init__(self, use_memo: bool = True):
        self._use_memo = use_memo
        self._records: dict[GenealogicalModel, _ModelRecord] = {}

    def sentence_worlds(self, m: GenealogicalModel, sentence: Formula) -> frozenset[str]:
        diagnostics = check_sentence(sentence)
        if not diagnostics.verdict:
            raise NotASentenceError(diagnostics)
        r = self._record(m)
        return r.world_set(self._eval(r, sentence, {}, {}))

    def formula_worlds(self, m: GenealogicalModel, f: Formula, interp: InterpretationPair) -> frozenset[str]:
        r = self._record(m)
        return r.world_set(self._eval(r, f, dict(interp.model_vars), dict(interp.formula_vars)))

    # -- internals ----------------------------------------------------

    def _record(self, m: GenealogicalModel) -> _ModelRecord:
        return self._records.get(m) or self._records.setdefault(m, _ModelRecord(m, self._use_memo))

    def _eval(self, r: _ModelRecord, f: Formula, mv: dict, fv: dict) -> int:
        if type(f) is FormulaVar:  # stands for its node: in a sentence, its closed `xi`
            bound = fv.get(f.name)
            if bound is None:
                raise UndefinedInterpretationError(f"formula variable {f.name!r} uninterpreted")
            if type(bound) is FormulaVar:  # an interpretation passed in may chain variables
                return self._eval(r, bound, mv, fv)
            f = bound
        memo = r.memo
        if memo is not None:
            hit = memo.get(f)
            if hit is not None:
                return hit
        try:
            clause = _CLAUSES[type(f)]
        except KeyError:
            raise TypeError(f"not a formula: {f!r}") from None
        worlds = clause(self, r, f, mv, fv)
        if memo is not None:
            mdeps, _, fdeps, _ = free_vars(f)
            if not (mdeps or fdeps):  # closed: its value depends on the model alone
                memo[f] = worlds
        return worlds

    def _box(self, r: _ModelRecord, f: Box, mv: dict, fv: dict) -> int:
        outside = r.full ^ self._eval(r, f.operand, mv, fv)
        worlds = 0
        for bit, succ in r.succ:
            if not succ & outside:
                worlds |= bit
        return worlds

    def _forall(self, r: _ModelRecord, f: Forall, mv: dict, fv: dict) -> int:
        worlds = r.full
        for label in r.model.children:
            worlds &= self._eval(r, f.body, {**mv, f.var: label}, fv)
            if not worlds:
                break
        return worlds

    def _query_var(self, r: _ModelRecord, f: QueryVar, mv: dict, fv: dict) -> int:
        label = mv.get(f.var)
        if label not in r.model.children:
            raise UndefinedInterpretationError(f"model variable {f.var!r} is not bound to a child")
        child = self._record(r.model.children[label])
        inner = self._eval(child, f.body, {}, fv)
        tracking, worlds = r.model.tracking, 0
        for w, bit in r.bits.items():
            if inner & child.bits[tracking[w][label]]:
                worlds |= bit
        return worlds

    def _query_const(self, r: _ModelRecord, f: QueryConst, mv: dict, fv: dict) -> int:
        m, worlds = r.model, 0
        for w, bit in r.bits.items():
            label = m.assignment.get(w, {}).get(f.const)
            if label is not None:
                child = self._record(m.children[label])
                if self._eval(child, f.body, {}, fv) & child.bits[m.tracking[w][label]]:
                    worlds |= bit
        return worlds


_CLAUSES = {
    Top: lambda ev, r, f, mv, fv: r.full,
    Prop: lambda ev, r, f, mv, fv: sum(r.bits[w] for w in r.model.valuation.get(f.name, ())),
    Not: lambda ev, r, f, mv, fv: r.full ^ ev._eval(r, f.operand, mv, fv),
    And: lambda ev, r, f, mv, fv: ev._eval(r, f.left, mv, fv) & ev._eval(r, f.right, mv, fv),
    Box: Evaluator._box,
    Forall: Evaluator._forall,
    Xi: lambda ev, r, f, mv, fv: ev._eval(r, f.body, mv, {**fv, f.var: f}),
    QueryVar: Evaluator._query_var,
    QueryConst: Evaluator._query_const,
}


class _ModelRecord:
    """One model's memo table and bitmask tables: `bits` maps each world to
    its bit, and `succ`, built at the first `[]`, pairs each world's bit
    with its successor mask.  `sets` caches the frozenset of each mask."""

    def __init__(self, m: GenealogicalModel, use_memo: bool):
        self.model = m
        self.bits = {w: 1 << i for i, w in enumerate(m.worlds)}
        self.full = (1 << len(m.worlds)) - 1
        self.memo: Optional[dict] = {} if use_memo else None
        self.sets: dict[int, frozenset[str]] = {}

    @cached_property
    def succ(self) -> tuple[tuple[int, int], ...]:
        succ = dict.fromkeys(self.model.worlds, 0)
        for a, b in self.model.relation:
            succ[a] |= self.bits[b]
        return tuple((self.bits[w], s) for w, s in succ.items())

    def world_set(self, mask: int) -> frozenset[str]:
        ws = self.sets.get(mask)
        if ws is None:
            ws = self.sets[mask] = frozenset(w for w, bit in self.bits.items() if mask & bit)
        return ws


def evaluate_sentence(m: GenealogicalModel, sentence: Formula, *, use_memo: bool = True) -> frozenset[str]:
    """The set of worlds of `m` where the sentence holds."""
    return Evaluator(use_memo).sentence_worlds(m, sentence)


def holds_at(m: GenealogicalModel, world: str, sentence: Formula, *, use_memo: bool = True) -> bool:
    if world not in m.worlds:
        raise ValueError(f"unknown world {world!r}")
    return world in evaluate_sentence(m, sentence, use_memo=use_memo)


def valuation(m: GenealogicalModel, f: Formula, interp: InterpretationPair = EMPTY_INTERPRETATION) -> frozenset[str]:
    """Raw clause evaluation of an arbitrary formula under explicit interpretations.

    Unlike `evaluate_sentence` this performs no sentence check, and may
    raise `UndefinedInterpretationError` on a formula that is not one; the
    memo keeps closed subformulas only, sound under any interpretation.
    This function, the interpretation types and `Evaluator.formula_worlds`
    are kept because the tests evaluate open formulas through them and
    the benchmark's layer tracer wraps `formula_worlds` by name.
    """
    return Evaluator().formula_worlds(m, f, interp)
