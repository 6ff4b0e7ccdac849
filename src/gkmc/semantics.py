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
alone; nodes are hash-consed, so the key is the node's identity and
equal subformulas of separately built sentences share one entry.  C2
makes each `xi` of a sentence closed, so every unfolding of `X` is a
lookup.  `holds_at` answers satisfaction at one world, the
paper's pointed-model question, by testing one bit of the mask;
`checked_holds_at` does the same for a caller that has checked its
sentences already, with the world looked up once per caller, not once
per sentence; `sentence_worlds` and `formula_worlds` turn the mask into
a `frozenset` of world names.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Mapping, Optional

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


# The empty interpretation a sentence is evaluated under, shared: `_eval`
# never writes to the maps it is given.
_NO_BINDINGS: Mapping = {}


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


class Evaluator:
    """Evaluates formulas, optionally sharing memo tables across calls.

    A model's memo table keys each closed node (no free model or formula
    variables by `free_vars`) by the node alone, its value depending on
    the model alone, so entries are reused across worlds, conjuncts,
    sentences and the interpretations given to `formula_worlds`; a
    lookup hashes and compares by identity, as nodes are hash-consed.
    Open nodes are evaluated each time.  The records hold their models
    for the evaluator's lifetime.  `use_memo=False` runs the same clauses
    with no memo table; the test suite checks both paths against an
    independent set-based evaluator.  `_eval` holds all nine clauses, so
    each formula level costs one Python frame: the stack depth is
    generations times formula levels.

    `holds_at` and `sentence_worlds` check their argument with
    `check_sentence`, which reads a sentence's verdict off its cached
    `free_vars` summary; `checked_holds_at` leaves the check to its
    caller.
    """

    def __init__(self, use_memo: bool = True):
        self._use_memo = use_memo
        self._records: dict[GenealogicalModel, _ModelRecord] = {}

    def holds_at(self, m: GenealogicalModel, world: str, sentence: Formula) -> bool:
        """Whether the sentence holds at `world` of `m`.  Raises `ValueError`
        on a world `m` lacks, then `NotASentenceError` on a non-sentence."""
        holds = self.checked_holds_at(m, world)
        _check(sentence)
        return holds(sentence)

    def checked_holds_at(self, m: GenealogicalModel, world: str) -> Callable[[Formula], bool]:
        """`holds_at(m, world, ·)` for sentences the caller has checked
        already: the world is checked once, here, and the sentence never.
        A non-sentence may raise `UndefinedInterpretationError` or give a
        wrong answer."""
        r = self._record(m)
        bit = r.bits.get(world)
        if bit is None:
            raise ValueError(f"unknown world {world!r}")
        evaluate = self._eval
        return lambda sentence: bool(evaluate(r, sentence, _NO_BINDINGS, _NO_BINDINGS) & bit)

    def sentence_worlds(self, m: GenealogicalModel, sentence: Formula) -> frozenset[str]:
        _check(sentence)
        r = self._record(m)
        return r.world_set(self._eval(r, sentence, _NO_BINDINGS, _NO_BINDINGS))

    def formula_worlds(self, m: GenealogicalModel, f: Formula, model_vars: Mapping, formula_vars: Mapping) -> frozenset[str]:
        """Any formula under explicit interpretations, with no sentence
        check: `model_vars` maps model variables to child labels of `m`,
        `formula_vars` formula variables to the nodes they stand for.  An
        open formula may raise `UndefinedInterpretationError`."""
        r = self._record(m)
        return r.world_set(self._eval(r, f, model_vars, formula_vars))

    # -- internals ----------------------------------------------------

    def _record(self, m: GenealogicalModel) -> _ModelRecord:
        return self._records.get(m) or self._records.setdefault(m, _ModelRecord(m, self._use_memo))

    def _eval(self, r: _ModelRecord, f: Formula, mv: Mapping, fv: Mapping) -> int:
        t = type(f)
        if t is FormulaVar:  # stands for its node: in a sentence, its closed `xi`
            bound = fv.get(f.name)
            if bound is None:
                raise UndefinedInterpretationError(f"formula variable {f.name!r} uninterpreted")
            if type(bound) is FormulaVar:  # an interpretation passed in may chain variables
                return self._eval(r, bound, mv, fv)
            f, t = bound, type(bound)
        memo = r.memo
        if memo is not None:
            hit = memo.get(f)
            if hit is not None:
                return hit
        if t is Not:
            worlds = r.full ^ self._eval(r, f.operand, mv, fv)
        elif t is And:
            worlds = self._eval(r, f.left, mv, fv) & self._eval(r, f.right, mv, fv)
        elif t is Prop:
            worlds = sum(r.bits[w] for w in r.model.valuation.get(f.name, ()))
        elif t is Top:
            worlds = r.full
        elif t is Box:
            outside = r.full ^ self._eval(r, f.operand, mv, fv)
            worlds = 0
            for bit, succ in r.succ:
                if not succ & outside:
                    worlds |= bit
        elif t is Xi:
            worlds = self._eval(r, f.body, mv, {**fv, f.var: f})
        elif t is Forall:
            worlds = r.full
            for label in r.model.children:
                worlds &= self._eval(r, f.body, {**mv, f.var: label}, fv)
                if not worlds:
                    break
        elif t is QueryVar:
            label = mv.get(f.var)
            if label not in r.model.children:
                raise UndefinedInterpretationError(f"model variable {f.var!r} is not bound to a child")
            child = self._record(r.model.children[label])
            inner = self._eval(child, f.body, {}, fv)
            tracking, worlds = r.model.tracking, 0
            for w, bit in r.bits.items():
                if inner & child.bits[tracking[w][label]]:
                    worlds |= bit
        elif t is QueryConst:
            m, worlds = r.model, 0
            for w, bit in r.bits.items():
                label = m.assignment.get(w, {}).get(f.const)
                if label is not None:
                    child = self._record(m.children[label])
                    if self._eval(child, f.body, {}, fv) & child.bits[m.tracking[w][label]]:
                        worlds |= bit
        else:
            raise TypeError(f"not a formula: {f!r}")
        if memo is not None:
            mdeps, _, fdeps, _ = free_vars(f)
            if not (mdeps or fdeps):  # closed: its value depends on the model alone
                memo[f] = worlds
        return worlds


def _check(sentence: Formula) -> None:
    diagnostics = check_sentence(sentence)
    if not diagnostics.verdict:
        raise NotASentenceError(diagnostics)


class _ModelRecord:
    """One model's memo table and bitmask tables: `bits` maps each world to
    its bit, and `succ`, built at the first `[]`, pairs each world's bit
    with its successor mask."""

    def __init__(self, m: GenealogicalModel, use_memo: bool):
        self.model = m
        self.bits = {w: 1 << i for i, w in enumerate(m.worlds)}
        self.full = (1 << len(m.worlds)) - 1
        self.memo: Optional[dict] = {} if use_memo else None

    @cached_property
    def succ(self) -> tuple[tuple[int, int], ...]:
        succ = dict.fromkeys(self.model.worlds, 0)
        for a, b in self.model.relation:
            succ[a] |= self.bits[b]
        return tuple((self.bits[w], s) for w, s in succ.items())

    def world_set(self, mask: int) -> frozenset[str]:
        return frozenset(w for w, bit in self.bits.items() if mask & bit)


def evaluate_sentence(m: GenealogicalModel, sentence: Formula, *, use_memo: bool = True) -> frozenset[str]:
    """The set of worlds of `m` where the sentence holds."""
    return Evaluator(use_memo).sentence_worlds(m, sentence)


def holds_at(m: GenealogicalModel, world: str, sentence: Formula, *, use_memo: bool = True) -> bool:
    """Whether the sentence holds at `world` of `m`, on a fresh evaluator."""
    return Evaluator(use_memo).holds_at(m, world, sentence)
