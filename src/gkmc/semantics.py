"""Evaluation of sentences over genealogical Kripke models.

A formula denotes the set of worlds where it holds, computed by
structural recursion under two interpretations: one mapping model
variables to children of the current model (by label) and one mapping
formula variables to the bodies harvested from their `xi` binders.
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
"""

from __future__ import annotations

from dataclasses import dataclass
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
    formula_vars: Mapping[str, Formula]  # variable -> xi body

    def bind_model_var(self, var: str, label: str) -> "InterpretationPair":
        return InterpretationPair({**self.model_vars, var: label}, self.formula_vars)

    def bind_formula_var(self, var: str, body: Formula) -> "InterpretationPair":
        return InterpretationPair(self.model_vars, {**self.formula_vars, var: body})


EMPTY_INTERPRETATION = InterpretationPair({}, {})


class Evaluator:
    """Evaluates formulas, optionally sharing a memo table across calls.

    Memo entries are keyed by the model object (models hash by identity),
    the formula, and both interpretations restricted to the formula's free
    variables (its `free_vars` summary, a superset of what its value can
    depend on), so results are reused across worlds, sibling conjuncts and
    whole sentence streams.  The tables hold the models they have seen for
    the evaluator's lifetime.  The memoized path is validated against the
    unmemoized one in the test suite.

    `sentence_worlds` checks its argument with `check_sentence`, whose
    verdict is cached on the formula node, so evaluating an already
    checked sentence repeats no check.
    """

    def __init__(self, use_memo: bool = True):
        self._memo: Optional[dict] = {} if use_memo else None
        self._succ: dict[GenealogicalModel, dict[str, frozenset[str]]] = {}
        self._all: dict[GenealogicalModel, frozenset[str]] = {}

    def sentence_worlds(self, m: GenealogicalModel, sentence: Formula) -> frozenset[str]:
        diagnostics = check_sentence(sentence)
        if not diagnostics.verdict:
            raise NotASentenceError(diagnostics)
        return self._eval(m, sentence, {}, {})

    def formula_worlds(self, m: GenealogicalModel, f: Formula, interp: InterpretationPair) -> frozenset[str]:
        return self._eval(m, f, dict(interp.model_vars), dict(interp.formula_vars))

    # -- internals ----------------------------------------------------

    def _worlds(self, m: GenealogicalModel) -> frozenset[str]:
        ws = self._all.get(m)
        if ws is None:
            ws = self._all[m] = frozenset(m.worlds)
        return ws

    def _successors(self, m: GenealogicalModel) -> dict[str, frozenset[str]]:
        succ = self._succ.get(m)
        if succ is None:
            table: dict[str, set[str]] = {w: set() for w in m.worlds}
            for a, b in m.relation:
                table[a].add(b)
            succ = {w: frozenset(ts) for w, ts in table.items()}
            self._succ[m] = succ
        return succ

    def _eval(self, m, f, mv: dict, fv: dict) -> frozenset[str]:
        if self._memo is None:
            return self._clause(m, f, mv, fv)
        mdeps, _, fdeps, _ = free_vars(f)
        key = (
            m,
            f,
            tuple(sorted((k, v) for k, v in mv.items() if k in mdeps)) if mdeps else (),
            tuple(sorted(((k, v) for k, v in fv.items() if k in fdeps), key=lambda kv: kv[0])) if fdeps else (),
        )
        hit = self._memo.get(key)
        if hit is None:
            hit = self._clause(m, f, mv, fv)
            self._memo[key] = hit
        return hit

    def _clause(self, m, f, mv: dict, fv: dict) -> frozenset[str]:
        if isinstance(f, Top):
            return self._worlds(m)
        if isinstance(f, Prop):
            return m.valuation.get(f.name, frozenset())
        if isinstance(f, FormulaVar):
            body = fv.get(f.name)
            if body is None:
                raise UndefinedInterpretationError(f"formula variable {f.name!r} uninterpreted")
            return self._eval(m, body, mv, fv)
        if isinstance(f, Not):
            return self._worlds(m) - self._eval(m, f.operand, mv, fv)
        if isinstance(f, And):
            return self._eval(m, f.left, mv, fv) & self._eval(m, f.right, mv, fv)
        if isinstance(f, Box):
            inner = self._eval(m, f.operand, mv, fv)
            succ = self._successors(m)
            return frozenset(w for w in m.worlds if succ[w] <= inner)
        if isinstance(f, Forall):
            result = self._worlds(m)
            for label in m.children:
                result &= self._eval(m, f.body, {**mv, f.var: label}, fv)
                if not result:
                    break
            return result
        if isinstance(f, Xi):
            return self._eval(m, f.body, mv, {**fv, f.var: f.body})
        if isinstance(f, QueryVar):
            label = mv.get(f.var)
            if label is None:
                raise UndefinedInterpretationError(f"model variable {f.var!r} uninterpreted")
            child = m.children[label]
            inner = self._eval(child, f.body, {}, fv)
            return frozenset(w for w in m.worlds if m.tracking[w][label] in inner)
        if isinstance(f, QueryConst):
            holds = []
            for w in m.worlds:
                label = m.assignment.get(w, {}).get(f.const)
                if label is None:
                    continue
                child = m.children[label]
                inner = self._eval(child, f.body, {}, fv)
                if m.tracking[w][label] in inner:
                    holds.append(w)
            return frozenset(holds)
        raise TypeError(f"not a formula: {f!r}")


def evaluate_sentence(m: GenealogicalModel, sentence: Formula, *, use_memo: bool = True) -> frozenset[str]:
    """The set of worlds of `m` where the sentence holds."""
    return Evaluator(use_memo).sentence_worlds(m, sentence)


def holds_at(m: GenealogicalModel, world: str, sentence: Formula, *, use_memo: bool = True) -> bool:
    if world not in m.worlds:
        raise ValueError(f"unknown world {world!r}")
    return world in evaluate_sentence(m, sentence, use_memo=use_memo)


def valuation(m: GenealogicalModel, f: Formula, interp: InterpretationPair = EMPTY_INTERPRETATION, *, use_memo: bool = False) -> frozenset[str]:
    """Raw clause evaluation of an arbitrary formula under explicit interpretations.

    Unlike `evaluate_sentence` this performs no sentence check; on formulas
    that are not sentences it may raise `UndefinedInterpretationError`.
    Memoization is off by default because its cache keys are only sound for
    inputs reachable from sentence evaluation.
    """
    return Evaluator(use_memo).formula_worlds(m, f, interp)
