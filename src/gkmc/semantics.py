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

World sets are `int` bitmasks, so `~` is one XOR with the full mask,
`[]` one AND-test per world against its successor mask, and a query one
bit test per world in the child's mask.  An `Evaluator` keeps one
`_ModelRecord` per tuple of models it visits, over their disjoint union:
the parts' worlds take consecutive bits, bit `i` of a one-model record
standing for `m.worlds[i]`.  One evaluation answers for every part, so
`distinguish` asks each sentence once for its two pointed models.
`forall` ranges over every part's labels and holds at the worlds of a
part without the label, where a query under it gives no worlds; the
record a query descends to is over the parts' distinct children at the
label.  The memo stores closed nodes only, under the node alone, as a
closed node's value at a world depends on that world's model alone;
nodes are hash-consed, so equal subformulas of separately built
sentences share one entry.  C2 makes each `xi` of a sentence closed, so
every unfolding of `X` is a lookup.  `holds_at` answers the paper's
pointed-model question by testing one bit of the mask; `checked_masks`
gives a caller that has checked its sentences one evaluation for several
pointed models; `sentence_worlds` and `formula_worlds` turn a one-model
mask into a `frozenset` of world names.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from .model import GenealogicalModel, PointedModel
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

    A record's memo table keys each closed node (no free model or formula
    variables by `free_vars`) by the node alone, its value at a world
    depending on that world's model alone, so entries are reused across
    worlds, conjuncts, sentences and the interpretations given to
    `formula_worlds`; a lookup hashes and compares by identity, as nodes
    are hash-consed.  Open nodes are evaluated each time.  The records
    hold their models for the evaluator's lifetime.  `use_memo=False`
    runs the same clauses with no memo table; the test suite checks both
    paths against an independent set-based evaluator.  `_eval` holds all
    nine clauses, so each formula level costs one Python frame: the
    stack depth is generations times formula levels.

    `holds_at` and `sentence_worlds` check their argument with
    `check_sentence`, which reads a sentence's verdict off its cached
    `free_vars` summary; `checked_masks` leaves the check to its caller.
    """

    def __init__(self, use_memo: bool = True):
        self._use_memo = use_memo
        self._records: dict[tuple[GenealogicalModel, ...], _ModelRecord] = {}

    def holds_at(self, m: GenealogicalModel, world: str, sentence: Formula) -> bool:
        """Whether the sentence holds at `world` of `m`.  Raises `ValueError`
        on a world `m` lacks, then `NotASentenceError` on a non-sentence."""
        worlds, (bit,) = self.checked_masks(PointedModel(m, world))
        _check(sentence)
        return bool(worlds(sentence) & bit)

    def checked_masks(self, *pointed: PointedModel) -> tuple[Callable[[Formula], int], tuple[int, ...]]:
        """One evaluation for several pointed models, for sentences the
        caller has checked already: a function from a sentence to its world
        mask over the disjoint union of the distinct models, and each
        pointed world's bit in that mask.  A non-sentence may raise
        `UndefinedInterpretationError` or give a wrong answer."""
        r = self._record(tuple(dict.fromkeys(p.model for p in pointed)))
        evaluate = self._eval
        return (lambda sentence: evaluate(r, sentence, _NO_BINDINGS, _NO_BINDINGS)), tuple(r.parts[p.model][p.world] for p in pointed)

    def sentence_worlds(self, m: GenealogicalModel, sentence: Formula) -> frozenset[str]:
        _check(sentence)
        r = self._record((m,))
        return r.world_set(self._eval(r, sentence, _NO_BINDINGS, _NO_BINDINGS))

    def formula_worlds(self, m: GenealogicalModel, f: Formula, model_vars: Mapping, formula_vars: Mapping) -> frozenset[str]:
        """Any formula under explicit interpretations, with no sentence
        check: `model_vars` maps model variables to child labels of `m`,
        `formula_vars` formula variables to the nodes they stand for.  An
        open formula may raise `UndefinedInterpretationError`."""
        r = self._record((m,))
        return r.world_set(self._eval(r, f, model_vars, formula_vars))

    # -- internals ----------------------------------------------------

    def _record(self, models: tuple[GenealogicalModel, ...]) -> _ModelRecord:
        return self._records.get(models) or self._records.setdefault(models, _ModelRecord(models, self._use_memo))

    def _child(self, r: _ModelRecord, label) -> Optional[_ModelRecord]:
        """The record over the parts' distinct children at `label`, kept in
        `r.kids`; None when no part has the label."""
        kids = ()
        for m in r.parts:
            kid = m.children.get(label)
            if kid is not None and kid not in kids:
                kids += (kid,)
        return r.kids.setdefault(label, self._record(kids)) if kids else None

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
            worlds = 0
            for m, bits in r.parts.items():
                for w in m.valuation.get(f.name, ()):
                    worlds |= bits[w]
        elif t is Top:
            worlds = r.full
        elif t is Box:
            outside = r.full ^ self._eval(r, f.operand, mv, fv)
            worlds = 0
            for bit, succ in r.succ or r.successors():
                if not succ & outside:
                    worlds |= bit
        elif t is Xi:
            worlds = self._eval(r, f.body, mv, {**fv, f.var: f})
        elif t is Forall:  # a part without the label holds vacuously there
            worlds = r.full
            labels = r.labels if r.labels is not None else r.label_masks()
            for label, lacking in labels.items():
                worlds &= self._eval(r, f.body, {**mv, f.var: label}, fv) | lacking
                if not worlds:
                    break
        elif t is QueryVar:  # a part without the label gets no worlds
            label = mv.get(f.var)
            child = r.kids.get(label) or self._child(r, label)
            if child is None:
                raise UndefinedInterpretationError(f"model variable {f.var!r} is not bound to a child")
            inner = self._eval(child, f.body, _NO_BINDINGS, fv)
            worlds = 0
            for m, bits in r.parts.items():
                kid = m.children.get(label)
                if kid is not None:
                    kid_bits, tracking = child.parts[kid], m.tracking
                    for w, bit in bits.items():
                        if inner & kid_bits[tracking[w][label]]:
                            worlds |= bit
        elif t is QueryConst:
            worlds = 0
            for m, bits in r.parts.items():
                for w, consts in m.assignment.items():
                    label = consts.get(f.const)
                    if label is not None:
                        child = r.kids.get(label) or self._child(r, label)
                        if self._eval(child, f.body, _NO_BINDINGS, fv) & child.parts[m.children[label]][m.tracking[w][label]]:
                            worlds |= bits[w]
        else:
            raise TypeError(f"not a formula: {f!r}")
        if memo is not None:
            mdeps, _, fdeps, _ = f._free or free_vars(f)
            if not (mdeps or fdeps):  # closed: its value at a world depends on that world's model alone
                memo[f] = worlds
        return worlds


def _check(sentence: Formula) -> None:
    diagnostics = check_sentence(sentence)
    if not diagnostics.verdict:
        raise NotASentenceError(diagnostics)


class _ModelRecord:
    """The disjoint union of one or more models, its parts: `parts` maps
    each model to its map from world to bit, the parts' worlds taking
    consecutive bits, and relation edges stay inside a part.  Beside the
    memo table: `kids` maps a child label to the record over the parts'
    children there; `succ`, built at the first `[]`, pairs each world's
    bit with its successor mask; `labels`, built at the first `forall`,
    maps every part's child labels to the mask of the parts without it."""

    __slots__ = ("parts", "full", "memo", "kids", "succ", "labels")

    def __init__(self, models: tuple[GenealogicalModel, ...], use_memo: bool):
        self.parts, offset = {}, 0
        for m in models:
            self.parts[m] = {w: 1 << i for i, w in enumerate(m.worlds, offset)}
            offset += len(m.worlds)
        self.full = (1 << offset) - 1
        self.memo: Optional[dict] = {} if use_memo else None
        self.kids: dict[str, _ModelRecord] = {}
        self.succ: Optional[list[tuple[int, int]]] = None
        self.labels: Optional[dict[str, int]] = None

    def successors(self) -> list[tuple[int, int]]:
        self.succ = []
        for m, bits in self.parts.items():
            masks = dict.fromkeys(m.worlds, 0)
            for a, b in m.relation:
                masks[a] |= bits[b]
            self.succ += zip(bits.values(), masks.values())  # both in `m.worlds` order
        return self.succ

    def label_masks(self) -> dict[str, int]:
        self.labels = labels = {}
        for m, bits in self.parts.items():
            lacking = self.full ^ sum(bits.values())
            for label in m.children:
                labels[label] = labels.get(label, lacking) & lacking
        return labels

    def world_set(self, mask: int) -> frozenset[str]:
        (bits,) = self.parts.values()
        return frozenset(w for w, bit in bits.items() if mask & bit)


def evaluate_sentence(m: GenealogicalModel, sentence: Formula, *, use_memo: bool = True) -> frozenset[str]:
    """The set of worlds of `m` where the sentence holds."""
    return Evaluator(use_memo).sentence_worlds(m, sentence)


def holds_at(m: GenealogicalModel, world: str, sentence: Formula, *, use_memo: bool = True) -> bool:
    """Whether the sentence holds at `world` of `m`, on a fresh evaluator."""
    return Evaluator(use_memo).holds_at(m, world, sentence)
