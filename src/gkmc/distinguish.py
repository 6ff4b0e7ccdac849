"""Bounded sentence enumeration and distinguishing-sentence search.

On image-finite models, pointed models satisfying exactly the same
sentences are bisimilar, so a non-bisimilar pair has some separating
sentence.  `distinguish` searches a finite, deterministically ordered
fragment for one; absence within the budget is a normal outcome and is
never evidence of bisimilarity.  The fragment is all sentences buildable
with at most `max_connective_depth` connective applications (atoms are
free; `F`, `<>`, `exists` count as single steps) and at most
`max_modal_depth` nested modal steps, counted globally through query
descent.

The stream is canonicalized to keep it small without losing separating
power: conjunctions are flattened chains with strictly increasing
operands, double negation and negated `T`/`F` are dropped, `<>` is not
applied to a negation (`~[]` covers it), `exists` bodies are not
negations (`~forall` covers it), and a `xi` binder must use its
variable.  Stream members are sentences by construction; each is
checked once, when its batch is committed, and a failure raises, as an
enumerator bug.  Duplicates after expansion to primitives are removed.

The stream of a setting (modal depth, vocabulary, `xi` on or off) at
cost c is a prefix of its stream at cost c+1, so it is built once, a
whole cost batch at a time, and shared by every reader: repeated
`distinguish` calls, a 4-then-5 budget ladder, a paused generator.
Formula nodes are hash-consed (see `syntax.Formula`), so a stream
subformula is one object wherever it occurs, and the stream's sets and
an evaluator's memo find it by identity.  Only the most recent
setting's stream is kept: about 5.5 MB at cost 4, modal depth 4 over
`{p}`/`{c}`, and 45 MB at cost 5 (`scripts/stream_memory.py`).  A
one-shot CLI run builds it once, as before.

`distinguish` looks for the *first* separator in stream order, and a
sentence whose value at every world is a Boolean combination of the
values of sentences of earlier cost batches can never be it: when it is
reached, all of those agreed on the pair, so it agrees too (a Boolean
combination of sentences two pointed models agree on is one they agree
on).  So when a batch is committed, its search list is recorded beside
it: its new sentences less those that follow from the earlier batches.
A formula follows if it or its negation is a sentence of an earlier
batch (the stream's `known` set holds both), if it is `~a` or `a & b`
whose operands follow, or if it equals, by one of these validities, a
formula that follows:

    [](a & b)           = []a & []b
    forall x. (a & b)   = forall x. a & forall x. b
    forall x. a         = a | forall x. F     (x not free in a, a not F)
    ?[a & b] #c         = ?[a] #c & ?[b] #c
    ?[~a] #c            = ?[T] #c & ~?[a] #c

(`forall x. F` holds exactly at the worlds of a model without children,
and it would reduce to itself; a query is false wherever its constant is
undefined.)  No sentence of the batch itself counts, as it may come
later in the stream than the sentence it would decide.  By induction on
stream position, every skipped sentence agrees on the pair whenever
everything read before it did, so `distinguish` returns the separator
the whole stream would.  It reads the search list, 2,245 of the 4,861
sentences at (4,4), and evaluates each of its sentences once, over the
disjoint union of the two models (`Evaluator.checked_masks`, which
checks no sentence: the stream has checked them), reading its value at
each pointed world off one bit.

Bisimilar pointed models agree on every sentence (the invariance
result, which the tests check on the stream directly), so on a bisimilar
pair the search cannot succeed.  `distinguish` asks `bisimilar` once,
just before the last cost batch: a bisimilar verdict whose witness
passes `check_witness` ends the search with None, the answer the stream
would give.  The search may visit at most `_PROOF_BUDGET` nodes,
not `bisimilar`'s default 500,000: the proof only saves reading one
batch, so it must not cost much more than that batch.  A budget cutoff
or a witness that fails its check proves nothing, and the search reads
the last batch as before.  A None is still "unknown", never reported as
bisimilarity.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from .bisim import BudgetExceededError, bisimilar, check_witness
from .model import PointedModel
from .semantics import Evaluator, holds_at
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
    check_sentence,
    format_formula,
    free_vars,
)

_TOP = Top()
_BOT = Not(_TOP)

# Search nodes the proof of bisimilarity may visit.  A `bisimilar` call
# on generated `dup_child` pairs visits at most 27 on tiny models, 115
# at W8/C4/D2 and 1,107 at W16/C6/D3, where one model of 40 passes
# 1,000 at every world; there the proof gives up and the batch is read.
_PROOF_BUDGET = 1_000


class EnumerationBudget(Record):
    """Finite bounds for sentence enumeration.

    `max_connective_depth` caps the total number of connective
    applications in a sentence; `max_modal_depth` caps nested `[]`/`<>`
    steps, bounding how far along the relation a sentence can see.
    """

    __slots__ = __match_args__ = ("max_connective_depth", "max_modal_depth", "vocab", "allow_xi")

    def __init__(self, max_connective_depth: int, max_modal_depth: int, vocab: Vocabulary, allow_xi: bool = True):
        depths = (max_connective_depth, max_modal_depth)
        if not all(isinstance(d, int) and d >= 0 for d in depths):
            raise ValueError(f"enumeration depths must be non-negative ints, not {depths}")
        if not isinstance(vocab, Vocabulary):
            raise ValueError("the enumeration vocabulary must be a Vocabulary")
        _set(self, "max_connective_depth", max_connective_depth)
        _set(self, "max_modal_depth", max_modal_depth)
        _set(self, "vocab", vocab)
        _set(self, "allow_xi", allow_xi)


# Generation context: model variables usable as query terms, formula
# variables already guarded by a query below their binder, and formula
# variables bound by a xi but not yet guarded.
_Ctx = tuple[tuple[str, ...], frozenset, frozenset]
_ROOT: _Ctx = ((), frozenset(), frozenset())


class _Stream:
    """The sentences of one setting in stream order: `sentences[:ends[c]]`
    is the stream at connective cost `c`, and `search[:search_ends[c]]`
    its search list, the sentences `distinguish` reads."""

    def __init__(self, modal: int, vocab: Vocabulary, allow_xi: bool):
        self.key = (modal, vocab, allow_xi)
        self.allow_xi = allow_xi
        self.props = sorted(vocab.props)
        self.consts = sorted(vocab.constants)
        self.cache: dict[tuple, tuple[Formula, ...]] = {}
        # Formula -> (cost it was first built at, canonical text).
        self.sort_key: dict[Formula, tuple[int, str]] = {}
        self.sentences: list[Formula] = []
        self.ends: list[int] = []
        self.search: list[Formula] = []
        self.search_ends: list[int] = []
        self.seen: set[Formula] = set()
        # The sentences of `seen` and the operands of its negations.
        self.known: set[Formula] = set()

    def end(self, cost: int) -> int:
        """The stream's length at cost `cost`, grown to it first.  Each batch
        is built aside, each new sentence in it checked once, and committed
        whole, so a failure part-way through leaves the stream as it was."""
        with _lock:
            while len(self.ends) <= cost:
                batch = set(self.exact(len(self.ends), self.key[0], _ROOT))
                ordered = sorted(batch, key=lambda f: self.sort_key[f][1])
                new = [f for f in ordered if f not in self.seen]
                for f in new:
                    if not check_sentence(f).verdict:
                        raise RuntimeError(f"the stream built a non-sentence: {format_formula(f)!r}")
                search = [f for f in new if not _follows(f, self.known)]
                self.seen.update(new)
                self.known.update(new)
                self.known.update([f.operand for f in new if type(f) is Not])
                self.sentences.extend(new)
                self.ends.append(len(self.sentences))
                self.search.extend(search)
                self.search_ends.append(len(self.search))
            return self.ends[cost]

    def exact(self, cost: int, modal: int, ctx: _Ctx) -> tuple[Formula, ...]:
        """All canonical formulas built with exactly `cost` connectives and
        at most `modal` nested modal steps, in this context."""
        key = (cost, modal, ctx)
        got = self.cache.get(key)
        if got is None:
            got = tuple(self._build(cost, modal, ctx))
            for f in got:
                if f not in self.sort_key:
                    self.sort_key[f] = (cost, format_formula(f))
            self.cache[key] = got
        return got

    def _build(self, cost, modal, ctx) -> Iterator[Formula]:
        mv, ok, pending = ctx
        if cost == 0:
            yield _TOP
            for p in self.props:
                yield Prop(p)
            for X in sorted(ok):
                yield FormulaVar(X)
            return

        if cost == 1:
            yield _BOT  # one connective: the abbreviation expands to ~T

        for operand in self.exact(cost - 1, modal, ctx):
            if not isinstance(operand, Not) and operand is not _TOP:
                yield Not(operand)

        if modal >= 1:
            for operand in self.exact(cost - 1, modal - 1, ctx):
                yield Box(operand)
                if not isinstance(operand, Not):
                    yield Not(Box(Not(operand)))  # diamond(operand)

        for left_cost in range(cost):
            right_cost = cost - 1 - left_cost
            for left in self.exact(left_cost, modal, ctx):
                if left is _TOP or left is _BOT:
                    continue
                left_anchor = self.sort_key[left.right if isinstance(left, And) else left]
                for right in self.exact(right_cost, modal, ctx):
                    if right is _TOP or right is _BOT or isinstance(right, And):
                        continue
                    if self.sort_key[right] <= left_anchor:
                        continue
                    yield And(left, right)

        var = _MODEL_VARS[min(len(mv), len(_MODEL_VARS) - 1)]
        for body in self.exact(cost - 1, modal, (mv + (var,), ok, pending)):
            yield Forall(var, body)
            if not isinstance(body, Not):
                yield Not(Forall(var, Not(body)))  # exists(var, body)

        if self.allow_xi:
            fvar = _FORMULA_VARS[min(len(ok) + len(pending), len(_FORMULA_VARS) - 1)]
            xi_ctx = ((), frozenset(), frozenset((fvar,)))
            for body in self.exact(cost - 1, modal, xi_ctx):
                if fvar in free_vars(body).formula:
                    yield Xi(fvar, body)

        body_ctx = ((), ok | pending, frozenset())
        for body in self.exact(cost - 1, modal, body_ctx):
            for x in mv:
                yield QueryVar(body, x)
            for c in self.consts:
                yield QueryConst(body, c)


def _follows(f: Formula, known: set) -> bool:
    """Whether, by the rules in the module docstring, the sentence `f`'s
    value at every world is a Boolean combination of the values of
    sentences in `known`."""
    if f in known:
        return True
    t = type(f)
    if t is Not:
        return _follows(f.operand, known)
    if t is And:
        return _follows(f.left, known) and _follows(f.right, known)
    same = _equivalent(f)
    return same is not None and _follows(same, known)


def _equivalent(f: Formula) -> Optional[Formula]:
    """A Boolean combination of other sentences with the sentence `f`'s
    value at every world, by one of the validities in the module
    docstring, or None when none applies."""
    t = type(f)
    if t is Box:
        a = f.operand
        if type(a) is And:
            return And(Box(a.left), Box(a.right))
    elif t is Forall:
        x, a = f.var, f.body
        if type(a) is And:
            return And(Forall(x, a.left), Forall(x, a.right))
        if a is not _BOT and x not in free_vars(a).model:
            return Not(And(Not(a), Not(Forall(x, _BOT))))  # a | forall x. F
    elif t is QueryConst:
        a, c = f.body, f.const
        if type(a) is And:
            return And(QueryConst(a.left, c), QueryConst(a.right, c))
        if type(a) is Not:
            return And(QueryConst(_TOP, c), Not(QueryConst(a.operand, c)))
    return None


_lock = threading.Lock()
_stream: Optional[_Stream] = None  # the most recent setting's stream


def _stream_for(budget: EnumerationBudget) -> _Stream:
    """The shared stream of the budget's setting, replacing any other."""
    global _stream
    key = (budget.max_modal_depth, budget.vocab, budget.allow_xi)
    with _lock:
        if _stream is None or _stream.key != key:
            _stream = _Stream(*key)
        return _stream


def enumerate_sentences(budget: EnumerationBudget) -> Iterator[Formula]:
    """All sentences in the canonical fragment, in size-then-text order,
    duplicates removed; they are sentences by construction."""
    stream = _stream_for(budget)
    start = 0
    for cost in range(budget.max_connective_depth + 1):
        end = stream.end(cost)
        yield from stream.sentences[start:end]
        start = end


def distinguish(pm: PointedModel, pn: PointedModel, budget: EnumerationBudget) -> Optional[Formula]:
    """First enumerated sentence the two pointed models disagree on, or
    None when the whole fragment agrees.  Only the stream's search list is
    read (see the module docstring).  Each of its sentences is evaluated
    once, over the disjoint union of the two models, with no sentence check
    (the stream checked it when it was built), and its value at each
    pointed world read off one bit.  Before a hit is returned, an unmemoized
    evaluation of each side on its own must give it the same value.  Just
    before the last cost batch, a checked proof of bisimilarity answers
    None without reading that batch."""
    stream = _stream_for(budget)
    worlds, (bit_m, bit_n) = Evaluator().checked_masks(pm, pn)
    last = budget.max_connective_depth
    start = 0
    for cost in range(last + 1):
        if cost == last and _proved_bisimilar(pm, pn, budget.vocab):
            return None
        stream.end(cost)
        end = stream.search_ends[cost]
        for sentence in stream.search[start:end]:
            mask = worlds(sentence)
            if (not mask & bit_m) != (not mask & bit_n):
                held = [bool(mask & bit_m), bool(mask & bit_n)]
                if held != [holds_at(p.model, p.world, sentence, use_memo=False) for p in (pm, pn)]:
                    raise RuntimeError(
                        f"evaluation over the pair and direct evaluation disagree on {format_formula(sentence)!r}"
                    )
                return sentence
        start = end
    return None


def _proved_bisimilar(pm: PointedModel, pn: PointedModel, vocab: Vocabulary) -> bool:
    """Whether `bisimilar` finds the pair bisimilar over `vocab` within
    `_PROOF_BUDGET` search nodes, with a witness that `check_witness` accepts.
    A budget cutoff proves nothing."""
    try:
        verdict = bisimilar(pm, pn, vocab=vocab, budget=_PROOF_BUDGET)
    except BudgetExceededError:
        return False
    return verdict.bisimilar and check_witness(pm, pn, verdict.witness, vocab=vocab).ok
