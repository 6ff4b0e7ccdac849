import functools
import gc
import hashlib
import importlib
import itertools
import json
import re
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from gkmc.bisim import BisimVerdict, BisimWitness, BudgetExceededError, bisimilar, brute_force_bisim
from gkmc.distinguish import EnumerationBudget, distinguish, enumerate_sentences
from gkmc.generate import GenSpec, SplitMix64, break_child, derive, dup_child, gen_model, rename_worlds
from gkmc.model import GenealogicalModel, PointedModel, load_model, model_vocabulary
from gkmc.semantics import Evaluator, evaluate_sentence, holds_at
from gkmc.syntax import (
    And,
    Box,
    Forall,
    Not,
    Prop,
    QueryConst,
    QueryVar,
    Top,
    Vocabulary,
    bot,
    check_sentence,
    format_formula,
    free_vars,
    or_,
    parse,
    subformulas,
)

from conftest import TINY, load_script, same_structure, twins_and_retrack

P_ONLY = Vocabulary.of(props=["p"])
P_C = Vocabulary.of(props=["p"], constants=["c"])

# `gkmc.distinguish` is the re-exported function; the module holds the shared stream.
_distinguish_module = importlib.import_module("gkmc.distinguish")
_semantics_module = importlib.import_module("gkmc.semantics")


def _pointed(m, k=0):
    return PointedModel(m, m.worlds[k])


# --- enumeration ---------------------------------------------------------


def test_depth_one_stream():
    stream = list(enumerate_sentences(EnumerationBudget(1, 1, P_ONLY, allow_xi=False)))
    texts = [format_formula(f) for f in stream]
    assert texts[0] == "T"
    for member in ["T", "F", "p", "~p", "[]p", "<>p", "[]T"]:
        assert parse(member, P_ONLY) in stream, member
    assert len(texts) == len(set(texts))


def _digest(texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def _texts(sentences):
    return [format_formula(f) for f in sentences]


@pytest.mark.parametrize("cost,count,digest", [(3, 603, "dc4b14ea53b29d65"), (4, 4861, "53cfb7c5d3c33d90")])
def test_stream_order_is_pinned(cost, count, digest):
    # The order decides which separator `distinguish` returns.
    texts = [format_formula(f) for f in enumerate_sentences(EnumerationBudget(cost, 4, P_C))]
    assert len(texts) == count
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16] == digest


# --- the shared stream ------------------------------------------------------

PINNED_4_4 = (4861, "53cfb7c5d3c33d90")


@pytest.fixture
def empty_stream(monkeypatch):
    monkeypatch.setattr(_distinguish_module, "_stream", None)


def _pinned(texts):
    return (len(texts), _digest(texts)) == PINNED_4_4


def test_shared_stream_extends_a_shorter_read(empty_stream):
    short = _texts(enumerate_sentences(EnumerationBudget(2, 4, P_C)))
    full = _texts(enumerate_sentences(EnumerationBudget(4, 4, P_C)))
    assert full[: len(short)] == short
    assert _pinned(full)


def test_interleaved_readers_each_get_the_whole_stream(empty_stream):
    budget = EnumerationBudget(4, 4, P_C)
    a, b = enumerate_sentences(budget), enumerate_sentences(budget)
    got_a, got_b = [], []
    while len(got_a) < 3:  # the cost-0 batch is T and p
        got_a.append(next(a))
        got_b.append(next(b))
    assert len(_distinguish_module._stream.ends) == 2  # both paused inside cost 1
    got_b += b
    assert len(_distinguish_module._stream.ends) == 5
    got_a += a
    assert _pinned(_texts(got_a)) and _pinned(_texts(got_b))


def test_paused_reader_keeps_its_own_setting(empty_stream):
    paused = enumerate_sentences(EnumerationBudget(4, 4, P_C))
    head = list(itertools.islice(paused, 10))
    other = EnumerationBudget(3, 2, P_ONLY, allow_xi=False)
    list(enumerate_sentences(other))
    assert _distinguish_module._stream.key == (2, P_ONLY, False)
    assert _pinned(_texts(head) + _texts(paused))


def test_failed_batch_is_not_committed(empty_stream, monkeypatch):
    # Building a batch formats each formula it meets for the first time.
    real = _distinguish_module.format_formula
    formatted = []

    def fail_inside_cost_four(f):
        if len(_distinguish_module._stream.ends) == 4:
            formatted.append(f)
            if len(formatted) == 100:
                raise RuntimeError("injected")
        return real(f)

    monkeypatch.setattr(_distinguish_module, "format_formula", fail_inside_cost_four)
    with pytest.raises(RuntimeError, match="injected"):
        list(enumerate_sentences(EnumerationBudget(4, 4, P_C)))
    stream = _distinguish_module._stream
    assert len(stream.sentences) == stream.ends[-1] == 603 and len(stream.ends) == 4
    monkeypatch.setattr(_distinguish_module, "format_formula", real)
    assert _pinned(_texts(enumerate_sentences(EnumerationBudget(4, 4, P_C))))


def test_a_batch_with_a_non_sentence_raises_and_is_not_committed(empty_stream, monkeypatch):
    head = _texts(enumerate_sentences(EnumerationBudget(1, 4, P_C)))
    real = _distinguish_module._Stream._build

    def leaky(self, cost, modal, ctx):
        yield from real(self, cost, modal, ctx)
        if (cost, modal, ctx) == (2, self.key[0], _distinguish_module._ROOT):
            yield QueryVar(Prop("p"), "x")  # x is free

    monkeypatch.setattr(_distinguish_module._Stream, "_build", leaky)
    with pytest.raises(RuntimeError, match=re.escape("non-sentence: '?[p] x'")):
        list(enumerate_sentences(EnumerationBudget(4, 4, P_C)))
    stream = _distinguish_module._stream
    assert len(stream.ends) == 2 and _texts(stream.sentences) == head


def test_equal_stream_nodes_are_one_object(empty_stream):
    # Memo lookups on stream sentences then compare by identity.
    one = {}
    for sentence in enumerate_sentences(EnumerationBudget(3, 3, P_C)):
        for _, node in subformulas(sentence):
            assert one.setdefault(node, node) is node, format_formula(node)


def _counted(monkeypatch, module):
    """Calls of `check_sentence` made through `module`'s name for it."""
    real, calls = module.check_sentence, []

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(module, "check_sentence", counted)
    return calls


def test_sentences_are_checked_once_per_stream(empty_stream, monkeypatch):
    stream_checks = _counted(monkeypatch, _distinguish_module)
    evaluator_checks = _counted(monkeypatch, _semantics_module)
    budget = EnumerationBudget(4, 4, P_C)
    pm, pn = _dup_child_pair()
    assert distinguish(pm, pn, budget) is None  # reads the batches up to cost 3
    assert [id(f) for f in stream_checks] == [id(f) for f in _distinguish_module._stream.sentences]
    assert len(stream_checks) == 603 and evaluator_checks == []
    sentences = list(enumerate_sentences(budget))
    assert len(stream_checks) == len(sentences) == PINNED_4_4[0]
    # On the warm stream a call checks nothing but the hit it re-verifies.
    stream_checks.clear()
    pa, pb = next(_break_child_pairs())
    separator = distinguish(pa, pb, budget)
    assert separator is not None and distinguish(pm, pn, budget) is None
    assert stream_checks == [] and evaluator_checks == [separator, separator]


def test_concurrent_readers_share_one_stream(empty_stream):
    budget = EnumerationBudget(4, 4, P_C)
    results = [None] * 4

    def read(k):
        results[k] = _texts(enumerate_sentences(budget))

    threads = [threading.Thread(target=read, args=(k,)) for k in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(texts is not None and _pinned(texts) for texts in results)
    stream = _distinguish_module._stream
    assert len(stream.sentences) == len(set(stream.sentences)) == stream.ends[-1] == PINNED_4_4[0]


def test_only_the_latest_setting_is_retained(empty_stream):
    list(enumerate_sentences(EnumerationBudget(3, 3, P_C)))
    first = weakref.ref(_distinguish_module._stream)
    list(enumerate_sentences(EnumerationBudget(3, 3, P_ONLY)))
    gc.collect()
    assert first() is None


@pytest.mark.parametrize(
    "bad",
    [dict(max_connective_depth=-1), dict(max_modal_depth=-2), dict(max_connective_depth=1.5), dict(vocab={"p"})],
)
def test_invalid_budget_rejected(bad):
    with pytest.raises(ValueError):
        EnumerationBudget(**{**dict(max_connective_depth=2, max_modal_depth=2, vocab=P_C), **bad})


def test_stream_is_deterministic():
    budget = EnumerationBudget(3, 2, P_C, allow_xi=True)
    first = [format_formula(f) for f in enumerate_sentences(budget)]
    second = [format_formula(f) for f in enumerate_sentences(budget)]
    assert first == second


P2_C2 = Vocabulary.of(props=["p", "q"], constants=["c", "d"])


# The stream checks each sentence once, as it commits its batch; this
# runs the check at four settings, independently of that.
@pytest.mark.parametrize(
    "budget",
    [
        EnumerationBudget(4, 4, P_C),
        EnumerationBudget(4, 4, P_C, allow_xi=False),
        EnumerationBudget(4, 4, P2_C2),
        EnumerationBudget(5, 2, P_C),
    ],
    ids=["4-4", "4-4-no-xi", "4-4-two-props-two-consts", "5-2"],
)
def test_stream_members_are_sentences(budget):
    for f in enumerate_sentences(budget):
        assert check_sentence(f).verdict, format_formula(f)


def test_stream_has_no_structural_duplicates():
    budget = EnumerationBudget(3, 3, P_C, allow_xi=True)
    stream = list(enumerate_sentences(budget))
    assert len(stream) == len(set(stream))


def test_xi_forall_query_within_depth_three():
    budget = EnumerationBudget(3, 1, P_C, allow_xi=True)
    assert parse("xi X. forall x. ?[X] x") in set(enumerate_sentences(budget))


def test_no_xi_budget_excludes_xi():
    from gkmc.syntax import Xi, subformulas

    budget = EnumerationBudget(3, 2, P_C, allow_xi=False)
    for f in enumerate_sentences(budget):
        assert not any(isinstance(node, Xi) for _, node in subformulas(f))


def test_modal_budget_respected():
    from gkmc.syntax import And, Box, Forall, Not, QueryConst, QueryVar, Xi

    def modal_depth(f):
        if isinstance(f, Box):
            return 1 + modal_depth(f.operand)
        if isinstance(f, Not):
            return modal_depth(f.operand)
        if isinstance(f, And):
            return max(modal_depth(f.left), modal_depth(f.right))
        if isinstance(f, (Forall, Xi, QueryVar, QueryConst)):
            return modal_depth(f.body)
        return 0

    budget = EnumerationBudget(4, 1, P_ONLY, allow_xi=False)
    for f in itertools.islice(enumerate_sentences(budget), 400):
        assert modal_depth(f) <= 1, format_formula(f)


# --- distinguishing ------------------------------------------------------


def test_prop_difference_found_immediately():
    m = gen_model(GenSpec(seed=3, max_worlds=3, max_children=1, max_depth=1, prop_count=1, constant_count=1))
    w0 = m.worlds[0]
    valuation = dict(m.valuation)
    valuation["p"] = valuation.get("p", frozenset()) ^ {w0}
    n = GenealogicalModel(m.worlds, m.relation, valuation, m.children, m.assignment, m.tracking)
    separator = distinguish(_pointed(m), _pointed(n), EnumerationBudget(3, 3, P_C))
    assert separator == Prop("p")


def test_identical_pointed_models_never_separated():
    m = gen_model(GenSpec(seed=8, max_worlds=3, max_children=2, max_depth=1, prop_count=1))
    for d in (1, 2, 3):
        assert distinguish(_pointed(m), _pointed(m), EnumerationBudget(d, d, P_C)) is None


def _agree_on_stream(pairs, budget):
    """Count the sentences of the whole stream on which a pointed pair
    disagrees, evaluating each directly and never through `distinguish`.
    `pairs` holds (left model, right model, [(left world, right world)])."""
    disagreements = 0
    for m, n, worlds in pairs:
        left, right = Evaluator(), Evaluator()
        for sentence in enumerate_sentences(budget):
            sat_m, sat_n = left.sentence_worlds(m, sentence), right.sentence_worlds(n, sentence)
            disagreements += sum((s in sat_m) != (t in sat_n) for s, t in worlds)
    return disagreements


def test_bisimilar_pairs_never_separated():
    pairs = []
    seed = 0
    while len(pairs) < 12 and seed < 300:
        m = gen_model(GenSpec(seed=seed, max_worlds=3, max_children=1, max_depth=1, prop_count=1, constant_count=1))
        seed += 1
        if not m.children:
            continue
        d = dup_child(m, sorted(m.children)[0])
        assert bisimilar(_pointed(m), _pointed(d)).bisimilar
        pairs.append((m, d, [(m.worlds[0], d.worlds[0])]))
    assert len(pairs) == 12
    assert _agree_on_stream(pairs, EnumerationBudget(3, 2, P_C)) == 0


def _bisimilar_world_pairs(m, n):
    return [(s, t) for s in m.worlds for t in n.worlds if bisimilar(PointedModel(m, s), PointedModel(n, t), vocab=P_C).bisimilar]


def test_bisimilar_non_copies_agree_on_the_whole_stream():
    # The invariance result that lets `distinguish` stop at a proof of
    # bisimilarity, tested on pairs that are not copies of each other:
    # independent random models at every world pair, and retrack pairs.
    pairs = []
    for seed in range(2500):
        m = gen_model(GenSpec(seed=derive(seed, "left"), **TINY))
        n = gen_model(GenSpec(seed=derive(seed, "right"), **TINY))
        worlds = [(s, t) for s, t in _bisimilar_world_pairs(m, n) if s != t or not same_structure(m, n)]
        if worlds:
            pairs.append((m, n, worlds))
    retracked = []
    for seed in range(300):
        got = twins_and_retrack(seed)
        if got is not None:
            m, r = got
            worlds = [(s, t) for s, t in _bisimilar_world_pairs(m, r) if not same_structure(m, r)]
            if worlds:
                retracked.append((m, r, worlds))
    assert sum(len(worlds) for _, _, worlds in pairs) >= 80
    assert sum(len(worlds) for _, _, worlds in retracked) >= 40
    assert _agree_on_stream(pairs + retracked, EnumerationBudget(3, 3, P_C)) == 0


def _break_child_pairs():
    """Oracle-certified non-bisimilar tiny pairs shaped like acceptance criterion 8."""
    for seed in range(60):
        m = gen_model(GenSpec(seed=seed, max_worlds=3, max_children=2, max_depth=1, prop_count=1, constant_count=1, edge_density=0.45))
        if not m.children:
            continue
        rng = SplitMix64(seed)
        label = rng.choice(sorted(m.children))
        world = rng.choice(m.children[label].worlds)
        b = break_child(m, label, "p", world)
        pa, pb = _pointed(m), _pointed(b)
        if not brute_force_bisim(pa, pb):
            yield pa, pb


def test_break_child_pairs_get_verified_separators():
    separated = total = 0
    for pa, pb in _break_child_pairs():
        total += 1
        separator = distinguish(pa, pb, EnumerationBudget(4, 4, P_C))
        if separator is None:
            continue
        separated += 1
        assert holds_at(pa.model, pa.world, separator) != holds_at(pb.model, pb.world, separator)
    assert total >= 20
    assert separated / total >= 0.9


def test_distinguish_deterministic():
    m = gen_model(GenSpec(seed=5, max_worlds=3, max_children=2, max_depth=1, prop_count=1))
    n = gen_model(GenSpec(seed=17, max_worlds=3, max_children=2, max_depth=1, prop_count=1))
    budget = EnumerationBudget(3, 3, P_C)
    first = distinguish(_pointed(m), _pointed(n), budget)
    second = distinguish(_pointed(m), _pointed(n), budget)
    assert first == second


def _tiny_pair(seed, shape, i, j):
    """A tiny pair: two independent models, or a model and its `dup_child`
    or `break_child` copy, pointed at the worlds `i` and `j` (modulo size)."""
    m = gen_model(GenSpec(seed=seed, **TINY))
    if shape == "independent" or not m.children:
        n = gen_model(GenSpec(seed=seed + 1, **TINY))
    else:
        label = sorted(m.children)[0]
        child_world = m.children[label].worlds[j % len(m.children[label].worlds)]
        n = dup_child(m, label) if shape == "dup_child" else break_child(m, label, "p", child_world)
    return PointedModel(m, m.worlds[i % len(m.worlds)]), PointedModel(n, n.worlds[j % len(n.worlds)])


# The examples are (4,4) pairs whose search reads into the cost-4 batch:
# separated there, non-bisimilar and separated nowhere, and bisimilar.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.sampled_from(["independent", "dup_child", "break_child"]),
    st.integers(0, 2),
    st.integers(0, 2),
    st.booleans(),
    st.just(3),
)
@example(93, "break_child", 2, 1, True, 4)
@example(147, "break_child", 0, 0, True, 4)
@example(221, "break_child", 0, 0, True, 4)
@example(50, "break_child", 0, 0, True, 4)
@example(135, "break_child", 1, 2, True, 4)
@example(0, "dup_child", 0, 0, True, 4)
def test_distinguish_returns_the_first_sentence_direct_evaluation_separates(seed, shape, i, j, allow_xi, depth):
    pm, pn = _tiny_pair(seed, shape, i, j)
    budget = EnumerationBudget(depth, depth, P_C, allow_xi=allow_xi)
    first = next(
        (
            s
            for s in enumerate_sentences(budget)
            if holds_at(pm.model, pm.world, s, use_memo=False) != holds_at(pn.model, pn.world, s, use_memo=False)
        ),
        None,
    )
    assert distinguish(pm, pn, budget) == first
    assert distinguish(pn, pm, budget) == first


def test_separators_do_not_depend_on_the_retained_stream(monkeypatch):
    budget = EnumerationBudget(4, 4, P_C)
    pairs = list(_break_child_pairs())
    cold = []
    for pa, pb in pairs:
        monkeypatch.setattr(_distinguish_module, "_stream", None)
        cold.append(distinguish(pa, pb, budget))
    list(enumerate_sentences(EnumerationBudget(3, 2, P_ONLY, allow_xi=False)))
    assert [distinguish(pa, pb, budget) for pa, pb in pairs] == cold


def test_a_hit_the_direct_evaluations_do_not_confirm_is_an_error(monkeypatch):
    one = load_model('{"worlds": ["w0"], "valuation": {"p": ["w0"]}}')
    none = load_model('{"worlds": ["w0"]}')
    budget = EnumerationBudget(2, 2, P_ONLY)
    assert distinguish(_pointed(one), _pointed(none), budget) == Prop("p")
    calls = []

    def agreeing(model, world, sentence, use_memo=True):
        calls.append((model, format_formula(sentence), use_memo))
        return True

    monkeypatch.setattr(_distinguish_module, "holds_at", agreeing)
    with pytest.raises(RuntimeError, match="disagree on 'p'"):
        distinguish(_pointed(one), _pointed(none), budget)
    assert calls == [(one, "p", False), (none, "p", False)]


def test_a_hit_whose_values_the_direct_evaluations_swap_is_an_error(monkeypatch):
    # Each side's direct evaluation must give the value the pair record gave it.
    one = load_model('{"worlds": ["w0"], "valuation": {"p": ["w0"]}}')
    none = load_model('{"worlds": ["w0"]}')
    monkeypatch.setattr(_distinguish_module, "holds_at", lambda model, world, sentence, use_memo=True: model is none)
    with pytest.raises(RuntimeError, match="disagree on 'p'"):
        distinguish(_pointed(one), _pointed(none), EnumerationBudget(2, 2, P_ONLY))


# --- the proof of bisimilarity before the last batch -------------------------


def _dup_child_pair():
    m = gen_model(GenSpec(seed=1, **TINY))
    return _pointed(m), _pointed(dup_child(m, sorted(m.children)[0]))


def _last_batch_separated_pair():
    """(left, right, separator, budget): a non-bisimilar pair, its separator
    and a budget whose last cost batch holds that separator."""
    for pa, pb in _break_child_pairs():
        for cost in range(2, 5):
            budget = EnumerationBudget(cost, 4, P_C)
            separator = distinguish(pa, pb, budget)
            if separator is not None and distinguish(pa, pb, EnumerationBudget(cost - 1, 4, P_C)) is None:
                return pa, pb, separator, budget
    raise AssertionError("no pair separated only at cost 2 or more")


def test_the_sweep_evaluates_each_sentence_once_over_the_pair(monkeypatch, empty_stream):
    # An exhausting pair at (3,3): with the proof switched off, the search
    # reads the whole search list, in stream order, and no other sentence.
    # Each sentence is one entry into `_eval`, at the record over both
    # models; recursive calls are not entries.
    pm, pn = _dup_child_pair()
    budget = EnumerationBudget(3, 3, P_C)
    monkeypatch.setattr(_distinguish_module, "_proved_bisimilar", lambda *args: False)
    entries, depth, evaluate = [], [0], Evaluator._eval

    def counted(self, r, f, mv, fv):
        if not depth[0]:
            entries.append((tuple(r.parts), f))
        depth[0] += 1
        try:
            return evaluate(self, r, f, mv, fv)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Evaluator, "_eval", counted)
    assert distinguish(pm, pn, budget) is None
    stream = _distinguish_module._stream
    assert len(stream.sentences) == 603 and len(stream.search) == 302
    assert entries == [((pm.model, pn.model), sentence) for sentence in stream.search]
    searched = set(stream.search)
    assert stream.search == [sentence for sentence in stream.sentences if sentence in searched]  # in stream order
    skipped = set(stream.sentences) - searched
    assert len(skipped) == 603 - 302 and not skipped & {f for _, f in entries}


# --- the search list ---------------------------------------------------------

# The validities the search list drops sentences by, as stated in the
# `distinguish` module docstring: each maps a sentence of its shape to the
# Boolean combination of other sentences it equals, and anything else to None.


def _box_and(f):
    if type(f) is Box and type(f.operand) is And:
        return And(Box(f.operand.left), Box(f.operand.right))


def _forall_and(f):
    if type(f) is Forall and type(f.body) is And:
        return And(Forall(f.var, f.body.left), Forall(f.var, f.body.right))


def _forall_vacuous(f):
    if type(f) is Forall and type(f.body) is not And and f.var not in free_vars(f.body).model and f.body is not bot():
        return or_(f.body, Forall(f.var, bot()))


def _query_and(f):
    if type(f) is QueryConst and type(f.body) is And:
        return And(QueryConst(f.body.left, f.const), QueryConst(f.body.right, f.const))


def _query_not(f):
    if type(f) is QueryConst and type(f.body) is Not:
        return And(QueryConst(Top(), f.const), Not(QueryConst(f.body.operand, f.const)))


STATED = {"box-and": _box_and, "forall-and": _forall_and, "forall-vacuous": _forall_vacuous,
          "query-and": _query_and, "query-not": _query_not}


@functools.cache
def _stream_3_3_and_4_4():
    budgets = EnumerationBudget(3, 3, P_C), EnumerationBudget(4, 4, P_C)
    return tuple(dict.fromkeys(f for budget in budgets for f in enumerate_sentences(budget)))


@functools.cache
def _shaped(rule):
    """The sentences of `_stream_3_3_and_4_4` that `rule` applies to."""
    return [f for f in _stream_3_3_and_4_4() if STATED[rule](f) is not None]


def _combined(m, f):
    """The worlds of `m` where `f` holds, `~` and `&` taken as set operations
    over the unmemoized world sets of the sentences they combine."""
    if type(f) is Not:
        return frozenset(m.worlds) - _combined(m, f.operand)
    if type(f) is And:
        return _combined(m, f.left) & _combined(m, f.right)
    return evaluate_sentence(m, f, use_memo=False)


@pytest.mark.parametrize("rule", STATED)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), picks=st.lists(st.integers(0, 10**6), min_size=4, max_size=4))
def test_each_rule_of_the_search_list_is_a_validity(rule, seed, picks):
    m = gen_model(GenSpec(seed=seed, **TINY))
    shaped = _shaped(rule)
    for k in picks:
        f = shaped[k % len(shaped)]
        assert evaluate_sentence(m, f, use_memo=False) == _combined(m, STATED[rule](f)), format_formula(f)


def test_the_search_list_applies_the_stated_rules_and_no_other():
    for f in _stream_3_3_and_4_4():
        stated = [same(f) for same in STATED.values() if same(f) is not None]
        assert len(stated) <= 1, format_formula(f)
        assert _distinguish_module._equivalent(f) is (stated[0] if stated else None), format_formula(f)
    assert all(len(_shaped(rule)) >= 20 for rule in STATED)


def test_bisimilar_pair_skips_the_last_batch(empty_stream):
    pm, pn = _dup_child_pair()
    assert distinguish(pm, pn, EnumerationBudget(4, 4, P_C)) is None
    assert len(_distinguish_module._stream.ends) == 4  # the cost-4 batch was never built


def test_early_separator_builds_no_later_batch(empty_stream):
    pm, pn = _dup_child_pair()
    m = pm.model
    flipped = GenealogicalModel(m.worlds, m.relation, {"p": frozenset(m.worlds) - m.valuation.get("p", frozenset())}, m.children, m.assignment, m.tracking)
    assert distinguish(pm, _pointed(flipped), EnumerationBudget(4, 4, P_C)) == Prop("p")
    assert len(_distinguish_module._stream.ends) == 1


def test_separator_in_the_last_batch_is_still_found():
    pa, pb, separator, _ = _last_batch_separated_pair()
    assert not bisimilar(pa, pb, vocab=P_C).bisimilar
    assert holds_at(pa.model, pa.world, separator, use_memo=False) != holds_at(pb.model, pb.world, separator, use_memo=False)


def _budget_exhausted(*args, **kwargs):
    raise BudgetExceededError("injected")


def _unchecked_witness(*args, **kwargs):
    return BisimVerdict(True, BisimWitness(z=frozenset(), h=frozenset(), child_witnesses={}))


@pytest.mark.parametrize("fake", [_budget_exhausted, _unchecked_witness], ids=["budget-exceeded", "witness-fails-check"])
def test_an_unproved_bisimilarity_falls_back_to_the_stream(monkeypatch, fake):
    bisimilar_pm, bisimilar_pn = _dup_child_pair()
    pa, pb, separator, budget = _last_batch_separated_pair()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fake(*args, **kwargs)

    monkeypatch.setattr(_distinguish_module, "bisimilar", counted)
    assert distinguish(bisimilar_pm, bisimilar_pn, budget) is None
    assert distinguish(pa, pb, budget) == separator
    assert len(calls) == 2  # once per call, before the last batch


def test_a_real_budget_cutoff_falls_back_to_the_stream(monkeypatch, empty_stream):
    monkeypatch.setattr(_distinguish_module, "_PROOF_BUDGET", 0)
    pm, pn = _dup_child_pair()
    assert distinguish(pm, pn, EnumerationBudget(4, 4, P_C)) is None
    assert len(_distinguish_module._stream.ends) == 5  # the whole stream was read


def _matching_pair(k):
    """A non-bisimilar pair of k identical children: identical k-world
    chains, all tracked at the chain's end at the roots; the left root's
    one successor tracks child i at chain world i, the right root's two
    successors at j and j+1 mod k, so no cover of the roots' children fits
    both.  A search through the perfect matchings of the children one at
    a time would try k! of them."""
    labels = [f"k{i}" for i in range(k)]
    child = {"worlds": [f"c{i}" for i in range(k)], "relation": [[f"c{i}", f"c{i - 1}"] for i in range(1, k)]}
    at = lambda shift: {label: f"c{(i + shift) % k}" for i, label in enumerate(labels)}
    left = {"worlds": ["s", "a"], "relation": [["s", "a"]], "children": dict.fromkeys(labels, child),
            "tracking": {"s": dict.fromkeys(labels, "c0"), "a": at(0)}}
    right = {"worlds": ["t", "a", "b"], "relation": [["t", "a"], ["t", "b"]], "children": dict.fromkeys(labels, child),
             "tracking": {"t": dict.fromkeys(labels, "c0"), "a": at(0), "b": at(1)}}
    return PointedModel(load_model(json.dumps(left)), "s"), PointedModel(load_model(json.dumps(right)), "t")


@pytest.mark.parametrize("k", [6, 8, 12])
def test_matching_pairs_are_decided_within_a_small_budget(k):
    # Each of the k * k child pairs decided at the roots' tracked worlds
    # costs one search node; the roots' own search needs few more.
    pm, pn = _matching_pair(k)
    assert not bisimilar(pm, pn, vocab=P_ONLY, budget=k * k + 100).bisimilar


def test_a_matching_pair_proof_returns_a_verdict_within_the_proof_budget(monkeypatch):
    pm, pn = _matching_pair(6)
    budgets = []

    def recorded(*args, budget, **kwargs):
        budgets.append(budget)
        return bisimilar(*args, budget=budget, **kwargs)

    assert not bisimilar(pm, pn, vocab=P_ONLY, budget=_distinguish_module._PROOF_BUDGET).bisimilar
    monkeypatch.setattr(_distinguish_module, "bisimilar", recorded)
    assert distinguish(pm, pn, EnumerationBudget(3, 4, P_ONLY)) is None
    assert format_formula(distinguish(pm, pn, EnumerationBudget(4, 4, P_ONLY))) == "forall x. ~[]~?[~[]F] x"
    assert budgets == [_distinguish_module._PROOF_BUDGET] * 2


def test_a_costly_proof_gives_up_within_the_proof_budget(empty_stream):
    # A bisimilar pair whose search needs about 4,000 nodes: the proof
    # stops after _PROOF_BUDGET of them and the whole stream is read.  The
    # right side's worlds are renamed, so reflexivity answers no child pair.
    m = gen_model(GenSpec(seed=0, max_worlds=24, max_children=8, max_depth=3, edge_density=0.3))
    pm, pn = PointedModel(m, "s0"), PointedModel(rename_worlds(dup_child(m, "n0")), "rs0")
    vocab = model_vocabulary(pm.model, pn.model)
    with pytest.raises(BudgetExceededError):
        bisimilar(pm, pn, vocab=vocab, budget=_distinguish_module._PROOF_BUDGET)
    assert bisimilar(pm, pn, vocab=vocab).bisimilar
    assert distinguish(pm, pn, EnumerationBudget(4, 4, vocab)) is None
    assert len(_distinguish_module._stream.ends) == 5  # the whole stream was read


@pytest.mark.parametrize("fake", [None, _budget_exhausted, _unchecked_witness], ids=["real", "budget-exceeded", "witness-fails-check"])
def test_connective_depth_zero(monkeypatch, fake):
    if fake is not None:
        monkeypatch.setattr(_distinguish_module, "bisimilar", fake)
    budget = EnumerationBudget(0, 0, P_C)
    pm, pn = _dup_child_pair()
    assert distinguish(pm, pn, budget) is None
    m = pm.model
    flipped = GenealogicalModel(m.worlds, m.relation, {"p": frozenset(m.worlds) - m.valuation.get("p", frozenset())}, m.children, m.assignment, m.tracking)
    assert distinguish(pm, _pointed(flipped), budget) == Prop("p")
    pa, pb, _, _ = _last_batch_separated_pair()
    assert distinguish(pa, pb, budget) is None


def test_distinguish_digest_is_pinned():
    # Separators at (4,4) of 100 break_child, dup_child and retrack pairs,
    # pinned in the script to the parent's answers; a change here changes
    # what distinguish returns.
    script = load_script("distinguish_digest")
    lines = script.outcomes(script.PAIRS, script.SEED)
    assert script.digest(lines) == script.PINNED
    # The population holds a non-bisimilar pair with no separator at (4,4).
    assert "break_child None" in lines
