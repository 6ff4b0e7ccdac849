import gc
import hashlib
import importlib
import itertools
import sys
import threading
import weakref

import pytest

from gkmc.bisim import bisimilar, brute_force_bisim
from gkmc.distinguish import EnumerationBudget, distinguish, enumerate_sentences
from gkmc.generate import GenSpec, SplitMix64, break_child, dup_child, gen_model
from gkmc.model import GenealogicalModel, PointedModel
from gkmc.semantics import holds_at
from gkmc.syntax import Prop, Vocabulary, check_sentence, format_formula, parse

P_ONLY = Vocabulary.of(props=["p"])
P_C = Vocabulary.of(props=["p"], constants=["c"])

# `gkmc.distinguish` is the re-exported function; the module holds the shared stream.
_distinguish_module = importlib.import_module("gkmc.distinguish")


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
    real = _distinguish_module.check_sentence
    checked = []

    def fail_inside_cost_four(f):
        if len(_distinguish_module._stream.ends) == 4:
            checked.append(f)
            if len(checked) == 100:
                raise RuntimeError("injected")
        return real(f)

    monkeypatch.setattr(_distinguish_module, "check_sentence", fail_inside_cost_four)
    with pytest.raises(RuntimeError, match="injected"):
        list(enumerate_sentences(EnumerationBudget(4, 4, P_C)))
    stream = _distinguish_module._stream
    assert len(stream.sentences) == stream.ends[-1] == 603 and len(stream.ends) == 4
    monkeypatch.setattr(_distinguish_module, "check_sentence", real)
    assert _pinned(_texts(enumerate_sentences(EnumerationBudget(4, 4, P_C))))


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


def test_stream_members_are_sentences():
    budget = EnumerationBudget(3, 3, P_C, allow_xi=True)
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


def test_bisimilar_pairs_never_separated():
    found = 0
    seed = 0
    while found < 12 and seed < 300:
        m = gen_model(GenSpec(seed=seed, max_worlds=3, max_children=1, max_depth=1, prop_count=1, constant_count=1))
        seed += 1
        if not m.children:
            continue
        found += 1
        d = dup_child(m, sorted(m.children)[0])
        assert bisimilar(_pointed(m), _pointed(d)).bisimilar
        assert distinguish(_pointed(m), _pointed(d), EnumerationBudget(3, 2, P_C)) is None
    assert found == 12


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


def test_separators_do_not_depend_on_the_retained_stream(monkeypatch):
    budget = EnumerationBudget(4, 4, P_C)
    pairs = list(_break_child_pairs())
    cold = []
    for pa, pb in pairs:
        monkeypatch.setattr(_distinguish_module, "_stream", None)
        cold.append(distinguish(pa, pb, budget))
    list(enumerate_sentences(EnumerationBudget(3, 2, P_ONLY, allow_xi=False)))
    assert [distinguish(pa, pb, budget) for pa, pb in pairs] == cold
