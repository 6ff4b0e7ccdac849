import gc
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from gkmc.distinguish import EnumerationBudget, enumerate_sentences
from gkmc.generate import GenSpec, gen_model, gen_sentence
from gkmc.model import load_model, load_model_file, model_vocabulary
from gkmc.semantics import (
    Evaluator,
    NotASentenceError,
    UndefinedInterpretationError,
    evaluate_sentence,
    holds_at,
)
from gkmc.syntax import (
    And,
    Box,
    Forall,
    Formula,
    FormulaVar,
    Not,
    Prop,
    QueryConst,
    QueryVar,
    Top,
    Vocabulary,
    Xi,
    diamond,
    free_vars,
    parse,
)

from conftest import load_script

REPO = pathlib.Path(__file__).resolve().parent.parent

VOCAB = Vocabulary.of(props=["p", "q", "r", "a", "b"], constants=["c"])


def test_top_denotes_all_worlds(de_dicto):
    assert evaluate_sentence(de_dicto, Top()) == frozenset(de_dicto.worlds)


def test_de_dicto_sentence(de_dicto):
    s = parse("([] exists x. ?[r] x & (~ exists x. [] ?[r] x & [] ?[r] #c))", VOCAB)
    assert holds_at(de_dicto, "s0", s)


def test_de_dicto_conjuncts_separately(de_dicto):
    assert holds_at(de_dicto, "s0", parse("[] exists x. ?[r] x", VOCAB))
    assert holds_at(de_dicto, "s0", parse("~ exists x. [] ?[r] x", VOCAB))
    assert holds_at(de_dicto, "s0", parse("[] ?[r] #c", VOCAB))


def test_deadlock_sentence(deadlock):
    s = parse(
        "exists x. exists y. (?[<> (a & ~b)] x & ?[<> (~a & b)] y)"
        " & ~ <> exists x. exists y. (?[(a & ~b)] x & ?[(~a & b)] y)",
        VOCAB,
    )
    assert holds_at(deadlock, "s0", s)
    assert not holds_at(
        deadlock, "s0", parse("<> exists x. exists y. (?[(a & ~b)] x & ?[(~a & b)] y)", VOCAB)
    )


def test_waitall_sentence(waitall):
    assert holds_at(waitall, "s0", parse("[] xi X. (r | exists x. ?[X] x)", VOCAB))


def test_well_founded_validity_on_random_models():
    claim = parse("xi X. forall x. ?[X] x")
    for seed in range(60):
        m = gen_model(GenSpec(seed=seed, max_worlds=5, max_children=3, max_depth=3, prop_count=2))
        assert evaluate_sentence(m, claim) == frozenset(m.worlds)


def test_negation_clause(de_dicto):
    p = parse("r", VOCAB)
    for w in de_dicto.worlds:
        assert holds_at(de_dicto, w, Not(p)) == (not holds_at(de_dicto, w, p))


def test_boolean_dualities_on_generated_inputs():
    for seed in range(60):
        m = gen_model(GenSpec(seed=seed, max_worlds=4, max_children=2, max_depth=2, prop_count=2))
        worlds = frozenset(m.worlds)
        f = gen_sentence(seed * 3 + 1, VOCAB, max_connectives=4)
        g = gen_sentence(seed * 3 + 2, VOCAB, max_connectives=4)
        ev = Evaluator()
        sf = ev.sentence_worlds(m, f)
        assert ev.sentence_worlds(m, Not(f)) == worlds - sf
        assert ev.sentence_worlds(m, And(f, g)) == sf & ev.sentence_worlds(m, g)
        assert ev.sentence_worlds(m, diamond(f)) == worlds - ev.sentence_worlds(m, Box(Not(f)))


def test_forall_on_childless_model_is_everything():
    m = load_model('{"worlds": ["w0", "w1"]}')
    got = Evaluator().formula_worlds(m, parse("forall x. ?[p] x", None), {}, {})
    assert got == frozenset({"w0", "w1"})


def test_exists_detects_children():
    childless = load_model('{"worlds": ["w0"]}')
    parent = load_model(
        '{"worlds": ["w0"], "children": {"n0": {"worlds": ["u0"]}},'
        ' "tracking": {"w0": {"n0": "u0"}}}'
    )
    probe = parse("exists x. T")
    assert not holds_at(childless, "w0", probe)
    assert holds_at(parent, "w0", probe)


def test_query_const_undefined_is_false(de_dicto):
    # no world assigns constant via name 'c' in this doctored model
    m = load_model(
        '{"worlds": ["w0"], "children": {"n0": {"worlds": ["u0"]}},'
        ' "tracking": {"w0": {"n0": "u0"}}}'
    )
    assert not holds_at(m, "w0", parse("?[T] #c"))
    # the simulable dual behaves differently by design
    assert holds_at(m, "w0", parse("~?[~T] #c"))


def test_query_const_partial_assignment():
    m = load_model(
        '{"worlds": ["w0", "w1"], "children": {"n0": {"worlds": ["u0"]}},'
        ' "assignment": {"w0": {"c": "n0"}}, "tracking": {"w0": {"n0": "u0"}, "w1": {"n0": "u0"}}}'
    )
    assert evaluate_sentence(m, parse("?[T] #c")) == frozenset({"w0"})


def test_xi_clause_is_direct_binding():
    m = gen_model(GenSpec(seed=11, max_worlds=4, max_children=2, max_depth=1, prop_count=1))
    body = And(Prop("p"), Top())
    assert evaluate_sentence(m, Xi("X", body)) == evaluate_sentence(m, body)
    # the clause adds the body to the interpretation and evaluates it
    direct = Evaluator().formula_worlds(m, FormulaVar("X"), {}, {"X": body})
    assert direct == evaluate_sentence(m, Xi("X", body))
    # a variable may stand for another one
    chained = {"X": FormulaVar("Y"), "Y": body}
    assert Evaluator().formula_worlds(m, FormulaVar("X"), {}, chained) == direct


def test_xi_unused_binding_is_inert(de_dicto):
    assert evaluate_sentence(de_dicto, Xi("X", Prop("r"))) == evaluate_sentence(
        de_dicto, Prop("r")
    )


def test_rejects_non_sentence(de_dicto):
    with pytest.raises(NotASentenceError) as err:
        evaluate_sentence(de_dicto, parse("xi X. X"))
    assert any(v.tag == "C2-xi-subformula" for v in err.value.diagnostics.violations)


def test_undefined_interpretation_raises(de_dicto):
    ev = Evaluator()
    with pytest.raises(UndefinedInterpretationError, match="model variable 'x' is not bound"):
        ev.formula_worlds(de_dicto, QueryVar(Prop("r"), "x"), {}, {})
    with pytest.raises(UndefinedInterpretationError, match="formula variable 'X' uninterpreted"):
        ev.formula_worlds(de_dicto, FormulaVar("X"), {}, {})
    with pytest.raises(UndefinedInterpretationError, match="model variable 'x' is not bound"):
        ev.formula_worlds(de_dicto, QueryVar(Prop("r"), "x"), {"x": "nope"}, {})


def test_interpretation_rebinding_overwrites(de_dicto):
    # A binder overwrites the binding its variable has in the
    # interpretation passed in.
    ev, body = Evaluator(use_memo=False), QueryVar(Prop("r"), "x")
    every, labels = Forall("x", body), de_dicto.children
    expected = ev.sentence_worlds(de_dicto, every)
    assert any(ev.formula_worlds(de_dicto, body, {"x": n}, {}) != expected for n in labels)
    for n in labels:
        assert ev.formula_worlds(de_dicto, every, {"x": n}, {}) == expected
    loop = Xi("X", QueryConst(FormulaVar("X"), "c"))
    assert evaluate_sentence(de_dicto, QueryConst(Top(), "c"))  # what X bound to T would give
    assert ev.formula_worlds(de_dicto, loop, {}, {"X": Top()}) == ev.sentence_worlds(de_dicto, loop) == frozenset()


def test_open_formula_is_evaluated_per_binding(de_dicto):
    # The memo key of X would leave out x, which its body names, and so
    # reuse the first child's answer for the second.
    body = QueryVar(Prop("r"), "x")
    f, formula_vars = Forall("x", FormulaVar("X")), {"X": body}
    expected = evaluate_sentence(de_dicto, Forall("x", body))
    assert expected == frozenset()
    assert Evaluator().formula_worlds(de_dicto, f, {}, formula_vars) == expected


def test_memo_holds_closed_formulas_only():
    # A closed node's value depends on the model alone, so it is the only
    # kind of node whose answer is safe to reuse under any interpretation.
    vocab = Vocabulary.of(props=["p", "q"], constants=["c"])
    shared = Evaluator()
    stream = list(enumerate_sentences(EnumerationBudget(2, 2, vocab)))
    for seed in range(20):
        m = gen_model(GenSpec(seed=seed, max_worlds=4, max_children=2, max_depth=2, prop_count=2))
        for s in [gen_sentence(seed * 5 + k, vocab, max_connectives=8) for k in range(5)] + stream:
            shared.sentence_worlds(m, s)
    keys = [f for r in shared._records.values() for f in r.memo]
    assert any(isinstance(f, Forall) for f in keys)
    for f in keys:
        assert isinstance(f, Formula), f
        summary = free_vars(f)
        assert not summary.model and not summary.formula, f


def _chain(generations: int):
    """One world `s` per generation, where `p` holds and both `#c` and
    `#d` name the child `n`, tracked at its `s`."""
    text = '{"worlds": ["s"], "valuation": {"p": ["s"]}}'
    for _ in range(generations):
        text = (
            '{"worlds": ["s"], "valuation": {"p": ["s"]}, "children": {"n": ' + text + "},"
            ' "assignment": {"s": {"c": "n", "d": "n"}}, "tracking": {"s": {"n": "s"}}}'
        )
    return load_model(text)


def test_xi_unfolding_is_one_memo_entry_per_model():
    # X stands for its closed xi node, so both queries below unfold to one
    # lookup; bound to the open body instead, they would double per generation.
    m = _chain(60)
    shared = Evaluator()
    assert shared.sentence_worlds(m, parse("xi X. (?[X] #c & ?[X] #d)", None)) == frozenset()
    assert len(shared._records) == 61
    assert all(len(r.memo) <= 1 for r in shared._records.values())


@pytest.mark.parametrize(
    "text, generations, expected",
    [
        ("xi X. ?[~~X] #c", 230, frozenset()),
        ("xi X. (p & ?[X] #c)", 310, frozenset()),
        ("xi X. forall x. ?[X] x", 310, frozenset({"s"})),
    ],
)
@pytest.mark.parametrize("use_memo", [True, False])
def test_evaluator_reach_on_chains(text, generations, expected, use_memo):
    # Guards the stack cost of one xi unfolding per generation, one Python
    # frame per formula level: under pytest on 3.10-3.13 these reach
    # 238/317/318 generations, and one more frame per clause raises
    # RecursionError here.
    m = _chain(generations)
    assert evaluate_sentence(m, parse(text, None), use_memo=use_memo) == expected


def test_holds_at_unknown_world(de_dicto):
    with pytest.raises(ValueError):
        holds_at(de_dicto, "zz", Top())


def test_valuation_of_a_non_formula_is_a_type_error(de_dicto):
    with pytest.raises(TypeError, match="not a formula"):
        Evaluator().formula_worlds(de_dicto, "p", {}, {})


def test_memoized_matches_unmemoized():
    for seed in range(80):
        m = gen_model(GenSpec(seed=seed, max_worlds=4, max_children=2, max_depth=2, prop_count=2))
        s = gen_sentence(seed + 5_000, VOCAB, max_connectives=6)
        assert evaluate_sentence(m, s, use_memo=True) == evaluate_sentence(
            m, s, use_memo=False
        )


def test_shared_evaluator_consistent_across_sentences():
    m = gen_model(GenSpec(seed=42, max_worlds=4, max_children=2, max_depth=2, prop_count=2))
    shared = Evaluator()
    for seed in range(120):
        s = gen_sentence(seed, VOCAB, max_connectives=5)
        assert shared.sentence_worlds(m, s) == evaluate_sentence(m, s, use_memo=False)


def test_query_const_example_from_figure(de_dicto):
    # the constant points at the running child at every world
    assert evaluate_sentence(de_dicto, parse("?[r] #c", VOCAB)) == frozenset(
        {"s0", "s1", "s2"}
    )
    assert evaluate_sentence(de_dicto, QueryConst(Prop("r"), "c")) == frozenset(
        {"s0", "s1", "s2"}
    )


def test_one_shot_evaluation_keeps_no_formula_alive():
    # Per-node caches die with their node: nothing module-level holds
    # evaluated formulas once the caller drops them.
    def live_formulas():
        gc.collect()
        return sum(1 for o in gc.get_objects() if isinstance(o, Formula))

    m = gen_model(GenSpec(seed=3, max_worlds=4, max_children=2, max_depth=2, prop_count=2))
    evaluate_sentence(m, gen_sentence(0, VOCAB, max_connectives=12))
    before = live_formulas()
    for seed in range(1, 51):
        evaluate_sentence(m, gen_sentence(seed, VOCAB, max_connectives=12))
    assert live_formulas() <= before


# --- an independent reference evaluator ----------------------------------


def _reference(m, f, mv, fv):
    """The worlds of `m` where `f` holds under model-variable bindings `mv`
    and formula-variable bindings `fv`, read straight off the clause
    definitions: no memo, plain frozensets of world names, and no code
    shared with `gkmc.semantics`."""
    everywhere = frozenset(m.worlds)
    if isinstance(f, Top):
        return everywhere
    if isinstance(f, Prop):
        return frozenset(m.valuation.get(f.name, ()))
    if isinstance(f, Not):
        return everywhere - _reference(m, f.operand, mv, fv)
    if isinstance(f, And):
        return _reference(m, f.left, mv, fv) & _reference(m, f.right, mv, fv)
    if isinstance(f, Box):
        # w satisfies [] f when every successor of w satisfies f.
        failing = everywhere - _reference(m, f.operand, mv, fv)
        return everywhere - {u for (u, v) in m.relation if v in failing}
    if isinstance(f, Forall):
        # A model with no children satisfies every universal.
        result = everywhere
        for label in m.children:
            result = result & _reference(m, f.body, {**mv, f.var: label}, fv)
        return result
    if isinstance(f, Xi):
        return _reference(m, f.body, mv, {**fv, f.var: f.body})
    if isinstance(f, FormulaVar):
        return _reference(m, fv[f.name], mv, fv)
    if isinstance(f, QueryVar):
        label = mv[f.var]
        inside = _reference(m.children[label], f.body, {}, fv)
        return frozenset(w for w in m.worlds if m.tracking[w][label] in inside)
    if isinstance(f, QueryConst):
        # False wherever the constant is undefined.
        named = {w: m.assignment.get(w, {}).get(f.const) for w in m.worlds}
        return frozenset(
            w
            for w, label in named.items()
            if label is not None and m.tracking[w][label] in _reference(m.children[label], f.body, {}, fv)
        )
    raise TypeError(f"not a formula: {f!r}")


def test_evaluator_matches_reference_on_generated_inputs():
    vocab = Vocabulary.of(props=["p", "q"], constants=["c"])
    for seed in range(400):
        m = gen_model(GenSpec(seed=seed, max_worlds=4, max_children=2, max_depth=2, prop_count=2, edge_density=0.4))
        shared = Evaluator()  # memo entries reused across this model's sentences
        for k in range(3):
            s = gen_sentence(seed * 3 + k + 9_000, vocab, max_connectives=8)
            expected = _reference(m, s, {}, {})
            assert shared.sentence_worlds(m, s) == expected, (seed, k)
            assert evaluate_sentence(m, s, use_memo=False) == expected, (seed, k)


def test_evaluator_matches_reference_on_example_corpus():
    examples = load_script("run_examples")
    for name, text in examples.CORPUS:
        m = load_model_file(REPO / "fixtures" / name)
        s = parse(text, model_vocabulary(m))
        for use_memo in (True, False):
            assert evaluate_sentence(m, s, use_memo=use_memo) == _reference(m, s, {}, {}), text


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.booleans())
def test_holds_at_is_membership_in_the_sentence_worlds(seed, use_memo):
    vocab = Vocabulary.of(props=["p", "q"], constants=["c"])
    m = gen_model(GenSpec(seed=seed, max_worlds=4, max_children=2, max_depth=2, prop_count=2, edge_density=0.4))
    shared, sets = Evaluator(use_memo), Evaluator(use_memo)  # each reused across the sentences
    for k in range(3):
        s = gen_sentence(seed * 3 + k, vocab, max_connectives=8)
        worlds, expected = sets.sentence_worlds(m, s), _reference(m, s, {}, {})
        for w in m.worlds:
            assert shared.holds_at(m, w, s) == (w in worlds) == (w in expected), (seed, k, w)
    # The world is checked first, then the sentence.
    open_formula = parse("xi X. X")
    with pytest.raises(ValueError, match="unknown world 'nowhere'") as err:
        shared.holds_at(m, "nowhere", open_formula)
    assert not isinstance(err.value, NotASentenceError)
    with pytest.raises(NotASentenceError):
        shared.holds_at(m, m.worlds[0], open_formula)
