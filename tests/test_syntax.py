import pickle

import pytest
from hypothesis import given, strategies as st

from gkmc.model import load_model
from gkmc.semantics import evaluate_sentence
from gkmc.syntax import (
    _BINDERS,
    KEYWORDS,
    MAX_NESTING,
    And,
    Box,
    Forall,
    FormulaVar,
    GrammarError,
    LexError,
    Not,
    ParseError,
    Prop,
    QueryConst,
    QueryVar,
    Top,
    UnknownNameError,
    Vocabulary,
    Xi,
    bot,
    check_sentence,
    diamond,
    exists,
    format_formula,
    free_vars,
    imp,
    occurrences,
    or_,
    parse,
    subformulas,
)
from gkmc.generate import gen_sentence

from conftest import free_formula_vars, free_model_vars, gen_formula

VOCAB = Vocabulary.of(props=["p", "q", "r"], constants=["c", "d"])


# --- parsing -----------------------------------------------------------


def test_parse_top():
    assert parse("T", VOCAB) == Top()


def test_parse_derived_forms():
    assert parse("F", VOCAB) == Not(Top())
    assert parse("p | q", VOCAB) == or_(Prop("p"), Prop("q"))
    assert parse("p -> q", VOCAB) == imp(Prop("p"), Prop("q"))
    assert parse("<>p", VOCAB) == Not(Box(Not(Prop("p"))))
    assert parse("exists x. p", VOCAB) == Not(Forall("x", Not(Prop("p"))))


def test_parse_de_dicto_conjunction_shape():
    # binders bind as prefix operators: the conjunction is top-level
    f = parse("([] exists x. ?[r] x & ~ exists x. [] ?[r] x)", VOCAB)
    assert isinstance(f, And)
    assert f.left == Box(exists("x", QueryVar(Prop("r"), "x")))
    assert f.right == Not(exists("x", Box(QueryVar(Prop("r"), "x"))))


def test_parse_full_de_dicto_sentence():
    f = parse("([] exists x. ?[r] x & (~ exists x. [] ?[r] x & [] ?[r] #c))", VOCAB)
    assert isinstance(f, And)
    assert isinstance(f.right, And)
    assert f.right.right == Box(QueryConst(Prop("r"), "c"))


def test_parse_xi_self_reference():
    assert parse("xi X. X", VOCAB) == Xi("X", FormulaVar("X"))


def test_conjunction_left_associative():
    assert parse("p & q & r", VOCAB) == And(And(Prop("p"), Prop("q")), Prop("r"))


def test_implication_right_associative():
    assert parse("p -> q -> r", VOCAB) == imp(Prop("p"), imp(Prop("q"), Prop("r")))


def test_binder_body_stops_at_connective():
    f = parse("forall x. ?[p] x & q", VOCAB)
    assert f == And(Forall("x", QueryVar(Prop("p"), "x")), Prop("q"))


def test_parenthesized_binder_body():
    f = parse("xi X. (r | exists x. ?[X] x)", VOCAB)
    assert f == Xi("X", or_(Prop("r"), exists("x", QueryVar(FormulaVar("X"), "x"))))


def test_query_terms():
    assert parse("?[p] x", VOCAB) == QueryVar(Prop("p"), "x")
    assert parse("?[p] #c", VOCAB) == QueryConst(Prop("p"), "c")


def test_shadowing_permitted():
    f = parse("forall x. forall x. ?[p] x", VOCAB)
    assert f == Forall("x", Forall("x", QueryVar(Prop("p"), "x")))
    assert check_sentence(f).verdict


def test_lex_error_position():
    with pytest.raises(LexError) as err:
        parse("p &\n $q", VOCAB)
    assert err.value.line == 2
    assert err.value.col == 2


def test_grammar_error_reports_position():
    with pytest.raises(GrammarError) as err:
        parse("p & & q", VOCAB)
    assert err.value.line == 1
    assert err.value.col == 5


def test_grammar_error_truncated():
    with pytest.raises(GrammarError):
        parse("p &", VOCAB)
    with pytest.raises(GrammarError):
        parse("forall x p", VOCAB)


def test_unknown_prop_rejected():
    with pytest.raises(UnknownNameError):
        parse("zzz", VOCAB)


def test_unknown_constant_rejected():
    with pytest.raises(UnknownNameError):
        parse("?[p] #nope", VOCAB)


def test_open_vocabulary_accepts_fresh_names():
    assert parse("?[anything] #fresh") == QueryConst(Prop("anything"), "fresh")


def test_trailing_input_rejected():
    with pytest.raises(GrammarError):
        parse("p q", VOCAB)


def test_keywords_not_identifiers():
    with pytest.raises(ParseError):
        parse("xi & p", VOCAB)
    with pytest.raises(GrammarError):
        parse("?[p] forall", VOCAB)
    # The parser's atoms never see a keyword: every keyword is a binder,
    # which `unary` reads first.
    assert KEYWORDS == set(_BINDERS)


# --- printing ----------------------------------------------------------


def test_print_top():
    assert format_formula(Top()) == "T"


def test_print_bot_special_case():
    assert format_formula(bot()) == "F"
    assert format_formula(Not(bot())) == "~F"


def test_print_non_formula_is_a_type_error():
    with pytest.raises(TypeError, match="not a formula"):
        format_formula("p")


def test_print_xi_forall_query():
    f = Xi("X", Forall("x", QueryVar(FormulaVar("X"), "x")))
    assert format_formula(f) == "xi X. forall x. ?[X] x"


def test_print_parenthesizes_binder_conjunction():
    f = Forall("x", And(Prop("p"), Prop("q")))
    assert format_formula(f) == "forall x. (p & q)"
    assert parse(format_formula(f), VOCAB) == f


def test_print_right_nested_conjunction():
    f = And(Prop("p"), And(Prop("q"), Prop("r")))
    assert format_formula(f) == "p & (q & r)"
    assert parse(format_formula(f), VOCAB) == f


_names_lower = st.sampled_from(["p", "q", "r", "x", "y"])
_names_upper = st.sampled_from(["X", "Y"])

_formulas = st.deferred(
    lambda: st.one_of(
        st.just(Top()),
        st.builds(Prop, st.sampled_from(["p", "q", "r"])),
        st.builds(FormulaVar, _names_upper),
        st.builds(Not, _formulas),
        st.builds(And, _formulas, _formulas),
        st.builds(Box, _formulas),
        st.builds(Forall, st.sampled_from(["x", "y"]), _formulas),
        st.builds(Xi, _names_upper, _formulas),
        st.builds(QueryVar, _formulas, st.sampled_from(["x", "y"])),
        st.builds(QueryConst, _formulas, st.sampled_from(["c", "d"])),
    )
)


@given(_formulas)
def test_parse_print_roundtrip(f):
    assert parse(format_formula(f), VOCAB) == f


def test_parse_print_roundtrip_generated_formulas():
    for seed in range(300):
        f = gen_formula(seed, VOCAB, max_connectives=8)
        assert parse(format_formula(f), VOCAB) == f


# --- free variables ----------------------------------------------------


def test_free_model_vars_examples():
    assert free_model_vars(parse("forall x. ?[p] x", VOCAB)) == set()
    assert free_model_vars(parse("?[p] x", VOCAB)) == {"x"}
    assert free_model_vars(parse("forall x. ?[?[p] y] x", VOCAB)) == {"y"}


def test_free_formula_vars_examples():
    assert free_formula_vars(parse("xi X. ?[X] #c", VOCAB)) == set()
    assert free_formula_vars(parse("xi X. X", VOCAB)) == {"X"}
    # the inner binder does not enclose the query pair, so X stays free
    assert free_formula_vars(parse("?[xi X. X] #c", VOCAB)) == {"X"}


def test_formula_var_needs_query_above_binder():
    assert free_formula_vars(parse("xi X. forall x. ?[X] x", VOCAB)) == set()
    assert free_formula_vars(parse("X", VOCAB)) == {"X"}


def _reference_summary(f):
    """The `free_vars` fields recomputed from `occurrences` alone."""
    nodes = dict(subformulas(f))
    free = [o for o in occurrences(f) if o.free]

    def under_query(o):
        return any(isinstance(nodes[o.path[:i]], (QueryVar, QueryConst)) for i in range(len(o.path)))

    def closed(g):
        return not any(o.free for o in occurrences(g))

    def body_has_free_model_var(g):
        return any(o.free and o.kind == "model" for o in occurrences(g.body))

    return (
        {o.name for o in free if o.kind == "model"},
        {o.name for o in free if o.kind == "formula" and not under_query(o)},
        {o.name for o in free if o.kind == "formula"},
        all(
            closed(g) if isinstance(g, Xi) else not body_has_free_model_var(g)
            for g in nodes.values()
            if isinstance(g, (Xi, QueryVar, QueryConst))
        ),
    )


def test_free_vars_agrees_with_occurrences():
    for seed in range(2000):
        f = gen_formula(seed, VOCAB, max_connectives=14)
        model, unguarded, formula, ok = free_vars(f)
        assert (model, unguarded, formula, ok) == _reference_summary(f), format_formula(f)
        assert free_model_vars(f) == model and free_formula_vars(f) == formula


def test_binding_never_introduces_freeness():
    for seed in range(200):
        f = gen_formula(seed, VOCAB, max_connectives=6)
        assert free_formula_vars(Xi("X", f)) <= free_formula_vars(f)


# --- sentence check ----------------------------------------------------


@pytest.mark.parametrize(
    "text,verdict,tags",
    [
        ("forall x. ?[p] x", True, set()),
        ("?[p] x", False, {"C1-free-var"}),
        ("xi X. ?[X] #c", True, set()),
        ("xi X. X", False, {"C1-free-var", "C2-xi-subformula"}),
        ("?[xi X. X] #c", False, {"C1-free-var", "C2-xi-subformula"}),
        ("xi X. forall x. ?[X] x", True, set()),
    ],
)
def test_sentence_check_cases(text, verdict, tags):
    result = check_sentence(parse(text, VOCAB))
    assert result.verdict == verdict
    assert {v.tag for v in result.violations} == tags


def test_query_body_with_free_model_var_rejected():
    result = check_sentence(parse("forall x. ?[?[p] y] x", VOCAB))
    assert not result.verdict
    assert "C3-query-body" in {v.tag for v in result.violations}


def test_verdict_iff_no_violations():
    for seed in range(200):
        d = check_sentence(gen_formula(seed, VOCAB, max_connectives=6))
        assert d.verdict == (not d.violations)


def test_sentence_closed_under_conjunction():
    for seed in range(150):
        f = gen_sentence(seed, VOCAB, max_connectives=5)
        assert check_sentence(f).verdict
        assert check_sentence(And(f, f)).verdict


def test_sentence_accepted_without_occurrence_walk(monkeypatch):
    def refuse(f):
        raise AssertionError("check_sentence walked occurrences of a sentence")

    monkeypatch.setattr("gkmc.syntax.occurrences", refuse)
    assert check_sentence(parse("xi X. forall x. ?[X] x", VOCAB)).verdict


def test_violation_paths_point_at_subformulas():
    f = parse("?[xi X. X] #c", VOCAB)
    nodes = dict(subformulas(f))
    for violation in check_sentence(f).violations:
        assert violation.node in nodes


# --- value contract ------------------------------------------------------


@pytest.mark.parametrize(
    "left,right",
    [
        (Not(Prop("p")), Box(Prop("p"))),
        (Forall("x", Prop("p")), Xi("x", Prop("p"))),
        (QueryVar(Prop("p"), "c"), QueryConst(Prop("p"), "c")),
    ],
)
def test_nodes_of_different_types_differ_in_hash(left, right):
    assert left != right
    assert hash(left) != hash(right)


@pytest.mark.parametrize(
    "text,built",
    [
        ("xi X. forall x. ?[X] x", Xi("X", Forall("x", QueryVar(FormulaVar("X"), "x")))),
        ("[]p & ?[~q] #c", And(Box(Prop("p")), QueryConst(Not(Prop("q")), "c"))),
        ("<>T", Not(Box(Not(Top())))),
    ],
)
def test_separately_built_trees_are_equal_and_hash_equal(text, built):
    # Formula nodes are hash-consed: a value built twice is one object.
    parsed = parse(text, VOCAB)
    assert parsed is built
    assert parsed == built
    assert hash(parsed) == hash(built)


def test_cached_slots_leave_value_unchanged():
    f = parse("xi X. forall x. ?[X] x", VOCAB)
    state = pickle.dumps(f)
    text = repr(f)
    hash(f)
    check_sentence(f)
    assert pickle.dumps(f) == state
    assert repr(f) == text == "Xi(var='X', body=Forall(var='x', body=QueryVar(body=FormulaVar(name='X'), var='x')))"
    assert Xi.__slots__ == ("var", "body") and Xi(f.var, f.body) == f
    assert Xi.__match_args__ == ("var", "body")
    restored = pickle.loads(state)
    assert restored == f and hash(restored) == hash(f)


@pytest.mark.parametrize("text", ["xi X. forall x. ?[X] x", "?[xi X. X] #c"])
def test_sentence_check_is_cached_on_the_node(text):
    # A sentence's verdict is read off its cached `free_vars` summary, and
    # every sentence shares one diagnostics object; a rejected formula is
    # walked again on each check, to equal diagnostics.
    f = parse(text, VOCAB)
    first = check_sentence(f)
    if first.verdict:
        assert check_sentence(f) is first
    assert check_sentence(parse(text, VOCAB)) == check_sentence(f) == first


# --- nesting limit -------------------------------------------------------

_AT_LIMIT = [
    "~" * MAX_NESTING + "p",
    "[]" * MAX_NESTING + "p",
    "(" * MAX_NESTING + "p" + ")" * MAX_NESTING,
    "<>" * (MAX_NESTING // 3) + "~" * (MAX_NESTING % 3) + "p",
    " & ".join(["p"] * (MAX_NESTING + 1)),
    "forall x. " * (MAX_NESTING // 2) + "[]" * (MAX_NESTING // 2) + "p",
]

_PAST_LIMIT = [
    "~" * (MAX_NESTING + 1) + "p",
    "[]" * (MAX_NESTING + 1) + "p",
    "(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1),
    "<>" * (MAX_NESTING // 3 + 1) + "p",
    " & ".join(["p"] * (MAX_NESTING + 2)),
    "p | " * MAX_NESTING + "p",
    "p -> " * MAX_NESTING + "p",
    "xi X. " * (MAX_NESTING + 1) + "p",
    "?[" * (MAX_NESTING + 1) + "p" + "] #c" * (MAX_NESTING + 1),
]


@pytest.mark.parametrize("text", _AT_LIMIT, ids=["not", "box", "parentheses", "diamond", "and-chain", "forall-box"])
def test_formula_at_nesting_limit_parses_formats_checks_and_evaluates(text):
    one_world = load_model('{"worlds": ["s0"], "valuation": {"p": ["s0"]}}')
    f = parse(text, VOCAB)
    assert parse(format_formula(f), VOCAB) == f
    assert check_sentence(f).verdict
    assert evaluate_sentence(one_world, f) == evaluate_sentence(one_world, f, use_memo=False)


@pytest.mark.parametrize(
    "text", _PAST_LIMIT, ids=["not", "box", "parentheses", "diamond", "and-chain", "or-chain", "implication", "xi", "query"]
)
def test_formula_past_nesting_limit_is_a_grammar_error(text):
    with pytest.raises(GrammarError, match="nested deeper than"):
        parse(text, VOCAB)
