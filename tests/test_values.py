"""The contract of gkmc's immutable values: formula nodes and records.

Each case builds a value twice from scratch.  A record's two builds are
separate objects, so its equality and hashing are checked between them;
a formula node's two builds are one object, since nodes are hash-consed
(`syntax.Formula`).  The `repr` texts
and field orders are the ones the package has always printed.  The
checks `__init__` makes are tested with their modules
(`test_pointed_model_at_an_unknown_world_is_refused`,
`test_invalid_budget_rejected`).
"""

import copy
import gc
import os
import pathlib
import pickle
import subprocess
import sys
import threading

import pytest

from gkmc.bisim import BisimVerdict, BisimWitness, WitnessReport
from gkmc.distinguish import EnumerationBudget
from gkmc.generate import GenSpec
from gkmc.model import GenealogicalModel, ModelDiagnostics, ModelViolation, PointedModel, dump_model, replace_model
from gkmc import syntax
from gkmc.syntax import (
    And,
    Box,
    Forall,
    Formula,
    FormulaVar,
    Not,
    Occurrence,
    Prop,
    QueryConst,
    QueryVar,
    SentenceDiagnostics,
    SentenceViolation,
    Top,
    Vocabulary,
    Xi,
    bot,
    format_formula,
    subformulas,
)

from conftest import gen_formula

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _vocab():
    return Vocabulary.of(props=["p"], constants=["c"])


def _violation():
    return SentenceViolation("C1-free-var", (0,), "free model variable 'x'")


def _model():
    return GenealogicalModel(("s0",), frozenset(), {}, {}, {}, {})


# (builder, repr text); every formula node class, then every record with
# structural equality.
STRUCTURAL = [
    (lambda: Top(), "Top()"),
    (lambda: Prop("p"), "Prop(name='p')"),
    (lambda: FormulaVar("X"), "FormulaVar(name='X')"),
    (lambda: Not(Top()), "Not(operand=Top())"),
    (lambda: And(Prop("p"), Top()), "And(left=Prop(name='p'), right=Top())"),
    (lambda: Box(Prop("p")), "Box(operand=Prop(name='p'))"),
    (lambda: Forall("x", QueryVar(Prop("p"), "x")), "Forall(var='x', body=QueryVar(body=Prop(name='p'), var='x'))"),
    (lambda: Xi("X", QueryConst(FormulaVar("X"), "c")), "Xi(var='X', body=QueryConst(body=FormulaVar(name='X'), const='c'))"),
    (lambda: QueryVar(Top(), "x"), "QueryVar(body=Top(), var='x')"),
    (lambda: QueryConst(Top(), "c"), "QueryConst(body=Top(), const='c')"),
    (_vocab, "Vocabulary(props=frozenset({'p'}), constants=frozenset({'c'}))"),
    (lambda: Occurrence((0,), "model", "x", True), "Occurrence(path=(0,), kind='model', name='x', free=True)"),
    (_violation, "SentenceViolation(tag='C1-free-var', node=(0,), message=\"free model variable 'x'\")"),
    (
        lambda: SentenceDiagnostics(False, (_violation(),)),
        "SentenceDiagnostics(verdict=False, violations=(SentenceViolation(tag='C1-free-var', node=(0,), "
        "message=\"free model variable 'x'\"),))",
    ),
    (
        lambda: ModelViolation("S-nonempty", "", "worlds must be non-empty"),
        "ModelViolation(tag='S-nonempty', path='', message='worlds must be non-empty')",
    ),
    (lambda: ModelDiagnostics(True, ()), "ModelDiagnostics(verdict=True, violations=())"),
    (lambda: BisimVerdict(False, None), "BisimVerdict(bisimilar=False, witness=None)"),
    (lambda: WitnessReport(False, (("zig", "no response"),)), "WitnessReport(ok=False, failures=(('zig', 'no response'),))"),
    (
        lambda: EnumerationBudget(4, 3, _vocab()),
        "EnumerationBudget(max_connective_depth=4, max_modal_depth=3, "
        "vocab=Vocabulary(props=frozenset({'p'}), constants=frozenset({'c'})), allow_xi=True)",
    ),
    (
        lambda: GenSpec(seed=3),
        "GenSpec(seed=3, max_worlds=4, max_children=2, max_depth=2, prop_count=1, constant_count=1, "
        "closure='none', edge_density=0.3)",
    ),
]

# Values that hash by identity: equal only to themselves.
IDENTITY = [
    (
        _model,
        "GenealogicalModel(worlds=('s0',), relation=frozenset(), valuation={}, children={}, assignment={}, tracking={})",
    ),
    (
        lambda: PointedModel(_model(), "s0"),
        "PointedModel(model=GenealogicalModel(worlds=('s0',), relation=frozenset(), valuation={}, children={}, "
        "assignment={}, tracking={}), world='s0')",
    ),
    (
        lambda: BisimWitness(frozenset({("s0", "s0")}), frozenset(), {}),
        "BisimWitness(z=frozenset({('s0', 's0')}), h=frozenset(), child_witnesses={})",
    ),
]

EVERY = STRUCTURAL + IDENTITY


def _ids(cases):
    return [type(build()).__name__ for build, _ in cases]


@pytest.mark.parametrize("build,text", STRUCTURAL, ids=_ids(STRUCTURAL))
def test_separately_built_values_are_equal_and_hash_equal(build, text):
    a, b = build(), build()
    assert (a is b) == isinstance(a, Formula)
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("build,text", EVERY, ids=_ids(EVERY))
def test_repr_text_is_unchanged(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build,text", EVERY, ids=_ids(EVERY))
def test_values_are_frozen(build, text):
    value = build()
    for name in (*type(value).__match_args__, "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("build,text", EVERY, ids=_ids(EVERY))
def test_pickle_and_copies_round_trip(build, text):
    value = build()
    structural = (build, text) in STRUCTURAL
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and repr(twin) == text
        if structural:
            assert twin == value and hash(twin) == hash(value)
        if isinstance(value, Formula):  # rebuilt through the constructor, so interned
            assert twin is value


@pytest.mark.parametrize(
    "a,b",
    [
        (Prop("p"), FormulaVar("p")),
        (Not(Top()), Box(Top())),
        (Forall("X", Top()), Xi("X", Top())),
        (QueryVar(Top(), "c"), QueryConst(Top(), "c")),
        (ModelViolation("t", "p", "m"), SentenceViolation("t", "p", "m")),
    ],
)
def test_values_of_different_classes_never_compare_equal(a, b):
    assert a != b and b != a
    assert not a == b


@pytest.mark.parametrize("build,text", IDENTITY, ids=_ids(IDENTITY))
def test_identity_hashed_values_stay_identity_hashed(build, text):
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


def test_match_args_give_the_fields_in_constructor_order():
    match And(Prop("p"), QueryVar(Top(), "x")):
        case And(Prop(name), QueryVar(body, var)):
            got = (name, body, var)
    assert got == ("p", Top(), "x")
    assert GenealogicalModel.__match_args__ == ("worlds", "relation", "valuation", "children", "assignment", "tracking")


def test_keyword_construction_and_defaults():
    assert GenSpec(seed=1, max_worlds=6) == GenSpec(1, 6, 2, 2, 1, 1, "none", 0.3)
    budget = EnumerationBudget(max_connective_depth=2, max_modal_depth=1, vocab=_vocab())
    assert budget.allow_xi is True and budget == EnumerationBudget(2, 1, _vocab(), True)
    m = GenealogicalModel(worlds=("s0",), relation=frozenset(), valuation={}, children={}, assignment={}, tracking={})
    assert dump_model(m) == dump_model(_model())


def test_replace_model_changes_only_the_given_fields():
    m = _model()
    n = replace_model(m, worlds=("s0", "s1"))
    assert n is not m and n.worlds == ("s0", "s1")
    assert (n.relation, n.valuation, n.children, n.assignment, n.tracking) == (
        m.relation, m.valuation, m.children, m.assignment, m.tracking
    )
    with pytest.raises(TypeError):
        replace_model(m, world=("s0",))


def test_import_loads_no_dataclasses():
    probe = (
        "import sys, gkmc\n"
        "bad = [f'{mod}.{name}' for mod, module in list(sys.modules.items()) if mod.split('.')[0] == 'gkmc'\n"
        "       for name, obj in vars(module).items() if isinstance(obj, type) and '__dataclass_fields__' in vars(obj)]\n"
        "print('dataclasses' in sys.modules, bad)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "[]"]


# The records whose constructor is `Record`'s: fields by position or by keyword.
PLAIN = (
    Vocabulary, Occurrence, SentenceViolation, SentenceDiagnostics, ModelViolation, ModelDiagnostics,
    BisimVerdict, WitnessReport, BisimWitness,
)
PLAIN_CASES = [(build, text) for build, text in EVERY if type(build()) in PLAIN]
# Formula nodes take their fields the same way, through `Formula.__new__`.
NODE_CASES = [(build, text) for build, text in STRUCTURAL if isinstance(build(), Formula)]


def test_plain_records_and_formula_nodes_inherit_construction_and_equality():
    assert len(PLAIN_CASES) == len(PLAIN)
    assert [cls.__name__ for cls in PLAIN if "__init__" in vars(cls)] == []
    nodes = [build() for build, _ in NODE_CASES]
    assert [type(node).__name__ for node in nodes if {"__init__", "__eq__", "__hash__"} & vars(type(node)).keys()] == []
    assert "__init_subclass__" not in vars(Formula)
    assert Formula.__slots__ == ("_free", "__weakref__")


@pytest.mark.parametrize("build,text", PLAIN_CASES + NODE_CASES, ids=_ids(PLAIN_CASES + NODE_CASES))
def test_plain_records_build_alike_by_position_and_by_keyword(build, text):
    value = build()
    cls, names = type(value), type(value).__match_args__
    fields = [getattr(value, name) for name in names]
    by_position, by_keyword = cls(*fields), cls(**dict(zip(names, fields)))
    assert repr(by_position) == repr(by_keyword) == text
    if cls is not BisimWitness:  # it hashes by identity
        assert by_position == by_keyword == value and hash(by_keyword) == hash(value)
    if isinstance(value, Formula):
        assert by_position is by_keyword is value


@pytest.mark.parametrize(
    "build",
    [
        lambda: ModelViolation("t", "p"),
        lambda: ModelViolation(tag="t", message="m"),
        lambda: ModelViolation("t", "p", mesage="m"),
        lambda: ModelViolation("t", "p", "m", extra=1),
        lambda: ModelViolation("t", "p", "m", tag="u"),
        lambda: ModelViolation("t", "p", "m", "x"),
        lambda: ModelDiagnostics(),
        lambda: And(Top()),
        lambda: And(left=Top(), rigth=Top()),
        lambda: Not(Top(), extra=1),
        lambda: QueryVar(Top(), "x", body=Top()),
        lambda: Not(Top(), Top()),
        lambda: Prop(),
        lambda: Top(Top()),
        lambda: Prop(["p"]),
    ],
    ids=[
        "missing", "missing-keyword", "unknown", "unknown-extra", "positional-and-keyword", "surplus", "none",
        "node-missing", "node-unknown", "node-unknown-extra", "node-positional-and-keyword", "node-surplus",
        "node-none", "node-no-fields", "node-unhashable",
    ],
)
def test_a_record_given_wrong_fields_raises_type_error(build):
    # A formula node is interned under its fields, so an unhashable one
    # fails when the node is built.
    with pytest.raises(TypeError):
        build()


def test_format_formula_makes_no_formula_equality_call():
    # Formula equality is identity, so no equality call walks a tree:
    # every node class has `object`'s, and printing needs none at all.
    vocab = Vocabulary.of(props=["p", "q", "r"], constants=["c", "d"])
    corpus = [gen_formula(seed, vocab, max_connectives=8) for seed in range(300)]
    corpus += [bot(), Not(bot()), And(bot(), Not(Not(Top()))), Box(Not(Prop("p")))]
    assert {type(f).__eq__ for f in corpus} == {object.__eq__}
    texts = [format_formula(f) for f in corpus]
    assert texts[300:] == ["F", "~F", "F & ~F", "[]~p"]


# A vocabulary no other test uses, so a corpus over it starts with none
# of its compound nodes in the intern table.
_FRESH = Vocabulary.of(props=["intern_p", "intern_q"], constants=["intern_c"])


def _corpus(count=300):
    return [gen_formula(seed, _FRESH, max_connectives=10) for seed in range(count)]


def test_threads_building_one_corpus_get_the_same_nodes():
    results = [None] * 4
    start = threading.Barrier(len(results))

    def build(i):
        start.wait()
        results[i] = _corpus(2_000)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    first = results[0]
    for other in results[1:]:
        assert len(other) == len(first) and all(a is b for a, b in zip(first, other))
    # Every subformula too, not only the roots.
    parts = [{id(node) for f in corpus for _, node in subformulas(f)} for corpus in results]
    assert parts[1:] == parts[:1] * 3


def test_dropped_nodes_leave_the_intern_table():
    gc.collect()
    before = len(syntax._nodes)
    corpus = _corpus()
    assert len(syntax._nodes) > before
    del corpus
    gc.collect()
    assert len(syntax._nodes) == before
