import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from gkmc.generate import GenSpec, gen_model
from gkmc.model import (
    MAX_DOCUMENT_DEPTH,
    DocumentFormatError,
    GenealogicalModel,
    ModelInvalidError,
    depth,
    dump_model,
    load_model,
    model_vocabulary,
    PointedModel,
    parse_document,
    rt_closure,
    validate,
)

from conftest import same_structure

MINIMAL = '{"worlds": ["s0"]}'


def test_load_minimal():
    m = load_model(MINIMAL)
    assert m.worlds == ("s0",)
    assert m.relation == frozenset()
    assert m.children == {}
    assert validate(m).verdict


def test_de_dicto_structure(de_dicto):
    assert de_dicto.worlds == ("s0", "s1", "s2")
    assert set(de_dicto.children) == {"n1", "n2"}
    assert de_dicto.assignment["s0"]["c"] == "n1"
    assert de_dicto.assignment["s1"]["c"] == "n2"
    assert de_dicto.assignment["s2"]["c"] == "n1"
    assert de_dicto.tracking["s0"] == {"n1": "running", "n2": "stopped"}


def test_closure_materialized(de_dicto):
    # reflexive-transitive closure of s0 -> s1 -> s2
    assert ("s0", "s0") in de_dicto.relation
    assert ("s0", "s2") in de_dicto.relation
    assert ("s2", "s2") in de_dicto.relation
    assert ("s2", "s0") not in de_dicto.relation
    child = de_dicto.children["n1"]
    assert ("stopped", "dead") in child.relation
    assert ("dead", "running") not in child.relation


def test_depth_examples(de_dicto, waitall):
    assert depth(load_model(MINIMAL)) == 0
    assert depth(de_dicto) == 1
    assert depth(waitall) == 2


def _depth_by_recursion(m):
    return 1 + max(map(_depth_by_recursion, m.children.values())) if m.children else 0


@pytest.mark.parametrize("seed", range(20))
def test_depth_matches_the_recursive_definition(seed):
    m = gen_model(GenSpec(seed=seed, max_worlds=4, max_children=3, max_depth=seed % 5))
    assert depth(m) == _depth_by_recursion(m)


def test_pointed_model_at_an_unknown_world_is_refused(de_dicto):
    with pytest.raises(ValueError, match="unknown world 'nowhere'"):
        PointedModel(de_dicto, "nowhere")


def test_model_vocabulary_visits_a_shared_submodel_once():
    visits = []

    class Children(dict):
        def values(self):
            visits.append(self)
            return super().values()

    # 18 levels, each holding the level below under two labels, as `dup_child` builds.
    m = GenealogicalModel(("s0",), frozenset(), {"p": frozenset({"s0"})}, Children(), {}, {})
    for level in range(18):
        tracking = {"s0": {"a": "s0", "b": "s0"}}
        m = GenealogicalModel(("s0",), frozenset(), {f"q{level}": frozenset()}, Children(a=m, b=m), {"s0": {"c": "a"}}, tracking)
    vocab = model_vocabulary(m)
    assert vocab.props == {"p", *(f"q{level}" for level in range(18))} and vocab.constants == {"c"}
    assert len(visits) == 19


def test_model_vocabulary(de_dicto, deadlock):
    v = model_vocabulary(de_dicto)
    assert v.props == frozenset({"r"})
    assert v.constants == frozenset({"c"})
    v2 = model_vocabulary(deadlock)
    assert v2.props == frozenset({"a", "b"})
    assert v2.constants == frozenset()


def test_model_vocabulary_of_several_models_is_the_union(de_dicto, deadlock):
    both = model_vocabulary(de_dicto, deadlock)
    assert both.props == frozenset({"r", "a", "b"})
    assert both.constants == frozenset({"c"})


# --- format errors -----------------------------------------------------


def test_truncated_document():
    with pytest.raises(DocumentFormatError):
        parse_document('{"worlds": ["s0"')


def test_unknown_field_rejected():
    with pytest.raises(DocumentFormatError) as err:
        parse_document('{"worlds": ["s0"], "extra": 1}')
    assert "extra" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(DocumentFormatError):
        parse_document('{"worlds": ["s0"], "worlds": ["s1"]}')


def test_bad_closure_flag():
    with pytest.raises(DocumentFormatError):
        parse_document('{"worlds": ["s0"], "closure": "transitive"}')


def test_missing_worlds():
    with pytest.raises(DocumentFormatError):
        parse_document('{"relation": []}')


def test_brackets_inside_strings_are_not_nesting():
    name = "[{" * MAX_DOCUMENT_DEPTH + '\\"[' + "\\"
    assert parse_document(json.dumps({"worlds": [name]})).worlds == (name,)


def test_depth_limit_is_exact():
    # In a fresh process: the decoder's own limit counts the frames
    # already on the stack, and pytest's are many.
    script = """if True:
        from gkmc.model import MAX_DOCUMENT_DEPTH, DocumentFormatError, parse_document
        for levels in (MAX_DOCUMENT_DEPTH, MAX_DOCUMENT_DEPTH + 1):
            text = '{"worlds": ["s"], "valuation": {"p": ' + "[" * (levels - 2) + "]" * (levels - 2) + "}}"
            try:
                parse_document(text)
            except DocumentFormatError as exc:
                print(exc)
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=src)
    # At the limit the document is decoded, and `valuation.p` refused.
    assert done.stdout.splitlines() == ["valuation.p: must be an array of worlds", "document nested too deeply for the JSON decoder"]


# --- invariant violations ----------------------------------------------


def _doc(**kwargs):
    doc = {"worlds": ["s0"]}
    doc.update(kwargs)
    return json.dumps(doc)


def test_tracking_gap_reported():
    text = _doc(
        children={"n1": {"worlds": ["t0"]}},
        tracking={},
    )
    diagnostics = validate(parse_document(text))
    assert not diagnostics.verdict
    assert "T-total" in {v.tag for v in diagnostics.violations}
    with pytest.raises(ModelInvalidError):
        load_model(text)


def test_assignment_to_missing_child():
    text = _doc(
        children={"n1": {"worlds": ["t0"]}},
        assignment={"s0": {"c": "ghost"}},
        tracking={"s0": {"n1": "t0"}},
    )
    diagnostics = validate(parse_document(text))
    assert "I-range" in {v.tag for v in diagnostics.violations}


def test_empty_worlds_in_grandchild_with_path():
    text = json.dumps(
        {
            "worlds": ["s0"],
            "children": {
                "n1": {
                    "worlds": ["t0"],
                    "children": {"n3": {"worlds": []}},
                    "tracking": {"t0": {"n3": "u0"}},
                }
            },
            "tracking": {"s0": {"n1": "t0"}},
        }
    )
    diagnostics = validate(parse_document(text))
    tags = {(v.tag, v.path) for v in diagnostics.violations}
    assert ("S-nonempty", "children.n1.children.n3") in tags


def test_tracking_outside_child_worlds():
    text = _doc(
        children={"n1": {"worlds": ["t0"]}},
        tracking={"s0": {"n1": "zz"}},
    )
    diagnostics = validate(parse_document(text))
    assert "T-range" in {v.tag for v in diagnostics.violations}


def test_relation_endpoint_check():
    diagnostics = validate(parse_document('{"worlds": ["s0"], "relation": [["s0", "zz"]]}'))
    assert "R-endpoints" in {v.tag for v in diagnostics.violations}


def test_keyword_prop_name_rejected():
    diagnostics = validate(parse_document('{"worlds": ["s0"], "valuation": {"xi": ["s0"]}}'))
    assert "V-prop-name" in {v.tag for v in diagnostics.violations}


# --- closure -----------------------------------------------------------


def test_rt_closure_singleton():
    assert rt_closure(set(), ("a",)) == frozenset({("a", "a")})


def test_rt_closure_chain():
    got = rt_closure({("a", "b"), ("b", "c")}, ("a", "b", "c"))
    assert got == frozenset(
        {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")}
    )


@given(st.integers(0, 10_000))
def test_rt_closure_idempotent_reflexive_transitive(seed):
    from gkmc.generate import SplitMix64

    rng = SplitMix64(seed)
    worlds = tuple(f"w{k}" for k in range(1 + rng.below(5)))
    relation = {(a, b) for a in worlds for b in worlds if rng.chance(0.3)}
    closed = rt_closure(relation, worlds)
    assert rt_closure(closed, worlds) == closed
    for w in worlds:
        assert (w, w) in closed
    for a, b in closed:
        for c, d in closed:
            if b == c:
                assert (a, d) in closed
    assert relation <= closed


# --- round trips -------------------------------------------------------


def test_fixture_round_trip(de_dicto, deadlock, waitall):
    for m in (de_dicto, deadlock, waitall):
        assert same_structure(load_model(dump_model(m)), m)


def test_generated_round_trip_and_validity():
    for seed in range(150):
        m = gen_model(GenSpec(seed=seed, max_worlds=4, max_children=2, max_depth=2, prop_count=2))
        assert validate(m).verdict
        reloaded = load_model(dump_model(m))
        assert same_structure(reloaded, m)


def test_dump_orders_valuation_worlds_outside_worlds_by_name():
    # Such a model is invalid, but its dump must still not depend on
    # frozenset iteration order: worlds in `worlds` keep their index order
    # and the rest follow by name.
    outside = [f"w{k:02d}" for k in range(20)]
    m = GenealogicalModel(("s1", "s0"), frozenset(), {"p": frozenset(outside[::-1] + ["s0", "s1"])}, {}, {}, {})
    assert json.loads(dump_model(m))["valuation"]["p"] == ["s1", "s0", *outside]


def test_load_accepts_only_validated():
    for seed in range(50):
        m = gen_model(GenSpec(seed=seed))
        loaded = load_model(dump_model(m))
        assert validate(loaded).verdict


# --- input layer, pinned -----------------------------------------------


def test_input_layer_answers_are_pinned():
    # One SHA-256 over the format errors, violations, dumps and parse
    # errors of a seeded corpus of mutated documents and sentences (see
    # tests/input_corpus.py); any change to a message, path, order,
    # line or column changes it.
    from input_corpus import digest

    assert digest() == "b7c6d66f0e12377340c4e9f70082889a670c55b75b88c511b0d08a556ef8eb20"


def test_mutated_models_reach_every_tag_at_the_root_and_in_a_child():
    from input_corpus import mutated_models

    tags = {"S-nonempty", "S-duplicate", "R-endpoints", "V-prop-name", "V-subset", "N-label", "I-world",
            "I-const-name", "I-range", "T-world", "T-label", "T-range", "T-total"}
    found = {(v.tag, bool(v.path)) for m in mutated_models(500, 0) for v in validate(m).violations}
    assert found == {(tag, in_child) for tag in tags for in_child in (False, True)}
