import json
import pathlib
import re
import subprocess
import sys
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from gkmc.generate import GenSpec, gen_model
import gkmc.model as model_module
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
    reject_duplicate_keys,
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
    with pytest.raises(DocumentFormatError, match="^duplicate key 'worlds'$"):
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


def _nesting(text: str) -> int:
    """The deepest level of `text`'s brackets outside strings, taken one bracket at a time."""
    outside = re.sub(r'"[^"\\]*(?:\\.[^"\\]*)*"', "", text)
    return max(accumulate(1 if b in "[{" else -1 for b in re.findall(r"[][{}]", outside)), default=0)


@given(st.text('[]{}"\\a:\n', max_size=40), st.integers(1, 6))
@example('"[[', 1)  # an unclosed string is not taken out
@example('"[[\\\n"', 1)  # nor one the regex cannot match, a backslash before a newline
def test_depth_measure_agrees_with_a_plain_scan(text, limit):
    # Well-formed or not: on an error path the measure decides which error comes first.
    with mock.patch.object(model_module, "MAX_DOCUMENT_DEPTH", limit):
        assert model_module._too_deep(text) == (_nesting(text) > limit), text


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


# --- one load walk -----------------------------------------------------


def _loaded(text: str):
    """What `load_model` answers: the error's class and message and the
    violation triples, or the model's dump."""
    try:
        return "model", dump_model(load_model(text))
    except DocumentFormatError as exc:
        return "format", str(exc)
    except ModelInvalidError as exc:
        return "invalid", str(exc), [(v.tag, v.path, v.message) for v in exc.diagnostics.violations]


def _two_step(text: str):
    """The same, from `parse_document` and then `validate`."""
    try:
        m = parse_document(text)
    except DocumentFormatError as exc:
        return "format", str(exc)
    diagnostics = validate(m)
    if diagnostics.verdict:
        return "model", dump_model(m)
    return "invalid", str(ModelInvalidError(diagnostics)), [(v.tag, v.path, v.message) for v in diagnostics.violations]


def test_load_model_answers_as_parse_then_validate_on_the_corpus():
    from input_corpus import mutated_documents

    texts = mutated_documents(1500, 0)
    kinds = set()
    for text in texts:
        got = _loaded(text)
        assert got == _two_step(text), text
        kinds.add(got[0])
        # A repeated key is reported as the decoder's hook would report it.
        try:
            json.loads(text, object_pairs_hook=reject_duplicate_keys)
        except DocumentFormatError as exc:
            assert got == ("format", str(exc)), text
        except json.JSONDecodeError:
            pass
    assert kinds == {"model", "format", "invalid"}


_ROW = '"children": {"n": {"worlds": ["t"]}}, "tracking": {"s0": {"n": "t"}}'


@pytest.mark.parametrize(
    "text, answer",
    [
        # A repeated key in an object the decoder finished before the syntax error.
        ('{"valuation": {"p": [], "p": []}, "worlds": [', ("format", "duplicate key 'p'")),
        # In the unfinished object the syntax error comes first, as before.
        ('{"worlds": ["s0"], "worlds": ["s1"], ', ("format", "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 38 (char 37)")),
        ('{"worlds": ["s0"], "worlds": ["s1"], "relation": 5}', ("format", "duplicate key 'worlds'")),
        ('{"relation": 5, "worlds": ["s0"], "valuation": {"p": [], "p": []}}', ("format", "duplicate key 'p'")),
        ('{"worlds": ["s0"], "valuation": {"p": ["s0"], "p": ["s0"]}}', ("format", "duplicate key 'p'")),
        ('{"worlds": ["s0"], ' + _ROW + ', "assignment": {"s0": {"c": "n", "c": "n"}}}', ("format", "duplicate key 'c'")),
        ('{"worlds": ["s0"], "closure": {"a": 1, "a": 1}}', ("format", "duplicate key 'a'")),
        ('{"worlds": [{"a": 1, "a": 1}]}', ("format", "duplicate key 'a'")),
        ('{"worlds": ["s0:{["], "children": {"n:{[": {"worlds": ["t:"]}}, "tracking": {"s0:{[": {"n:{[": "t:"}}}', "model"),
        ('{"worlds": ["s0:{["], "valuation": {"p:": ["s0:{["], "p": []}}', ("invalid", "invalid model: V-prop-name at <root>: invalid proposition name 'p:'", [("V-prop-name", "", "invalid proposition name 'p:'")])),
        ('{"worlds": ["a:b"], "valuation": {"p": ["a:b"], "p": []}}', ("format", "duplicate key 'p'")),
        ('{"worlds": ["s0"], "x:y": 1}', ("format", "<root>: unknown field(s): x:y")),
        ('{"worlds": ["s0"], "x:y": 1, "x:y": 2}', ("format", "duplicate key 'x:y'")),
    ],
)
def test_load_model_reports_what_the_two_step_load_reported(text, answer):
    got = _loaded(text)
    assert got == _two_step(text)
    assert (got[0] if answer == "model" else got) == answer


def test_duplicate_key_hook_runs_only_to_report_an_error(monkeypatch):
    calls = []

    def hook(pairs):
        calls.append(pairs)
        return reject_duplicate_keys(pairs)

    monkeypatch.setattr(model_module, "reject_duplicate_keys", hook)
    for seed in range(50):
        load_model(dump_model(gen_model(GenSpec(seed=seed, max_worlds=4, max_children=2, max_depth=2))))
    assert calls == []
    with pytest.raises(DocumentFormatError, match="duplicate key 'p'"):
        load_model('{"worlds": ["s0"], "valuation": {"p": ["s0"], "p": ["s0"]}}')
    assert calls


def test_depth_limit_is_exact_on_a_chain_of_children():
    # The walk measures the text once it meets a model 484 generations
    # down, the first that can reach level 971.  A fresh process, as in
    # test_depth_limit_is_exact.
    script = """if True:
        from gkmc.model import DocumentFormatError, load_model
        for generations, leaf in ((484, '{"worlds": ["s"], "valuation": {}}'), (484, '{"worlds": ["s"], "valuation": {"p": []}}'),
                                  (485, '{"worlds": ["s"]}')):
            text = leaf
            for _ in range(generations):
                text = '{"worlds": ["s"], "children": {"n": ' + text + '}, "tracking": {"s": {"n": "s"}}}'
            try:
                print(len(load_model(text).worlds))
            except DocumentFormatError as exc:
                print(exc)
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=src)
    too_deep = "document nested too deeply for the JSON decoder"
    assert done.stdout.splitlines() == ["1", too_deep, too_deep]


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
