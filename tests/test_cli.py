import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gkmc.cli import main
from gkmc.bisim import WitnessReport, check_witness, witness_from_document
from gkmc.generate import GenSpec, dup_child, gen_model, gen_sentence
from gkmc.model import PointedModel, dump_model, load_model, load_model_file
from gkmc.syntax import Vocabulary, format_formula

from conftest import fixture_path
from input_corpus import mutated_documents


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


DE_DICTO_SENTENCE = "([] exists x. ?[r] x & (~ exists x. [] ?[r] x & [] ?[r] #c))"


# --- validate ------------------------------------------------------------


def test_validate_fixture(capsys):
    code, out = run(capsys, "validate", fixture_path("de_dicto.gkm.json"))
    assert code == 0
    assert "valid" in out


def test_validate_unreadable_file(capsys):
    code, _ = run(capsys, "validate", "/nonexistent/q.gkm.json")
    assert code == 2


def test_validate_truncated_file(capsys, tmp_path):
    bad = tmp_path / "bad.gkm.json"
    bad.write_text('{"worlds": ["s0"')
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert "format" in out


def test_validate_tracking_gap(capsys, tmp_path):
    doc = {
        "worlds": ["s0"],
        "children": {"n1": {"worlds": ["t0"]}},
        "tracking": {},
    }
    path = tmp_path / "gap.gkm.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert "T-total" in out


_DEEP_VALUATION = '{"worlds": ["s"], "valuation": {"p": ' + "[" * 3000 + "]" * 3000 + "}}"


def _chain(generations: int) -> str:
    """A valid model with one child per generation, `generations` deep."""
    text = '{"worlds": ["s"]}'
    for _ in range(generations):
        text = '{"worlds": ["s"], "children": {"n": ' + text + '}, "tracking": {"s": {"n": "s"}}}'
    return text


@pytest.mark.parametrize(
    "text",
    [_DEEP_VALUATION, _chain(600)],
    ids=["valuation-3000-deep", "chain-600"],
)
def test_validate_too_deep_document_is_an_input_error(capsys, tmp_path, text):
    path = tmp_path / "deep.gkm.json"
    path.write_text(text)
    code, out = run(capsys, "--json", "validate", str(path))
    assert code == 2
    assert json.loads(out) == {"error": "format", "message": "document nested too deeply for the JSON decoder"}


def test_validate_480_generation_chain_loads(tmp_path):
    # In a fresh process: the decoder's depth limit counts the frames
    # already on the stack, and pytest's are many.
    path = tmp_path / "chain.gkm.json"
    path.write_text(_chain(480))
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "gkmc.cli", "--json", "validate", str(path)], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (0, '{"valid":true}\n')


def test_validate_closure_over_unknown_world_is_a_violation(capsys, tmp_path):
    path = tmp_path / "rt.gkm.json"
    path.write_text('{"worlds": ["a"], "relation": [["a", "b"]], "closure": "reflexive-transitive"}')
    code, out = run(capsys, "--json", "validate", str(path))
    assert code == 1
    assert json.loads(out)["violations"] == [
        "R-endpoints at <root>: relation pair ('a', 'b') mentions unknown world",
        "R-endpoints at <root>: relation pair ('b', 'b') mentions unknown world",
    ]


# --- eval ----------------------------------------------------------------


def test_eval_de_dicto_at_s0(capsys):
    code, _ = run(capsys, "eval", fixture_path("de_dicto.gkm.json"), DE_DICTO_SENTENCE, "--world", "s0")
    assert code == 0


def test_eval_fails_at_s2(capsys):
    code, _ = run(capsys, "eval", fixture_path("de_dicto.gkm.json"), DE_DICTO_SENTENCE, "--world", "s2")
    assert code == 1


def test_eval_top_lists_all_worlds(capsys):
    code, out = run(capsys, "eval", fixture_path("de_dicto.gkm.json"), "T")
    assert code == 0
    assert json.loads(out) == ["s0", "s1", "s2"]


def test_eval_non_sentence_diagnosed(capsys):
    code, out = run(capsys, "eval", fixture_path("de_dicto.gkm.json"), "xi X. X")
    assert code == 2
    assert "C1-free-var" in out
    assert "C2-xi-subformula" in out


def test_eval_unknown_name_rejected(capsys):
    code, out = run(capsys, "eval", fixture_path("de_dicto.gkm.json"), "zzz")
    assert code == 2
    assert "zzz" in out


def test_eval_unknown_world(capsys):
    code, _ = run(capsys, "eval", fixture_path("de_dicto.gkm.json"), "T", "--world", "zz")
    assert code == 2


def test_eval_vocab_override(capsys, tmp_path):
    vocab = tmp_path / "vocab.json"
    vocab.write_text('{"props": ["r", "extra"], "constants": ["c"]}')
    code, _ = run(capsys, "eval", fixture_path("de_dicto.gkm.json"), "extra | T", "--vocab", str(vocab))
    assert code == 0


@pytest.mark.parametrize(
    "vocab_text",
    ['{"props": 5}', '{"props": [1]}', '{"props": [null]}', '{"constants": 3}', '{"props": "pq"}'],
    ids=["props-number", "props-number-item", "props-null-item", "constants-number", "props-string"],
)
def test_eval_malformed_vocab_is_an_input_error(capsys, tmp_path, vocab_text):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(vocab_text)
    code, out = run(capsys, "--json", "eval", fixture_path("de_dicto.gkm.json"), "T", "--vocab", str(vocab))
    assert code == 2
    assert json.loads(out)["error"] == "input"


# --- bisim ---------------------------------------------------------------


def test_bisim_same_pointed_model(capsys, tmp_path):
    witness_file = tmp_path / "witness.json"
    code, _ = run(
        capsys,
        "bisim",
        fixture_path("de_dicto.gkm.json"), "s0",
        fixture_path("de_dicto.gkm.json"), "s0",
        "--witness", str(witness_file),
    )
    assert code == 0
    m = load_model_file(fixture_path("de_dicto.gkm.json"))
    witness = witness_from_document(json.loads(witness_file.read_text()))
    assert check_witness(PointedModel(m, "s0"), PointedModel(m, "s0"), witness).ok


def test_bisim_writes_no_witness_that_fails_its_check(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("gkmc.cli.check_witness", lambda *a, **k: WitnessReport(False, (("atoms", "forced"),)))
    witness_file = tmp_path / "witness.json"
    fixture = fixture_path("de_dicto.gkm.json")
    code, _ = run(capsys, "bisim", fixture, "s0", fixture, "s0", "--witness", str(witness_file))
    assert code == 4
    assert not witness_file.exists()


def test_bisim_witness_names_may_contain_bars(capsys, tmp_path):
    doc = {
        "worlds": ["w|0"],
        "valuation": {"p": ["w|0"]},
        "children": {"c|1": {"worlds": ["u|2"], "valuation": {"p": ["u|2"]}}},
        "tracking": {"w|0": {"c|1": "u|2"}},
    }
    path, witness_file = tmp_path / "bar.gkm.json", tmp_path / "witness.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "bisim", str(path), "w|0", str(path), "w|0", "--witness", str(witness_file))
    assert code == 0
    witness = witness_from_document(json.loads(witness_file.read_text()))
    assert ("c|1", "c|1", "u|2", "u|2") in witness.child_witnesses
    m = load_model_file(str(path))
    assert check_witness(PointedModel(m, "w|0"), PointedModel(m, "w|0"), witness).ok


def test_bisim_different_models(capsys):
    code, _ = run(
        capsys,
        "bisim",
        fixture_path("de_dicto.gkm.json"), "s0",
        fixture_path("waitall.gkm.json"), "s0",
    )
    assert code == 1


def test_bisim_with_oracle_agreement(capsys, tmp_path):
    doc = {"worlds": ["w0"], "valuation": {"p": ["w0"]}}
    path = tmp_path / "one.gkm.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "bisim", str(path), "w0", str(path), "w0", "--oracle")
    assert code == 0


def test_bisim_budget_exhausted_is_unknown(capsys):
    code, out = run(
        capsys,
        "bisim",
        fixture_path("de_dicto.gkm.json"), "s0",
        fixture_path("de_dicto.gkm.json"), "s0",
        "--budget", "0",
    )
    assert code == 3
    assert "unknown" in out


def test_bisim_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("GKMC_BISIM_BUDGET", "0")
    code, _ = run(
        capsys,
        "bisim",
        fixture_path("de_dicto.gkm.json"), "s0",
        fixture_path("de_dicto.gkm.json"), "s0",
    )
    assert code == 3


@pytest.mark.parametrize("flags,env", [(["--budget", "-1"], None), ([], "-1")], ids=["--budget", "GKMC_BISIM_BUDGET"])
def test_bisim_negative_budget_is_an_input_error(capsys, monkeypatch, flags, env):
    if env is not None:
        monkeypatch.setenv("GKMC_BISIM_BUDGET", env)
    fixture = fixture_path("de_dicto.gkm.json")
    code, out = run(capsys, "--json", "bisim", fixture, "s0", fixture, "s0", *flags)
    assert code == 2
    assert json.loads(out)["error"] == "input"


def test_bisim_vocab_containment(capsys, tmp_path):
    vocab = tmp_path / "vocab.json"
    vocab.write_text('{"props": [], "constants": []}')
    code, out = run(
        capsys,
        "bisim",
        fixture_path("de_dicto.gkm.json"), "s0",
        fixture_path("de_dicto.gkm.json"), "s0",
        "--vocab", str(vocab),
    )
    assert code == 2
    assert "outside the vocabulary" in out


# --- distinguish -----------------------------------------------------------


def test_distinguish_prop_difference(capsys, tmp_path):
    a = tmp_path / "a.gkm.json"
    b = tmp_path / "b.gkm.json"
    a.write_text(json.dumps({"worlds": ["w0"], "valuation": {"p": ["w0"]}}))
    b.write_text(json.dumps({"worlds": ["w0"], "valuation": {"p": []}}))
    code, out = run(capsys, "distinguish", str(a), "w0", str(b), "w0", "--max-depth", "2")
    assert code == 0
    assert out.strip() in ("p", "~p")


def test_distinguish_identical_exhausts(capsys):
    code, out = run(
        capsys,
        "distinguish",
        fixture_path("de_dicto.gkm.json"), "s0",
        fixture_path("de_dicto.gkm.json"), "s0",
        "--max-depth", "2",
    )
    assert code == 3
    assert "not a bisimilarity proof" in out


@pytest.mark.parametrize(
    "flags,env",
    [(["--max-depth", "-2"], None), (["--max-depth", "2", "--max-modal-depth", "-1"], None), ([], "-3")],
    ids=["max-depth", "max-modal-depth", "GKMC_MAX_DEPTH"],
)
def test_distinguish_negative_budget_is_an_input_error(capsys, monkeypatch, flags, env):
    if env is not None:
        monkeypatch.setenv("GKMC_MAX_DEPTH", env)
    fixture = fixture_path("de_dicto.gkm.json")
    code, out = run(capsys, "--json", "distinguish", fixture, "s0", fixture, "s0", *flags)
    assert code == 2
    assert json.loads(out)["error"] == "input"


# --- gen / fmt -------------------------------------------------------------


def test_gen_emits_loadable_document(capsys):
    code, out = run(capsys, "gen", "--seed", "11", "--max-worlds", "3")
    assert code == 0
    m = load_model(out)
    assert m.worlds


def test_gen_deterministic(capsys):
    _, first = run(capsys, "gen", "--seed", "4")
    _, second = run(capsys, "gen", "--seed", "4")
    assert first == second


def test_gen_to_file(capsys, tmp_path):
    target = tmp_path / "out.gkm.json"
    code, _ = run(capsys, "gen", "--seed", "2", "-o", str(target))
    assert code == 0
    assert load_model(target.read_text()).worlds


def test_fmt_canonicalizes(capsys):
    code, out = run(capsys, "fmt", "xi X.forall x.?[X] x")
    assert code == 0
    assert out.strip() == "xi X. forall x. ?[X] x"


def test_fmt_parse_error(capsys):
    code, _ = run(capsys, "fmt", "p & & q")
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        "~" * 2000 + "p",
        "[]" * 2000 + "p",
        "(" * 2000 + "p" + ")" * 2000,
        "<>" * 2000 + "p",
        " & ".join(["p"] * 2000),
    ],
    ids=["not", "box", "parentheses", "diamond", "and-chain"],
)
def test_deeply_nested_formula_is_an_input_error(capsys, text):
    code, out = run(capsys, "--json", "fmt", text)
    assert code == 2
    assert "nested deeper than" in json.loads(out)["message"]


# --- json mode --------------------------------------------------------------


def test_json_mode_is_bit_stable(capsys):
    args = ("--json", "eval", fixture_path("de_dicto.gkm.json"), DE_DICTO_SENTENCE, "--world", "s0")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert (code1, out1) == (code2, out2)
    payload = json.loads(out1)
    assert payload["holds"] is True
    assert payload["world"] == "s0"


def test_json_mode_single_line(capsys):
    _, out = run(capsys, "--json", "validate", fixture_path("waitall.gkm.json"))
    assert out.count("\n") == 1
    assert json.loads(out) == {"valid": True}


def test_exit_codes_never_conflate_unknown(capsys):
    # code 3 is reserved for budget exhaustion; a definite "not bisimilar" stays 1
    code, _ = run(
        capsys,
        "bisim",
        fixture_path("de_dicto.gkm.json"), "s0",
        fixture_path("deadlock.gkm.json"), "s0",
    )
    assert code == 1


def test_bisim_wide_generated_dup_child(capsys, tmp_path):
    m = gen_model(GenSpec(seed=0, max_worlds=16, max_children=6, max_depth=3, edge_density=0.4))
    left, right = tmp_path / "m.gkm.json", tmp_path / "dup.gkm.json"
    left.write_text(dump_model(m))
    right.write_text(dump_model(dup_child(m, sorted(m.children)[0])))
    code, out = run(capsys, "--json", "bisim", str(left), m.worlds[0], str(right), m.worlds[0])
    assert code == 0
    assert json.loads(out) == {"bisimilar": True}


def test_unexpected_exception_is_internal_not_a_verdict(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("gkmc.cli.bisimilar", crash)
    code, out = run(
        capsys,
        "--json",
        "bisim",
        fixture_path("de_dicto.gkm.json"), "s0",
        fixture_path("de_dicto.gkm.json"), "s0",
    )
    assert code == 4
    assert json.loads(out) == {"error": "internal", "message": "RuntimeError: boom"}


# --- exit-code contract over generated invocations --------------------------

_TOKENS = ["p", "q", "T", "F", "X", "x", "#c", "~", "[]", "<>", "&", "|", "->", "(", ")", "?[", "]", ".",
           "forall", "exists", "xi", "-", "@"]
_TINY_VOCAB = Vocabulary.of(props=["p"], constants=["c"])
_DEPTHS = st.sampled_from([33, 34, 100, 101, 200, 400, 2000])

_sentence_texts = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join),
    st.text(max_size=12),
    st.integers(0, 10**6).map(lambda seed: format_formula(gen_sentence(seed, _TINY_VOCAB, max_connectives=6))),
    st.builds(lambda op, n: op * n + "p", st.sampled_from(["~", "[]", "<>", "forall x. ", "p & "]), _DEPTHS),
    _DEPTHS.map(lambda n: "(" * n + "p" + ")" * n),
)


@pytest.fixture(scope="module")
def tiny_models(tmp_path_factory):
    """(path, worlds) of a few tiny generated models and one `dup_child` copy."""
    root = tmp_path_factory.mktemp("tiny")
    models = [gen_model(GenSpec(seed=seed, max_worlds=3, max_children=2, max_depth=1)) for seed in range(4)]
    models.append(dup_child(models[0], sorted(models[0].children)[0]))
    out = []
    for k, m in enumerate(models):
        path = root / f"m{k}.gkm.json"
        path.write_text(dump_model(m))
        out.append((str(path), m.worlds))
    return out


@pytest.fixture(scope="module")
def corpus_models(tmp_path_factory):
    """(path, worlds) of mutated documents from the pinned input corpus,
    most of them malformed or invalid."""
    return _write_documents(tmp_path_factory.mktemp("corpus"), mutated_documents(150, 0))


@pytest.fixture(scope="module")
def deep_models(tmp_path_factory):
    """(path, worlds) of documents nested at or beyond the decoder's limit."""
    return _write_documents(tmp_path_factory.mktemp("deep"), [_DEEP_VALUATION, _chain(600), _chain(480)])


def _write_documents(root, texts):
    out = []
    for k, text in enumerate(texts):
        path = root / f"d{k}.gkm.json"
        path.write_text(text)
        out.append((str(path), ("s", "s0", "s1")))
    return out


@pytest.fixture(scope="module")
def vocab_path(tmp_path_factory):
    return tmp_path_factory.mktemp("vocab") / "vocab.json"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_name_lists = st.lists(st.sampled_from(["p", "q", "r", "c", "d", "forall", "P", "", "x1"]), max_size=3)
_vocab_fields = st.fixed_dictionaries({}, optional={"props": _name_lists | _json_values, "constants": _name_lists | _json_values})
_vocab_docs = st.one_of(_json_values, _vocab_fields, _vocab_fields)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_exit_code_contract_on_generated_invocations(tiny_models, corpus_models, deep_models, vocab_path, data):
    def model(deep=False):
        # bisim and distinguish still recurse once per generation (ROADMAP
        # item 1), so only validate and eval read the deep documents.
        sources = [tiny_models, corpus_models, *([deep_models] if deep else [])]
        return data.draw(st.one_of(*map(st.sampled_from, sources)))

    def world(worlds):
        return data.draw(st.sampled_from([*worlds, "nowhere"]))

    def vocab_flag():
        if not data.draw(st.booleans()):
            return []
        vocab_path.write_text(json.dumps(data.draw(_vocab_docs)))
        return ["--vocab", str(vocab_path)]

    command = data.draw(st.sampled_from(["fmt", "eval", "bisim", "distinguish", "gen", "validate"]))
    if command == "gen":
        sizes = {flag: data.draw(st.integers(-1, 2)) for flag in ("--max-worlds", "--max-children", "--max-depth", "--props", "--constants")}
        density = data.draw(st.sampled_from([float("nan"), -0.5, 0.0, 0.3, 1.0, 1.5]))
        argv = [command, "--density", str(density), *(str(x) for item in sizes.items() for x in item)]
        spec_ok = sizes.pop("--max-worlds") >= 1 and min(sizes.values()) >= 0 and 0 <= density <= 1
    elif command == "validate":
        argv = [command, model(deep=True)[0]]
    elif command in ("fmt", "eval"):
        argv = [command, data.draw(_sentence_texts)]
        if command == "eval":
            path, worlds = model(deep=True)
            argv.insert(1, path)
            if data.draw(st.booleans()):
                argv += ["--world", world(worlds)]
            argv += vocab_flag()
    else:
        (p1, w1), (p2, w2) = model(), model()
        argv = [command, p1, world(w1), p2, world(w2)]
        if command == "distinguish":
            depth, modal = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
            argv += ["--max-depth", str(depth), "--max-modal-depth", str(modal)]
        else:
            argv += vocab_flag()
            if data.draw(st.booleans()):
                argv += ["--budget", str(data.draw(st.integers(0, 3)))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(["--json", *argv])
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, out.getvalue())
    if command == "distinguish" and min(depth, modal) < 0:
        assert code == 2, (argv, out.getvalue())
    if command == "gen":
        assert code == (0 if spec_ok else 2), (argv, out.getvalue())
    if code == 1:
        payload = json.loads(out.getvalue())
        assert any(payload.get(key) is False for key in ("holds", "bisimilar", "valid")), (argv, payload)
