import itertools
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmc.bisim import (
    DEFAULT_BUDGET,
    BisimVerdict,
    BisimWitness,
    BudgetExceededError,
    OracleSizeError,
    bisimilar,
    brute_force_bisim,
    check_witness,
    witness_from_document,
    witness_to_document,
)
from gkmc import bisim as bisim_module
from gkmc.bisim import _Ctx, _successors, _surjective
from gkmc.distinguish import EnumerationBudget, distinguish
from gkmc.generate import GenSpec, break_child, derive, dup_child, gen_model, rename_worlds
from gkmc.model import GenealogicalModel, PointedModel, dump_model, load_model, model_vocabulary, replace_model
from gkmc.semantics import holds_at
from gkmc.syntax import Vocabulary, format_formula

from conftest import ONE_CHILD, TINY, TWO_CHILDREN, load_script, twins_and_retrack


W8 = dict(max_worlds=8, max_children=4, max_depth=2, edge_density=0.4)


def _pointed(m, k=0):
    return PointedModel(m, m.worlds[k])


def _flip_prop(m, prop, world):
    valuation = dict(m.valuation)
    member = valuation.get(prop, frozenset())
    valuation[prop] = member ^ {world}
    return GenealogicalModel(m.worlds, m.relation, valuation, m.children, m.assignment, m.tracking)


# --- basic verdicts -----------------------------------------------------


def test_reflexive_with_witness(de_dicto, deadlock, waitall):
    for m in (de_dicto, deadlock, waitall):
        pm = _pointed(m)
        verdict = bisimilar(pm, pm)
        assert verdict.bisimilar
        assert (pm.world, pm.world) in verdict.witness.z
        assert check_witness(pm, pm, verdict.witness).ok


def test_reflexive_on_generated_models():
    for seed in range(30):
        m = gen_model(GenSpec(seed=seed, **TINY))
        pm = _pointed(m)
        verdict = bisimilar(pm, pm)
        assert verdict.bisimilar
        assert check_witness(pm, pm, verdict.witness).ok


def test_symmetry():
    for seed in range(40):
        m = gen_model(GenSpec(seed=seed, **TINY))
        n = gen_model(GenSpec(seed=seed + 9_999, **TINY))
        forward = bisimilar(_pointed(m), _pointed(n)).bisimilar
        backward = bisimilar(_pointed(n), _pointed(m)).bisimilar
        assert forward == backward


def test_prop_flip_at_pointed_world_fails_atom_clause():
    m = gen_model(GenSpec(seed=2, **TINY))
    n = _flip_prop(m, "p", m.worlds[0])
    assert not bisimilar(_pointed(m), _pointed(n)).bisimilar
    assert not brute_force_bisim(_pointed(m), _pointed(n))


def test_dup_child_pair_bisimilar_and_oracle_agrees():
    found = 0
    seed = 0
    while found < 10 and seed < 200:
        m = gen_model(GenSpec(seed=seed, max_worlds=3, max_children=1, max_depth=1, prop_count=1, constant_count=1))
        seed += 1
        if not m.children:
            continue
        found += 1
        d = dup_child(m, sorted(m.children)[0])
        pm, pd = _pointed(m), _pointed(d)
        verdict = bisimilar(pm, pd)
        assert verdict.bisimilar
        assert check_witness(pm, pd, verdict.witness).ok
        assert brute_force_bisim(pm, pd)
    assert found == 10


def test_childless_vs_child_bearing_not_bisimilar():
    childless = load_model('{"worlds": ["w0"]}')
    parent = load_model(
        '{"worlds": ["w0"], "children": {"n0": {"worlds": ["u0"]}},'
        ' "tracking": {"w0": {"n0": "u0"}}}'
    )
    assert not bisimilar(_pointed(childless), _pointed(parent)).bisimilar
    assert not brute_force_bisim(_pointed(childless), _pointed(parent))


def test_every_returned_witness_checks():
    for seed in range(60):
        m = gen_model(GenSpec(seed=seed, **TINY))
        for v in m.worlds:
            pm, pn = _pointed(m), PointedModel(m, v)
            verdict = bisimilar(pm, pn)
            if verdict.bisimilar:
                assert check_witness(pm, pn, verdict.witness).ok


# --- oracle -------------------------------------------------------------


def test_oracle_single_world_cases():
    a = load_model('{"worlds": ["w0"], "valuation": {"p": ["w0"]}}')
    b = load_model('{"worlds": ["w0"], "valuation": {"p": ["w0"]}}')
    c = load_model('{"worlds": ["w0"]}')
    vocab = Vocabulary.of(props=["p"])
    assert brute_force_bisim(_pointed(a), _pointed(b), vocab=vocab)
    assert not brute_force_bisim(_pointed(a), _pointed(c), vocab=vocab)


def test_oracle_size_guard():
    wide = load_model(json.dumps({"worlds": [f"w{k}" for k in range(4)]}))
    with pytest.raises(OracleSizeError):
        brute_force_bisim(_pointed(wide), _pointed(wide))  # 16 world pairs

    leaf = {"worlds": ["u"]}
    deep = {"worlds": ["u"]}
    for _ in range(3):
        deep = {"worlds": ["u"], "children": {"n": deep}, "tracking": {"u": {"n": "u"}}}
    deep_model = load_model(json.dumps(deep))
    with pytest.raises(OracleSizeError):
        brute_force_bisim(_pointed(deep_model), _pointed(deep_model))

    crowded = {
        "worlds": ["u"],
        "children": {"a": leaf, "b": leaf, "c": leaf},
        "tracking": {"u": {"a": "u", "b": "u", "c": "u"}},
    }
    crowded_model = load_model(json.dumps(crowded))
    with pytest.raises(OracleSizeError):
        brute_force_bisim(_pointed(crowded_model), _pointed(crowded_model))


def _shared_chain(generations):
    """A one-world model whose every generation has two labels for one child."""
    m = GenealogicalModel(("w",), frozenset(), {}, {}, {}, {"w": {}})
    for _ in range(generations):
        m = GenealogicalModel(("w",), frozenset(), {}, {"a": m, "b": m}, {}, {"w": {"a": "w", "b": "w"}})
    return m


def test_oracle_guard_refuses_a_deep_model_by_size():
    deep = _pointed(_shared_chain(3000))
    with pytest.raises(OracleSizeError, match="depth exceeds"):
        brute_force_bisim(deep, deep)


def test_oracle_shares_no_code_with_the_decider(monkeypatch):
    pairs = [_retracked_pair(), (_pointed(_shared_chain(2)), _pointed(_shared_chain(2)))]
    for seed in range(12):
        m, n = gen_model(GenSpec(seed=seed, **TINY)), gen_model(GenSpec(seed=seed + 50_000, **TINY))
        pairs += [(_pointed(m), _pointed(n)), (_pointed(m), _pointed(m))]
    expected = [brute_force_bisim(pm, pn) for pm, pn in pairs]
    assert True in expected and False in expected

    def decider_helper(*args):
        raise AssertionError("the oracle called a decider helper")

    monkeypatch.setattr(bisim_module, "_surjective", decider_helper)
    monkeypatch.setattr(bisim_module, "_successors", decider_helper)
    assert [brute_force_bisim(pm, pn) for pm, pn in pairs] == expected


def test_search_agrees_with_oracle_on_random_tiny_pairs():
    checked = 0
    for seed in range(120):
        m = gen_model(GenSpec(seed=seed, **TINY))
        n = gen_model(GenSpec(seed=seed + 50_000, **TINY))
        pm, pn = _pointed(m), _pointed(n)
        assert bisimilar(pm, pn).bisimilar == brute_force_bisim(pm, pn)
        checked += 1
    assert checked == 120


def test_search_agrees_with_oracle_on_cross_world_pairs():
    for seed in range(40):
        m = gen_model(GenSpec(seed=seed, **TINY))
        for u in m.worlds:
            for v in m.worlds:
                pa, pb = PointedModel(m, u), PointedModel(m, v)
                assert bisimilar(pa, pb).bisimilar == brute_force_bisim(pa, pb)


def test_search_agrees_with_oracle_on_break_child_pairs():
    for seed in range(80):
        m = gen_model(GenSpec(seed=seed, **TINY))
        if not m.children:
            continue
        label = sorted(m.children)[0]
        b = break_child(m, label, "p", m.children[label].worlds[0])
        pa, pb = _pointed(m), _pointed(b)
        assert bisimilar(pa, pb).bisimilar == brute_force_bisim(pa, pb)


# --- budget -------------------------------------------------------------


def test_budget_exhaustion_is_distinct():
    # Against its world-renamed copy, which reflexivity cannot answer, so
    # the cover search runs and spends the budget.
    m = gen_model(GenSpec(seed=7, max_worlds=4, max_children=2, max_depth=2, prop_count=1))
    pm, pr = _pointed(m), _pointed(rename_worlds(m))
    with pytest.raises(BudgetExceededError):
        bisimilar(pm, pr, budget=0)
    assert bisimilar(pm, pr).bisimilar


@pytest.mark.parametrize("flip", [False, True], ids=["one-then-two", "two-then-one"])
def test_a_non_surjective_child_relation_is_refuted_with_no_budget(flip):
    # `b2` matches no child on the other side, so G(w, w) misses a label
    # and the pair is dropped before any search node is spent.
    pm, pn = (_pointed(load_model(json.dumps(doc))) for doc in (ONE_CHILD, TWO_CHILDREN))
    if flip:
        pm, pn = pn, pm
    assert bisimilar(pm, pn, budget=0) == BisimVerdict(False, None)
    assert not brute_force_bisim(pm, pn)


@pytest.mark.parametrize("budget", [-1, 1.5, "5"])
def test_budget_must_be_a_non_negative_int(budget):
    pm = _pointed(load_model('{"worlds": ["w0"]}'))
    with pytest.raises(ValueError):
        bisimilar(pm, pm, budget=budget)


# --- witness checking ----------------------------------------------------


def test_check_witness_rejects_a_child_pair_grown_into_h(de_dicto):
    pm = _pointed(de_dicto)
    w = bisimilar(pm, pm).witness
    # (n1, n2) is not bisimilar at the worlds it tracks, so no child witness can back it
    grown = BisimWitness(z=w.z, h=w.h | {("n1", "n2")}, child_witnesses=w.child_witnesses)
    report = check_witness(pm, pm, grown)
    assert not report.ok
    assert {tag for tag, _ in report.failures} == {"children"}


def test_check_witness_rejects_missing_pointed_pair(de_dicto):
    pm = _pointed(de_dicto)
    w = bisimilar(pm, pm).witness
    smaller_z = frozenset(p for p in w.z if p != ("s0", "s0"))
    mutated = BisimWitness(z=smaller_z, h=w.h, child_witnesses=w.child_witnesses)
    report = check_witness(pm, pm, mutated)
    assert not report.ok
    assert {tag for tag, _ in report.failures} == {"pointed-pair"}


def _leaf_witness(*pairs):
    return BisimWitness(z=frozenset(pairs), h=frozenset(), child_witnesses={})


def _replace_children(w, label, child):
    """`w` with every child witness under left label `label` replaced by `child`."""
    children = {key: child if key[0] == label else c for key, c in w.child_witnesses.items()}
    return BisimWitness(z=w.z, h=w.h, child_witnesses=children)


_TWINS = json.dumps({
    "worlds": ["w"],
    "children": {"a": {"worlds": ["u"]}, "b": {"worlds": ["u"]}},
    "tracking": {"w": {"a": "u", "b": "u"}},
})


def _twins_case(*h):
    """Twin one-world children against themselves, with the given H and a
    leaf witness for each of its pairs."""
    pm = _pointed(load_model(_TWINS))
    leaf = _leaf_witness(("u", "u"))
    return pm, pm, BisimWitness(z=frozenset({("w", "w")}), h=frozenset(h), child_witnesses={(a, b, "u", "u"): leaf for a, b in h})


def _one_step_case(left, right):
    """Two-world models with no children, related at x and y."""
    pm, pn = _pointed(load_model(left)), _pointed(load_model(right))
    return pm, pn, _leaf_witness(("x", "x"), ("y", "y"))


_STEP = '{"worlds": ["x", "y"], "relation": [["x", "y"]]}'
_STILL = '{"worlds": ["x", "y"]}'


def _de_dicto_case(de_dicto, mutate, right=None):
    pm = _pointed(de_dicto)
    pn = pm if right is None else _pointed(right)
    return pm, pn, mutate(bisimilar(pm, pm).witness)


def _without_constant_at_s1(m):
    assignment = {**m.assignment, "s1": {}}
    return GenealogicalModel(m.worlds, m.relation, m.valuation, m.children, assignment, m.tracking)


_CLAUSE_CASES = {
    # n1's witness is referenced at (running, running) and (stopped, stopped).
    "pointed-pair": ("pointed-pair", lambda dd: _de_dicto_case(
        dd, lambda w: _replace_children(w, "n1", _leaf_witness(("dead", "dead"))))),
    "atoms": ("atoms", lambda dd: _one_step_case('{"worlds": ["x", "y"], "valuation": {"p": ["x"]}}', _STILL)),
    "surjective-left": ("surjective-left", lambda dd: _twins_case(("a", "a"), ("a", "b"))),
    "surjective-right": ("surjective-right", lambda dd: _twins_case(("a", "a"), ("b", "a"))),
    "children-missing": ("children", lambda dd: _de_dicto_case(dd, lambda w: BisimWitness(
        z=w.z, h=w.h, child_witnesses={k: c for k, c in w.child_witnesses.items() if k != ("n2", "n2", "dead", "dead")}))),
    "children-unknown": ("children", lambda dd: _de_dicto_case(
        dd, lambda w: BisimWitness(z=w.z, h=w.h | {("n1", "n3")}, child_witnesses=w.child_witnesses))),
    "constants": ("constants", lambda dd: _de_dicto_case(dd, lambda w: w, right=_without_constant_at_s1(dd))),
    "zig": ("zig", lambda dd: _one_step_case(_STEP, _STILL)),
    "zag": ("zag", lambda dd: _one_step_case(_STILL, _STEP)),
    "z-unknown-world": ("pointed-pair", lambda dd: _de_dicto_case(
        dd, lambda w: BisimWitness(z=w.z | {("s0", "ghost")}, h=w.h, child_witnesses=w.child_witnesses))),
}


@pytest.mark.parametrize("case", sorted(_CLAUSE_CASES))
def test_check_witness_names_each_failing_clause(de_dicto, case):
    tag, build = _CLAUSE_CASES[case]
    pm, pn, witness = build(de_dicto)
    report = check_witness(pm, pn, witness)
    assert not report.ok
    assert {got for got, _ in report.failures} == {tag}


def test_check_witness_reports_a_missing_witness(de_dicto):
    pm = _pointed(de_dicto)
    assert check_witness(pm, pm, None).failures == (("pointed-pair", "missing witness"),)


def test_a_shared_child_witness_is_checked_once_per_call(de_dicto):
    pm = _pointed(de_dicto)
    w = bisimilar(pm, pm).witness
    shared = {c for key, c in w.child_witnesses.items() if key[0] == "n2"}
    assert len(shared) == 1 < sum(key[0] == "n2" for key in w.child_witnesses)
    (child,) = shared
    # (stopped, running) disagrees on r; every n2 reference shares the object.
    bad = BisimWitness(z=child.z | {("stopped", "running")}, h=child.h, child_witnesses=child.child_witnesses)
    report = check_witness(pm, pm, _replace_children(w, "n2", bad))
    assert [tag for tag, _ in report.failures] == ["atoms"]


@pytest.mark.parametrize("shape, entries", [((0, 8, 4, 2), 11), ((0, 16, 6, 3), 25)])
def test_check_witness_checks_each_witness_object_once(monkeypatch, shape, entries):
    pm, pd, w = _dup_child_witness(*shape)
    assert len(witness_to_document(w)["witnesses"]) == entries
    calls = []
    check_into = bisim_module._check_into
    monkeypatch.setattr(bisim_module, "_check_into", lambda *args: calls.append(args) or check_into(*args))
    assert check_witness(pm, pd, w).ok
    assert len(calls) == entries


@pytest.mark.parametrize("shape", [(0, 8, 4, 2), (0, 16, 6, 3)])
def test_check_witness_builds_each_successor_table_once(monkeypatch, shape):
    pm, pd, w = _dup_child_witness(*shape)
    calls = []
    successors = bisim_module._successors
    monkeypatch.setattr(bisim_module, "_successors", lambda m: calls.append(m) or successors(m))
    assert check_witness(pm, pd, w).ok
    assert len(calls) == len(set(calls)) == len(_submodels(pm.model, pd.model))


def test_check_witness_reports_failures_in_walk_order():
    # Three one-step children tracked at x: a's witness fails zig and zag,
    # b's is missing and c's Z lacks the pointed pair.
    step = {"worlds": ["x", "y"], "relation": [["x", "y"]]}
    pm = _pointed(load_model(json.dumps({
        "worlds": ["w"], "children": {"a": step, "b": step, "c": step}, "tracking": {"w": {"a": "x", "b": "x", "c": "x"}},
    })))
    children = {("a", "a", "x", "x"): _leaf_witness(("x", "x")), ("c", "c", "x", "x"): _leaf_witness(("y", "y"))}
    witness = BisimWitness(frozenset({("w", "w")}), frozenset({("a", "a"), ("b", "b"), ("c", "c")}), children)
    assert check_witness(pm, pm, witness).failures == (
        ("zig", "a|a|x|x: no response in Z for x -> y from (x, x)"),
        ("zag", "a|a|x|x: no response in Z for x -> y from (x, x)"),
        ("children", "missing child witness for (b, b) at (x, x)"),
        ("pointed-pair", "c|c|x|x: (x, x) not in Z"),
    )


def _one_world_chain(generations):
    m = GenealogicalModel(("s",), frozenset(), {}, {}, {}, {})
    for _ in range(generations):
        m = GenealogicalModel(("s",), frozenset(), {}, {"n": m}, {}, {"s": {"n": "s"}})
    return m


def _under_frames(count, call):
    """`call()` with `count` more frames on the stack."""
    return _under_frames(count - 1, call) if count else call()


def test_check_witness_of_a_480_generation_chain_needs_no_recursion():
    # Two separately built chains, bisimilar by reflexivity: one witness per generation.
    pm, pn = _pointed(_one_world_chain(480)), _pointed(_one_world_chain(480))
    verdict = bisimilar(pm, pn)
    assert verdict.bisimilar
    assert _under_frames(80, lambda: check_witness(pm, pn, verdict.witness)).ok


def test_identity_witness_on_structural_copy(deadlock):
    text = '{"worlds": ["w0"], "valuation": {"a": ["w0"]}}'
    m, n = load_model(text), load_model(text)
    assert check_witness(_pointed(m), _pointed(n), _leaf_witness(("w0", "w0"))).ok


# --- serialization -------------------------------------------------------


def test_witness_json_round_trip(waitall):
    pm = _pointed(waitall)
    w = bisimilar(pm, pm).witness
    doc = witness_to_document(w)
    text = json.dumps(doc, sort_keys=True)
    restored = witness_from_document(json.loads(text))
    assert witness_to_document(restored) == doc
    assert check_witness(pm, pm, restored).ok


def test_witness_document_is_deterministic(de_dicto):
    pm = _pointed(de_dicto)
    a = witness_to_document(bisimilar(pm, pm).witness)
    b = witness_to_document(bisimilar(pm, pm).witness)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _dup_child_witness(seed, max_worlds, max_children, max_depth):
    m = gen_model(GenSpec(seed=seed, max_worlds=max_worlds, max_children=max_children, max_depth=max_depth,
                          edge_density=0.4))
    d = dup_child(m, sorted(m.children)[0])
    pm, pd = _pointed(m), _pointed(d)
    return pm, pd, bisimilar(pm, pd).witness


def test_witness_table_holds_each_distinct_witness_once():
    _, _, w = _dup_child_witness(0, 8, 4, 2)
    entries = witness_to_document(w)["witnesses"]
    root = len(entries) - 1
    objects, todo, references = {root: w}, [root], 0
    while todo:
        k = todo.pop()
        node, entry = objects[k], entries[k]
        assert entry["z"] == [list(pair) for pair in sorted(node.z)]
        assert [tuple(key) for *key, _ in entry["children"]] == sorted(node.child_witnesses)
        for *key, i in entry["children"]:
            assert i < k
            references += 1
            child = node.child_witnesses[tuple(key)]
            if i not in objects:
                objects[i] = child
                todo.append(i)
            assert objects[i] is child
    # Every entry is one distinct object reachable from the root, and the
    # witness shares sub-witnesses, so the table is smaller than the tree.
    assert sorted(objects) == list(range(len(entries)))
    assert len(set(objects.values())) == len(entries) < references + 1


def test_witness_table_reads_back_shared_objects():
    pm, pd, w = _dup_child_witness(0, 8, 4, 2)
    doc = witness_to_document(w)
    restored = witness_from_document(json.loads(json.dumps(doc)))
    seen, todo = {restored}, [restored]
    while todo:
        for child in todo.pop().child_witnesses.values():
            if child not in seen:
                seen.add(child)
                todo.append(child)
    assert len(seen) == len(doc["witnesses"])
    assert witness_to_document(restored) == doc
    assert check_witness(pm, pd, restored).ok


_LEAF = {"z": [["u", "u"]], "h": [], "children": []}


def _with_child(index):
    return {**_LEAF, "children": [["a", "a", "u", "u", index]]}


@pytest.mark.parametrize(
    "doc",
    [
        {"witnesses": [_with_child(1), _LEAF]},
        {"witnesses": [_LEAF, _with_child(1)]},
        {"witnesses": [_LEAF, _with_child(-1)]},
        {"witnesses": []},
        {"z": _LEAF["z"], "h": _LEAF["h"], "children": {}},
        {"witnesses": [{"z": _LEAF["z"], "f": [{"pair": ["u", "u"], "children": []}], "children": []}]},
        {"witnesses": [{**_LEAF, "note": ""}]},
        {"witnesses": 5},
        {"witnesses": [{**_LEAF, "z": 5}]},
        [_LEAF],
        {"witnesses": [{**_LEAF, "z": ["s0"]}]},
        {"witnesses": [{**_LEAF, "h": ["ab"]}]},
        {"witnesses": [{**_LEAF, "z": [[1, 2]]}]},
        {"witnesses": [_LEAF, {**_LEAF, "children": [[1, "a", "u", "u", 0]]}]},
        {"witnesses": [_LEAF, _LEAF, _with_child(True)]},
        {"witnesses": [_LEAF], "note": ""},
    ],
    ids=["forward", "self", "negative", "empty", "nested", "per-pair-f", "extra-key", "table-not-a-list", "z-not-a-list", "document-a-list",
         "z-pair-a-string", "h-pair-a-string", "z-names-not-strings", "child-name-not-a-string", "index-true", "extra-top-level-key"],
)
def test_witness_table_rejects_bad_indices_and_other_formats(doc):
    with pytest.raises(ValueError):
        witness_from_document(doc)


def test_witness_document_refuses_a_cyclic_witness():
    w = _leaf_witness(("u", "u"))
    w.child_witnesses["a", "a", "u", "u"] = w
    with pytest.raises(ValueError):
        witness_to_document(w)


def test_wide_dup_child_witness_document_stays_small():
    _, _, w = _dup_child_witness(0, 16, 6, 3)
    assert len(json.dumps(witness_to_document(w), indent=2, sort_keys=True)) < 50_000


def test_witness_is_one_fixpoint_per_level_and_cover():
    m = gen_model(GenSpec(seed=0, max_worlds=8, max_children=4, max_depth=2, edge_density=0.4))
    pairs = [(m, dup_child(m, sorted(m.children)[0]))]
    pairs += [got for got in map(twins_and_retrack, range(6)) if got is not None]
    pointed = distinct = 0
    for m, n in pairs:
        ctx = _Ctx(model_vocabulary(m, n), DEFAULT_BUDGET, m, n)
        for w in m.worlds:
            ctx.decide(m, n, w, w)
        witnesses = {}
        for (a, b), level in ctx.levels.items():
            for h in level.covers.values():
                if h is None:
                    continue
                got = level.witness(h)
                assert got.z == level.fixpoint(h)
                assert got.h == h
                assert witnesses.setdefault((a, b, h), got) is got
                pointed += 1
        distinct += len(witnesses)
    # Pointed pairs with the same level and cover do occur.
    assert distinct < pointed


# --- child correspondences ------------------------------------------------


def test_many_identical_children_bisimilar_to_self():
    # G(w, w) is the complete 5x5 graph, with thousands of surjective subsets.
    labels = [f"n{k}" for k in range(5)]
    m = load_model(json.dumps({
        "worlds": ["w"],
        "children": {label: {"worlds": ["u"]} for label in labels},
        "tracking": {"w": {label: "u" for label in labels}},
    }))
    pm = _pointed(m)
    verdict = bisimilar(pm, pm)
    assert verdict.bisimilar
    assert check_witness(pm, pm, verdict.witness).ok


def test_wide_generated_dup_child_bisimilar_within_default_budget():
    m = gen_model(GenSpec(seed=0, max_worlds=16, max_children=6, max_depth=3, edge_density=0.4))
    d = dup_child(m, sorted(m.children)[0])
    pm, pd = _pointed(m), _pointed(d)
    verdict = bisimilar(pm, pd, budget=DEFAULT_BUDGET)
    assert verdict.bisimilar
    assert check_witness(pm, pd, verdict.witness).ok


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["independent", "dup_child", "break_child", "retrack"]), st.integers(0, 10_000), st.sampled_from([TINY, W8]))
def test_search_finds_a_cover_exactly_when_some_surjective_subset_works(kind, seed, spec):
    if kind == "retrack":
        pair = twins_and_retrack(seed)
        assume(pair is not None)
        m, n = pair
        s = t = m.worlds[seed % len(m.worlds)]
    else:
        m, n, s, t = _candidate_pair(kind, seed, spec)
    ctx = _Ctx(model_vocabulary(m, n), DEFAULT_BUDGET, m, n)
    ctx.decide(m, n, s, t)
    for level in list(ctx.levels.values()):
        for q in sorted(level.candidates):
            g = sorted(level.g[q])
            if len(g) > 12:
                continue
            subsets = (frozenset(c) for k in range(len(g) + 1) for c in itertools.combinations(g, k))
            works = any(_surjective(h, level.labels_m, level.labels_n) and q in level.fixpoint(h) for h in subsets)
            h = level.cover(*q)
            assert (h is not None) == works
            if h is not None:
                assert h <= level.g[q] and _surjective(h, level.labels_m, level.labels_n) and q in level.fixpoint(h)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(0, 3))
def test_wider_generated_models_bisimilar_to_themselves_and_dup_child(seed, pick):
    m = gen_model(GenSpec(seed=seed, max_worlds=8, max_children=4, max_depth=2, edge_density=0.4))
    pairs = [(PointedModel(m, w), PointedModel(m, w)) for w in m.worlds]
    if m.children:
        d = dup_child(m, sorted(m.children)[pick % len(m.children)])
        pairs += [(PointedModel(m, w), PointedModel(d, w)) for w in m.worlds]
    for pa, pb in pairs:
        verdict = bisimilar(pa, pb)
        assert verdict.bisimilar
        assert check_witness(pa, pb, verdict.witness).ok


# --- reflexivity ------------------------------------------------------------


@pytest.fixture
def levels_built(monkeypatch):
    """The (left, right) model pair of every level the decider builds."""
    built = []

    class Recorded(bisim_module._PairLevel):
        def __init__(self, ctx, m, n):
            built.append((m, n))
            super().__init__(ctx, m, n)

    monkeypatch.setattr(bisim_module, "_PairLevel", Recorded)
    return built


def _reloaded(m):
    return load_model(dump_model(m))


def test_separately_loaded_copies_are_decided_by_reflexivity(levels_built):
    m = gen_model(GenSpec(seed=0, **W8))
    a, b = _reloaded(m), _reloaded(m)
    assert a.children and a is not b
    for w in a.worlds:
        pa, pb = PointedModel(a, w), PointedModel(b, w)
        verdict = bisimilar(pa, pb, budget=0)
        assert verdict.bisimilar
        assert verdict.witness.z == frozenset((u, u) for u in a.worlds)
        assert check_witness(pa, pb, verdict.witness).ok
    assert levels_built == []


def _moved_tracking(m):
    """m with its first movable tracking entry moved to another world of
    its child, or None when no child has two worlds."""
    for w in m.worlds:
        for label, tracked in sorted(m.tracking[w].items()):
            others = [v for v in m.children[label].worlds if v != tracked]
            if others:
                return replace_model(m, tracking={**m.tracking, w: {**m.tracking[w], label: others[0]}})
    return None


def test_a_copy_differing_in_one_entry_goes_through_the_search(levels_built):
    # One tracking entry or one child valuation apart: no pair of roots is
    # one structure, so every positive verdict comes from a root level.
    searched = {"tracking": 0, "valuation": 0}
    for seed in range(40):
        m = gen_model(GenSpec(seed=seed, **TINY))
        if not m.children:
            continue
        label = sorted(m.children)[seed % len(m.children)]
        variants = {
            "tracking": _moved_tracking(m),
            "valuation": break_child(m, label, "p", m.children[label].worlds[0]),
        }
        for kind, variant in variants.items():
            if variant is None:
                continue
            a, b = _reloaded(m), _reloaded(variant)
            for w in a.worlds:
                pa, pb = PointedModel(a, w), PointedModel(b, w)
                verdict = bisimilar(pa, pb)
                assert verdict.bisimilar == brute_force_bisim(pa, pb)
                if verdict.bisimilar:
                    assert check_witness(pa, pb, verdict.witness).ok
                    assert (a, b) in levels_built
                searched[kind] += (a, b) in levels_built
    assert all(searched.values())


def test_a_copy_at_another_world_is_decided_by_the_search(levels_built):
    positives = 0
    for seed in range(40):
        m = gen_model(GenSpec(seed=seed, **TINY))
        a, b = _reloaded(m), _reloaded(m)
        for s, t in itertools.permutations(a.worlds, 2):
            pa, pb = PointedModel(a, s), PointedModel(b, t)
            verdict = bisimilar(pa, pb)
            assert verdict.bisimilar == brute_force_bisim(pa, pb)
            if verdict.bisimilar:
                assert check_witness(pa, pb, verdict.witness).ok
                assert (a, b) in levels_built
                positives += 1
    assert positives


def test_pointed_worlds_apart_on_an_atom_build_no_context(monkeypatch):
    m = gen_model(GenSpec(seed=2, **TINY))
    n = _flip_prop(m, "p", m.worlds[0])
    monkeypatch.setattr(bisim_module, "_Ctx", None)
    assert bisimilar(_pointed(m), _pointed(n)) == BisimVerdict(False, None)


# --- cover rejection ------------------------------------------------------


def _retracked_pair():
    """A pair that plain refinement keeps but no cover does.

    Both sides step once and have two copies of one 2-world child, `p` at
    `x` only.  The left tracks its children at x, y at both worlds; the
    right swaps them on its step.  So the children match straight at
    (s, t) (a1-b1, a2-b2) and crosswise at (s1, t1): no one child
    correspondence holds at both.
    """
    child = {"worlds": ["x", "y"], "valuation": {"p": ["x"]}}

    def model(worlds, labels, tracking):
        doc = {"worlds": worlds, "relation": [worlds], "children": dict.fromkeys(labels, child), "tracking": tracking}
        return load_model(json.dumps(doc))

    left = model(["s", "s1"], ("a1", "a2"), {"s": {"a1": "x", "a2": "y"}, "s1": {"a1": "x", "a2": "y"}})
    right = model(["t", "t1"], ("b1", "b2"), {"t": {"b1": "x", "b2": "y"}, "t1": {"b1": "y", "b2": "x"}})
    return PointedModel(left, "s"), PointedModel(right, "t")


def test_cover_rejection_decides_a_refinement_candidate_non_bisimilar():
    pm, pn = _retracked_pair()
    ctx = _Ctx(model_vocabulary(pm.model, pn.model), DEFAULT_BUDGET, pm.model, pn.model)
    assert not ctx.decide(pm.model, pn.model, pm.world, pn.world)
    assert (pm.world, pn.world) in ctx.levels[pm.model, pn.model].candidates
    assert not bisimilar(pm, pn).bisimilar
    assert not brute_force_bisim(pm, pn)


def test_cover_rejection_pair_is_separated_only_past_cost_four():
    pm, pn = _retracked_pair()
    vocab = model_vocabulary(pm.model, pn.model)
    assert distinguish(pm, pn, EnumerationBudget(4, 2, vocab)) is None
    separator = distinguish(pm, pn, EnumerationBudget(5, 1, vocab))
    assert format_formula(separator) == "~forall x. ~(?[p] x & []?[p] x)"
    left = holds_at(pm.model, pm.world, separator, use_memo=False)
    right = holds_at(pn.model, pn.world, separator, use_memo=False)
    assert left != right


# --- plain-bisimilarity classes -------------------------------------------


def _refined(alive, m, n):
    """The greatest subset of `alive` closed under plain zig/zag."""
    succ_m, succ_n = _successors(m), _successors(n)
    alive = set(alive)
    while True:
        keep = {
            (u, v) for (u, v) in alive
            if all(any((u2, v2) in alive for v2 in succ_n[v]) for u2 in succ_m[u])
            and all(any((u2, v2) in alive for u2 in succ_m[u]) for v2 in succ_n[v])
        }
        if keep == alive:
            return frozenset(alive)
        alive = keep


def _atoms_agree(m, n, u, v, props):
    return all((u in m.valuation.get(p, frozenset())) == (v in n.valuation.get(p, frozenset())) for p in props)


def _reference_candidates(ctx, m, n):
    """The candidates by definition, over the full product: every world
    pair of m × n passing the atom, surjectivity and constant clauses,
    refined under plain zig/zag."""
    ok = set()
    for u in m.worlds:
        for v in n.worlds:
            if not _atoms_agree(m, n, u, v, ctx.vocab.props):
                continue
            g = {
                (a, b) for a in m.children for b in n.children
                if ctx.decide(m.children[a], n.children[b], m.tracking[u][a], n.tracking[v][b])
            }
            constants = {(m.assignment.get(u, {}).get(c), n.assignment.get(v, {}).get(c)) for c in ctx.vocab.constants}
            surjective = {a for a, _ in g} == set(m.children) and {b for _, b in g} == set(n.children)
            if surjective and constants - {(None, None)} <= g:
                ok.add((u, v))
    return _refined(ok, m, n)


def _chain(length):
    worlds = [f"c{k}" for k in range(length)]
    return load_model(json.dumps({"worlds": worlds, "relation": [list(e) for e in zip(worlds, worlds[1:])]}))


def _classified(m, n):
    """A context whose one partition covers the trees of m and n."""
    return _Ctx(model_vocabulary(m, n), DEFAULT_BUDGET, m, n)


def _same_class(ctx, a, b):
    return {(u, v) for u in a.worlds for v in b.worlds if ctx.classes[a][u] == ctx.classes[b][v]}


def _naive_plain_pairs(a, b, props):
    return _refined({(u, v) for u in a.worlds for v in b.worlds if _atoms_agree(a, b, u, v, props)}, a, b)


@pytest.mark.parametrize("m, n", [
    (gen_model(GenSpec(seed=3, max_worlds=8, prop_count=2, max_depth=0, edge_density=0.3)),) * 2,
    (_chain(3), _chain(5)),
    (_chain(4), _chain(4)),
])
def test_plain_pairs_match_naive_refinement_on_atoms(m, n):
    assert _same_class(_classified(m, n), m, n) == _naive_plain_pairs(m, n, model_vocabulary(m, n).props)


def _candidate_pair(kind, seed, spec):
    if kind == "retracked":
        pm, pn = _retracked_pair()
        return pm.model, pn.model, pm.world, pn.world
    m = gen_model(GenSpec(seed=seed, **spec))
    if kind == "independent" or not m.children:
        n = gen_model(GenSpec(seed=seed + 50_000, **spec))
    elif kind == "dup_child":
        n = dup_child(m, sorted(m.children)[seed % len(m.children)])
    else:
        label = sorted(m.children)[seed % len(m.children)]
        n = break_child(m, label, "p", m.children[label].worlds[-1])
    return m, n, m.worlds[seed % len(m.worlds)], n.worlds[seed % len(n.worlds)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["independent", "dup_child", "break_child", "retracked"]),
    st.integers(0, 10_000),
    st.sampled_from([TINY, W8]),
)
def test_candidates_equal_the_full_product_definition(kind, seed, spec):
    m, n, s, t = _candidate_pair(kind, seed, spec)
    ctx = _Ctx(model_vocabulary(m, n), DEFAULT_BUDGET, m, n)
    ctx.decide(m, n, s, t)
    for (a, b), level in list(ctx.levels.items()):
        assert level.candidates == _reference_candidates(ctx, a, b)


def _submodels(*roots):
    found, todo = set(), list(roots)
    while todo:
        m = todo.pop()
        if m not in found:
            found.add(m)
            todo.extend(m.children.values())
    return found


def _loaded(m):
    """m read back from its own document: equal submodels, no shared objects."""
    return load_model(dump_model(m))


def _frame(m, props):
    """What plain bisimilarity reads of m: worlds, relation, valuation on props."""
    return m.worlds, m.relation, {p: m.valuation.get(p, frozenset()) for p in props}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(["independent", "dup_child", "break_child", "chains"]),
    st.integers(0, 10_000),
    st.sampled_from([TINY, W8]),
    st.sampled_from(["in memory", "loaded", "renamed"]),
)
def test_one_partition_matches_naive_refinement_for_every_submodel_pair(kind, seed, spec, copy):
    m, n = (_chain(3), _chain(5)) if kind == "chains" else _candidate_pair(kind, seed, spec)[:2]
    if copy == "loaded":
        m, n = _loaded(m), _loaded(n)
    elif copy == "renamed":
        n = rename_worlds(m)
    ctx = _classified(m, n)
    props = ctx.vocab.props
    for a in _submodels(m, n):
        for b in _submodels(m, n):
            assert _same_class(ctx, a, b) == _naive_plain_pairs(a, b, props)
    if copy == "renamed":
        # Equal frames but for world names: no class map is shared across the sides.
        assert not {id(ctx.classes[a]) for a in _submodels(m)} & {id(ctx.classes[b]) for b in _submodels(n)}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["dup_child", "break_child"])
def test_ctx_holds_one_class_map_per_distinct_frame(kind, seed):
    m, n, _, _ = _candidate_pair(kind, seed, W8)
    m, n = _loaded(m), _loaded(n)
    ctx = _classified(m, n)
    subs = list(_submodels(m, n))
    frames = [_frame(a, ctx.vocab.props) for a in subs]
    distinct = [f for k, f in enumerate(frames) if f not in frames[:k]]
    # Separately loaded trees hold equal frames in different objects.
    assert len(distinct) < len(subs)
    assert len({id(ctx.classes[a]) for a in subs}) == len({id(ctx.succ[a]) for a in subs}) == len(distinct)
    for a, fa in zip(subs, frames):
        for b, fb in zip(subs, frames):
            assert (ctx.classes[a] is ctx.classes[b]) == (ctx.succ[a] is ctx.succ[b]) == (fa == fb)


def test_only_vocabulary_propositions_split_a_frame():
    m = load_model(json.dumps({"worlds": ["a", "b"], "relation": [["a", "b"]], "valuation": {"p": ["a"]}}))
    q = _flip_prop(m, "q", "b")
    pm, pq = PointedModel(m, "a"), PointedModel(q, "a")
    outside = _Ctx(Vocabulary.of(props=["p"]), DEFAULT_BUDGET, m, q)
    assert outside.classes[m] is outside.classes[q] and outside.succ[m] is outside.succ[q]
    assert bisimilar(pm, pq, vocab=Vocabulary.of(props=["p"])).bisimilar
    inside = _Ctx(Vocabulary.of(props=["p", "q"]), DEFAULT_BUDGET, m, q)
    assert inside.classes[m] is not inside.classes[q]
    assert inside.classes[m]["b"] != inside.classes[q]["b"]
    assert not bisimilar(pm, pq, vocab=Vocabulary.of(props=["p", "q"])).bisimilar


def test_verdicts_on_the_digest_pairs_are_the_same_after_loading():
    script = load_script("bisim_digest")
    for k in range(script.PAIRS):
        kind = script.KINDS[k % len(script.KINDS)]
        pm, pn = script.pair(kind, derive(script.SEED, kind, k))
        lm, ln = PointedModel(_loaded(pm.model), pm.world), PointedModel(_loaded(pn.model), pn.world)
        verdict = bisimilar(lm, ln)
        assert verdict.bisimilar == bisimilar(pm, pn).bisimilar
        assert not verdict.bisimilar or check_witness(lm, ln, verdict.witness).ok


def _cycle_and_longer_chain():
    """a -> b -> a against the chain a0 -> b0 -> a1 -> b1, p at the a
    worlds.  Alone, each model's partition is stable by round 2; over
    both, the roots split only at round 4, when b1's dead end reaches a0."""
    cycle = load_model(json.dumps({"worlds": ["a", "b"], "relation": [["a", "b"], ["b", "a"]], "valuation": {"p": ["a"]}}))
    chain = load_model(json.dumps({
        "worlds": ["a0", "b0", "a1", "b1"],
        "relation": [["a0", "b0"], ["b0", "a1"], ["a1", "b1"]],
        "valuation": {"p": ["a0", "a1"]},
    }))
    return cycle, chain


def test_refinement_runs_until_the_union_is_stable():
    cycle, chain = _cycle_and_longer_chain()
    ctx = _classified(cycle, chain)
    assert ctx.classes[cycle]["a"] != ctx.classes[chain]["a0"]
    assert _same_class(ctx, cycle, chain) == _naive_plain_pairs(cycle, chain, ctx.vocab.props) == set()
    assert not brute_force_bisim(PointedModel(cycle, "a"), PointedModel(chain, "a0"))


def test_decide_outside_one_class_builds_no_level():
    cycle, chain = _cycle_and_longer_chain()
    ctx = _Ctx(model_vocabulary(cycle, chain), DEFAULT_BUDGET, cycle, chain)
    assert not ctx.decide(cycle, chain, "a", "a0")
    assert not ctx.levels


def test_wide_dup_child_cascade_stays_inside_plain_classes():
    m = gen_model(GenSpec(seed=4, max_worlds=16, max_children=6, max_depth=3, edge_density=0.4))
    d = dup_child(m, sorted(m.children)[0])
    ctx = _Ctx(model_vocabulary(m, d), DEFAULT_BUDGET, m, d)
    assert ctx.decide(m, d, m.worlds[0], d.worlds[0])
    # A level per pair of plainly bisimilar submodels met: 89, not 347.
    assert len(ctx.levels) < 150


def test_wide_dup_child_cascade_decides_through_few_levels():
    m = gen_model(GenSpec(seed=4, max_worlds=16, max_children=6, max_depth=3, edge_density=0.4))
    d = dup_child(m, sorted(m.children)[0])
    ctx = _Ctx(model_vocabulary(m, d), DEFAULT_BUDGET, m, d)
    assert ctx.decide(m, d, m.worlds[0], d.worlds[0])
    assert len(ctx.levels) < 1000
    level = ctx.levels[m, d]
    witness = level.witness(level.cover(m.worlds[0], d.worlds[0]))
    assert check_witness(PointedModel(m, m.worlds[0]), PointedModel(d, d.worlds[0]), witness).ok


# --- retrack pairs ----------------------------------------------------------


def test_search_agrees_with_oracle_on_retrack_pairs():
    cover_rejections = 0
    for seed in range(60):
        pair = twins_and_retrack(seed)
        if pair is None:
            continue
        m, r = pair
        for w in m.worlds:
            pm, pr = PointedModel(m, w), PointedModel(r, w)
            ctx = _Ctx(model_vocabulary(m, r), DEFAULT_BUDGET, m, r)
            found = ctx.decide(m, r, w, w)
            assert found == bisimilar(pm, pr).bisimilar == brute_force_bisim(pm, pr)
            cover_rejections += not found and (w, w) in ctx.levels[m, r].candidates
    # The population reaches the case only the cover search decides.
    assert cover_rejections


# --- exhaustive small scope -------------------------------------------------


def test_exhaustive_sub_scope_finds_no_fault():
    # Every 12th one-world parent, every 3rd two-world parent and every
    # twin-child parent of the script's default scope: 11,449 ordered
    # pairs, some of them rejected only by the cover search.  This
    # sub-scope catches a decider that ignores constants in `_local_ok`,
    # drops the zag half of `_refine` or stops the cover search at its
    # first branch.
    exhaustive = load_script("exhaustive")
    _, one_child, two_world, twins = exhaustive.scope()
    report = exhaustive.check([PointedModel(m, w) for m in one_child[::12] + two_world[::3] + twins for w in m.worlds])
    assert report.faults == []
    assert report.pairs == 107 * 107
    assert report.bisimilar and report.cover_rejected


# --- pinned output ----------------------------------------------------------


def test_bisim_digest_is_pinned():
    # Verdicts and witness documents of 200 tiny, dup_child, break_child and
    # retrack pairs, pinned in the script; a change here changes what
    # bisimilar returns.
    script = load_script("bisim_digest")
    assert script.digests(script.PAIRS, script.SEED) == (script.PINNED_VERDICTS, script.PINNED_WITNESSES)
