import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from gkmc.bisim import (
    DEFAULT_BUDGET,
    BisimWitness,
    BudgetExceededError,
    OracleSizeError,
    bisimilar,
    brute_force_bisim,
    check_witness,
    witness_from_document,
    witness_to_document,
)
from gkmc.bisim import _Budget, _Ctx, _minimal_covers, _surjective
from gkmc.distinguish import EnumerationBudget, distinguish
from gkmc.generate import GenSpec, break_child, dup_child, gen_model
from gkmc.model import GenealogicalModel, PointedModel, load_model, model_vocabulary
from gkmc.semantics import holds_at
from gkmc.syntax import Vocabulary, format_formula

TINY = dict(max_worlds=3, max_children=2, max_depth=2, prop_count=1, constant_count=1, edge_density=0.45)


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
    m = gen_model(GenSpec(seed=7, max_worlds=4, max_children=2, max_depth=2, prop_count=1))
    with pytest.raises(BudgetExceededError):
        bisimilar(_pointed(m), _pointed(m), budget=0)


# --- witness checking ----------------------------------------------------


def test_check_witness_rejects_monotonicity_violation(de_dicto):
    pm = _pointed(de_dicto)
    verdict = bisimilar(pm, pm)
    w = verdict.witness
    # grow f on a non-reflexive pair the zig clause must route through
    f = dict(w.f)
    (u, v) = ("s0", "s0")
    assert (u, v) in f
    f[(u, v)] = frozenset({("n1", "n1"), ("n2", "n2"), ("n1", "n2")})
    mutated = BisimWitness(z=w.z, f=f, child_witnesses=w.child_witnesses)
    report = check_witness(pm, pm, mutated)
    assert not report.ok
    tags = {tag for tag, _ in report.failures}
    assert tags & {"zig", "zag", "children"}


def test_check_witness_rejects_missing_pointed_pair(de_dicto):
    pm = _pointed(de_dicto)
    verdict = bisimilar(pm, pm)
    w = verdict.witness
    smaller_z = frozenset(p for p in w.z if p != ("s0", "s0"))
    f = {p: w.f[p] for p in smaller_z}
    mutated = BisimWitness(z=smaller_z, f=f, child_witnesses=w.child_witnesses)
    report = check_witness(pm, pm, mutated)
    assert not report.ok
    assert "pointed-pair" in {tag for tag, _ in report.failures}


def test_check_witness_requires_f_on_exactly_z(de_dicto):
    pm = _pointed(de_dicto)
    w = bisimilar(pm, pm).witness
    f = dict(w.f)
    f[("s0", "s2")] = frozenset()
    mutated = BisimWitness(z=w.z, f=f, child_witnesses=w.child_witnesses)
    assert "f-domain" in {tag for tag, _ in check_witness(pm, pm, mutated).failures}


def test_identity_witness_on_structural_copy(deadlock):
    text = '{"worlds": ["w0"], "valuation": {"a": ["w0"]}}'
    m, n = load_model(text), load_model(text)
    identity = BisimWitness(
        z=frozenset({("w0", "w0")}),
        f={("w0", "w0"): frozenset()},
        child_witnesses={},
    )
    assert check_witness(_pointed(m), _pointed(n), identity).ok


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


def _brute_minimal_covers(g, labels_m, labels_n):
    edges = sorted(g)
    covers = [
        frozenset(c)
        for k in range(len(edges) + 1)
        for c in itertools.combinations(edges, k)
        if _surjective(c, labels_m, labels_n)
    ]
    minimal = [c for c in covers if not any(o < c for o in covers)]
    return sorted(minimal, key=lambda c: (len(c), sorted(c)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**16 - 1))
def test_minimal_covers_match_exhaustive_filter(left, right, mask):
    labels_m = tuple(f"a{k}" for k in range(left))
    labels_n = tuple(f"b{k}" for k in range(right))
    all_pairs = [(a, b) for a in labels_m for b in labels_n]
    g = frozenset(p for k, p in enumerate(all_pairs) if mask >> k & 1)
    assert list(_minimal_covers(g, labels_m, labels_n)) == _brute_minimal_covers(g, labels_m, labels_n)


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


# --- cover rejection ------------------------------------------------------


def _retracked_pair():
    """A pair that plain refinement keeps but no minimal cover does.

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
    ctx = _Ctx(model_vocabulary(pm.model, pn.model), _Budget(DEFAULT_BUDGET))
    assert ctx.decide(pm.model, pn.model, pm.world, pn.world) is None
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
