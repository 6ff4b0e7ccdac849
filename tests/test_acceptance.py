"""Acceptance suite: one test per criterion, exact or at the stated
threshold, each printing a PASS line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from gkmc.bisim import bisimilar, brute_force_bisim, check_witness
from gkmc.distinguish import EnumerationBudget, distinguish, enumerate_sentences
from gkmc.generate import GenSpec, SplitMix64, break_child, dup_child, gen_model, gen_sentence
from gkmc.model import PointedModel, dump_model, load_model, validate
from gkmc.semantics import Evaluator, UndefinedInterpretationError, evaluate_sentence, holds_at
from gkmc.syntax import Vocabulary, check_sentence, format_formula, parse

from conftest import same_structure

VOCAB = Vocabulary.of(props=["p", "q", "r", "a", "b"], constants=["c"])
STREAM_VOCAB = Vocabulary.of(props=["p"], constants=["c"])


def _ok(name):
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_de_dicto_example(de_dicto):
    sentence = parse("([] exists x. ?[r] x & (~ exists x. [] ?[r] x & [] ?[r] #c))", VOCAB)
    assert holds_at(de_dicto, "s0", sentence)
    _ok("1 running-child example holds at s0")


def test_criterion_2_deadlock_example(deadlock):
    sentence = parse(
        "exists x. exists y. (?[<> (a & ~b)] x & ?[<> (~a & b)] y)"
        " & ~ <> exists x. exists y. (?[(a & ~b)] x & ?[(~a & b)] y)",
        VOCAB,
    )
    assert holds_at(deadlock, "s0", sentence)
    negated = parse("<> exists x. exists y. (?[(a & ~b)] x & ?[(~a & b)] y)", VOCAB)
    assert not holds_at(deadlock, "s0", negated)
    _ok("2 deadlock-avoided example holds at s0, hazard diamond fails")


def test_criterion_3_waitall_example(waitall):
    sentence = parse("[] xi X. (r | exists x. ?[X] x)", VOCAB)
    assert holds_at(waitall, "s0", sentence)
    _ok("3 always-some-process-running example holds at s0")


def test_criterion_4_validity_claim():
    claim = parse("xi X. forall x. ?[X] x")
    violations = 0
    for seed in range(200):
        m = gen_model(
            GenSpec(seed=seed, max_worlds=6, max_children=3, max_depth=3, prop_count=2, constant_count=1)
        )
        if evaluate_sentence(m, claim) != frozenset(m.worlds):
            violations += 1
    assert violations == 0
    _ok("4 xi X. forall x. ?[X] x valid on 200 random models")


def test_criterion_5_bisimilarity_implies_equivalence():
    stream = list(enumerate_sentences(EnumerationBudget(3, 3, STREAM_VOCAB, allow_xi=True)))
    pairs = []
    seed = 0
    while len(pairs) < 100 and seed < 3000:
        m = gen_model(
            GenSpec(seed=seed, max_worlds=4, max_children=2, max_depth=2, prop_count=1, constant_count=1, edge_density=0.4)
        )
        seed += 1
        if m.children:
            pairs.append((m, dup_child(m, sorted(m.children)[0])))
    assert len(pairs) == 100

    disagreements = 0
    for m, d in pairs:
        left, right = Evaluator(), Evaluator()
        for sentence in stream:
            if left.sentence_worlds(m, sentence) != right.sentence_worlds(d, sentence):
                disagreements += 1
    assert disagreements == 0

    for m, d in pairs:
        for world in m.worlds:
            pm, pd = PointedModel(m, world), PointedModel(d, world)
            verdict = bisimilar(pm, pd)
            assert verdict.bisimilar
            assert check_witness(pm, pd, verdict.witness).ok
    _ok(f"5 duplicated-child pairs agree on all {len(stream)} sentences; witnesses verify")


def test_criterion_6_oracle_equivalence():
    tiny = dict(max_worlds=3, max_children=2, max_depth=2, prop_count=1, constant_count=1, edge_density=0.45)
    disagreements = 0
    checked = 0
    for seed in range(150):
        m = gen_model(GenSpec(seed=seed, **tiny))
        n = gen_model(GenSpec(seed=seed + 70_000, **tiny))
        pm, pn = PointedModel(m, m.worlds[0]), PointedModel(n, n.worlds[0])
        if bisimilar(pm, pn).bisimilar != brute_force_bisim(pm, pn):
            disagreements += 1
        checked += 1
    for seed in range(150):
        m = gen_model(GenSpec(seed=seed + 1_000, **tiny))
        rng = SplitMix64(seed)
        if m.children:
            label = rng.choice(sorted(m.children))
            other = break_child(m, label, "p", rng.choice(m.children[label].worlds))
        else:
            other = m
        u = rng.choice(m.worlds)
        v = rng.choice(other.worlds)
        pm, pn = PointedModel(m, u), PointedModel(other, v)
        if bisimilar(pm, pn).bisimilar != brute_force_bisim(pm, pn):
            disagreements += 1
        checked += 1
    assert checked == 300
    assert disagreements == 0
    _ok("6 search agrees with brute-force oracle on 300 tiny pairs")


def test_criterion_7_sentence_checker_cases():
    cases = [
        ("forall x. ?[p] x", True),
        ("?[p] x", False),
        ("xi X. ?[X] #c", True),
        ("xi X. X", False),
        ("?[xi X. X] #c", False),
        ("xi X. forall x. ?[X] x", True),
    ]
    for text, expected in cases:
        assert check_sentence(parse(text, VOCAB)).verdict == expected, text
    _ok("7 the six sentence-condition cases classify exactly")


def test_criterion_8_distinguisher_evidence():
    tiny = dict(max_worlds=3, max_children=2, max_depth=2, prop_count=1, constant_count=1, edge_density=0.45)
    cases = []
    seed = 0
    while len(cases) < 100 and seed < 3000:
        m = gen_model(GenSpec(seed=seed, **tiny))
        seed += 1
        if not m.children:
            continue
        rng = SplitMix64(seed * 31 + 7)
        label = rng.choice(sorted(m.children))
        world = rng.choice(m.children[label].worlds)
        broken = break_child(m, label, "p", world)
        pm, pn = PointedModel(m, m.worlds[0]), PointedModel(broken, broken.worlds[0])
        if not brute_force_bisim(pm, pn):
            cases.append((pm, pn))
    assert len(cases) == 100

    separated = 0
    for pm, pn in cases:
        separator = distinguish(pm, pn, EnumerationBudget(4, 4, STREAM_VOCAB))
        if separator is None:
            separator = distinguish(pm, pn, EnumerationBudget(5, 4, STREAM_VOCAB))
        if separator is None:
            continue
        assert holds_at(pm.model, pm.world, separator) != holds_at(pn.model, pn.world, separator)
        separated += 1
    rate = separated / len(cases)
    assert rate >= 0.95, f"separator rate {rate:.2f}"
    _ok(f"8 separators found for {separated}/100 oracle-certified pairs (evidence, not proof)")


def test_criterion_9_round_trips():
    parse_failures = 0
    for seed in range(1000):
        sentence = gen_sentence(seed, VOCAB, max_connectives=7)
        if parse(format_formula(sentence), VOCAB) != sentence:
            parse_failures += 1
    assert parse_failures == 0

    model_failures = 0
    for seed in range(200):
        m = gen_model(GenSpec(seed=seed, max_worlds=5, max_children=3, max_depth=2, prop_count=2, constant_count=2))
        if not same_structure(load_model(dump_model(m)), m):
            model_failures += 1
    assert model_failures == 0
    _ok("9 1000 sentence and 200 model round-trips are identities")


def test_criterion_10_termination_and_robustness():
    internal_errors = 0
    evaluations = 0
    for model_seed in range(100):
        m = gen_model(
            GenSpec(seed=model_seed, max_worlds=4, max_children=2, max_depth=2, prop_count=2, constant_count=1)
        )
        shared = Evaluator()
        for sentence_seed in range(100):
            sentence = gen_sentence(model_seed * 100 + sentence_seed, VOCAB, max_connectives=6)
            try:
                shared.sentence_worlds(m, sentence)
            except UndefinedInterpretationError:
                internal_errors += 1
            evaluations += 1
    assert evaluations == 10_000
    assert internal_errors == 0
    _ok("10 10^4 fuzzed evaluations complete without interpretation errors")
