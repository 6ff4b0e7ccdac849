"""The three closed-loop workloads: inputs, the timed query, and its check.

A workload is built from a seed, then serves query number `k` in three
steps: `input(k)` makes the query's document and sentence text and,
where the inputs are small enough, the brute-force oracle's answer
(untimed, a pure function of the seed and `k`), `query(inp)` runs
the path `gkmc <cmd>` takes once its arguments are parsed (timed), and
`check(inp, out)` verifies the answer against an independent source
(untimed).  `check` returns one outcome tag:

- `decided`: a definite answer, verified;
- `unverified`: a definite answer nothing independent can confirm
  (a non-bisimilar verdict on a pair too large for the oracle);
- `undecided`: no definite answer, which is allowed (a separator search
  that finds nothing within its budget);
- `budget`: the bisimilarity search ran out of its node budget;
- `wrong: <reason>`: a wrong answer.

`run.py` adds `timeout`: a definite answer whose check overran its time
cap.

Program modules are reached through the namespace `gk` at call time, so
the per-layer tracer sees every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

TINY = dict(max_worlds=3, max_children=2, max_depth=2, prop_count=1, constant_count=1, edge_density=0.45)


def _with_children(gk, spec_kwargs: dict, *tokens):
    """First generated model with at least one child, on a seeded retry sequence."""
    g = gk.generate
    for attempt in range(1000):
        m = g.gen_model(g.GenSpec(seed=g.derive(*tokens, attempt), **spec_kwargs))
        if m.children:
            return m
    raise RuntimeError(f"no model with children for {tokens}")


def _mutated_pair(gk, m, mutation: str, *tokens):
    """(m, mutated m, world): the pair is pointed at the same world on both sides."""
    g = gk.generate
    rng = g.SplitMix64(g.derive(*tokens, "pick"))
    label = rng.choice(sorted(m.children))
    world = rng.choice(m.worlds)
    if mutation == "dup":
        return m, g.dup_child(m, label), world
    return m, g.break_child(m, label, "p", rng.choice(m.children[label].worlds)), world


# --------------------------------------------------------------------------
# eval_oneshot


@dataclass
class EvalInput:
    doc: str
    text: str
    world: str
    model: object
    formula: object


class EvalOneshot:
    """`gkmc eval MODEL SENTENCE --world W --vocab V`, one cold query at a time.

    Every query gets a freshly generated model and sentence, so queries
    share no work beyond what the program caches itself.
    """

    name = "eval_oneshot"
    FULL = dict(spec=dict(max_worlds=6, max_children=3, max_depth=3, prop_count=2, constant_count=1), connectives=12)
    SMOKE = dict(spec=dict(max_worlds=3, max_children=2, max_depth=2, prop_count=2, constant_count=1), connectives=5)

    def __init__(self, gk, seed: int, smoke: bool = False):
        self.gk = gk
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.props, self.constants = ("p", "q"), ("c",)
        self.vocab = gk.syntax.Vocabulary.of(props=self.props, constants=self.constants)
        self.counters: dict[str, int] = {}

    def input(self, k: int) -> EvalInput:
        g = self.gk.generate
        m = g.gen_model(g.GenSpec(seed=g.derive(self.seed, "eval-model", k), **self.size["spec"]))
        f = g.gen_sentence(g.derive(self.seed, "eval-sentence", k), self.vocab, max_connectives=self.size["connectives"])
        world = m.worlds[g.derive(self.seed, "eval-world", k) % len(m.worlds)]
        return EvalInput(self.gk.model.dump_model(m), self.gk.syntax.format_formula(f), world, m, f)

    def query(self, inp: EvalInput):
        gk = self.gk
        m = gk.model.load_model(inp.doc)
        vocab = gk.syntax.Vocabulary.of(props=self.props, constants=self.constants)
        sentence = gk.syntax.parse(inp.text, vocab)
        if not gk.syntax.check_sentence(sentence).verdict:
            return None
        holds = inp.world in gk.semantics.evaluate_sentence(m, sentence)
        return holds, gk.syntax.format_formula(sentence)

    def check(self, inp: EvalInput, out) -> str:
        if out is None:
            return "wrong: generated sentence rejected by the sentence check"
        holds, text = out
        expected = self.gk.semantics.holds_at(inp.model, inp.world, inp.formula, use_memo=False)
        if holds != expected:
            return f"wrong: holds={holds}, unmemoized evaluation says {expected}: {inp.text}"
        if text != inp.text:
            return f"wrong: formatted {text!r} differs from input {inp.text!r}"
        return "decided"


# --------------------------------------------------------------------------
# bisim_witness


@dataclass
class PairInput:
    doc1: str
    world1: str
    doc2: str
    world2: str
    model1: object
    model2: object
    expected: bool | None  # None: no independent answer at this size
    population: str


def _pair_input(gk, m, w1, n, w2, expected, population) -> PairInput:
    dump = gk.model.dump_model
    return PairInput(dump(m), w1, dump(n), w2, m, n, expected, population)


class BisimWitness:
    """`gkmc bisim M1 W1 M2 W2 --witness FILE`.

    Each block of five queries holds three tiny pairs shaped like
    acceptance criterion 6 (population a, answered by the brute-force
    oracle), one `dup_child` pair (b, known bisimilar) and one
    `break_child` pair (c, no independent answer) at W8/C4/D2/0.4.  So
    the median falls in (a) and p90 in (b) and (c).
    """

    name = "bisim_witness"
    FULL = dict(big=dict(max_worlds=8, max_children=4, max_depth=2, edge_density=0.4))
    SMOKE = dict(big=dict(max_worlds=4, max_children=2, max_depth=2, edge_density=0.4))
    SLOTS = ("tiny", "dup", "tiny", "break", "tiny")

    def __init__(self, gk, seed: int, smoke: bool = False):
        self.gk = gk
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.counters: dict[str, int] = {}

    def input(self, k: int) -> PairInput:
        slot = self.SLOTS[k % len(self.SLOTS)]
        if slot == "tiny":
            return self._tiny(k)
        m = _with_children(self.gk, self.size["big"], self.seed, slot, k)
        m, n, world = _mutated_pair(self.gk, m, slot, self.seed, slot, k)
        return _pair_input(self.gk, m, world, n, world, True if slot == "dup" else None, slot)

    def _tiny(self, k: int) -> PairInput:
        """Criterion 6's two shapes, alternating: an independent random
        pair, or a model and its `break_child` at random worlds."""
        g = self.gk.generate
        m = g.gen_model(g.GenSpec(seed=g.derive(self.seed, "tiny", k), **TINY))
        rng = g.SplitMix64(g.derive(self.seed, "tiny-pick", k))
        if k % 2 == 0:
            n = g.gen_model(g.GenSpec(seed=g.derive(self.seed, "tiny-other", k), **TINY))
        elif m.children:
            label = rng.choice(sorted(m.children))
            n = g.break_child(m, label, "p", rng.choice(m.children[label].worlds))
        else:
            n = m
        w1, w2 = rng.choice(m.worlds), rng.choice(n.worlds)
        PointedModel = self.gk.model.PointedModel
        answer = self.gk.bisim.brute_force_bisim(PointedModel(m, w1), PointedModel(n, w2))
        return _pair_input(self.gk, m, w1, n, w2, answer, "tiny")

    def query(self, inp: PairInput):
        gk = self.gk
        m = gk.model.load_model(inp.doc1)
        n = gk.model.load_model(inp.doc2)
        vm, vn = gk.model.model_vocabulary(m), gk.model.model_vocabulary(n)
        vocab = gk.syntax.Vocabulary(vm.props | vn.props, vm.constants | vn.constants)
        pm, pn = gk.model.PointedModel(m, inp.world1), gk.model.PointedModel(n, inp.world2)
        try:
            verdict = gk.bisim.bisimilar(pm, pn, vocab=vocab, budget=gk.bisim.DEFAULT_BUDGET)
        except gk.bisim.BudgetExceededError:
            return None
        if not verdict.bisimilar:
            return False, None, 0
        text = json.dumps(gk.bisim.witness_to_document(verdict.witness), indent=2, sort_keys=True)
        report = gk.bisim.check_witness(pm, pn, verdict.witness, vocab=vocab)
        return True, report.ok, len(text)

    def check(self, inp: PairInput, out) -> str:
        if out is None:
            return "budget"
        bisimilar, witness_ok, witness_bytes = out
        if bisimilar:
            if not witness_ok:
                return f"wrong: {inp.population}: witness fails check_witness"
            self.counters["witnesses"] = self.counters.get("witnesses", 0) + 1
            self.counters["witness_bytes"] = self.counters.get("witness_bytes", 0) + witness_bytes
        if inp.expected is None:
            return "decided" if bisimilar else "unverified"
        if bisimilar != inp.expected:
            return f"wrong: {inp.population}: bisimilar={bisimilar}, expected {inp.expected}"
        return "decided"


# --------------------------------------------------------------------------
# separate_stream


class SeparateStream:
    """`gkmc distinguish M1 W1 M2 W2 --max-depth 4 --max-modal-depth 4`.

    Tiny pairs shaped like acceptance criterion 8: each block of 68
    queries holds 67 `break_child` pairs the brute-force oracle certifies
    as non-bisimilar and one `dup_child` pair, which is bisimilar and so
    exhausts the sentence stream, as does a non-bisimilar pair with no
    separator within the budget (about 1% of them).  The exhausting
    queries, about 2.5% of all, take about half the time, so
    `queries_per_s` follows the cost of the whole stream while p50 and
    p90 fall among the early exits: p90 sits inside the dense cluster of
    separators found at connective cost 4.  With one bisimilar pair in
    34 it sat at that cluster's steep upper edge, and with one in nine
    among the exhausting queries, whose cost swings most with the
    machine's speed.
    """

    name = "separate_stream"
    FULL = dict(block=68, connectives=4, modal=4)
    SMOKE = dict(block=4, connectives=2, modal=2)

    def __init__(self, gk, seed: int, smoke: bool = False):
        self.gk = gk
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.vocab = gk.syntax.Vocabulary.of(props=["p"], constants=["c"])
        self.counters: dict[str, int] = {}

    def input(self, k: int) -> PairInput:
        gk = self.gk
        PointedModel = gk.model.PointedModel
        if k % self.size["block"] == self.size["block"] - 1:
            m = _with_children(gk, TINY, self.seed, "sep-bisimilar", k)
            rng = gk.generate.SplitMix64(gk.generate.derive(self.seed, "sep-bisimilar-pick", k))
            n = gk.generate.dup_child(m, rng.choice(sorted(m.children)))
            return _pair_input(gk, m, m.worlds[0], n, n.worlds[0], True, "bisimilar")
        for attempt in range(1000):
            m = _with_children(gk, TINY, self.seed, "sep", k, attempt)
            m, n, _ = _mutated_pair(gk, m, "break", self.seed, "sep", k, attempt)
            if not gk.bisim.brute_force_bisim(PointedModel(m, m.worlds[0]), PointedModel(n, n.worlds[0])):
                return _pair_input(gk, m, m.worlds[0], n, n.worlds[0], False, "non-bisimilar")
        raise RuntimeError(f"no non-bisimilar pair for query {k}")

    def query(self, inp: PairInput):
        gk = self.gk
        m = gk.model.load_model(inp.doc1)
        n = gk.model.load_model(inp.doc2)
        budget = gk.distinguish.EnumerationBudget(self.size["connectives"], self.size["modal"], self.vocab)
        separator = gk.distinguish.distinguish(
            gk.model.PointedModel(m, inp.world1), gk.model.PointedModel(n, inp.world2), budget
        )
        return None if separator is None else gk.syntax.format_formula(separator)

    def check(self, inp: PairInput, out) -> str:
        if out is None:
            return "undecided"
        if inp.expected:
            return f"wrong: separator {out!r} returned for a bisimilar pair"
        sentence = self.gk.syntax.parse(out, self.vocab)
        holds_at = self.gk.semantics.holds_at
        left = holds_at(inp.model1, inp.world1, sentence, use_memo=False)
        right = holds_at(inp.model2, inp.world2, sentence, use_memo=False)
        if left == right:
            return f"wrong: separator {out!r} holds on both sides or neither"
        return "decided"


WORKLOADS = {w.name: w for w in (EvalOneshot, BisimWitness, SeparateStream)}

