import importlib.util
import pathlib

import pytest

from gkmc.generate import SplitMix64
from gkmc.model import dump_model, load_model_file
from gkmc.syntax import (
    And,
    Box,
    Forall,
    FormulaVar,
    Not,
    Prop,
    QueryConst,
    QueryVar,
    Top,
    Xi,
    _FORMULA_VARS,
    _MODEL_VARS,
    bot,
    diamond,
    exists,
    free_vars,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def load_script(name: str):
    """The module of `scripts/<name>.py`."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# The tiny generator shape and the twin-children `retrack` pairs that the
# distinguish digest's population draws from.
_digest_script = load_script("distinguish_digest")
TINY = _digest_script.TINY
twins_and_retrack = _digest_script.twins_and_retrack


# One child `a` against two, `b1` and `b2`: every leaf has one world `w`,
# `p` holds everywhere but at `b2`, and every child is tracked at `w`.
_LEAF_P = {"worlds": ["w"], "valuation": {"p": ["w"]}}
ONE_CHILD = {"worlds": ["w"], "valuation": {"p": ["w"]}, "children": {"a": _LEAF_P}, "tracking": {"w": {"a": "w"}}}
TWO_CHILDREN = {
    "worlds": ["w"],
    "valuation": {"p": ["w"]},
    "children": {"b1": _LEAF_P, "b2": {"worlds": ["w"], "valuation": {"p": []}}},
    "tracking": {"w": {"b1": "w", "b2": "w"}},
}


@pytest.fixture(scope="session")
def de_dicto():
    return load_model_file(FIXTURES / "de_dicto.gkm.json")


@pytest.fixture(scope="session")
def deadlock():
    return load_model_file(FIXTURES / "deadlock.gkm.json")


@pytest.fixture(scope="session")
def waitall():
    return load_model_file(FIXTURES / "waitall.gkm.json")


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def same_structure(a, b) -> bool:
    return dump_model(a) == dump_model(b)


def free_model_vars(f) -> set[str]:
    return set(free_vars(f).model)


def free_formula_vars(f) -> set[str]:
    return set(free_vars(f).formula)


def gen_formula(seed: int, vocab, max_connectives: int = 6):
    """An arbitrary formula over the vocabulary; free variables allowed.

    Exercises the parser and printer on shapes the sentence generator
    avoids (shadowing, unbound variables, unguarded formula variables).
    """
    rng = SplitMix64(seed)
    props = sorted(vocab.props)
    consts = sorted(vocab.constants)

    def go(budget):
        if budget == 0 or rng.chance(0.2):
            kind = rng.below(4)
            if kind == 0:
                return Top()
            if kind == 1:
                return bot()
            if kind == 2 and props:
                return Prop(rng.choice(props))
            return FormulaVar(rng.choice(_FORMULA_VARS))
        kind = rng.below(10)
        if kind == 0:
            return Not(go(budget - 1))
        if kind == 1:
            half = budget - 1
            return And(go(half // 2), go(half - half // 2))
        if kind == 2:
            return Box(go(budget - 1))
        if kind == 3:
            return diamond(go(budget - 1))
        if kind == 4:
            return Forall(rng.choice(_MODEL_VARS), go(budget - 1))
        if kind == 5:
            return exists(rng.choice(_MODEL_VARS), go(budget - 1))
        if kind == 6:
            return Xi(rng.choice(_FORMULA_VARS), go(budget - 1))
        if kind == 7 and consts:
            return QueryConst(go(budget - 1), rng.choice(consts))
        return QueryVar(go(budget - 1), rng.choice(_MODEL_VARS))

    return go(max_connectives)
