import importlib.util
import pathlib

import pytest

from gkmc.model import load_model_file

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

