import importlib.util
from pathlib import Path

import pytest

from modp_gl2 import FieldParams

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    """``scripts/<name>.py`` as a module, for its ``main`` and references."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def check_fields():
    return load_script("check_fields")


@pytest.fixture(scope="session")
def run_bound_sweep():
    return load_script("run_bound_sweep")


@pytest.fixture
def p3():
    return FieldParams(3, 1)


@pytest.fixture
def p5():
    return FieldParams(5, 1)


@pytest.fixture
def p9():
    return FieldParams(3, 2)


@pytest.fixture
def p8():
    return FieldParams(2, 3)
