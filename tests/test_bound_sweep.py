"""``scripts/run_bound_sweep.py`` on a small grid: it exits 0 when every
check holds and 1 when one violates a bound."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_bound_sweep.py"
ARGV = ["--p", "3", "--f", "1", "--k-max", "30", "--step", "7"]


@pytest.fixture
def bound_sweep():
    spec = importlib.util.spec_from_file_location("run_bound_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bound_sweep_holds_on_a_small_grid(bound_sweep, capsys):
    assert bound_sweep.main(ARGV) == 0
    # q = 3 labels, k in 1, 8, ..., 29, one and two factors each
    assert capsys.readouterr().out.splitlines()[0] \
        == "q = 3, 30 checks, 0 violations"


def test_bound_sweep_exits_1_on_a_violation(bound_sweep, capsys,
                                            monkeypatch):
    check = bound_sweep.check_theorem_bound

    def violated(params, w, factors):
        report = check(params, w, factors)
        if factors[0].k == 15:
            report = dataclasses.replace(report, satisfied_theorem=False)
        return report

    monkeypatch.setattr(bound_sweep, "check_theorem_bound", violated)
    assert bound_sweep.main(ARGV) == 1
    assert capsys.readouterr().out.splitlines()[0] \
        == "q = 3, 30 checks, 6 violations"
