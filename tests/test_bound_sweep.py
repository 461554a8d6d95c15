"""``scripts/run_bound_sweep.py`` on a small grid: it exits 0 when every
check holds and 1 when one violates a bound."""

import dataclasses

ARGV = ["--p", "3", "--f", "1", "--k-max", "30", "--step", "7"]


def test_bound_sweep_holds_on_a_small_grid(run_bound_sweep, capsys):
    assert run_bound_sweep.main(ARGV) == 0
    # q = 3 labels, k in 1, 8, ..., 29, one and two factors each
    assert capsys.readouterr().out.splitlines()[0] \
        == "q = 3, 30 checks, 0 violations"


def test_bound_sweep_exits_1_on_a_violation(run_bound_sweep, capsys,
                                            monkeypatch):
    check = run_bound_sweep.check_theorem_bound

    def violated(params, w, factors):
        report = check(params, w, factors)
        if factors[0].k == 15:
            report = dataclasses.replace(report, satisfied_theorem=False)
        return report

    monkeypatch.setattr(run_bound_sweep, "check_theorem_bound", violated)
    assert run_bound_sweep.main(ARGV) == 1
    assert capsys.readouterr().out.splitlines()[0] \
        == "q = 3, 30 checks, 6 violations"
