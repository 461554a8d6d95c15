"""``scripts/check_fields.py`` on the fields q <= 5: all nine checks agree,
and a wrong ``operator_norm``, wrong class norms or a check that raises
makes the script exit 1."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_fields.py"

# each check's count at one field q, and its total over q = 2, 3, 4, 5:
# 40 seeded products and 13 edge products, 20 elements and the limb case,
# 2N + q ascending k and 50 descending, one gather table per central
# character, one identity per w < q and v in {0, 1, q-2}, 20 products
# against the oracle, one row of the V_n table per n < q-1, N + q - 1
# class norms and three orders of the product rows
COUNTS = {
    "products": (lambda q: 53, 212),
    "elements": (lambda q: 21, 84),
    "k": (lambda q: 2 * (q * q - 1) + q + 50, 314),
    "alphas": (lambda q: q - 1, 10),
    "identities": (lambda q: q * len({0, 1, q - 2}), 37),
    "oracle products": (lambda q: 20, 80),
    "V_n rows": (lambda q: q - 1, 10),
    "class norms": (lambda q: q * q + q - 2, 60),
    "row orders": (lambda q: 3, 12),
}


@pytest.fixture
def check_fields(monkeypatch):
    spec = importlib.util.spec_from_file_location("check_fields", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "Q_MAX", 5)
    return module


def assert_tallies(out, mismatches, zero=()):
    """The per-field lines and the total line of ``out``, times stripped:
    every count from COUNTS, but 0 for the checks named in ``zero``, and
    ``mismatches`` on each field."""
    def tally(counts):
        return ", ".join(f"{0 if noun in zero else n} {noun}"
                         for noun, n in counts.items())
    lines = out.splitlines()
    got = [line.rsplit(", ", 1)[0] for line in lines
           if line.startswith("q = ")]
    assert got + [lines[-1].rsplit(", ", 1)[0]] == [
        f"q = {q:2d} (p = {p}, f = {f}): "
        f"{tally({noun: at(q) for noun, (at, _) in COUNTS.items()})}, "
        f"{mismatches} mismatches"
        for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]] + [
        f"4 fields, {tally({noun: n for noun, (_, n) in COUNTS.items()})}, "
        f"{4 * mismatches} mismatches"]


def test_check_fields_agrees_on_small_fields(check_fields, capsys):
    assert check_fields.main([]) == 0
    assert_tallies(capsys.readouterr().out, 0)


def test_check_fields_exits_1_on_a_wrong_norm(check_fields, capsys,
                                              monkeypatch):
    norm = check_fields.operator_norm
    monkeypatch.setattr(check_fields, "operator_norm", lambda v: norm(v) + 1)
    assert check_fields.main([]) == 1
    out = capsys.readouterr().out
    # every element but the limb case, which the +1 leaves alone
    assert out.count("norms mismatch at q = ") == 80
    assert_tallies(out, 20)


def test_check_fields_counts_a_raising_check(check_fields, capsys,
                                             monkeypatch):
    def raising(v):
        raise ValueError("element has no central character")
    monkeypatch.setattr(check_fields, "residual", raising)
    assert check_fields.main([]) == 1
    out = capsys.readouterr().out
    # one mismatch per field, and every field and the totals still print
    assert sum(line.startswith("  norms raised at q = ")
               for line in out.splitlines()) == 4
    assert_tallies(out, 1, zero={"elements"})


def test_check_fields_exits_1_on_wrong_class_norms(check_fields, capsys,
                                                   monkeypatch):
    # one wrong ||S-hat_i|| per field is one mismatch, named by its class
    class_norms = check_fields._class_norms

    def wrong(params):
        s_norms, hat_norms = class_norms(params)
        return s_norms, hat_norms[:-1] + [hat_norms[-1] + 1]
    monkeypatch.setattr(check_fields, "_class_norms", wrong)
    assert check_fields.main([]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "constants" in line] == [
        f"  constants mismatch at q = {q}: ||S-hat_{q - 2}||"
        for q in (2, 3, 4, 5)]
    assert_tallies(out, 1)
