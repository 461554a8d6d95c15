"""``scripts/check_fields.py`` on the fields q <= 5: all nine checks agree,
and a wrong ``operator_norm``, wrong class norms or a check that raises
makes the script exit 1."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_fields.py"


@pytest.fixture
def check_fields(monkeypatch):
    spec = importlib.util.spec_from_file_location("check_fields", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    small = [params for params in module.fields() if params.q <= 5]
    monkeypatch.setattr(module, "fields", lambda: small)
    return module


def test_check_fields_agrees_on_small_fields(check_fields, capsys):
    assert check_fields.main([]) == 0
    *per_field, total = capsys.readouterr().out.splitlines()
    # each line ends in its time; 40 seeded products and 13 edge products,
    # 2N + q ascending k and 50 descending, one gather table per central
    # character, one identity per w < q and v in {0, 1, q-2}, 20 products
    # against the oracle, one row of the V_n table per n < q-1, N + q - 1
    # class norms and three orders of the product rows
    assert [line.rsplit(", ", 1)[0] for line in per_field] == [
        f"q = {q:2d} (p = {p}, f = {f}): 53 products, 10 elements, "
        f"{2 * (q * q - 1) + q + 50} k, {q - 1} alphas, "
        f"{q * len({0, 1, q - 2})} identities, 20 oracle products, "
        f"{q - 1} V_n rows, {q * q + q - 2} class norms, 3 row orders, "
        "0 mismatches"
        for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]]
    assert total.startswith(
        "4 fields, 212 products, 40 elements, 314 k, 10 alphas, "
        "37 identities, 80 oracle products, 10 V_n rows, 60 class norms, "
        "12 row orders, 0 mismatches, ")


def test_check_fields_exits_1_on_a_wrong_norm(check_fields, capsys,
                                              monkeypatch):
    norm = check_fields.operator_norm
    monkeypatch.setattr(check_fields, "operator_norm", lambda v: norm(v) + 1)
    assert check_fields.main([]) == 1
    out = capsys.readouterr().out
    assert out.count("norms mismatch at q = ") == 40
    assert out.splitlines()[-1].startswith(
        "4 fields, 212 products, 40 elements, 314 k, 10 alphas, "
        "37 identities, 80 oracle products, 10 V_n rows, 60 class norms, "
        "12 row orders, 40 mismatches, ")


def test_check_fields_counts_a_raising_check(check_fields, capsys,
                                             monkeypatch):
    def raising(v):
        raise ValueError("element has no central character")
    monkeypatch.setattr(check_fields, "residual", raising)
    assert check_fields.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    # one mismatch per field, and every field and the totals still print
    assert sum(line.startswith("  norms raised at q = ")
               for line in lines) == 4
    assert [line.rsplit(", ", 1)[0] for line in lines
            if line.startswith("q = ")] == [
        f"q = {q:2d} (p = {p}, f = {f}): 53 products, 0 elements, "
        f"{2 * (q * q - 1) + q + 50} k, {q - 1} alphas, "
        f"{q * len({0, 1, q - 2})} identities, 20 oracle products, "
        f"{q - 1} V_n rows, {q * q + q - 2} class norms, 3 row orders, "
        "1 mismatches"
        for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]]
    assert lines[-1].startswith(
        "4 fields, 212 products, 0 elements, 314 k, 10 alphas, "
        "37 identities, 80 oracle products, 10 V_n rows, 60 class norms, "
        "12 row orders, 4 mismatches, ")


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
    assert out.splitlines()[-1].startswith(
        "4 fields, 212 products, 40 elements, 314 k, 10 alphas, "
        "37 identities, 80 oracle products, 10 V_n rows, 60 class norms, "
        "12 row orders, 4 mismatches, ")
