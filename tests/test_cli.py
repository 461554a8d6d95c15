import argparse
import inspect
import json
import re
from fractions import Fraction

import pytest

from modp_gl2 import FieldParams, RingElement, cli
from modp_gl2.cli import main, parse_element, parse_factors


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_element(p3):
    v = parse_element(p3, "2*[L_1(0)] + [S_2(1)]")
    assert v == 2 * RingElement.L(p3, 1, 0) + RingElement.L(p3, 2, 1)
    w = parse_element(p3, "[L_1] - [L_0(1)]")
    assert w == RingElement.L(p3, 1, 0) - RingElement.L(p3, 0, 1)
    as_json = json.dumps(RingElement.L(p3, 2, 1).to_json_dict())
    assert parse_element(p3, as_json) == RingElement.L(p3, 2, 1)
    with pytest.raises(ValueError):
        parse_element(p3, "[X_1]")


@pytest.mark.parametrize("text", [
    "[L_1(0)] + + [L_2(0)]", "[L_1(0)] +", "[L_1(0)] -", "+ + [L_1(0)]",
    "-", "", "  "])
def test_empty_terms_are_rejected(p3, capsys, text):
    # only a leading sign may leave an empty term before it
    with pytest.raises(ValueError):
        parse_element(p3, text)
    code, out, err = run(capsys, "--p", "3", "verify-bound", "--w", text,
                         "--factors", "5:0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert parse_element(p3, "-[L_1(0)]") == -1 * RingElement.L(p3, 1, 0)
    assert parse_element(p3, "+ [L_1(0)]") == RingElement.L(p3, 1, 0)


@pytest.mark.parametrize("text, terms", [
    ("[L_0(0)] + -1*[L_2(0)]", {(0, 0): 1, (2, 0): -1}),
    ("[L_0(0)] + -1/2*[L_2(0)]", {(0, 0): 1, (2, 0): Fraction(-1, 2)}),
    ("-[L_0(0)] - 2*[L_2(0)] + - [L_2(1)]",
     {(0, 0): -1, (2, 0): -2, (2, 1): -1})])
def test_signed_terms_parse(p3, capsys, text, terms):
    # a '-' may open any '+' term, as repr writes negative coefficients
    assert parse_element(p3, text) == RingElement(p3, "L", terms)
    code, out, err = run(capsys, "--p", "3", "verify-bound", "--w", text,
                         "--factors", "5:0")
    assert code in (0, 4) and not err.startswith("error: "), (code, err)


def test_parse_element_reads_repr(p3):
    x = RingElement(p3, "L", {(0, 0): 2, (1, 1): -1, (2, 0): Fraction(-3, 4),
                              (1, 0): Fraction(1, 3)})
    assert "+ -" in repr(x)
    assert parse_element(p3, repr(x)) == x


def test_parse_factors():
    assert [tuple(f) for f in parse_factors("3:1:0,5")] \
        == [(3, 1, 0), (5, 0, 0)]
    with pytest.raises(ValueError):
        parse_factors("1:2:3:4")


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "--p", "3", "--f", "1", "decompose", "--symm", "4")
    assert code == 0
    terms = {(t["n"], t["m"]): t["coeff"] for t in json.loads(out)["terms"]}
    assert terms == {(0, 0): "1/1", (0, 1): "1/1", (2, 0): "1/1"}


def test_decompose_frobenius_slot(capsys):
    code, out, _ = run(capsys, "--p", "3", "--f", "2",
                       "decompose", "--symm", "1", "--frob", "1")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert [(t["n"], t["m"]) for t in terms] == [(3, 0)]


def test_decompose_validation(capsys):
    code, out, err = run(capsys, "--p", "3", "--f", "1",
                         "decompose", "--symm", "-1")
    assert code == 2
    assert out == ""
    assert err.strip()


def test_omega_all_csv(capsys):
    code, out, _ = run(capsys, "--p", "3", "--f", "2", "--format", "csv",
                       "omega", "--all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,omega"
    assert len(lines) == 10
    table = dict(tuple(int(x) for x in line.split(",")) for line in lines[1:])
    assert table == {0: 3, 1: 4, 2: 2, 3: 4, 4: 4, 5: 2, 6: 2, 7: 2, 8: 1}


def test_principal_series_explain(capsys):
    code, out, _ = run(capsys, "--p", "3", "--f", "2", "--format", "pretty",
                       "principal-series", "--n", "1", "--explain")
    assert code == 0
    assert "TL,TL" in out
    assert "lambda=" in out


def test_s_alpha(capsys, p3):
    code, out, _ = run(capsys, "--p", "3", "--f", "1", "s-alpha", "--i", "1")
    assert code == 0
    elem = RingElement.from_json_dict(json.loads(out))
    from modp_gl2 import s_alpha

    assert elem == s_alpha(p3, 1)


def test_constants_json(capsys):
    code, out, _ = run(capsys, "--p", "3", "--f", "1", "constants")
    assert code == 0
    data = json.loads(out)
    assert {"A", "M_upper", "C", "C_r"} <= set(data)


# `--format json constants` stdout on the larger fields, as the norms of
# each [S_r] and S-hat_i printed it; too slow to recompute generically here
PINNED_CONSTANTS = {
    (5, 2): '{"p": 5, "f": 2, "h": 2, "A": "631800/1", "M_upper": "1560/1", '
            '"C": "78686830270620000000000/1", "C_r": {"1": "39917913750000/1", '
            '"2": "50440275814500000000/1", '
            '"3": "63736332519202200000000000/1"}}',
    (7, 2): '{"p": 7, "f": 2, "h": 2, "A": "7996800/1", "M_upper": "8400/1", '
            '"C": "1683896471791367307264000000/1", "C_r": '
            '{"1": "12534005207673600/1", "2": "200463865689448488960000/1", '
            '"3": "3206138882290763353030656000000/1"}}',
    (2, 6): '{"p": 2, "f": 6, "h": 6, "A": "193995648/1", "M_upper": "22995/1", '
            '"C": "1947903061910394898738336235574174164304848486358574674498'
            '866380800/1", "C_r": {"1": "9634385318604963840/1", '
            '"2": "3738057645928912832314736640/1", '
            '"3": "1450333830566668013680825348852285440/1"}}',
}


@pytest.mark.parametrize("p,f", sorted(PINNED_CONSTANTS))
def test_constants_pinned_on_larger_fields(capsys, p, f):
    code, out, err = run(capsys, "--p", str(p), "--f", str(f),
                         "--format", "json", "constants")
    assert (code, err) == (0, "")
    assert out == PINNED_CONSTANTS[(p, f)] + "\n"


def test_verify_bound_ok(capsys):
    code, out, _ = run(capsys, "--p", "3", "--f", "1", "verify-bound",
                       "--w", "[L_1(0)]", "--factors", "50:0")
    assert code == 0
    data = json.loads(out)
    assert data["satisfied_theorem"] is True
    assert data["satisfied_corollary"] is True


def test_verify_bound_past_float_range(capsys):
    # at h = 200 the corollary's display float overflows and reads Infinity;
    # the exact checks still decide the exit code
    code, out, err = run(capsys, "--p", "3", "--h", "200", "verify-bound",
                         "--w", "[L_1(0)]", "--factors", "5:0")
    assert (code, err) == (0, "")
    assert '"rhs_corollary": Infinity' in out
    data = json.loads(out)
    assert data["satisfied_theorem"] is data["satisfied_corollary"] is True


def test_verify_bound_violation_exit_code(capsys):
    # an enormous W coefficient cannot violate the bound (it scales both
    # sides), but a mixed-character W is a validation error
    code, _, err = run(capsys, "--p", "3", "--f", "1", "verify-bound",
                       "--w", "[L_0(0)] + [L_1(0)]", "--factors", "10")
    assert code == 2
    assert err.strip()


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "--p", "3", "--f", "1",
                       "oracle-check", "--factors", "7:1,4:0")
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_oracle_failure_exit_code(capsys):
    from modp_gl2 import build_table, memo

    memo.clear()
    try:
        # one corrupted entry of one block inverse
        table = build_table(FieldParams(3, 1), 0)
        table.inverses[0, 0, 0] = (table.inverses[0, 0, 0] + 1) % table.ell
        code, out, err = run(capsys, "--p", "3", "--f", "1",
                             "oracle-check", "--factors", "40:1,17:0")
    finally:
        memo.clear()
    assert code == 3
    assert out == ""
    assert "oracle" in err


def test_oracle_check_lifts_large_multiplicities(capsys):
    # multiplicities near 1e9: dim V = 4,428,883,692 needs two primes
    code, out, _ = run(capsys, "--p", "2", "--f", "2", "oracle-check",
                       "--factors", "1171:1:1,1958:2:0,1928:1:1",
                       "--det", "2")
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_precision_flag_is_rejected(capsys):
    code, out, _ = run(capsys, "--p", "3", "--f", "2", "--precision", "128",
                       "oracle-check", "--factors", "11:1:0,6:0:1")
    assert code == 2
    assert out == ""


def test_bm_qp_needs_f_1(capsys):
    code, out, err = run(capsys, "--p", "3", "--f", "2", "bm", "qp",
                         "--rho-n", "1", "--a-max", "3")
    assert code == 2
    assert out == ""
    assert "f = 1" in err


def test_bm_qp_refuses_h_2(capsys):
    # f = 1, h = 2 is a ramified K: the K = Q_p sweep must not print
    code, out, err = run(capsys, "--p", "5", "--f", "1", "--h", "2",
                         "--format", "csv", "bm", "qp", "--rho-n", "1",
                         "--a-max", "3")
    assert code == 2
    assert out == ""
    assert "f = 1, h = 1" in err


def test_every_flag_is_read():
    # perfbench's cli-batch workload passes --cache-path and --jobs, so they
    # stay accepted though nothing reads them
    ignored = {"cache_path", "jobs"}
    source = inspect.getsource(cli)
    parsers, dests = [cli.build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.option_strings and action.dest != "help":
                dests.add(action.dest)
    unread = {d for d in dests - ignored
              if not re.search(rf"\bargs\.{d}\b", source)}
    assert not unread


def test_bm_qp_sweep(capsys):
    code, out, _ = run(capsys, "--p", "5", "--f", "1", "--format", "csv",
                       "bm", "qp", "--rho-n", "1", "--rho-m", "0",
                       "--type", "trivial", "--a-max", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,gate,mu_exact,mu_asymptotic,abs_error"
    assert len(lines) == 22
    for line in lines[1:]:
        a, b, gate, mu_exact, mu_asym, abs_error = line.split(",")
        if gate == "False":
            assert mu_exact == "0"


def test_bm_general(capsys, tmp_path):
    from modp_gl2 import bm

    type_path = tmp_path / "type.json"
    weights_path = tmp_path / "weights.json"
    type_path.write_text(json.dumps(bm.type_to_json(bm.preset_type_crystalline_trivial_qp(3))))
    weights_path.write_text(json.dumps(bm.intrinsics_to_json({(0, 0): 1, (2, 0): 1})))
    code, out, _ = run(capsys, "--p", "3", "--f", "1", "bm", "general",
                       "--type-json", str(type_path),
                       "--weights-json", str(weights_path),
                       "--factors", "4:0:0")
    assert code == 0
    data = json.loads(out)
    assert data["mu_aut"] == 2
    assert data["dim"] == 5


@pytest.mark.parametrize("h,argv", [
    ("0", "verify-bound --w [L_1(0)] --factors 5:0"),
    ("-1", "constants"),
])
def test_degree_below_one_is_rejected(capsys, h, argv):
    code, out, err = run(capsys, "--p", "3", "--h", h, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: h = {h} ")


ELEMENT = {"p": 3, "f": 1, "basis": "L",
           "terms": [{"n": 1, "m": 0, "coeff": "1/1"}]}


@pytest.mark.parametrize("kind,data", [
    ("w", {"p": 3}),
    ("w", dict(ELEMENT, terms=5)),
    ("w", dict(ELEMENT, terms=[{"n": 1, "m": 0}])),
    ("type", {"dim": 1, "label": "no class"}),
    ("weights", {"n": 0, "m": 0, "mu": 1}),
    # labels and coefficients must arrive as ints, coefficients also as
    # exact strings: a float is not truncated, rounded or misread
    ("w", dict(ELEMENT, terms=[{"n": 1, "m": 0.5, "coeff": "1"}])),
    ("w", dict(ELEMENT, terms=[{"n": 1.0, "m": 0, "coeff": "1"}])),
    ("w", dict(ELEMENT, p=3.0)),
    ("w", dict(ELEMENT, f=True)),
    ("w", dict(ELEMENT, terms=[{"n": 1, "m": 0, "coeff": 0.1}])),
    ("weights", [{"n": 1.5, "m": 0, "mu": 1}]),
    ("weights", [{"n": 0, "m": 0, "mu": 1.0}]),
    ("weights", [{"n": 0, "m": 0, "mu": -1}]),
    ("type", {"dim": 1.0, "label": "", "class": dict(ELEMENT, terms=[
        {"n": 0, "m": 0, "coeff": "1"}])}),
    # a weight label n must lie in [0, q-1]
    ("weights", [{"n": 99, "m": 0, "mu": 1}]),
    # a zero denominator, in W and in the class of a type file
    ("w", dict(ELEMENT, terms=[{"n": 1, "m": 0, "coeff": "1/0"}])),
    ("type", {"dim": 1, "label": "", "class": dict(ELEMENT, terms=[
        {"n": 0, "m": 0, "coeff": "1/0"}])}),
])
def test_malformed_json_is_a_validation_error(capsys, tmp_path, kind, data):
    from modp_gl2 import bm

    if kind == "w":
        argv = ["verify-bound", "--w", json.dumps(data), "--factors", "5:0"]
    else:
        files = {
            "type": bm.type_to_json(bm.preset_type_crystalline_trivial_qp(3)),
            "weights": bm.intrinsics_to_json({(0, 0): 1, (2, 0): 1}),
            kind: data}
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        argv = ["bm", "general", "--type-json", str(tmp_path / "type"),
                "--weights-json", str(tmp_path / "weights"),
                "--factors", "4:0:0"]
    code, out, err = run(capsys, "--p", "3", "--f", "1", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "--p 3 decompose",
    "--p 3 omega",
    "--p 1 omega --all",
    "--p 3 verify-bound --w [L_9(0)] --factors 5:0",
    "--p 3 verify-bound --w [S_9(0)] --factors 5:0",
    '--p 3 verify-bound --w {"p":3,"f":1,"basis":"X","terms":[]} '
    "--factors 5:0",
    '--p 3 verify-bound --w {"p":5,"f":1,"basis":"L","terms":[]} '
    "--factors 5:0",
    "--p 3 --f 2 principal-series --n 8",
    "--p 5 bm qp --rho-n 9 --a-max 3",
    # flags that exclude each other
    "--p 3 decompose --symm 4 --factors 7:1",
    "--p 3 decompose --det 1 --factors 7:1",
    "--p 3 decompose --det 1 --frob 1 --factors 7:1",
    "--p 3 omega --all --n 1",
    # a zero denominator
    "--p 3 verify-bound --w 1/0*[L_1(0)] --factors 5:0",
    "--p 3 verify-bound --w [L_1(0)]-3/00*[L_0(1)] --factors 5:0",
])
def test_invalid_input_is_a_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# stdout of the output branches the other tests only parse or never reach
# (csv and pretty emitters, --explain as json, omega --n, bm qp with --b
# and the crystalline type), byte for byte at q = 3 and q = 9
GOLDEN_STDOUT = [
    ('--p 3 --f 1 --format csv decompose --symm 10',
     'basis,n,m,coeff\r\n'
     'L,0,0,1/1\r\n'
     'L,0,1,1/1\r\n'
     'L,2,0,2/1\r\n'
     'L,2,1,1/1\r\n'),
    ('--p 3 --f 2 --format csv decompose --factors 11:1:0,6:0:1',
     'basis,n,m,coeff\r\n'
     'L,1,3,6/1\r\n'
     'L,1,7,3/1\r\n'
     'L,3,2,5/1\r\n'
     'L,3,6,4/1\r\n'
     'L,5,1,1/1\r\n'
     'L,5,5,3/1\r\n'
     'L,7,0,2/1\r\n'
     'L,7,4,2/1\r\n'),
    ('--p 3 --f 1 omega --all',
     '[{"n": 0, "omega": 1}, {"n": 1, "omega": 2}, {"n": 2, "omega": 1}]\n'),
    ('--p 3 --f 2 --format pretty omega --all',
     'n  omega\n'
     '0  3    \n'
     '1  4    \n'
     '2  2    \n'
     '3  4    \n'
     '4  4    \n'
     '5  2    \n'
     '6  2    \n'
     '7  2    \n'
     '8  1    \n'),
    ('--p 3 --f 1 principal-series --n 1 --explain',
     '{"element": {"p": 3, "f": 1, "basis": "L", "terms": [{"n": 1, '
     '"m": 0, "coeff": "1/1"}, {"n": 1, "m": 1, "coeff": "1/1"}]}, '
     '"paths": [{"path": "TL", "compatible": true, "lambda": 1, '
     '"ell": 0}, {"path": "TR", "compatible": true, "lambda": 1, '
     '"ell": 1}]}\n'),
    ('--p 3 --f 2 principal-series --n 5 --m 3 --explain',
     '{"element": {"p": 3, "f": 2, "basis": "L", "terms": [{"n": 1, '
     '"m": 1, "coeff": "1/1"}, {"n": 3, "m": 0, "coeff": "1/1"}, '
     '{"n": 5, "m": 3, "coeff": "1/1"}]}, "paths": [{"path": '
     '"BL,BR", "compatible": true, "lambda": 1, "ell": 6}, {"path": '
     '"BR,BL", "compatible": false}, {"path": "TL,TL", '
     '"compatible": true, "lambda": 5, "ell": 0}, {"path": "TR,TR", '
     '"compatible": true, "lambda": 3, "ell": 5}]}\n'),
    ('--p 3 --f 1 --format csv omega --n 2',
     'n,omega\r\n'
     '2,1\r\n'),
    ('--p 3 --f 2 omega --n 4',
     '[{"n": 4, "omega": 4}]\n'),
    ('--p 3 --f 1 --format csv constants',
     'constant,value\r\n'
     'p,3\r\n'
     'f,1\r\n'
     'h,1\r\n'
     'A,240/1\r\n'
     'M_upper,6/1\r\n'
     'C,4173120/1\r\n'
     'C_1,695520/1\r\n'
     'C_2,333849600/1\r\n'
     'C_3,160247808000/1\r\n'),
    ('--p 3 --f 2 --format pretty constants',
     'constant  value                \n'
     'p         3                    \n'
     'f         2                    \n'
     'h         2                    \n'
     'A         15840/1              \n'
     'M_upper   120/1                \n'
     'C         34348093452288000/1  \n'
     'C_1       9035167680/1         \n'
     'C_2       286234112102400/1    \n'
     'C_3       9067896671404032000/1\n'),
    ('--p 3 --f 1 --format pretty verify-bound --w [L_1(0)] --factors 50:0',
     'lhs: 2/1\n'
     'rhs_theorem: 695520/1\n'
     'satisfied_theorem: True\n'
     'rhs_corollary: 16692480.0\n'
     'satisfied_corollary: True\n'),
    ('--p 3 --f 2 --format pretty verify-bound --w [L_2(1)] '
     '--factors 40:1:1,7',
     'lhs: 15/1\n'
     'rhs_theorem: 11735598596198400/1\n'
     'satisfied_theorem: True\n'
     'rhs_corollary: 3.110352149712039e+18\n'
     'satisfied_corollary: True\n'),
    ('--p 3 --f 1 --format pretty oracle-check --factors 7:1,4',
     'agree: True\n'
     'ring:   10*[L_1(0)] + 10*[L_1(1)]\n'
     'oracle: 10*[L_1(0)] + 10*[L_1(1)]\n'),
    ('--p 3 --f 2 --format pretty oracle-check --factors 11:1:0,6:0:1',
     'agree: True\n'
     'ring:   6*[L_1(3)] + 3*[L_1(7)] + 5*[L_3(2)] + 4*[L_3(6)] + '
     '[L_5(1)] + 3*[L_5(5)] + 2*[L_7(0)] + 2*[L_7(4)]\n'
     'oracle: 6*[L_1(3)] + 3*[L_1(7)] + 5*[L_3(2)] + 4*[L_3(6)] + '
     '[L_5(1)] + 3*[L_5(5)] + 2*[L_7(0)] + 2*[L_7(4)]\n'),
    ('--p 3 --f 1 --format pretty bm general --type-json {type} '
     '--weights-json {weights} --factors 4:0:0',
     'mu_aut: 2\n'
     'dim: 5\n'
     'ratio: 2/5\n'),
    ('--p 3 --f 1 --format csv bm qp --rho-n 1 --a-max 6 --b 1',
     'a,b,gate,mu_exact,mu_asymptotic,abs_error\r\n'
     '0,1,False,0,0/1,0/1\r\n'
     '1,1,True,3,3/1,0/1\r\n'
     '2,1,False,0,0/1,0/1\r\n'
     '3,1,True,6,6/1,0/1\r\n'
     '4,1,False,0,0/1,0/1\r\n'
     '5,1,True,9,9/1,0/1\r\n'
     '6,1,False,0,0/1,0/1\r\n'),
    ('--p 3 --f 1 --format csv bm qp --rho-n 0 --rho-m 1 --type '
     'crystalline --a-max 6',
     'a,b,gate,mu_exact,mu_asymptotic,abs_error\r\n'
     '0,0,True,0,1/4,1/4\r\n'
     '1,0,False,0,0/1,0/1\r\n'
     '2,0,True,0,3/4,3/4\r\n'
     '3,0,False,0,0/1,0/1\r\n'
     '4,0,True,1,5/4,1/4\r\n'
     '5,0,False,0,0/1,0/1\r\n'
     '6,0,True,1,7/4,3/4\r\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_STDOUT)
def test_golden_stdout(capsys, tmp_path, argv, expected):
    from modp_gl2 import bm

    type_path = tmp_path / "type.json"
    weights_path = tmp_path / "weights.json"
    type_path.write_text(json.dumps(
        bm.type_to_json(bm.preset_type_crystalline_trivial_qp(3))))
    weights_path.write_text(json.dumps(
        bm.intrinsics_to_json({(0, 0): 1, (2, 0): 1})))
    argv = argv.format(type=type_path, weights=weights_path).split()
    assert run(capsys, *argv) == (0, expected, "")


def test_determinism(capsys):
    argv = ["--p", "3", "--f", "2", "decompose", "--factors", "11:1:0,6:0:1"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_jobs_flag_preserves_order(capsys):
    argv = ["--p", "5", "--f", "1", "--format", "csv", "bm", "qp",
            "--rho-n", "1", "--a-max", "15"]
    _, serial, _ = run(capsys, *argv)
    _, parallel, _ = run(capsys, "--jobs", "4", *argv[:])
    assert serial == parallel


@pytest.mark.parametrize("argv", [
    ["--p", "3", "--f", "1", "decompose", "--symm", "19"],
    ["--p", "3", "--f", "1", "constants"],
    ["--p", "3", "--f", "1", "verify-bound", "--w", "[L_1(0)]",
     "--factors", "50:0"]])
def test_cache_path_and_env_are_ignored(capsys, tmp_path, monkeypatch, argv):
    from modp_gl2 import memo

    cache_file = tmp_path / "cache.json"
    memo.clear()
    plain = run(capsys, *argv)
    assert plain[0] == 0
    memo.clear()
    assert run(capsys, "--cache-path", str(cache_file), *argv) == plain
    monkeypatch.setenv("MODP_GL2_CACHE", str(cache_file))
    memo.clear()
    assert run(capsys, *argv) == plain
    assert not cache_file.exists()


def test_warm_run_leaves_cache_file_alone(capsys, tmp_path):
    from modp_gl2 import memo

    # the file an earlier version wrote for this command, byte for byte
    cache_file = tmp_path / "cache.json"
    text = ('{"version": 1, "structure_constants": {"3,1": {"0,1": '
            '[[1, 0, 1]], "1,1": [[0, 1, 1], [2, 0, 1]], "1,2": [[1, 0, 1], '
            '[1, 1, 2]]}}, "constants": {}}')
    cache_file.write_text(text)
    argv = ["--p", "3", "--f", "1", "decompose", "--factors", "7:1:0,4:0:0"]
    memo.clear()
    plain = run(capsys, *argv)
    before = cache_file.stat()
    for _ in range(2):
        memo.clear()
        assert run(capsys, "--cache-path", str(cache_file), *argv) == plain
    after = cache_file.stat()
    assert cache_file.read_text() == text
    assert (after.st_ino, after.st_mtime_ns) \
        == (before.st_ino, before.st_mtime_ns)


@pytest.mark.parametrize("use_env", [False, True], ids=["flag", "env"])
def test_tampered_constants_change_nothing(capsys, tmp_path, monkeypatch,
                                           use_env):
    from modp_gl2 import memo

    cache_file = tmp_path / "cache.json"
    cache_file.write_text(json.dumps({"version": 1, "constants": {
        "3,1,1": {"A": "1/1000", "M_upper": "1/1"}}}))
    if use_env:
        monkeypatch.setenv("MODP_GL2_CACHE", str(cache_file))
        flags = []
    else:
        flags = ["--cache-path", str(cache_file)]
    memo.clear()
    code, out, err = run(capsys, "--p", "3", "--f", "1", *flags, "constants")
    assert (code, err) == (0, "")
    assert json.loads(out)["A"] == "240/1"
    memo.clear()
    code, out, err = run(capsys, "--p", "3", "--f", "1", *flags,
                         "verify-bound", "--w", "[L_1(0)]",
                         "--factors", "50:0")
    assert (code, err) == (0, "")
    assert json.loads(out)["satisfied_theorem"] is True


def test_corrupt_cache_is_never_read(capsys, tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text("{not json")
    code, out, err = run(capsys, "--p", "3", "--f", "1",
                         "--cache-path", str(cache_file),
                         "decompose", "--symm", "4")
    assert (code, err) == (0, "")
    terms = {(t["n"], t["m"]) for t in json.loads(out)["terms"]}
    assert terms == {(0, 0), (0, 1), (2, 0)}


def test_partially_corrupt_cache_loads_nothing(capsys, tmp_path):
    from modp_gl2 import memo

    # a well-formed but wrong row for [L_1]^2 at q = 3 (the true product is
    # [L_2] + [L_0(1)]), then an unreadable pair key
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(json.dumps({"version": 1, "structure_constants": {
        "3,1": {"1,1": [[2, 0, 5]]}, "5,1": {"x,1": []}}}))
    memo.clear()
    code, out, err = run(capsys, "--p", "3", "--f", "1",
                         "--cache-path", str(cache_file),
                         "decompose", "--factors", "1,1")
    assert (code, err) == (0, "")
    terms = {(t["n"], t["m"]): t["coeff"] for t in json.loads(out)["terms"]}
    assert terms == {(0, 1): "1/1", (2, 0): "1/1"}


def run_python(flags, script, *argv):
    """Run a script in a fresh interpreter that imports this modp_gl2."""
    import os
    import subprocess
    import sys

    import modp_gl2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(modp_gl2.__file__))
    return subprocess.run([sys.executable, *flags, "-c", script, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("argv", [
    ["--p", "3", "--f", "2", "decompose", "--symm", "100"],
    ["--p", "3", "--f", "2", "--format", "csv", "omega", "--all"]])
def test_output_unchanged_under_optimize(argv):
    script = "import sys; from modp_gl2.cli import main; sys.exit(main())"
    outputs = []
    for flags in ([], ["-O"]):
        proc = run_python(flags, script, *argv)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_oracle_check_without_mpmath():
    script = ("import sys\n"
              "sys.modules['mpmath'] = None\n"
              "from modp_gl2.cli import main\n"
              "sys.exit(main())\n")
    proc = run_python([], script, "--p", "3", "--f", "1", "oracle-check",
                      "--factors", "7:1,4")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["agree"] is True


@pytest.mark.parametrize("argv", [
    "--p 3 --f 2 decompose --symm 100",
    "--p 3 --f 2 --h 2 constants",
    "--p 3 --f 1 verify-bound --w [L_1(0)] --factors 50:0",
    "--p 5 --f 1 --format csv bm qp --rho-n 1 --a-max 20",
    "--p 3 --f 1 bm general --type-json {type} --weights-json {weights} "
    "--factors 4:0:0",
])
def test_commands_run_without_numpy(tmp_path, argv):
    # only oracle-check needs numpy
    from modp_gl2 import bm

    type_path = tmp_path / "type.json"
    weights_path = tmp_path / "weights.json"
    type_path.write_text(json.dumps(
        bm.type_to_json(bm.preset_type_crystalline_trivial_qp(3))))
    weights_path.write_text(json.dumps(
        bm.intrinsics_to_json({(0, 0): 1, (2, 0): 1})))
    argv = argv.format(type=type_path, weights=weights_path).split()
    outputs = []
    for block in ("", "sys.modules['numpy'] = None; "):
        script = f"import sys; {block}from modp_gl2.cli import main; " \
                 "sys.exit(main())"
        proc = run_python([], script, *argv)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_numpy_loads_with_the_oracle_only():
    script = ("import sys\n"
              "import modp_gl2.cli\n"
              "assert 'numpy' not in sys.modules\n"
              "modp_gl2.OracleError\n"
              "assert 'numpy' in sys.modules\n")
    proc = run_python([], script)
    assert proc.returncode == 0, proc.stderr


def test_package_exports():
    import modp_gl2

    assert sorted(modp_gl2.__all__) == [
        "BoundReport", "BrauerTable", "ClosedPath", "ConstantsReport",
        "FieldParams", "GaloisTypeClass", "OracleError", "PRegularClass",
        "RhoBarQp", "RingElement", "SymmFactor", "a_sigma", "antecedents",
        "asymptotics", "bm", "brauer", "build_table", "check_theorem_bound",
        "compute_constants", "convert_basis", "diamond_decompose",
        "ell_of_path", "enumerate_closed_paths",
        "enumerate_p_regular_classes", "exact_multiplicity",
        "frobenius_proximity", "lambda_of_path", "memo", "mu_aut",
        "mu_aut_asymptotic_qp", "mu_aut_asymptotic_unramified",
        "mu_of_path", "multiplicity_estimate", "multiply", "norm_L_inf",
        "norm_S_1", "omega", "operator_norm", "oracle_decompose", "params",
        "preset_type_crystalline_trivial_qp", "preset_type_trivial_qp",
        "principal", "qp_gate", "reduce_product", "reduce_symm",
        "reduction", "residual", "ring", "s_alpha",
        "serre_weights_qp_irreducible", "split_by_central_character",
        "symm_to_L", "t_shift", "t_shift_candidates", "unramified_gate"]
    namespace = {}
    exec("from modp_gl2 import *", namespace)
    from modp_gl2 import brauer

    for name in ("BrauerTable", "OracleError", "PRegularClass",
                 "build_table", "enumerate_p_regular_classes",
                 "oracle_decompose"):
        assert namespace[name] is getattr(brauer, name)
    assert namespace["brauer"] is brauer


def test_unknown_package_attribute():
    import modp_gl2

    with pytest.raises(AttributeError, match="no_such_name"):
        modp_gl2.no_such_name
    assert not hasattr(modp_gl2, "cli_main")


def test_result_checks_survive_optimize():
    # an antecedent count that disagrees with omega's closed form
    script = ("from modp_gl2 import FieldParams, principal\n"
              "principal.antecedents = lambda *args: set()\n"
              "principal.omega(FieldParams(3, 1), 0)\n")
    proc = run_python(["-O"], script)
    assert proc.returncode != 0
    assert "internal bug" in proc.stderr


def test_no_bare_assert_in_src():
    # invariant checks must raise, not vanish under python -O
    import ast
    import pathlib

    import modp_gl2

    found = []
    for path in sorted(pathlib.Path(modp_gl2.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
