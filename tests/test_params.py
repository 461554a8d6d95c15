import time

import pytest

from modp_gl2 import FieldParams, RingElement
from modp_gl2.cli import main
from modp_gl2.params import Q_CAP, fields


def test_q_and_degree():
    params = FieldParams(3, 2)
    assert params.q == 9
    assert params.degree == 2
    assert FieldParams(3, 2, h=4).degree == 4


def test_validation():
    with pytest.raises(ValueError):
        FieldParams(4, 1)
    with pytest.raises(ValueError):
        FieldParams(3, 0)
    with pytest.raises(ValueError):
        FieldParams(3, 2, h=3)
    with pytest.raises(ValueError, match="exceeds the cap"):
        FieldParams(Q_CAP + 1, 1)  # the first q beyond the supported cap
    with pytest.raises(ValueError):
        FieldParams(3, 1, h=0)
    with pytest.raises(ValueError):
        FieldParams(3, 1, h=-1)
    # p, f and h are ints, not floats or bools that compare equal to one
    for args in [(3.0, 1), (3, 1.0), (3, True), (3, 1, 1.0), (3, 1, True)]:
        with pytest.raises(TypeError):
            FieldParams(*args)


@pytest.mark.parametrize("p,f", [(3, 10 ** 6), (2 ** 61 - 1, 1)])
def test_cap_is_checked_before_arithmetic(p, f, capsys):
    # neither 3^(10^6) nor trial division of a 61-bit prime is computed
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the cap"):
        FieldParams(p, f)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    code = main(["--p", str(p), "--f", str(f), "omega", "--all"])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "exceeds the cap" in captured.err


def test_digits_roundtrip():
    params = FieldParams(3, 2)
    assert params.digits(7) == [1, 2]
    assert params.from_digits([1, 2]) == 7
    for n in range(9):
        assert params.from_digits(params.digits(n)) == n


def test_theta_label():
    # theta on labels, through the Frobenius twist of L_n(m)
    p9 = FieldParams(3, 2)
    assert RingElement.L(p9, 5, 1).frobenius_twist(1) == RingElement.L(p9, 7, 3)
    p3 = FieldParams(3, 1)
    assert RingElement.L(p3, 2, 1).frobenius_twist(1) == RingElement.L(p3, 2, 1)
    # theta has order f on labels
    for n in range(9):
        for m in range(8):
            v = RingElement.L(p9, n, m)
            assert v.frobenius_twist(2) == v


def test_theta_label_rotates_digits_on_every_field():
    # the fields: every prime power q <= q_max, by q, against a brute-force
    # search for p prime (no smaller divisor) and f with p^f = q
    for q_max, count in [(5, 4), (9, 7), (16, 10), (32, 18), (64, 27)]:
        brute = [(p, f) for q in range(2, q_max + 1) for p in range(2, q + 1)
                 for f in range(1, q) if p ** f == q
                 and all(p % d for d in range(2, p))]
        assert [(params.p, params.f) for params in fields(q_max)] == brute
        assert len(brute) == count
    # reference: Frobenius^j sends L_n(m) to L_n'(m p^j), n' the f base-p
    # digits of n rotated up by j mod f places; q-1, all digits p-1, is fixed
    for params in fields(64):
        p, f, q = params.p, params.f, params.q
        for j in range(-f, 2 * f):
            r = j % f
            for n in range(q):
                digits = [n // p ** i % p for i in range(f)]
                rotated = digits[f - r:] + digits[:f - r]
                expected = sum(d * p ** i for i, d in enumerate(rotated))
                for m in (0, 1, q - 2, 5 * q):
                    got = RingElement.L(params, n, m).frobenius_twist(j)
                    assert got.terms == {
                        (expected, m * p ** r % (q - 1)): 1}, (q, j, n, m)


def test_theta_residue():
    p9 = FieldParams(3, 2)
    assert p9.theta_residue(1, 1) == 3
    assert p9.theta_residue(3, 1) == 1


def test_residue_reduction():
    params = FieldParams(5, 1)
    assert params.residue(7) == 3
    assert params.residue(-1) == 3
