import pytest

from modp_gl2 import FieldParams


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
    with pytest.raises(ValueError):
        FieldParams(2, 7)  # q beyond the supported cap
    with pytest.raises(ValueError):
        FieldParams(3, 1, h=0)
    with pytest.raises(ValueError):
        FieldParams(3, 1, h=-1)
    # p, f and h are ints, not floats or bools that compare equal to one
    for args in [(3.0, 1), (3, 1.0), (3, True), (3, 1, 1.0), (3, 1, True)]:
        with pytest.raises(TypeError):
            FieldParams(*args)


def test_digits_roundtrip():
    params = FieldParams(3, 2)
    assert params.digits(7) == [1, 2]
    assert params.from_digits([1, 2]) == 7
    for n in range(9):
        assert params.from_digits(params.digits(n)) == n


def test_theta_label():
    p9 = FieldParams(3, 2)
    assert p9.theta_label(5, 1) == 7
    assert FieldParams(3, 1).theta_label(2, 1) == 2
    # theta has order f on labels
    for n in range(9):
        assert p9.theta_label(n, 2) == n


def test_theta_residue():
    p9 = FieldParams(3, 2)
    assert p9.theta_residue(1, 1) == 3
    assert p9.theta_residue(3, 1) == 1


def test_residue_reduction():
    params = FieldParams(5, 1)
    assert params.residue(7) == 3
    assert params.residue(-1) == 3
