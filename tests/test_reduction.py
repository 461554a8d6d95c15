import pytest

from modp_gl2 import (
    FieldParams,
    RingElement,
    SymmFactor,
    multiply,
    reduce_product,
    reduce_symm,
    symm_to_L,
)
from modp_gl2 import reduction


def test_small_values(p3, p5):
    assert reduce_symm(p3, 4) == (RingElement.L(p3, 2, 0)
                                  + RingElement.L(p3, 0, 0)
                                  + RingElement.L(p3, 0, 1))
    assert reduce_symm(p3, 3) == RingElement.L(p3, 1, 0) + RingElement.L(p3, 1, 1)
    assert reduce_symm(p5, 2) == RingElement.L(p5, 2, 0)


def test_agrees_with_base_range():
    for p, f in [(3, 1), (5, 1), (2, 2), (3, 2)]:
        params = FieldParams(p, f)
        for k in range(params.q):
            assert reduce_symm(params, k) == symm_to_L(params, k, 0)


def test_fast_equals_slow():
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        params = FieldParams(p, f)
        for k in range(0, 501):
            assert reduce_symm(params, k, method="fast") \
                == reduce_symm(params, k, method="slow"), (p, f, k)


def test_dimension_is_k_plus_one(p3, p9):
    assert reduce_symm(p3, 100).dimension() == 101
    for k in (0, 7, 63, 200, 481):
        assert reduce_symm(p9, k).dimension() == k + 1


def test_glover_recursion(p9):
    """S_n = S_{n-1} * L_1 - S_{n-2}(1) as classes, for n past the base range."""
    l1 = RingElement.L(p9, 1, 0)
    for n in range(2, 201, 13):
        lhs = reduce_symm(p9, n)
        rhs = multiply(reduce_symm(p9, n - 1), l1) \
            - reduce_symm(p9, n - 2).det_twist(1)
        assert lhs == rhs, n


def test_twists(p9):
    base = reduce_symm(p9, 37)
    assert reduce_symm(p9, 37, m=3) == base.det_twist(3)
    assert reduce_symm(p9, 37, j=1) == base.frobenius_twist(1)
    assert reduce_symm(p9, SymmFactor(37, 3, 1)) \
        == base.det_twist(3).frobenius_twist(1)


def test_reduce_product(p9):
    factors = [SymmFactor(7, 1, 0), SymmFactor(11, 0, 1)]
    expected = multiply(reduce_symm(p9, 7, m=1), reduce_symm(p9, 11, j=1))
    assert reduce_product(p9, factors) == expected
    assert reduce_product(p9, []) == RingElement.L(p9, 0, 0)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_reduce_product_multiplies_from_the_first_factor(p9, monkeypatch,
                                                         count):
    calls = []

    def counted(v, w):
        calls.append(1)
        return multiply(v, w)

    monkeypatch.setattr(reduction, "multiply", counted)
    factors = [SymmFactor(7, 1, 0), SymmFactor(11, 0, 1), SymmFactor(30)]
    expected = reduce_symm(p9, 7, m=1)
    for k, m, j in factors[1:count]:
        expected = multiply(expected, reduce_symm(p9, k, m=m, j=j))
    assert reduce_product(p9, factors[:count]) == expected
    assert len(calls) == count - 1


def test_central_character(p9):
    # S_k(m) acts on the center through k + 2m
    v = reduce_symm(p9, 123, m=2)
    assert v.central_character() == (123 + 4) % 8


def test_validation(p3):
    with pytest.raises(ValueError):
        reduce_symm(p3, -1)
