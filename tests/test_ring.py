import random
from fractions import Fraction
from functools import reduce

import pytest

from modp_gl2 import (
    FieldParams,
    RingElement,
    SymmFactor,
    convert_basis,
    memo,
    multiply,
    operator_norm,
    oracle_decompose,
    reduce_product,
    reduce_symm,
    s_alpha,
    symm_to_L,
)
from modp_gl2.params import fields
from modp_gl2.reduction import _split
from modp_gl2.ring import (_add_product, _labels, _row, _s_to_l_columns,
                           _symm_terms, _twist, structure_constants)

FIELDS_TO_16 = [(params.p, params.f) for params in fields(16)]


def test_det_twist(p3, p9):
    assert RingElement.L(p3, 1, 0).det_twist(1) == RingElement.L(p3, 1, 1)
    v = RingElement.L(p3, 2, 1) + RingElement.L(p3, 0, 0)
    assert v.det_twist(0) == v
    assert RingElement.S(p9, 7, 1).det_twist(3) == RingElement.S(p9, 7, 4)


def test_frobenius_twist(p3, p9):
    assert RingElement.L(p9, 5, 1).frobenius_twist(1) == RingElement.L(p9, 7, 3)
    v = RingElement.L(p9, 5, 1) + 2 * RingElement.L(p9, 3, 2)
    assert v.frobenius_twist(2) == v
    assert RingElement.L(p3, 2, 1).frobenius_twist(1) == RingElement.L(p3, 2, 1)


def test_multiply_small(p3, p9):
    l1 = RingElement.L(p3, 1, 0)
    assert multiply(l1, l1) == RingElement.L(p3, 2, 0) + RingElement.L(p3, 0, 1)
    l2 = RingElement.L(p3, 2, 0)
    assert multiply(l2, l1) == RingElement.L(p3, 1, 0) + 2 * RingElement.L(p3, 1, 1)
    assert multiply(RingElement.L(p9, 3, 0), RingElement.L(p9, 1, 0)) \
        == RingElement.L(p9, 4, 0)
    v = RingElement.L(p3, 2, 1) + 3 * RingElement.L(p3, 1, 0)
    assert multiply(RingElement.L(p3, 0, 0), v) == v
    assert v * l1 == multiply(v, l1)


def test_symm_to_L(p3, p9):
    assert symm_to_L(p3, 1, 0) == RingElement.L(p3, 1, 0)
    assert symm_to_L(p9, 7, 0) == RingElement.L(p9, 7, 0) + RingElement.L(p9, 3, 2)
    assert symm_to_L(p3, 2, 1) == RingElement.L(p3, 2, 1)


def test_symm_to_L_triangular():
    """Leading coefficient one, all other constituents strictly below."""
    for p, f in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]:
        params = FieldParams(p, f)
        for n in range(params.q):
            v = symm_to_L(params, n, 0)
            assert v.coeff(n, 0) == 1
            for (i, mm), _ in v.sorted_terms():
                assert i < n or (i, mm) == (n, 0)


def test_convert_basis(p3, p9):
    assert convert_basis(RingElement.S(p3, 2, 0), "L") == RingElement.L(p3, 2, 0)
    expected = (RingElement.S(p9, 7, 0) - RingElement.S(p9, 3, 2)
                + RingElement.S(p9, 1, 3))
    assert convert_basis(RingElement.L(p9, 7, 0), "S") == expected


def test_convert_roundtrip(p9):
    v = (2 * RingElement.L(p9, 7, 1) - RingElement.L(p9, 4, 0)
         + RingElement.L(p9, 0, 5).scale(Fraction(1, 3)))
    assert convert_basis(convert_basis(v, "S"), "L") == v


def test_dimension(p3, p9):
    assert RingElement.L(p9, 7, 0).dimension() == 6
    assert RingElement.S(p3, 2, 1).dimension() == 3
    assert RingElement.L(p3, 0, 0).dimension() == 1


def test_central_character(p3, p9):
    assert RingElement.L(p3, 1, 1).central_character() == 1
    v = RingElement.L(p9, 7, 1) + RingElement.L(p9, 3, 3)
    assert v.central_character() == 1
    mixed = RingElement.L(p3, 0, 0) + RingElement.L(p3, 1, 0)
    assert mixed.central_character() is None


def test_arithmetic(p3):
    a = RingElement.L(p3, 1, 0)
    b = RingElement.L(p3, 2, 1)
    assert a + b - a == b
    assert (a - a).is_zero()
    assert a.scale(Fraction(2, 3)) + a.scale(Fraction(1, 3)) == a
    assert 2 * a == a + a


def test_label_normalization(p3):
    # twists are stored canonically mod q-1
    assert RingElement.L(p3, 1, 5) == RingElement.L(p3, 1, 1)
    assert RingElement.L(p3, 1, -1) == RingElement.L(p3, 1, 1)


def test_immutability(p3):
    v = RingElement.L(p3, 1, 0)
    with pytest.raises(AttributeError):
        v.basis = "S"


def test_memoized_state_is_read_only(p3):
    # a product and an S-hat are memoized: a write through what the caller
    # got back would change every later answer
    product = structure_constants(p3, 1, 1)
    with pytest.raises(TypeError):
        product[(0, 0)] = 100
    with pytest.raises(TypeError):
        s_alpha(p3, 0).terms[(0, 0)] = 5
    assert multiply(RingElement.L(p3, 1, 0), RingElement.L(p3, 1, 0)) \
        == RingElement.L(p3, 2, 0) + RingElement.L(p3, 0, 1)
    assert reduce_symm(p3, 20).dimension() == 21


def test_json_roundtrip(p9):
    v = (RingElement.L(p9, 7, 1).scale(Fraction(5, 3))
         - 2 * RingElement.L(p9, 0, 0))
    data = v.to_json_dict()
    assert data["basis"] == "L"
    assert all(set(t) == {"n", "m", "coeff"} for t in data["terms"])
    assert RingElement.from_json_dict(data) == v
    # a label given twice adds up, as one given twice modulo q-1 does
    twice = dict(data, terms=data["terms"] + data["terms"])
    assert RingElement.from_json_dict(twice) == 2 * v


def test_zero(p3):
    z = RingElement.zero(p3)
    assert z.is_zero()
    assert z + RingElement.L(p3, 1, 0) == RingElement.L(p3, 1, 0)
    assert multiply(z, RingElement.L(p3, 2, 0)).is_zero()


@pytest.mark.parametrize("p, f", FIELDS_TO_16)
def test_symm_terms_twist_the_base_change_column(p, f):
    # the flat terms of S_w(t)^[j] are the column of S_w relabelled by
    # _twist, term by term and in order; at w = q-1 the column holds
    # L_(q-1), the label theta fixes
    params = FieldParams(p, f)
    q, qm1 = params.q, params.q - 1
    cols = _s_to_l_columns(params)
    for w in range(q):
        for t in (-1, 0, 1, q - 2):
            for j in (-1, 0, f, 2 * f + 1):
                expected = _twist(params, _labels(qm1, cols[w]), t, j)
                assert _symm_terms(params, w, t, j) \
                    == list(_row(qm1, expected)), (q, w, t, j)
    assert (qm1, 0) in _labels(qm1, cols[q - 1])


def _remainders(params, rng, r):
    """r remainders S_w(v)^[j] with 2w < q and mixed j."""
    q, f = params.q, params.f
    return [SymmFactor(rng.randrange((q + 1) // 2), rng.randrange(-2, q),
                       rng.choice((-1, 0, f - 1, f + 1)))
            for _ in range(r)]


@pytest.mark.parametrize("p, f", FIELDS_TO_16)
def test_add_product_is_the_signed_product(p, f):
    # sign times the product of 2 and 3 remainders, added into a label dict
    # that already holds terms: against the multiply fold of their classes
    # and, at q <= 9, against the Brauer oracle
    params = FieldParams(p, f)
    rng = random.Random(params.q)
    base = RingElement.L(params, 1, 2) + RingElement.L(params, 0, 1)
    for r in (2, 3, 2, 3):
        factors = _remainders(params, rng, r)
        products = [reduce(multiply, [reduce_symm(params, factor)
                                      for factor in factors])]
        if params.q <= 9:
            products.append(oracle_decompose(params, factors))
        for sign in (1, -1):
            got = RingElement(params, "L", _add_product(
                params, dict(base.terms),
                [_symm_terms(params, *factor) for factor in factors], sign))
            for product in products:
                assert got == base + product.scale(sign), \
                    (params, factors, sign)


@pytest.mark.parametrize("p, f", FIELDS_TO_16)
def test_product_rows_do_not_depend_on_build_order(p, f, check_fields):
    # a row takes the entries it shares with rows already built: in
    # ascending, descending and shuffled order every entry is the same
    # label dict and equals its transpose, and [a][b] and [b][a] are one
    # stored object
    params = FieldParams(p, f)
    rng = random.Random(params.q)
    for case, agree in check_fields.row_orders(params, rng):
        assert agree, (params, case)


@pytest.mark.parametrize("p, f", [(7, 2), (2, 6)])
def test_products_build_only_the_rows_they_read(p, f):
    # a cold two-factor fast product builds the rows of its shorter
    # remainder's labels alone; operator_norm reads every row
    params = FieldParams(p, f)
    q = params.q
    table = memo.TABLES["modp_gl2.ring._product_row"]
    rng = random.Random(q)
    for _ in range(5):
        factors = []
        while len(factors) < 2:
            factor = SymmFactor(rng.randrange(4000), rng.randrange(q - 1),
                                rng.randrange(f))
            if _split(params, factor.k)[2] is not None:
                factors.append(factor)
        remainders = []
        for k, m, j in factors:
            w, v = _split(params, k)[2]
            remainders.append(_symm_terms(params, w, v + m, j))
        shorter = min(remainders, key=len)
        memo.clear()
        reduce_product(params, factors)
        built = {a for _, _, a in table}
        assert built <= {nb // (q - 1) for nb, _, _ in shorter}, factors
        assert len(built) <= len({(nb, x) for nb, x, _ in shorter})
    memo.clear()
    operator_norm(RingElement.L(params, 1, 0) - RingElement.L(params, 2, 1))
    assert sorted(a for _, _, a in table) == list(range(q))
