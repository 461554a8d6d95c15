"""Randomized algebraic identities over small fields."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from modp_gl2 import (
    FieldParams,
    RingElement,
    convert_basis,
    multiply,
    norm_L_inf,
    operator_norm,
)

PARAMS = [FieldParams(2, 1), FieldParams(3, 1), FieldParams(5, 1),
          FieldParams(2, 2), FieldParams(3, 2)]


@st.composite
def labeled_element(draw, max_terms=4):
    params = draw(st.sampled_from(PARAMS))
    q = params.q
    qm1 = max(q - 1, 1)
    count = draw(st.integers(1, max_terms))
    v = RingElement.zero(params, "L")
    for _ in range(count):
        n = draw(st.integers(0, q - 1))
        m = draw(st.integers(0, qm1 - 1))
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        v = v + RingElement.L(params, n, m).scale(c)
    return v


@st.composite
def element_pair(draw):
    v = draw(labeled_element())
    params = v.params
    q = params.q
    qm1 = max(q - 1, 1)
    n = draw(st.integers(0, q - 1))
    m = draw(st.integers(0, qm1 - 1))
    w = RingElement.L(params, n, m)
    return v, w


@given(element_pair())
@settings(max_examples=60, deadline=None)
def test_commutativity(pair):
    v, w = pair
    assert multiply(v, w) == multiply(w, v)


@given(element_pair(), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_associativity(pair, n3):
    v, w = pair
    u = RingElement.L(v.params, n3 % v.params.q, 0)
    assert multiply(multiply(v, w), u) == multiply(v, multiply(w, u))


@given(element_pair())
@settings(max_examples=60, deadline=None)
def test_dimension_is_multiplicative(pair):
    v, w = pair
    assert multiply(v, w).dimension() == v.dimension() * w.dimension()


@given(element_pair())
@settings(max_examples=60, deadline=None)
def test_central_character_adds(pair):
    v, w = pair
    from modp_gl2 import split_by_central_character

    qm1 = max(v.params.q - 1, 1)
    for a, va in split_by_central_character(v).items():
        prod = multiply(va, w)
        if prod.is_zero():
            continue
        expected = (a + w.central_character()) % qm1
        assert prod.central_character() == expected


@given(element_pair(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_frobenius_is_multiplicative(pair, j):
    v, w = pair
    lhs = multiply(v, w).frobenius_twist(j)
    rhs = multiply(v.frobenius_twist(j), w.frobenius_twist(j))
    assert lhs == rhs


@given(labeled_element())
@settings(max_examples=60, deadline=None)
def test_basis_roundtrip(v):
    assert convert_basis(convert_basis(v, "S"), "L") == v


@given(labeled_element())
@settings(max_examples=60, deadline=None)
def test_hash_agrees_with_eq_across_bases(v):
    s = v.to_basis("S")
    assert hash(v) == hash(s)
    assert len({v, s}) == 1


@given(element_pair())
@settings(max_examples=40, deadline=None)
def test_norm_subadditive(pair):
    v, w = pair
    assert norm_L_inf(v + w) <= norm_L_inf(v) + norm_L_inf(w)
    assert operator_norm(multiply(v, w)) \
        <= operator_norm(v) * operator_norm(w)


@given(labeled_element(), st.integers(0, 10), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_twists_commute(v, i, j):
    assert v.det_twist(i).frobenius_twist(j) \
        == v.frobenius_twist(j).det_twist(
            (i * v.params.p ** (j % v.params.f)) % max(v.params.q - 1, 1))
