"""Randomized algebraic identities over small fields."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from modp_gl2 import (
    FieldParams,
    RingElement,
    SymmFactor,
    convert_basis,
    multiply,
    norm_L_inf,
    operator_norm,
    oracle_decompose,
    reduce_product,
    reduce_symm,
    residual,
    ring,
    s_alpha,
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


# every field with q <= 16
ORACLE_PARAMS = [FieldParams(p, f) for p, f in
                 [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                  (11, 1), (13, 1), (2, 4)]]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ring_matches_oracle(data):
    """Up to three factors with k up to 1e9 give dim V up to about 1e27, so
    the oracle lifts its residues from as many as four primes."""
    params = data.draw(st.sampled_from(ORACLE_PARAMS))
    twist = st.integers(0, params.q - 1)
    factor = st.builds(SymmFactor, st.integers(0, 10 ** 9), twist,
                       st.integers(0, params.f - 1))
    factors = data.draw(st.lists(factor, min_size=1, max_size=3))
    det = data.draw(twist)
    assert oracle_decompose(params, factors, det=det) \
        == reduce_product(params, factors).det_twist(det)


# ---------------------------------------------------------------------------
# The period N = q^2 - 1: [S_(k+N)] = [S_k] + N * S-hat_k


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_residual_is_periodic_in_each_k(data):
    """The residual of V = W * prod S_(k_i)(m_i)^[j_i], W = L_n(m), depends
    only on each k_i mod N: S-hat * W = dim W * S-hat, so the N * S-hat_k
    that one more period adds is all absorbed by the leading term."""
    params = data.draw(st.sampled_from(ORACLE_PARAMS))
    q = params.q
    period = q * q - 1
    twist = st.integers(0, q - 2)
    factor = st.builds(SymmFactor, st.integers(0, 3 * period), twist,
                       st.integers(0, params.f - 1))
    factors = data.draw(st.lists(factor, min_size=1, max_size=3))
    w = RingElement.L(params, data.draw(st.integers(0, q - 1)),
                      data.draw(twist))
    i = data.draw(st.integers(0, len(factors) - 1))
    grown = list(factors)
    grown[i] = factors[i]._replace(
        k=factors[i].k + data.draw(st.integers(1, 4)) * period)
    assert residual(multiply(w, reduce_product(params, grown))) \
        == residual(multiply(w, reduce_product(params, factors)))


# every field with q <= 9
SLOW_PARAMS = [pr for pr in ORACLE_PARAMS if pr.q <= 9]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_slow_route_has_period_n(data):
    """The identity the fast route adds full periods by, checked on the
    Glover recursion alone."""
    params = data.draw(st.sampled_from(SLOW_PARAMS))
    period = params.q ** 2 - 1
    k = data.draw(st.integers(0, 2 * period))
    assert reduce_symm(params, k + period, method="slow") \
        == reduce_symm(params, k, method="slow") \
        + s_alpha(params, k).scale(period)


# ---------------------------------------------------------------------------
# The int-or-Fraction kernel against a plain-Fraction reference

KERNEL_PARAMS = [FieldParams(2, 2), FieldParams(5, 1), FieldParams(3, 2)]

# integral values drawn both as ints and as Fractions with denominator 1
exact_coeff = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def mixed_element(draw, params, basis=None):
    basis = basis or draw(st.sampled_from(["L", "S"]))
    labels = st.tuples(st.integers(0, params.q - 1), st.integers(-9, 9))
    terms = draw(st.lists(st.tuples(labels, exact_coeff), max_size=5))
    return RingElement(params, basis, terms)


def assert_canonical(v):
    for c in v.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def reference_terms(v, target):
    """v's terms as Fractions in the target basis, from the base-change
    columns."""
    terms = {k: Fraction(c) for k, c in v.terms.items()}
    if v.basis == target:
        return terms
    pr = v.params
    cols = (ring._s_to_l_columns(pr) if target == "L"
            else ring._l_to_s_columns(pr))
    qm1 = pr.q - 1
    out = {}
    for (n, m), c in terms.items():
        for nb, x, k in cols[n]:
            key = (nb // qm1, (x + m) % qm1)
            out[key] = out.get(key, Fraction(0)) + c * k
    return {k: c for k, c in out.items() if c != 0}


def reference_product(v, w):
    pr = v.params
    out = {}
    for (a, x), cv in reference_terms(v, "L").items():
        for (b, y), cw in reference_terms(w, "L").items():
            for (n, t), k in ring.structure_constants(pr, a, b).items():
                key = (n, (t + x + y) % (pr.q - 1))
                out[key] = out.get(key, Fraction(0)) + cv * cw * k
    return {k: c for k, c in out.items() if c != 0}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_fraction_reference(data):
    params = data.draw(st.sampled_from(KERNEL_PARAMS))
    v = data.draw(mixed_element(params))
    w = data.draw(mixed_element(params))
    u = data.draw(mixed_element(params, v.basis))
    c = data.draw(exact_coeff)

    prod = multiply(v, w)
    assert prod.terms == reference_product(v, w)
    total = v + u
    reference = reference_terms(v, v.basis)
    for k, x in reference_terms(u, u.basis).items():
        reference[k] = reference.get(k, Fraction(0)) + x
    assert total.terms == {k: x for k, x in reference.items() if x != 0}
    scaled = v.scale(c)
    assert scaled.terms == {k: x * c for k, x in reference_terms(v, v.basis)
                            .items() if x * c != 0}
    converted = {b: convert_basis(v, b) for b in ("L", "S")}
    for b, vb in converted.items():
        assert vb.terms == reference_terms(v, b)
    for elem in (v, w, u, prod, total, scaled, *converted.values()):
        assert_canonical(elem)
