import importlib.util
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from modp_gl2 import (
    FieldParams,
    RingElement,
    SymmFactor,
    check_theorem_bound,
    compute_constants,
    diamond_decompose,
    exact_multiplicity,
    frobenius_proximity,
    memo,
    multiplicity_estimate,
    multiply,
    norm_L_inf,
    norm_S_1,
    operator_norm,
    reduce_product,
    reduce_symm,
    residual,
    s_alpha,
    split_by_central_character,
    t_shift,
    t_shift_candidates,
)
from modp_gl2.asymptotics import _class_norms
from modp_gl2.params import fields
from modp_gl2.ring import structure_constants

FIELDS_TO_16 = [(params.p, params.f) for params in fields(16)]
FIELDS_TO_32 = [(params.p, params.f) for params in fields(32)]


def diamond_sum(params, i):
    """S-hat_i as the average of the (q-1)^2 principal series V_r(j) with
    r + 2j = i (mod q-1): the reference for s_alpha's closed form."""
    qm1 = max(params.q - 1, 1)
    total = RingElement.zero(params, "L")
    for r in range(qm1):
        for j in range(qm1):
            if (r + 2 * j) % qm1 == i:
                total = total + diamond_decompose(params, r, j)
    return total.scale(Fraction(1, params.q ** 2 - 1))


def brute_force_norm(v):
    """Largest absolute row sum of the full q(q-1)-square matrix of
    multiplication by v, whose column (b, y) is v * [L_b(y)]: the reference
    for operator_norm, with no twist shortcut. The columns are taken of v
    scaled to ints by its denominators' lcm D, and the max row is over D."""
    params = v.params
    q, qm1 = params.q, max(params.q - 1, 1)
    d = lcm(*(c.denominator for c in v.terms.values()))
    scaled = v.scale(d)
    rows = {(n, t): 0 for n in range(q) for t in range(qm1)}
    for b in range(q):
        for y in range(qm1):
            column = multiply(scaled, RingElement.L(params, b, y))
            for lbl, c in column.terms.items():
                rows[lbl] += abs(c)
    return Fraction(max(rows.values()), d)


def per_b_norm(v):
    """operator_norm as the q products v * [L_b(0)], each summed label by
    label from the ``structure_constants`` maps, with |c| summed per n: the
    reference for the flat accumulator split by central character."""
    params = v.params
    qm1 = params.q - 1
    d = lcm(*(c.denominator for c in v.terms.values()))
    rows = [0] * params.q
    for b in range(params.q):
        column = {}
        for (a, x), c in v.terms.items():
            c = c.numerator * (d // c.denominator)
            for (n, t), k in structure_constants(params, a, b).items():
                lbl = (n, (t + x) % qm1)
                column[lbl] = column.get(lbl, 0) + c * k
        for (n, _), c in column.items():
            rows[n] += abs(c)
    return Fraction(max(rows), d)


def test_s_alpha_small(p3):
    quarter = Fraction(1, 4)
    expected = (RingElement.L(p3, 1, 0) + RingElement.L(p3, 1, 1)).scale(quarter)
    assert s_alpha(p3, 1) == expected
    eighth = Fraction(1, 8)
    expected0 = (RingElement.L(p3, 0, 0) + RingElement.L(p3, 0, 1)
                 + RingElement.L(p3, 2, 0) + RingElement.L(p3, 2, 1)).scale(eighth)
    assert s_alpha(p3, 0) == expected0


def test_s_alpha_dimension_and_character(p9):
    for i in range(8):
        v = s_alpha(p9, i)
        assert v.dimension() == 1
        assert v.central_character() == i


@pytest.mark.parametrize("p,f", FIELDS_TO_16)
def test_s_alpha_closed_form_matches_diamond_sum(p, f):
    params = FieldParams(p, f)
    for i in range(max(params.q - 1, 1)):
        assert s_alpha(params, i) == diamond_sum(params, i)


def test_tensoriel(p3, p9):
    for params in (p3, p9):
        qm1 = params.q - 1
        for a in range(qm1):
            for b in range(qm1):
                product = multiply(s_alpha(params, a),
                                   s_alpha(params, b))
                assert product == s_alpha(params, (a + b) % qm1)


def test_s_alpha_twist_laws(p9):
    for i in range(8):
        v = s_alpha(p9, i)
        for j in range(8):
            assert v.det_twist(j) == s_alpha(p9, (i + 2 * j) % 8)
        assert v.frobenius_twist(1) == s_alpha(p9, (3 * i) % 8)


def test_norms(p3, p9):
    assert operator_norm(RingElement.L(p3, 0, 0)) == 1
    assert norm_S_1(RingElement.S(p9, 5, 2)) == 1
    v = 2 * RingElement.L(p9, 7, 1) - RingElement.L(p9, 3, 0).scale(Fraction(1, 2))
    assert norm_L_inf(v) == 2
    for i in range(8):
        assert operator_norm(v.det_twist(i)) == operator_norm(v)
    assert operator_norm(v.frobenius_twist(1)) == operator_norm(v)


@pytest.mark.parametrize("p,f", FIELDS_TO_16)
def test_operator_norm_matches_brute_force(p, f):
    params = FieldParams(p, f)
    q, qm1 = params.q, max(params.q - 1, 1)
    rng = random.Random(q)
    mixes = [RingElement(params, "L", {
        (rng.randrange(q), rng.randrange(qm1)):
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for _ in range(rng.randint(1, 6))}) for _ in range(5)]
    positive = RingElement(params, "L", {
        (rng.randrange(q), rng.randrange(qm1)): Fraction(rng.randint(1, 9),
                                                         rng.randint(1, 9))
        for _ in range(4)})
    residuals = [residual(reduce_symm(params, r)) for r in range(0, 3 * q, 2)]
    elements = (mixes + [-v for v in mixes] + [positive, -positive]
                + residuals + [s_alpha(params, 0),
                               RingElement.zero(params),
                               RingElement.S(params, q - 1, 1)
                               - RingElement.S(params, 1, 0).scale(Fraction(2, 3))])
    for v in elements:
        assert operator_norm(v) == brute_force_norm(v.to_basis("L"))


@pytest.mark.parametrize("p,f", FIELDS_TO_32)
def test_operator_norm_matches_per_b_products(p, f):
    params = FieldParams(p, f)
    q, qm1 = params.q, max(params.q - 1, 1)
    h = qm1 // 2
    rng = random.Random(f"norm:{q}")
    residuals = [residual(multiply(
        RingElement.L(params, rng.randrange(q), rng.randrange(qm1)),
        reduce_product(params, [SymmFactor(rng.randrange(10 ** 6),
                                           rng.randrange(qm1),
                                           rng.randrange(f))
                                for _ in range(rng.randint(1, 3))])))
        for _ in range(5)]
    mixes = [RingElement(params, "L", {
        (rng.randrange(q), rng.randrange(qm1)):
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for _ in range(8)}) for _ in range(5)]
    if q > 2:
        assert all(len(split_by_central_character(v)) > 1 for v in mixes)
    # for odd q, L_a(0) - L_a(h) puts k and -k on the two twists t and t + h
    # of one (b, n); L_a(0) - L_a(1) puts them in two central characters. A
    # slot shared by either pair would cancel them
    pairs = [RingElement.L(params, a, 0) - RingElement.L(params, a, shift)
             for a in range(q) for shift in (1, h)]
    if q in (5, 9, 13):
        product = multiply(pairs[1], RingElement.L(params, 1, 0))
        assert product.coeff(1, 0) == 1 and product.coeff(1, h) == -1
    elements = (residuals + mixes + pairs
                + [RingElement.zero(params),
                   RingElement.S(params, q - 1, 1)
                   - RingElement.S(params, 1, 0).scale(Fraction(2, 3))])
    for v in elements:
        assert operator_norm(v) == per_b_norm(v.to_basis("L"))


@pytest.mark.parametrize("p,f", FIELDS_TO_16)
def test_linear_norm_matches_generic(p, f):
    # compute_constants norms the nonnegative classes by the recursion on
    # row sums; the generic operator_norm on each class is the reference
    params = FieldParams(p, f)
    q, qm1 = params.q, max(params.q - 1, 1)
    s_norms = [operator_norm(reduce_symm(params, r)) for r in range(q * q - 1)]
    hat_norms = [operator_norm(diamond_sum(params, i)) for i in range(qm1)]
    assert _class_norms(params) == (s_norms, hat_norms)
    best = max(s_norms + hat_norms)
    assert compute_constants(params).A == (q * q + 2 * q) * best


@pytest.fixture(scope="module")
def check_fields():
    """``scripts/check_fields.py`` as a module, for its references."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "check_fields.py"
    spec = importlib.util.spec_from_file_location("check_fields", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("p,f", FIELDS_TO_32)
def test_class_norms_match_glover_reference(p, f, check_fields):
    # past r = q, _class_norms adds one principal series' row sums per step;
    # the reference runs the Glover matvec at every step, as check_fields
    # does on every field
    params = FieldParams(p, f)
    assert _class_norms(params) == check_fields.glover_class_norms(params)


@pytest.mark.parametrize("p,f", FIELDS_TO_32)
def test_m_upper_is_the_l1_mass_of_the_L_n(p, f):
    # M_upper sums |k| over the base-change columns in one pass; the
    # reference is norm_S_1 of each L_n(0) through to_basis("S")
    params = FieldParams(p, f)
    mass = sum(norm_S_1(RingElement.L(params, n)) for n in range(params.q))
    assert compute_constants(params).M_upper == (params.q - 1) * mass


def test_memo_tables_stay_bounded(p9):
    # every table is keyed by the field and a bounded index, so once warm,
    # new bound checks on the same field store nothing
    compute_constants(p9)
    for k in range(p9.q ** 2 - 1 + p9.q):
        check_theorem_bound(p9, RingElement.L(p9, 1, 0), [SymmFactor(k, 0, 0)])
    before = sum(len(t) for t in memo.TABLES.values())
    rng = random.Random(50)
    for i in range(50):  # the first factor makes every call distinct
        factors = [SymmFactor(10 ** 6 + i, rng.randrange(8), rng.randrange(2))]
        if i % 2:
            factors.append(SymmFactor(rng.randrange(10 ** 6), rng.randrange(8)))
        w = RingElement.L(p9, rng.randrange(9), rng.randrange(8))
        check_theorem_bound(p9, w, factors)
    assert sum(len(t) for t in memo.TABLES.values()) == before


def test_constants_read_only_products_with_L1():
    # the row-sum recursion starts from t_0 = all ones and reads [L_a][L_1]
    # alone: one table of the q rows, and no row of the product table
    memo.clear()
    compute_constants(FieldParams(2, 4))
    assert len(memo.TABLES["modp_gl2.ring._l1_rows"]) == 1
    assert len(memo.TABLES["modp_gl2.ring._product_row"]) == 0


def test_constants_are_computed_once_per_field(monkeypatch):
    # A and M_upper depend on (p, f) alone: a second h reuses them
    from modp_gl2 import asymptotics

    calls = []
    class_norms = asymptotics._class_norms

    def counted(params):
        calls.append(params)
        return class_norms(params)

    monkeypatch.setattr(asymptotics, "_class_norms", counted)
    memo.clear()
    h4 = compute_constants(FieldParams(2, 4, 4))
    h8 = compute_constants(FieldParams(2, 4, 8))
    assert len(calls) == 1
    assert (h4.A, h4.M_upper) == (h8.A, h8.M_upper)
    assert h4.C != h8.C


def test_norm_triangle_and_scaling(p9):
    a = RingElement.L(p9, 5, 1) - 2 * RingElement.L(p9, 2, 3)
    b = RingElement.L(p9, 7, 0).scale(Fraction(3, 2))
    assert norm_L_inf(a + b) <= norm_L_inf(a) + norm_L_inf(b)
    assert norm_L_inf(a.scale(-3)) == 3 * norm_L_inf(a)
    assert operator_norm(multiply(a, b)) <= operator_norm(a) * operator_norm(b)


def test_constants_q2():
    report = compute_constants(FieldParams(2, 1))
    assert report.A >= 8
    assert report.A.denominator >= 1  # exact rational


def test_constants_q3(p3):
    report = compute_constants(FieldParams(3, 1, 1))
    assert report.A == (9 + 6) * max(
        operator_norm(reduce_symm(p3, r)) for r in range(8))
    assert report.C == report.M_upper * report.C_r(1)
    assert report.C_r(2) == 3 * 4 * report.A ** 2 * (2 * report.A + 3)


def test_constants_deterministic():
    first = compute_constants(FieldParams(5, 1, 1))
    from modp_gl2 import memo
    memo.clear()
    second = compute_constants(FieldParams(5, 1, 1))
    assert (first.A, first.M_upper, first.C) == (second.A, second.M_upper, second.C)


def test_residual(p3):
    v = s_alpha(p3, 1).scale(5)
    assert residual(v).is_zero()
    r = residual(RingElement.L(p3, 1, 0))
    half = Fraction(1, 2)
    assert r == RingElement.L(p3, 1, 0).scale(half) \
        - RingElement.L(p3, 1, 1).scale(half)


def test_residual_bounded_by_A(p5):
    report = compute_constants(FieldParams(5, 1, 1))
    for k in range(0, 301):
        assert operator_norm(residual(reduce_symm(p5, k))) <= report.A


def test_residual_rejects_mixed(p3):
    mixed = RingElement.L(p3, 0, 0) + RingElement.L(p3, 1, 0)
    with pytest.raises(ValueError):
        residual(mixed)
    parts = split_by_central_character(mixed)
    assert set(parts) == {0, 1}
    assert sum(parts.values(), RingElement.zero(p3)) == mixed


@pytest.mark.parametrize("p,f", [(2, 1), (2, 3), (3, 2), (5, 1), (13, 1)])
def test_split_by_central_character(p, f):
    params = FieldParams(p, f)
    q, qm1 = params.q, max(params.q - 1, 1)
    rng = random.Random(f"split:{q}")
    mixes = [RingElement(params, "L", {
        (rng.randrange(q), rng.randrange(qm1)):
            rng.choice((1, -2, Fraction(3, 7), Fraction(-5, 2)))
        for _ in range(8)}) for _ in range(5)]
    elements = mixes + [
        RingElement.zero(params),
        RingElement.S(params, q - 1, 1) - RingElement.S(params, 1, 0),
        residual(reduce_symm(params, 5 * q + 1))]
    for v in elements:
        parts = split_by_central_character(v)
        assert sum(parts.values(), RingElement.zero(params)) == v
        terms = v.to_basis("L").terms
        for a, part in parts.items():
            assert part.basis == "L" and part.central_character() == a
            public = RingElement(params, "L", {
                (n, m): c for (n, m), c in terms.items()
                if (n + 2 * m) % qm1 == a})
            assert part == public and hash(part) == hash(public)
            assert ([type(c) for c in part.terms.values()]
                    == [type(c) for c in public.terms.values()])
        assert sum(len(part.terms) for part in parts.values()) == len(terms)


def test_theorem_bound_small(p3, p9):
    rep = check_theorem_bound(p3, RingElement.L(p3, 0, 0), [SymmFactor(0, 0, 0)])
    s0 = s_alpha(p3, 0)
    assert rep.lhs == operator_norm(RingElement.L(p3, 0, 0) - s0)
    assert rep.satisfied
    for k in range(0, 2001, 97):
        assert check_theorem_bound(p3, RingElement.L(p3, 1, 0),
                                   [SymmFactor(k, 0, 0)]).satisfied
    for k in range(0, 201, 13):
        rep = check_theorem_bound(p9, RingElement.L(p9, 1, 0),
                                  [SymmFactor(k, 0, 0), SymmFactor(k, 0, 1)])
        assert rep.satisfied_theorem and rep.satisfied_corollary


def test_t_shift(p3, p9):
    assert t_shift(p3, 1, 4) == 0
    assert t_shift(p9, 1, 1) == 1
    # p = 2: doubling is invertible mod q-1, the shift is unique
    p8 = FieldParams(2, 3)
    for k in range(0, 20):
        for j in range(3):
            assert len(t_shift_candidates(p8, j, k)) == 1
    # p > 2: both candidates differ by (q-1)/2
    cands = t_shift_candidates(p9, 1, 1)
    assert sorted(cands) == [1, 5]


def test_frobenius_proximity(p9):
    for k in (3, 57, 311):
        report = frobenius_proximity(p9, k, 1)
        assert all(check["satisfied"] for check in report["checks"])


def test_multiplicity(p3):
    assert multiplicity_estimate(p3, 1, 0, 8, 1) == 2
    assert multiplicity_estimate(p3, 0, 0, 8, 1) == 0
    assert exact_multiplicity(reduce_symm(p3, 4), 0, 1) == 1
