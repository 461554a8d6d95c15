from fractions import Fraction

import pytest

from modp_gl2 import FieldParams, RingElement
from modp_gl2.bm import (
    GaloisTypeClass,
    RhoBarQp,
    a_sigma,
    intrinsics_from_json,
    intrinsics_to_json,
    mu_aut,
    mu_aut_asymptotic_qp,
    mu_aut_asymptotic_unramified,
    preset_type_crystalline_trivial_qp,
    preset_type_trivial_qp,
    qp_gate,
    qp_sweep,
    serre_weights_qp_irreducible,
    type_from_json,
    type_to_json,
    unramified_gate,
)


def test_presets():
    trivial5 = preset_type_trivial_qp(5)
    assert trivial5.dim_type == 5
    assert trivial5.reduction_class == RingElement.L(FieldParams(5, 1, 1), 4, 0)
    trivial3 = preset_type_trivial_qp(3)
    assert trivial3.dim_type == 3
    assert trivial3.reduction_class == RingElement.L(FieldParams(3, 1, 1), 2, 0)
    crystalline = preset_type_crystalline_trivial_qp(5)
    assert crystalline.dim_type == 1
    assert crystalline.reduction_class == RingElement.L(FieldParams(5, 1, 1), 0, 0)


def test_type_validation(p3):
    with pytest.raises(ValueError):
        GaloisTypeClass(2, RingElement.L(p3, 2, 0))  # dimension mismatch
    with pytest.raises(ValueError):
        GaloisTypeClass(1, RingElement.L(p3, 0, 0).scale(Fraction(1, 2)))
    mixed = RingElement.L(p3, 0, 0) + RingElement.L(p3, 1, 0)
    with pytest.raises(ValueError):
        GaloisTypeClass(3, mixed)


def test_serre_weights():
    p5 = FieldParams(5, 1, 1)
    assert serre_weights_qp_irreducible(p5, RhoBarQp(1, 0)) == {(1, 0): 1, (3, 1): 1}
    p3 = FieldParams(3, 1, 1)
    assert serre_weights_qp_irreducible(p3, RhoBarQp(0, 0)) == {(0, 0): 1, (2, 0): 1}
    # both weights carry the same central character
    for n in range(4):
        for m in range(4):
            weights = serre_weights_qp_irreducible(p5, RhoBarQp(n, m))
            chars = {(a + 2 * b) % 4 for a, b in weights}
            assert len(chars) == 1


def test_a_sigma():
    p5 = FieldParams(5, 1, 1)
    trivial = preset_type_trivial_qp(5)
    assert a_sigma(p5, trivial, [(0, 0, 0)]) == {(4, 0): 1}
    p3 = FieldParams(3, 1, 1)
    crystalline = preset_type_crystalline_trivial_qp(3)
    assert a_sigma(p3, crystalline, [(4, 0, 0)]) \
        == {(0, 0): 1, (0, 1): 1, (2, 0): 1}


def test_mu_aut():
    p5 = FieldParams(5, 1, 1)
    trivial = preset_type_trivial_qp(5)
    assert mu_aut(p5, {}, [(0, 0, 0)], trivial) == 0
    weights = serre_weights_qp_irreducible(p5, RhoBarQp(1, 0))
    assert mu_aut(p5, weights, [(0, 0, 0)], trivial) == 0
    p3 = FieldParams(3, 1, 1)
    crystalline = preset_type_crystalline_trivial_qp(3)
    assert mu_aut(p3, {(0, 0): 1, (2, 0): 1}, [(4, 0, 0)], crystalline) == 2


def test_repeated_weight_label_keeps_the_last():
    p3 = FieldParams(3, 1, 1)
    crystalline = preset_type_crystalline_trivial_qp(3)
    weights = intrinsics_from_json([{"n": 0, "m": 0, "mu": 5},
                                    {"n": 2, "m": 0, "mu": 1},
                                    {"n": 0, "m": 0, "mu": 1}])
    assert mu_aut(p3, weights, [(4, 0, 0)], crystalline) == 2


def test_weight_spelled_twice_mod_q_minus_1_is_one_label():
    # (0, 2) is (0, 0) at q = 3: one weight, and the later entry wins
    p3 = FieldParams(3, 1, 1)
    crystalline = preset_type_crystalline_trivial_qp(3)
    assert mu_aut(p3, {(0, 0): 1, (0, 2): 1, (2, 0): 1}, [(4, 0, 0)],
                  crystalline) == 2
    assert mu_aut(p3, {(0, 0): 5, (0, 2): 1, (2, 0): 1}, [(4, 0, 0)],
                  crystalline) == 2
    assert mu_aut(p3, {(0, -2): 1, (0, 0): 5}, [(4, 0, 0)], crystalline) == 5


def test_asymptotic_qp():
    p5 = FieldParams(5, 1, 1)
    rho = RhoBarQp(1, 0)
    b = next(b for b in range(4) if qp_gate(p5, rho, 119, b))
    assert mu_aut_asymptotic_qp(p5, rho, 119, b, "trivial") == 100
    rho0 = RhoBarQp(0, 0)
    b0 = next(b for b in range(4) if qp_gate(p5, rho0, 118, b))
    # n = 0 halves the leading coefficient: 2p(a+1)/(p^2-1)
    assert mu_aut_asymptotic_qp(p5, rho0, 118, b0, "trivial") \
        == Fraction(2 * 5 * 119, 24)
    bad = next(b for b in range(4) if not qp_gate(p5, rho, 119, b))
    assert mu_aut_asymptotic_qp(p5, rho, 119, bad, "trivial") == 0
    assert mu_aut_asymptotic_qp(p5, rho, 119, b, "crystalline") == Fraction(20)


def test_asymptotic_unramified():
    assert mu_aut_asymptotic_unramified(2, 3, 1, (8, 8), True) == Fraction(81, 5)
    a = 119
    assert mu_aut_asymptotic_unramified(1, 5, 5, (a,), True) \
        == Fraction(4 * 5 * (a + 1), 24)
    assert mu_aut_asymptotic_unramified(2, 3, 1, (8, 8), False) == 0
    with pytest.raises(ValueError):
        mu_aut_asymptotic_unramified(2, 3, 1, (8,), True)


def test_unramified_gate():
    p9 = FieldParams(3, 2, 2)
    with pytest.raises(ValueError):
        unramified_gate(p9, (0, 1), (1, 1), (0, 0), 0)  # r_0 below window
    p25 = FieldParams(5, 2, 2)
    assert isinstance(unramified_gate(p25, (2, 1), (1, 1), (0, 0), 0), bool)
    lhs = (1 + 0) + 5 * (1 + 0)
    rhs = (2 + 1) + 5 * (1 + 1)
    assert unramified_gate(p25, (2, 1), (1, 1), (0, 0), (rhs - lhs) % 24)


@pytest.mark.parametrize("p", [5, 7])
def test_qp_helpers_refuse_h_above_f(p):
    # K of degree h = 2 over Q_p with f = 1 is ramified: the Q_p closed
    # forms are specific to K = Q_p and must not answer for it
    params, rho = FieldParams(p, 1, 2), RhoBarQp(1, 0)
    with pytest.raises(ValueError, match="f = 1, h = 1"):
        serre_weights_qp_irreducible(params, rho)
    with pytest.raises(ValueError, match="f = 1, h = 1"):
        mu_aut_asymptotic_qp(params, rho, 3, 0)
    with pytest.raises(ValueError, match="f = 1, h = 1"):
        list(qp_sweep(params, rho, "trivial", range(4)))
    # h = 1 still answers
    assert len(list(qp_sweep(FieldParams(p, 1, 1), rho, "trivial",
                             range(4)))) == 4


def test_unramified_gate_refuses_h_not_f():
    # the unramified example has one weight per Frobenius slot, h = f
    with pytest.raises(ValueError, match="needs h = f = 1"):
        unramified_gate(FieldParams(7, 1, 2), (2, 1), (1, 1), (0, 0), 0)
    with pytest.raises(ValueError, match="needs h = f = 2"):
        unramified_gate(FieldParams(7, 2, 4), (2, 1, 1, 1), (1,) * 4,
                        (0,) * 4, 0)


def test_json_roundtrip(p3):
    intrinsics = {(0, 0): 1, (2, 1): 3}
    assert intrinsics_from_json(intrinsics_to_json(intrinsics)) == intrinsics
    typ = preset_type_trivial_qp(3)
    again = type_from_json(type_to_json(typ))
    assert again.dim_type == typ.dim_type
    assert again.reduction_class == typ.reduction_class
    assert again.label == typ.label
