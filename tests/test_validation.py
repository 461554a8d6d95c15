import re
from fractions import Fraction

import pytest

from modp_gl2 import (
    FieldParams,
    RingElement,
    SymmFactor,
    bm,
    check_theorem_bound,
    convert_basis,
    multiply,
    oracle_decompose,
    reduce_product,
    reduce_symm,
)
from modp_gl2.brauer import PRegularClass
from modp_gl2.principal import (
    ANTECEDENT,
    DECOMPOSITION,
    ClosedPath,
    antecedents,
    ell_of_path,
    enumerate_closed_paths,
    lambda_of_path,
)
from modp_gl2.ring import structure_constants

P3 = FieldParams(3, 1)
P5 = FieldParams(5, 1)
P9 = FieldParams(3, 2)
P25 = FieldParams(5, 2, 2)
L1 = RingElement.L(P3, 1, 0)


# every argument check that no other test reaches, with the error it raises
@pytest.mark.parametrize("call,exc,message", [
    pytest.param(lambda: check_theorem_bound(P3, L1, []), ValueError,
                 "at least one symmetric-power factor is required",
                 id="bound-no-factors"),
    pytest.param(lambda: check_theorem_bound(P3, L1, [(5, 0, 0), (-1, 0, 0)]),
                 ValueError, "k = -1 must be >= 0", id="bound-negative-k"),
    pytest.param(lambda: reduce_symm(P3, 4, method="x"), ValueError,
                 "unknown method 'x'", id="reduce-symm-method"),
    pytest.param(lambda: reduce_symm(P3, SymmFactor(5, 1, 0), m=1),
                 ValueError, "a SymmFactor carries its own twists",
                 id="reduce-symm-factor-and-m"),
    pytest.param(lambda: reduce_symm(P9, SymmFactor(5), j=1), ValueError,
                 "a SymmFactor carries its own twists",
                 id="reduce-symm-factor-and-j"),
    pytest.param(lambda: reduce_product(P3, [(3, 0, 0), (-1, 0, 0)]),
                 ValueError, "k = -1 must be >= 0",
                 id="reduce-product-negative-k"),
    pytest.param(lambda: convert_basis(L1, "X"), ValueError,
                 "unknown basis tag 'X'", id="convert-basis-tag"),
    pytest.param(lambda: structure_constants(P3, 3, 0), ValueError,
                 "labels 3, 0 out of range [0, 2]",
                 id="structure-constants-range"),
    pytest.param(lambda: multiply(L1, RingElement.L(P5, 1, 0)), ValueError,
                 "field parameter mismatch", id="multiply-fields"),
    pytest.param(lambda: L1 + RingElement.S(P3, 1, 0), ValueError,
                 "basis mismatch", id="add-bases"),
    pytest.param(lambda: oracle_decompose(P3, [(-1, 0, 0)]), ValueError,
                 "k = -1 must be >= 0", id="oracle-negative-k"),
    pytest.param(lambda: bm.mu_aut_asymptotic_qp(P5, bm.RhoBarQp(1, 0), 3,
                                                 0, "x"),
                 ValueError, "unknown variant 'x'", id="asymptotic-variant"),
    pytest.param(lambda: list(bm.qp_sweep(P5, bm.RhoBarQp(1, 0), "x", [0])),
                 ValueError, "unknown variant 'x'", id="sweep-variant"),
    pytest.param(lambda: bm.mu_aut(P3, {(99, 0): 1}, [(4, 0, 0)],
                                   bm.preset_type_crystalline_trivial_qp(3)),
                 ValueError, "weight n = 99 out of range [0, 2]",
                 id="mu-aut-weight-range"),
    pytest.param(lambda: bm.unramified_gate(P25, (2,), (1, 1), (0, 0), 0),
                 ValueError, "expected 2 entries in each list",
                 id="gate-list-length"),
    pytest.param(lambda: bm.unramified_gate(P25, (2, 2), (1, 1), (0, 0), 0),
                 ValueError, "r_i = 2 violates 1 <= r_i <= p-4",
                 id="gate-r-i-window"),
    pytest.param(lambda: ClosedPath("x", ("TL",)), ValueError,
                 "unknown graph tag 'x'", id="path-tag"),
    pytest.param(lambda: ClosedPath(DECOMPOSITION, ("TL", "TR")), ValueError,
                 "('TL', 'TR') is not an edge", id="path-non-edge"),
    pytest.param(lambda: enumerate_closed_paths(DECOMPOSITION, 0), ValueError,
                 "path length must be >= 1", id="paths-length-0"),
    pytest.param(lambda: antecedents(P3, 3), ValueError,
                 "n = 3 out of range [0, 2]", id="antecedents-n-q"),
    pytest.param(lambda: ell_of_path(P9, ClosedPath(DECOMPOSITION,
                                                    ("BL", "BR")), 0),
                 ValueError, "path BL,BR incompatible with n = 0",
                 id="ell-incompatible"),
    pytest.param(lambda: lambda_of_path(P3, ClosedPath(ANTECEDENT, ("TL",)),
                                        0),
                 ValueError, "lambda is defined on decomposition-graph paths",
                 id="lambda-antecedent-path"),
    pytest.param(lambda: P3.digits(3), ValueError,
                 "label 3 out of range [0, 2]", id="digits-q"),
    pytest.param(lambda: PRegularClass("x", (0,)).eigen_exponents(3),
                 ValueError, "unknown class kind 'x'", id="class-kind"),
    # a float arrives already rounded: 0.1 would be stored as 2^-55 times
    # 3602879701896397, not as 1/10
    pytest.param(lambda: RingElement(P3, "L", {(0, 0): 0.1}), TypeError,
                 "coefficient 0.1 is a float", id="element-float-coeff"),
    pytest.param(lambda: L1.scale(0.1), TypeError,
                 "coefficient 0.1 is a float", id="scale-float"),
    pytest.param(lambda: L1 * 0.1, TypeError, "coefficient 0.1 is a float",
                 id="mul-float"),
    # a zero denominator is a bad value, as in from_json_dict and the CLI
    pytest.param(lambda: RingElement(P3, "L", {(0, 0): "1/0"}), ValueError,
                 "coefficient '1/0' has a zero denominator",
                 id="element-zero-denominator"),
    pytest.param(lambda: L1.scale("1/0"), ValueError,
                 "coefficient '1/0' has a zero denominator",
                 id="scale-zero-denominator"),
])
def test_invalid_arguments_raise(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()


def test_exact_coefficients_are_accepted():
    third = Fraction(1, 3)
    for c in (3, third, "1/3", "-2"):
        v = RingElement(P3, "L", {(0, 0): c})
        assert v.coeff(0, 0) == Fraction(c)
        assert L1.scale(c) == L1 * c == v.coeff(0, 0) * L1
