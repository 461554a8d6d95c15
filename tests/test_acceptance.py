"""Release gate: twelve exact or regression-bounded checks.

Each test prints a single pass/fail line to ``sys.__stdout__``. Criteria
10-12 also print, on one ``sys.__stderr__`` line each, their worst observed
value next to its ceiling. pytest's default ``--capture=fd`` redirects file
descriptors 1 and 2, which those streams write to, so the lines show only
with ``-s`` (or ``--capture=sys``); under the default they are captured
with the rest of the output.
"""

import random
import sys
from fractions import Fraction

from modp_gl2 import (
    FieldParams,
    RingElement,
    SymmFactor,
    antecedents,
    check_theorem_bound,
    compute_constants,
    diamond_decompose,
    frobenius_proximity,
    multiply,
    norm_L_inf,
    omega,
    operator_norm,
    oracle_decompose,
    reduce_product,
    reduce_symm,
    residual,
    s_alpha,
    symm_to_L,
)
from modp_gl2 import bm

SEED = 20260823

PARAM_GRID = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]


def report(number: int, label: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} ({label}): {status}", file=sys.__stdout__)
    assert ok, f"criterion {number} ({label}) failed"


def observed(number: int, *pairs) -> None:
    """One stderr line: each worst observed value next to its ceiling."""
    values = ", ".join(f"{name} {worst} (ceiling {ceiling})"
                       for name, worst, ceiling in pairs)
    print(f"criterion {number:2d} observed: {values}", file=sys.__stderr__)


def test_01_oracle_equivalence():
    ok = True
    for p, f in PARAM_GRID:
        params = FieldParams(p, f)
        qm1 = max(params.q - 1, 1)
        for k in range(61):
            if reduce_symm(params, k) != oracle_decompose(params, [(k, 0, 0)]):
                ok = False
        rng = random.Random(SEED + 10 * p + f)
        for _ in range(200):
            factors = [SymmFactor(rng.randrange(400), rng.randrange(qm1),
                                  rng.randrange(f))
                       for _ in range(rng.choice((2, 3)))]
            if reduce_product(params, factors) \
                    != oracle_decompose(params, factors):
                ok = False
    report(1, "oracle equivalence", ok)


def test_02_triangularity():
    ok = True
    for p, f in PARAM_GRID:
        params = FieldParams(p, f)
        for n in range(params.q):
            v = symm_to_L(params, n, 0)
            if v.coeff(n, 0) != 1:
                ok = False
            for (i, mm), _ in v.sorted_terms():
                if i >= n and (i, mm) != (n, 0):
                    ok = False
    report(2, "triangularity of the S basis", ok)


def test_03_diamond_consistency():
    ok = True
    for p, f in PARAM_GRID:
        params = FieldParams(p, f)
        q = params.q
        qm1 = max(q - 1, 1)
        for n in range(max(q - 1, 1)):
            extension = symm_to_L(params, n, 0) + symm_to_L(params, q - 1 - n, n)
            for m in range(qm1):
                v = diamond_decompose(params, n, m)
                if v != extension.det_twist(m):
                    ok = False
                if any(c != 1 for _, c in v.sorted_terms()):
                    ok = False
                if v.dimension() != q + 1:
                    ok = False
                if v.central_character() != (n + 2 * m) % qm1:
                    ok = False
    report(3, "principal series decomposition", ok)


def test_04_omega_agreement():
    ok = True
    for p, f in [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1),
                 (19, 1), (23, 1), (2, 2), (3, 2), (2, 3), (2, 4)]:
        params = FieldParams(p, f)
        for n in range(params.q):
            # omega() itself asserts path count == closed form; also pin the
            # count to the antecedent set at a nonzero twist
            if len(antecedents(params, n, 3)) != omega(params, n):
                ok = False
    report(4, "omega path count vs closed form", ok)


def test_05_equiv_sk():
    ok = True
    p5 = FieldParams(5, 1, 1)
    a5 = compute_constants(p5).A
    for k in range(5001):
        if operator_norm(residual(reduce_symm(p5, k))) > a5:
            ok = False
    p9 = FieldParams(3, 2, 2)
    a9 = compute_constants(p9).A
    for k in range(1001):
        if operator_norm(residual(reduce_symm(p9, k))) > a9:
            ok = False
    report(5, "symmetric power residual bound", ok)


def test_06_tensoriel():
    ok = True
    for p, f in PARAM_GRID:
        params = FieldParams(p, f)
        qm1 = max(params.q - 1, 1)
        for a in range(qm1):
            for b in range(qm1):
                product = multiply(s_alpha(params, a),
                                   s_alpha(params, b))
                if product != s_alpha(params, (a + b) % qm1):
                    ok = False
    report(6, "averaged classes form a group", ok)


def test_07_frobenius_proximity():
    ok = True
    p9 = FieldParams(3, 2, 2)
    rng = random.Random(SEED)
    seen = set()
    while len(seen) < 100:
        seen.add((rng.randrange(2001), rng.choice((1,))))
    for k, j in sorted(seen):
        result = frobenius_proximity(p9, k, j)
        if len(result["checks"]) != 2:
            ok = False
        if not all(c["satisfied"] for c in result["checks"]):
            ok = False
    report(7, "Frobenius twist proximity", ok)


def _bound_grid(params):
    ks = (10, 100, 500, 2000)
    qm1 = max(params.q - 1, 1)
    for n in range(params.q):
        for m in range(qm1):
            w = RingElement.L(params, n, m)
            for r in (1, 2):
                combos = [(k,) for k in ks] if r == 1 \
                    else [(k1, k2) for k1 in ks for k2 in ks]
                for combo in combos:
                    factors = [SymmFactor(k, 0, i % params.f)
                               for i, k in enumerate(combo)]
                    yield w, factors


def test_08_theorem_bound():
    ok = True
    for p, f in [(5, 1), (3, 2)]:
        params = FieldParams(p, f, f)
        for w, factors in _bound_grid(params):
            if not check_theorem_bound(params, w, factors).satisfied_theorem:
                ok = False
    report(8, "linear residual bound", ok)


def test_09_corollary_bound():
    ok = True
    for p, f in [(5, 1), (3, 2)]:
        params = FieldParams(p, f, f)
        for w, factors in _bound_grid(params):
            if not check_theorem_bound(params, w, factors).satisfied_corollary:
                ok = False
    report(9, "power-saving residual bound", ok)


# Regression ceilings recorded from the first full run; exceeding them means
# the convergence quality degraded, not merely that a constant moved.
MAX_ERR_Q5 = Fraction(3, 2)        # observed 7/6
MAX_RATIO_Q9 = 0.5                 # observed 0.4


def test_10_multiplicity_convergence():
    ok = True
    p5 = FieldParams(5, 1, 1)
    worst = Fraction(0)
    for k in range(10001):
        worst = max(worst, norm_L_inf(residual(reduce_symm(p5, k))))
    if worst > MAX_ERR_Q5:
        ok = False
    p9 = FieldParams(3, 2, 2)
    worst_ratio = 0.0
    for k in range(1, 301):
        v = reduce_product(p9, [SymmFactor(k, 0, 0), SymmFactor(k, 0, 1)])
        err = norm_L_inf(residual(v))
        worst_ratio = max(worst_ratio, float(err) / (k + 1))
    if worst_ratio > MAX_RATIO_Q9:
        ok = False
    observed(10, ("MAX_ERR_Q5", worst, MAX_ERR_Q5),
             ("MAX_RATIO_Q9", worst_ratio, MAX_RATIO_Q9))
    report(10, "multiplicity convergence", ok)


MAX_QP_GAP = Fraction(2)           # observed 5/3 (n=1) and 5/4 (n=0)


def test_11_qp_reproduction():
    ok = True
    worst = Fraction(0)
    p5 = FieldParams(5, 1, 1)
    for rho_n in (1, 0):
        rho = bm.RhoBarQp(rho_n, 0)
        weights = bm.serre_weights_qp_irreducible(p5, rho)
        for variant, type_class in (
                ("trivial", bm.preset_type_trivial_qp(5)),
                ("crystalline", bm.preset_type_crystalline_trivial_qp(5))):
            for a in range(5001):
                gated = [b for b in range(4) if bm.qp_gate(p5, rho, a, b)]
                for b in gated:
                    mu = bm.mu_aut(p5, weights, [(a, b, 0)], type_class)
                    asym = bm.mu_aut_asymptotic_qp(p5, rho, a, b, variant)
                    gap = abs(Fraction(mu) - asym)
                    worst = max(worst, gap)
                    if gap > MAX_QP_GAP:
                        ok = False
                b = ((gated[0] if gated else 0) + 1) % 4
                if not bm.qp_gate(p5, rho, a, b):
                    if bm.mu_aut(p5, weights, [(a, b, 0)], type_class) != 0:
                        ok = False
    observed(11, ("MAX_QP_GAP", worst, MAX_QP_GAP))
    report(11, "Q_p multiplicity reproduction", ok)


MAX_SCALED_GAP_Q9 = 0.5            # observed 0.3


def test_12_unramified_reproduction():
    ok = True
    p9 = FieldParams(3, 2, 2)
    type_class = bm.GaloisTypeClass(2, RingElement.L(p9, 1, 0), "custom")
    weights = {(1, 0): 1, (1, 4): 1, (3, 3): 1, (3, 7): 1}
    for (n, m), _ in weights.items():
        if omega(p9, n) != 4 or (n + 2 * m) % 8 != 1:
            ok = False
    target = Fraction(16, 80)
    worst = 0.0
    for a1 in range(0, 201, 3):
        for a2 in range(0, 201, 5):
            s = (a1 + 3 * a2) % 8
            if s % 2:
                continue  # no determinant twist matches the character
            b1 = (-s // 2) % 4
            mu = bm.mu_aut(p9, weights, [(a1, b1, 0), (a2, 0, 1)], type_class)
            dim = 2 * (a1 + 1) * (a2 + 1)
            gap = abs(Fraction(mu, dim) - target)
            scaled = float(gap) * ((a1 + 1) * (a2 + 1)) ** 0.5
            worst = max(worst, scaled)
            if scaled > MAX_SCALED_GAP_Q9:
                ok = False
    observed(12, ("MAX_SCALED_GAP_Q9", worst, MAX_SCALED_GAP_Q9))
    report(12, "unramified multiplicity reproduction", ok)
