"""Exact norms, residuals against the averaged classes S-hat_alpha, and the
explicit constants controlling the asymptotic multiplicity bounds.

All quantities here are exact rationals; bound checks are exact comparisons
(the fractional-power corollary bound is checked by raising both sides to
the h-th power).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .memo import memo
from .params import FieldParams
from .principal import SAlphaElement, s_alpha  # both re-exported
from .reduction import SymmFactor, reduce_product, reduce_symm
from .ring import RingElement, _l_to_s_columns, multiply, structure_constants


# ---------------------------------------------------------------------------
# Norms

def norm_L_inf(v: RingElement) -> Fraction:
    """Largest absolute coefficient in the L basis."""
    v = v.to_basis("L")
    return max((abs(c) for c in v.terms.values()), default=Fraction(0))


def norm_S_1(v: RingElement) -> Fraction:
    """Sum of absolute coefficients in the S basis."""
    v = v.to_basis("S")
    return sum((abs(c) for c in v.terms.values()), Fraction(0))


def _twist_orbit_key(v: RingElement) -> tuple:
    """Canonical representative of v under determinant twists.

    The operator norm is twist invariant, so caching by the orbit collapses
    the q-1 twists of an element to a single entry.
    """
    qm1 = max(v.params.q - 1, 1)
    best = None
    for i in range(qm1):
        cand = tuple(sorted(((n, (m + i) % qm1), c)
                            for (n, m), c in v.terms.items()))
        if best is None or cand < best:
            best = cand
    return (v.params.p, v.params.f, best)


def operator_norm(v: RingElement) -> Fraction:
    """Exact induced infinity-norm of multiplication by v in the L basis.

    Equals the max over output labels of the absolute row sum of the
    q(q-1)-square multiplication matrix. Twisting an input by det only
    shifts the output twist, so the row sums only need the products
    v * [L_b(0)] for the q untwisted generators. When every coefficient of
    v is positive, so is every such product, and the row sums are linear
    in v: with s[a] the coefficients of v summed over the twist,
    ||v|| = max over n of sum_a s[a] * R[a][n] (see ``_row_sums``).
    Signed elements such as residuals take the generic path.
    """
    v = v.to_basis("L")
    if not all(c > 0 for c in v.terms.values()):
        return _l_operator_norm(v)
    s: dict[int, int | Fraction] = {}
    for (a, _), c in v.terms.items():
        s[a] = s.get(a, 0) + c
    table = _row_sums(v.params)
    rows = [0] * v.params.q
    for a, c in s.items():
        rows = [x + c * r for x, r in zip(rows, table[a])]
    return Fraction(max(rows))


@memo(lambda params: (params.p, params.f))
def _row_sums(params: FieldParams) -> list[list[int]]:
    """R[a][n]: multiplicity of L_n(t) in [L_a][L_b], summed over b and t."""
    q = params.q
    table = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(q):
            for (n, _), k in structure_constants(params, a, b).items():
                table[a][n] += k
    return table


@memo(_twist_orbit_key)
def _l_operator_norm(v: RingElement) -> Fraction:
    """operator_norm of an element in the L basis, from the q products
    v * [L_b(0)]. Memoized because residuals repeat: that of
    V = W * prod S_ki depends only on each k_i mod q^2 - 1."""
    if v.is_zero():
        return Fraction(0)
    params = v.params
    rows: dict[int, int | Fraction] = {}
    for b in range(params.q):
        prod = multiply(v, RingElement.L(params, b, 0))
        for (n, _), c in prod.terms.items():
            rows[n] = rows.get(n, 0) + abs(c)
    return Fraction(max(rows.values(), default=0))


# ---------------------------------------------------------------------------
# Constants

@dataclass(frozen=True)
class ConstantsReport:
    """Explicit constants for the asymptotic bounds at fixed (p, f, h).

    M_upper is an upper bound for the smallest M with |V|_{S,1} <= M ||V||
    (the entrywise l1 mass of the L -> S change of basis); using it keeps
    every downstream bound valid.
    """

    params: FieldParams
    A: Fraction
    M_upper: Fraction

    def C_r(self, r: int) -> Fraction:
        q = self.params.q
        return q * 2 ** r * self.A ** r * (2 * self.A + q)

    @property
    def C(self) -> Fraction:
        h = self.params.degree
        q = self.params.q
        return self.M_upper * q * (2 * self.A + q) * (2 * self.A) ** h

    def to_json_dict(self) -> dict:
        def frac(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        return {
            "p": self.params.p,
            "f": self.params.f,
            "h": self.params.degree,
            "A": frac(self.A),
            "M_upper": frac(self.M_upper),
            "C": frac(self.C),
            "C_r": {str(r): frac(self.C_r(r)) for r in (1, 2, 3)},
        }


@memo(lambda params: (params.p, params.f, params.degree))
def compute_constants(params: FieldParams) -> ConstantsReport:
    """A = (q^2 + 2q) max over ||[S_r]|| (r < q^2 - 1) and ||S_alpha_i||.

    Each of these has positive coefficients, so its norm is linear (see
    ``operator_norm``) and the report is cheap to recompute in every run."""
    q = params.q
    qm1 = max(q - 1, 1)
    best = Fraction(0)
    for r in range(q * q - 1):
        best = max(best, operator_norm(reduce_symm(params, r)))
    for i in range(qm1):
        best = max(best, operator_norm(s_alpha(params, i).element))
    a_const = (q * q + 2 * q) * best
    mass = Fraction(0)
    for col in _l_to_s_columns(params):
        mass += sum(abs(Fraction(c)) for c in col.values())
    m_upper = qm1 * mass
    return ConstantsReport(params, a_const, m_upper)


# ---------------------------------------------------------------------------
# Residuals and bound checks

def split_by_central_character(v: RingElement) -> dict[int, RingElement]:
    """Decompose v into character-homogeneous parts (L basis)."""
    v = v.to_basis("L")
    qm1 = max(v.params.q - 1, 1)
    parts: dict[int, dict] = {}
    for (n, m), c in v.terms.items():
        parts.setdefault((n + 2 * m) % qm1, {})[(n, m)] = c
    return {a: RingElement(v.params, "L", t) for a, t in sorted(parts.items())}


def residual(v: RingElement) -> RingElement:
    """r_V = [V] - (dim V) * S_alpha(V); requires a central character."""
    alpha = v.central_character()
    if alpha is None:
        raise ValueError("element has no central character; split it first")
    v = v.to_basis("L")
    return v - s_alpha(v.params, alpha).element.scale(v.dimension())


@dataclass(frozen=True)
class BoundReport:
    lhs: Fraction
    rhs_theorem: Fraction
    satisfied_theorem: bool
    rhs_corollary_float: float
    satisfied_corollary: bool

    @property
    def satisfied(self) -> bool:
        return self.satisfied_theorem and self.satisfied_corollary

    def to_json_dict(self) -> dict:
        return {
            "lhs": f"{self.lhs.numerator}/{self.lhs.denominator}",
            "rhs_theorem":
                f"{self.rhs_theorem.numerator}/{self.rhs_theorem.denominator}",
            "satisfied_theorem": self.satisfied_theorem,
            "rhs_corollary": self.rhs_corollary_float,
            "satisfied_corollary": self.satisfied_corollary,
        }


def check_theorem_bound(params: FieldParams, w: RingElement,
                        factors) -> BoundReport:
    """Check ||r_V|| against both explicit bounds for V = W * prod S_ki^{[ji]}.

    The theorem bound C_r |W|_{S,1} (dim U) / min(k_i + 1) is a rational
    comparison; the corollary bound C ||W|| (dim U)^{1 - 1/h} is checked
    exactly after raising both sides to the h-th power.
    """
    factors = [SymmFactor(*f) for f in factors]
    if not factors:
        raise ValueError("at least one symmetric-power factor is required")
    if w.central_character() is None:
        raise ValueError("W has no central character; split it first")
    u = reduce_product(params, factors)
    v = multiply(w.to_basis("L"), u)
    lhs = operator_norm(residual(v))
    report = compute_constants(params)
    dim_u = u.dimension()
    r = len(factors)
    rhs_theorem = (report.C_r(r) * norm_S_1(w) * dim_u
                   / min(f.k + 1 for f in factors))
    h = params.degree
    c_w = report.C * operator_norm(w)
    # lhs <= C ||W|| (dim U)^(1 - 1/h)  <=>  lhs^h <= (C ||W||)^h (dim U)^(h-1)
    satisfied_coro = lhs ** h <= c_w ** h * dim_u ** (h - 1)
    rhs_coro_float = float(c_w) * float(dim_u) ** (1 - 1 / h)
    return BoundReport(lhs, rhs_theorem, lhs <= rhs_theorem,
                       rhs_coro_float, satisfied_coro)


# ---------------------------------------------------------------------------
# Frobenius proximity

def t_shift_candidates(params: FieldParams, j: int, k: int) -> list[int]:
    """All residues t with 2t = theta^j k - k mod q-1 (one for p = 2, two
    otherwise), sorted increasingly."""
    qm1 = max(params.q - 1, 1)
    diff = (params.theta_residue(k % qm1, j) - k) % qm1
    if params.p == 2:
        # 2 is invertible mod q-1
        return [(diff * pow(2, -1, qm1)) % qm1] if qm1 > 1 else [0]
    if diff % 2 != 0:
        raise AssertionError("theta preserves parity mod q-1 (internal bug)")
    t0 = (diff // 2) % qm1
    t1 = (t0 + (qm1 // 2)) % qm1
    return sorted({t0, t1})


def t_shift(params: FieldParams, j: int, k: int) -> int:
    """Smallest nonnegative solution of 2t = theta^j k - k mod q-1."""
    return t_shift_candidates(params, j, k)[0]


def frobenius_proximity(params: FieldParams, k: int, j: int,
                        a_const: Fraction | None = None) -> dict:
    """Check ||[S_k]^{[j]} - [S_k](t)|| <= 2A for every valid t."""
    if a_const is None:
        a_const = compute_constants(params).A
    sk = reduce_symm(params, k)
    twisted = sk.frobenius_twist(j)
    out = {"k": k, "j": j, "checks": []}
    for t in t_shift_candidates(params, j, k):
        norm = operator_norm(twisted - sk.det_twist(t))
        out["checks"].append({"t": t, "norm": norm,
                              "satisfied": norm <= 2 * a_const})
    return out


# ---------------------------------------------------------------------------
# Multiplicities

def multiplicity_estimate(params: FieldParams, n: int, m: int,
                          dim_v, alpha: int) -> Fraction:
    """Leading term omega(n) dim(V) / (q^2 - 1): the coefficient of L_n(m)
    in dim(V) * S_alpha, so 0 unless n + 2m = alpha (mod q-1)."""
    return s_alpha(params, alpha).element.coeff(n, m) * Fraction(dim_v)


def exact_multiplicity(v: RingElement, n: int, m: int) -> Fraction:
    """Coefficient of L_n(m) in v."""
    return v.to_basis("L").coeff(n, m)
