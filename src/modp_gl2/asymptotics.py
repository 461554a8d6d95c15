"""Exact norms, residuals against the averaged classes S-hat_alpha, and the
explicit constants controlling the asymptotic multiplicity bounds.

All quantities here are exact rationals; bound checks are exact comparisons
(the fractional-power corollary bound is checked by raising both sides to
the h-th power).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from struct import Struct
from sys import byteorder
from types import MappingProxyType

from .memo import memo
from .params import FieldParams
from .principal import _series_prefix, s_alpha  # s_alpha re-exported
from .reduction import reduce_product, reduce_symm, symm_factors
from .ring import (RingElement, _dims, _element, _l1_rows, _l_to_s_columns,
                   _labels, _product_row, frac_str, multiply)


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


@memo
def _largest_product(params: FieldParams) -> int:
    """The largest coefficient of any [L_a][L_b]."""
    return max(k for a in range(params.q)
               for row in _product_row(params, a) for _, _, k in row)


@memo
def _norm_rows(params: FieldParams) -> tuple[int, MappingProxyType]:
    """``bias``, 2^63 in each of q(q+1) 64-bit slots, and at a(q-1) + x,
    for each twist x of L_a in the normalized part (central character 0
    for even q, a mod 2 for odd q), [L_a(x)][L_b(0)] over all b < q as one
    int packed from words: k L_n(t) is k in slot n(q+1) + b for even q and
    n(q+1) + 2(b // 2) + [t >= h] for odd q, h = (q-1) // 2. A part of
    character alpha has n + 2t = alpha + b (mod q-1), so for odd q, b has
    the parity of n + alpha and (b, n) two twists, t and t + h."""
    q, qm1, h, rows = params.q, params.q - 1, (params.q - 1) // 2, {}
    pack = Struct(f"<{q * (q + 1)}Q").pack
    for i in range(q * qm1):
        a, x = divmod(i, qm1)
        if (a + 2 * x) % qm1 == a % 2 * (q % 2):
            words = [0] * (q * (q + 1))
            for b, row in enumerate(_product_row(params, a)):
                for nb, y, k in row:
                    slot = b - b % 2 + ((x + y) % qm1 >= h) if q % 2 else b
                    words[nb // qm1 * (q + 1) + slot] = k
            rows[i] = int.from_bytes(pack(*words), "little")
    return (int.from_bytes(pack(*[1 << 63] * (q * (q + 1))), "little"),
            MappingProxyType(rows))


def operator_norm(v: RingElement) -> Fraction:
    """Exact induced infinity-norm of multiplication by v in the L basis:
    the max over n of the sum over b and t of |coefficient of L_n(t)| in
    v [L_b(0)], on v scaled to ints by its denominators' lcm D, over D.
    Parts of v of distinct central characters share no label, and a det
    twist keeps their sums, so each part is twisted to its normalized
    character and summed as one int: ``bias`` plus c times the row of
    ``_norm_rows`` for each term c L_a(x). XOR with ``bias`` leaves each
    64-bit slot in two's complement, read by one ``memoryview`` cast in
    native byte order (a big-endian host reverses the rows, not their max).
    A part whose sum of |c| times the largest product reaches 2^63 is
    summed in exact limbs: c & (2^s - 1) >= 0, 2^s len(part) largest <=
    2^63, then c >> s (floor) at shift + s, until it fits."""
    v = v.to_basis("L")
    q, qm1 = v.params.q, v.params.q - 1
    d = lcm(*(c.denominator for c in v.terms.values()))
    parts: dict[int, list[tuple[int, int]]] = {}
    for (a, x), c in v.terms.items():
        alpha = (a + 2 * x) % qm1
        # twist to alpha mod 2 (odd q), or to 0 (even q: q/2 inverts 2)
        x -= alpha // 2 if q % 2 else alpha * (q // 2)
        parts.setdefault(alpha, []).append(
            (a * qm1 + x % qm1, c.numerator * (d // c.denominator)))
    bias, table = _norm_rows(v.params)
    largest, size, rows = _largest_product(v.params), q * (q + 1) * 8, [0] * q
    for part in parts.values():
        shift = 0
        while part:
            wide = sum(abs(c) for _, c in part) * largest >= 1 << 63
            s = 63 - (len(part) * largest).bit_length()
            limb = [(i, c & ((1 << s) - 1)) for i, c in part] if wide else part
            acc = sum((c * table[i] for i, c in limb), bias) ^ bias
            read = memoryview(acc.to_bytes(size, byteorder)).cast("q")
            slots = ([t + (u << shift) for t, u in zip(slots, read)]
                     if shift else read)
            part = [(i, c >> s) for i, c in part] if wide else []
            shift += s
        rows = [r + sum(map(abs, slots[j:j + q + 1]))
                for r, j in zip(rows, range(0, q * (q + 1), q + 1))]
    return Fraction(max(rows), d)


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
        return {
            "p": self.params.p,
            "f": self.params.f,
            "h": self.params.degree,
            "A": frac_str(self.A),
            "M_upper": frac_str(self.M_upper),
            "C": frac_str(self.C),
            "C_r": {str(r): frac_str(self.C_r(r)) for r in (1, 2, 3)},
        }


def _class_norms(params: FieldParams) -> tuple[list[int], list[Fraction]]:
    """||[S_r]|| for r < N = q^2 - 1 and ||S-hat_i|| for i < q - 1.

    Each class and its products with the L_b are nonnegative, so its norm is
    max_n t_r[n], the multiplicity of L_n(t) in [S_r][L_b(0)] summed over b
    and t. Summing out t is a ring map (det = 1), so class identities hold on
    the t_r. Base: the Glover recursion t_r = t_(r-1) M - t_(r-2) for r <= q,
    from t_(-1) = 0 and t_0 = all ones, M the q x q matrix of [L_a][L_1].
    Step: for r > q, [S_r] = [V_r(0)] + [S_(r-q-1)](1) (``_split``'s first
    series) and Diamond's [V_c] = [S_c] + [S_(q-1-c)](c) give one vector add,
    t_r = t_(r-q-1) + U_c, U_c = t_c + t_(q-1-c), c = r mod (q-1). S-hat_i has
    row sums (t_(i+N) - t_i) / N, as N S-hat_i = [S_(i+N)] - [S_i]. Every t_r
    is checked exactly: sum_n t_r[n] dim L_n = (r+1) sum_b dim L_b.
    """
    q, qm1, period = params.q, params.q - 1, params.q ** 2 - 1
    M = [[(n, k) for (n, _), k in _labels(qm1, row).items()]   # sparse rows
         for row in _l1_rows(params)]
    dims, t = _dims(params), [[1] * q]  # t: t_r for r <= q
    for r in range(q):
        nxt = [-x for x in t[r - 1]] if r else [0] * q
        for a, x in enumerate(t[r]):
            for n, k in M[a]:
                nxt[n] += x * k
        t.append(nxt)
    series = [list(map(add, t[c], t[qm1 - c])) for c in range(qm1)]  # U_c
    last, norms = t[:], []              # t_r in slot r % (q+1)
    for r in range(period + qm1):
        i = r % (q + 1)
        if r > q:
            last[i] = list(map(add, last[i], series[r % qm1]))
        if sum(map(mul, last[i], dims)) != (r + 1) * sum(dims):
            raise AssertionError(
                f"row sums of [S_{r}] fail the dimension check (internal bug)")
        norms.append(max(last[i]))
    return norms[:period], [
        Fraction(max(map(sub, last[(period + i) % (q + 1)], t[i])), period)
        for i in range(qm1)]


@memo
def _field_constants(params: FieldParams) -> tuple[Fraction, Fraction]:
    """A = (q^2 + 2q) max over ||[S_r]|| (r < q^2 - 1) and ||S-hat_i||, from
    the row sums of ``_class_norms``, which read only the products [L_a][L_1]
    and not ``operator_norm``; and M_upper, q - 1 times the S-basis l1 mass
    of the L_n(0): the sum of |k| over every entry of ``_l_to_s_columns``.
    Both depend on the field alone, not on h."""
    q = params.q
    norm = max(max(norms) for norms in _class_norms(params))
    mass = sum(abs(k) for col in _l_to_s_columns(params) for _, _, k in col)
    return (q * q + 2 * q) * Fraction(norm), Fraction((q - 1) * mass)


def compute_constants(params: FieldParams) -> ConstantsReport:
    """The explicit constants at (p, f, h); A and M_upper are per field."""
    return ConstantsReport(params, *_field_constants(params))


# ---------------------------------------------------------------------------
# Residuals and bound checks

def split_by_central_character(v: RingElement) -> dict[int, RingElement]:
    """Decompose v into character-homogeneous parts (L basis). The labels
    and coefficients come canonical from v, so each part is built by the
    trusted ``_element``."""
    v = v.to_basis("L")
    qm1 = v.params.q - 1
    parts: dict[int, dict] = {}
    for (n, m), c in v.terms.items():
        parts.setdefault((n + 2 * m) % qm1, {})[(n, m)] = c
    return {a: _element(v.params, "L", t) for a, t in sorted(parts.items())}


def residual(v: RingElement) -> RingElement:
    """r_V = [V] - (dim V) * S_alpha(V); requires a central character.
    N r_V = N [V] - (dim V) N S-hat_alpha, N = q^2 - 1, is summed on
    -(dim V) N S-hat_alpha from ``_series_prefix`` (u = -dim V, s = 0) and
    divided by N once."""
    alpha = v.central_character()
    if alpha is None:
        raise ValueError("element has no central character; split it first")
    v = v.to_basis("L")
    params = v.params
    period = params.q ** 2 - 1
    scaled = _series_prefix(params, alpha, -v.dimension(), 0)
    for lbl, c in v.terms.items():
        scaled[lbl] = scaled.get(lbl, 0) + period * c
    return _element(params, "L", {lbl: Fraction(c, period)
                                  for lbl, c in scaled.items()})


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
            "lhs": frac_str(self.lhs),
            "rhs_theorem": frac_str(self.rhs_theorem),
            "satisfied_theorem": self.satisfied_theorem,
            "rhs_corollary": self.rhs_corollary_float,
            "satisfied_corollary": self.satisfied_corollary,
        }


def check_theorem_bound(params: FieldParams, w: RingElement,
                        factors) -> BoundReport:
    """Check ||r_V|| against both explicit bounds for V = W * prod S_ki^{[ji]}.

    The theorem bound C_r |W|_{S,1} (dim U) / min(k_i + 1) is a rational
    comparison; the corollary bound C ||W|| (dim U)^{1 - 1/h} is checked
    exactly after raising both sides to the h-th power. Its display float
    ``rhs_corollary_float`` is inf when the value leaves float range.
    """
    factors = symm_factors(factors)
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
    try:
        rhs_coro_float = float(c_w) * float(dim_u) ** (1 - 1 / h)
    except OverflowError:
        rhs_coro_float = float("inf")
    return BoundReport(lhs, rhs_theorem, lhs <= rhs_theorem,
                       rhs_coro_float, satisfied_coro)


# ---------------------------------------------------------------------------
# Frobenius proximity

def t_shift_candidates(params: FieldParams, j: int, k: int) -> list[int]:
    """All residues t with 2t = theta^j k - k mod q-1 (one for p = 2, two
    otherwise), sorted increasingly."""
    qm1 = params.q - 1
    diff = (params.theta_residue(k % qm1, j) - k) % qm1
    if params.p == 2:
        # 2 is invertible mod q-1
        return [(diff * pow(2, -1, qm1)) % qm1]
    if diff % 2 != 0:
        raise AssertionError("theta preserves parity mod q-1 (internal bug)")
    t0 = (diff // 2) % qm1
    t1 = (t0 + (qm1 // 2)) % qm1
    return sorted({t0, t1})


def t_shift(params: FieldParams, j: int, k: int) -> int:
    """Smallest nonnegative solution of 2t = theta^j k - k mod q-1."""
    return t_shift_candidates(params, j, k)[0]


def frobenius_proximity(params: FieldParams, k: int, j: int) -> dict:
    """Check ||[S_k]^{[j]} - [S_k](t)|| <= 2A for every valid t."""
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
    return s_alpha(params, alpha).coeff(n, m) * Fraction(dim_v)


def exact_multiplicity(v: RingElement, n: int, m: int) -> Fraction:
    """Coefficient of L_n(m) in v."""
    return v.to_basis("L").coeff(n, m)
