"""Independent verification of decompositions via Brauer characters.

Semisimple classes of GL2(F_q) are labeled by eigenvalue exponents with
respect to fixed generators g of F_q^* and g2 of F_{q^2}^* with g = g2^(q+1).
Lifting an eigenvalue g2^e to the root of unity exp(2 pi i e / (q^2 - 1))
is a consistent Teichmueller-style labeling, so no explicit finite-field
arithmetic is needed: all character values are exact powers of one primitive
(q^2 - 1)-th root of unity, evaluated in floating complex. Exponents are
reduced mod q^2 - 1 as integers, and ``exp`` runs once over a whole array.

The character of L_n(m) at a class c factors as chi_n(c) * omega^(d(c) m):
chi_n is the product of the untwisted digit characters, omega is
exp(2 pi i / (q - 1)), and d(c) = (ea + eb) / (q + 1) mod q - 1 is the
determinant exponent of a class with eigenvalue exponents ea, eb. Each d is
taken by exactly q classes. So the square character matrix of the
irreducibles falls into q - 1 blocks by d: for the q classes of one d, the
values of a class sum_{n,m} x_{n,m} [L_n(m)] are sum_n chi_n(c) y_n(d) with
y_n(d) = sum_m x_{n,m} omega^(d m). One q x q solve per d gives y, and an
inverse discrete Fourier transform over d gives x. The table keeps the
inverse of each block.

A class is recovered by this solve, and the solution must round to
nonnegative integers within a hard tolerance, otherwise the run fails
loudly. Above 64 bits the dense matrix is built entry by entry with mpmath
and solved by LU.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .memo import memo
from .params import FieldParams
from .reduction import SymmFactor
from .ring import RingElement

ROUNDING_TOLERANCE = 1e-6


class OracleError(RuntimeError):
    """Numerical breakdown of a character solve; never silently rounded."""


@dataclass(frozen=True)
class PRegularClass:
    """A p-regular conjugacy class: central g^a, split diag(g^a, g^b) with
    a < b, or nonsplit with eigenvalues g2^e, g2^(eq)."""

    kind: str
    exponents: tuple[int, ...]

    def eigen_exponents(self, q: int) -> tuple[int, int]:
        """Exponents of the two eigenvalue lifts as powers of g2."""
        n2 = q * q - 1
        if self.kind == "central":
            a = self.exponents[0] * (q + 1)
            return (a, a)
        if self.kind == "split":
            a, b = self.exponents
            return (a * (q + 1), b * (q + 1))
        if self.kind == "nonsplit":
            e = self.exponents[0]
            return (e, (e * q) % n2)
        raise ValueError(f"unknown class kind {self.kind!r}")


def enumerate_p_regular_classes(params: FieldParams) -> list[PRegularClass]:
    """Deterministic complete list; count is q(q-1)."""
    q = params.q
    classes = [PRegularClass("central", (a,)) for a in range(q - 1)]
    for a in range(q - 1):
        for b in range(a + 1, q - 1):
            classes.append(PRegularClass("split", (a, b)))
    n2 = q * q - 1
    for e in range(1, n2):
        if e % (q + 1) == 0:
            continue  # g2^e lies in F_q
        if e < (e * q) % n2:
            classes.append(PRegularClass("nonsplit", (e,)))
    expected = (q - 1) + (q - 1) * (q - 2) // 2 + (q * q - q) // 2
    if not len(classes) == expected == q * (q - 1):
        raise AssertionError(f"{len(classes)} p-regular classes, expected "
                             f"{q * (q - 1)} (internal bug)")
    return classes


def _root(params: FieldParams, e: int, mp_ctx=None):
    n2 = params.q ** 2 - 1
    e %= n2
    if mp_ctx is not None:
        return mp_ctx.expjpi(mp_ctx.mpf(2 * e) / n2)
    return cmath.exp(2j * cmath.pi * e / n2)


def character_of_symm(params: FieldParams, factor: SymmFactor,
                      cls: PRegularClass, mp_ctx=None):
    """Brauer character of S_k(m)^{[j]} at a p-regular class.

    With lifted eigenvalues alpha, beta (raised to the p^j power) and
    delta = alpha * beta, the value is delta^m (alpha^{k+1} - beta^{k+1})
    / (alpha - beta), read as (k+1) alpha^k delta^m when alpha = beta.
    """
    k, m, j = SymmFactor(*factor)
    q = params.q
    n2 = q * q - 1
    pj = pow(params.p, j % params.f, n2)
    ea, eb = cls.eigen_exponents(q)
    ea = (ea * pj) % n2
    eb = (eb * pj) % n2
    delta_m = _root(params, (ea + eb) * m, mp_ctx)
    if ea == eb:
        return delta_m * (k + 1) * _root(params, ea * k, mp_ctx)
    num = _root(params, ea * (k + 1), mp_ctx) - _root(params, eb * (k + 1), mp_ctx)
    den = _root(params, ea, mp_ctx) - _root(params, eb, mp_ctx)
    return delta_m * num / den


def character_of_irreducible(params: FieldParams, n: int, m: int,
                             cls: PRegularClass, mp_ctx=None):
    """Brauer character of L_n(m): product over base-p digits of twisted
    symmetric-power characters, times the determinant lift to the m."""
    value = character_of_symm(params, SymmFactor(0, m, 0), cls, mp_ctx)
    for i, digit in enumerate(params.digits(n)):
        value *= character_of_symm(params, SymmFactor(digit, 0, i), cls, mp_ctx)
    return value


def _roots(e, n2: int):
    """exp(2 pi i e / n2) for an int array e already reduced mod n2."""
    return np.exp(2j * np.pi * e / n2)


def _symm_values(params: FieldParams, factor: SymmFactor, exponents):
    """``character_of_symm`` at every class at once; ``exponents`` is the
    (2, classes) int array of the eigenvalue exponents ea, eb."""
    k, m, j = SymmFactor(*factor)
    n2 = params.q ** 2 - 1
    ea, eb = exponents * pow(params.p, j % params.f, n2) % n2
    split = ea != eb
    value = np.empty(ea.shape, dtype=complex)
    k1 = (k + 1) % n2
    num = _roots(ea[split] * k1 % n2, n2) - _roots(eb[split] * k1 % n2, n2)
    value[split] = num / (_roots(ea[split], n2) - _roots(eb[split], n2))
    value[~split] = float(k + 1) * _roots(ea[~split] * (k % n2) % n2, n2)
    return value * _roots((ea + eb) * (m % n2) % n2, n2)


@dataclass
class BrauerTable:
    """Character table of the irreducibles: one row per p-regular class,
    one column per irreducible label (n, m) in sorted order.

    Up to 64 bits it is stored by blocks: ``untwisted[c, n]`` is chi_n at
    class c, row d of ``blocks`` lists the q classes of determinant
    exponent d, and ``inverses[d]`` inverts ``untwisted[blocks[d]]``. Above
    64 bits ``dense`` is the whole mpmath matrix.
    """

    params: FieldParams
    classes: list[PRegularClass]
    labels: list[tuple[int, int]]
    precision: int
    exponents: np.ndarray  # (2, classes) eigenvalue exponents ea, eb
    untwisted: np.ndarray | None = None
    blocks: np.ndarray | None = None
    inverses: np.ndarray | None = None
    dense: object = None

    @property
    def matrix(self):
        """The full table, assembled on demand (dense mpmath above 64
        bits): entry (c, (n, m)) is chi_n(c) * omega^(d(c) m)."""
        if self.precision > 64:
            return self.dense
        n2 = self.params.q ** 2 - 1
        # omega^(d(c) m) is the lifted determinant ea + eb to the m
        twist = _roots(np.outer(self.exponents.sum(axis=0),
                                range(len(self.blocks))) % n2, n2)
        return (self.untwisted[:, :, None] * twist[:, None, :]).reshape(
            len(self.classes), len(self.labels))

    def solve(self, rhs):
        """Multiplicities, in ``labels`` order, of the class whose Brauer
        character takes the values ``rhs`` (in ``classes`` order)."""
        if self.precision > 64:
            from mpmath import mp

            return mp.lu_solve(self.dense, rhs)
        values = np.asarray(rhs, dtype=complex)[self.blocks]
        y = (self.inverses @ values[:, :, None])[:, :, 0]  # y[d, n]
        # inverse DFT over d: x[m, n] = sum_d y[d, n] omega^(-d m) / (q-1)
        x = np.fft.fft(y, axis=0) / len(y)
        return x.T.reshape(-1)


@memo(lambda params, precision=64: (params.p, params.f, precision))
def build_table(params: FieldParams, precision: int = 64) -> BrauerTable:
    q = params.q
    qm1 = max(q - 1, 1)
    classes = enumerate_p_regular_classes(params)
    labels = [(n, m) for n in range(q) for m in range(qm1)]
    exponents = np.array([cls.eigen_exponents(q) for cls in classes],
                         dtype=np.int64).T
    if precision > 64:
        from mpmath import mp

        with mp.workprec(precision):
            matrix = mp.matrix(len(classes), len(labels))
            for r, cls in enumerate(classes):
                for c, (n, m) in enumerate(labels):
                    matrix[r, c] = character_of_irreducible(
                        params, n, m, cls, mp_ctx=mp)
        return BrauerTable(params, classes, labels, precision, exponents,
                           dense=matrix)
    untwisted = np.ones((q, len(classes)), dtype=complex)
    for i in range(params.f):
        digit_values = np.array([
            _symm_values(params, SymmFactor(a, 0, i), exponents)
            for a in range(params.p)])
        untwisted *= digit_values[np.arange(q) // params.p ** i % params.p]
    dets = exponents.sum(axis=0) // (q + 1) % qm1
    sizes = np.bincount(dets, minlength=qm1)
    if (sizes != q).any():
        raise AssertionError(f"determinant blocks of sizes {sizes.tolist()}, "
                             f"expected {qm1} of {q} (internal bug)")
    blocks = np.argsort(dets, kind="stable").reshape(qm1, q)
    return BrauerTable(params, classes, labels, precision, exponents,
                       untwisted.T, blocks,
                       np.linalg.inv(untwisted.T[blocks]))


def oracle_decompose(params: FieldParams, factors, det: int = 0,
                     precision: int = 64) -> RingElement:
    """Decompose a product of twisted symmetric powers (times det^det) by
    solving against the character table.

    The character of the product is evaluated at every p-regular class at
    once. Up to 64 bits the table solves it by determinant blocks: one q x q
    product per determinant exponent d, then an inverse discrete Fourier
    transform over d that gives the multiplicity of each twist L_n(m). Above
    64 bits both sides are mpmath and the solve is dense.

    Raises OracleError if the solution does not round to nonnegative
    integers within the tolerance.
    """
    factors = [SymmFactor(*f) for f in factors]
    table = build_table(params, precision)
    if precision > 64:
        from mpmath import mp

        with mp.workprec(precision):
            rhs = []
            for cls in table.classes:
                value = character_of_symm(params, SymmFactor(0, det, 0), cls,
                                          mp)
                for f in factors:
                    value *= character_of_symm(params, f, cls, mp)
                rhs.append(value)
            solution = table.solve(rhs)
    else:
        rhs = _symm_values(params, SymmFactor(0, det, 0), table.exponents)
        for f in factors:
            rhs = rhs * _symm_values(params, f, table.exponents)
        solution = table.solve(rhs)
    terms: dict[tuple[int, int], Fraction] = {}
    worst = 0.0
    for lbl, x in zip(table.labels, solution):
        x = complex(x)
        nearest = round(x.real)
        err = abs(x - nearest)
        worst = max(worst, err)
        if err >= ROUNDING_TOLERANCE:
            raise OracleError(
                f"solve residual {err:.3e} at {lbl} exceeds tolerance "
                f"{ROUNDING_TOLERANCE:.0e}")
        if nearest < 0:
            raise OracleError(f"negative multiplicity {nearest} at {lbl}")
        if nearest:
            terms[lbl] = Fraction(nearest)
    return RingElement(params, "L", terms)
