"""Independent verification of decompositions via Brauer characters.

Semisimple classes of GL2(F_q) are labeled by eigenvalue exponents with
respect to fixed generators g of F_q^* and g2 of F_{q^2}^* with g = g2^(q+1).
Lifting an eigenvalue g2^e to the root of unity exp(2 pi i e / (q^2 - 1))
is a consistent Teichmueller-style labeling, so no explicit finite-field
arithmetic is needed: all character values are exact powers of one primitive
(q^2 - 1)-th root of unity, evaluated in floating complex.

The character matrix of the irreducibles is square and nonsingular; a class
is recovered by a linear solve whose solution must round to nonnegative
integers within a hard tolerance, otherwise the run fails loudly.
"""

from __future__ import annotations

import cmath
import contextlib
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


@dataclass
class BrauerTable:
    """Square character table: one row per p-regular class, one column per
    irreducible label (n, m) in sorted order."""

    params: FieldParams
    classes: list[PRegularClass]
    labels: list[tuple[int, int]]
    matrix: object  # numpy array or mpmath matrix
    precision: int

    def solve(self, rhs):
        if self.precision <= 64:
            return np.linalg.solve(self.matrix, np.asarray(rhs))
        from mpmath import mp

        return mp.lu_solve(self.matrix, rhs)


@memo(lambda params, precision=64: (params.p, params.f, precision))
def build_table(params: FieldParams, precision: int = 64) -> BrauerTable:
    q = params.q
    qm1 = max(q - 1, 1)
    classes = enumerate_p_regular_classes(params)
    labels = [(n, m) for n in range(q) for m in range(qm1)]
    if precision <= 64:
        matrix = np.empty((len(classes), len(labels)), dtype=complex)
        for r, cls in enumerate(classes):
            for c, (n, m) in enumerate(labels):
                matrix[r, c] = character_of_irreducible(params, n, m, cls)
    else:
        from mpmath import mp

        with mp.workprec(precision):
            matrix = mp.matrix(len(classes), len(labels))
            for r, cls in enumerate(classes):
                for c, (n, m) in enumerate(labels):
                    matrix[r, c] = character_of_irreducible(
                        params, n, m, cls, mp_ctx=mp)
    return BrauerTable(params, classes, labels, matrix, precision)


def oracle_decompose(params: FieldParams, factors, det: int = 0,
                     precision: int = 64) -> RingElement:
    """Decompose a product of twisted symmetric powers (times det^det) by
    solving against the character table.

    Raises OracleError if the solution does not round to nonnegative
    integers within the tolerance.
    """
    factors = [SymmFactor(*f) for f in factors]
    table = build_table(params, precision)
    mp_ctx = None
    working_precision = contextlib.nullcontext()
    if precision > 64:
        from mpmath import mp

        mp_ctx, working_precision = mp, mp.workprec(precision)
    with working_precision:
        rhs = []
        for cls in table.classes:
            value = character_of_symm(params, SymmFactor(0, det, 0), cls,
                                      mp_ctx)
            for f in factors:
                value *= character_of_symm(params, f, cls, mp_ctx)
            rhs.append(value)
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
