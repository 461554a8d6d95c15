"""Independent verification of decompositions via Brauer characters.

Semisimple classes of GL2(F_q) are labeled by eigenvalue exponents with
respect to fixed generators g of F_q^* and g2 of F_{q^2}^* with g = g2^(q+1).
Lifting an eigenvalue g2^e to zeta^e for a primitive (q^2 - 1)-th root of
unity zeta is a consistent Teichmueller-style labeling, so every Brauer
character value is a polynomial in zeta with integer coefficients. Such
identities hold in Z[zeta], so they also hold modulo a prime above any prime
ell = 1 (mod q^2 - 1), where zeta becomes an element of F_ell of exact order
q^2 - 1: the oracle computes in F_ell, with no floating point. The primes
are taken below 2^26, counting down, so q (ell - 1)^2 < 2^63 for q <= 64
and every int64 product sum below is exact.

The character of L_n(m) at a class c factors as chi_n(c) * omega^(d(c) m):
chi_n is the product of the untwisted digit characters, omega = zeta^(q+1)
has order q - 1, and d(c) = (ea + eb) / (q + 1) mod q - 1 is the
determinant exponent of a class with eigenvalue exponents ea, eb. Each d is
taken by exactly q classes. So the square character matrix of the
irreducibles falls into q - 1 blocks by d: for the q classes of one d, the
values of a class sum_{n,m} x_{n,m} [L_n(m)] are sum_n chi_n(c) y_n(d) with
y_n(d) = sum_m x_{n,m} omega^(d m). The inverse of each q x q block gives y,
and an inverse discrete Fourier transform over d gives x mod ell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .memo import memo
from .params import FieldParams, is_prime
from .reduction import SymmFactor
from .ring import RingElement, _element

PRIME_BOUND = 2 ** 26


class OracleError(RuntimeError):
    """A block singular mod ell or a lift failing the dimension check."""


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


def _prime(n2: int, index: int) -> int:
    """The index-th prime ell = 1 (mod n2) below PRIME_BOUND, counting down."""
    candidates = range((PRIME_BOUND - 2) // n2 * n2 + 1, n2, -n2)
    ell = next(itertools.islice(filter(is_prime, candidates), index, None), 0)
    if not ell:
        raise OracleError(f"fewer than {index + 1} primes = 1 mod {n2}")
    return ell


def _inverse_mod(blocks: np.ndarray, ell: int) -> np.ndarray:
    """Inverse mod ell of each square matrix in ``blocks``, by Gauss-Jordan
    elimination run on all blocks at once; OracleError if one is singular."""
    count, size, _ = blocks.shape
    eye = np.broadcast_to(np.eye(size, dtype=np.int64), blocks.shape)
    aug = np.concatenate([blocks % ell, eye], axis=2)
    every = np.arange(count)
    for col in range(size):
        nonzero = aug[:, col:, col] != 0
        if not nonzero.any(axis=1).all():
            raise OracleError(f"character block singular mod {ell}")
        pivot = col + nonzero.argmax(axis=1)
        rows = aug[every, pivot]
        aug[every, pivot] = aug[:, col]
        scale = np.array([pow(int(a), -1, ell) for a in rows[:, col]])
        aug[:, col] = rows * scale[:, None] % ell
        factor = aug[:, :, col, None] * (np.arange(size) != col)[:, None]
        # the pivot row is zero left of col: those columns stay as they are
        aug[:, :, col:] = (aug[:, :, col:] - factor * aug[:, None, col, col:]) % ell
    return aug[:, :, size:]


@dataclass(eq=False)
class BrauerTable:
    """Character table of the irreducibles mod ell: one row per p-regular
    class, one column per irreducible label (n, m) in sorted order.

    ``powers[e]`` is zeta^e, ``gaps[e > 0]`` is 1 / (1 - zeta^e),
    ``untwisted[c, n]`` is chi_n at class c, row d of ``blocks`` lists the q
    classes of determinant exponent d, ``inverses[d]`` inverts
    ``untwisted[blocks[d]]`` and ``twist`` is the inverse DFT over d.
    """

    params: FieldParams
    classes: list[PRegularClass]
    labels: list[tuple[int, int]]
    ell: int
    powers: np.ndarray
    gaps: np.ndarray
    exponents: np.ndarray  # (2, classes) eigenvalue exponents ea, eb
    untwisted: np.ndarray | None = None
    blocks: np.ndarray | None = None
    inverses: np.ndarray | None = None
    twist: np.ndarray | None = None

    def values(self, factor: SymmFactor) -> np.ndarray:
        """The character of S_k(m)^[j] mod ell at every class at once: with
        alpha, beta the p^j-th powers of the eigenvalue lifts, delta = alpha
        beta and t = alpha / beta, the value is delta^m beta^k (1 - t^(k+1))
        / (1 - t), read as delta^m beta^k (k + 1) when t = 1."""
        k, m, j = SymmFactor(*factor)
        n2, ell = len(self.powers), self.ell
        ea, eb = self.exponents * pow(self.params.p, j % self.params.f, n2) % n2
        gap = (ea - eb) % n2
        split = gap != 0
        value = np.full(ea.shape, (k + 1) % ell, dtype=np.int64)
        value[split] = (1 - self.powers[gap[split] * ((k + 1) % n2) % n2]) \
            * self.gaps[gap[split]] % ell
        value = value * self.powers[eb * (k % n2) % n2] % ell
        return value * self.powers[(ea + eb) * (m % n2) % n2] % ell

    @property
    def matrix(self) -> np.ndarray:
        """The full table mod ell, assembled on demand: entry (c, (n, m)) is
        chi_n(c) * omega^(d(c) m)."""
        n2 = len(self.powers)
        # omega^(d(c) m) is the lifted determinant ea + eb to the m
        twist = self.powers[np.outer(self.exponents.sum(axis=0),
                                     range(len(self.blocks))) % n2]
        return (self.untwisted[:, :, None] * twist[:, None, :]
                % self.ell).reshape(len(self.classes), len(self.labels))

    def solve(self, rhs) -> np.ndarray:
        """Multiplicities mod ell, in ``labels`` order, of the class whose
        Brauer character mod ell is ``rhs``, in ``classes`` order."""
        values = (np.asarray(rhs, dtype=np.int64) % self.ell)[self.blocks]
        y = (self.inverses @ values[:, :, None])[:, :, 0] % self.ell
        # x[m, n] = sum_d y[d, n] omega^(-d m) / (q - 1)
        return (self.twist @ y % self.ell).T.reshape(-1)


@memo(lambda params, index=0: (params.p, params.f, index))
def build_table(params: FieldParams, index: int = 0) -> BrauerTable:
    """The table mod ``_prime(q^2 - 1, index)``."""
    q = params.q
    qm1 = q - 1
    n2 = q * q - 1
    ell = _prime(n2, index)
    # zeta has exact order n2: zeta^(n2 / r) != 1 for each prime r | n2
    primes = [r for r in range(2, n2 + 1) if n2 % r == 0 and is_prime(r)]
    zeta = next(z for z in (pow(g, (ell - 1) // n2, ell) for g in range(2, ell))
                if all(pow(z, n2 // r, ell) != 1 for r in primes))
    powers = [pow(zeta, e, ell) for e in range(n2)]
    gaps = [0] + [pow(1 - z, -1, ell) for z in powers[1:]]
    classes = enumerate_p_regular_classes(params)
    table = BrauerTable(
        params, classes, [(n, m) for n in range(q) for m in range(qm1)], ell,
        np.array(powers, dtype=np.int64), np.array(gaps, dtype=np.int64),
        np.array([cls.eigen_exponents(q) for cls in classes], dtype=np.int64).T)
    untwisted = np.ones((q, len(classes)), dtype=np.int64)
    for i in range(params.f):
        digit_values = np.array([table.values(SymmFactor(a, 0, i))
                                 for a in range(params.p)])
        untwisted = untwisted \
            * digit_values[np.arange(q) // params.p ** i % params.p] % ell
    dets = table.exponents.sum(axis=0) // (q + 1) % qm1
    sizes = np.bincount(dets, minlength=qm1)
    if (sizes != q).any():
        raise AssertionError(f"determinant blocks of sizes {sizes.tolist()}, "
                             f"expected {qm1} of {q} (internal bug)")
    table.untwisted = untwisted.T
    table.blocks = np.argsort(dets, kind="stable").reshape(qm1, q)
    table.inverses = _inverse_mod(table.untwisted[table.blocks], ell)
    m_d = np.outer(range(qm1), range(qm1))
    table.twist = table.powers[-(q + 1) * m_d % n2] * pow(qm1, -1, ell) % ell
    return table


def oracle_decompose(params: FieldParams, factors,
                     det: int = 0) -> RingElement:
    """Decompose a product V of twisted symmetric powers (times det^det) by
    solving against the character table mod primes ell.

    The character of V is evaluated mod ell at every p-regular class at once
    and solved by determinant blocks, giving each multiplicity mod ell. The
    product of the primes used exceeds dim V, which bounds every
    multiplicity, so the Chinese remainder lift of the residues into
    [0, prod ell) is exact. Raises OracleError unless the lifted
    multiplicities satisfy sum x * dim L_n = dim V exactly.
    """
    factors = [SymmFactor(*f) for f in factors]
    if any(f.k < 0 for f in factors):
        raise ValueError(f"every k of {factors} must be >= 0")
    dim_v = math.prod(f.k + 1 for f in factors)
    x, modulus, index = 0, 1, 0
    while modulus <= dim_v:
        table = build_table(params, index)
        ell = table.ell
        rhs = table.values(SymmFactor(0, det, 0))
        for f in factors:
            rhs = rhs * table.values(f) % ell
        residues = table.solve(rhs).astype(object)
        x = x + modulus * ((residues - x) * pow(modulus, -1, ell) % ell)
        modulus, index = modulus * ell, index + 1
    elem = _element(params, "L", dict(zip(table.labels, x)))
    if elem.dimension() != dim_v:
        raise OracleError(f"lift of dimension {elem.dimension()} != {dim_v}")
    return elem
