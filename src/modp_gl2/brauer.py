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
and every int64 product sum below is exact; ``build_table`` checks this.

The character of L_n(m) at a class c factors as chi_n(c) * omega^(d(c) m):
chi_n is the product of the untwisted digit characters, omega = zeta^(q+1)
has order q - 1, and d(c) = (ea + eb) / (q + 1) mod q - 1 is the
determinant exponent of a class with eigenvalue exponents ea, eb. Each d is
taken by exactly q classes, listed as block d: class r has d = r // q. So
the square character matrix of the irreducibles falls into q - 1 blocks: for
the q classes of one d, the values of a class sum_{n,m} x_{n,m} [L_n(m)] are
sum_n chi_n(c) y_n(d) with y_n(d) = sum_m x_{n,m} omega^(d m). The inverse
of each q x q block gives y, and an inverse discrete Fourier transform over
d gives x mod ell.

Only one or two blocks are evaluated and inverted. Multiplying a class by
the scalar g^s maps the classes of determinant exponent d onto those of
d + 2s and multiplies chi_n by zeta^(s(q+1)n). Listing the classes of d + 2s
as the images of those of a base d, the block of d + 2s is the base block
times diag(zeta^(s(q+1)n)), and its inverse is diag(zeta^(-s(q+1)n)) times
the base inverse. 2 is a unit mod q - 1 when q is even, so d = 0 is the one
base; when q is odd the bases are d = 0 and 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .memo import memo
from .params import FieldParams
from .reduction import SymmFactor, symm_factors
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


def _block(q: int, d: int) -> list[PRegularClass]:
    """The q classes of determinant exponent d: central g^a with 2a = d,
    split (a, b) with a < b and a + b = d, and nonsplit g2^e with e = d
    (mod q - 1) and e < e q (mod q^2 - 1); each kind by increasing a or e."""
    qm1, n2 = q - 1, q * q - 1
    classes = [PRegularClass("central", (a,)) for a in range(qm1)
               if 2 * a % qm1 == d]
    classes += [PRegularClass("split", (a, (d - a) % qm1)) for a in range(qm1)
                if a < (d - a) % qm1]
    # e q = e (mod n2) when q + 1 divides e, so g2^e in F_q is left out too
    classes += [PRegularClass("nonsplit", (e,)) for e in range(d, n2, qm1)
                if e < e * q % n2]
    if len(classes) != q:
        raise AssertionError(f"{len(classes)} classes of determinant exponent "
                             f"{d}, expected {q} (internal bug)")
    return classes


def enumerate_p_regular_classes(params: FieldParams) -> list[PRegularClass]:
    """Deterministic complete list, block by block; count is q(q-1)."""
    return [cls for d in range(params.q - 1) for cls in _block(params.q, d)]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the witnesses 2, 3, 5 and 7, which is
    exact for n < 3,215,031,751, far above PRIME_BOUND."""
    witnesses = (2, 3, 5, 7)
    if n < 11 or math.gcd(n, 2 * 3 * 5 * 7) > 1:
        return n in witnesses
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in witnesses:
        x = pow(a, odd, n)
        if x == 1:
            continue
        for _ in range(twos):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _prime(n2: int, index: int) -> int:
    """The index-th prime ell = 1 (mod n2) below PRIME_BOUND, counting down."""
    candidates = range((PRIME_BOUND - 2) // n2 * n2 + 1, n2, -n2)
    ell = next(itertools.islice(filter(_is_prime, candidates), index, None), 0)
    if not ell:
        raise OracleError(f"fewer than {index + 1} primes = 1 mod {n2}")
    return ell


def _powers(base: int, count: int, ell: int) -> np.ndarray:
    """base^e mod ell for every e < count, by doubling the filled prefix."""
    powers = np.ones(count, dtype=np.int64)
    size = 1
    while size < count:
        step = int(powers[size - 1]) * base % ell  # base^size
        powers[size:2 * size] = powers[:min(size, count - size)] * step % ell
        size *= 2
    return powers


def _unit_inverses(units: np.ndarray, ell: int) -> np.ndarray:
    """units^(ell - 2) mod the prime ell elementwise: the inverse of each
    unit, and 0 for 0."""
    out, square, e = np.ones_like(units), units % ell, ell - 2
    while e:
        if e & 1:
            out = out * square % ell
        square, e = square * square % ell, e >> 1
    return out


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
    class, block by block, one column per irreducible label (n, m) in sorted
    order.

    ``powers[e]`` is zeta^e, ``gaps[e]`` is 1 / (1 - zeta^e) and 0 at 0, and
    column r of ``exponents`` holds the eigenvalue exponents of class r, of
    determinant exponent d = r // q. ``inverses`` has shape
    (bases, q, q), one base for even q and two for odd q: with d = b + 2s,
    b = d mod bases, block d holds the images under g^s of the classes of
    block b, ``inverses[b]`` inverts chi_n on block b, and ``scales[d, n]`` =
    zeta^(-s(q+1)n), so ``scales[d, :, None] * inverses[b]`` inverts chi_n on
    block d. ``twist`` is the inverse DFT over d.
    """

    params: FieldParams
    labels: list[tuple[int, int]]
    ell: int
    powers: np.ndarray
    gaps: np.ndarray
    exponents: np.ndarray  # (2, classes) eigenvalue exponents ea, eb
    inverses: np.ndarray | None = None
    scales: np.ndarray | None = None
    twist: np.ndarray | None = None

    def values(self, factor: SymmFactor) -> np.ndarray:
        """The character of S_k(m)^[j] mod ell at every class at once: with
        alpha, beta the p^j-th powers of the eigenvalue lifts, delta = alpha
        beta and t = alpha / beta, the value is delta^m beta^k (1 - t^(k+1))
        / (1 - t), read as delta^m beta^k (k + 1) when t = 1. As gaps[0] is
        0, one expression gives both at every class."""
        k, m, j = SymmFactor(*factor)
        n2, ell = len(self.powers), self.ell
        ea, eb = self.exponents * pow(self.params.p, j % self.params.f, n2) % n2
        gap = (ea - eb) % n2
        value = ((1 - self.powers[gap * ((k + 1) % n2) % n2]) * self.gaps[gap]
                 + (k + 1) % ell * (gap == 0)) % ell
        value = value * self.powers[eb * (k % n2) % n2] % ell
        return value * self.powers[(ea + eb) * (m % n2) % n2] % ell

    def characters(self, count: int) -> np.ndarray:
        """chi_n mod ell at the first ``count`` classes, shape (count, q):
        chi_n for n < p^(i+1) from chi_n for n < p^i, n = a p^i + (n mod
        p^i), through ``values`` on the table cut to those classes."""
        head = replace(self, exponents=self.exponents[:, :count])
        chi = np.ones((1, count), dtype=np.int64)
        for i in range(self.params.f):
            digit_values = np.array([head.values(SymmFactor(a, 0, i))
                                     for a in range(self.params.p)])
            chi = (digit_values[:, None] * chi % self.ell).reshape(-1, count)
        return chi.T

    @property
    def matrix(self) -> np.ndarray:
        """The full table mod ell, assembled on demand: entry (r, (n, m)) is
        chi_n at class r times omega^(d m)."""
        q, count = self.params.q, self.exponents.shape[1]
        # omega^(d m) = zeta^((q + 1) d m) with d = r // q
        d_m = np.outer(np.arange(count) // q, range(q - 1))
        twist = self.powers[(q + 1) * d_m % len(self.powers)]
        # one C-ordered array, reduced in place and reshaped as a view
        table = np.multiply(self.characters(count)[:, :, None],
                            twist[:, None, :], order="C")
        return np.remainder(table, self.ell, out=table).reshape(count, -1)

    def solve(self, rhs) -> np.ndarray:
        """Multiplicities mod ell, in ``labels`` order, of the class whose
        Brauer character mod ell is ``rhs``, given at the classes in
        ``exponents`` order."""
        ell, (bases, q, _) = self.ell, self.inverses.shape
        values = (np.asarray(rhs, dtype=np.int64) % ell).reshape(
            -1, bases, q, 1)
        # block d = b + 2s times the inverse of base b, then scaled
        y = (self.inverses @ values).reshape(-1, q)
        y %= ell
        y *= self.scales
        y %= ell
        # x[m, n] = sum_d y[d, n] omega^(-d m) / (q - 1)
        return (self.twist @ y % ell).T.reshape(-1)


@memo
def build_table(params: FieldParams, index: int) -> BrauerTable:
    """The table mod ``_prime(q^2 - 1, index)``."""
    q = params.q
    qm1 = q - 1
    n2 = q * q - 1
    ell = _prime(n2, index)
    if q * (ell - 1) ** 2 >= 2 ** 63:
        raise OracleError(f"q (ell - 1)^2 >= 2^63 at q = {q}, ell = {ell}: "
                          f"int64 sums would overflow")
    # zeta has exact order n2: zeta^(n2 / r) != 1 for each prime r | n2
    primes = [r for r in range(2, n2 + 1) if n2 % r == 0 and _is_prime(r)]
    zeta = next(z for z in (pow(g, (ell - 1) // n2, ell) for g in range(2, ell))
                if all(pow(z, n2 // r, ell) != 1 for r in primes))
    powers = _powers(zeta, n2, ell)
    # d = b + 2s with b = d mod bases: s = d q / 2 mod q - 1 when q is
    # even, as 2 (q / 2) = 1 there, and s = d // 2 when q is odd
    bases = 1 if q % 2 == 0 else 2
    d = np.arange(qm1)
    shift = d * (q // 2) % qm1 if bases == 1 else d // 2
    base = np.array([[c.eigen_exponents(q) for c in _block(q, b)]
                     for b in range(bases)], dtype=np.int64).transpose(2, 0, 1)
    # block d is the image of base block b under g^s, which adds s (q + 1)
    # to both eigenvalue exponents; the base blocks come first, unmoved
    exponents = (base[:, d % bases] + (q + 1) * shift[:, None]) % n2
    table = BrauerTable(
        params, [(n, m) for n in range(q) for m in range(qm1)], ell,
        powers, _unit_inverses(1 - powers, ell), exponents.reshape(2, -1))
    table.inverses = _inverse_mod(
        table.characters(bases * q).reshape(bases, q, q), ell)
    table.scales = table.powers[-np.outer(shift * (q + 1), range(q)) % n2]
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
    factors = symm_factors(factors)
    dim_v = math.prod(f.k + 1 for f in factors)
    x, modulus, index = 0, 1, 0
    while modulus <= dim_v:
        table = build_table(params, index)
        ell = table.ell
        # det^det at a class is the lifted determinant zeta^(ea + eb) to det
        n2 = len(table.powers)
        rhs = table.powers[table.exponents.sum(axis=0) * (det % n2) % n2]
        for f in factors:
            rhs = rhs * table.values(f) % ell
        residues = table.solve(rhs).astype(object)
        # with one prime so far, the lift is the residues themselves
        x = residues if modulus == 1 else \
            x + modulus * ((residues - x) * pow(modulus, -1, ell) % ell)
        modulus, index = modulus * ell, index + 1
    elem = _element(params, "L", dict(zip(table.labels, x)))
    if elem.dimension() != dim_v:
        raise OracleError(f"lift of dimension {elem.dimension()} != {dim_v}")
    return elem
