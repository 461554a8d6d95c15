"""Field parameters (p, f, q = p^f) and theta on Z/(q-1)Z."""

from __future__ import annotations

from dataclasses import dataclass

# Everything is exact; the tests cover q <= 64, each its own range from
# ``fields``. The oracle's int64 sums hold while q (ell - 1)^2 < 2^63 for its
# primes ell < 2^26: every q < 2^11. At q = 256 the cold layers of
# ``scripts/bench_layers.py`` take 0.2 s (``build_table``), 1.7 s
# (``compute_constants``) and 2.5 s (20 norms, with the 135 MB norm table),
# and peak at 225 MB RSS (median of 3 runs on a shared 2-core host).
Q_CAP = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def fields(q_max: int) -> list[FieldParams]:
    """Every supported field with q <= q_max, ordered by q; a q_max above
    the cap raises ``ValueError``."""
    return sorted((FieldParams(p, f) for p in range(2, q_max + 1)
                   if is_prime(p) for f in range(1, q_max.bit_length())
                   if p ** f <= q_max), key=lambda params: params.q)


@dataclass(frozen=True)
class FieldParams:
    """Parameters of the residue field F_q, q = p^f.

    ``h`` is the degree of the base extension (a multiple of f); it is
    only used by the asymptotic and multiplicity layers and defaults to f.
    """

    p: int
    f: int
    h: int | None = None

    def __post_init__(self):
        for name, value in (("p", self.p), ("f", self.f), ("h", self.h)):
            if type(value) is not int and (name, value) != ("h", None):
                raise TypeError(f"{name} = {value!r} is not an int")
        if self.f < 1:
            raise ValueError(f"f = {self.f} must be >= 1")
        # p >= 2 gives p^f >= 2^f: check the cap before computing p^f
        if self.p >= 2 and (self.f >= Q_CAP.bit_length()
                            or self.p ** self.f > Q_CAP):
            raise ValueError(f"q = {self.p}^{self.f} exceeds the cap {Q_CAP}")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.h is not None and self.h < 1:
            raise ValueError(f"h = {self.h} must be >= 1")
        if self.h is not None and self.h % self.f != 0:
            raise ValueError(f"h = {self.h} is not a multiple of f = {self.f}")

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def degree(self) -> int:
        """h if given, else f."""
        return self.h if self.h is not None else self.f

    def digits(self, n: int) -> list[int]:
        """Base-p digits of n, exactly f of them (n must fit in [0, q-1])."""
        if not 0 <= n <= self.q - 1:
            raise ValueError(f"label {n} out of range [0, {self.q - 1}]")
        out = []
        for _ in range(self.f):
            out.append(n % self.p)
            n //= self.p
        return out

    def from_digits(self, digits) -> int:
        n = 0
        for i, d in enumerate(digits):
            n += d * self.p ** i
        return n

    def theta_residue(self, m: int, j: int = 1) -> int:
        """Multiply a residue mod q-1 by p^j (theta on Z/(q-1)Z)."""
        return (m * pow(self.p, j % self.f, self.q - 1)) % (self.q - 1)

    def residue(self, m: int) -> int:
        """Canonical representative of m mod q-1."""
        return m % (self.q - 1)
