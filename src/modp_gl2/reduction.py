"""Reduction of arbitrary symmetric powers to the irreducible basis.

Two independent routes are exposed: the slow one keeps unrolling the Glover
recursion past q-1, the fast one peels off principal series in blocks of
q+1 using the Dickson-invariant periodicity and finishes with a base-change
column. They must agree exactly; the fast one is O(q) per call.
"""

from __future__ import annotations

from typing import NamedTuple

from .params import FieldParams
from .principal import diamond_decompose
from .ring import (RingElement, _element, multiply, structure_constants,
                   symm_to_L)


class SymmFactor(NamedTuple):
    """The class of S_k(m) twisted by Frobenius^j; k is unbounded."""

    k: int
    m: int = 0
    j: int = 0


def _reduce_symm_base_fast(params: FieldParams, k: int) -> RingElement:
    q = params.q
    qm1 = max(q - 1, 1)
    u, rem = divmod(k, q * q - 1)
    v, w = divmod(rem, q + 1)
    total = RingElement.zero(params, "L")
    if u:
        block = RingElement.zero(params, "L")
        for i in range(q - 1):
            block = block + diamond_decompose(params, (k - 2 * i) % qm1, i)
        total = total + block.scale(u)
    for i in range(v):
        total = total + diamond_decompose(params, (k - 2 * i) % qm1, i)
    if w <= q - 1:
        tail = symm_to_L(params, w, 0)
    else:
        # w = q: S_q is isomorphic to the principal series V(lambda_1)
        tail = diamond_decompose(params, q % qm1, 0)
    return total + tail.det_twist(u * (q - 1) + v)


def _reduce_symm_base_slow(params: FieldParams, k: int) -> RingElement:
    if k <= params.q - 1:
        return symm_to_L(params, k, 0)
    qm1 = max(params.q - 1, 1)
    prev2 = symm_to_L(params, params.q - 2, 0) if params.q >= 2 else None
    prev = symm_to_L(params, params.q - 1, 0)
    if params.q == 2:
        prev2 = symm_to_L(params, 0, 0)
    for _ in range(params.q, k + 1):
        # [S_n] = [S_{n-1}][L_1] - [S_{n-2}](1)
        acc: dict = {}
        for (a, x), c in prev.terms.items():
            for (b, t), cnt in structure_constants(params, a, 1).items():
                lbl = (b, (t + x) % qm1)
                acc[lbl] = acc.get(lbl, 0) + c * cnt
        cur = _element(params, "L", acc) - prev2.det_twist(1)
        prev2, prev = prev, cur
    return prev


def reduce_symm(params: FieldParams, factor, m: int = 0, j: int = 0,
                method: str = "fast") -> RingElement:
    """L-basis class of S_k(m)^{[j]}.

    ``factor`` may be a SymmFactor or a bare k (then m, j are taken from the
    keyword arguments). The result always has dimension k + 1.
    """
    if isinstance(factor, SymmFactor):
        k, m, j = factor
    else:
        k = factor
    if k < 0:
        raise ValueError(f"k = {k} must be >= 0")
    if method == "fast":
        base = _reduce_symm_base_fast(params, k)
    elif method == "slow":
        base = _reduce_symm_base_slow(params, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    if m:
        base = base.det_twist(m)
    if j % params.f:
        base = base.frobenius_twist(j)
    return base


def reduce_product(params: FieldParams, factors, method: str = "fast") -> RingElement:
    """L-basis class of a tensor product of twisted symmetric powers."""
    result = RingElement.L(params, 0, 0)
    for factor in factors:
        result = multiply(result, reduce_symm(params, SymmFactor(*factor),
                                              method=method))
    return result
