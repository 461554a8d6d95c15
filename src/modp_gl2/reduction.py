"""Reduction of arbitrary symmetric powers to the irreducible basis.

Two independent routes are exposed: the slow one keeps unrolling the Glover
recursion past q-1, resuming from the last k it reached on the field; the
fast one adds the full periods of k as one multiple of N S-hat_k, by
[S_(k+N)] = [S_k] + N S-hat_k with N = q^2 - 1 and S-hat_k = ``s_alpha(k)``,
peels off the rest in principal series of dimension q+1 and finishes with a
base-change column. They must agree exactly; the fast one is O(q) per call.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .memo import memo
from .params import FieldParams
from .principal import _diamond_columns, s_alpha
from .ring import (RingElement, _element, _expand, _field_key, _glover_step,
                   _s_to_l_columns, multiply)


class SymmFactor(NamedTuple):
    """The class of S_k(m) twisted by Frobenius^j; k is unbounded."""

    k: int
    m: int = 0
    j: int = 0


def _reduce_symm_base_fast(params: FieldParams, k: int) -> RingElement:
    """[S_k] = [S_(k mod N)] + (k div N) N S-hat_k, where k mod N = v(q+1) + w
    and [S_(k mod N)] is the sum of V_(k-2i)(i), i < v, and of S_w(v)."""
    q = params.q
    qm1 = q - 1
    period = q * q - 1
    u, rem = divmod(k, period)
    v, w = divmod(rem, q + 1)
    # for w = q, S_q(v) is the principal series V_(k-2v)(v), as k - 2v = q
    # (mod q-1): one more V in the sum
    series = {((k - 2 * i) % qm1, i): 1 for i in range(v + (w == q))}
    terms = _expand(params, {}, series, _diamond_columns(params))
    if w < q:
        _expand(params, terms, {(w, v): 1}, _s_to_l_columns(params))
    if u:
        _expand(params, terms, {(0, 0): u * period}, [s_alpha(params, k).terms])
    return _element(params, "L", terms)


@memo(_field_key)
def _glover_checkpoint(params: FieldParams) -> list:
    """The slow route's last stop on the field: a one-slot list holding
    (k, [S_(k-1)], [S_k]), first (q-1, [S_(q-2)], [S_(q-1)])."""
    cols = _s_to_l_columns(params)
    return [(params.q - 1, cols[-2], cols[-1])]


def _reduce_symm_base_slow(params: FieldParams, k: int) -> RingElement:
    """[S_k] by the Glover recursion alone: the base-change column for k < q,
    and past it ``_glover_step`` continued from the field's checkpoint when
    k is at least the checkpoint's k, else from [S_(q-2)] and [S_(q-1)]."""
    cols = _s_to_l_columns(params)
    if k < params.q:
        return _element(params, "L", cols[k])
    checkpoint = _glover_checkpoint(params)
    n, prev2, prev = checkpoint[0]
    if k < n:
        n, prev2, prev = params.q - 1, cols[-2], cols[-1]
    for _ in range(n, k):
        prev2, prev = prev, _glover_step(params, prev, prev2)
    # one assignment once the walk is done: a walk that raises leaves the
    # old checkpoint whole
    checkpoint[0] = (k, prev2, prev)
    return _element(params, "L", prev)


def reduce_symm(params: FieldParams, factor, m: int = 0, j: int = 0,
                method: str = "fast") -> RingElement:
    """L-basis class of S_k(m)^{[j]}.

    ``factor`` is a SymmFactor, or a bare k twisted by the keywords m and j.
    The result always has dimension k + 1.
    """
    if isinstance(factor, SymmFactor):
        if m or j:
            raise ValueError("a SymmFactor carries its own twists, not m or j")
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
    classes = [reduce_symm(params, SymmFactor(*f), method=method)
               for f in factors]
    return reduce(multiply, classes) if classes else RingElement.L(params, 0, 0)
