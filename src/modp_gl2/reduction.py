"""Reduction of arbitrary symmetric powers to the irreducible basis.

Two routes are exposed. The slow one keeps unrolling the Glover recursion
past q-1 on flat rows and reads the labels of [S_k] once per call. It
resumes from the nearer of the last k it reached on the field and the
highest of its fixed stops at or below k: a walk keeps [S_(k-1)] and [S_k]
at every k = q-1 (mod q) it passes, up to 2q+1 of them, so a k below
2N + q that went down costs at most q-1 steps. The fast one
adds the full periods of k as one multiple of N S-hat_k, by
[S_(k+N)] = [S_k] + N S-hat_k with N = q^2 - 1 and S-hat_k = ``s_alpha(k)``,
peels off the rest in principal series of dimension q+1 and finishes with a
base-change column. Both parts come from one gather table per central
character in ``principal``: N S-hat_alpha is the sum of the q-1 series
V_((alpha-2c2) mod (q-1))(c2), and the table lists for each label the c2
whose series hold it. They must agree exactly; the fast one is O(q) per
call. Both give [S_k]; ``_twist`` relabels it once into S_k(m)^[j].

This module reads neither table format itself: the gather lists only
through ``principal._series_prefix`` (the fast ``reduce_symm``) and
``principal._series_sum`` (the fast product), and the ring's flat rows
only through ``ring._labels``, ``ring._add_symm`` (a remainder S_w(v)
added into a label dict), ``ring._symm_terms`` and ``ring._add_product``
(the fast product's remainders and their product). ``symm_factors``
checks every factor list once, for both product routes, the oracle and
the bound check.

The fast route keeps a remainder S_w(v) only when 2w < q. The principal
series give [S_w(v)] + [S_(q-1-w)(v+w)] = [V_(w mod (q-1))(v)] for every
w < q (Diamond's two constituents of a principal series), so a longer
remainder becomes one more series minus S_(q-1-w)(v+w), and S_q(v), where
S_(-1) is 0, is that series alone.

A product of two or more factors splits each factor the fast route's way,
into a V-part (its principal series, N S-hat_k among them, as
N S-hat_alpha is the sum of the q-1 series [V_chi] of central character
alpha) and a signed remainder S_w(v) with 2w < q. A principal series
absorbs a tensor product: [V_chi][X] is the sum of [V_(chi psi)] over the
torus weights psi of X, since X restricted to the Borel has those weights
as its composition factors. So the V-part of the product is a sum of
cyclic convolutions over Z/(q-1) of the factors' series and weights, a
count per c2 read into each label through the gather table. Only the
remainders' product, every remainder with 2w < q, goes through the ring's
product kernel ``ring._add_product``. The slow route folds the factors'
slow classes through ``multiply``, an adapter on that kernel, so both
product routes share it and the base-change and product tables, and the
Brauer oracle is the one route independent of them."""

from __future__ import annotations

from functools import reduce
from math import prod
from typing import NamedTuple

from .memo import memo
from .params import FieldParams
from .principal import _series_prefix, _series_sum
from .ring import (Label, RingElement, _add_product, _add_symm, _element,
                   _glover_step, _labels, _s_to_l_columns, _symm_terms,
                   _twist, multiply)


class SymmFactor(NamedTuple):
    """The class of S_k(m) twisted by Frobenius^j; k is unbounded."""

    k: int
    m: int = 0
    j: int = 0


def symm_factors(factors) -> list[SymmFactor]:
    """A factor list as ``SymmFactor``s, from k:m:j triples or prefixes of
    them; a negative k is a ValueError."""
    factors = [SymmFactor(*f) for f in factors]
    for k, _, _ in factors:
        if k < 0:
            raise ValueError(f"k = {k} must be >= 0")
    return factors


def _split(params: FieldParams, k: int) -> tuple[int, int, Label | None, int]:
    """k = u N + v(q+1) + w with N = q^2 - 1 and w <= q, as (u, s, rest,
    sign): [S_k] is u N S-hat_k, the s principal series V_(k-2i)(i), i < s,
    and sign [S_rest]. For 2w < q that is s = v, rest = (w, v), sign = +1.
    Otherwise [S_w(v)] = [V_w(v)] - [S_(q-1-w)(v+w)], V_w(v) being series
    v, as k - 2v = w (mod q-1): s = v+1, rest = (q-1-w, v+w), sign = -1,
    and at w = q, where S_(-1) is 0, rest is None. So 2w' < q for every
    remainder S_w'."""
    q = params.q
    u, rem = divmod(k, q * q - 1)
    v, w = divmod(rem, q + 1)
    if 2 * w < q:
        return u, v, (w, v), 1
    return u, v + 1, (q - 1 - w, v + w) if w < q else None, -1


def _reduce_symm_base_fast(params: FieldParams, k: int) -> dict[Label, int]:
    """[S_k] as an L-basis label dict from its ``_split``: u N S-hat_k and
    the series i < s, which sit at c2 = i, by ``_series_prefix`` of
    central character k, then sign [S_w(v)] added by ``_add_symm``."""
    u, s, rest, sign = _split(params, k)
    terms = _series_prefix(params, k, u, s) if u or s else {}
    if rest is not None:
        _add_symm(params, terms, *rest, sign)
    return terms


@memo
def _glover_checkpoint(params: FieldParams) -> list:
    """The slow route's stops on the field as flat rows, a two-slot list:
    the last stop (k, [S_(k-1)], [S_k]), first (q-1, [S_(q-2)], [S_(q-1)]),
    and the fixed stops, a list whose entry i is ([S_(k-1)], [S_k]) at
    k = q-1 + iq, first the one at q-1. A walk records each fixed stop it
    passes, up to 2q+1 of them, which reach past every k < 2N + q."""
    cols = _s_to_l_columns(params)
    return [(params.q - 1, cols[-2], cols[-1]), [(cols[-2], cols[-1])]]


def _reduce_symm_base_slow(params: FieldParams, k: int) -> dict[Label, int]:
    """[S_k] as a label dict by the Glover recursion alone: the base-change
    column for k < q, and past it ``_glover_step`` on flat rows resumed
    from the nearer of the field's last stop, when k is at least its k, and
    the highest fixed stop at or below k, so at most q-1 steps for every k
    up to the highest fixed stop."""
    q = params.q
    cols = _s_to_l_columns(params)
    if k < q:
        return _labels(q - 1, cols[k])
    checkpoint = _glover_checkpoint(params)
    (n, prev2, prev), stops = checkpoint
    i = min((k + 1) // q, len(stops)) - 1
    if not (i + 1) * q - 1 <= n <= k:
        n = (i + 1) * q - 1
        prev2, prev = stops[i]
    stops = list(stops)
    for n in range(n + 1, k + 1):
        prev2, prev = prev, _glover_step(params, prev, prev2)
        if n == (len(stops) + 1) * q - 1 and len(stops) <= 2 * q:
            stops.append((prev2, prev))
    # one assignment once the walk is done: a walk that raises leaves the
    # stops as they were
    checkpoint[:] = (k, prev2, prev), stops
    return _labels(q - 1, prev)


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
        terms = _reduce_symm_base_fast(params, k)
    elif method == "slow":
        terms = _reduce_symm_base_slow(params, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    if m or j % params.f:
        terms = _twist(params, terms, m, j)
    return _element(params, "L", terms)


@memo
def _runs(params: FieldParams, pj: int, bits: int) -> tuple[int, ...]:
    """The run table of twist j, given as pj = p^j mod (q-1), which j + f
    shares, at ``bits`` bits per coefficient: entry L < q is the sum of
    x^(i p^j), i < L, mod x^(q-1) - 1, so entry q-1 is all ones."""
    n = params.q - 1
    runs = [0]
    for i in range(n):
        runs.append(runs[-1] + (1 << bits * (pj * i % n)))
    return tuple(runs)


def _reduce_product_fast(params: FieldParams, factors) -> RingElement:
    """[F_1]...[F_r] by the module docstring's projection formula, with
    V(c1, c2) = V_(c1-c2)(c2) and the weights (p^j(k-i+m), p^j(i+m)),
    0 <= i <= k, of S_k(m)^[j]. A factor's series and weights share its
    central character, so each is a polynomial in x mod x^(q-1) - 1, x^c2
    for V(c1, c2) or the weight (c1, c2), and a product convolves them.
    With F_i = P_i + e_i R_i from ``_split``, P_i the series and e_i the
    sign, the product is the sum over i of e_1...e_(i-1) R_1...R_(i-1) P_i
    F_(i+1)...F_r, plus e_1...e_r R_1...R_r by ``ring._add_product``. The
    V-part's count of V(alpha - c2, c2) is the coefficient of x^c2, and
    ``_series_sum`` sums them into the labels. A remainder S_w(v+m)^[j] is
    the flat terms of ``ring._symm_terms``, and the answer is the one
    ``RingElement`` built.

    A polynomial is one int with ``bits`` bits per coefficient, ``bits``
    rounded up to whole bytes so that few run tables serve every product,
    and each one is a run: the exponents p^j i, i in [start, start +
    length), which is ``length div (q-1)`` times the all-ones polynomial
    plus entry ``length mod (q-1)`` of ``_runs``, rotated by p^j start. A
    factor's weights are the run of length k + 1 from m, its series the
    run of length u(q-1) + s from m (u N S-hat_k counting u(q-1) series),
    and a kept remainder's weights the run of length w + 1 from v + m. The
    V-part is ``plus`` - ``minus``, the terms of each sign kept apart, so
    every coefficient is nonnegative and one int product, folded at
    x^(q-1), convolves two polynomials. Each factor has k + 1 weights, and
    its c series and the d weights of its remainder add up to at most
    k + 1: (q+1) c is k + 1 - d for a kept remainder and k + 1 + d for a
    reflected one, where 2d <= q <= qc. So, term by term, the coefficients
    of ``plus`` + ``minus`` sum to at most the product of the k + 1, which
    ``bits`` holds.
    """
    p, n = params.p, params.q - 1
    bits = -(-prod(k + 1 for k, _, _ in factors).bit_length() // 8) * 8
    size = bits * n
    mask = (1 << size) - 1

    def fold(c: int) -> int:
        return (c & mask) + (c >> size)

    def run(runs: tuple[int, ...], pj: int, start: int, length: int) -> int:
        full, part = divmod(length, n)
        return fold((full * runs[n] + runs[part]) << bits * (pj * start % n))

    # after factor i: ``plus`` - ``minus`` is the V-part of F_1...F_i, all
    # of it but sign R_1...R_i, whose weights are ``prefix`` (0 once a
    # remainder is missing) and whose classes are ``rests``; alpha is the
    # central character
    plus, minus, prefix, sign, alpha, rests = 0, 0, 1, 1, 0, []
    for k, m, j in factors:
        pj = pow(p, j, n)
        runs = _runs(params, pj, bits)
        alpha += pj * (k + 2 * m)
        u, s, rest, e = _split(params, k)
        own = fold(prefix * run(runs, pj, m, u * n + s))
        full = run(runs, pj, m, k + 1)
        plus, minus = fold(plus * full), fold(minus * full)
        if sign > 0:
            plus += own
        else:
            minus += own
        if rest is None:
            prefix = 0
        elif prefix:
            w, v = rest
            prefix, sign = fold(prefix * run(runs, pj, v + m, w + 1)), sign * e
            rests.append(_symm_terms(params, w, v + m, j))
    slot = (1 << bits) - 1
    counts = [(plus >> bits * c2 & slot) - (minus >> bits * c2 & slot)
              for c2 in range(n)]
    terms = _series_sum(params, alpha, counts)
    if prefix:
        _add_product(params, terms, rests, sign)
    return _element(params, "L", terms)


def reduce_product(params: FieldParams, factors, method: str = "fast") -> RingElement:
    """L-basis class of a tensor product of twisted symmetric powers: for two
    factors or more, ``_reduce_product_fast``; else, and by the slow route,
    the ``multiply`` fold of the factors' classes from the first one."""
    if method not in ("fast", "slow"):
        raise ValueError(f"unknown method {method!r}")
    factors = symm_factors(factors)
    if method == "fast" and len(factors) > 1:
        return _reduce_product_fast(params, factors)
    classes = [reduce_symm(params, f, method=method) for f in factors]
    return reduce(multiply, classes) if classes else RingElement.L(params, 0, 0)
