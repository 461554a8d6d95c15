#!/usr/bin/env python3
"""Check pairs of independent routes against each other on every field q <= 64.

For each of the 27 fields, nine checks run on the field's shared memoized
tables, each on inputs drawn from its own ``random.Random(f"{seed}:{q}")``:

- products: ``reduce_product`` (principal series absorbing the product)
  against the ``multiply`` fold of the factors' ``reduce_symm`` classes, on
  10 seeded products for each r = 2, 3 twisted S_k(m)^[j] and each bound
  on k, 4,000 and 10^9, then on the 13 edge products of the fast
  product's run tables: k + 1 = -1, 0, 1 (mod q-1), k in {N-1, N, 2N+q},
  k = v(q+1) + q, the product of the k + 1 at 2^8 - 1, 2^8 and 2^16, and
  twists j in {-1, f, 2f+1} with m < 0;
- norms: ``operator_norm`` against a per-b reference written here, the q
  products v * [L_b(0)], each expanded into a label dict from the rows of
  the product table, with |c| summed per n, on 5 seeded residuals r_V of
  V = W * prod S_k, 5 seeded signed Fraction mixes of several central
  characters, 5 residuals of W * S_k1 S_k2 with k near 10^9 (which the
  theorem keeps small) and 5 classes W * S_k1 S_k2 S_k3 with k near 10^9,
  whose coefficients overflow a 64-bit slot; one more case checks, from
  the elements' coefficients, that some element needed more than one limb;
- slow route: ``reduce_symm`` by the slow Glover route against the fast
  route at every k < 2N + q, N = q^2 - 1, in ascending order, then at 50
  seeded k in descending order, which the slow route must resume from its
  fixed stops;
- gather tables: at every central character alpha, the gather table of
  the q-1 principal series against those series expanded term by term
  through the V_n table, for seeded counts, and both the length of each
  label's entry and N ``s_alpha(alpha)``, N = q^2 - 1, against the map
  omega(n) on each label L_n(m) with n + 2m = alpha (mod q-1);
- reflection: [S_w(v)] + [S_(q-1-w)(v+w)] from the base-change columns
  against the principal series [V_(w mod (q-1))(v)] from the V_n table,
  at every w < q and v in {0, 1, q-2}: the identity by which the fast
  route trades a remainder S_w with 2w >= q for one more series;
- oracle: ``reduce_product`` against ``oracle_decompose``, the Brauer
  characters solved mod primes, on 5 seeded products for each r = 2, 3
  twisted S_k(m)^[j] and each bound on k, 300 and 10^9;
- diamond: each row of the V_n table, built from column words, against
  the (lambda, ell) of the compatible closed paths of
  ``explain_decomposition``, counted with multiplicity;
- constants: the class norms behind the constant A, from ``_class_norms``,
  against the Glover recursion run step by step on row-sum vectors written
  here (one matvec against the products [L_1][L_a] per step, each step
  checked against the dimension): the max of ||[S_r]|| over r < N, each
  ||S-hat_i|| (i < q-1), and, on the reference list, the premise of the
  library's chain ends, that ||[S_r]|| never falls along a chain r0,
  r0 + q + 1, ... (r0 <= q);
- row orders: the q rows of the product table, built from empty tables in
  ascending, descending and seeded shuffled order, against each other:
  every entry [a][b] the same label dict in each order and equal to its
  transpose [b][a], which must be the same stored object. It empties the
  memo tables, so it runs last.

Prints one line per field and exits 1 on any mismatch. A check that raises
counts as one mismatch on its field, and the sweep goes on.

Usage: python3 scripts/check_fields.py [--seed 0]
"""

import argparse
import random
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import lcm, prod
from operator import le

from modp_gl2 import (RingElement, SymmFactor, diamond_decompose, memo,
                      multiply, omega, operator_norm, oracle_decompose,
                      reduce_product, reduce_symm, residual, s_alpha,
                      split_by_central_character, symm_to_L)
from modp_gl2.asymptotics import _class_norms, _largest_product
from modp_gl2.params import fields
from modp_gl2.principal import (_diamond_columns, _series_gather,
                                explain_decomposition)
from modp_gl2.ring import _expand, _labels, _product_row, structure_constants

PRODUCTS = 10     # per factor count r and bound on k
ELEMENTS = 5      # residuals and mixes, each
DESCENDING = 50   # seeded k after the ascending walk
ORACLE = 5        # per factor count r and bound on k
Q_MAX = 64        # the fields checked: every q <= Q_MAX


def edge_products(params):
    """Products at the edges of the fast product's run tables: k + 1 = -1,
    0, 1 (mod q-1), k in {N-1, N, 2N+q}, k = v(q+1) + q (no remainder),
    the product of the k + 1 at 2^8 - 1, 2^8 and 2^16, and twists j in
    {-1, f, 2f+1} with m < 0 among them."""
    q, f = params.q, params.f
    n, period = q - 1, q * q - 1
    twists = [(-1, -1), (q - 2, f), (-q, 2 * f + 1)]
    ks = [3 * n - 2, 3 * n - 1, 3 * n, period - 1, period, 2 * period + q,
          2 * (q + 1) + q, period + q + 1 + q]
    singles = [SymmFactor(k, *twists[i % 3]) for i, k in enumerate(ks)]
    edges = [[a, b] for a, b in zip(singles, singles[1:] + singles[:1])]
    edges.append(singles[:3])
    for ks in ([14, 16], [15, 15], [255, 255], [15, 15, 255]):
        edges.append([SymmFactor(k, *twists[i]) for i, k in enumerate(ks)])
    return edges


def products(params, rng):
    """Yield (factors, agree) for the fast product against the fold: the
    seeded products, then the edge products."""
    drawn = [[SymmFactor(rng.randrange(k_limit), rng.randrange(params.q - 1),
                         rng.randrange(params.f)) for _ in range(r)]
             for r in (2, 3) for k_limit in (4000, 10 ** 9)
             for _ in range(PRODUCTS)]
    for factors in drawn + edge_products(params):
        fold = reduce(multiply, [reduce_symm(params, factor)
                                 for factor in factors])
        yield factors, reduce_product(params, factors) == fold


def per_b_norm(v):
    """The max over n of the sum over b and t of |coefficient of L_n(t)|
    in v * [L_b(0)], summed label by label from the ``structure_constants``
    maps on v scaled to ints by its denominators' lcm D, over D."""
    v = v.to_basis("L")
    params = v.params
    qm1 = params.q - 1
    d = lcm(*(c.denominator for c in v.terms.values()))
    rows = [0] * params.q
    for b in range(params.q):
        column = {}
        for (a, x), c in v.terms.items():
            c = c.numerator * (d // c.denominator)
            for (n, t), k in structure_constants(params, a, b).items():
                lbl = (n, (t + x) % qm1)
                column[lbl] = column.get(lbl, 0) + c * k
        for (n, _), c in column.items():
            rows[n] += abs(c)
    return Fraction(max(rows), d)


def needs_limbs(v):
    """Whether some central-character part of v, scaled to ints by the
    lcm D of v's denominators, has a sum of |c| times the largest product
    coefficient of 2^63 or more: a part whose slots overflow 64 bits, which
    ``operator_norm`` sums in more than one limb."""
    v = v.to_basis("L")
    d = lcm(*(c.denominator for c in v.terms.values()))
    return any(sum(abs(c) * d for c in part.terms.values())
               * _largest_product(v.params) >= 2 ** 63
               for part in split_by_central_character(v).values())


def norms(params, rng):
    """Yield (element, agree) for ``operator_norm`` against the per-b
    reference: residuals of W * S_k1 (* S_k2), signed mixes of eight random
    labels, residuals of W * S_k1 S_k2 and classes W * S_k1 S_k2 S_k3 with
    k near 10^9; then ("limbs", whether some element needed more than one
    limb)."""
    q, qm1 = params.q, params.q - 1
    batch = []
    for _ in range(ELEMENTS):
        w = RingElement.L(params, rng.randrange(q), rng.randrange(qm1))
        factors = [SymmFactor(rng.randrange(10 ** 6), rng.randrange(qm1),
                              rng.randrange(params.f))
                   for _ in range(rng.randint(1, 2))]
        batch.append(residual(multiply(w, reduce_product(params, factors))))
    for _ in range(ELEMENTS):
        batch.append(RingElement(params, "L", {
            (rng.randrange(q), rng.randrange(qm1)):
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                         rng.randint(1, 99))
            for _ in range(8)}))
    for r in (2, 3):
        for _ in range(ELEMENTS):
            w = RingElement.L(params, rng.randrange(q), rng.randrange(qm1))
            v = multiply(w, reduce_product(params, [
                SymmFactor(rng.randrange(10 ** 9 - 10 ** 6, 10 ** 9),
                           rng.randrange(qm1), rng.randrange(params.f))
                for _ in range(r)]))
            batch.append(residual(v) if r == 2 else v)
    for v in batch:
        yield v, operator_norm(v) == per_b_norm(v)
    yield "limbs", any(map(needs_limbs, batch))


def slow_route(params, rng):
    """Yield (k, agree) for the slow route against the fast route."""
    top = 2 * (params.q ** 2 - 1) + params.q
    down = sorted((rng.randrange(params.q, top) for _ in range(DESCENDING)),
                  reverse=True)
    for k in list(range(top)) + down:
        yield (f"k = {k}", reduce_symm(params, k)
               == reduce_symm(params, k, method="slow"))


def gather(params, rng):
    """Yield (alpha, agree) for the gather table of each central character
    against the series expanded through the V_n table, and its entries'
    lengths and N s_alpha against the omega counts."""
    q, qm1 = params.q, params.q - 1
    for alpha in range(qm1):
        omegas = {(n, m): omega(params, n) for n in range(q)
                  for m in range(qm1) if (n + 2 * m) % qm1 == alpha}
        table = _series_gather(params, alpha)
        counts = [rng.randrange(10 ** 6) for _ in range(qm1)]
        expected = _expand(params, {
            ((alpha - 2 * c2) % qm1, c2): c for c2, c in enumerate(counts)},
            _diamond_columns(params))
        got = {lbl: sum(counts[c2] for c2 in c2s)
               for lbl, c2s in table.items()}
        lengths = {lbl: len(c2s) for lbl, c2s in table.items()}
        yield (f"alpha = {alpha}",
               RingElement(params, "L", got) == RingElement(params, "L", expected)
               and lengths == omegas
               and s_alpha(params, alpha).scale(q * q - 1)
               == RingElement(params, "L", omegas))


def reflection(params, rng):
    """Yield ((w, v), agree) for [S_w(v)] + [S_(q-1-w)(v+w)] against
    [V_(w mod (q-1))(v)]."""
    q = params.q
    for w in range(q):
        for v in sorted({0, 1, q - 2}):
            yield (f"w = {w}, v = {v}", symm_to_L(params, w, v)
                   + symm_to_L(params, q - 1 - w, v + w)
                   == diamond_decompose(params, w % (q - 1), v % (q - 1)))


def oracle(params, rng):
    """Yield (factors, agree) for the fast product against the oracle."""
    for k_limit in (300, 10 ** 9):
        for r in (2, 3):
            for _ in range(ORACLE):
                factors = [SymmFactor(rng.randrange(k_limit),
                                      rng.randrange(params.q - 1),
                                      rng.randrange(params.f))
                           for _ in range(r)]
                yield factors, (reduce_product(params, factors)
                                == oracle_decompose(params, factors))


def diamond(params, rng):
    """Yield (n, agree) for each row of the V_n table against the paths."""
    qm1 = params.q - 1
    rows = _diamond_columns(params)
    for n in range(qm1):
        paths = Counter((row["lambda"], row["ell"])
                        for row in explain_decomposition(params, n)
                        if row["compatible"])
        yield f"n = {n}", _labels(qm1, rows[n]) == paths


def glover_class_norms(params):
    """||[S_r]|| for r < N = q^2 - 1 and ||S-hat_i|| for i < q-1 by the
    Glover recursion on row sums: t_r = t_(r-1) M - t_(r-2) from t_(-1) = 0
    and t_0 = all ones, M the products [L_1][L_a] with the twist summed out,
    one step per r, and S-hat_i from (t_(i+N) - t_i) / N. Each t_r must pass
    sum_n t_r[n] dim L_n = (r+1) sum_b dim L_b, dim L_n the product of
    (digit + 1) over the base-p digits of n."""
    q, period = params.q, params.q ** 2 - 1
    rows = [structure_constants(params, 1, a) for a in range(q)]
    dims = [prod(d + 1 for d in params.digits(n)) for n in range(q)]
    heads, s_norms, hat_norms = [], [], []   # heads: t_i for i < q-1
    prev, cur = [0] * q, [1] * q
    for r in range(period + q - 1):
        if sum(x * d for x, d in zip(cur, dims)) != (r + 1) * sum(dims):
            raise AssertionError(f"row sums of [S_{r}] fail the dimension "
                                 "check")
        if r < period:
            s_norms.append(max(cur))
            if r < q - 1:
                heads.append(cur)
        else:
            hat_norms.append(Fraction(max(
                x - y for x, y in zip(cur, heads[r - period])), period))
        nxt = [-x for x in prev]
        for a, x in enumerate(cur):
            for (n, _), k in rows[a].items():
                nxt[n] += x * k
        prev, cur = cur, nxt
    return s_norms, hat_norms


def constants(params, rng):
    """Yield (case, agree) for ``_class_norms`` against the step-by-step
    Glover reference: its max over the [S_r] and each ||S-hat_i||, then for
    each chain r0 <= q, whether the reference never falls along it."""
    q, (top, hats) = params.q, _class_norms(params)
    s_norms, hat_norms = glover_class_norms(params)
    yield "max ||[S_r]||", top == max(s_norms)
    for i, (x, y) in enumerate(zip_longest(hats, hat_norms)):
        yield f"||S-hat_{i}||", x == y
    for r0 in range(q + 1):
        chain = s_norms[r0::q + 1]
        yield f"chain r0 = {r0}", all(map(le, chain, chain[1:]))


def row_orders(params, rng):
    """Yield (order, agree) for the product rows built from empty tables in
    ascending, descending and shuffled order, against the ascending ones."""
    q, qm1 = params.q, params.q - 1
    shuffled = list(range(q))
    rng.shuffle(shuffled)
    expected = None
    for name, order in (("ascending", range(q)),
                        ("descending", range(q - 1, -1, -1)),
                        ("shuffled", shuffled)):
        memo.clear()
        rows = [None] * q
        for a in order:
            rows[a] = _product_row(params, a)
        labels = [[_labels(qm1, entry) for entry in row] for row in rows]
        expected = expected or labels
        yield name, all(rows[a][b] is rows[b][a]
                        and labels[a][b] == expected[a][b] == expected[b][a]
                        for a in range(q) for b in range(q))


CHECKS = (("products", products), ("elements", norms), ("k", slow_route),
          ("alphas", gather), ("identities", reflection),
          ("oracle products", oracle), ("V_n rows", diamond),
          ("class norms", constants), ("row orders", row_orders))


def tally(counts):
    return ", ".join(f"{n} {noun}" for noun, n in counts.items())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args(argv).seed

    all_fields = fields(Q_MAX)
    totals = dict.fromkeys([noun for noun, _ in CHECKS] + ["mismatches"], 0)
    start = time.perf_counter()
    for params in all_fields:
        t0 = time.perf_counter()
        counts = dict.fromkeys(totals, 0)
        for noun, check in CHECKS:
            try:
                for case, agree in check(params,
                                         random.Random(f"{seed}:{params.q}")):
                    counts[noun] += 1
                    if not agree:
                        counts["mismatches"] += 1
                        print(f"  {check.__name__} mismatch at q = {params.q}:"
                              f" {case}")
            except Exception as exc:
                # a check that raises fails its field; the traceback goes
                # to stderr and the other checks and fields still run
                counts["mismatches"] += 1
                print(f"  {check.__name__} raised at q = {params.q}: "
                      f"{type(exc).__name__}: {exc}")
                traceback.print_exc()
        for noun, n in counts.items():
            totals[noun] += n
        print(f"q = {params.q:2d} (p = {params.p}, f = {params.f}): "
              f"{tally(counts)}, {time.perf_counter() - t0:.2f} s")
    print(f"{len(all_fields)} fields, {tally(totals)}, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if totals["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
