#!/usr/bin/env python3
"""Check the exact operator norm on every field q <= 64.

For each of the 27 fields, compare ``operator_norm`` (one flat accumulator
per central character) with a per-b reference written here: the q products
v * [L_b(0)], each expanded into a label dict from the rows of the product
table, with |c| summed per n. The elements are seeded residuals r_V of
V = W * prod S_k and seeded signed Fraction mixes of several central
characters. Prints one line per field and exits 1 on any mismatch.

Usage: python3 scripts/check_norms.py [--count 5] [--seed 0]
"""

import argparse
import random
import sys
import time
from fractions import Fraction
from math import lcm

from check_products import fields
from modp_gl2 import (RingElement, SymmFactor, multiply, operator_norm,
                      reduce_product, residual)
from modp_gl2.ring import _expand, _products


def per_b_norm(v):
    """The max over n of the sum over b and t of |coefficient of L_n(t)|
    in v * [L_b(0)], on v scaled to ints by its denominators' lcm D, over D."""
    v = v.to_basis("L")
    params = v.params
    d = lcm(*(c.denominator for c in v.terms.values()))
    scaled = {lbl: c.numerator * (d // c.denominator)
              for lbl, c in v.terms.items()}
    rows = [0] * params.q
    for times_b in _products(params):
        for (n, _), c in _expand(params, {}, scaled, times_b).items():
            rows[n] += abs(c)
    return Fraction(max(rows), d)


def elements(params, rng, count):
    """``count`` residuals of W * S_k1 (* S_k2), then ``count`` signed
    mixes of eight random labels."""
    q, qm1 = params.q, params.q - 1
    out = []
    for _ in range(count):
        w = RingElement.L(params, rng.randrange(q), rng.randrange(qm1))
        factors = [SymmFactor(rng.randrange(10 ** 6), rng.randrange(qm1),
                              rng.randrange(params.f))
                   for _ in range(rng.randint(1, 2))]
        out.append(residual(multiply(w, reduce_product(params, factors))))
    for _ in range(count):
        out.append(RingElement(params, "L", {
            (rng.randrange(q), rng.randrange(qm1)):
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                         rng.randint(1, 99))
            for _ in range(8)}))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=5,
                        help="residuals and mixes per field, each")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    all_fields = fields()
    mismatches = checked = 0
    start = time.perf_counter()
    for params in all_fields:
        rng = random.Random(f"{args.seed}:{params.q}")
        t0 = time.perf_counter()
        bad = 0
        batch = elements(params, rng, args.count)
        for v in batch:
            if operator_norm(v) != per_b_norm(v):
                bad += 1
                print(f"  mismatch at q = {params.q}: {v!r}")
        checked += len(batch)
        mismatches += bad
        print(f"q = {params.q:2d} (p = {params.p}, f = {params.f}): "
              f"{len(batch)} elements, {bad} mismatches, "
              f"{time.perf_counter() - t0:.2f} s")
    print(f"{len(all_fields)} fields, {checked} elements, {mismatches} "
          f"mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
