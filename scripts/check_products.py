#!/usr/bin/env python3
"""Check the fast product of symmetric powers on every field q <= 64.

For each of the 27 fields, draw seeded products of r = 2 and r = 3 twisted
S_k(m)^[j], with k below 4,000 and with k below 10^9, and compare
``reduce_product`` (principal series absorbing the product) with the
``multiply`` fold of the factors' ``reduce_symm`` classes. Prints one line
per field and exits 1 on any mismatch.

Usage: python3 scripts/check_products.py [--count 10] [--seed 0]
"""

import argparse
import random
import sys
import time
from functools import reduce

from modp_gl2 import (FieldParams, SymmFactor, multiply, reduce_product,
                      reduce_symm)
from modp_gl2.params import Q_CAP, is_prime

K_LIMITS = (4000, 10 ** 9)


def fields():
    """Every supported field, by q."""
    return sorted((FieldParams(p, f) for p in range(2, Q_CAP + 1)
                   if is_prime(p) for f in range(1, Q_CAP.bit_length())
                   if p ** f <= Q_CAP), key=lambda params: params.q)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10,
                        help="products per field, factor count and k limit")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    all_fields = fields()
    mismatches = checked = 0
    start = time.perf_counter()
    for params in all_fields:
        rng = random.Random(f"{args.seed}:{params.q}")
        t0 = time.perf_counter()
        bad = 0
        for r in (2, 3):
            for k_limit in K_LIMITS:
                for _ in range(args.count):
                    factors = [SymmFactor(rng.randrange(k_limit),
                                          rng.randrange(params.q - 1),
                                          rng.randrange(params.f))
                               for _ in range(r)]
                    fold = reduce(multiply, [reduce_symm(params, factor)
                                             for factor in factors])
                    if reduce_product(params, factors) != fold:
                        bad += 1
                        print(f"  mismatch at q = {params.q}: {factors}")
                    checked += 1
        mismatches += bad
        print(f"q = {params.q:2d} (p = {params.p}, f = {params.f}): "
              f"{4 * args.count} products, {bad} mismatches, "
              f"{time.perf_counter() - t0:.2f} s")
    print(f"{len(all_fields)} fields, {checked} products, {mismatches} "
          f"mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
