#!/usr/bin/env python3
"""Check the slow Glover route against the fast route on every field q <= 64.

For each of the 27 fields, compare ``reduce_symm`` by both routes at every
k < 2N + q, N = q^2 - 1, in ascending order, then at seeded k in
descending order, which the slow route must resume from its fixed stops.
Prints one line per field and exits 1 on any mismatch.

Usage: python3 scripts/check_slow_route.py [--count 50] [--seed 0]
"""

import argparse
import random
import sys
import time

from check_products import fields
from modp_gl2 import reduce_symm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50,
                        help="descending k per field")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    all_fields = fields()
    mismatches = checked = 0
    start = time.perf_counter()
    for params in all_fields:
        q = params.q
        top = 2 * (q * q - 1) + q
        rng = random.Random(f"{args.seed}:{q}")
        down = sorted((rng.randrange(q, top) for _ in range(args.count)),
                      reverse=True)
        t0 = time.perf_counter()
        bad = 0
        for k in list(range(top)) + down:
            if reduce_symm(params, k) != reduce_symm(params, k, method="slow"):
                bad += 1
                print(f"  mismatch at q = {q}, k = {k}")
        checked += top + len(down)
        mismatches += bad
        print(f"q = {q:2d} (p = {params.p}, f = {params.f}): {top} k up, "
              f"{len(down)} down, {bad} mismatches, "
              f"{time.perf_counter() - t0:.2f} s")
    print(f"{len(all_fields)} fields, {checked} k, {mismatches} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
