#!/usr/bin/env python3
"""Measure how much slack the explicit residual bounds leave in practice.

For a grid of W = L_n(m) and symmetric-power factors, report the largest
observed ratio lhs/rhs for both bound shapes. Ratios far below 1 mean the
constants are very conservative (they are). Exits 1 if any check violates
a bound.

Usage: python3 scripts/run_bound_sweep.py --p 3 --f 2 --k-max 2000
"""

import argparse
import sys
from fractions import Fraction

from modp_gl2 import (
    FieldParams,
    RingElement,
    SymmFactor,
    check_theorem_bound,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--f", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=2000)
    parser.add_argument("--step", type=int, default=97)
    args = parser.parse_args(argv)

    params = FieldParams(args.p, args.f, args.f)
    q = params.q

    worst_theorem = Fraction(0)
    worst_coro = 0.0
    checked = violations = 0
    for n in range(q):
        w = RingElement.L(params, n, 0)
        for k in range(1, args.k_max + 1, args.step):
            for factors in ([SymmFactor(k, 0, 0)],
                            [SymmFactor(k, 0, 0), SymmFactor(k, 0, 1 % args.f)]):
                rep = check_theorem_bound(params, w, factors)
                checked += 1
                if not rep.satisfied:
                    violations += 1
                if rep.rhs_theorem:
                    worst_theorem = max(worst_theorem,
                                        rep.lhs / rep.rhs_theorem)
                if rep.rhs_corollary_float:
                    worst_coro = max(worst_coro,
                                     float(rep.lhs) / rep.rhs_corollary_float)

    print(f"q = {q}, {checked} checks, {violations} violations")
    print(f"largest lhs/rhs, linear bound:       {float(worst_theorem):.3e}")
    print(f"largest lhs/rhs, power-saving bound: {worst_coro:.3e}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
