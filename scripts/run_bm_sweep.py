#!/usr/bin/env python3
"""Sweep exact vs asymptotic automorphic multiplicities over Q_p.

Writes one CSV per variant and prints the worst absolute gap, which is the
number worth tracking across code changes.

Usage: python3 scripts/run_bm_sweep.py --p 5 --rho-n 1 --a-max 2000 --out-dir out/
"""

import argparse
import csv
import pathlib
from fractions import Fraction

from modp_gl2 import FieldParams, bm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--rho-n", type=int, default=1)
    parser.add_argument("--rho-m", type=int, default=0)
    parser.add_argument("--a-max", type=int, default=2000)
    parser.add_argument("--out-dir", default="bm_sweep_out")
    args = parser.parse_args()

    params = FieldParams(args.p, 1, 1)
    rho = bm.RhoBarQp(args.rho_n, args.rho_m)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for variant in bm.QP_TYPES:
        rows, worst = [], Fraction(0)
        for a, b, gate, mu, asym in bm.qp_sweep(params, rho, variant,
                                                range(args.a_max + 1)):
            gap = abs(mu - asym)
            if gate:
                worst = max(worst, gap)
            rows.append([a, b, gate, mu, float(asym), float(gap)])
        path = out_dir / f"qp_{variant}_p{args.p}_n{args.rho_n}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "gate", "mu_exact",
                             "mu_asymptotic", "abs_error"])
            writer.writerows(rows)
        print(f"{variant}: wrote {path}, worst gated |mu - asym| = {worst}"
              f" ({float(worst):.4f})")


if __name__ == "__main__":
    main()
