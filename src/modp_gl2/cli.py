"""Batch command-line front end.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 disagreement between the ring and the oracle (``oracle-check`` only),
2 validation error, 3 oracle failure, 4 bound violation. ``--jobs`` and
``--cache-path`` are accepted and ignored: sweeps run serially, and every
table is recomputed in each run, so no file is read or written.
numpy is needed only by the Brauer oracle (``oracle-check`` and the
``brauer`` API), and loads on its first use.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from math import prod

from . import asymptotics, bm, principal
from .params import FieldParams
from .reduction import SymmFactor, reduce_product
from .ring import RingElement, frac_str, symm_to_L

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ORACLE = 3
EXIT_BOUND = 4

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>-?\d+(?:/0*[1-9]\d*)?)\s*\*\s*)?"
    r"\[(?P<basis>[LS])_(?P<n>\d+)(?:\((?P<m>\d+)\))?\]\s*$")


def parse_element(params: FieldParams, text: str) -> RingElement:
    """Parse '2*[L_1(0)] + [S_2(1)]' literals or raw RingElement JSON."""
    text = text.strip()
    if text.startswith("{"):
        elem = RingElement.from_json_dict(json.loads(text))
        if (elem.params.p, elem.params.f) != (params.p, params.f):
            raise ValueError("element JSON has mismatched field parameters")
        return elem
    total = RingElement.zero(params, "L")
    # empty terms only before a sign: a leading '+', a '-' opening a term
    pieces = text.split("+")
    if len(pieces) > 1 and not pieces[0].strip():
        del pieces[0]
    for piece in pieces:
        first, *negated = piece.split("-")
        terms = [(-1, chunk) for chunk in negated]
        if first.strip() or not negated:
            terms.insert(0, (1, first))
        for sign, chunk in terms:
            match = _TERM_RE.match(chunk)
            if not match:
                raise ValueError(f"cannot parse term {chunk.strip()!r}")
            coeff = sign * Fraction(match["coeff"] or 1)
            n, m = int(match["n"]), int(match["m"] or 0)
            if match["basis"] == "L":
                term = RingElement.L(params, n, m)
            else:
                term = symm_to_L(params, n, m)
            total = total + term.scale(coeff)
    return total


def parse_factors(text: str) -> list[SymmFactor]:
    """Comma-separated k[:m[:j]] triples."""
    factors = []
    for chunk in text.split(","):
        parts = [int(x) for x in chunk.strip().split(":")]
        if not 1 <= len(parts) <= 3:
            raise ValueError(f"bad factor spec {chunk!r}")
        factors.append(SymmFactor(*parts))
    return factors


def emit_element(elem: RingElement, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(elem.to_json_dict()))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["basis", "n", "m", "coeff"])
        for (n, m), c in elem.sorted_terms():
            writer.writerow([elem.basis, n, m, frac_str(c)])
    else:
        print(repr(elem))


def emit_rows(header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows]))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
                  else len(str(h)) for i, h in enumerate(header)]
        print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))


def emit_mapping(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data))
    else:
        for k, v in data.items():
            print(f"{k}: {v}")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_decompose(params, args):
    if args.factors is not None and {args.symm, args.det, args.frob} != {None}:
        raise ValueError("decompose takes --symm (with --det and --frob) "
                         "or --factors, not both")
    if args.factors:
        factors = parse_factors(args.factors)
    elif args.symm is not None:
        factors = [SymmFactor(args.symm, args.det or 0, args.frob or 0)]
    else:
        raise ValueError("decompose needs --symm or --factors")
    emit_element(reduce_product(params, factors), args.format)
    return EXIT_OK


def cmd_principal_series(params, args):
    elem = principal.diamond_decompose(params, args.n, args.m)
    rows = (principal.explain_decomposition(params, args.n) if args.explain
            else [])
    if args.explain and args.format == "json":
        print(json.dumps({"element": elem.to_json_dict(), "paths": rows}))
        return EXIT_OK
    emit_element(elem, args.format)
    for row in rows:
        if row["compatible"]:
            print(f"# path {row['path']}: lambda={row['lambda']} "
                  f"ell={row['ell']}")
        else:
            print(f"# path {row['path']}: incompatible")
    return EXIT_OK


def cmd_omega(params, args):
    if args.all and args.n is not None:
        raise ValueError("omega takes --all or --n, not both")
    if args.all:
        ns = range(params.q)
    elif args.n is not None:
        ns = [args.n]
    else:
        raise ValueError("omega needs --all or --n")
    rows = [[n, principal.omega(params, n)] for n in ns]
    emit_rows(["n", "omega"], rows, args.format)
    return EXIT_OK


def cmd_s_alpha(params, args):
    emit_element(asymptotics.s_alpha(params, args.i), args.format)
    return EXIT_OK


def cmd_constants(params, args):
    report = asymptotics.compute_constants(params)
    data = report.to_json_dict()
    if args.format == "json":
        print(json.dumps(data))
    else:
        rows = [[k, v] for k, v in data.items() if k != "C_r"]
        rows += [[f"C_{r}", v] for r, v in data["C_r"].items()]
        emit_rows(["constant", "value"], rows, args.format)
    return EXIT_OK


def cmd_verify_bound(params, args):
    w = parse_element(params, args.w)
    factors = parse_factors(args.factors)
    report = asymptotics.check_theorem_bound(params, w, factors)
    emit_mapping(report.to_json_dict(), args.format)
    return EXIT_OK if report.satisfied else EXIT_BOUND


def cmd_oracle_check(params, args):
    from . import brauer  # loads numpy, which no other command needs

    factors = parse_factors(args.factors)
    ring_side = reduce_product(params, factors).det_twist(args.det)
    try:
        oracle_side = brauer.oracle_decompose(params, factors, det=args.det)
    except brauer.OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    agree = ring_side == oracle_side
    if args.format == "json":
        print(json.dumps({"agree": agree,
                          "ring": ring_side.to_json_dict(),
                          "oracle": oracle_side.to_json_dict()}))
    else:
        print(f"agree: {agree}")
        print(f"ring:   {ring_side!r}")
        print(f"oracle: {oracle_side!r}")
    return EXIT_OK if agree else 1


def cmd_bm(params, args):
    if args.bm_mode == "qp":
        rows = [[a, b, gate, mu, frac_str(mu_asym), frac_str(abs(mu - mu_asym))]
                for a, b, gate, mu, mu_asym in bm.qp_sweep(
                    params, bm.RhoBarQp(args.rho_n, args.rho_m), args.type,
                    range(args.a_min, args.a_max + 1), args.b)]
        emit_rows(["a", "b", "gate", "mu_exact", "mu_asymptotic", "abs_error"],
                  rows, args.format)
        return EXIT_OK
    # general: user-supplied type and weights
    with open(args.type_json) as fh:
        type_class = bm.type_from_json(json.load(fh))
    with open(args.weights_json) as fh:
        intrinsics = bm.intrinsics_from_json(json.load(fh))
    factors = parse_factors(args.factors)
    mu = bm.mu_aut(params, intrinsics, factors, type_class)
    dim_v = prod((f.k + 1 for f in factors), start=type_class.dim_type)
    emit_mapping({"mu_aut": mu, "dim": dim_v,
                  "ratio": frac_str(Fraction(mu, dim_v))}, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modp-gl2",
        description="Exact decompositions in the Grothendieck ring of "
                    "mod-p representations of GL2(F_q).")
    parser.add_argument("--p", type=int, required=True, help="prime p")
    parser.add_argument("--f", type=int, default=1, help="exponent f, q = p^f")
    parser.add_argument("--h", type=int, default=None,
                        help="degree of K/Q_p (multiple of f; default f)")
    parser.add_argument("--format", choices=["json", "csv", "pretty"],
                        default="json")
    parser.add_argument("--cache-path", default=None,
                        help="accepted and ignored; nothing is cached on disk")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored; sweeps run serially")

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("decompose", help="reduce symmetric powers or products")
    sp.add_argument("--symm", type=int, default=None, help="k of S_k")
    sp.add_argument("--det", type=int, default=None, help="determinant twist")
    sp.add_argument("--frob", type=int, default=None, help="Frobenius twist")
    sp.add_argument("--factors", default=None, help="k:m:j,... product")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("principal-series", help="decompose V_n(m)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--explain", action="store_true",
                    help="print contributing paths")
    sp.set_defaults(func=cmd_principal_series)

    sp = sub.add_parser("omega", help="multiplicity of L_n in principal series")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(func=cmd_omega)

    sp = sub.add_parser("s-alpha", help="averaged principal-series class")
    sp.add_argument("--i", type=int, required=True)
    sp.set_defaults(func=cmd_s_alpha)

    sp = sub.add_parser("constants", help="explicit bound constants")
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("verify-bound", help="check the asymptotic bounds")
    sp.add_argument("--w", required=True, help="element literal or JSON")
    sp.add_argument("--factors", required=True, help="k:m:j,...")
    sp.set_defaults(func=cmd_verify_bound)

    sp = sub.add_parser("oracle-check", help="compare ring vs Brauer oracle")
    sp.add_argument("--factors", required=True, help="k:m:j,...")
    sp.add_argument("--det", type=int, default=0)
    sp.set_defaults(func=cmd_oracle_check)

    sp = sub.add_parser("bm", help="Breuil-Mezard multiplicities")
    bm_sub = sp.add_subparsers(dest="bm_mode", required=True)
    spq = bm_sub.add_parser("qp", help="K = Q_p irreducible example sweep")
    spq.add_argument("--rho-n", type=int, required=True)
    spq.add_argument("--rho-m", type=int, default=0)
    spq.add_argument("--type", choices=list(bm.QP_TYPES),
                     default="trivial")
    spq.add_argument("--a-min", type=int, default=0)
    spq.add_argument("--a-max", type=int, required=True)
    spq.add_argument("--b", type=int, default=None,
                     help="fix b (default: smallest b satisfying the gate)")
    spq.set_defaults(func=cmd_bm)
    spg = bm_sub.add_parser("general", help="user-supplied type and weights")
    spg.add_argument("--type-json", required=True)
    spg.add_argument("--weights-json", required=True)
    spg.add_argument("--factors", required=True, help="k:m:j,...")
    spg.set_defaults(func=cmd_bm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(FieldParams(args.p, args.f, args.h), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
