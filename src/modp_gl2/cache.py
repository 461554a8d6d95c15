"""On-disk cache for structure constants and constants reports.

One JSON file holds everything, keyed per field. The cache only ever speeds
things up: corrupt or stale content is discarded with a warning, and outputs
are byte-identical with or without it. Every structure-constants row is
checked against identities that each true table satisfies (central
character and dimension), so a hand-edited row is caught too.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

from . import asymptotics, memo, ring
from .params import FieldParams

ENV_VAR = "MODP_GL2_CACHE"
VERSION = 1


def resolve_path(explicit: str | None) -> str | None:
    return explicit if explicit else os.environ.get(ENV_VAR)


def _checked_rows(params: FieldParams, dims: list[int], a: int, b: int,
                  rows) -> dict:
    """The stored expansion of [L_a][L_b] as a table, or ValueError unless
    every label (n, t) is in range with n + 2t = a + b mod q-1, every
    multiplicity is a positive int, and the dimensions add up."""
    q = params.q
    qm1 = max(q - 1, 1)
    if not 0 <= a <= b <= q - 1:
        raise ValueError(f"bad pair ({a}, {b}) at q = {q}")
    table = {}
    for n, t, c in rows:
        n, t = int(n), int(t)
        if (not 0 <= n < q or not 0 <= t < qm1 or type(c) is not int
                or c <= 0 or (n + 2 * t - a - b) % qm1):
            raise ValueError(f"bad row {[n, t, c]} of ({a}, {b}) at q = {q}")
        table[(n, t)] = c
    if sum(c * dims[n] for (n, _), c in table.items()) != dims[a] * dims[b]:
        raise ValueError(f"rows of ({a}, {b}) at q = {q} miss the dimension")
    return table


def entry_count() -> int:
    """Entries in the two persisted memo tables, which only ever grow."""
    return (len(memo.table(ring.structure_constants))
            + len(memo.table(asymptotics.compute_constants)))


def load_cache(path: str | None) -> bool:
    """Populate the in-memory memo tables from a cache file, if readable.

    Nothing is stored unless the whole file parses and passes the checks.
    Returns whether the file was loaded.
    """
    if not path or not os.path.exists(path):
        return False
    structure_constants, constants = {}, {}
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data.get("version") != VERSION:
            raise ValueError(f"unknown cache version {data.get('version')!r}")
        for field_key, pairs in data.get("structure_constants", {}).items():
            p, f = (int(x) for x in field_key.split(","))
            params = FieldParams(p, f)  # validates
            dims = [math.prod(d + 1 for d in params.digits(n))
                    for n in range(params.q)]
            for pair_key, rows in pairs.items():
                a, b = (int(x) for x in pair_key.split(","))
                structure_constants[(p, f, a, b)] = _checked_rows(
                    params, dims, a, b, rows)
        for field_key, report in data.get("constants", {}).items():
            p, f, h = (int(x) for x in field_key.split(","))
            params = FieldParams(p, f, h)
            constants[(p, f, h)] = asymptotics.ConstantsReport(
                params, Fraction(report["A"]), Fraction(report["M_upper"]))
    except Exception as exc:  # corrupt cache: warn and start clean
        print(f"warning: discarding unreadable cache {path}: {exc}",
              file=sys.stderr)
        return False
    memo.table(ring.structure_constants).update(structure_constants)
    memo.table(asymptotics.compute_constants).update(constants)
    return True


def save_cache(path: str | None) -> None:
    if not path:
        return
    data = {"version": VERSION, "structure_constants": {}, "constants": {}}
    table = memo.table(ring.structure_constants)
    for (p, f, a, b), rows in sorted(table.items()):
        pairs = data["structure_constants"].setdefault(f"{p},{f}", {})
        pairs[f"{a},{b}"] = [[n, t, c] for (n, t), c in sorted(rows.items())]
    table = memo.table(asymptotics.compute_constants)
    for (p, f, h), report in sorted(table.items()):
        data["constants"][f"{p},{f},{h}"] = {
            "A": f"{report.A.numerator}/{report.A.denominator}",
            "M_upper": f"{report.M_upper.numerator}/{report.M_upper.denominator}",
        }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)
