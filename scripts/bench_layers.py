#!/usr/bin/env python3
"""Time each layer of the calculator cold and append the record to
``BENCH_layers.json``.

Each field runs in ``--runs`` fresh interpreters, each with this checkout's
``src`` first on ``PYTHONPATH``. In each interpreter every layer below is
timed once, from empty memo tables (``memo.clear()``), so that a layer's
time includes the tables it builds on:

- product table: all q rows of ``ring._product_row``;
- first product: the first two-factor fast product, ``reduce_product`` on
  two factors S_k(m)^[j] with k in [3980, 4000), drawn from
  ``random.Random(q)``;
- V_n table: ``principal._diamond_columns``;
- gather tables: ``principal._series_gather`` at every central character;
- compute_constants: at h = f;
- build_table: the Brauer table of ``brauer.build_table``;
- norm table: ``asymptotics._norm_rows``, the field's one table of packed
  product rows in 64-bit slots that ``operator_norm`` sums, with the
  product rows it reads;
- norms: ``operator_norm`` on 20 residuals r_V of V = W * S_k1 S_k2, k <
  4000, drawn from ``random.Random(q)`` and built before the clock starts,
  so that the time is the norms' and their tables';
- first oracle product: ``oracle_decompose`` on the two factors of the
  first product, its tables built included.

The record holds, per field and layer, the median and interquartile range
(IQR) of the seconds over the runs, and the median peak RSS of the
interpreters, with the git rev, the paths ``git status`` lists as changed,
a SHA-256 of ``src/modp_gl2/*.py``, the Python and numpy versions and
``nproc``. It is a record, not a gate: nothing reads it back.

Usage: python3 scripts/bench_layers.py [--q 25 49 64] [--runs 3]
                                       [--out BENCH_layers.json]
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # this checkout's package
from modp_gl2.params import Q_CAP, fields

LAYERS = ("product table", "first product", "V_n table", "gather tables",
          "compute_constants", "build_table", "norm table", "norms",
          "first oracle product")


def field(q):
    """The supported field with q elements."""
    for params in fields(Q_CAP):
        if params.q == q:
            return params
    raise SystemExit(f"q = {q} is not a supported field size: a prime "
                     f"power up to the cap {Q_CAP}")


def worker(q):
    """Time every layer at q from empty tables; print one JSON object."""
    from modp_gl2 import (RingElement, SymmFactor, compute_constants, memo,
                          multiply, operator_norm, reduce_product, residual)
    from modp_gl2.asymptotics import _norm_rows
    from modp_gl2.brauer import build_table, oracle_decompose
    from modp_gl2.principal import _diamond_columns, _series_gather
    from modp_gl2.ring import _product_row

    params = field(q)
    rng = random.Random(q)
    factors = [SymmFactor(rng.randrange(3980, 4000), rng.randrange(q - 1),
                          rng.randrange(params.f)) for _ in range(2)]
    residuals = [residual(multiply(
        RingElement.L(params, rng.randrange(q), rng.randrange(q - 1)),
        reduce_product(params, [SymmFactor(rng.randrange(4000),
                                           rng.randrange(q - 1),
                                           rng.randrange(params.f))
                                for _ in range(2)])))
        for _ in range(20)]
    layers = {
        "product table": lambda: [_product_row(params, a) for a in range(q)],
        "first product": lambda: reduce_product(params, factors),
        "V_n table": lambda: _diamond_columns(params),
        "gather tables": lambda: [_series_gather(params, alpha)
                                  for alpha in range(q - 1)],
        "compute_constants": lambda: compute_constants(params),
        "build_table": lambda: build_table(params, 0),
        "norm table": lambda: _norm_rows(params),
        "norms": lambda: [operator_norm(v) for v in residuals],
        "first oracle product": lambda: oracle_decompose(params, factors),
    }
    seconds = {}
    for name in LAYERS:
        memo.clear()
        gc.collect()
        start = time.perf_counter()
        layers[name]()
        seconds[name] = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"seconds": seconds, "peak_rss_mb": rss_mb}))


def summary(xs):
    """Median and IQR of a list of samples, rounded to 0.1 us."""
    q1, median, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                      if len(xs) > 1 else xs * 3)
    return {"median": round(median, 7), "iqr": round(q3 - q1, 7)}


def run(q, runs):
    params = field(q)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"),
                      os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--worker", str(q)], env=env, check=True,
                             capture_output=True, text=True).stdout
        samples.append(json.loads(out))
    return {
        "p, f": [params.p, params.f],
        "seconds": {name: summary([s["seconds"][name] for s in samples])
                    for name in LAYERS},
        "peak_rss_mb": round(statistics.median(
            s["peak_rss_mb"] for s in samples), 1),
    }


def git(*args):
    """The output of ``git args`` in this checkout, or None without git."""
    try:
        return subprocess.run(["git", "-C", ROOT, *args], check=True,
                              capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def git_rev():
    """``git describe`` of the checkout, ``-dirty`` when it has changes."""
    rev = git("describe", "--always", "--dirty", "--abbrev=12")
    return rev and rev.strip()


def git_dirty():
    """The paths ``git status --porcelain`` lists, so that two records of
    dirty checkouts of one commit say what each changed."""
    status = git("status", "--porcelain")
    if status is None:
        return None
    return [line[3:] for line in status.splitlines()]


def src_sha256():
    """SHA-256 over the package's sources, in name order: the code timed,
    whether or not it is committed."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "modp_gl2")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, nargs="+", default=[25, 49, 64])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_layers.json"))
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        worker(args.worker)
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    record = {
        "rev": git_rev(),
        "dirty": git_dirty(),
        "src_sha256": src_sha256(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "runs": args.runs,
        "fields": {},
    }
    for q in args.q:
        record["fields"][str(q)] = result = run(q, args.runs)
        times = ", ".join(f"{name} {s['median']:.4f} s"
                          for name, s in result["seconds"].items())
        print(f"q = {q}: {times}, peak RSS {result['peak_rss_mb']} MB")
    records = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            records = json.load(fh)
    records.append(record)
    with open(args.out, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
