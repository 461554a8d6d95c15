"""The benchmark's workloads: seeded inputs, the ops that run them, and the
exact checks on every output.

A workload has a cold phase (the first op on each field, from empty memo
tables) and passes. Every pass draws fresh inputs from the same strata of
input size, so passes cost about the same whatever the seed, and repeating
passes never turns into repeating inputs; only cli-batch reruns its commands,
to compare warm-cache output with cold. Why each workload exists is in
README.md beside this file.

The library is always called through the ``modp_gl2`` package namespace, so
that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable

import modp_gl2 as lib
from modp_gl2 import FieldParams, RingElement, SymmFactor

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 120
COLD_K_BAND = 20  # width of the band of k for the cold phase's products


class CheckFailed(Exception):
    """An op's output is wrong; ``counter`` names the failure counter, if any."""

    def __init__(self, message: str, counter: str | None = None):
        super().__init__(message)
        self.counter = counter


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # raises CheckFailed, or returns the output as canonical JSON data
    check: Callable[[object], object]


def check_class(elem: RingElement, dim: int):
    """Exact checks on the class of a real representation of dimension dim."""
    if elem.dimension() != Fraction(dim):
        raise CheckFailed(f"dimension {elem.dimension()} != {dim}")
    for label, c in elem.terms.items():
        if c.denominator != 1 or c < 0:
            raise CheckFailed(f"coefficient {c} at {label} is not a "
                              f"nonnegative integer")
    if elem.central_character() is None:
        raise CheckFailed("no central character")
    return elem.to_json_dict()


def _spec(factors) -> str:
    return ",".join(f"{k}:{m}:{j}" for k, m, j in factors)


def _dim(factors) -> int:
    return prod(k + 1 for k, _, _ in factors)


def _factors(rng, params, count, lo, hi):
    """count factors S_k(m)^[j] with k in [lo, hi) and random twists."""
    return [SymmFactor(rng.randrange(lo, hi), rng.randrange(params.q - 1),
                       rng.randrange(params.f)) for _ in range(count)]


class Workload:
    name = ""
    fields: tuple = ()
    tail_percentile = 90
    warmup_passes = 0  # passes after the cold phase that are not measured
    reference_task = "kernel"  # see worker.py

    def __init__(self, seed: int, root: str, nproc: int, tracer=None):
        self.seed = seed
        self.root = root
        self.nproc = nproc
        self.tracer = tracer

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def cold(self) -> list[Op]:
        raise NotImplementedError

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def cache_bytes(self) -> int:
        """Size of the on-disk cache the workload's commands share."""
        return 0

    def close(self) -> None:
        """Release what the workload created; merge child traces."""


class RingWarm(Workload):
    """Products of twisted symmetric powers over warm structure constants."""

    name = "ring-warm"
    fields = ((3, 3), (7, 2), (2, 6))  # q = 27, 49, 64
    K_MAX = 4000
    STRATA = 4
    HUGE_K = (10 ** 8, 10 ** 9)
    tail_percentile = 90
    # the cold phase fills the structure-constant tables only in part (one
    # product covers one central character per factor); the first pass
    # fills the rest, so that measured passes run over warm tables
    warmup_passes = 1

    def product(self, params, factors):
        dim = _dim(factors)
        return Op("ring.product", lambda: lib.reduce_product(params, factors),
                  lambda v: check_class(v, dim))

    def cold(self):
        # k from a narrow band, so that the cold phase, timed once per
        # interpreter, costs about the same for every seed
        rng = self.rng("cold")
        return [self.product(params, _factors(rng, params, 2,
                                              self.K_MAX - COLD_K_BAND,
                                              self.K_MAX))
                for params in (FieldParams(p, f) for p, f in self.fields)]

    def pass_ops(self, index):
        rng = self.rng(f"pass{index}")
        width = self.K_MAX // self.STRATA
        ops = []
        for p, f in self.fields:
            params = FieldParams(p, f)
            for s in range(self.STRATA):
                for count in (2, 3):
                    ops.append(self.product(params, _factors(
                        rng, params, count, s * width, (s + 1) * width)))
            factor = _factors(rng, params, 1, *self.HUGE_K)[0]
            ops.append(Op("ring.symm",
                          lambda params=params, factor=factor:
                          lib.reduce_symm(params, factor),
                          lambda v, k=factor.k: check_class(v, k + 1)))
        rng.shuffle(ops)
        return ops


class BoundsCold(Workload):
    """A cold compute_constants, then a check_theorem_bound grid."""

    name = "bounds-cold"
    # q = 16, h = 4: a cold compute_constants takes about 2 s here, so the
    # cold phase can be timed in five interpreters (at q = 25 it takes
    # 10-15 s, too long to time more than once in a run)
    fields = ((2, 4, 4),)
    K_MAX = 2000
    STRATA = 6
    # p95 falls inside the slowest twelfth of every pass. p98, the highest
    # with ten samples beyond, mostly timed host stalls of these 10-20 ms
    # ops: ten seeds' runs spread by 25% in a noisy hour, p95 by 12%
    tail_percentile = 95

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = FieldParams(*self.fields[0])

    def cold(self):
        def check(report):
            if not (report.A > 0 and report.M_upper > 0):
                raise CheckFailed(f"constants not positive: {report}")
            return report.to_json_dict()

        return [Op("asymptotics.constants",
                   lambda: lib.compute_constants(self.params), check)]

    def pass_ops(self, index):
        # the shape of scripts/run_bound_sweep.py: W = L_n(0) against
        # [S_k] and [S_k, S_k^[1]] on a grid of k
        rng = self.rng(f"pass{index}")
        params = self.params
        width = self.K_MAX // self.STRATA
        ops = []
        for s in range(self.STRATA):
            for count in (1, 2):
                k = rng.randrange(1 + s * width, 1 + (s + 1) * width)
                factors = [SymmFactor(k, 0, j % params.f)
                           for j in range(count)]
                w = RingElement.L(params, rng.randrange(params.q), 0)
                ops.append(Op("asymptotics.bound",
                              lambda w=w, factors=factors:
                              lib.check_theorem_bound(params, w, factors),
                              self.check_bound))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def check_bound(report):
        if not report.satisfied:
            raise CheckFailed(f"bound violated: {report.to_json_dict()}")
        return report.to_json_dict()


class Crosscheck(Workload):
    """Fast ring route, slow recursion and Brauer oracle must agree."""

    name = "crosscheck"
    # q = 13, 16: the cold phase, mostly build_table, takes about 3 s here
    # and can be timed in five interpreters (at q = 25 build_table alone
    # takes 6-8 s). The two fields' ops cost about the same, so the
    # 3-factor products are the slowest tenth of every pass and p94 falls
    # inside them, not on the edge between two fields' ops.
    fields = ((13, 1), (2, 4))
    PRODUCT_K = 300
    SWEEP_START = (150, 250)
    SWEEP_LEN = 8
    tail_percentile = 94

    def routes(self, params, factors):
        def run():
            return (lib.reduce_product(params, factors),
                    lib.reduce_product(params, factors, method="slow"),
                    lib.oracle_decompose(params, factors))

        def check(out):
            fast, slow, oracle = out
            if fast != slow:
                raise CheckFailed(f"fast != slow for {factors}",
                                  "reduction.fast_slow_mismatches")
            if fast != oracle:
                raise CheckFailed(f"ring != oracle for {factors}",
                                  "brauer.ring_oracle_mismatches")
            return check_class(fast, _dim(factors))

        return Op("crosscheck.product", run, check)

    def sweep(self, params, k):
        def check(out):
            fast, slow = out
            if fast != slow:
                raise CheckFailed(f"fast != slow at k = {k}",
                                  "reduction.fast_slow_mismatches")
            return check_class(fast, k + 1)

        return Op("crosscheck.sweep",
                  lambda: (lib.reduce_symm(params, k, method="fast"),
                           lib.reduce_symm(params, k, method="slow")),
                  check)

    def cold(self):
        rng = self.rng("cold")  # a narrow band of k, as in RingWarm.cold
        return [self.routes(params, _factors(rng, params, 2,
                                             self.PRODUCT_K - COLD_K_BAND,
                                             self.PRODUCT_K))
                for params in (FieldParams(p, f) for p, f in self.fields)]

    def pass_ops(self, index):
        rng = self.rng(f"pass{index}")
        half = self.PRODUCT_K // 2
        ops = []
        for p, f in self.fields:
            params = FieldParams(p, f)
            # ascending k, the traffic of test_fast_equals_slow
            start = rng.randrange(*self.SWEEP_START)
            ops += [self.sweep(params, k)
                    for k in range(start, start + self.SWEEP_LEN)]
            ops += [self.routes(params, _factors(
                        rng, params, 2 + s, s * half, (s + 1) * half))
                    for s in range(2)]
        return ops


class CliBatch(Workload):
    """The README's CLI commands, some scaled up, as fresh subprocesses that
    share one cache file. The cold pass starts without the file; every later
    pass reruns the same commands and must print the same bytes."""

    name = "cli-batch"
    fields = ((3, 1), (3, 2), (5, 1), (7, 2), (2, 4))
    tail_percentile = 60
    # most of a command's time is interpreter start and imports, which an
    # empty interpreter's start tracks better than the kernel does
    reference_task = "interpreter"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        scratch = os.path.join(self.root, ".perfbench_out")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-batch-", dir=scratch)
        self.cache_path = os.path.join(self.tmp, "cache.json")
        self.commands = self.make_commands(self.rng("commands"))
        self.cold_stdout = {}
        self.trace_files = []

    def make_commands(self, rng):
        """(argv after the global flags, check of the parsed stdout)."""
        q3 = ["--p", "3", "--f", "1"]
        p3 = FieldParams(3, 1)
        p49 = FieldParams(7, 2)
        p16 = FieldParams(2, 4)
        k = rng.randrange(10 ** 6)
        small = _factors(rng, p3, 2, 0, 20)
        big = _factors(rng, p49, 2, 3000, 4000)
        oracle16 = _factors(rng, p16, 2, 0, 100)
        i = rng.randrange(2)
        n, m = rng.randrange(3), rng.randrange(2)
        type_json, weights_json, general_dim = self.write_bm_inputs(rng)
        general_k = rng.randrange(50)
        rho = [str(rng.randrange(4)), str(rng.randrange(4))]
        return [
            (q3 + ["decompose", "--symm", str(k)], self.element(k + 1)),
            (q3 + ["decompose", "--factors", _spec(small)],
             self.element(_dim(small))),
            (["--p", "3", "--f", "2", "--format", "pretty",
              "principal-series", "--n", str(rng.randrange(8)), "--explain"],
             self.nonempty),
            (["--p", "3", "--f", "2", "--format", "csv", "omega", "--all"],
             self.omega(FieldParams(3, 2))),
            (q3 + ["s-alpha", "--i", str(i)], self.s_alpha(i)),
            (["--p", "3", "--f", "2", "--h", "2", "constants"],
             self.constants),
            (q3 + ["verify-bound", "--w", f"[L_{n}({m})]", "--factors",
                   f"{rng.randrange(1, 200)}:0"], self.bound),
            (q3 + ["oracle-check", "--factors", _spec(small)],
             self.oracle(_dim(small))),
            (["--p", "5", "--f", "1", "--format", "csv", "bm", "qp",
              "--rho-n", rho[0], "--rho-m", rho[1], "--a-max", "100"],
             self.bm_qp(101)),
            (q3 + ["bm", "general", "--type-json", type_json,
                   "--weights-json", weights_json, "--factors",
                   f"{general_k}:0:0"], self.bm_general(general_dim
                                                       * (general_k + 1))),
            # scaled up
            (["--p", "7", "--f", "2", "decompose", "--factors", _spec(big)],
             self.element(_dim(big))),
            (["--p", "2", "--f", "4", "constants"], self.constants),
            (["--p", "2", "--f", "4", "oracle-check", "--factors",
              _spec(oracle16)], self.oracle(_dim(oracle16))),
            (["--p", "5", "--f", "1", "--jobs", str(self.nproc), "--format",
              "csv", "bm", "qp", "--rho-n", rho[0], "--rho-m", rho[1],
              "--a-max", "3000"], self.bm_qp(3001)),
        ]

    def write_bm_inputs(self, rng):
        # two irreducibles of q = 3 with equal central character n + 2m
        # mod 2, so the type class is valid; dim L_n = n + 1 at f = 1
        labels = [(n, m) for n in range(3) for m in range(2)]
        a = rng.choice(labels)
        b = rng.choice([x for x in labels if x[0] % 2 == a[0] % 2 and x != a])
        terms = [{"n": n, "m": m, "coeff": "1/1"} for n, m in (a, b)]
        dim = a[0] + b[0] + 2
        type_data = {"dim": dim, "label": "bench",
                     "class": {"p": 3, "f": 1, "basis": "L", "terms": terms}}
        weights = [{"n": rng.randrange(3), "m": rng.randrange(2),
                    "mu": rng.randrange(1, 4)} for _ in range(2)]
        paths = []
        for name, data in (("type.json", type_data),
                           ("weights.json", weights)):
            path = os.path.join(self.tmp, name)
            with open(path, "w") as fh:
                json.dump(data, fh)
            paths.append(path)
        return paths[0], paths[1], dim

    # -- checks on parsed stdout ------------------------------------------

    @staticmethod
    def element(dim):
        return lambda out: check_class(
            RingElement.from_json_dict(json.loads(out)), dim)

    @staticmethod
    def nonempty(out):
        if not out.strip():
            raise CheckFailed("empty output")
        return out

    @staticmethod
    def omega(params):
        def check(out):
            rows = list(csv.DictReader(io.StringIO(out)))
            for n in range(params.q):
                if n == 0:
                    expected = 2 ** params.f - 1
                else:
                    r_n = params.digits(n).count(params.p - 1)
                    expected = 2 ** (params.f - r_n)
                if rows[n] != {"n": str(n), "omega": str(expected)}:
                    raise CheckFailed(f"omega row {rows[n]} != {expected}")
            return out
        return check

    @staticmethod
    def s_alpha(i):
        def check(out):
            elem = RingElement.from_json_dict(json.loads(out))
            if elem.dimension() != 1 or elem.central_character() != i:
                raise CheckFailed(f"S_alpha {i}: dimension {elem.dimension()}"
                                  f", central character "
                                  f"{elem.central_character()}")
            return out
        return check

    @staticmethod
    def constants(out):
        data = json.loads(out)
        if not all(Fraction(data[key]) > 0 for key in ("A", "M_upper", "C")):
            raise CheckFailed(f"constants not positive: {data}")
        return out

    @staticmethod
    def bound(out):
        data = json.loads(out)
        if not (data["satisfied_theorem"] and data["satisfied_corollary"]):
            raise CheckFailed(f"bound violated: {data}")
        return out

    @staticmethod
    def oracle(dim):
        def check(out):
            data = json.loads(out)
            ring = RingElement.from_json_dict(data["ring"])
            if not data["agree"] or ring != RingElement.from_json_dict(
                    data["oracle"]):
                raise CheckFailed("ring != oracle",
                                  "brauer.ring_oracle_mismatches")
            check_class(ring, dim)
            return out
        return check

    @staticmethod
    def bm_qp(rows_expected):
        def check(out):
            rows = list(csv.DictReader(io.StringIO(out)))
            if len(rows) != rows_expected:
                raise CheckFailed(f"{len(rows)} rows, not {rows_expected}")
            for row in rows:
                mu = int(row["mu_exact"])
                if mu < 0 or (row["gate"] == "False" and mu != 0):
                    raise CheckFailed(f"bad multiplicity in {row}")
                gap = abs(mu - Fraction(row["mu_asymptotic"]))
                if gap != Fraction(row["abs_error"]):
                    raise CheckFailed(f"abs_error wrong in {row}")
            return out
        return check

    @staticmethod
    def bm_general(dim):
        def check(out):
            data = json.loads(out)
            mu = data["mu_aut"]
            if not (isinstance(mu, int) and mu >= 0 and data["dim"] == dim
                    and Fraction(data["ratio"]) == Fraction(mu, dim)):
                raise CheckFailed(f"bad bm general output {data}")
            return out
        return check

    # -- ops ----------------------------------------------------------------

    def launch(self, argv):
        argv = ["--cache-path", self.cache_path] + argv
        if self.tracer is None:
            cmd = [sys.executable, "-m", "modp_gl2.cli"] + argv
        else:
            out = os.path.join(self.tmp, f"trace-{self.tracer.op_id}.json")
            self.trace_files.append(out)
            cmd = [sys.executable, os.path.join(HERE, "cli_launcher.py"), out,
                   str(self.tracer.op_id)] + argv
        return subprocess.run(cmd, capture_output=True, cwd=self.tmp,
                              timeout=CLI_TIMEOUT_S)

    def op(self, index, cold):
        argv, check_stdout = self.commands[index]

        def check(proc):
            if proc.returncode != 0:
                raise CheckFailed(f"exit {proc.returncode}: "
                                  f"{proc.stderr.decode()[-500:]}",
                                  "cli.nonzero_exits")
            if cold:
                self.cold_stdout[index] = proc.stdout
            elif proc.stdout != self.cold_stdout.get(index):
                raise CheckFailed("warm-cache stdout differs from cold")
            return check_stdout(proc.stdout.decode())

        subcommand = next(a for a in argv[::2] if not a.startswith("--"))
        return Op(f"cli.{subcommand}", lambda: self.launch(argv), check)

    def cold(self):
        return [self.op(i, True) for i in range(len(self.commands))]

    def pass_ops(self, index):
        return [self.op(i, False) for i in range(len(self.commands))]

    def cache_bytes(self):
        return os.path.getsize(self.cache_path) \
            if os.path.exists(self.cache_path) else 0

    def close(self):
        if self.tracer is not None:
            for path in self.trace_files:
                with open(path) as fh:
                    self.tracer.merge(json.load(fh))
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (RingWarm, BoundsCold, Crosscheck, CliBatch)}
