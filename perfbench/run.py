#!/usr/bin/env python3
"""Benchmark of the modp-gl2 exact calculator.

Usage (from the repository root):

    python3 perfbench/run.py --workload ring-warm --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Every run starts fresh interpreters (worker.py), with PYTHONPATH at this
checkout's ``src`` and ``MODP_GL2_CACHE`` unset. With ``--trace 0`` it
prints the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs
the cold phase and one pass twice, untraced and traced, and prints the
per-layer metrics. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller report, with
the run environment and the SHA-256 of the outputs, goes to stderr and to
``.perfbench_out/`` in the checkout. README.md beside this file says why each
workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("ring-warm", "bounds-cold", "crosscheck", "cli-batch")
SETUP_SAMPLES = 5  # set-up is timed in this many fresh interpreters
# the cold phase is timed in this many; cli-batch's (about 8 s) is too long
# to repeat within the run
COLD_SAMPLES = {"ring-warm": 5, "bounds-cold": 5, "crosscheck": 5}
IMPORT_SAMPLES = 5
DEADLINE_S = 170  # a run must end within 180 s
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# traced functions, each reported as NAME.calls and NAME.self_s
TIMED = (
    "ring.multiply",
    "ring.structure_constants",
    "ring.convert_basis",
    "ring.symm_to_L",
    "principal.diamond_decompose",
    "principal.omega",
    "reduction.reduce_symm.fast",
    "reduction.reduce_symm.slow",
    "reduction.reduce_product",
    "asymptotics.compute_constants",
    "asymptotics.s_alpha",
    "asymptotics.operator_norm",
    "asymptotics.check_theorem_bound",
    "asymptotics.residual",
    "brauer.build_table",
    "brauer.oracle_decompose",
    "brauer.solve",
    "bm.mu_aut",
    "bm.a_sigma",
    "cache.load_cache",
    "cache.save_cache",
    "cli.main",
)
FAILURE_COUNTERS = ("brauer.oracle_errors", "brauer.ring_oracle_mismatches",
                    "reduction.fast_slow_mismatches", "cli.nonzero_exits")


class RunError(Exception):
    """The benchmark could not produce a result."""


class Clock:
    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S

    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError(f"out of time ({DEADLINE_S} s)")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MODP_GL2_CACHE", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # identical dict/set orders, exact counts
    # numpy's BLAS runs in the calling thread only. With a second BLAS
    # thread, the one numpy user (brauer's solve) leaves it spinning on the
    # other vCPU after every call, which slowed the single Python thread that
    # does the work by up to 1.7x on the 2-vCPU benchmark machine, and by an
    # amount that varied from run to run
    for name in BLAS_THREADS:
        env[name] = "1"
    return env


def worker(clock, workload, seed, *mode) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), repr(time.monotonic()), *mode]
    # its own process group, so that a timeout also stops its CLI children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=clock.left())
    except (subprocess.TimeoutExpired, RunError):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"worker {' '.join(mode)} ran out of time")
    sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"worker {' '.join(mode)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, pct) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(clock, workload, seed, seconds):
    def extra(count, *mode):
        return [worker(clock, workload, seed, *mode) for _ in range(count)]

    colds = COLD_SAMPLES.get(workload, 1) - 1
    setups = SETUP_SAMPLES - 1 - colds
    # the repeated samples go half before and half after the main run, so
    # that their median spans the run's time and not one moment of it
    samples = extra(colds // 2, "--passes", "0") \
        + extra(setups // 2, "--setup-only")
    run = worker(clock, workload, seed, "--seconds", str(seconds))
    samples += [run] + extra(colds - colds // 2, "--passes", "0") \
        + extra(setups - setups // 2, "--setup-only")
    setups = [s["setup_s"] for s in samples]
    colds = [s["first_op_s"] for s in samples if "first_op_s" in s]
    passes = run["latencies"][run["warmup_passes"]:]
    lat = [x for one_pass in passes for x in one_pass]
    raw = [x for one_pass in run["raw_latencies"][run["warmup_passes"]:]
           for x in one_pass]
    pct = run["tail_percentile"]
    tail = percentile(lat, pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "first_op_s": (statistics.median(colds), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    extra = {
        "failed_frac": run["failed"] / run["attempted"],
        "tail_percentile": pct,
        "samples": len(lat),
        "samples_beyond_tail": sum(x > tail for x in lat),
        "highest_percentile_with_10_beyond":
            100 * (len(lat) - 10) / len(lat),
        "passes": len(passes),
        "setup_samples_s": setups,
        "first_op_samples_s": colds,
        "pass_latencies_s": passes,
        # the same measurements in seconds, before scaling to reference
        # seconds, and the reference times themselves
        "raw": {
            "setup_s": statistics.median(s["raw_setup_s"] for s in samples),
            "first_op_s": statistics.median(
                s["raw_first_op_s"] for s in samples
                if "raw_first_op_s" in s),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": percentile(raw, pct) * 1e3,
            "ref_s": statistics.median(r for s in samples
                                       for r in s["ref_s"]),
        },
    }
    return run, metrics, extra


def per_layer(clock, workload, seed, trace_file):
    plain = worker(clock, workload, seed, "--passes", "1")
    run = worker(clock, workload, seed, "--passes", "1",
                 "--trace-out", trace_file)
    traced_s = run["first_op_s"] + sum(run["latencies"][0])
    plain_s = plain["first_op_s"] + sum(plain["latencies"][0])
    timed = run["trace"]["timed"]
    counts = run["trace"]["counts"]
    metrics = {"trace.overhead_frac": (traced_s / plain_s - 1, "ratio")}
    for name in TIMED:
        calls, self_s = timed.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["ring.multiply.term_pairs"] = (
        counts.get("ring.multiply.term_pairs", 0), "count")
    metrics["brauer.table_cond"] = (max(run["trace"]["conds"], default=0.0),
                                    "ratio")
    metrics["cache.file_bytes"] = (run["cache_bytes"], "bytes")
    imports = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import modp_gl2.cli"],
                       check=True, cwd=ROOT, env=child_env(),
                       timeout=clock.left())
        imports.append(time.perf_counter() - start)
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    for name in FAILURE_COUNTERS:
        metrics[name] = (run["failures"].get(name, 0), "count")
    extra = {"failed_frac": run["failed"] / run["attempted"],
             "untraced_digest": plain["digest"],
             "trace_file": os.path.relpath(trace_file, ROOT)}
    return run, metrics, extra


def environment(run, seed) -> dict:
    git_rev = None  # a checkout without .git has none; src_sha256 stands in
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and os.path.realpath(lines[0]) == \
                os.path.realpath(ROOT):
            git_rev = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "modp_gl2")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"git_rev": git_rev, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": run["numpy"],
            "nproc": run["nproc"], "seed": seed, "fields": run["fields"]}


def measure(workload, seed, seconds, trace) -> dict:
    clock = Clock()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    if trace:
        run, metrics, extra = per_layer(clock, workload, seed,
                                        stem + "-spans.json")
    else:
        run, metrics, extra = end_to_end(clock, workload, seed, seconds)
    report = {
        "workload": workload,
        "environment": environment(run, seed),
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "output_sha256": run["digest"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        **extra,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "modp_gl2", "__init__.py")):
        print(f"error: no modp_gl2 package under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [measure(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except (RunError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        summary = {k: v for k, v in report.items() if k != "metrics"}
        print(json.dumps(summary), file=sys.stderr)
        for name, metric in report["metrics"].items():
            line = f"{report['workload']:12} {name:42} {metric['value']:.6g} " \
                   f"{metric['unit']}"
            print(line, file=sys.stderr if len(reports) == 1 else sys.stdout)
        if len(reports) > 1:
            print(f"{report['workload']:12} {'failed_frac':42} "
                  f"{report['failed_frac']:.6g} 1")
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {k: v for r in reports for k, v in r["metrics"].items()}
        if len(reports) == 1 else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
