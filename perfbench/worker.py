"""One workload in one fresh interpreter; run by run.py, not by hand.

Usage: worker.py WORKLOAD SEED T0 (--setup-only | --seconds S | --passes N)
                 [--trace-out FILE]

T0 is the parent's ``time.monotonic()`` just before it started this
interpreter, so that set-up time counts interpreter start and imports.
After set-up the worker runs the cold phase, then whole passes: N of them,
or the workload's warm-up passes and then as many as start within S seconds.
Prints one JSON object with the measurements as its last stdout line.

Every timed interval is reported twice: in seconds, and in reference
seconds. The cores of the benchmark machine are shared, and its speed drifts
by up to 2x over tens of seconds, for any code. So the worker also times a
fixed reference task (``reference_s``) between ops, at least every
``REF_EVERY_S`` seconds, and scales each interval by the task's nominal time
over the mean of its times taken near the interval (see ``Reference.scale``).
The task is a pure-Python kernel, or for a workload whose ops are CLI
commands, the start of an empty interpreter. It never touches ``modp_gl2``:
a change to the library moves reference seconds as it moves seconds, while a
change in the machine's speed cancels out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# reference task -> how long it takes on the benchmark machine (an Intel
# Xeon KVM guest, Python 3.11) when it is quiet
REF_NOMINAL_S = {"kernel": 0.004, "interpreter": 0.055}
REF_EVERY_S = 0.5
REF_REPEATS = {"kernel": 10, "interpreter": 1}
# an interval is scaled by the references taken within this many seconds of
# it, or within half its length if that is longer
REF_REACH_S = 1.0


def _reference_kernel():
    """Fixed work shaped like the library's: Fractions, dicts and ints."""
    x = Fraction(1)
    counts = {}
    for i in range(1, 400):
        x = x * Fraction(i % 97 + 1, i % 89 + 1) + Fraction(1, i)
        if x.denominator > 10 ** 12:
            x = Fraction(x.numerator % 1000 + 1, 7)
        counts[i % 211] = counts.get(i % 211, 0) + i * i
    total = 0
    for i in range(20000):
        total += i * i % 7
    return x, total, len(counts)


def reference_s(task: str) -> float:
    """The mean time of the reference task over its REF_REPEATS runs. The
    kernel runs with the garbage collector off, so that the library's heap
    cannot slow it. A mean and not a median: the ops absorb the host's brief
    stalls too."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REF_REPEATS[task]):
            if task == "kernel":
                _reference_kernel()
            else:
                subprocess.run([sys.executable, "-c", "pass"], check=True)
        return (time.perf_counter() - start) / REF_REPEATS[task]
    finally:
        if enabled:
            gc.enable()


class Reference:
    """The reference times taken in one worker, and the scaling they give."""

    def __init__(self, task: str):
        self.task = task
        self.taken = []  # (perf_counter at the middle, reference seconds)

    def take(self):
        start = time.perf_counter()
        value = reference_s(self.task)
        self.taken.append(((start + time.perf_counter()) / 2, value))

    def due(self) -> bool:
        return time.perf_counter() - self.taken[-1][0] >= REF_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """The interval's length in reference seconds. A long cold op is
        scaled by references from before and after it, since none can be
        taken inside it."""
        reach = max(REF_REACH_S, (end - start) / 2)
        near = [v for t, v in self.taken if start - reach <= t <= end + reach]
        if not near:
            middle = (start + end) / 2
            near = [min(self.taken, key=lambda tv: abs(tv[0] - middle))[1]]
        return (end - start) * REF_NOMINAL_S[self.task] / statistics.mean(near)


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("t0", type=float)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--passes", type=int)
    parser.add_argument("--trace-out")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    import modp_gl2

    src = os.path.join(ROOT, "src", "modp_gl2")
    if os.path.dirname(os.path.abspath(modp_gl2.__file__)) != src:
        print(f"error: imported {modp_gl2.__file__}, not the package under "
              f"{src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed

    tracer = None
    if args.trace_out:
        import modp_gl2.cli  # noqa: F401  (so that cli.* is wrapped too)
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    nproc = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload](args.seed, ROOT, nproc, tracer)
    try:
        cold = workload.cold()
        first_pass = workload.pass_ops(0)
        raw_setup_s = time.monotonic() - args.t0
        setup_end = time.perf_counter()  # the same clock as monotonic on Linux
        ref = Reference(workload.reference_task)
        ref.take()
        setup = (setup_end - raw_setup_s, setup_end)
        if args.setup_only:
            print(json.dumps({"setup_s": ref.scale(*setup),
                              "raw_setup_s": raw_setup_s,
                              "ref_s": [v for _, v in ref.taken]}))
            return 0
        out = Runner(tracer, CheckFailed, modp_gl2.OracleError, ref)
        cold_phase = out.run(cold, keep=True)
        phases = []  # one list of op intervals per pass
        warmup = workload.warmup_passes
        # N passes; or the warm-up passes, then passes until S seconds have
        # gone by since the warm-up ended
        while len(phases) < args.passes if args.passes is not None else \
                len(phases) <= warmup \
                or time.perf_counter() - start < args.seconds:
            if len(phases) == warmup:
                start = time.perf_counter()
            ops = workload.pass_ops(len(phases)) if phases else first_pass
            phases.append(out.run(ops, keep=not phases))
        cache_bytes = workload.cache_bytes()
    finally:
        workload.close()

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" \
        else resource.RUSAGE_SELF
    result = {
        "setup_s": ref.scale(*setup),
        "raw_setup_s": raw_setup_s,
        "first_op_s": sum(ref.scale(*iv) for iv in cold_phase),
        "raw_first_op_s": sum(end - start for start, end in cold_phase),
        # per pass, the latency of each op in reference seconds, and in seconds
        "latencies": [[ref.scale(*iv) for iv in phase] for phase in phases],
        "raw_latencies": [[end - start for start, end in phase]
                          for phase in phases],
        "ref_s": [v for _, v in ref.taken],
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "digest": hashlib.sha256(json.dumps(
            out.outputs, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "tail_percentile": workload.tail_percentile,
        "warmup_passes": workload.warmup_passes,
        "fields": [list(f) for f in workload.fields],
        "nproc": nproc,
        "numpy": sys.modules["numpy"].__version__,
        "cache_bytes": cache_bytes,
    }
    if tracer is not None:
        tracer.dump(args.trace_out)
        result["trace"] = tracer.result()
    print(json.dumps(result))
    return 0


class Runner:
    """Times ops one after another, checks each output exactly and counts
    failures; a failure is reported on stderr, never dropped."""

    def __init__(self, tracer, check_failed, oracle_error, ref):
        self.tracer = tracer
        self.check_failed = check_failed
        self.oracle_error = oracle_error
        self.ref = ref
        self.attempted = self.failed = 0
        self.failures = {}
        self.outputs = []  # canonical outputs of the cold phase and pass 0

    def fail(self, counter, message):
        self.failed += 1
        if counter:
            self.failures[counter] = self.failures.get(counter, 0) + 1
        print(f"FAILED op {self.attempted - 1}: {message}", file=sys.stderr)
        return None

    def run(self, ops, keep):
        """Run ops in order; return the (start, end) of each, a reference
        time being taken between ops when one is due, and after the last."""
        intervals = []
        for op in ops:
            if self.ref.due():
                self.ref.take()
            op_id = self.attempted
            self.attempted += 1
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    output = op.run()
                else:
                    output = self.tracer.op(op_id, f"op.{op.kind}", op.run)
            except Exception as exc:  # an op boundary: record and go on
                intervals.append((start, time.perf_counter()))
                counter = "brauer.oracle_errors" \
                    if isinstance(exc, self.oracle_error) else None
                canonical = self.fail(counter, traceback.format_exc())
            else:
                intervals.append((start, time.perf_counter()))
                try:
                    canonical = op.check(output)
                except self.check_failed as exc:
                    canonical = self.fail(exc.counter, f"{op.kind}: {exc}")
                except Exception:  # malformed output: a failure as well
                    canonical = self.fail(None, traceback.format_exc())
            if keep:
                self.outputs.append([op.kind, canonical])
        self.ref.take()
        return intervals


if __name__ == "__main__":
    sys.exit(main())
