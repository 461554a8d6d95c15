"""Call tracing for the traced benchmark run, installed from outside the package.

``install()`` replaces each traced public function of ``modp_gl2`` by a
timing wrapper in every loaded ``modp_gl2`` module that binds it (``multiply``
is bound in ``ring``, ``reduction``, ``asymptotics``, ``bm``, ``cli`` and the
package itself). Every call adds to per-function counters: calls and self time,
which is the call's duration minus the time its traced callees took. Calls of
functions that are not leaves also leave a span (id, parent id, op id, name,
start, end, self time) in memory; leaves such as ``structure_constants`` run
once per term pair and are only counted. ``dump()`` writes everything out when
the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np

SPAN, LEAF = "span", "leaf"

# module -> {public function: kind}; the layers of the benchmark.
TRACED = {
    "ring": {"multiply": SPAN, "structure_constants": LEAF,
             "convert_basis": LEAF, "symm_to_L": LEAF},
    "principal": {"diamond_decompose": LEAF, "omega": LEAF},
    "reduction": {"reduce_symm": SPAN, "reduce_product": SPAN},
    "asymptotics": {"compute_constants": SPAN, "s_alpha": LEAF,
                    "operator_norm": SPAN, "check_theorem_bound": SPAN,
                    "residual": SPAN},
    "brauer": {"build_table": SPAN, "oracle_decompose": SPAN},
    "bm": {"mu_aut": SPAN, "a_sigma": SPAN},
    "cache": {"load_cache": SPAN, "save_cache": SPAN},
    "cli": {"main": SPAN},
}


class Tracer:
    """Counters and spans of one process; safe for the CLI's worker threads."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []  # one state per thread, merged by result()
        self._ids = itertools.count(1)
        self.op_id = None
        self.tables = {}  # id -> BrauerTable built here
        self.conds = []  # condition numbers of tables built in child processes

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            # frames: [callee time, span id]; the bottom one is the root
            st = {"stack": [[0.0, None]], "timed": {}, "counts": {},
                  "spans": []}
            self._local.state = st
            self._threads.append(st)  # list.append is atomic
        return st

    def add(self, name, amount):
        """Add to a plain counter, such as ``ring.multiply.term_pairs``."""
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + amount

    def call(self, name, kind, fn, args, kwargs):
        st = self._state()
        stack = st["stack"]
        span_id = next(self._ids) if kind == SPAN else stack[-1][1]
        frame = [0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            stack[-1][0] += duration
            self_s = duration - frame[0]
            calls, total = st["timed"].get(name, (0, 0.0))
            st["timed"][name] = (calls + 1, total + self_s)
            if kind == SPAN:
                st["spans"].append((span_id, stack[-1][1], self.op_id, name,
                                    start, end, self_s))

    def op(self, op_id, name, fn):
        """Run one benchmark op as the root span of its library calls."""
        self.op_id = op_id
        return self.call(name, SPAN, fn, (), {})

    def merge(self, dumped):
        """Fold in what ``dump()`` wrote in another process."""
        result = dumped["result"]
        self._threads.append({
            "timed": {k: tuple(v) for k, v in result["timed"].items()},
            "counts": result["counts"], "spans": dumped["spans"]})
        self.conds.extend(result["conds"])

    def result(self):
        """Merged counters: ``{name: [calls, self_s]}``, ``{name: count}``
        and the condition number of each Brauer table built."""
        timed, counts = {}, {}
        for st in list(self._threads):
            for name, (calls, self_s) in st["timed"].items():
                before = timed.get(name, (0, 0.0))
                timed[name] = (before[0] + calls, before[1] + self_s)
            for name, count in st["counts"].items():
                counts[name] = counts.get(name, 0) + count
        conds = self.conds + [
            float(np.linalg.cond(np.asarray(t.matrix, dtype=complex)))
            for t in self.tables.values()]
        return {"timed": {k: list(v) for k, v in timed.items()},
                "counts": counts, "conds": conds}

    def spans(self):
        return [s for st in list(self._threads) for s in st["spans"]]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"result": self.result(), "spans": self.spans()}, fh)


def _wrapper(tracer, name, kind, fn):
    if name == "reduction.reduce_symm":
        def label(args, kwargs):
            method = kwargs.get("method", args[4] if len(args) > 4 else "fast")
            return f"{name}.{method}"
    else:
        def label(args, kwargs):
            return name

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if name == "ring.multiply":
            tracer.add("ring.multiply.term_pairs",
                       len(args[0].terms) * len(args[1].terms))
        result = tracer.call(label(args, kwargs), kind, fn, args, kwargs)
        if name == "brauer.build_table":
            tracer.tables[id(result)] = result
        return result

    return wrapped


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every loaded ``modp_gl2`` module."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "modp_gl2" or key.startswith("modp_gl2.")]
    for short, functions in TRACED.items():
        home = sys.modules.get(f"modp_gl2.{short}")
        if home is None:
            continue
        for attr, kind in functions.items():
            original = getattr(home, attr)
            wrapped = _wrapper(tracer, f"{short}.{attr}", kind, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    brauer = sys.modules.get("modp_gl2.brauer")
    if brauer is not None:
        table = brauer.BrauerTable
        table.solve = _wrapper(tracer, "brauer.solve", SPAN, table.solve)
