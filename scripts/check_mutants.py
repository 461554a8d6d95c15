#!/usr/bin/env python3
"""Check that the tests still kill a fixed list of mutants of the library.

Each mutant is one (old, new) text edit in one file of ``src/modp_gl2``,
with the test files expected to catch it. For each mutant the script copies
``src/``, ``tests/`` and ``scripts/`` (whose references some tests load)
into a temporary directory, applies the edit to the
copy and runs ``pytest -x -q`` on those test files there, with the copy's
``src`` first on ``PYTHONPATH``. The real tree is never edited. Before the
mutants, the unmutated copy runs every listed test file once.

Exits 1 if the unmutated copy fails or imports the package from elsewhere,
if an ``old`` text does not occur exactly once in its file (so a refactor
that moves code must update its mutants), or if any mutant survives.

Usage: python3 scripts/check_mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    module: str  # file name in src/modp_gl2
    old: str
    new: str
    tests: tuple[str, ...]  # file names in tests/


MUTANTS = [
    # the one list of fields that every test and script walks
    Mutant("fields stopping below q_max", "params.py",
           "if p ** f <= q_max)", "if p ** f < q_max)", ("test_params.py",)),
    # the memo key: a table per field (p, f), shared across h
    Mutant("the key drops f", "memo.py",
           "key = ((first.p, first.f) if", "key = ((first.p,) if",
           ("test_ring.py",)),
    Mutant("a FieldParams keyed whole, so h-variants stop sharing",
           "memo.py", "key = ((first.p, first.f) if", "key = ((first,) if",
           ("test_memo.py", "test_ring.py")),
    # the oracle
    Mutant("base block off by one", "brauer.py",
           "base[:, d % bases]", "base[:, (d + 1) % bases]",
           ("test_brauer.py",)),
    # the block lister: the flipped nonsplit representative lists the same
    # conjugacy classes by their other exponent, so only the flat reference
    # listing tells it apart
    Mutant("nonsplit representative e > e q", "brauer.py",
           "if e < e * q % n2]", "if e > e * q % n2]", ("test_brauer.py",)),
    Mutant("nonsplit exponents of determinant d + 1", "brauer.py",
           "range(d, n2, qm1)", "range(d + 1, n2, qm1)", ("test_brauer.py",)),
    Mutant("central g^a with a = d for 2a = d", "brauer.py",
           "if 2 * a % qm1 == d]", "if a == d]", ("test_brauer.py",)),
    Mutant("split pairs with a <= b", "brauer.py",
           "if a < (d - a) % qm1]", "if a <= (d - a) % qm1]",
           ("test_brauer.py",)),
    Mutant("scales' minus sign dropped", "brauer.py",
           "table.powers[-np.outer(shift", "table.powers[np.outer(shift",
           ("test_brauer.py",)),
    Mutant("image shift (q + 1) s as q s", "brauer.py",
           "+ (q + 1) * shift[:, None]) % n2", "+ q * shift[:, None]) % n2",
           ("test_brauer.py",)),
    # the ring's row helpers and the Glover walk
    Mutant("theta sending q-1 to 0 in _twist", "ring.py",
           "(a if a == qm1 else a * pj % qm1, (x + m)",
           "(a * pj % qm1, (x + m)", ("test_ring.py", "test_reduction.py")),
    Mutant("x * pj + m for (x + m) * pj in _twist", "ring.py",
           "(x + m) * pj % qm1): c", "(x * pj + m) % qm1): c",
           ("test_ring.py", "test_reduction.py")),
    Mutant("twist off by one in _convolve", "ring.py",
           "rows[i // qm1]:\n            key = nb + (t + x) % qm1",
           "rows[i // qm1]:\n            key = nb + (t + x + 1) % qm1",
           ("test_ring.py",)),
    Mutant("_flat decoding swapped", "ring.py",
           "(key - key % qm1, key % qm1, c)",
           "(key % qm1 * qm1, key // qm1, c)",
           ("test_ring.py",)),
    Mutant("_expand's decode swapped", "ring.py",
           "{divmod(key, qm1): c", "{divmod(key, qm1)[::-1]: c",
           ("test_ring.py",)),
    Mutant("_labels decoding with nb % qm1", "ring.py",
           "{(nb // qm1, x): k", "{(nb % qm1, x): k",
           ("test_ring.py", "test_reduction.py")),
    Mutant("prev2 sign flipped in _glover_step", "ring.py",
           "acc[key] = get(key, 0) - c\n", "acc[key] = get(key, 0) + c\n",
           ("test_ring.py", "test_reduction.py")),
    Mutant("prev2's det twist (x + 1) as x in _glover_step", "ring.py",
           "key = nb + (x + 1) % qm1", "key = nb + x % qm1",
           ("test_ring.py", "test_reduction.py")),
    Mutant("_l_to_s_columns keeping its diagonal entry", "ring.py",
           " for nb, x, k in s_col if (nb, x) != (n * qm1, 0)]",
           " for nb, x, k in s_col]", ("test_ring.py",)),
    # the fast reduction and product
    Mutant("bisect_right for bisect_left", "principal.py",
           "from bisect import bisect_left",
           "from bisect import bisect_right as bisect_left",
           ("test_reduction.py",)),
    Mutant("no reflection", "reduction.py",
           "    if 2 * w < q:\n", "    if w < q:\n", ("test_reduction.py",)),
    Mutant("the fast remainder's sign dropped", "reduction.py",
           "_add_symm(params, terms, *rest, sign)",
           "_add_symm(params, terms, *rest)", ("test_reduction.py",)),
    Mutant("the fold without its sign", "reduction.py",
           "w + 1)), sign * e", "w + 1)), sign", ("test_reduction.py",)),
    # the column-word V_n table
    Mutant("BL's digit window starting at 0", "principal.py",
           "    if x >= 1:\n", "    if x >= 0:\n", ("test_principal.py",)),
    Mutant("closing condition c_(f-1) = c_(-1) dropped", "principal.py",
           "            if last != first:\n                continue\n", "",
           ("test_principal.py",)),
    Mutant("right-column q-1 term of ell dropped", "principal.py",
           "total = n - lam + last * qm1", "total = n - lam",
           ("test_principal.py",)),
    # the constants: row sums of [S_r] by one series per step past r = q.
    # The first three fail the dimension check or index past the series;
    # the S-hat one passes it, and only the references (the generic
    # operator_norm and check_fields' Glover recursion) tell it apart
    Mutant("series partner t_(q-1-c) off by one", "asymptotics.py",
           "t[c], t[qm1 - c])", "t[c], t[q - c])",
           ("test_asymptotics.py", "test_check_fields.py")),
    Mutant("row-sum buffer stride q for q+1", "asymptotics.py",
           "i = r % (q + 1)", "i = r % q",
           ("test_asymptotics.py", "test_check_fields.py")),
    Mutant("series index r mod q for r mod (q-1)", "asymptotics.py",
           "series[r % qm1]", "series[r % q]",
           ("test_asymptotics.py", "test_check_fields.py")),
    Mutant("S-hat_i from t_(i+N+1)", "asymptotics.py",
           "last[(period + i) % (q + 1)]", "last[(period + i + 1) % (q + 1)]",
           ("test_asymptotics.py", "test_check_fields.py")),
    Mutant("M_upper summing signed entries", "asymptotics.py",
           "sum(abs(k) for col", "sum(k for col",
           ("test_asymptotics.py", "test_cli.py")),
]


def copy_tree(dest):
    for name in ("src", "tests", "scripts"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__"))


def pytest(dest, tests):
    """Run ``pytest -x -q`` on the test files in the copy at ``dest``;
    return whether it passed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *[os.path.join("tests", name) for name in tests]],
        cwd=dest, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode == 0


def imports_copy(dest):
    """Whether the copy's interpreter loads ``modp_gl2`` from the copy, not
    from an installed package."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"))
    out = subprocess.run([sys.executable, "-c",
                          "import modp_gl2; print(modp_gl2.__file__)"],
                         cwd=dest, env=env, capture_output=True, text=True)
    return out.stdout.strip().startswith(os.path.join(dest, "src"))


def main():
    failures = 0
    for m in MUTANTS:
        with open(os.path.join(ROOT, "src", "modp_gl2", m.module)) as fh:
            count = fh.read().count(m.old)
        if count != 1:
            print(f"{m.name}: its text occurs {count} times in {m.module}, "
                  f"not once")
            failures += 1
    if failures:
        return 1

    with tempfile.TemporaryDirectory() as dest:
        copy_tree(dest)
        tests = sorted({name for m in MUTANTS for name in m.tests})
        if not imports_copy(dest):
            print("the copy does not import its own modp_gl2")
            return 1
        if not pytest(dest, tests):
            print(f"the unmutated copy fails {', '.join(tests)}")
            return 1
    print(f"unmutated copy passes {', '.join(tests)}")

    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as dest:
            copy_tree(dest)
            path = os.path.join(dest, "src", "modp_gl2", m.module)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(m.old, m.new))
            start = time.perf_counter()
            killed = not pytest(dest, m.tests)
        print(f"{'killed' if killed else 'SURVIVED'}: {m.name} "
              f"({m.module}, {', '.join(m.tests)}, "
              f"{time.perf_counter() - start:.1f} s)")
        failures += not killed
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
