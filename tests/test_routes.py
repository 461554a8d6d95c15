"""What the routes that must agree share: the package functions each route
calls, traced from empty memo tables with ``sys.setprofile`` on this
process, intersected pairwise and held to a written ledger. A change that
widens an overlap edits the ledger and says why."""

import sys
from pathlib import Path

import pytest

import modp_gl2
from modp_gl2 import (FieldParams, SymmFactor, memo, oracle_decompose,
                      reduce_product, reduce_symm)

PACKAGE = str(Path(modp_gl2.__file__).parent)


def _called(route) -> set[str]:
    """The package functions ``route()`` calls from empty memo tables, as
    "module.function"; comprehensions and lambdas are left out."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(PACKAGE)
                and not code.co_name.startswith("<")):
            seen.add(f"{Path(code.co_filename).stem}.{code.co_name}")

    previous = sys.getprofile()
    memo.clear()
    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(previous)
        memo.clear()
    return seen


# every route reads field parameters and memo tables and builds its answer
# with the trusted element constructor
EVERY = {"memo.wrapper", "params.digits", "params.q", "ring._element",
         "ring._fill"}
# the base-change columns, built by the Glover walk on flat rows: both
# fast routes read them, and the slow routes continue the walk; the fast
# routes' _labels comes from the gather tables of principal
GLOVER = {"params.from_digits", "ring._convolve", "ring._flat",
          "ring._glover_step", "ring._l1_rows", "ring._labels",
          "ring._s_to_l_columns"}

LEDGER = {
    ("fast symm", "slow symm"): EVERY | GLOVER | {
        "reduction.reduce_symm", "ring._twist"},
    # the fast product's remainders and the slow fold both multiply through
    # the ring's product kernel; the fast one calls neither multiply nor
    # _twist, and _row only to build the V_n table of principal
    ("fast product", "slow product"): EVERY | GLOVER | {
        "reduction.reduce_product", "reduction.symm_factors",
        "ring._add_product", "ring._product_row", "ring._row"},
    ("oracle", "fast product"): EVERY | {"reduction.symm_factors"},
    ("oracle", "slow product"): EVERY | {"reduction.symm_factors"},
}


@pytest.mark.parametrize("p, f", [(3, 2), (2, 4)])
def test_routes_share_only_the_ledger(p, f):
    params = FieldParams(p, f)
    q = params.q
    k = 3 * (q * q - 1) + 2 * (q + 1) + 1    # past the base range
    factors = [SymmFactor(5 * (q + 1) + 1, 2, 1), SymmFactor(q + 2, 1, 0),
               SymmFactor(2 * q + 3, q - 2, f - 1)]
    routes = {
        "fast symm": lambda: reduce_symm(params, k, 3, 1),
        "slow symm": lambda: reduce_symm(params, k, 3, 1, method="slow"),
        "fast product": lambda: [reduce_product(params, factors[:r])
                                 for r in (2, 3)],
        "slow product": lambda: [reduce_product(params, factors[:r],
                                                method="slow")
                                 for r in (2, 3)],
        "oracle": lambda: [oracle_decompose(params, factors[:r])
                           for r in (2, 3)],
    }
    called = {name: _called(route) for name, route in routes.items()}
    for (a, b), shared in LEDGER.items():
        assert called[a] & called[b] == shared, (q, a, b)
