import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from modp_gl2 import (
    ClosedPath,
    FieldParams,
    RingElement,
    SymmFactor,
    antecedents,
    check_theorem_bound,
    compute_constants,
    convert_basis,
    diamond_decompose,
    memo,
    multiply,
    omega,
    oracle_decompose,
    reduce_product,
    reduce_symm,
    s_alpha,
    symm_to_L,
)
from modp_gl2.ring import structure_constants

# the two tables whose entries may change, and why
EXEMPT = {
    # the slow route overwrites its last stop and appends fixed stops on
    # every walk, so that the next call resumes there
    "modp_gl2.reduction._glover_checkpoint",
    # a BrauerTable of numpy arrays, which tests corrupt on purpose to see
    # the oracle's checks fire
    "modp_gl2.brauer.build_table",
}


def frozen(value) -> bool:
    """True if nothing reachable from value can be changed in place."""
    if isinstance(value, (int, Fraction, ClosedPath)):
        return True
    if isinstance(value, tuple):
        return all(map(frozen, value))
    if isinstance(value, MappingProxyType):
        return all(frozen(k) and frozen(v) for k, v in value.items())
    return False


def test_memo_tables_are_immutable():
    # a seeded mix of calls that builds every table at q = 9 and 16
    memo.clear()
    for params in (FieldParams(3, 2), FieldParams(2, 4)):
        rng = random.Random(params.q)
        q, qm1, f = params.q, params.q - 1, params.f

        def label():
            return rng.randrange(q), rng.randrange(qm1)

        for _ in range(5):
            v = RingElement(params, rng.choice("LS"), {label(): 1, label(): -2})
            w = RingElement(params, "L", {label(): Fraction(1, 3)})
            convert_basis(multiply(v, w), "S")
            structure_constants(params, *label())
            symm_to_L(params, rng.randrange(q), rng.randrange(qm1))
            diamond_decompose(params, rng.randrange(qm1), rng.randrange(qm1))
            antecedents(params, rng.randrange(q))
            omega(params, rng.randrange(q))
            s_alpha(params, rng.randrange(qm1))
            k = rng.randrange(10 ** 6)
            reduce_symm(params, k, rng.randrange(qm1), rng.randrange(f))
            reduce_symm(params, rng.randrange(3 * q), method="slow")
            factors = [SymmFactor(rng.randrange(10 ** 4), rng.randrange(qm1),
                                  rng.randrange(f)) for _ in range(3)]
            reduce_product(params, factors)
            check_theorem_bound(params, RingElement.L(params, *label()),
                                factors[:rng.randint(1, 2)])
    loose = {}
    for name, table in memo.TABLES.items():
        if name in EXEMPT:
            continue
        assert table, f"{name} was not built by the mix"
        bad = [key for key, value in table.items() if not frozen(value)]
        if bad:
            loose[name] = bad
    assert not loose, f"mutable entries: {loose}"


def test_every_table_is_shared_across_h():
    # every table is keyed by the field (p, f): a seeded mix of calls with
    # h unset, then the same calls with h = f and h = 4f, adds no entry to
    # any table
    def mix(params):
        rng = random.Random(params.q)
        q, qm1, f = params.q, params.q - 1, params.f
        for _ in range(3):
            factors = [SymmFactor(rng.randrange(10 ** 4), rng.randrange(qm1),
                                  rng.randrange(-f, 2 * f)) for _ in range(3)]
            reduce_symm(params, *factors[0])
            reduce_symm(params, rng.randrange(3 * q), method="slow")
            reduce_product(params, factors)
            reduce_product(params, factors[:2], method="slow")
            oracle_decompose(params, factors[:2])
            multiply(RingElement.L(params, rng.randrange(q), 0),
                     RingElement.L(params, rng.randrange(q), 1))
            antecedents(params, rng.randrange(q))
            omega(params, rng.randrange(q))
            s_alpha(params, rng.randrange(qm1))
            check_theorem_bound(params, RingElement.L(params, 1, 0),
                                factors[:2])
        compute_constants(params)

    memo.clear()
    mix(FieldParams(2, 4))
    keys = {name: set(table) for name, table in memo.TABLES.items()}
    assert all(keys.values()), \
        [name for name, entries in keys.items() if not entries]
    for h in (4, 16):
        mix(FieldParams(2, 4, h))
        assert {name: set(table)
                for name, table in memo.TABLES.items()} == keys, h


def test_memo_refuses_default_arguments():
    # a defaulted argument would key f(x) and f(x, default) apart
    def build(params, index=0):
        return index

    with pytest.raises(TypeError, match="default"):
        memo.memo(build)
    assert not any(name.endswith(".build") for name in memo.TABLES)
