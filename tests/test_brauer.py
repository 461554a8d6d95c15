import cmath

import pytest

from modp_gl2 import (
    FieldParams,
    OracleError,
    RingElement,
    SymmFactor,
    build_table,
    character_of_irreducible,
    character_of_symm,
    enumerate_p_regular_classes,
    oracle_decompose,
    reduce_product,
    reduce_symm,
)
from modp_gl2.brauer import PRegularClass


def test_class_counts():
    for p, f, expected in [(3, 1, 6), (5, 1, 20), (2, 1, 2), (3, 2, 72)]:
        classes = enumerate_p_regular_classes(FieldParams(p, f))
        assert len(classes) == expected
        kinds = {"central": 0, "split": 0, "nonsplit": 0}
        for cls in classes:
            kinds[cls.kind] += 1
        q = p ** f
        assert kinds["central"] == q - 1
        assert kinds["split"] == (q - 1) * (q - 2) // 2
        assert kinds["nonsplit"] == (q * q - q) // 2


def test_character_of_symm(p3):
    identity = PRegularClass("central", (0,))
    for k in (0, 1, 5):
        assert character_of_symm(p3, SymmFactor(k, 0, 0), identity) \
            == pytest.approx(k + 1)
    scalar = PRegularClass("central", (1,))
    zeta = cmath.exp(2j * cmath.pi / 2)  # lift of the generator of F_3^*
    assert character_of_symm(p3, SymmFactor(1, 0, 0), scalar) \
        == pytest.approx(2 * zeta)
    split = PRegularClass("split", (0, 1))
    assert character_of_symm(p3, SymmFactor(0, 0, 0), split) == pytest.approx(1)


def test_character_of_irreducible(p3, p9):
    identity = PRegularClass("central", (0,))
    for n in range(9):
        digits = p9.digits(n)
        dim = (digits[0] + 1) * (digits[1] + 1)
        assert character_of_irreducible(p9, n, 0, identity) == pytest.approx(dim)
    for cls in enumerate_p_regular_classes(p3):
        assert character_of_irreducible(p3, 2, 0, cls) \
            == pytest.approx(character_of_symm(p3, SymmFactor(2, 0, 0), cls))


def test_oracle_small(p3):
    assert oracle_decompose(p3, [(4, 0, 0)]) == reduce_symm(p3, 4)
    assert oracle_decompose(p3, [(1, 0, 0), (1, 0, 0)]) \
        == RingElement.L(p3, 2, 0) + RingElement.L(p3, 0, 1)
    assert oracle_decompose(p3, []) == RingElement.L(p3, 0, 0)
    assert oracle_decompose(p3, [(0, 0, 0)]) == RingElement.L(p3, 0, 0)


def test_oracle_det_twist(p3):
    assert oracle_decompose(p3, [(4, 0, 0)], det=1) \
        == reduce_symm(p3, 4).det_twist(1)


def test_character_additivity(p9):
    """The recombined character of a decomposition matches the product."""
    factors = [SymmFactor(11, 1, 0), SymmFactor(6, 0, 1)]
    decomposed = oracle_decompose(p9, factors)
    for cls in enumerate_p_regular_classes(p9):
        direct = 1
        for factor in factors:
            direct *= character_of_symm(p9, factor, cls)
        recombined = sum(
            c * character_of_irreducible(p9, n, m, cls)
            for (n, m), c in decomposed.terms.items())
        assert abs(direct - recombined) < 1e-7


def test_table_is_square_and_solvable(p5):
    table = build_table(p5)
    assert len(table.classes) == len(table.labels) == 20
    # solving for a known column must return a unit vector
    import numpy as np
    rhs = [character_of_irreducible(p5, 3, 2, cls) for cls in table.classes]
    solution = table.solve(rhs)
    index = table.labels.index((3, 2))
    expected = np.zeros(20)
    expected[index] = 1
    assert np.allclose(solution, expected, atol=1e-9)


def test_rounding_discipline(p3):
    table = build_table(p3)
    # a right-hand side that is not a character of any integral class
    rhs = [0.5 for _ in table.classes]
    from modp_gl2 import brauer

    solution = table.solve(rhs)
    bad = any(abs(complex(x) - round(complex(x).real)) >= brauer.ROUNDING_TOLERANCE
              for x in solution)
    assert bad  # sanity: this input really is non-integral


def test_oracle_error_raised(p3, monkeypatch):
    from modp_gl2 import brauer, memo

    monkeypatch.setattr(brauer, "ROUNDING_TOLERANCE", 1e-18)
    memo.clear()
    with pytest.raises(OracleError):
        oracle_decompose(p3, [(40, 1, 0), (17, 0, 0)])
    memo.clear()


def test_high_precision_branch(p3):
    from mpmath import mp

    prec = mp.prec
    assert oracle_decompose(p3, [(9, 1, 0)], precision=128) \
        == reduce_symm(p3, 9, m=1)
    assert mp.prec == prec


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (2, 3), (3, 2)])
def test_block_table_matches_scalar_characters(p, f):
    params = FieldParams(p, f)
    q = params.q
    table = build_table(params)
    matrix = table.matrix
    for r, cls in enumerate(table.classes):
        for c, (n, m) in enumerate(table.labels):
            assert abs(matrix[r, c]
                       - character_of_irreducible(params, n, m, cls)) < 1e-9
    # q - 1 determinant blocks of exactly q classes each, covering every
    # class once, and each block holds one determinant exponent
    assert table.blocks.shape == (q - 1, q)
    assert sorted(table.blocks.ravel().tolist()) == list(range(q * (q - 1)))
    for d, block in enumerate(table.blocks):
        for r in block:
            ea, eb = table.classes[r].eigen_exponents(q)
            assert (ea + eb) // (q + 1) % (q - 1) == d


def test_ring_matches_oracle_on_every_field():
    import random

    fields = [(p, f) for p in range(2, 65) if all(p % d for d in range(2, p))
              for f in range(1, 7) if p ** f <= 64]
    assert len(fields) == 27
    rng = random.Random(20261018)
    for p, f in fields:
        params = FieldParams(p, f)
        for _ in range(3):
            factors = [SymmFactor(rng.randrange(300),
                                  rng.randrange(params.q - 1),
                                  rng.randrange(f))
                       for _ in range(rng.choice((2, 3)))]
            assert oracle_decompose(params, factors) \
                == reduce_product(params, factors), (params, factors)
