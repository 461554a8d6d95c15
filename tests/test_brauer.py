import cmath
import itertools
import tracemalloc

import numpy as np
import pytest

from modp_gl2 import (
    FieldParams,
    OracleError,
    RingElement,
    SymmFactor,
    build_table,
    enumerate_p_regular_classes,
    oracle_decompose,
    reduce_product,
    reduce_symm,
)
from modp_gl2 import brauer, memo
from modp_gl2.brauer import PRegularClass
from modp_gl2.params import Q_CAP, is_prime
from modp_gl2.ring import structure_constants

FIELDS = [FieldParams(p, f) for p in range(2, Q_CAP + 1) if is_prime(p)
          for f in range(1, Q_CAP.bit_length()) if p ** f <= Q_CAP]


# A floating-point reference, independent of the oracle's arithmetic mod
# ell: the complex lift exp(2 pi i e / (q^2 - 1)) of each eigenvalue g2^e.
def _root(params: FieldParams, e: int):
    n2 = params.q ** 2 - 1
    return cmath.exp(2j * cmath.pi * (e % n2) / n2)


def character_of_symm(params: FieldParams, factor: SymmFactor,
                      cls: PRegularClass):
    """Brauer character of S_k(m)^{[j]} at a p-regular class, in C.

    With lifted eigenvalues alpha, beta (raised to the p^j power) and
    delta = alpha * beta, the value is delta^m (alpha^{k+1} - beta^{k+1})
    / (alpha - beta), read as (k+1) alpha^k delta^m when alpha = beta.
    """
    k, m, j = SymmFactor(*factor)
    q = params.q
    n2 = q * q - 1
    pj = pow(params.p, j % params.f, n2)
    ea, eb = cls.eigen_exponents(q)
    ea = (ea * pj) % n2
    eb = (eb * pj) % n2
    delta_m = _root(params, (ea + eb) * m)
    if ea == eb:
        return delta_m * (k + 1) * _root(params, ea * k)
    num = _root(params, ea * (k + 1)) - _root(params, eb * (k + 1))
    den = _root(params, ea) - _root(params, eb)
    return delta_m * num / den


def character_of_irreducible(params: FieldParams, n: int, m: int,
                             cls: PRegularClass):
    """Brauer character of L_n(m): product over base-p digits of twisted
    symmetric-power characters, times the determinant lift to the m."""
    value = character_of_symm(params, SymmFactor(0, m, 0), cls)
    for i, digit in enumerate(params.digits(n)):
        value *= character_of_symm(params, SymmFactor(digit, 0, i), cls)
    return value


def flat_classes(params: FieldParams) -> list[PRegularClass]:
    """Every p-regular class in one flat pass, kind by kind: the reference
    for the block-by-block listing."""
    q = params.q
    classes = [PRegularClass("central", (a,)) for a in range(q - 1)]
    for a in range(q - 1):
        for b in range(a + 1, q - 1):
            classes.append(PRegularClass("split", (a, b)))
    n2 = q * q - 1
    for e in range(1, n2):
        if e % (q + 1) == 0:
            continue  # g2^e lies in F_q
        if e < (e * q) % n2:
            classes.append(PRegularClass("nonsplit", (e,)))
    return classes


def test_class_counts():
    for p, f, expected in [(3, 1, 6), (5, 1, 20), (2, 1, 2), (3, 2, 72)]:
        assert len(enumerate_p_regular_classes(FieldParams(p, f))) == expected
    assert len(FIELDS) == 27
    for params in FIELDS:
        kinds = {"central": 0, "split": 0, "nonsplit": 0}
        for cls in enumerate_p_regular_classes(params):
            kinds[cls.kind] += 1
        q = params.q
        assert kinds["central"] == q - 1
        assert kinds["split"] == (q - 1) * (q - 2) // 2
        assert kinds["nonsplit"] == (q * q - q) // 2


def test_blocks_match_the_flat_listing():
    # the same classes, block by block, each block in the flat order
    assert len(FIELDS) == 27
    for params in FIELDS:
        q = params.q

        def det(cls):
            return sum(cls.eigen_exponents(q)) // (q + 1) % (q - 1)

        classes = enumerate_p_regular_classes(params)
        assert classes == sorted(flat_classes(params), key=det), params
        for d in range(q - 1):
            assert {det(cls) for cls in brauer._block(q, d)} == {d}, params


def test_build_table_lists_only_its_base_blocks(monkeypatch, fresh_tables):
    def refuse(params):
        raise AssertionError("build_table listed every class")

    monkeypatch.setattr(brauer, "enumerate_p_regular_classes", refuse)
    for params in (FieldParams(3, 2), FieldParams(2, 4)):
        q = params.q
        assert build_table(params, 0).exponents.shape == (2, q * (q - 1))


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
    table = build_table(p5, 0)
    assert table.exponents.shape == (2, 20) and len(table.labels) == 20
    # solving for each column must return its unit vector exactly
    matrix = table.matrix
    for index in range(20):
        expected = np.zeros(20, dtype=np.int64)
        expected[index] = 1
        assert table.solve(matrix[:, index]).tolist() == expected.tolist()


def test_rounding_discipline(p3, monkeypatch):
    table = build_table(p3, 0)
    # a right-hand side that is not the character of any class: 1/2 at
    # every class, which solves to 1/2 [L_0(0)] mod ell
    half = (table.ell + 1) // 2
    assert table.solve([half] * table.exponents.shape[1]).tolist() \
        == [half] + [0] * (len(table.labels) - 1)
    monkeypatch.setattr(brauer.BrauerTable, "values",
                        lambda self, factor: np.full(self.exponents.shape[1],
                                                     half))
    # one factor S_0, of dimension 1, whose character is patched to it
    with pytest.raises(OracleError, match="dimension"):
        oracle_decompose(p3, [(0, 0, 0)])


@pytest.fixture
def fresh_tables():
    memo.clear()
    yield
    memo.clear()


def test_tables_compare_by_identity(p3, fresh_tables):
    # the generated field-wise __eq__ would compare numpy arrays and raise
    first = build_table(p3, 0)
    memo.clear()
    second = build_table(p3, 0)
    assert first == first
    assert first != second


def test_oracle_error_raised(p3, monkeypatch, fresh_tables):
    factors = [(40, 1, 0), (17, 0, 0)]
    # one corrupted entry of one block inverse
    table = build_table(p3, 0)
    table.inverses[0, 0, 0] = (table.inverses[0, 0, 0] + 1) % table.ell
    with pytest.raises(OracleError, match="dimension"):
        oracle_decompose(p3, factors)
    # a block forced singular mod ell: chi_n vanishes at one class
    memo.clear()
    values = brauer.BrauerTable.values

    def vanish_at_first_class(self, factor):
        out = values(self, factor)
        out[0] = 0
        return out

    monkeypatch.setattr(brauer.BrauerTable, "values", vanish_at_first_class)
    with pytest.raises(OracleError, match="singular"):
        oracle_decompose(p3, factors)


def exponents_of_irreducible(params, n, m, cls):
    """The multiset of exponents e with chi_{L_n(m)}(cls) = sum zeta^e:
    delta^m times, for each digit d_i of n, sum_a alpha_i^a beta_i^(d_i - a)
    with alpha_i, beta_i the p^i-th powers of the eigenvalue lifts."""
    ea, eb = cls.eigen_exponents(params.q)
    exponents = [(ea + eb) * m]
    for i, digit in enumerate(params.digits(n)):
        pi = params.p ** i
        exponents = [e + (a * ea + (digit - a) * eb) * pi
                     for e in exponents for a in range(digit + 1)]
    return exponents


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (2, 3), (3, 2)])
def test_block_table_matches_scalar_characters(p, f):
    params = FieldParams(p, f)
    q = params.q
    n2 = q * q - 1
    table = build_table(params, 0)
    ell, zeta = table.ell, int(table.powers[1])
    assert ell % n2 == 1 and ell < 2 ** 26 and is_prime(ell)
    # zeta has exact order q^2 - 1
    assert pow(zeta, n2, ell) == 1 and len(set(table.powers.tolist())) == n2
    # each row is the class of its unordered pair of eigenvalue exponents:
    # every p-regular class occurs exactly once
    classes = {tuple(sorted(cls.eigen_exponents(q))): cls
               for cls in enumerate_p_regular_classes(params)}
    pairs = [tuple(sorted(pair)) for pair in table.exponents.T.tolist()]
    assert sorted(pairs) == sorted(classes)
    # the classes come block by block: row r has determinant exponent r // q
    for r, (ea, eb) in enumerate(table.exponents.T.tolist()):
        assert (ea + eb) // (q + 1) % (q - 1) == r // q
    matrix = table.matrix
    for r, pair in enumerate(pairs):
        cls = classes[pair]
        for c, (n, m) in enumerate(table.labels):
            exponents = exponents_of_irreducible(params, n, m, cls)
            assert abs(sum(cmath.exp(2j * cmath.pi * e / n2)
                           for e in exponents)
                       - character_of_irreducible(params, n, m, cls)) < 1e-9
            assert matrix[r, c] \
                == sum(pow(zeta, e, ell) for e in exponents) % ell


def test_every_product_matches_the_oracle():
    # the character of [L_a][L_b] is chi_a chi_b; solved against the table
    # mod ell, every multiplicity is below q^2 < ell, so the residues are
    # the product's coefficients exactly
    fields = [(p, f) for p in range(2, 33) if is_prime(p)
              for f in range(1, 6) if p ** f <= 32]
    assert len(fields) == 18
    for p, f in fields:
        params = FieldParams(p, f)
        table = build_table(params, 0)
        chi = table.matrix[:, ::params.q - 1]  # the columns L_n(0)
        for a in range(params.q):
            for b in range(a, params.q):
                x = table.solve(chi[:, a] * chi[:, b] % table.ell)
                assert {lbl: int(c) for lbl, c in zip(table.labels, x) if c} \
                    == structure_constants(params, a, b), (params, a, b)


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


def test_ring_matches_oracle_at_large_k():
    # one three-factor product per field with k < 10^9: the oracle lifts
    # from up to four primes, and the fast product folds u N S-hat_k
    import random

    assert len(FIELDS) == 27
    rng = random.Random(20261020)
    for params in FIELDS:
        factors = [SymmFactor(rng.randrange(10 ** 9),
                              rng.randrange(params.q - 1),
                              rng.randrange(params.f)) for _ in range(3)]
        assert oracle_decompose(params, factors) \
            == reduce_product(params, factors), (params, factors)


def test_derived_inverses_invert_every_block():
    # block d = b + 2s is the base block b times diag(zeta^(s(q+1)n)):
    # scales[d] times the inverse of base b inverts it, at every field
    assert len(FIELDS) == 27
    for params in FIELDS:
        q = params.q
        table = build_table(params, 0)
        bases = 1 if q % 2 == 0 else 2
        assert table.inverses.shape == (bases, q, q)
        assert table.scales.shape == (q - 1, q)
        derived = table.scales[:, :, None] \
            * table.inverses[np.arange(q - 1) % bases] % table.ell
        # chi_n at every class: the columns L_n(0) of ``matrix``, without
        # its q(q-1)^2 twisted columns
        blocks = table.characters(q * (q - 1)).reshape(q - 1, q, q)
        assert (derived @ blocks % table.ell
                == np.eye(q, dtype=np.int64)).all(), params


def test_table_holds_no_array_beyond_2q2_entries():
    # the characters are kept at the base blocks only, never at every
    # class: no array of q^2 (q - 1) entries
    assert len(FIELDS) == 27
    for params in FIELDS:
        table = build_table(params, 0)
        sizes = {name: value.size for name, value in vars(table).items()
                 if isinstance(value, np.ndarray)}
        assert max(sizes.values()) <= 2 * params.q ** 2, (params, sizes)


def test_matrix_allocates_one_full_table():
    # matrix takes its residue in place and reshapes a view, so assembling
    # it allocates about one q(q-1) x q(q-1) array, not two
    table = build_table(FieldParams(3, 3), 0)
    tracemalloc.start()
    try:
        matrix = table.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix.nbytes, (peak, matrix.nbytes)


def test_powers_and_gaps_match_pow():
    for params in FIELDS:
        table = build_table(params, 0)
        ell, zeta = table.ell, int(table.powers[1])
        n2 = params.q ** 2 - 1
        assert table.powers.tolist() == [pow(zeta, e, ell) for e in range(n2)]
        assert table.gaps.tolist() \
            == [0] + [pow(1 - pow(zeta, e, ell), -1, ell) for e in range(1, n2)]


def test_int64_premise_is_checked(p3, monkeypatch, fresh_tables):
    # primes near 2^31 make q (ell - 1)^2 exceed 2^63 at q = 3
    monkeypatch.setattr(brauer, "PRIME_BOUND", 2 ** 31)
    with pytest.raises(OracleError, match="2\\^63"):
        build_table(p3, 0)


def test_miller_rabin_matches_trial_division():
    bound = 2 * 10 ** 5
    assert [n for n in range(bound) if brauer._is_prime(n)] \
        == [n for n in range(bound) if is_prime(n)]


def test_prime_matches_trial_division():
    def reference(n2, index):
        candidates = range((brauer.PRIME_BOUND - 2) // n2 * n2 + 1, n2, -n2)
        return next(itertools.islice(filter(is_prime, candidates), index,
                                     None))

    cases = [(params.q, index) for params in FIELDS if params.q <= 16
             for index in range(3)] + [(64, 0)]
    for q, index in cases:
        assert brauer._prime(q * q - 1, index) \
            == reference(q * q - 1, index), (q, index)
