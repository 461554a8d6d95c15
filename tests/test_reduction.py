import random
from functools import reduce
from itertools import product
from math import prod

import pytest

from modp_gl2 import (
    FieldParams,
    RingElement,
    SymmFactor,
    diamond_decompose,
    multiply,
    oracle_decompose,
    reduce_product,
    reduce_symm,
    symm_to_L,
)
from modp_gl2 import memo, reduction
from modp_gl2.params import fields


def test_small_values(p3, p5):
    assert reduce_symm(p3, 4) == (RingElement.L(p3, 2, 0)
                                  + RingElement.L(p3, 0, 0)
                                  + RingElement.L(p3, 0, 1))
    assert reduce_symm(p3, 3) == RingElement.L(p3, 1, 0) + RingElement.L(p3, 1, 1)
    assert reduce_symm(p5, 2) == RingElement.L(p5, 2, 0)


def test_agrees_with_base_range():
    for p, f in [(3, 1), (5, 1), (2, 2), (3, 2)]:
        params = FieldParams(p, f)
        for k in range(params.q):
            assert reduce_symm(params, k) == symm_to_L(params, k, 0)


def test_fast_equals_slow():
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        params = FieldParams(p, f)
        for k in range(0, 501):
            assert reduce_symm(params, k, method="fast") \
                == reduce_symm(params, k, method="slow"), (p, f, k)


@pytest.mark.parametrize("p, f", [(2, 4), (5, 2), (3, 3), (2, 5)])
def test_fast_equals_slow_over_two_periods(p, f):
    # every k < 2N + q, N = q^2 - 1: zero, one and two full periods
    params = FieldParams(p, f)
    for k in range(2 * (params.q ** 2 - 1) + params.q):
        assert reduce_symm(params, k, method="fast") \
            == reduce_symm(params, k, method="slow"), (p, f, k)


def _walk(params, top):
    """[S_k] for k <= top: the base range, then [S_n] = [S_(n-1)][L_1] -
    [S_(n-2)](1) by ``multiply``, from q and with no checkpoint."""
    classes = [symm_to_L(params, n) for n in range(params.q)]
    l1 = RingElement.L(params, 1, 0)
    for _ in range(params.q, top + 1):
        classes.append(multiply(classes[-1], l1) - classes[-2].det_twist(1))
    return classes


def test_slow_checkpoint_never_goes_stale(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the slow route reached the fast route")

    # the slow route never reaches the fast route or the gather-table reads
    for name in ("_reduce_symm_base_fast", "_series_prefix", "_series_sum"):
        monkeypatch.setattr(reduction, name, forbidden)
    p3, p16, p16h4 = FieldParams(3, 1), FieldParams(2, 4), FieldParams(2, 4, 4)
    # up, repeat, down (also into the base range), then up past the checkpoint
    runs = {p3: [5, 9, 9, 4, 7, 2, 12, 20],
            p16: [20, 31, 31, 17, 25, 3, 40, 50]}
    walks = {params: _walk(params, 50) for params in (p3, p16, p16h4)}

    def check(params, k):
        got = reduce_symm(params, k, method="slow")
        assert got == walks[params][k] and got.params == params, (params, k)

    memo.clear()
    for ks in zip(*runs.values()):
        for params, k in zip(runs, ks):
            check(params, k)
    assert len(memo.TABLES["modp_gl2.reduction._glover_checkpoint"]) == 2
    memo.clear()
    for k in (30, 10, 30, 31):
        check(p16, k)
    # h = 4 and the default h share one checkpoint
    for k in (33, 33, 18, 41, 44, 35, 46):
        check(p16h4 if k % 2 else p16, k)
    assert len(memo.TABLES["modp_gl2.reduction._glover_checkpoint"]) == 1


def test_slow_walk_that_raises_keeps_the_checkpoint(p9, monkeypatch):
    step = reduction._glover_step
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("interrupted")
        return step(*args)

    walk = _walk(p9, 40)
    memo.clear()
    assert reduce_symm(p9, 20, method="slow") == walk[20]
    monkeypatch.setattr(reduction, "_glover_step", failing)
    with pytest.raises(RuntimeError):
        reduce_symm(p9, 40, method="slow")
    monkeypatch.undo()
    assert reduction._glover_checkpoint(p9)[0][0] == 20
    for k in (20, 21, 40):
        assert reduce_symm(p9, k, method="slow") == walk[k], k


@pytest.mark.parametrize("p, f", [(3, 2), (2, 4)])
def test_slow_route_walks_at_most_q_minus_1_steps(p, f, monkeypatch):
    # after one walk to top, every k in [q, top], in any order, resumes
    # from a stop at most q-1 steps below it
    params = FieldParams(p, f)
    q = params.q
    top = 2 * (q * q - 1) + q - 1
    step = reduction._glover_step
    calls = []

    def counted(*args):
        calls.append(1)
        return step(*args)

    walk = _walk(params, top)
    memo.clear()
    assert reduce_symm(params, top, method="slow") == walk[top]
    monkeypatch.setattr(reduction, "_glover_step", counted)
    ks = list(range(q, top + 1))
    random.Random(q).shuffle(ks)
    for k in ks:
        calls.clear()
        assert reduce_symm(params, k, method="slow") == walk[k], k
        assert len(calls) <= q - 1, (k, len(calls))


@pytest.mark.parametrize("p, f", [(3, 1), (2, 2)])
def test_slow_route_keeps_at_most_2q_plus_1_stops(p, f):
    params = FieldParams(p, f)
    q = params.q
    top = 4 * (q * q - 1) + q      # far past 2N + q
    walk = _walk(params, top)
    memo.clear()
    assert reduce_symm(params, top, method="slow") == walk[top]
    stops = reduction._glover_checkpoint(params)[1]
    assert len(stops) == 2 * q + 1
    for i, (prev2, prev) in enumerate(stops):
        # stop i holds [S_(k-1)] and [S_k] at k = q-1 + iq, as flat rows
        k = q - 1 + i * q
        assert [{(nb // (q - 1), x): c for nb, x, c in row}
                for row in (prev2, prev)] \
            == [walk[k - 1].terms, walk[k].terms], k
    # below and above the highest stop, down and then up
    for k in list(range(top, q - 1, -1)) + list(range(q, top + 1, 7)):
        assert reduce_symm(params, k, method="slow") == walk[k], k
    assert len(reduction._glover_checkpoint(params)[1]) == 2 * q + 1


def test_slow_walk_that_raises_keeps_the_stops(p9, monkeypatch):
    step = reduction._glover_step
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 15:
            raise RuntimeError("interrupted")
        return step(*args)

    walk = _walk(p9, 60)
    memo.clear()
    assert reduce_symm(p9, 20, method="slow") == walk[20]
    checkpoint = reduction._glover_checkpoint(p9)
    last, stops = checkpoint[0], list(checkpoint[1])
    assert len(stops) == 2
    monkeypatch.setattr(reduction, "_glover_step", failing)
    with pytest.raises(RuntimeError):
        # passes the stop at 26 before it raises at 35
        reduce_symm(p9, 60, method="slow")
    monkeypatch.undo()
    assert checkpoint[0] == last and checkpoint[1] == stops
    for k in (26, 35, 60, 21, 9):
        assert reduce_symm(p9, k, method="slow") == walk[k], k


def test_dimension_is_k_plus_one(p3, p9):
    assert reduce_symm(p3, 100).dimension() == 101
    for k in (0, 7, 63, 200, 481):
        assert reduce_symm(p9, k).dimension() == k + 1


def test_glover_recursion(p9):
    """S_n = S_{n-1} * L_1 - S_{n-2}(1) as classes, for n past the base range."""
    l1 = RingElement.L(p9, 1, 0)
    for n in range(2, 201, 13):
        lhs = reduce_symm(p9, n)
        rhs = multiply(reduce_symm(p9, n - 1), l1) \
            - reduce_symm(p9, n - 2).det_twist(1)
        assert lhs == rhs, n


def test_twists(p9):
    base = reduce_symm(p9, 37)
    assert reduce_symm(p9, 37, m=3) == base.det_twist(3)
    assert reduce_symm(p9, 37, j=1) == base.frobenius_twist(1)
    assert reduce_symm(p9, SymmFactor(37, 3, 1)) \
        == base.det_twist(3).frobenius_twist(1)


def test_reduce_product(p9):
    factors = [SymmFactor(7, 1, 0), SymmFactor(11, 0, 1)]
    expected = multiply(reduce_symm(p9, 7, m=1), reduce_symm(p9, 11, j=1))
    assert reduce_product(p9, factors) == expected
    assert reduce_product(p9, []) == RingElement.L(p9, 0, 0)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_reduce_product_multiplies_from_the_first_factor(p9, monkeypatch,
                                                         count):
    # the slow route folds the factors' classes through multiply and reads
    # nothing of the fast product: no weights or gather-table read
    calls = []

    def counted(v, w):
        calls.append(1)
        return multiply(v, w)

    def forbidden(*args):
        raise AssertionError("the slow route reached the fast route")

    factors = [SymmFactor(7, 1, 0), SymmFactor(11, 0, 1), SymmFactor(30)]
    expected = reduce_symm(p9, 7, m=1)
    for k, m, j in factors[1:count]:
        expected = multiply(expected, reduce_symm(p9, k, m=m, j=j))
    monkeypatch.setattr(reduction, "multiply", counted)
    for name in ("_reduce_product_fast", "_split", "_series_prefix",
                 "_series_sum", "_runs"):
        monkeypatch.setattr(reduction, name, forbidden)
    assert reduce_product(p9, factors[:count], method="slow") == expected
    assert len(calls) == count - 1


FIELDS_TO_9 = [(params.p, params.f) for params in fields(9)]
FIELDS_TO_16 = [(params.p, params.f) for params in fields(16)]


def _principal(params, c1, c2):
    """V(c1, c2), the series induced from the Borel character (c1, c2)."""
    qm1 = params.q - 1
    return diamond_decompose(params, (c1 - c2) % qm1, c2 % qm1)


def _weights_of_l(params, b, t):
    """The torus weights of L_b(t), one per choice of 0 <= e_i <= b_i over
    the digits b_i of b: (sum p^i (b_i - e_i) + t, sum p^i e_i + t)."""
    digits = params.digits(b)
    out = []
    for es in product(*(range(d + 1) for d in digits)):
        low = sum(e * params.p ** i for i, e in enumerate(es))
        out.append((b - low + t, low + t))
    return out


@pytest.mark.parametrize("p, f", FIELDS_TO_9)
def test_principal_series_absorb_a_tensor_product(p, f):
    # [V(c1, c2)][L_b(t)] = sum of [V(c1 + a, c2 + d)] over the weights
    # (a, d) of L_b(t): the formula the fast product is built on
    params = FieldParams(p, f)
    q = params.q
    rng = random.Random(q)
    for b in range(q):
        for t in (0, rng.randrange(1, 2 * q)):
            weights = _weights_of_l(params, b, t)
            assert len(weights) == RingElement.L(params, b).dimension()
            lb = RingElement.L(params, b, t)
            for c1 in range(q - 1):
                for c2 in range(q - 1):
                    expected = RingElement.zero(params)
                    for a, d in weights:
                        expected += _principal(params, c1 + a, c2 + d)
                    got = multiply(_principal(params, c1, c2), lb)
                    assert got == expected, (params, b, t, c1, c2)


@pytest.mark.parametrize("p, f", FIELDS_TO_16)
def test_fast_product_equals_slow_and_the_fold(p, f):
    params = FieldParams(p, f)
    q = params.q
    period = q * q - 1
    rng = random.Random(q)
    below_q = SymmFactor(q - 2, q, f)                  # k < q, m >= q-1, j = f
    no_rest = SymmFactor((q - 2) * (q + 1) + q, 1, 1)  # v(q+1) + q below N
    periods = SymmFactor(2 * period + 5, q + 1, f + 1)  # k >= 2N, j > f
    drawn = SymmFactor(rng.randrange(3 * period), rng.randrange(2 * q),
                       rng.randrange(2 * f))
    products = [[], [below_q], [periods], [below_q, no_rest],
                [no_rest, below_q], [periods, drawn], [no_rest, no_rest],
                [drawn, periods, below_q], [below_q, drawn, no_rest, periods],
                [SymmFactor(0), drawn]]
    for factors in products:
        fast = reduce_product(params, factors)
        classes = [reduce_symm(params, factor) for factor in factors]
        fold = reduce(multiply, classes, RingElement.L(params, 0))
        assert fast == fold, (params, factors)
        assert reduce_product(params, factors, method="slow") == fast, \
            (params, factors)
        assert fast.dimension() == prod(k + 1 for k, _, _ in factors)


@pytest.mark.parametrize("p, f", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_fast_product_twists_a_remainder_s_q_minus_1(p, f):
    # S_(q-1)(v+m)^[j], j != 0 mod f, holds L_(q-1), which theta fixes:
    # fast and slow reduce_symm of each factor, both twisting through
    # ring._twist's fixed label q-1, and the fast product against the
    # multiply fold and, as both twist through ring._twist, against the
    # Brauer oracle, which shares no code with either. The fast product
    # reflects these remainders into -S_0(v+m+q-1)^[j] and never multiplies
    # an S_(q-1)
    params = FieldParams(p, f)
    q = params.q
    tops = [SymmFactor(q - 1, 2, 1),
            SymmFactor(3 * (q + 1) + q - 1, q, f - 1),
            SymmFactor(q * q - 1 + 5 * (q + 1) + q - 1, 1, -1)]
    for factor in tops:
        oracle = oracle_decompose(params, [factor])
        for method in ("fast", "slow"):
            assert reduce_symm(params, factor, method=method) == oracle, \
                (q, factor, method)
    for factors in ([tops[0], tops[1]], [tops[2], SymmFactor(4, 1, 1)],
                    tops):
        fast = reduce_product(params, factors)
        fold = reduce(multiply, [reduce_symm(params, factor)
                                 for factor in factors])
        assert fast == fold, (q, factors)
        assert fast == oracle_decompose(params, factors), (q, factors)


@pytest.mark.parametrize("p, f", FIELDS_TO_16)
def test_remainder_reflection_identity(p, f):
    # [S_w(v)] + [S_(q-1-w)(v+w)] = [V_(w mod (q-1))(v)] for every w < q,
    # by the base-change columns and the V_n table alone
    params = FieldParams(p, f)
    q = params.q
    for w in range(q):
        for v in {0, 1, q - 2}:
            assert symm_to_L(params, w, v) + symm_to_L(params, q - 1 - w,
                                                       v + w) \
                == diamond_decompose(params, w % (q - 1), v % (q - 1)), \
                (q, w, v)


@pytest.mark.parametrize("p, f", FIELDS_TO_16)
def test_split_reflects_every_long_remainder(p, f):
    # every remainder the fast route keeps has 2w < q, and the series and
    # the signed remainder add up to dim S_k
    params = FieldParams(p, f)
    q = params.q
    period = q * q - 1
    for k in range(2 * period + q):
        u, s, rest, sign = reduction._split(params, k)
        assert sign in (1, -1), (q, k)
        w = -1 if rest is None else rest[0]
        assert 2 * w < q, (q, k, rest)
        assert k + 1 == u * period + s * (q + 1) + sign * (w + 1), (q, k)


def _boundary_factors(params):
    """Factors k = u N + v(q+1) + w, u in {0, 2}, at the edges of the
    reflection, by what ``_split`` does with S_w(v): w in {0, (q-1) div 2}
    keep it, w in {ceil(q/2), q-1} reflect it, and w = q leaves none."""
    q, f = params.q, params.f
    kinds = {"keep": {0, (q - 1) // 2}, "reflect": {(q + 1) // 2, q - 1},
             "none": {q}}
    return {kind: [SymmFactor(u * (q * q - 1) + v * (q + 1) + w, v + u,
                              w % (f + 1) - 1)
                   for u in (0, 2) for w in sorted(ws)
                   for v in [(3 * w + u) % (q - 1)]]
            for kind, ws in kinds.items()}


@pytest.mark.parametrize("p, f", FIELDS_TO_9 + [(2, 4)])
def test_fast_product_across_the_reflection(p, f):
    # every sign pattern of two and three factors: none reflected, mixed
    # and all reflected, where the signed V-part counts go negative, and
    # with a factor that leaves no remainder
    params = FieldParams(p, f)
    kinds = _boundary_factors(params)
    classes = {}
    for kind, factors in kinds.items():
        for factor in factors:
            _, _, rest, sign = reduction._split(params, factor.k)
            assert (rest is None, sign) == {"keep": (False, 1),
                                            "reflect": (False, -1),
                                            "none": (True, -1)}[kind]
            classes[factor] = reduce_symm(params, factor)
            assert classes[factor] == reduce_symm(params, factor,
                                                  method="slow"), \
                (params, factor)
    for r in (2, 3):
        for t, pattern in enumerate(product(kinds, repeat=r)):
            for offset in range(4):
                factors = [kinds[kind][(t + offset + i) % len(kinds[kind])]
                           for i, kind in enumerate(pattern)]
                fast = reduce_product(params, factors)
                assert fast == reduce(multiply, map(classes.get, factors)), \
                    (params, factors)
                if params.q <= 9:
                    assert fast == oracle_decompose(params, factors), \
                        (params, factors)


@pytest.mark.parametrize("p, f", FIELDS_TO_16)
def test_runs_are_the_direct_sums(p, f):
    # entry L of the run table of j is the sum of x^(p^j i mod (q-1)),
    # i < L, at every width and for j below 0 and past f too, and the
    # twists j mod f share one table per width
    params = FieldParams(p, f)
    n = params.q - 1
    memo.clear()
    for bits in (8, 16):
        for j in list(range(f)) + [-1, f, 2 * f + 1]:
            pj = p ** (j % f)
            runs = reduction._runs(params, pow(p, j, n), bits)
            assert len(runs) == params.q, (params, j, bits)
            for length, entry in enumerate(runs):
                assert entry == sum(1 << bits * (pj * i % n)
                                    for i in range(length)), \
                    (params, j, bits, length)
    assert len(reduction._runs.table) == 2 * f, params


def _edge_products(params):
    """Products at the run tables' edges: k + 1 = -1, 0, 1 (mod q-1), k in
    {N-1, N, 2N+q}, k = v(q+1) + q (w = q, no remainder), the product of
    the k + 1 at 2^8 - 1, 2^8 and 2^16, and j in {-1, f, 2f+1} with m < 0
    among the twists."""
    q, f = params.q, params.f
    n, period = q - 1, q * q - 1
    twists = [(-1, -1), (q - 2, f), (-q, 2 * f + 1)]
    ks = [3 * n - 2, 3 * n - 1, 3 * n, period - 1, period, 2 * period + q,
          2 * (q + 1) + q, period + q + 1 + q]
    singles = [SymmFactor(k, *twists[i % 3]) for i, k in enumerate(ks)]
    products = [[a, b] for a, b in zip(singles, singles[1:] + singles[:1])]
    products.append(singles[:3])
    for ks in ([14, 16], [15, 15], [255, 255], [15, 15, 255]):
        products.append([SymmFactor(k, *twists[i]) for i, k in enumerate(ks)])
    return products


@pytest.mark.parametrize("p, f", FIELDS_TO_16)
def test_fast_product_at_the_run_edges(p, f):
    params = FieldParams(p, f)
    for factors in _edge_products(params):
        fast = reduce_product(params, factors)
        fold = reduce(multiply, [reduce_symm(params, factor)
                                 for factor in factors])
        assert fast == fold, (params, factors)
        assert reduce_product(params, factors, method="slow") == fast, \
            (params, factors)
        if params.q <= 9:
            assert fast == oracle_decompose(params, factors), \
                (params, factors)


def test_central_character(p9):
    # S_k(m) acts on the center through k + 2m
    v = reduce_symm(p9, 123, m=2)
    assert v.central_character() == (123 + 4) % 8


def test_validation(p3):
    with pytest.raises(ValueError):
        reduce_symm(p3, -1)
    # an unknown method is refused whatever the number of factors
    for factors in ([], [(4, 0, 0)], [(4, 0, 0), (7, 1, 0)]):
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            reduce_product(p3, factors, method="nope")
