import random
from collections import Counter
from itertools import product

import pytest

from modp_gl2 import (
    FieldParams,
    RingElement,
    antecedents,
    diamond_decompose,
    ell_of_path,
    enumerate_closed_paths,
    lambda_of_path,
    omega,
    s_alpha,
    symm_to_L,
    t_shift_candidates,
)
from modp_gl2.params import fields
from modp_gl2.principal import (ANTECEDENT, DECOMPOSITION, EDGES, VERTICES,
                                _diamond_columns, _series_gather,
                                explain_decomposition)
from modp_gl2.ring import _expand, _labels


def _path(graph, *vertices):
    paths = {p.serialize(): p for p in enumerate_closed_paths(graph, len(vertices))}
    return paths[",".join(vertices)]


def test_path_counts():
    one = {p.serialize() for p in enumerate_closed_paths(DECOMPOSITION, 1)}
    assert one == {"TL", "TR"}
    two = {p.serialize() for p in enumerate_closed_paths(ANTECEDENT, 2)}
    assert two == {"TL,TL", "TR,TR", "BL,BR", "BR,BL"}
    assert len(enumerate_closed_paths(ANTECEDENT, 3)) == 8
    for f in range(1, 6):
        assert len(enumerate_closed_paths(DECOMPOSITION, f)) == 2 ** f


@pytest.mark.parametrize("graph", [DECOMPOSITION, ANTECEDENT])
def test_closed_paths_match_the_brute_force_filter(graph):
    # the reference: every vertex sequence whose steps, last to first too,
    # are all edges, in lexicographic order
    for f in range(1, 7):
        brute = [seq for seq in product(sorted(VERTICES), repeat=f)
                 if all((seq[i - 1], seq[i]) in EDGES for i in range(f))]
        paths = enumerate_closed_paths(graph, f)
        assert [path.vertices for path in paths] == brute, f
        assert {path.graph for path in paths} == {graph}


@pytest.mark.parametrize("p, f", [(params.p, params.f)
                                  for params in fields(16)] + [(2, 6)])
def test_diamond_columns_match_the_paths(p, f):
    # the V_n table, built from column words, against the compatible
    # paths of the path report, each a constituent L_lambda(ell)
    params = FieldParams(p, f)
    q = params.q
    rows = _diamond_columns(params)
    assert len(rows) == q - 1
    for n, row in enumerate(rows):
        paths = Counter((r["lambda"], r["ell"])
                        for r in explain_decomposition(params, n)
                        if r["compatible"])
        labels = _labels(q - 1, row)
        assert labels == paths, (q, n)
        assert RingElement(params, "L", labels).dimension() == q + 1, (q, n)


def test_lambda_of_path(p9):
    assert lambda_of_path(p9, _path(DECOMPOSITION, "BL", "BR"), 1) == 3
    assert lambda_of_path(p9, _path(DECOMPOSITION, "BR", "BL"), 1) is None
    assert lambda_of_path(p9, _path(DECOMPOSITION, "TL", "TL"), 5) == 5


def test_ell_of_path(p3, p9):
    assert ell_of_path(p3, _path(DECOMPOSITION, "TL"), 1) == 0
    assert ell_of_path(p3, _path(DECOMPOSITION, "TR"), 1) == 1
    assert ell_of_path(p9, _path(DECOMPOSITION, "BL", "BR"), 1) == 3


def test_diamond_small(p3, p9):
    assert diamond_decompose(p3, 1, 0) \
        == RingElement.L(p3, 1, 0) + RingElement.L(p3, 1, 1)
    assert diamond_decompose(p3, 0, 0) \
        == RingElement.L(p3, 0, 0) + RingElement.L(p3, 2, 0)
    assert diamond_decompose(p9, 1, 0) == (RingElement.L(p9, 1, 0)
                                           + RingElement.L(p9, 7, 1)
                                           + RingElement.L(p9, 3, 3))


def _all_params_q_le_9():
    return [FieldParams(p, f) for p, f in
            [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]]


def test_diamond_matches_extension_route():
    """V_n(m) must carry the same class as S_n + S_{q-1-n}(n), twisted by m."""
    for params in _all_params_q_le_9():
        q = params.q
        for n in range(max(q - 1, 1)):
            via_extension = symm_to_L(params, n, 0) \
                + symm_to_L(params, q - 1 - n, n)
            for m in range(max(q - 1, 1)):
                assert diamond_decompose(params, n, m) \
                    == via_extension.det_twist(m), (params.q, n, m)


def test_diamond_shape():
    for params in _all_params_q_le_9():
        q = params.q
        qm1 = max(q - 1, 1)
        for n in range(max(q - 1, 1)):
            for m in range(qm1):
                v = diamond_decompose(params, n, m)
                assert all(c == 1 for _, c in v.sorted_terms())
                assert v.dimension() == q + 1
                assert v.central_character() == (n + 2 * m) % qm1


def test_antecedents_small(p3, p9):
    assert antecedents(p3, 1, 0) == {(1, 0), (1, 1)}
    assert len(antecedents(p3, 2, 0)) == 1
    assert len(antecedents(p9, 0, 0)) == 3


def test_antecedents_brute_force():
    """(n', m') is an antecedent exactly when L_n(m) appears in V_{n'}(m')."""
    for params in _all_params_q_le_9():
        q = params.q
        qm1 = max(q - 1, 1)
        tables = {(np, mp): diamond_decompose(params, np, mp)
                  for np in range(max(q - 1, 1)) for mp in range(qm1)}
        for n in range(q):
            for m in range(qm1):
                expected = {key for key, v in tables.items()
                            if v.coeff(n, m) == 1}
                assert antecedents(params, n, m) == expected, (q, n, m)


def test_omega_small(p3, p9):
    assert omega(p9, 4) == 4
    assert omega(p9, 8) == 1
    assert omega(p3, 0) == 1


def test_omega_matches_antecedent_count():
    for params in _all_params_q_le_9():
        qm1 = max(params.q - 1, 1)
        for n in range(params.q):
            counts = {len(antecedents(params, n, m)) for m in range(qm1)}
            assert counts == {omega(params, n)}, (params.q, n)


def _ell_by_digit_sum(params, path, n):
    """ell as the path's digit functions give it: half the digit sum
    sum_i p^i (n_i - y_i) over the images y_i, with q - 1 added when the
    path ends in the right column."""
    p = params.p
    functions = {"TL": lambda x: x, "TR": lambda x: p - 1 - x,
                 "BR": lambda x: p - 2 - x, "BL": lambda x: x - 1}
    total = sum(p ** i * (d - functions[v](d)) for i, (v, d)
                in enumerate(zip(path.vertices, params.digits(n))))
    if path.vertices[-1] in ("TR", "BR"):
        total += params.q - 1
    assert total % 2 == 0
    return (total // 2) % (params.q - 1)


def test_ell_matches_digit_sum():
    for params in _all_params_q_le_9():
        for path in enumerate_closed_paths(DECOMPOSITION, params.f):
            for n in range(params.q - 1):
                if lambda_of_path(params, path, n) is not None:
                    assert ell_of_path(params, path, n) \
                        == _ell_by_digit_sum(params, path, n), \
                        (params.q, path.serialize(), n)
        with pytest.raises(ValueError):  # V_n exists only for n <= q - 2
            ell_of_path(params, path, params.q - 1)


def test_explain_rows(p9):
    rows = explain_decomposition(p9, 1)
    assert {row["path"] for row in rows} \
        == {p.serialize() for p in enumerate_closed_paths(DECOMPOSITION, 2)}
    for row in rows:
        if row["compatible"]:
            assert "lambda" in row and "ell" in row
        else:
            assert "lambda" not in row


def test_coefficients_are_integral(p9):
    v = diamond_decompose(p9, 5, 2)
    assert all(type(c) is int for _, c in v.sorted_terms())


def test_q2_needs_no_guard():
    # q - 1 = 1, so every residue is 0, and V_0 = L_0 + L_1 is the only
    # principal series: the plain formulas handle it with no special case
    params = FieldParams(2, 1)
    assert [params.residue(m) for m in (-3, 0, 1, 5)] == [0, 0, 0, 0]
    assert [params.theta_residue(m, j) for m in (0, 3) for j in (1, 2)] \
        == [0, 0, 0, 0]
    for k in range(6):
        assert t_shift_candidates(params, 1, k) == [0]
    v = diamond_decompose(params, 0)
    assert v.dimension() == 3
    assert v == RingElement.L(params, 0, 0) + RingElement.L(params, 1, 0)
    paths = enumerate_closed_paths(DECOMPOSITION, 1)
    assert [lambda_of_path(params, path, 0) for path in paths] == [0, 1]
    with pytest.raises(ValueError):
        lambda_of_path(params, paths[0], 1)


def test_path_length_must_be_f(p9):
    # paths of length 3 and 1 at f = 2 used to give wrong labels, an
    # AssertionError or an IndexError
    calls = [(lambda_of_path, ("TL", "TL", "TL"), 1),
             (lambda_of_path, ("TL", "BR", "BL"), 1),
             (ell_of_path, ("TL", "BR", "BL"), 1),
             (lambda_of_path, ("TL",), 4)]
    for func, vertices, n in calls:
        with pytest.raises(ValueError, match="not f = 2"):
            func(p9, _path(DECOMPOSITION, *vertices), n)


@pytest.mark.parametrize("p, f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                  (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_s_alpha_is_omega_over_n(p, f):
    params = FieldParams(p, f)
    q, qm1 = params.q, params.q - 1
    for alpha in range(qm1):
        got = s_alpha(params, alpha).scale(q * q - 1)
        assert all(type(c) is int for c in got.terms.values())
        # omega(n) on each label L_n(m) of central character alpha, and
        # nothing elsewhere
        assert got.terms == {(n, m): omega(params, n) for n in range(q)
                             for m in range(qm1)
                             if (n + 2 * m) % qm1 == alpha}, (q, alpha)
        # N S-hat_alpha is the sum of the q-1 series of central character
        # alpha, V_(alpha - 2m)(m) for m < q-1
        series = RingElement.zero(params)
        for m in range(qm1):
            series += diamond_decompose(params, (alpha - 2 * m) % qm1, m)
        assert got == series, (q, alpha)


@pytest.mark.parametrize("p, f", [(params.p, params.f)
                                  for params in fields(32)])
def test_series_gather_sums_the_series(p, f):
    # the gather table against the series expanded term by term through
    # the V_n table, for seeded counts (zeros among them) at every alpha
    params = FieldParams(p, f)
    qm1 = params.q - 1
    rng = random.Random(params.q)
    for alpha in range(qm1):
        table = _series_gather(params, alpha)
        # each entry ascends, and its length is the label's omega count
        assert all(list(c2s) == sorted(c2s) for c2s in table.values())
        assert {lbl: len(c2s) for lbl, c2s in table.items()} \
            == {(n, m): omega(params, n) for n in range(params.q)
                for m in range(qm1) if (n + 2 * m) % qm1 == alpha}, \
            (params.q, alpha)
        counts = [rng.randrange(4) for _ in range(qm1)]
        series = {((alpha - 2 * c2) % qm1, c2): c
                  for c2, c in enumerate(counts)}
        expected = _expand(params, series, _diamond_columns(params))
        got = {lbl: sum(counts[c2] for c2 in c2s)
               for lbl, c2s in table.items()}
        assert RingElement(params, "L", got) \
            == RingElement(params, "L", expected), (params.q, alpha, counts)
    with pytest.raises(TypeError):
        _series_gather(params, 0)[(0, 0)] = ()


def test_each_table_format_has_one_owner():
    # only principal binds the gather table and only ring the flat-row
    # builder: the other modules read both through their owners' functions
    import importlib
    import pkgutil

    import modp_gl2

    for info in pkgutil.iter_modules(modp_gl2.__path__):
        module = importlib.import_module(f"modp_gl2.{info.name}")
        assert hasattr(module, "_series_gather") \
            == (info.name == "principal"), info.name
        assert hasattr(module, "_flat") == (info.name == "ring"), info.name
