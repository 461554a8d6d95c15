"""Combinatorics of principal-series decompositions.

Two 4-vertex graphs drive everything. Vertices carry digit functions; a
closed walk of length f assigns one function per Frobenius slot. Walks on
the first graph decompose a principal series V_n(m) into irreducibles; walks
on the second one list the principal series containing a given irreducible.
``omega`` counts the latter; ``s_alpha`` averages the principal series.

Each vertex lies in the left (TL, BL) or right (TR, BR) column, and its
column fixes its two successors, {TL, BR} or {TR, BL}. So a closed walk is
fixed by its word of columns, one per slot. The V_n table is built from
those words, extended slot by slot while the digit maps stay in
[0, p-1]. The per-path functions (``explain_decomposition`` and the
``--explain`` report, ``antecedents``, ``omega``) walk validated
``ClosedPath`` objects, and the tests hold the table to them.

The V_n table is made of the ring's flat rows, built and read through
``ring`` alone. The gather lists of ``_series_gather`` are this module's
own: other modules read them only through ``_series_prefix`` (u N S-hat
plus the first s series, for the fast ``reduce_symm``, ``s_alpha`` and
``asymptotics.residual``) and ``_series_sum`` (any counts of the series,
for the fast product).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Mapping

from .memo import memo
from .params import FieldParams
from .ring import Label, RingElement, Row, _element, _expand, _labels, _row

DECOMPOSITION = "decomposition"
ANTECEDENT = "antecedent"

VERTICES = ("TL", "TR", "BL", "BR")

# Common edge set of both graphs: loops at the top row, and the cycle
# structure BL->TL, TL->BR, TR->BL, BR->TR plus BL<->BR.
EDGES = frozenset({
    ("TL", "TL"), ("TR", "TR"),
    ("BL", "TL"), ("TL", "BR"),
    ("TR", "BL"), ("BR", "TR"),
    ("BL", "BR"), ("BR", "BL"),
})

RIGHT_COLUMN = frozenset({"TR", "BR"})


def _image(graph: str, vertex: str, p: int, x: int) -> int:
    """A vertex's digit function at x; the graphs differ only at BL."""
    if vertex == "TL":
        return x
    if vertex == "TR":
        return p - 1 - x
    if vertex == "BR":
        return p - 2 - x
    return x - 1 if graph == DECOMPOSITION else x + 1


@dataclass(frozen=True)
class ClosedPath:
    graph: str
    vertices: tuple[str, ...]

    def __post_init__(self):
        if self.graph not in (DECOMPOSITION, ANTECEDENT):
            raise ValueError(f"unknown graph tag {self.graph!r}")
        f = len(self.vertices)
        for i in range(f):
            edge = (self.vertices[i], self.vertices[(i + 1) % f])
            if edge not in EDGES:
                raise ValueError(f"{edge} is not an edge")

    def serialize(self) -> str:
        return ",".join(self.vertices)


# The vertex at slot i of a closed walk, from the columns (0 left, 1 right)
# of slots i-1 and i: a left-column vertex (TL, BL) steps to TL or BR, a
# right-column one (TR, BR) to TR or BL, so its column fixes the next pair.
COLUMN_PAIRS = {(0, 0): "TL", (0, 1): "BR", (1, 1): "TR", (1, 0): "BL"}


@memo
def enumerate_closed_paths(graph: str, f: int) -> tuple[ClosedPath, ...]:
    """All closed walks of length f, in lexicographic vertex order: one per
    word c_0..c_(f-1) of columns, slot i taking the vertex of
    (c_(i-1), c_i), with c_(-1) = c_(f-1)."""
    if f < 1:
        raise ValueError("path length must be >= 1")
    return tuple(ClosedPath(graph, seq) for seq in sorted(
        tuple(COLUMN_PAIRS[word[i - 1], word[i]] for i in range(f))
        for word in product((0, 1), repeat=f)))


def _path_label(params: FieldParams, path: ClosedPath, n: int, graph: str,
                top: int, name: str) -> int | None:
    """The label with the digits of n in [0, top] mapped along a ``graph``
    path, or None if an image leaves [0, p-1]; ``name`` names the map."""
    if path.graph != graph:
        raise ValueError(f"{name} is defined on {graph}-graph paths")
    if len(path.vertices) != params.f:
        raise ValueError(f"path {path.serialize()} has length "
                         f"{len(path.vertices)}, not f = {params.f}")
    if not 0 <= n <= top:
        raise ValueError(f"n = {n} out of range [0, {top}]")
    images = [_image(graph, path.vertices[i], params.p, digit)
              for i, digit in enumerate(params.digits(n))]
    if not all(0 <= y <= params.p - 1 for y in images):
        return None
    return params.from_digits(images)


def lambda_of_path(params: FieldParams, path: ClosedPath, n: int) -> int | None:
    """lambda(n) along a decomposition-graph path, or None if incompatible."""
    return _path_label(params, path, n, DECOMPOSITION, params.q - 2, "lambda")


def mu_of_path(params: FieldParams, path: ClosedPath, n: int) -> int | None:
    """The antecedent label produced by an antecedent-graph path, or None."""
    return _path_label(params, path, n, ANTECEDENT, params.q - 1, "mu")


def ell_of_path(params: FieldParams, path: ClosedPath, n: int) -> int:
    """Determinant shift of the constituent cut out by a compatible path:
    (n - lambda(n)) / 2, as sum_i p^i (n_i - lambda_i(n_i)) = n - lambda(n),
    with q - 1 added inside the half when the last vertex is in the right
    column. The half is always integral; a failure here is a bug."""
    lam = _path_label(params, path, n, DECOMPOSITION, params.q - 2, "ell")
    if lam is None:
        raise ValueError(f"path {path.serialize()} incompatible with n = {n}")
    return _shift(params, path, n, lam)


def _shift(params: FieldParams, path: ClosedPath, n: int, lam: int) -> int:
    """``ell_of_path`` given lam = lambda(n) along the path."""
    total = n - lam
    if path.vertices[-1] in RIGHT_COLUMN:
        total += params.q - 1
    if total % 2 != 0:
        raise AssertionError("non-integral determinant shift (internal bug)")
    return (total // 2) % (params.q - 1)


def explain_decomposition(params: FieldParams, n: int) -> list[dict]:
    """Per-path report: lambda and ell of every compatible decomposition
    path, which the CLI --explain flag prints. Its compatible rows count
    the constituents of ``_diamond_columns``' row n, by an independent
    route."""
    rows = []
    for path in enumerate_closed_paths(DECOMPOSITION, params.f):
        lam = lambda_of_path(params, path, n)
        row = {"path": path.serialize(), "compatible": lam is not None}
        if lam is not None:
            row["lambda"] = lam
            row["ell"] = _shift(params, path, n, lam)
        rows.append(row)
    return rows


def _column_steps(p: int, x: int) -> list[tuple[int, int, int]]:
    """The decomposition-graph vertices whose digit map keeps x in
    [0, p-1], as (c_(i-1), c_i, image), in sorted vertex order: BL (x >= 1),
    BR (x <= p-2), then TL and TR, which keep every digit."""
    steps = []
    if x >= 1:
        steps.append((1, 0, x - 1))
    if x <= p - 2:
        steps.append((0, 1, p - 2 - x))
    return steps + [(0, 0, x), (1, 1, p - 1 - x)]


@memo
def _diamond_columns(params: FieldParams) -> tuple[Row, ...]:
    """The untwisted V_n in the L basis for n < q-1, as flat rows: one
    L_lambda(ell) per compatible decomposition path, built from column
    words. Slot by slot, each partial word (c_(-1), c_i, lambda so far)
    takes the vertices of ``_column_steps`` leaving its column; a word
    closes when c_(f-1) is the column c_(-1) its slot 0 assumed. Then
    ell = (n - lambda + [c_(f-1) right] (q-1)) / 2 mod (q-1), as in
    ``ell_of_path``. The words stay in the paths' vertex order, so each
    row lists its labels as ``explain_decomposition`` does."""
    p, q = params.p, params.q
    qm1 = q - 1
    steps = [_column_steps(p, x) for x in range(p)]
    rows = []
    for n in range(qm1):
        digits = params.digits(n)
        # slot 0 takes every vertex, from the column c_(-1) it assumes
        walks = steps[digits[0]]
        for i in range(1, params.f):
            pi = p ** i
            walks = [(first, b, lam + pi * y) for first, c, lam in walks
                     for a, b, y in steps[digits[i]] if a == c]
        labels = Counter()
        for first, last, lam in walks:
            if last != first:
                continue
            total = n - lam + last * qm1
            if total % 2 != 0:
                raise AssertionError(
                    "non-integral determinant shift (internal bug)")
            labels[lam, (total // 2) % qm1] += 1
        rows.append(_row(qm1, labels))
    return tuple(rows)


def diamond_decompose(params: FieldParams, n: int, m: int = 0) -> RingElement:
    """Irreducible constituents of the principal series V_n(m), n in [0, q-2].

    One constituent L_{lambda(n)}(m + ell(n)) per compatible closed path;
    all multiplicities are 1 and dimensions add up to q + 1.
    """
    if not 0 <= n <= params.q - 2:
        raise ValueError(f"n = {n} out of range [0, {params.q - 2}]")
    return _element(params, "L", _expand(params, {(n, m): 1},
                                         _diamond_columns(params)))


def antecedents(params: FieldParams, n: int, m: int = 0) -> set[Label]:
    """All (n', m') with n' in [0, q-2] such that V_{n'}(m') contains L_n(m)."""
    q = params.q
    if not 0 <= n <= q - 1:
        raise ValueError(f"n = {n} out of range [0, {q - 1}]")
    result: set[Label] = set()
    for path in enumerate_closed_paths(ANTECEDENT, params.f):
        nprime = mu_of_path(params, path, n)
        if nprime is None or nprime == q - 1:
            continue
        # the decomposition digit maps invert the antecedent ones, so the
        # decomposition path on the same vertices takes n' back to n
        ell = _shift(params, path, nprime, n)
        result.add((nprime, params.residue(m - ell)))
    return result


@memo
def omega(params: FieldParams, n: int) -> int:
    """Number of principal series containing L_n(m) (independent of m).

    Computed both by counting antecedent paths and by the closed form
    2^f - 1 for n = 0, else 2^(f - r_n) with r_n the number of base-p
    digits of n equal to p - 1; the two must agree.
    """
    counted = len(antecedents(params, n, 0))
    if n == 0:
        closed = 2 ** params.f - 1
    else:
        r_n = sum(1 for d in params.digits(n) if d == params.p - 1)
        closed = 2 ** (params.f - r_n)
    if counted != closed:
        raise AssertionError(f"omega({n}): {counted} antecedent paths, closed "
                             f"form {closed} (internal bug)")
    return closed


@memo
def _series_gather(params: FieldParams,
                   alpha: int) -> Mapping[Label, tuple[int, ...]]:
    """The q-1 principal series V(c2) = V_((alpha-2c2) mod (q-1))(c2),
    c2 < q-1, of central character alpha, gathered by constituent: each
    label L_n(m) of central character alpha maps to the c2 whose V(c2)
    contains it, ascending, each repeated by its multiplicity. A sum of
    the series with counts c[c2] holds the label sum(c[c2] for c2 in its
    entry) times, and the entry's length is omega(n), the label's value in
    N S-hat_alpha: the one table of N S-hat_alpha, read through
    ``_series_prefix`` and ``_series_sum``. A read-only view, built from
    the V_n table."""
    qm1 = params.q - 1
    rows = _diamond_columns(params)
    table: dict[Label, list[int]] = {}
    for c2 in range(qm1):
        row = _labels(qm1, rows[(alpha - 2 * c2) % qm1])
        for (n, x), k in row.items():
            table.setdefault((n, (x + c2) % qm1), []).extend([c2] * k)
    return MappingProxyType({lbl: tuple(c2s) for lbl, c2s in table.items()})


def _series_prefix(params: FieldParams, alpha: int, u, s: int) -> dict:
    """u N S-hat_alpha plus the series V(c2) of central character alpha
    with c2 < s, as a fresh label dict: u len(entry) + (entries below s)
    per label of the gather table. u = 1, s = 0 gives N S-hat_alpha."""
    return {lbl: u * len(c2s) + bisect_left(c2s, s) for lbl, c2s
            in _series_gather(params, alpha % (params.q - 1)).items()}


def _series_sum(params: FieldParams, alpha: int, counts: list[int]) -> dict:
    """The sum of counts[c2] V(c2) over the series of central character
    alpha, as a fresh label dict: each label sums the counts of its
    gather-table entry."""
    return {lbl: sum(map(counts.__getitem__, c2s)) for lbl, c2s
            in _series_gather(params, alpha % (params.q - 1)).items()}


def s_alpha(params: FieldParams, i: int) -> RingElement:
    """The dimension-1 averaged class of central character i, as an L-basis
    ``RingElement``: the average of [V(chi)] over the q-1 Borel characters
    chi with central character i, normalized by 1/(q^2 - 1), and the limit
    of [V]/dim V. In closed form: omega(n)/(q^2 - 1) on each label L_n(m)
    with n + 2m = i (mod q-1), and 0 elsewhere, omega(n) being the length
    of the label's entry in the gather table of i."""
    period = params.q ** 2 - 1
    return _element(params, "L", {lbl: Fraction(c, period) for lbl, c
                                  in _series_prefix(params, i, 1, 0).items()})
