"""Sparse exact arithmetic in the Grothendieck ring of mod-p representations
of GL2(F_q).

Elements are finite maps from weight labels (n, m) to exact rational
coefficients, expressed either in the basis of irreducibles ("L") or of
symmetric powers ("S"), both indexed by 0 <= n <= q-1 and m mod q-1. A
coefficient is stored in one canonical form: a plain ``int`` when its value
is an integer (as for every class of a representation), otherwise a reduced
``Fraction``; zero coefficients are not stored. The arithmetic below thus
runs on Python ints except where a true fraction takes part.

Multiplication starts from the q products [L_a][L_1]. L_n is the tensor
product over Frobenius slots of symmetric powers of the digits of n, and L_1
is S_1 in slot 0, so [L_a][L_1] takes one carry along the slots. As
[L_(b-1)][L_1] is [L_b] plus classes of lower labels, every [L_a][L_b]
follows by recursion on b. The product table is built one row a at a time,
on first use: a product reads only the rows of the labels of its shorter
operand. Row a takes [L_a][L_b] from row b when that row is already
built, so each pair {a, b} is computed once and stored once, in whatever
order rows are asked for. The Glover recursion
[S_n] = [S_(n-1)][L_1] - [S_(n-2)](1) gives the S <-> L base change.

Every per-field table is a tuple of flat rows, one per untwisted label: a
row is a tuple of triples (n(q-1), x, k) for the term k L_n(x), so that
n(q-1) + x is the label's int key. Products, the S <-> L base change and
(in ``principal``) V_n commute with the determinant twist, so one loop,
``_convolve``, applies the tables on int keys (``_product_row``, the
hottest table build, has it unrolled); keys and rows turn back
into labels (n, x) = divmod(key, q-1) only for results handed out. Every
product is one kernel on such terms, ``_add_product``, which folds its
factors through the product table and adds the result into a label dict:
``multiply`` is an adapter on it, and the fast product hands it the
remainders S_w(t)^[j] as flat terms from ``_symm_terms``. The row format
is this module's own: other modules use ``_labels``, ``_row``, ``_expand``,
``_add_symm``, ``_symm_terms`` and ``_add_product``, but ``asymptotics``
reads the triples of the product rows and the L -> S columns directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from types import MappingProxyType
from typing import Iterable, Mapping

from .memo import memo
from .params import FieldParams

Label = tuple[int, int]
Coeff = int | Fraction
Row = tuple[tuple[int, int, int], ...]


def _fill(v: "RingElement", params: FieldParams, basis: str,
          terms: Mapping[Label, Coeff]) -> None:
    """Set v's fields, dropping zero values and storing integral Fractions
    as ints."""
    object.__setattr__(v, "params", params)
    object.__setattr__(v, "basis", basis)
    object.__setattr__(v, "terms", MappingProxyType({
        k: c if type(c) is int or c.denominator != 1 else c.numerator
        for k, c in terms.items() if c}))


def _element(params: FieldParams, basis: str,
             terms: Mapping[Label, Coeff]) -> "RingElement":
    """Trusted constructor for results computed in this package: labels are
    already canonical (0 <= n <= q-1, m reduced mod q-1) and values are ints
    or Fractions, so only zeros are dropped and integral Fractions made ints.
    """
    v = object.__new__(RingElement)
    _fill(v, params, basis, terms)
    return v


def _exact(c) -> Coeff:
    """A coefficient as an int or a Fraction; a float is refused, as its
    value would arrive already rounded (0.1 is not 1/10), and a zero
    denominator is a ``ValueError``, as in ``from_json_dict``."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"coefficient {c!r} is a float, not exact")
    try:
        return Fraction(c)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {c!r} has a zero denominator") from None


def frac_str(x: Coeff) -> str:
    """The exact "num/den" wire format of a coefficient or a constant."""
    return f"{x.numerator}/{x.denominator}"


class RingElement:
    """An element of the Grothendieck ring with exact rational coefficients.

    Immutable: all operations return new elements. ``terms`` is a read-only
    map from labels (n, m) to nonzero coefficients, each an ``int`` when
    integral and a ``Fraction`` otherwise.
    """

    __slots__ = ("params", "basis", "terms")

    def __init__(self, params: FieldParams, basis: str,
                 terms: Mapping[Label, Coeff] | Iterable = ()):
        if basis not in ("L", "S"):
            raise ValueError(f"unknown basis tag {basis!r}")
        q = params.q
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Label, Coeff] = {}
        for (n, m), c in items:
            if type(n) is not int or type(m) is not int:
                raise TypeError(f"label ({n!r}, {m!r}) is not a pair of ints")
            if not 0 <= n <= q - 1:
                raise ValueError(f"label n = {n} out of range [0, {q - 1}]")
            key = (n, params.residue(m))
            clean[key] = clean.get(key, 0) + _exact(c)
        _fill(self, params, basis, clean)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: FieldParams, basis: str = "L") -> "RingElement":
        return cls(params, basis, ())

    @classmethod
    def L(cls, params: FieldParams, n: int, m: int = 0) -> "RingElement":
        return cls(params, "L", {(n, m): 1})

    @classmethod
    def S(cls, params: FieldParams, n: int, m: int = 0) -> "RingElement":
        return cls(params, "S", {(n, m): 1})

    # -- basic structure ---------------------------------------------------

    def coeff(self, n: int, m: int) -> Coeff:
        return self.terms.get((n, self.params.residue(m)), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Label, Coeff]]:
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        if (self.params.p, self.params.f) != (other.params.p, other.params.f):
            return False
        if self.basis != other.basis:
            return self.to_basis("L").terms == other.to_basis("L").terms
        return self.terms == other.terms

    def __hash__(self):
        # equal elements in different bases must hash alike: hash the L form
        return hash((self.params.p, self.params.f,
                     frozenset(self.to_basis("L").terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (n, m), c in self.sorted_terms():
            lbl = f"[{self.basis}_{n}({m})]"
            bits.append(lbl if c == 1 else f"{c}*{lbl}")
        return " + ".join(bits)

    # -- linear operations -------------------------------------------------

    def _same_kind(self, other: "RingElement"):
        if (self.params.p, self.params.f) != (other.params.p, other.params.f):
            raise ValueError("field parameter mismatch")
        if self.basis != other.basis:
            raise ValueError("basis mismatch; convert explicitly")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._same_kind(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return _element(self.params, self.basis, out)

    def __neg__(self) -> "RingElement":
        return self.scale(-1)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def scale(self, c) -> "RingElement":
        c = _exact(c)
        return _element(self.params, self.basis,
                        {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- twists ------------------------------------------------------------

    def det_twist(self, i: int) -> "RingElement":
        """Shift every label (n, m) to (n, m + i); works in either basis."""
        return _element(self.params, self.basis,
                        _twist(self.params, self.terms, i))

    def frobenius_twist(self, j: int = 1) -> "RingElement":
        """Apply the j-th power of Frobenius: (n, m) -> (theta^j n, theta^j m)."""
        v = self.to_basis("L")
        res = _element(v.params, "L", _twist(v.params, v.terms, 0, j))
        return res if self.basis == "L" else res.to_basis(self.basis)

    # -- basis change ------------------------------------------------------

    def to_basis(self, target: str) -> "RingElement":
        return convert_basis(self, target)

    # -- invariants --------------------------------------------------------

    def dimension(self) -> Coeff:
        """Linear extension of dim; basis independent."""
        if self.basis == "S":
            return sum(c * (n + 1) for (n, _), c in self.terms.items())
        dims = _dims(self.params)
        return sum(c * dims[n] for (n, _), c in self.terms.items())

    def central_character(self) -> int | None:
        """Common value of n + 2m mod q-1 over all terms, or None."""
        qm1 = self.params.q - 1
        alpha = None
        for (n, m), _ in self.terms.items():
            a = (n + 2 * m) % qm1
            if alpha is None:
                alpha = a
            elif a != alpha:
                return None
        return alpha

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p": self.params.p,
            "f": self.params.f,
            "basis": self.basis,
            "terms": [
                {"n": n, "m": m, "coeff": frac_str(c)}
                for (n, m), c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RingElement":
        try:
            params = FieldParams(data["p"], data["f"])
            terms = []   # a list, so that repeated labels add up
            for t in data["terms"]:
                # a float coefficient would arrive already rounded
                if type(t["coeff"]) not in (int, str):
                    raise TypeError(f"coefficient {t['coeff']!r} is not an "
                                    "int or a string")
                terms.append(((t["n"], t["m"]), Fraction(t["coeff"])))
            return cls(params, data["basis"], terms)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed element JSON: {exc!r}") from None


def _twist(params: FieldParams, terms: Mapping[Label, Coeff], m: int = 0,
           j: int = 0) -> dict[Label, Coeff]:
    """Twist a label dict by det^m, then Frobenius^j: (a, x) -> (theta^j a,
    p^j (x + m)) mod q-1, theta^j rotating the base-p digits of a, which is
    a p^j mod q-1 but on a = q-1, all digits p-1, which it fixes. A bijection
    on labels, so no terms merge; valid in the S basis for j = 0 only."""
    qm1 = params.q - 1
    pj = pow(params.p, j % params.f, qm1)
    return {(a if a == qm1 else a * pj % qm1, (x + m) * pj % qm1): c
            for (a, x), c in terms.items()}


def _convolve(qm1: int, acc: dict[int, Coeff], terms, rows, scale: Coeff = 1,
              shift: int = 0) -> dict[int, Coeff]:
    """Add scale * c * rows[n], twisted by t + shift, to ``acc`` for each
    term (n(q-1), t, c), so that a flat row is itself a list of terms;
    return ``acc``, zeros kept. A row entry (n'(q-1), x, k) adds at the
    int key n'(q-1) + (x + t + shift) mod q-1: the kernel of every
    product, base change and Glover step."""
    get = acc.get
    for i, t, c in terms:
        c *= scale
        t += shift
        for nb, x, k in rows[i // qm1]:
            key = nb + (t + x) % qm1
            acc[key] = get(key, 0) + c * k
    return acc


def _flat(qm1: int, acc: dict[int, Coeff]) -> Row:
    """The nonzero entries of an int-keyed accumulator as a flat row, made
    from a list: a tuple grown from a generator is resized, and once freed
    it fills the interpreter's free list of its new size, which is kept."""
    return tuple([(key - key % qm1, key % qm1, c)
                  for key, c in acc.items() if c])


def _labels(qm1: int, row: Row) -> dict[Label, Coeff]:
    """A flat row as a fresh label dict."""
    return {(nb // qm1, x): k for nb, x, k in row}


def _row(qm1: int, terms: Mapping[Label, Coeff]) -> Row:
    """A label dict as a flat row, the inverse of ``_labels``."""
    return tuple([(n * qm1, x, c) for (n, x), c in terms.items()])


def _expand(params: FieldParams, terms: Mapping[Label, Coeff], rows) -> dict:
    """The label dict ``terms`` through a table of rows, as a label dict,
    zeros kept: ``_convolve`` between labels and int keys."""
    qm1 = params.q - 1
    return {divmod(key, qm1): c
            for key, c in _convolve(qm1, {}, _row(qm1, terms), rows).items()}


# ---------------------------------------------------------------------------
# Products: the q rows [L_a][L_1], then a recursion on the second label

@memo
def _dims(params: FieldParams) -> tuple[int, ...]:
    """dim L_n for n < q: the product of (digit + 1) over its base-p digits."""
    return tuple(prod(d + 1 for d in params.digits(n))
                 for n in range(params.q))


@memo
def _l1_rows(params: FieldParams) -> tuple[Row, ...]:
    """[L_a][L_1] in the L basis for a < q, as flat rows. L_1 is S_1 in slot
    0; tensoring S_1 into slot i sends S_d to S_(d+1) + S_(d-1)(p^i), and at
    d = p-1 the S_p made is S_(p-2)(p^i) plus S_0 with S_1 carried into slot
    i+1 mod f, a carry that stops at the first slot below p-1 (at worst one
    it zeroed)."""
    p, f, qm1 = params.p, params.f, params.q - 1
    rows = []
    for a in range(params.q):
        row: dict[int, int] = {}
        digits, i = params.digits(a), 0
        while digits[i] == p - 1:
            # S_(p-2)(p^i) twice: once from S_(d-1)(p^i), once from S_p
            key = (params.from_digits(digits) - p ** i) * qm1 + p ** i % qm1
            row[key] = row.get(key, 0) + 2
            digits[i] = 0
            i = (i + 1) % f
        n, pi = params.from_digits(digits), p ** i
        keys = [(n + pi) * qm1] + [(n - pi) * qm1 + pi % qm1] * (digits[i] > 0)
        for key in keys:
            row[key] = row.get(key, 0) + 1
        rows.append(_flat(qm1, row))
    return tuple(rows)


@memo
def _product_row(params: FieldParams, a: int) -> tuple[Row, ...]:
    """[L_a][L_b] (twists shifted out) for every b < q, as flat rows, from
    [L_a][L_0] = [L_a]. [L_(b-1)][L_1] is [L_b] plus classes of labels
    below b, so [L_a][L_b] is [L_a][L_(b-1)][L_1] less [L_a] times those,
    all earlier in the row: entry b is empty while [L_a][L_(b-1)][L_1] is
    convolved through the row, so the term L_b adds nothing. Entry b is
    row b's entry a when row b is already stored, so that entries [a][b]
    and [b][a] are one object."""
    p, f, qm1 = params.p, params.f, params.q - 1
    l1, stored = _l1_rows(params), _product_row.table.get
    partner = stored((p, f, 0))
    row = [((a * qm1, 0, 1),) if partner is None else partner[a]]
    for b in range(1, params.q):
        partner = stored((p, f, b))
        if partner is not None:
            row.append(partner[a])
            continue
        # _convolve twice, unrolled: most l1 rows hold one or two terms, so
        # the calls and the per-term scale and shift would cost about as
        # much as the sums
        acc: dict[int, int] = {}
        get = acc.get
        for i, t, c in row[b - 1]:
            for nb, x, k in l1[i // qm1]:
                key = nb + (t + x) % qm1
                acc[key] = get(key, 0) + c * k
        row.append(())
        for i, t, c in l1[b - 1]:
            for nb, x, k in row[i // qm1]:
                key = nb + (t + x) % qm1
                acc[key] = get(key, 0) - c * k
        row[b] = _flat(qm1, acc)
    return tuple(row)


def structure_constants(params: FieldParams, a: int, b: int) -> Mapping[Label, int]:
    """L-basis expansion of [L_a][L_b] (twists shifted out): label -> coeff,
    a fresh read-only map built from the memoized flat row."""
    if not (0 <= a < params.q and 0 <= b < params.q):
        raise ValueError(f"labels {a}, {b} out of range [0, {params.q - 1}]")
    return MappingProxyType(_labels(params.q - 1, _product_row(params, a)[b]))


def _add_product(params: FieldParams, terms: dict[Label, Coeff], factors,
                 sign: int = 1) -> dict[Label, Coeff]:
    """Add sign times the product of ``factors``, each a list of L-basis
    flat terms (n(q-1), x, c), into the label dict ``terms``; return
    ``terms``. The factors fold from the first. Each step walks the shorter
    of the partial product and the next factor, fetching one product row
    per term, and convolves it with the longer: so a fast product builds
    only the rows of its remainders' labels, and ``multiply`` by one term
    L_n(m) the row of n alone."""
    qm1 = params.q - 1
    acc = factors[0]
    for w in factors[1:]:
        if len(w) < len(acc):
            acc, w = w, acc
        out: dict[int, Coeff] = {}
        for nb, x, c in acc:
            _convolve(qm1, out, w, _product_row(params, nb // qm1), c, x)
        acc = _flat(qm1, out)
    for nb, x, c in acc:
        lbl = (nb // qm1, x)
        terms[lbl] = terms.get(lbl, 0) + sign * c
    return terms


def multiply(v: RingElement, w: RingElement) -> RingElement:
    """Product in the ring, returned in the L basis."""
    if (v.params.p, v.params.f) != (w.params.p, w.params.f):
        raise ValueError("field parameter mismatch")
    params = v.params
    qm1 = params.q - 1
    return _element(params, "L", _add_product(params, {}, [
        _row(qm1, v.to_basis("L").terms), _row(qm1, w.to_basis("L").terms)]))


# ---------------------------------------------------------------------------
# Base change between the S and L bases

def _glover_step(params: FieldParams, prev: Row, prev2: Row) -> Row:
    """[S_n] from [S_{n-1}] and [S_{n-2}], all as L-basis flat rows, by the
    Glover recursion [S_n] = [S_{n-1}][L_1] - [S_{n-2}](1)."""
    qm1 = params.q - 1
    acc = _convolve(qm1, {}, prev, _l1_rows(params))
    get = acc.get
    for nb, x, c in prev2:
        key = nb + (x + 1) % qm1
        acc[key] = get(key, 0) - c
    return _flat(qm1, acc)


@memo
def _s_to_l_columns(params: FieldParams) -> tuple[Row, ...]:
    """[S_n(0)] in the L basis for 0 <= n <= q-1, as flat rows: [S_0] =
    [L_0], [S_1] = [L_1] and ``_glover_step`` from there on."""
    cols = [((0, 0, 1),), ((params.q - 1, 0, 1),)]
    for n in range(2, params.q):
        cols.append(_glover_step(params, cols[n - 1], cols[n - 2]))
    return tuple(cols)


@memo
def _l_to_s_columns(params: FieldParams) -> tuple[Row, ...]:
    """[L_n(0)] in the S basis, as flat rows, inverting the unit-triangular
    S -> L change: the constituents of S_n but L_n have labels below n."""
    qm1 = params.q - 1
    cols: list[Row] = []
    for n, s_col in enumerate(_s_to_l_columns(params)):
        rest = [(nb, x, -k) for nb, x, k in s_col if (nb, x) != (n * qm1, 0)]
        cols.append(_flat(qm1, _convolve(qm1, {n * qm1: 1}, rest, cols)))
    return tuple(cols)


def _add_symm(params: FieldParams, terms: dict[Label, Coeff], w: int, v: int,
              sign: int = 1) -> dict[Label, Coeff]:
    """Add sign * [S_w(v)], w < q, into the label dict ``terms`` in one pass
    over the base-change column of S_w; return ``terms``."""
    qm1 = params.q - 1
    for nb, x, c in _s_to_l_columns(params)[w]:
        lbl = (nb // qm1, (x + v) % qm1)
        terms[lbl] = terms.get(lbl, 0) + sign * c
    return terms


def _symm_terms(params: FieldParams, w: int, t: int, j: int) -> list:
    """[S_w(t)]^[j], w < q, as L-basis flat terms in one pass over the
    base-change column of S_w: (n, x) -> (theta^j n, p^j (x + t)) mod q-1,
    theta^j fixing n = q-1, as in ``_twist``."""
    qm1 = params.q - 1
    pj, top = pow(params.p, j % params.f, qm1), qm1 * qm1
    return [(nb if nb == top else nb // qm1 * pj % qm1 * qm1,
             (x + t) * pj % qm1, c)
            for nb, x, c in _s_to_l_columns(params)[w]]


def symm_to_L(params: FieldParams, n: int, m: int = 0) -> RingElement:
    """L-basis expansion of [S_n(m)] for 0 <= n <= q-1."""
    if not 0 <= n <= params.q - 1:
        raise ValueError(f"n = {n} out of range [0, {params.q - 1}]")
    return _element(params, "L", _add_symm(params, {}, n, m))


def convert_basis(v: RingElement, target: str) -> RingElement:
    if target not in ("L", "S"):
        raise ValueError(f"unknown basis tag {target!r}")
    if v.basis == target:
        return v
    params = v.params
    cols = _s_to_l_columns(params) if target == "L" else _l_to_s_columns(params)
    return _element(params, target, _expand(params, v.terms, cols))
