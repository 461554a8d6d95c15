"""Automorphic multiplicities for the Breuil-Mezard setting.

The inputs a user must supply are the reduction class of the inertial type
(a nonnegative integer class in the L basis, with its dimension) and the
intrinsic multiplicities of the Serre weights. The two trivial-type presets
for K = Q_p and the irreducible-rhobar weight set are built in; everything
else arrives through the JSON schemas at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .params import FieldParams
from .reduction import reduce_product
from .ring import RingElement, multiply, symm_to_L


@dataclass(frozen=True)
class GaloisTypeClass:
    """Mod-p reduction class of an inertial type, with its dimension."""

    dim_type: int
    reduction_class: RingElement
    label: str = ""

    def __post_init__(self):
        cls = self.reduction_class.to_basis("L")
        if any(c != int(c) or c < 0 for c in cls.terms.values()):
            raise ValueError("type class must have nonnegative integer coefficients")
        if cls.dimension() != self.dim_type:
            raise ValueError(
                f"type class dimension {cls.dimension()} != stated {self.dim_type}")
        if cls.central_character() is None:
            raise ValueError("type class must have a central character")


@dataclass(frozen=True)
class RhoBarQp:
    """Inertial data of an irreducible rhobar over Q_p: a pair (n, m) with
    0 <= n <= p-2 and m mod p-1."""

    n: int
    m: int


def _require_qp(params: FieldParams):
    if params.f != 1 or params.degree != 1:
        raise ValueError("this construction needs K = Q_p: f = 1, h = 1")


def preset_type_trivial_qp(p: int) -> GaloisTypeClass:
    """Trivial type over Q_p: the Steinberg lift Symm^(p-1), dimension p."""
    params = FieldParams(p, 1, h=1)
    return GaloisTypeClass(p, symm_to_L(params, p - 1, 0), "trivial")


def preset_type_crystalline_trivial_qp(p: int) -> GaloisTypeClass:
    """Crystalline variant of the trivial type: the trivial representation."""
    params = FieldParams(p, 1, h=1)
    return GaloisTypeClass(1, RingElement.L(params, 0, 0), "crystalline-trivial")


def serre_weights_qp_irreducible(params: FieldParams, rho: RhoBarQp) -> dict:
    """The two weights of an irreducible rhobar over Q_p, each with
    multiplicity one: (n, m) and (p-1-n, n+m)."""
    _require_qp(params)
    p = params.p
    if not 0 <= rho.n <= p - 2:
        raise ValueError(f"n = {rho.n} out of range [0, {p - 2}]")
    m = params.residue(rho.m)
    first = (rho.n, m)
    second = (p - 1 - rho.n, params.residue(rho.n + rho.m))
    if first == second:
        raise AssertionError("the two weights coincide (internal bug)")
    return {first: 1, second: 1}


def a_sigma(params: FieldParams, type_class: GaloisTypeClass, factors) -> dict:
    """Multiplicity of every irreducible in reduction(type) * prod S_k(m)^[j].

    Returns the full map (n, m) -> nonnegative integer.
    """
    product = reduce_product(params, factors)
    total = multiply(type_class.reduction_class.to_basis("L"), product)
    out = {}
    for lbl, c in total.sorted_terms():
        if c.denominator != 1 or c < 0:
            raise AssertionError(f"multiplicity {c} at {lbl} is not a "
                                 "nonnegative integer (internal bug)")
        out[lbl] = int(c)
    return out


def mu_aut(params: FieldParams, intrinsics: dict,
           factors, type_class: GaloisTypeClass) -> int:
    """Sum over weights of intrinsic multiplicity times a_sigma. A weight's
    m is read mod q-1, so two spellings of one weight are one label and the
    later entry wins."""
    coeffs = a_sigma(params, type_class, factors)
    qm1 = params.q - 1
    weights = {}
    for (n, m), mu in intrinsics.items():
        if not 0 <= n <= qm1:
            raise ValueError(f"weight n = {n} out of range [0, {qm1}]")
        weights[n, m % qm1] = mu
    return sum(mu * coeffs.get(lbl, 0) for lbl, mu in weights.items())


# ---------------------------------------------------------------------------
# Closed-form asymptotics

def qp_gate(params: FieldParams, rho: RhoBarQp, a: int, b: int) -> bool:
    """Central character gate over Q_p: both trivial-type reductions
    (Steinberg and the trivial representation) have central character 0,
    so the multiplicity can be nonzero only when a + 2b = n + 2m mod p-1."""
    pm1 = params.p - 1
    return (a + 2 * b) % pm1 == (rho.n + 2 * rho.m) % pm1


def mu_aut_asymptotic_qp(params: FieldParams, rho: RhoBarQp, a: int, b: int,
                         variant: str = "trivial") -> Fraction:
    """Leading term of the automorphic multiplicity over Q_p.

    Trivial type: 4p(a+1)/(p^2-1); crystalline trivial type: 4(a+1)/(p^2-1);
    both halved when n = 0 and zero when the character gate fails.
    """
    _require_qp(params)
    p = params.p
    if variant == "trivial":
        lead = Fraction(4 * p * (a + 1), p * p - 1)
    elif variant == "crystalline":
        lead = Fraction(4 * (a + 1), p * p - 1)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if not qp_gate(params, rho, a, b):
        return Fraction(0)
    if rho.n == 0:
        lead /= 2
    return lead


QP_TYPES = {
    "trivial": preset_type_trivial_qp,
    "crystalline": preset_type_crystalline_trivial_qp,
}


def qp_sweep(params: FieldParams, rho: RhoBarQp, variant: str, a_values,
             b: int | None = None):
    """Rows (a, b, gate, mu_aut, asymptotic mu) over Q_p, one per a, for the
    type ``QP_TYPES[variant]`` and the Serre weights of rho; b, when not
    given, is per row the smallest in [0, p-2] passing the gate, else 0."""
    weights = serre_weights_qp_irreducible(params, rho)
    if variant not in QP_TYPES:
        raise ValueError(f"unknown variant {variant!r}")
    type_class = QP_TYPES[variant](params.p)
    for a in a_values:
        b_a = b if b is not None else next(
            (c for c in range(params.p - 1) if qp_gate(params, rho, a, c)), 0)
        yield (a, b_a, qp_gate(params, rho, a, b_a),
               mu_aut(params, weights, [(a, b_a, 0)], type_class),
               mu_aut_asymptotic_qp(params, rho, a, b_a, variant))


def _require_unramified(params: FieldParams):
    if params.degree != params.f:
        raise ValueError(f"the unramified example needs h = f = {params.f}")


def mu_aut_asymptotic_unramified(params: FieldParams, dim_type: int,
                                 a_list, gate: bool) -> Fraction:
    """Leading term 4^h dim(type) prod(a_i + 1) / (p^(2h) - 1) in the
    unramified generic case (h = f); zero when the character gate fails."""
    _require_unramified(params)
    p, h = params.p, params.f
    a_list = list(a_list)
    if len(a_list) != h:
        raise ValueError(f"expected {h} weights, got {len(a_list)}")
    if not gate:
        return Fraction(0)
    return Fraction(4 ** h * dim_type * prod(a + 1 for a in a_list),
                    p ** (2 * h) - 1)


def unramified_gate(params: FieldParams, r_list, a_list, b_list,
                    alpha_type: int) -> bool:
    """Central character gate of the unramified generic example (h = f).

    Checks sum p^i (a_i + 2 b_i) + alpha(type-bar) = sum p^i (r_i + 1)
    mod q-1, after validating the genericity window on the r_i.
    """
    _require_unramified(params)
    p, h = params.p, params.f
    r_list, a_list, b_list = list(r_list), list(a_list), list(b_list)
    if not (len(r_list) == len(a_list) == len(b_list) == h):
        raise ValueError(f"expected {h} entries in each list")
    if not 2 <= r_list[0] <= p - 3:
        raise ValueError(f"r_0 = {r_list[0]} violates 2 <= r_0 <= p-3")
    for r in r_list[1:]:
        if not 1 <= r <= p - 4:
            raise ValueError(f"r_i = {r} violates 1 <= r_i <= p-4")
    qm1 = params.q - 1
    lhs = sum(p ** i * (a + 2 * b) for i, (a, b) in enumerate(zip(a_list, b_list)))
    rhs = sum(p ** i * (r + 1) for i, r in enumerate(r_list))
    return (lhs + alpha_type) % qm1 == rhs % qm1


# ---------------------------------------------------------------------------
# JSON schemas

def intrinsics_to_json(intrinsics: dict) -> list[dict]:
    return [{"n": n, "m": m, "mu": mu}
            for (n, m), mu in sorted(intrinsics.items())]


def intrinsics_from_json(data) -> dict:
    try:
        rows = [(r["n"], r["m"], r["mu"]) for r in data]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed weights JSON: {exc!r}") from None
    if any(type(x) is not int for row in rows for x in row):
        raise ValueError("weights JSON: n, m and mu must be integers")
    if any(mu < 0 for *_, mu in rows):
        raise ValueError("intrinsic multiplicities are nonnegative")
    return {(n, m): mu for n, m, mu in rows}


def type_to_json(type_class: GaloisTypeClass) -> dict:
    return {
        "dim": type_class.dim_type,
        "label": type_class.label,
        "class": type_class.reduction_class.to_json_dict(),
    }


def type_from_json(data) -> GaloisTypeClass:
    try:
        cls = RingElement.from_json_dict(data["class"])
        dim, label = data["dim"], data.get("label", "")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed type JSON: {exc!r}") from None
    if type(dim) is not int:
        raise ValueError(f"type JSON: dim = {dim!r} is not an integer")
    return GaloisTypeClass(dim, cls, label)
