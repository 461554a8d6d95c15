"""Exact computations in the Grothendieck ring of mod-p representations of
GL2(F_q), with principal-series combinatorics, asymptotic multiplicity
bounds, a Brauer-character oracle, and Breuil-Mezard multiplicities."""

from .asymptotics import (
    BoundReport,
    ConstantsReport,
    check_theorem_bound,
    compute_constants,
    exact_multiplicity,
    frobenius_proximity,
    multiplicity_estimate,
    norm_L_inf,
    norm_S_1,
    operator_norm,
    residual,
    s_alpha,
    split_by_central_character,
    t_shift,
    t_shift_candidates,
)
from .bm import (
    GaloisTypeClass,
    RhoBarQp,
    a_sigma,
    mu_aut,
    mu_aut_asymptotic_qp,
    mu_aut_asymptotic_unramified,
    preset_type_crystalline_trivial_qp,
    preset_type_trivial_qp,
    qp_gate,
    serre_weights_qp_irreducible,
    unramified_gate,
)
from .params import FieldParams
from .principal import (
    ClosedPath,
    antecedents,
    diamond_decompose,
    enumerate_closed_paths,
    ell_of_path,
    lambda_of_path,
    mu_of_path,
    omega,
)
from .reduction import SymmFactor, reduce_product, reduce_symm
from .ring import RingElement, convert_basis, multiply, symm_to_L

# The Brauer oracle needs numpy, so it loads on first use (PEP 562); a star
# import still binds "brauer", which the import system loads from __all__.
_BRAUER = ("BrauerTable", "OracleError", "PRegularClass", "build_table",
           "enumerate_p_regular_classes", "oracle_decompose")

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["brauer", *_BRAUER])


def __getattr__(name):
    if name not in _BRAUER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import brauer
    return getattr(brauer, name)
