"""Exact A-infinity algebras, bimodules and their Hochschild (co)homology.

The package computes with finite-rank graded modules over Z or Z/p, using
exact integer arithmetic throughout. Defining equations, the Hochschild
differential with all sign conventions, duality, the cup product and the
length-filtration spectral sequence are implemented as checkable identities
on sparse operation tables.
"""

from .algebra import (
    AInfinityAlgebra,
    Verdict,
    check_defining_equation,
    from_dga,
    shift,
    validate,
)
from .bimodules import (
    AInfinityBimodule,
    BimoduleMorphism,
    check_bimodule_equation,
    check_morphism_equation,
    diagonal_bimodule,
    dual_bimodule,
    identity_morphism,
    tensor_square_bimodule,
)
from .chains import HochschildComplex, InducedChainMap
from .cochains import (
    Cochain,
    DualChainElement,
    b_star,
    cocycle_to_morphism,
    codifferential,
    duality_iso,
    duality_iso_inverse,
    elementary_cochain,
    pullback,
)
from .cup import cup
from .graded import Element, GradedModule, MultilinearOp, apply, degree, reduced_index
from .homology import (
    ExactMatrix,
    FiniteComplex,
    HomologySummary,
    chain_map_failures,
    induced_map_on_homology,
    invariant_factors,
    smith_normal_form,
)
from .rings import CoefficientRing, Z, Zp
from .signs import maltese
from .spectral import comparison_check, page1

__all__ = [name for name in dir() if not name.startswith("_")]
