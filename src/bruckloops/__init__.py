"""Bruck loops on positive-definite isometries of an indefinite form, the
loops of affine subspaces obtained by extending them with translations
along a transversal, and a numeric verification harness for the loop
identities, closure, factorization, transversality and dimension claims.
"""

from .errors import BruckLoopsError
from .extension import (
    ExtensionConfig,
    ExtensionElement,
    ext_loop_interface,
    ext_mul,
    extension_config,
    lift_from_infinity,
    nonisomorphism_witness,
    omega,
    realize,
    solve_translation,
)
from .geometry import AffineSubspace, at_infinity, subspace, subspace_distance
from .groups import (
    PhiElement,
    SampleStream,
    SigmaElement,
    SignatureForm,
    conjugate_by_phi,
    membership_residual,
    polar_factorize,
    sample_phi,
    sample_sigma,
    standard_boost,
)
from .kernel import Loop, check_aip, check_bol, check_left_a, check_loop_axioms
from .linalg import Tolerance, eig_hermitian, orthonormalize, spectral_map
from .matrixloop import MatrixLoop

__all__ = [
    "AffineSubspace",
    "BruckLoopsError",
    "ExtensionConfig",
    "ExtensionElement",
    "Loop",
    "MatrixLoop",
    "PhiElement",
    "SampleStream",
    "SigmaElement",
    "SignatureForm",
    "Tolerance",
    "at_infinity",
    "check_aip",
    "check_bol",
    "check_left_a",
    "check_loop_axioms",
    "conjugate_by_phi",
    "eig_hermitian",
    "ext_loop_interface",
    "ext_mul",
    "extension_config",
    "lift_from_infinity",
    "membership_residual",
    "nonisomorphism_witness",
    "omega",
    "orthonormalize",
    "polar_factorize",
    "realize",
    "sample_phi",
    "sample_sigma",
    "solve_translation",
    "spectral_map",
    "standard_boost",
    "subspace",
    "subspace_distance",
]

__version__ = "0.1.0"
