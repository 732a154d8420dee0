"""Exact-arithmetic root decompositions and axiom checks for lattice-graded
Lie algebras built from sign-commutation tori, their affinizations, cocycle
extensions, and square-root field extensions.

All arithmetic is exact (Fractions, Gaussian rationals, real quadratic
extensions); window bounds truncate quantifier ranges, never precision.
"""

from .axioms import check_D, check_props, check_T, serre_check, tameness_check
from .constructions import (
    AffinizedAlgebra,
    CocycleExtensionAlgebra,
    ExtensionSpec,
    SqrtExtensionAlgebra,
    TorusMatrixAlgebra,
    affinize,
    build_extension_by_cocycle,
    check_extension_conditions,
    degree_derivation_spec,
)
from .decomp import (
    RootSystemWindow,
    core_and_center_window,
    decompose_window,
    isotropic_pair,
    sl2_triple,
    theta_automorphism,
)
from .ears import check_ears_axioms, check_semilattice, support_checks, support_sets
from .finroot import FiniteRootSystem, Root, root_string
from .quantum_torus import SignMatrix, TorusElement
from .reporting import AxiomReport, CheckResult

__version__ = "0.1.0"

# The one arithmetic backend: every kernel is pure Python.
BACKEND = "python"

__all__ = [
    "AffinizedAlgebra",
    "AxiomReport",
    "BACKEND",
    "CheckResult",
    "CocycleExtensionAlgebra",
    "ExtensionSpec",
    "FiniteRootSystem",
    "Root",
    "RootSystemWindow",
    "SignMatrix",
    "SqrtExtensionAlgebra",
    "TorusElement",
    "TorusMatrixAlgebra",
    "affinize",
    "build_extension_by_cocycle",
    "check_D",
    "check_T",
    "check_ears_axioms",
    "check_extension_conditions",
    "check_props",
    "check_semilattice",
    "core_and_center_window",
    "decompose_window",
    "degree_derivation_spec",
    "isotropic_pair",
    "root_string",
    "serre_check",
    "sl2_triple",
    "support_checks",
    "support_sets",
    "tameness_check",
    "theta_automorphism",
]
