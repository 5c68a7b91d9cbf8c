"""Exact N-th-order Darboux partner potentials with verification suites.

The exact layer (polynomials, Gaussian-weighted rational functions,
differential operators, the Crum-Krein construction) works over
arbitrary-precision rationals; the numeric layer cross-checks its claims by
finite differences on a grid with no shared code path.
"""

from .gaussian import DiffOp, GaussFun, MixedWeightError, wronskian
from .oscillator import (
    ForbiddenLevel,
    OscillatorModel,
    golden_cross_check,
    pair_wronskian_poly,
    partner_eigenfunction_closed_form,
    partner_potential_closed_form,
)
from .polynomial import NormValue, Poly, hermite_he, sturm_real_root_count
from .spectral import (
    Grid,
    NonConvergence,
    PoleOnGrid,
    REFERENCE_GRID,
    build_hamiltonian,
    eigenvalues_bisection,
    eigenvector_inverse_iteration,
    quadrature_simpson,
    sample,
    verify_spectrum,
)
from .susy import (
    Doublet,
    SusyClassification,
    anticommutator_check,
    classify,
    eigen_doublet,
    factorization_check,
    supercharge_apply,
)
from .transform import (
    DegenerateTransformation,
    InadmissibleSelection,
    LevelSelection,
    NodefulWronskian,
    TransformResult,
    build_transform,
    crum_krein_apply,
    crum_krein_operator,
    factorization_identity_check,
    kernel_functions,
    krein_admissible,
    krein_failure_index,
)

__version__ = "0.1.0"

__all__ = [
    "DiffOp",
    "GaussFun",
    "MixedWeightError",
    "wronskian",
    "ForbiddenLevel",
    "OscillatorModel",
    "golden_cross_check",
    "pair_wronskian_poly",
    "partner_eigenfunction_closed_form",
    "partner_potential_closed_form",
    "NormValue",
    "Poly",
    "hermite_he",
    "sturm_real_root_count",
    "Grid",
    "NonConvergence",
    "PoleOnGrid",
    "REFERENCE_GRID",
    "build_hamiltonian",
    "eigenvalues_bisection",
    "eigenvector_inverse_iteration",
    "quadrature_simpson",
    "sample",
    "verify_spectrum",
    "Doublet",
    "SusyClassification",
    "anticommutator_check",
    "classify",
    "eigen_doublet",
    "factorization_check",
    "supercharge_apply",
    "DegenerateTransformation",
    "InadmissibleSelection",
    "LevelSelection",
    "NodefulWronskian",
    "TransformResult",
    "build_transform",
    "crum_krein_apply",
    "crum_krein_operator",
    "factorization_identity_check",
    "kernel_functions",
    "krein_admissible",
    "krein_failure_index",
    "__version__",
]
