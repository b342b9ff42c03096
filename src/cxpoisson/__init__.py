"""Exact arithmetic for complex Poisson bivectors and complex Dirac structures.

Everything is computed over the Gaussian rationals, so all checks are exact:
a verdict of "pass" means the identity holds on the nose, not up to rounding.
"""

from .scalars import GaussScalar, GS_I, GS_ONE, GS_ZERO
from .poly import (
    Chart,
    Poly,
    format_poly,
    poly_eval,
    poly_partial,
    poly_subst_zero,
)
from .grammar import PolyParseError, parse_poly
from .fields import (
    FormField,
    GradedField,
    MultiField,
    apply_to_forms,
    complex_differential,
    contract,
    contract_form,
    d_complex,
    decompose,
    eval_field,
    lie_derivative,
    recompose,
    schouten,
    schouten_sum,
    wedge,
)
from .bivector import (
    ComplexBivector,
    bivector_from_brackets,
    bracket_of_functions,
    construct,
    cotangent_bracket,
    hamiltonian,
    jacobi_pde_residuals,
    jacobi_residual,
    nijenhuis_residuals,
    pair_conditions,
)
from .lagrangian import (
    IndexRecord,
    Lagrangian,
    Subspace,
    bivector_of_graph,
    check,
    check_cot,
    complexify_real,
    graph,
    hat,
    hat_cot,
    images,
    indices,
    is_quasi_real,
    k_and_perp,
    kernel_space,
    lagrangian_from_range_form,
    pairing,
    products,
    tangent_range,
    tilde,
    tilde_cot,
    transform,
    two_form_on_range,
)
from .pointwise import (
    PresymplecticData,
    RankProfile,
    a_pi_at,
    delta_at,
    gcs_matrix,
    graph_at,
    grid_points,
    involutivity_sample,
    presymplectic_at,
    profile_sample,
    rank_profile,
    theorem_7_18_check,
)
from .normal_form import (
    BundleChart,
    WeightZeroError,
    extension_check,
    local_model_at,
    mixed_check,
    moser_average,
    splitting_check,
)
from .problem import ProblemFile, ProblemParseError, dumps, parse_problem

__version__ = "0.1.0"
