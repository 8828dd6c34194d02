"""Links of Hermitian quadric intersections: admissibility, sampling,
contact/confoliation verification, topology, toric data and group actions."""

from .config import (
    AdmissibilityReport,
    Configuration,
    MixedAdmissibilityReport,
    check_admissible,
    check_mixed_admissible,
    check_regularity_rank,
    check_siegel,
    check_weak_hyperbolicity,
    complexify,
    configuration_from_dict,
    configuration_to_dict,
    hull_distance,
    load_configuration,
    origin_in_hull,
    realify,
)
from .errors import (
    NumericalError,
    ProjectionError,
    SamplingBudgetError,
    SingularPointError,
    StructuralError,
)
from .forms import (
    FormEvaluation,
    RankTrichotomy,
    StackEvaluation,
    alpha_on_frame,
    closed_form_kernel_vector,
    contact_volume,
    coordinate_weights,
    dalpha_on_frame,
    eval_alpha,
    eval_dalpha,
    evaluate_stack,
    expected_kernel_dims,
    kernel_analysis,
    kernel_family_angle,
    kernel_family_basis,
    leaf_two_form_magnitude,
    null_quadric_value,
    numerical_kernel,
    orientation_sign,
    rank_trichotomy,
    subspace_angle,
    symplectic_leaf_rank,
    verify,
)
from .pfaffian import pfaffian
from .topology import CyclicWeights, DiffeoType, classify, count_diffeo_types, normalize_configuration
from .toric import (
    CEstimate,
    PolytopeDescription,
    StarShapedReport,
    big_moment_map,
    estimate_c,
    fiber_polytope,
    gale_transform,
    moment_image_check,
    moment_map,
    star_shaped_check,
)
from .actions import (
    FiberCount,
    GroupElement,
    branched_cover,
    fiber_count,
    fiber_points,
    foliation_flow,
    isotropy_stratum,
    quadric_values,
    ray_radius,
    sign_act,
    sign_orbit,
    torus_act,
)
from .variety import (
    VarietyPoint,
    certify,
    evaluate_system,
    jacobian_rank,
    project_to_variety,
    sample_points,
    sample_with_zero_pattern,
    system_jacobian,
    tangent_frame,
)

__version__ = "0.1.0"
