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
    RankTrichotomy,
    StackEvaluation,
    closed_form_kernel_vector,
    coordinate_weights,
    eval_alpha,
    eval_dalpha,
    evaluate_stack,
    kernel_family_basis,
    null_quadric_value,
    orientation_sign,
    rank_trichotomy,
    subspace_angle,
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
    gale_check,
    gale_transform,
    moment_image_check,
    moment_map,
    star_shaped_check,
)
from .actions import (
    FiberCount,
    GroupElement,
    branched_cover,
    cover,
    fiber_count,
    fiber_points,
    foliation_flow,
    isotropy_stratum,
    quadric_values,
    random_directions,
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
