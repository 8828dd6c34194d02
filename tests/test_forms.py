"""The 1-form alpha, its differential, kernel strata and contact volumes."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentangle import (
    Configuration,
    NumericalError,
    StructuralError,
    VarietyPoint,
    alpha_on_frame,
    certify,
    closed_form_kernel_vector,
    contact_volume,
    coordinate_weights,
    dalpha_on_frame,
    eval_alpha,
    eval_dalpha,
    evaluate_stack,
    expected_kernel_dims,
    fiber_count,
    isotropy_stratum,
    kernel_analysis,
    kernel_family_angle,
    kernel_family_basis,
    leaf_two_form_magnitude,
    null_quadric_value,
    numerical_kernel,
    orientation_sign,
    project_to_variety,
    rank_trichotomy,
    sign_orbit,
    subspace_angle,
    symplectic_leaf_rank,
    system_jacobian,
    tangent_frame,
)
from momentangle import forms, sample_points
from momentangle.config import DEFAULT_RANK_TOL, DEGENERACY_BAND
from momentangle.forms import ANGLE_LIMIT, VOLUME_MODULUS_RTOL
from momentangle.variety import ZERO_TOL, _verification_cases

from conftest import roots_of_unity
from _oracles import (
    bordered_rank_checks_reference,
    brute_force_contact_volume,
    cap_plane_reference,
    contact_volume_scale,
    hadamard_volume_bound,
    permutation_sum_contact_volume,
    point_checks_reference,
)
from test_acceptance import PFAFFIAN_REL_TOL

FIXTURES = ["pentagon", "hexagon_m2", "mixed_s1", "mixed_s2", "mixed_general_m1",
            "mixed_general_m2", "mixed_general_m3"]
#: Strata ``verify`` does not sample, stacked with the ones it does: the
#: partial stratum w_0 = 0 of the s = 2 link, and more of its null cone.
EXTRA_STRATA = {"mixed_s2": [(0,), "null"]}
EXACT_FIELDS = ["jacobian_rank", "ker_dalpha_dim", "ker_alpha_cap_ker_dalpha_dim",
                "indeterminate"]


def alpha_oracle(cfg, point, vector):
    """alpha = 2 sum wt (x dy - y dx), written out coordinate by coordinate."""
    wt = coordinate_weights(cfg)
    total = 0.0
    for i in range(wt.size):
        x, y = point[2 * i], point[2 * i + 1]
        vx, vy = vector[2 * i], vector[2 * i + 1]
        total += 2.0 * wt[i] * (x * vy - y * vx)
    return total


def test_eval_alpha_matches_oracle(mixed_s2):
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.normal(size=mixed_s2.ambient_real_dim)
        v = rng.normal(size=mixed_s2.ambient_real_dim)
        assert eval_alpha(mixed_s2, p, v) == pytest.approx(alpha_oracle(mixed_s2, p, v))


def test_eval_dalpha_antisymmetric_bilinear(pentagon):
    rng = np.random.default_rng(1)
    u, v, w = rng.normal(size=(3, pentagon.ambient_real_dim))
    assert eval_dalpha(pentagon, u, v) == pytest.approx(-eval_dalpha(pentagon, v, u))
    assert eval_dalpha(pentagon, u + 2.5 * w, v) == pytest.approx(
        eval_dalpha(pentagon, u, v) + 2.5 * eval_dalpha(pentagon, w, v)
    )
    assert eval_dalpha(pentagon, u, u) == 0.0


def test_dalpha_is_derivative_of_alpha(pentagon):
    """d(alpha)(u, v) = u[alpha(v)] - v[alpha(u)] for constant fields: with
    alpha linear in the base point the bracket term drops and finite
    differences along u and v must reproduce eval_dalpha."""
    rng = np.random.default_rng(2)
    p, u, v = rng.normal(size=(3, pentagon.ambient_real_dim))
    eps = 1e-6
    du = (alpha_oracle(pentagon, p + eps * u, v) - alpha_oracle(pentagon, p, v)) / eps
    dv = (alpha_oracle(pentagon, p + eps * v, u) - alpha_oracle(pentagon, p, u)) / eps
    assert eval_dalpha(pentagon, u, v) == pytest.approx(du - dv, abs=1e-6)


def test_frame_evaluations_match_pointwise(pentagon, batch):
    point = batch(pentagon, 1)[0]
    frame = tangent_frame(pentagon, point)
    mat = dalpha_on_frame(pentagon, point)
    for i in range(frame.shape[1]):
        for j in range(frame.shape[1]):
            assert mat[i, j] == pytest.approx(
                eval_dalpha(pentagon, frame[:, i], frame[:, j]), abs=1e-12
            )


@pytest.mark.parametrize("fixture,T,mu", [
    # classical: every (T, mu) gives a tangent kernel vector
    ("pentagon", 0.3 - 0.2j, 1.2),
    ("pentagon", 0.5 + 1.0j, -0.7),
    # mixed-m1: tangency couples the parameters, 2 conj(T) sum|w|^2
    # + mu sum w^2 = 0, leaving the one-real-parameter family
    # (T, mu) = c (conj(sum w^2), -2 sum |w|^2); markers below
    ("mixed_s1", None, 0.8),
    ("mixed_s2", None, -1.3),
])
def test_closed_form_vectors_lie_in_kernel(fixture, T, mu, request, batch):
    cfg = request.getfixturevalue(fixture)
    point = batch(cfg, 2)[1]
    if T is None:
        w = point.w_block(cfg)
        scale = mu
        T = scale * np.conj(np.sum(w**2))
        mu = scale * -2.0 * float(np.sum(np.abs(w) ** 2))
    vec = closed_form_kernel_vector(cfg, point.coordinates, T, mu)
    # tangency: annihilated by every residual gradient
    assert np.abs(system_jacobian(cfg, point.coordinates) @ vec).max() < 1e-9
    # in the kernel of dalpha restricted to the tangent space
    for column in tangent_frame(cfg, point).T:
        assert eval_dalpha(cfg, vec, column) == pytest.approx(0.0, abs=1e-9)
    # alpha pairs to -2 mu
    assert eval_alpha(cfg, point.coordinates, vec) == pytest.approx(-2.0 * mu, abs=1e-9)


def test_closed_form_vectors_mixed_general(mixed_general_m2, batch):
    point = batch(mixed_general_m2, 1)[0]
    w = point.w_block(mixed_general_m2)
    mu = 1.0
    T = -0.5 * mu * np.conj(w) / w
    vec = closed_form_kernel_vector(mixed_general_m2, point.coordinates, T, mu)
    assert np.abs(system_jacobian(mixed_general_m2, point.coordinates) @ vec).max() < 1e-9
    for column in tangent_frame(mixed_general_m2, point).T:
        assert eval_dalpha(mixed_general_m2, vec, column) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("rank_tol, indeterminate", [
    # every nonzero singular value lies inside (cut / 10, 10 * cut]
    (0.3, True),
    # sigma_max of dalpha just above cut / 10, then just at or below it
    (DEGENERACY_BAND * (1 - 1e-9), True),
    (DEGENERACY_BAND * (1 + 1e-9), False),
])
def test_indeterminate_follows_the_tie_band(pentagon, batch, rank_tol, indeterminate):
    point = batch(pentagon, 1)[0]
    ev = kernel_analysis(pentagon, point, rank_tol)
    assert ev.indeterminate is indeterminate
    if rank_tol < 1.0:
        # the flag does not move the verdicts: the ranks are the default ones
        assert (ev.ker_dalpha_dim, ev.ker_alpha_cap_ker_dalpha_dim) == (3, 2)


def test_rank_checks_match_the_oracle_row_by_row():
    """Random alpha and skew dalpha (d = 5) over a grid of cuts: the singular
    values of dalpha and of the bordered B, ranked in one padded stack, give
    the oracle's ranks and tie flags, including ties in B's row alone."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(200, 5))
    m = rng.normal(size=(200, 5, 5)) * np.geomspace(1.0, 1e-3, 5)
    # dalpha = diag(J, J/2, 0) and alpha = (cos t, 0, 0, 0, sin t): dalpha has
    # singular values (1, 1, 1/2, 1/2, 0), and B about (sqrt 2, sqrt 2, 1/2,
    # 1/2, sin t / sqrt 2, sin t / sqrt 2), so some t tie B's row alone
    t = np.geomspace(1e-6, 1e-1, 40)
    a = np.concatenate([a, np.column_stack([np.cos(t), 0 * t, 0 * t, 0 * t, np.sin(t)])])
    block = np.zeros((40, 5, 5))
    block[:, 0, 1], block[:, 2, 3] = 1.0, 0.5
    m = np.concatenate([m, block])
    dmat = m - m.transpose(0, 2, 1)
    sigma_d = np.linalg.svd(dmat, compute_uv=False)
    sigma_b = forms._volumes(a, dmat)[2]
    bordered_only = 0
    for rank_tol in np.geomspace(1e-3, 0.5, 12):
        ranks, indeterminate = forms._rank_checks(sigma_d, sigma_b, rank_tol)
        for i in range(len(a)):
            ref_ranks, ref_ties = bordered_rank_checks_reference(a[i], dmat[i], rank_tol)
            assert ranks[i].tolist() == list(ref_ranks)
            assert indeterminate[i] == any(ref_ties)
            bordered_only += ref_ties == (False, True)
    assert bordered_only > 0


def test_kernel_dims_classical(pentagon, hexagon_m2, batch):
    for cfg, expect in [(pentagon, (3, 2)), (hexagon_m2, (5, 4))]:
        for point in batch(cfg, 6):
            ev = kernel_analysis(cfg, point)
            assert (ev.ker_dalpha_dim, ev.ker_alpha_cap_ker_dalpha_dim) == expect
            assert expected_kernel_dims(cfg, point) == expect
            assert not ev.indeterminate


def test_kernel_dims_mixed_m1_strata(mixed_s1, mixed_s2, batch):
    for cfg in (mixed_s1, mixed_s2):
        for point in batch(cfg, 6):
            ev = kernel_analysis(cfg, point)
            assert (ev.ker_dalpha_dim, ev.ker_alpha_cap_ker_dalpha_dim) == (1, 0)
            assert ev.trichotomy == "contact"
        pattern = tuple(range(cfg.w_count))
        for point in batch(cfg, 6, pattern):
            ev = kernel_analysis(cfg, point)
            assert (ev.ker_dalpha_dim, ev.ker_alpha_cap_ker_dalpha_dim) == (3, 2)
            assert ev.trichotomy == "defect2"
            assert abs(ev.contact_volume) < 1e-9 * contact_volume_scale(cfg)


def test_null_cone_points_with_nonzero_w_stay_contact(mixed_s2, batch):
    """For s >= 2 the null quadric strictly contains {w = 0}; on the
    difference the tangency relation forces the kernel parameter T to zero,
    so the kernel stays 1-dimensional and alpha stays contact."""
    generic = batch(mixed_s2, 1)[0]
    kappa = orientation_sign(mixed_s2, generic)
    for point in batch(mixed_s2, 6, "null"):
        w = point.w_block(mixed_s2)
        assert abs(np.sum(w**2)) <= 1e-9 and np.all(np.abs(w) > 1e-3)
        ev = kernel_analysis(mixed_s2, point)
        assert (ev.ker_dalpha_dim, ev.ker_alpha_cap_ker_dalpha_dim) == (1, 0)
        assert ev.trichotomy == "contact"
        assert kappa * ev.contact_volume > 0
        assert kernel_family_angle(mixed_s2, point) < 1e-6


def test_kernel_dims_mixed_general_strata(mixed_general_m2, batch):
    cases = [(None, (1, 0), "contact"), ((0,), (3, 2), "defect2"),
             ((1,), (3, 2), "defect2"), ((0, 1), (5, 4), "deep")]
    for pattern, dims, label in cases:
        for point in batch(mixed_general_m2, 4, pattern):
            ev = kernel_analysis(mixed_general_m2, point)
            assert (ev.ker_dalpha_dim, ev.ker_alpha_cap_ker_dalpha_dim) == dims
            assert ev.trichotomy == label
            assert expected_kernel_dims(mixed_general_m2, point) == dims


def test_zero_pattern_and_expected_dims_agree_at_the_zero_cut(mixed_general_m2, batch):
    """With |w_0| placed at sqrt(ZERO_TOL), where |w_0|^2 meets the cut, the
    point's zero pattern and the stratum its checks expect come from one
    w-zero test, at every phase of w_0."""
    cfg = mixed_general_m2
    cut = np.sqrt(ZERO_TOL)
    start = batch(cfg, 1, (0,))[0].coordinates.copy()
    patterns = set()
    for theta in np.linspace(0.0, 2.0 * np.pi, 721):
        start[0:2] = cut * np.cos(theta), cut * np.sin(theta)
        coords = project_to_variety(cfg, start)
        coords[0:2] *= cut / np.hypot(*coords[0:2])  # w_0^2 moves by about 1e-16
        point = certify(cfg, coords)
        assert (point.zero_pattern == (0,)) == (expected_kernel_dims(cfg, point) == (3, 2))
        patterns.add(point.zero_pattern)
    assert patterns == {(), (0,)}  # the rounding of |w_0|^2 falls on both sides


#: Links with a stratum point whose w_0 is moved off zero: (configuration,
#: the stratum's pinned w).  The mixed-m1 links keep w_1 = 0 exactly.
SMALL_W_LINKS = {
    "mixed_general_m2": (Configuration(roots_of_unity(7, (1, 2)), "mixed-general"), (0,)),
    "mixed_s2": (Configuration(roots_of_unity(5, (1,)), "mixed-m1", 2), (0, 1)),
    "mixed_s2_weighted": (Configuration(roots_of_unity(5, (1,)), "mixed-m1", 2, [1.0, 3.0]),
                          (0, 1)),
}


def _moved_w0(batch, name, index, size, phase):
    """Stratum point ``index`` of ``SMALL_W_LINKS[name]`` with w_0 moved to
    size * e^(i phase), projected and certified: the link and the point."""
    cfg, pinned = SMALL_W_LINKS[name]
    coords = batch(cfg, 4, pinned)[index].coordinates.copy()
    coords[0:2] = size * np.cos(phase), size * np.sin(phase)
    return cfg, certify(cfg, project_to_variety(cfg, coords))


@given(name=st.sampled_from(sorted(SMALL_W_LINKS)), exponent=st.floats(-9.0, -2.0),
       phase=st.floats(0.0, 2.0 * np.pi), index=st.integers(0, 3))
@example(name="mixed_general_m2", exponent=-7.0, phase=0.0, index=0)
@example(name="mixed_general_m2", exponent=-5.0, phase=2.0, index=1)
@example(name="mixed_general_m2", exponent=float(np.log10(3e-4)), phase=4.0, index=2)
@settings(derandomize=True, max_examples=40, deadline=None)
def test_small_w_verdicts_follow_the_one_zero_rule(batch, name, exponent, phase, index):
    """A stratum point with |w_0| = 10^exponent, projected and certified: the
    leaf that verify expects is there exactly when |w_0|^2 <= ZERO_TOL, and
    unless a rank is indeterminate the SVD's kernel dimensions, and so the
    contact volume's vanishing (rank B < d + 1), agree with it; on the
    mixed-general link the isotropy type is the zero pattern, and the sign
    orbit has as many points as the fiber over the point's z block, off the
    near-branch band."""
    cfg, point = _moved_w0(batch, name, index, 10.0**exponent, phase)
    leaf = abs(point.w_block(cfg)[0]) ** 2 <= ZERO_TOL
    ev = evaluate_stack(cfg, [point])
    assert tuple(ev.expected_kernel_dims[0].tolist()) == ((3, 2) if leaf else (1, 0))
    if not ev.indeterminate[0]:
        dims = (ev.ker_dalpha_dim[0], ev.ker_alpha_cap_ker_dalpha_dim[0])
        assert dims == tuple(ev.expected_kernel_dims[0])
    if cfg.kind == "mixed-general":
        assert isotropy_stratum(cfg, point) == point.zero_pattern
        count = fiber_count(cfg, point.z_block(cfg))
        if not count.near_branch:
            assert len(sign_orbit(cfg, point)) == count.count


#: Leaf points of the weighted s = 2 link, (index, |w_0|, phase): |w_0|^2 is
#: 6e-10 to 9e-10, below ZERO_TOL, while the volume is above 1e-9 of its
#: Hadamard bound, the zero cut ``verify`` once used.
LEAF_BAND_POINTS = [(0, 2.5e-5, 0.0), (1, 3e-5, 1.0), (2, 2.5e-5, 4.0), (3, 3e-5, 2.0)]


@pytest.mark.parametrize("index, size, phase", LEAF_BAND_POINTS)
def test_a_leaf_volume_above_the_hadamard_cut_still_vanishes(batch, index, size, phase):
    """Near a leaf the volume outgrows 1e-9 of its Hadamard bound before
    the rank rule loses the leaf.  There B reads singular with no tie, so
    the volume vanishes with the zero rule, and the point cannot calibrate
    the orientation."""
    cfg, point = _moved_w0(batch, "mixed_s2_weighted", index, size, phase)
    ev = evaluate_stack(cfg, [point])
    assert point.zero_pattern == (0, 1) and not ev.indeterminate[0]
    assert (ev.ker_dalpha_dim[0], ev.ker_alpha_cap_ker_dalpha_dim[0]) == (3, 2)
    assert abs(ev.contact_volume[0]) > 1e-9 * hadamard_volume_bound(
        *forms._on_frame(cfg, point)[1:])
    with pytest.raises(NumericalError, match="degeneracy stratum"):
        orientation_sign(cfg, point)


@pytest.mark.parametrize("name", sorted(SMALL_W_LINKS))
def test_the_pfaffian_of_b_matches_its_singular_values_near_a_leaf(batch, name):
    """Off the leaf but near it, where sigma_min(B) / sigma_max(B) falls
    below 1e-7, |Pf B| from the elimination and sqrt(prod sigma_i(B)) from
    the SVD, two unrelated algorithms, agree within ``VOLUME_MODULUS_RTOL``."""
    smallest = 1.0
    for size in (2e-4, 3e-4, 1e-3):
        for index in range(4):
            cfg, point = _moved_w0(batch, name, index, size, float(index))
            ev = evaluate_stack(cfg, [point])
            assert ev.ker_alpha_cap_ker_dalpha_dim[0] == 0
            modulus = ev.contact_volume_modulus[0]
            assert abs(abs(ev.contact_volume[0]) - modulus) <= VOLUME_MODULUS_RTOL * modulus
            frame, a, dmat = forms._on_frame(cfg, point)
            sigma = forms._volumes(a[None], dmat[None])[2][0]
            smallest = min(smallest, sigma[-1] / sigma[0])
    assert smallest < 1e-7


def test_kernel_family_matches_svd_kernel(mixed_s1, mixed_general_m2, batch):
    for cfg in (mixed_s1, mixed_general_m2):
        for point in batch(cfg, 5):
            basis = kernel_family_basis(cfg, point.coordinates)
            numeric = numerical_kernel(cfg, point)
            assert basis.shape[1] == numeric.shape[1]
            assert subspace_angle(basis, numeric) < 1e-6
            assert kernel_family_angle(cfg, point) < 1e-6


#: Links whose w's carry form weights: (lambdas, kind, s).
WEIGHTED_LINKS = [(roots_of_unity(5, (1,)), "mixed-m1", 1),
                  (roots_of_unity(5, (1,)), "mixed-m1", 2),
                  (roots_of_unity(5, (1,)), "mixed-m1", 3),
                  (roots_of_unity(5, (1,)), "mixed-general", None),
                  (roots_of_unity(7, (1, 2)), "mixed-general", None),
                  (roots_of_unity(7, (1, 2, 3)), "mixed-general", None)]


@functools.lru_cache(maxsize=None)
def _generic_points(link: int):
    """Three generic points of WEIGHTED_LINKS[link]; the link does not depend on the weights."""
    lambdas, kind, s = WEIGHTED_LINKS[link]
    return lambdas, kind, s, sample_points(Configuration(lambdas, kind, s), 3, seed=link)


@given(st.integers(0, len(WEIGHTED_LINKS) - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_family_holds_for_any_positive_weights(link, data):
    """Tangency weighs each w_r^2 by 1/a_r, so the family's T does too: the closed
    form spans the numerical kernel for every choice of positive weights."""
    lambdas, kind, s, points = _generic_points(link)
    positive = st.floats(0.05, 20.0)
    weights_a = data.draw(st.lists(positive, min_size=s or lambdas.shape[1],
                                   max_size=s or lambdas.shape[1]))
    weights_b = data.draw(st.lists(positive, min_size=len(lambdas), max_size=len(lambdas)))
    cfg = Configuration(lambdas, kind, s, weights_a, weights_b)
    for point in points:
        assert kernel_family_angle(cfg, point) < ANGLE_LIMIT


@pytest.mark.parametrize("fixture", FIXTURES)
def test_stacked_evaluation_matches_per_point_oracle(fixture, request, monkeypatch, batch):
    """Every stratum ``verify`` samples, and those of ``EXTRA_STRATA``, 20
    points each, stacked in one call.

    Counts and flags equal the per-point oracle's; volumes agree to
    PFAFFIAN_REL_TOL (relative, or of the volume scale where they vanish),
    lie within their Hadamard bounds and, where B is nonsingular, within
    1e-12 of their moduli k! sqrt(prod sigma_i(B)), an SVD that shares
    nothing with the elimination; family angles agree to 1e-12 rad.
    Evaluated alone, a point gets exactly the values it gets inside the
    stack.  The restricted rank and the trichotomy label, which ``verify``
    does not record, are compared through ``kernel_analysis``, the N = 1
    call of the same rank checks.
    """
    cfg = request.getfixturevalue(fixture)
    cases = _verification_cases(cfg, 20, 0, 1e-10, DEFAULT_RANK_TOL)
    points = [point for _, case_points in cases for point in case_points]
    points += [point for pattern in EXTRA_STRATA.get(fixture, [])
               for point in batch(cfg, 20, pattern)]
    stack = evaluate_stack(cfg, points)
    scale = contact_volume_scale(cfg)
    classical = cfg.kind == "classical"
    for i, point in enumerate(points):
        ref = point_checks_reference(cfg, point)
        for field in EXACT_FIELDS + ["leaf_rank"] * classical:
            assert getattr(stack, field)[i] == ref[field], (field, i)
        single = kernel_analysis(cfg, point)
        for field in EXACT_FIELDS[1:] + ["rank_dalpha_on_ker_alpha", "trichotomy"]:
            assert getattr(single, field) == ref[field], (field, i)
        assert tuple(stack.expected_kernel_dims[i]) == ref["expected_kernel_dims"]
        assert stack.contact_volume[i] == pytest.approx(
            ref["contact_volume"], rel=PFAFFIAN_REL_TOL, abs=PFAFFIAN_REL_TOL * scale)
        assert abs(stack.contact_volume[i]) <= hadamard_volume_bound(
            *forms._on_frame(cfg, point)[1:])
        if stack.ker_alpha_cap_ker_dalpha_dim[i] == 0:
            modulus = stack.contact_volume_modulus[i]
            assert abs(abs(stack.contact_volume[i]) - modulus) <= 1e-12 * modulus
        assert abs(stack.family_angle[i] - ref["family_angle"]) <= 1e-12
        if classical:
            assert abs(stack.leaf_two_form_magnitude[i] - ref["leaf_two_form_magnitude"]) <= 1e-12

        alone = evaluate_stack(cfg, [point])
        for field in EXACT_FIELDS + ["expected_kernel_dims", "contact_volume",
                                     "contact_volume_modulus", "family_angle",
                                     *("leaf_rank", "leaf_two_form_magnitude",
                                       "leaf_two_form_bound") * classical]:
            np.testing.assert_array_equal(getattr(alone, field)[0], getattr(stack, field)[i])
    if not classical:
        assert stack.leaf_rank is None and stack.leaf_two_form_magnitude is None
        assert stack.leaf_two_form_bound is None

    # evaluated in blocks of 3 points, the stack is unchanged bit for bit
    monkeypatch.setattr(forms, "_ATTEMPT_BLOCK", 3)
    blocked = evaluate_stack(cfg, points)
    for field in dataclasses.fields(blocked):
        np.testing.assert_array_equal(getattr(blocked, field.name), getattr(stack, field.name))


@pytest.mark.parametrize("case", ["no points", "another link", "ragged"])
def test_evaluate_stack_checks_its_points_at_the_boundary(pentagon, mixed_general_m2, batch,
                                                          case):
    """No points, a point of another configuration, or a stack mixing one
    with a good point raise StructuralError, as ``kernel_analysis`` does."""
    good, other = batch(mixed_general_m2, 1)[0], batch(pentagon, 1)[0]
    points = {"no points": [], "another link": [other], "ragged": [good, other]}[case]
    match = "at least one point" if case == "no points" else "ambient vector of length 18"
    with pytest.raises(StructuralError, match=match):
        evaluate_stack(mixed_general_m2, points)
    if case == "another link":
        with pytest.raises(StructuralError, match=match):
            kernel_analysis(mixed_general_m2, other)


def test_kernel_analysis_ranks_dalpha_from_the_stacks_svd(mixed_general_m2, batch):
    """With ``rank_tol`` at a ratio of dalpha's own singular values, where the
    verdict turns on their last bits, ``kernel_analysis`` gives the kernel
    dimension ``evaluate_stack`` gives."""
    cfg = mixed_general_m2
    for point in batch(cfg, 40):
        dmat = forms._dalpha_stack(cfg, tangent_frame(cfg, point)[None])[0]
        sigma = np.linalg.svd(dmat)[1]
        for rank_tol in sigma[1:-1] / sigma[0]:
            if 0 < rank_tol < 1:
                alone = kernel_analysis(cfg, point, rank_tol).ker_dalpha_dim
                assert alone == evaluate_stack(cfg, [point], rank_tol).ker_dalpha_dim[0]


def test_rank_trichotomy_details(pentagon, mixed_s1, mixed_general_m2, batch):
    # classical m = 1: rank defect of one block, perp plane = the cap
    verdict = rank_trichotomy(pentagon, batch(pentagon, 1)[0])
    assert verdict.label == "defect2"
    assert verdict.rank == pentagon.manifold_dim - 3
    assert verdict.perp_dim == 2
    assert verdict.perp_basis.shape[1] == 2

    verdict = rank_trichotomy(mixed_s1, batch(mixed_s1, 1)[0])
    assert verdict.label == "contact"
    assert verdict.rank == mixed_s1.manifold_dim - 1
    assert verdict.perp_dim == mixed_s1.manifold_dim - 1
    assert verdict.perp_basis is None

    deep = rank_trichotomy(mixed_general_m2, batch(mixed_general_m2, 1, (0, 1))[0])
    assert deep.label == "deep"
    assert deep.perp_dim == 0


def test_rank_trichotomy_builds_one_frame(pentagon, mixed_s1, mixed_general_m2, batch,
                                          monkeypatch):
    """The label and rank are ``kernel_analysis``'s, and only a defect-2
    verdict builds a frame of its own: one ``_on_frame`` call for its plane."""
    calls = []
    on_frame = forms._on_frame
    monkeypatch.setattr(forms, "_on_frame",
                        lambda cfg, point: calls.append(point) or on_frame(cfg, point))
    for cfg, pattern, label, frames in [(pentagon, None, "defect2", 1),
                                        (mixed_s1, None, "contact", 0),
                                        (mixed_general_m2, (0, 1), "deep", 0)]:
        point = batch(cfg, 1, pattern)[0]
        calls.clear()
        verdict = rank_trichotomy(cfg, point)
        assert len(calls) == frames
        evaluation = kernel_analysis(cfg, point)
        assert verdict.label == evaluation.trichotomy == label
        assert verdict.rank == evaluation.rank_dalpha_on_ker_alpha


@pytest.mark.parametrize("fixture, pattern", [
    ("pentagon", None), ("mixed_s1", (0,)), ("mixed_s2", (0, 1)), ("mixed_general_m1", (0,)),
    ("mixed_general_m2", (0,)), ("mixed_general_m2", (1,)), ("mixed_general_m3", (2,))])
def test_defect2_plane_from_b_matches_the_kernel_of_dalpha_and_alpha(request, batch, fixture,
                                                                     pattern):
    """The defect-2 plane, the frame part of B's right singular vectors past
    its rank, is orthonormal and spans the kernel of the stacked
    [dalpha; alpha] within 1e-10 rad."""
    cfg = request.getfixturevalue(fixture)
    for point in batch(cfg, 5, pattern):
        plane = rank_trichotomy(cfg, point).perp_basis
        reference = cap_plane_reference(*forms._on_frame(cfg, point))
        assert plane.shape == reference.shape == (cfg.ambient_real_dim, 2)
        np.testing.assert_allclose(plane.T @ plane, np.eye(2), atol=1e-12)
        assert subspace_angle(plane, reference) < 1e-10


def test_defect2_perp_basis_spans_the_cap(pentagon, batch):
    point = batch(pentagon, 1)[0]
    verdict = rank_trichotomy(pentagon, point)
    # the returned plane is tangent and killed by both alpha and dalpha
    basis = verdict.perp_basis
    frame = tangent_frame(pentagon, point)
    a = alpha_on_frame(pentagon, point) @ (frame.T @ basis)
    assert np.abs(a).max() < 1e-8
    for column in basis.T:
        for other in frame.T:
            assert abs(eval_dalpha(pentagon, column, other)) < 1e-8


def test_volume_engines_agree_on_random_data():
    rng = np.random.default_rng(12)
    for d in (3, 5, 7):
        for _ in range(10):
            a = rng.normal(size=d)
            m = rng.normal(size=(d, d))
            m = m - m.T
            fast = pytest.approx(brute_force_contact_volume(a, m), rel=1e-9, abs=1e-12)
            assert forms._volumes(a[None], m[None])[0][0] == fast
    # permutation-sum oracle is factorially slow; check it once at d = 5
    a = rng.normal(size=5)
    m = rng.normal(size=(5, 5))
    m = m - m.T
    assert permutation_sum_contact_volume(a, m) == pytest.approx(
        brute_force_contact_volume(a, m), rel=1e-9
    )


def test_classical_volume_vanishes(pentagon, hexagon_m2, batch):
    for cfg in (pentagon, hexagon_m2):
        zero_scale = 1e-9 * contact_volume_scale(cfg)
        for point in batch(cfg, 4):
            assert abs(contact_volume(cfg, point)) < zero_scale


def test_orientation_sign_consistency(mixed_s1, batch):
    points = batch(mixed_s1, 6)
    kappa = orientation_sign(mixed_s1, points[0])
    assert kappa in (1.0, -1.0)
    for point in points:
        assert kappa * contact_volume(mixed_s1, point) > 0


def test_orientation_sign_rejects_degenerate_reference(mixed_s1, batch):
    stratum_point = batch(mixed_s1, 1, (0,))[0]
    with pytest.raises(NumericalError):
        orientation_sign(mixed_s1, stratum_point)


def test_symplectic_leaf_rank(pentagon, hexagon_m2, mixed_s1, batch):
    for cfg, rank in [(pentagon, 2), (hexagon_m2, 4)]:
        for point in batch(cfg, 4):
            assert symplectic_leaf_rank(cfg, point) == rank
            assert leaf_two_form_magnitude(cfg, point) <= 1e-10
    with pytest.raises(StructuralError):
        symplectic_leaf_rank(mixed_s1, batch(mixed_s1, 1)[0])


def test_null_quadric_value(mixed_s2, pentagon, batch):
    point = batch(mixed_s2, 1)[0]
    w = point.w_block(mixed_s2)
    assert null_quadric_value(mixed_s2, point.coordinates) == pytest.approx(
        complex(np.sum(w**2))
    )
    with pytest.raises(StructuralError):
        null_quadric_value(pentagon, batch(pentagon, 1)[0].coordinates)


def test_subspace_angle_sanity():
    e = np.eye(4)
    assert subspace_angle(e[:, :2], e[:, :2]) == pytest.approx(0.0, abs=1e-12)
    assert subspace_angle(e[:, :1], e[:, 1:2]) == pytest.approx(np.pi / 2)
    tilted = np.array([[1.0], [1.0], [0.0], [0.0]])
    assert subspace_angle(e[:, :1], tilted) == pytest.approx(np.pi / 4)
    with pytest.raises(StructuralError, match=r"\(4, 2\) and \(5, 1\)"):
        subspace_angle(e[:, :2], np.ones((5, 1)))
    with pytest.raises(StructuralError, match=r"\(4,\) and \(4, 1\)"):
        subspace_angle(np.ones(4), e[:, :1])


#: The functions of ``forms`` that take coordinate vectors (or, for
#: ``expected_kernel_dims``, a point's), each called with ``bad`` in one slot
#: and a good point ``x`` in the others.
COORDINATE_CALLS = {
    "closed_form_kernel_vector": lambda cfg, x, bad: closed_form_kernel_vector(cfg, bad, 0.5j, 1.0),
    "kernel_family_basis": lambda cfg, x, bad: kernel_family_basis(cfg, bad),
    "null_quadric_value": lambda cfg, x, bad: null_quadric_value(cfg, bad),
    "eval_alpha point": lambda cfg, x, bad: eval_alpha(cfg, bad, x),
    "eval_alpha vector": lambda cfg, x, bad: eval_alpha(cfg, x, bad),
    "eval_dalpha": lambda cfg, x, bad: eval_dalpha(cfg, x, bad),
    "expected_kernel_dims":
        lambda cfg, x, bad: expected_kernel_dims(cfg, VarietyPoint(bad, 0.0, ())),
}
#: Malformed versions of a coordinate vector of length 14, and the error they raise.
BAD_COORDINATES = {
    "short": (lambda x: x[:4], r"length 14, got \(4,\)"),
    "2-d": (lambda x: x.reshape(2, 7), r"length 14, got \(2, 7\)"),
    "nan": (lambda x: np.concatenate([[np.nan], x[1:]]), "finite"),
    "inf": (lambda x: np.concatenate([x[:-1], [-np.inf]]), "finite"),
}


@pytest.mark.parametrize("bad", BAD_COORDINATES)
@pytest.mark.parametrize("call", COORDINATE_CALLS)
def test_coordinate_vectors_are_checked_at_the_boundary(mixed_s2, batch, call, bad):
    """A coordinate vector of the wrong length or shape, or with a non-finite
    entry, raises StructuralError instead of giving a value or a RuntimeWarning."""
    x = batch(mixed_s2, 1)[0].coordinates
    make, match = BAD_COORDINATES[bad]
    with pytest.raises(StructuralError, match=match):
        COORDINATE_CALLS[call](mixed_s2, x, make(x))


@pytest.mark.parametrize("T,mu", [(np.nan, 1.0), (complex(0.0, np.inf), 1.0), (0.5j, np.nan),
                                  (0.5j, -np.inf)])
def test_closed_form_kernel_vector_rejects_non_finite_parameters(mixed_s2, batch, T, mu):
    x = batch(mixed_s2, 1)[0].coordinates
    with pytest.raises(StructuralError, match="finite"):
        closed_form_kernel_vector(mixed_s2, x, T, mu)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_volume_multilinearity_in_alpha(seed):
    """The top form is linear in alpha: scaling a scales the volume."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=5)
    m = rng.normal(size=(5, 5))
    m = m - m.T
    base = brute_force_contact_volume(a, m)
    assert brute_force_contact_volume(3.0 * a, m) == pytest.approx(3.0 * base, rel=1e-9, abs=1e-12)
