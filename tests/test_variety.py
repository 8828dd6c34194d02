"""Sampling, projection and certification on the link varieties."""

import gc
import weakref
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import (
    Configuration,
    ProjectionError,
    SamplingBudgetError,
    SingularPointError,
    StructuralError,
    VarietyPoint,
    certify,
    check_admissible,
    complexify,
    evaluate_stack,
    evaluate_system,
    jacobian_rank,
    kernel_analysis,
    project_to_variety,
    realify,
    sample_points,
    sample_with_zero_pattern,
    system_jacobian,
    tangent_frame,
    variety,
    verify,
)

from _oracles import jacobian_ranks_reference, sample_reference, system_oracle
from conftest import roots_of_unity


@pytest.mark.parametrize("fixture", ["pentagon", "mixed_s2", "mixed_general_m2"])
def test_evaluate_system_matches_oracle(fixture, request):
    cfg = request.getfixturevalue(fixture)
    rng = np.random.default_rng(3)
    for _ in range(5):
        coords = rng.normal(size=cfg.ambient_real_dim)
        np.testing.assert_allclose(
            evaluate_system(cfg, coords), system_oracle(cfg, coords), atol=1e-12
        )


@pytest.mark.parametrize("fixture", ["pentagon", "hexagon_m2", "mixed_s1",
                                     "mixed_s2", "mixed_general_m2"])
def test_sampled_points_are_certified(fixture, request, batch):
    cfg = request.getfixturevalue(fixture)
    for point in batch(cfg, 8):
        assert point.residual_norm <= 1e-10
        assert np.linalg.norm(evaluate_system(cfg, point.coordinates), np.inf) <= 1e-10
        frame = tangent_frame(cfg, point)
        assert frame.shape == (cfg.ambient_real_dim, cfg.manifold_dim)
        np.testing.assert_allclose(frame.T @ frame, np.eye(frame.shape[1]), atol=1e-10)
        # Tangency: residual gradients annihilate the frame.
        jac = system_jacobian(cfg, point.coordinates)
        assert np.abs(jac @ frame).max() <= 1e-8
        assert jacobian_rank(cfg, point) == cfg.equation_count


def test_certified_frames_are_positively_oriented(pentagon, batch):
    for point in batch(pentagon, 5):
        jac = system_jacobian(pentagon, point.coordinates)
        square = np.column_stack([jac.T, tangent_frame(pentagon, point)])
        assert np.linalg.det(square) > 0


def test_jacobian_matches_finite_differences(mixed_general_m2):
    cfg = mixed_general_m2
    rng = np.random.default_rng(11)
    coords = rng.normal(size=cfg.ambient_real_dim)
    jac = system_jacobian(cfg, coords)
    eps = 1e-6
    for i in range(cfg.ambient_real_dim):
        bump = coords.copy()
        bump[i] += eps
        column = (evaluate_system(cfg, bump) - evaluate_system(cfg, coords)) / eps
        np.testing.assert_allclose(jac[:, i], column, atol=1e-5)


def test_projection_converges_and_certifies(pentagon):
    rng = np.random.default_rng(5)
    start = rng.normal(size=pentagon.ambient_real_dim)
    coords = project_to_variety(pentagon, start)
    point = certify(pentagon, coords)
    assert point.residual_norm <= 1e-10


def test_projection_reports_best_residual(pentagon):
    start = np.ones(pentagon.ambient_real_dim)
    with pytest.raises(ProjectionError) as info:
        project_to_variety(pentagon, start, max_iter=1)
    assert info.value.best_residual > 0


def test_stalled_projection_prints_its_best_residual():
    """A stalled projection names the infinity norm it stores as
    ``best_residual``, as the no-convergence message does."""
    cfg = _empty_stratum_link()
    start = np.zeros(cfg.ambient_real_dim)
    start[2 * cfg.w_count :: 2] = 1.0  # w = 0 and every z_j = 1
    with pytest.raises(ProjectionError, match="line search stalled") as info:
        project_to_variety(cfg, start)
    assert info.value.best_residual == pytest.approx(0.5)
    assert str(info.value).endswith(f"(best residual {info.value.best_residual:.3e})")


def test_prefix_stable_streams(pentagon):
    short = sample_points(pentagon, 3, seed=9)
    long = sample_points(pentagon, 6, seed=9)
    for a, b in zip(short, long):
        np.testing.assert_array_equal(a.coordinates, b.coordinates)


def test_zero_pattern_sampling(mixed_s1, mixed_s2, mixed_general_m2):
    for K in [(0,), (1,), (0, 1)]:
        for p in sample_with_zero_pattern(mixed_general_m2, K, 3, seed=1):
            w = p.w_block(mixed_general_m2)
            assert np.all(np.abs(w[list(K)]) <= 1e-8)
            assert p.zero_pattern == K
    # mixed-m1 degenerate stratum: the whole w block vanishes.
    for p in sample_with_zero_pattern(mixed_s2, (0, 1), 3, seed=1):
        assert np.all(np.abs(p.w_block(mixed_s2)) <= 1e-8)
    # null quadric: sum w^2 = 0 with w generically nonzero when s >= 2.
    for p in sample_with_zero_pattern(mixed_s2, None, 3, seed=1):
        w = p.w_block(mixed_s2)
        assert abs(np.sum(w**2)) <= 1e-9
        assert np.all(np.abs(w) > 1e-3)
    # s = 1: the null quadric *is* w = 0.
    for p in sample_with_zero_pattern(mixed_s1, None, 3, seed=1):
        assert np.all(np.abs(p.w_block(mixed_s1)) <= 1e-8)


def _zero_pattern_oracle(cfg, X):
    return [tuple(np.flatnonzero(row).tolist()) for row in variety._zero_mask(cfg, X)]


def test_zero_patterns_match_the_mask_on_every_stratum(mixed_general_m3, batch):
    """Each point's zero pattern is the indices of its zero mask, on the generic
    points and on each of the seven strata, and so is each row's of one block
    that stacks all eight."""
    cfg = mixed_general_m3
    strata = [None] + [K for size in (1, 2, 3) for K in combinations(range(3), size)]
    blocks = []
    for K in strata:
        points = batch(cfg, 4, K)
        X = np.array([p.coordinates for p in points])
        assert [p.zero_pattern for p in points] == _zero_pattern_oracle(cfg, X)
        assert {p.zero_pattern for p in points} == {K or ()}
        blocks.append(X)
    X = np.concatenate(blocks)[np.random.default_rng(0).permutation(4 * len(strata))]
    assert variety._zero_patterns(cfg, X) == _zero_pattern_oracle(cfg, X)


def test_zero_patterns_match_the_mask_beyond_63_w_coordinates():
    """A mixed-m1 link with s = 70: the codes of the zero masks are wider than
    one 64-bit word, on sampled points and on rows with random masks."""
    cfg = Configuration(lambdas=roots_of_unity(5, (1,)), kind="mixed-m1", s=70)
    strata = [(0, 7, 8, 62, 63, 64, 69), (64,), (69,), (0, 69)]
    points = [p for K in strata for p in sample_with_zero_pattern(cfg, K, 2, seed=0)]
    points += sample_points(cfg, 2, seed=0)
    X = np.array([p.coordinates for p in points])
    assert [p.zero_pattern for p in points] == _zero_pattern_oracle(cfg, X)
    assert [p.zero_pattern for p in points] == [K for K in strata for _ in range(2)] + [()] * 2
    assert variety._zero_patterns(cfg, X) == _zero_pattern_oracle(cfg, X)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, cfg.ambient_real_dim))
    masks = rng.random((8, cfg.w_count)) < 0.3
    masks[0] = False
    masks[1] = True
    masks[3] = masks[2]
    masks[3, 66] = not masks[2, 66]  # two masks that differ past the 64th w only
    pinned = np.repeat(masks[rng.integers(0, 8, size=40)], 2, axis=1)
    X[:, : 2 * cfg.w_count][pinned] = 0.0
    assert variety._zero_patterns(cfg, X) == _zero_pattern_oracle(cfg, X)


def test_zero_pattern_validation(pentagon, mixed_general_m2):
    with pytest.raises(StructuralError):
        sample_with_zero_pattern(pentagon, (0,), 1)
    with pytest.raises(StructuralError):
        sample_with_zero_pattern(mixed_general_m2, (), 1)
    with pytest.raises(StructuralError):
        sample_with_zero_pattern(mixed_general_m2, (5,), 1)
    with pytest.raises(StructuralError):
        sample_with_zero_pattern(mixed_general_m2, None, 1)


def test_sampling_budget_error():
    # The w = 0 stratum is empty, so stratum sampling must exhaust its budget.
    with pytest.raises(SamplingBudgetError) as info:
        sample_with_zero_pattern(_empty_stratum_link(), (0, 1), 2, seed=0,
                                 max_attempts_per_point=3)
    assert info.value.requested == 2
    outcomes = info.value.outcomes
    assert outcomes["attempts"] == 6
    rejected = sum(v for key, v in outcomes.items() if key != "attempts")
    assert rejected == outcomes["attempts"] - len(info.value.points)
    # The stratum is empty, so no attempt gets past the projection.
    assert outcomes["not_converged"] + outcomes["line_search_stalls"] == 6
    for words in ("not converged", "line search stalls", "singular"):
        assert words in str(info.value)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=10))
@settings(max_examples=30, deadline=None)
def test_realify_complexify_round_trip(values):
    if len(values) % 2 == 1:
        values = values + [0.0]
    coords = np.asarray(values)
    np.testing.assert_array_equal(realify(complexify(coords)), coords)


# Every fixture with every stratum kind: generic points, each --pattern
# subset of the w block, and the null quadric of the mixed-m1 links.
W_COUNTS = {"pentagon": 0, "hexagon_m2": 0, "mixed_s1": 1, "mixed_s2": 2,
            "mixed_general_m1": 1, "mixed_general_m2": 2, "mixed_general_m3": 3}
STRATA = [(name, None) for name in W_COUNTS]
STRATA += [(name, K) for name, s in W_COUNTS.items()
           for size in range(1, s + 1) for K in combinations(range(s), size)]
STRATA += [("mixed_s1", "null"), ("mixed_s2", "null")]


def _draw(cfg, stratum, count, seed, **kwargs):
    if stratum is None:
        return sample_points(cfg, count, seed=seed, **kwargs)
    return sample_with_zero_pattern(cfg, None if stratum == "null" else stratum, count,
                                    seed=seed, **kwargs)


def _reference(cfg, stratum, count, seed, **kwargs):
    if stratum is None:
        return sample_reference(cfg, count, seed=seed, **kwargs)
    if stratum == "null" and cfg.s >= 2:
        return sample_reference(cfg, count, seed=seed, null_sum=True, **kwargs)
    K = range(cfg.s) if stratum == "null" else stratum
    return sample_reference(cfg, count, seed=seed,
                            pinned=[c for k in K for c in (2 * k, 2 * k + 1)], **kwargs)


@pytest.mark.parametrize("fixture, stratum", STRATA)
def test_block_sampler_matches_sequential_reference(fixture, stratum, request):
    """The block sampler keeps every certified attempt; the reference, which drops
    points within 1e-6 of a kept one, finds none to drop."""
    cfg = request.getfixturevalue(fixture)
    tally = {}
    reference = _reference(cfg, stratum, 30, seed=4, tally=tally)
    points = _draw(cfg, stratum, 30, seed=4)
    assert tally == {"duplicates": 0}
    assert len(points) == len(reference) == 30
    for point, (coords, _, pattern) in zip(points, reference):
        np.testing.assert_allclose(point.coordinates, coords, rtol=0, atol=1e-9)
        assert point.zero_pattern == pattern


@pytest.mark.parametrize("fixture, stratum", STRATA)
def test_sampled_points_are_far_apart(fixture, stratum, request):
    """1,000 points at each of two seeds are pairwise at least 1e-3 apart, a
    thousand times the 1e-6 that a duplicate screen would look for."""
    cfg = request.getfixturevalue(fixture)
    X = np.array([p.coordinates for seed in (5, 11) for p in _draw(cfg, stratum, 1000, seed)])
    sq = np.einsum("na,na->n", X, X)
    distances = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(distances, np.inf)
    assert distances.min() >= 1e-3**2


@pytest.mark.parametrize("fixture, stratum", STRATA)
def test_prefixes_do_not_depend_on_block_size(fixture, stratum, request):
    cfg = request.getfixturevalue(fixture)
    long = _draw(cfg, stratum, 40, seed=6)
    for k in (1, 7):
        for a, b in zip(_draw(cfg, stratum, k, seed=6), long[:k], strict=True):
            np.testing.assert_array_equal(a.coordinates, b.coordinates)
            np.testing.assert_array_equal(tangent_frame(cfg, a), tangent_frame(cfg, b))
            assert a.zero_pattern == b.zero_pattern


@pytest.mark.parametrize("fixture, stratum", STRATA)
def test_tangent_frames_are_oriented_kernel_bases(fixture, stratum, request):
    """Frames built on demand are orthonormal, tangent and positively oriented,
    and span the oriented space of the sequential reference's frames."""
    cfg = request.getfixturevalue(fixture)
    points = _draw(cfg, stratum, 10, seed=4)
    for point, (coords, expected, _) in zip(points, _reference(cfg, stratum, 10, seed=4),
                                            strict=True):
        frame = tangent_frame(cfg, point)
        assert frame.shape == (cfg.ambient_real_dim, cfg.manifold_dim)
        np.testing.assert_allclose(frame.T @ frame, np.eye(cfg.manifold_dim), rtol=0, atol=1e-12)
        jac = system_jacobian(cfg, point.coordinates)
        assert np.abs(jac @ frame).max() <= 1e-12
        assert np.linalg.det(np.column_stack([jac.T, frame])) > 0
        np.testing.assert_allclose(frame @ frame.T, expected @ expected.T, rtol=0, atol=1e-8)
        assert abs(np.linalg.det(frame.T @ expected) - 1.0) <= 1e-8


@pytest.mark.parametrize("fixture, stratum", STRATA)
def test_jacobian_ranks_come_from_the_frame_svd(fixture, stratum, request):
    """The ranks of the frame SVD equal the singular-value-only reference, at
    certified points and at the rank-deficient coordinate axes."""
    cfg = request.getfixturevalue(fixture)
    points = _draw(cfg, stratum, 10, seed=4)
    X = np.vstack([[p.coordinates for p in points], np.eye(cfg.ambient_real_dim)])
    ranks = variety._tangent_frames(cfg, X)[1]
    expected = jacobian_ranks_reference(cfg, X)
    np.testing.assert_array_equal(ranks, expected)
    assert (expected[: len(points)] == cfg.equation_count).all()
    assert (expected[len(points):] < cfg.equation_count).all()
    assert [jacobian_rank(cfg, p) for p in points] == expected[: len(points)].tolist()


#: Relative rank cuts of the screen tests, from far below the rounding of
#: ``J J^T`` up to cuts the screen can never clear.
SCREEN_RANK_TOLS = [1e-15, 1e-8, 1e-3, 0.5, 0.9]
#: ``sigma_n / sigma_1`` of a synthetic row, as a function of the cut ``r``.
SCREEN_RATIOS = {
    "below cut": lambda r, rng: r * (1 - 1e-6),
    "above cut": lambda r, rng: r * (1 + 1e-6),
    "below twice the cut": lambda r, rng: min(1.0, 2 * r * (1 - 1e-6)),
    "above twice the cut": lambda r, rng: min(1.0, 2 * r * (1 + 1e-6)),
    "singular": lambda r, rng: 0.0,
    "generic": lambda r, rng: rng.uniform(0.05, 1.0),
}


def _synthetic_jacobian(rng, eq, dim, pinned, ratio):
    """``U diag(sigma) V^T`` with ``sigma_n / sigma_1 = ratio``, a random scale,
    and exactly zero columns at ``pinned``.

    Half the rows have ``sigma = (1, ratio, ..., ratio)``, whose trace is
    about ``sigma_1^2``: there a shift of the trace is as large as it can
    be against ``sigma_n^2``, so a screen that clears too much shows.
    """
    u = np.linalg.qr(rng.normal(size=(eq, eq)))[0]
    v = np.zeros((dim, eq))
    free = np.setdiff1d(np.arange(dim), pinned)
    v[free] = np.linalg.qr(rng.normal(size=(len(free), eq)))[0]
    sigma = np.sort(rng.uniform(ratio, 1.0, size=eq))[::-1]
    if rng.random() < 0.5:
        sigma[:] = ratio
    sigma[0], sigma[-1] = 1.0, ratio
    return 10.0 ** rng.uniform(-3, 3) * (u * sigma) @ v.T


@given(st.sampled_from(SCREEN_RANK_TOLS), st.sampled_from([3, 5, 7]), st.integers(0, 23),
       st.integers(0, 8), st.lists(st.sampled_from(sorted(SCREEN_RATIOS)), min_size=1,
                                   max_size=6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_rank_screen_gives_the_svd_ranks(rank_tol, eq, extra, pinned, kinds, seed):
    """Rows at the cut, at twice the cut, singular, with zero columns, or generic:
    the ranks ``_certify_block`` uses are ``numerical_rank`` of the SVD."""
    rng = np.random.default_rng(seed)
    dim = eq + extra + pinned
    jac = np.array([_synthetic_jacobian(rng, eq, dim, np.arange(pinned),
                                        SCREEN_RATIOS[kind](rank_tol, rng)) for kind in kinds])
    with mock.patch.object(variety, "numerical_rank", wraps=variety.numerical_rank) as svd_ranks:
        ranks = variety._jacobian_ranks(jac, rank_tol)
    expected = variety.numerical_rank(np.linalg.svd(jac, compute_uv=False), rank_tol)
    np.testing.assert_array_equal(ranks, expected)
    if rank_tol >= 0.5:
        assert svd_ranks.call_count == 1  # no row is ever cleared
    elif set(kinds) == {"generic"} and rank_tol <= 1e-3:
        assert svd_ranks.call_count == 0  # every such row is far above the cut


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_rank_screen_leaves_extreme_scales_to_the_svd(scale):
    """Where ``J J^T`` underflows or overflows, the rounding model fails: at
    1e160 the unguarded Cholesky of the overflowed stack succeeds, with a
    rank-deficient row in it.  The SVD ranks such blocks."""
    rng = np.random.default_rng(1)
    jac = rng.normal(size=(3, 5, 14))
    jac[1, -1] = jac[1, 0]
    jac *= scale
    with mock.patch.object(variety, "numerical_rank", wraps=variety.numerical_rank) as svd_ranks:
        ranks = variety._jacobian_ranks(jac, 1e-8)
    assert svd_ranks.call_count == 1
    assert ranks.tolist() == [5, 4, 5]


def test_singular_point_of_a_non_admissible_link_takes_the_svd():
    """The hexagon's antipodal pair (0, 3) breaks weak hyperbolicity; the link
    point on that pair has Jacobian rank 2, so its block falls back to the SVD."""
    cfg = Configuration(lambdas=roots_of_unity(6, (1,)), kind="classical")
    assert check_admissible(cfg).violating_subset == (0, 3)
    z = np.zeros(6, dtype=complex)
    z[[0, 3]] = np.sqrt(0.5)
    singular = realify(z)
    X = np.vstack([[p.coordinates for p in sample_points(cfg, 4, seed=1)], singular])
    with mock.patch.object(variety, "numerical_rank", wraps=variety.numerical_rank) as svd_ranks:
        certified = variety._certify_block(cfg, variety._link(cfg), X, 1e-10, 1e-8)
    assert svd_ranks.call_count == 1
    assert [type(p).__name__ for p in certified] == ["VarietyPoint"] * 4 + ["SingularPointError"]
    assert str(certified[-1]) == "singular point: Jacobian rank 2 < 3"
    np.testing.assert_array_equal(jacobian_ranks_reference(cfg, X), [3, 3, 3, 3, 2])
    with pytest.raises(SingularPointError, match="rank 2 < 3"):
        certify(cfg, singular)


#: Arguments that are not integers, or are integers only by subclass (bools).
NOT_INTEGERS = st.one_of(st.booleans(), st.floats(), st.none(), st.text(max_size=2),
                         st.integers(-5, 5).map(np.int64), st.integers(0, 5).map(complex))
SAMPLER_ARGUMENTS = st.sampled_from(["count", "seed", "max_attempts_per_point"])


def _sample_with(cfg, stratum, **arguments):
    arguments = {"count": 2, "seed": 0, "max_attempts_per_point": 50, **arguments}
    count = arguments.pop("count")
    if stratum is None:
        return sample_points(cfg, count, **arguments)
    return sample_with_zero_pattern(cfg, stratum, count, **arguments)


@given(SAMPLER_ARGUMENTS, NOT_INTEGERS, st.sampled_from([None, (0,)]))
@settings(max_examples=200, deadline=None)
def test_sampler_rejects_arguments_that_are_not_integers(mixed_s2, name, value, stratum):
    with pytest.raises(StructuralError, match="must be integers"):
        _sample_with(mixed_s2, stratum, **{name: value})


@given(st.one_of(NOT_INTEGERS, st.integers(max_value=-1)))
@settings(max_examples=100, deadline=None)
def test_projection_rejects_a_max_iter_that_is_not_a_non_negative_integer(pentagon, value):
    start = np.ones(pentagon.ambient_real_dim)
    with pytest.raises(StructuralError, match="max_iter must be a non-negative integer"):
        project_to_variety(pentagon, start, max_iter=value)


@given(st.sampled_from(["count", "max_attempts_per_point"]), st.integers(max_value=0),
       st.sampled_from([None, (0,)]))
@settings(max_examples=100, deadline=None)
def test_sampler_rejects_non_positive_counts(mixed_s2, name, value, stratum):
    with pytest.raises(StructuralError, match="must be positive"):
        _sample_with(mixed_s2, stratum, **{name: value})


@given(st.integers(-2**70, 2**70), st.sampled_from([None, (0,)]))
@settings(max_examples=20, deadline=None)
def test_sampler_accepts_every_integer_seed(mixed_s2, seed, stratum):
    assert len(_sample_with(mixed_s2, stratum, count=1, seed=seed)) == 1


ON_POINTS = {"tangent_frame": variety.tangent_frame, "jacobian_rank": variety.jacobian_rank,
             "kernel_analysis": kernel_analysis,
             "evaluate_stack": lambda cfg, point: evaluate_stack(cfg, [point])}


@given(st.sampled_from(["evaluate_system", "system_jacobian", "project_to_variety", "certify",
                        *ON_POINTS]),
       st.integers(0, 17), st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=60, deadline=None)
def test_non_finite_ambient_vectors_raise_structural_errors(mixed_general_m2, batch, name,
                                                            position, value):
    coords = batch(mixed_general_m2, 1)[0].coordinates.copy()
    coords[position] = value
    call = ON_POINTS[name] if name in ON_POINTS else getattr(variety, name)
    if name in ON_POINTS:
        coords = VarietyPoint(coordinates=coords, residual_norm=0.0, zero_pattern=())
    with pytest.raises(StructuralError, match="must be finite"):
        call(mixed_general_m2, coords)


@pytest.mark.parametrize("fixture", list(W_COUNTS))
def test_quadric_matrices_give_the_defining_equations(fixture, request):
    cfg = request.getfixturevalue(fixture)
    quads = cfg.quadrics
    assert quads.shape == (cfg.equation_count, cfg.ambient_real_dim, cfg.ambient_real_dim)
    np.testing.assert_array_equal(quads, quads.transpose(0, 2, 1))
    assert not quads.flags.writeable
    assert cfg.quadrics is quads
    rhs = np.zeros(cfg.equation_count)
    rhs[-1] = 1.0
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.normal(size=cfg.ambient_real_dim)
        np.testing.assert_allclose(np.einsum("a,eab,b->e", x, quads, x) - rhs,
                                   system_oracle(cfg, x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("tol, rank_tol", [
    (np.inf, 1e-8), (np.nan, 1e-8), (0.0, 1e-8), (-1.0, 1e-8),
    (1e-10, np.nan), (1e-10, 2.0), (1e-10, -1.0), (1e-10, 0.0), (1e-10, 1.0),
])
def test_tolerances_are_checked_at_the_boundary(pentagon, mixed_s2, batch, tol, rank_tol):
    coords = batch(pentagon, 1)[0].coordinates
    with pytest.raises(StructuralError):
        sample_points(pentagon, 1, tol=tol, rank_tol=rank_tol)
    with pytest.raises(StructuralError):
        sample_with_zero_pattern(mixed_s2, (0,), 1, tol=tol, rank_tol=rank_tol)
    with pytest.raises(StructuralError):
        certify(pentagon, coords, tol=tol, rank_tol=rank_tol)
    if tol != 1e-10:
        with pytest.raises(StructuralError):
            project_to_variety(pentagon, coords, tol=tol)


@pytest.mark.parametrize("tol", [1e-7, 1e-6, 1.0, 1e300])
def test_a_certification_tol_above_the_zero_cut_is_rejected(
        pentagon, mixed_general_m2, batch, tol):
    """Above ``ZERO_TOL`` a certified residual can exceed the cut that decides a
    point's zero pattern, so certify, both samplers and verify refuse such a tol."""
    coords = batch(pentagon, 1)[0].coordinates
    calls = [lambda: certify(pentagon, coords, tol=tol),
             lambda: sample_points(pentagon, 1, tol=tol),
             lambda: sample_with_zero_pattern(mixed_general_m2, (0,), 1, tol=tol),
             lambda: verify(mixed_general_m2, 2, tol=tol)]
    for call in calls:
        with pytest.raises(StructuralError, match="ZERO_TOL"):
            call()


def test_a_certification_tol_at_the_zero_cut_is_accepted(pentagon, mixed_general_m2, batch):
    """``tol = ZERO_TOL`` (the large-|lambda| workaround) still certifies and samples."""
    tol = variety.ZERO_TOL
    coords = batch(pentagon, 1)[0].coordinates
    assert certify(pentagon, coords, tol=tol).residual_norm <= tol
    assert len(sample_points(pentagon, 2, tol=tol)) == 2
    assert len(sample_with_zero_pattern(mixed_general_m2, (0,), 2, tol=tol)) == 2


@st.composite
def jacobian_stacks(draw):
    """Stacks ``(N, eq, dim)`` of Jacobians and right-hand sides ``(N, eq)``.

    Each row is generic, has a repeated row or a zero row (exactly rank
    deficient), has singular values down to sigma_1 times 1e-12 to 1e-4, or
    has entries near 1e200, so that its ``J J^T`` overflows.
    """
    count, eq = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    dim = eq + draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jac = rng.normal(size=(count, eq, dim))
    kinds = ["generic", "generic", "repeated", "zero", "ill", "ill", "ill", "overflow"]
    for J in jac:
        kind = draw(st.sampled_from(kinds))
        if kind == "repeated":
            J[-1] = J[0]
        elif kind == "zero":
            J[rng.integers(eq)] = 0.0
        elif kind == "ill":
            u, _, vt = np.linalg.svd(J, full_matrices=False)
            J[:] = (u * np.geomspace(1.0, 10.0 ** draw(st.floats(-12, -4)), eq)) @ vt
        elif kind == "overflow":
            J *= 1e200
        J *= 10.0 ** draw(st.floats(-3, 3))
    return jac, rng.normal(size=(count, eq)) * 10.0 ** draw(st.floats(-12, 1))


@given(jacobian_stacks())
@settings(max_examples=300, deadline=None)
def test_gauss_newton_steps_are_checked_min_norm_steps(stack):
    """Normal-equation steps are within their stated bound of lstsq; the rest are the SVD's.

    A kept step solves the system for a right-hand side perturbed by at most
    ``_STEP_MISS * |rhs|_inf`` per entry, so it lies within
    ``sqrt(eq) * _STEP_MISS * |rhs|_inf / sigma_min`` of the minimum-norm
    solution (sigma_min: the smallest singular value above lstsq's cut),
    plus the rounding of lstsq itself, ``dim * eps * cond * |lstsq step|``.
    """
    jac, rhs = stack
    svd_steps, svd_rows = variety._min_norm_steps, set()

    def recorded(j, r):
        svd_rows.update(a.tobytes() + b.tobytes() for a, b in zip(j, r))
        return svd_steps(j, r)

    with mock.patch.object(variety, "_min_norm_steps", recorded):
        steps = variety._gauss_newton_steps(jac, rhs, np.abs(rhs).max(axis=1))
    assert np.isfinite(steps).all()
    fallback = np.array([a.tobytes() + b.tobytes() in svd_rows for a, b in zip(jac, rhs)])
    if fallback.any():
        np.testing.assert_array_equal(steps[fallback], svd_steps(jac[fallback], rhs[fallback]))
    # Every row whose normal-equation step is not finite takes the SVD step.
    jac_t = jac.transpose(0, 2, 1)
    with np.errstate(all="ignore"):
        normal = (jac_t @ variety._solve_rows(jac @ jac_t, rhs[..., None]))[..., 0]
    assert fallback[~np.isfinite(normal).all(axis=1)].all()
    eps = np.finfo(float).eps
    for J, r, step in zip(jac[~fallback], rhs[~fallback], steps[~fallback]):
        eq, dim = J.shape
        least = np.linalg.lstsq(J, r, rcond=None)[0]
        sigma = np.linalg.svd(J, compute_uv=False)
        sigma_min = sigma[sigma > eps * dim * sigma[0]][-1]
        bound = (np.sqrt(eq) * variety._STEP_MISS * np.abs(r).max() / sigma_min
                 + dim * eps * sigma[0] / sigma_min * np.linalg.norm(least))
        assert np.linalg.norm(step - least) <= bound
        assert np.abs(J @ step - r).max() <= variety._STEP_MISS * np.abs(r).max()


def test_sampler_takes_no_svd_fallback_on_fixtures(request, monkeypatch):
    """Every Gauss-Newton row on every fixture and stratum keeps its normal-equation
    step, and every certified block passes the rank screen with no SVD."""
    rows = []
    svd_steps = variety._min_norm_steps
    monkeypatch.setattr(variety, "_min_norm_steps",
                        lambda jac, rhs: rows.append(len(jac)) or svd_steps(jac, rhs))
    svd_ranks = mock.Mock(wraps=variety.numerical_rank)
    monkeypatch.setattr(variety, "numerical_rank", svd_ranks)
    for fixture, stratum in STRATA:
        _draw(request.getfixturevalue(fixture), stratum, 30, seed=4)
    assert sum(rows) == 0
    assert svd_ranks.call_count == 0
    # The counter counts: the empty stratum of test_sampling_budget_error
    # drives its rows into the rank-deficient fallback.
    with pytest.raises(SamplingBudgetError):
        sample_with_zero_pattern(_empty_stratum_link(), (0, 1), 2, seed=0,
                                 max_attempts_per_point=3)
    assert sum(rows) > 0


@pytest.mark.parametrize("seed", [0, 4, 2**63 + 11, 2**64 + 4, -3])
def test_starts_are_fresh_philox_streams(seed):
    """Every start is its own fresh stream's normals over their ``np.linalg.norm``,
    bit for bit; dimensions 1 and 30 bound those of the fixtures."""
    draw = variety._start_source()
    for dim in (1, 14, 30):
        draw(seed + 1, 5, 2, dim + 3)  # another stream of the same source first
        # Consecutive calls, and attempts on both sides of the 256-attempt blocks.
        for first, size in [(0, 3), (250, 12), (511, 2), (1, 1), (2**64 - 1, 2)]:
            starts = draw(seed, first, size, dim)
            assert starts.shape == (size, dim)
            for row, index in enumerate(range(first, first + size)):
                key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
                start = np.random.Generator(np.random.Philox(key=key)).normal(size=dim)
                expected = start / np.linalg.norm(start)
                assert starts[row].tobytes() == expected.tobytes()


def _empty_stratum_link():
    """Joint Siegel fails for these two rows: the w = 0 stratum of the mixed link is empty."""
    ang = np.linspace(0.2, 5.9, 7)
    lam = np.column_stack([np.exp(1j * ang), np.exp(1j * (ang * 0 + 0.3))])
    return Configuration(lambdas=lam, kind="mixed-general")


def _link_strata(cfg, stratum):
    """``(pinned, null_sum)`` of a stratum of STRATA."""
    if stratum is None:
        return [], False
    return variety._stratum(cfg, None if stratum == "null" else stratum)


def _calls(monkeypatch, name):
    """Count the calls of ``variety.<name>``."""
    calls = []
    original = getattr(variety, name)
    monkeypatch.setattr(variety, name, lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


@pytest.mark.parametrize("svd_steps", [False, True])
def test_pinned_coordinates_stay_exactly_zero(request, monkeypatch, svd_steps):
    """Every accepted stratum point is exactly zero on its pinned coordinates, also
    when every step comes from the SVD fallback, whose rounding would leak there;
    so is every row projected on the empty stratum, which takes the fallback."""
    fallback_rows = []
    svd = variety._min_norm_steps
    monkeypatch.setattr(variety, "_min_norm_steps",
                        lambda jac, rhs: fallback_rows.append(len(jac)) or svd(jac, rhs))
    if svd_steps:
        monkeypatch.setattr(variety, "_STEP_MISS", -1.0)  # no normal-equation step is kept
    for fixture, stratum in STRATA:
        cfg = request.getfixturevalue(fixture)
        pinned, _ = _link_strata(cfg, stratum)
        for point in _draw(cfg, stratum, 10, seed=4):
            assert (point.coordinates[pinned] == 0.0).all()
    assert (sum(fallback_rows) > 0) == svd_steps
    cfg = _empty_stratum_link()
    pinned = [0, 1, 2, 3]
    starts = np.zeros((40, cfg.ambient_real_dim))
    starts[:, 4:] = variety._start_source()(0, 0, 40, cfg.ambient_real_dim - 4)
    fallback_rows.clear()
    X, _, status = variety._project_block(*variety._link(cfg), starts, 1e-10, variety.MAX_ITER)
    assert sum(fallback_rows) > 0 and (status != variety._CONVERGED).all()
    assert (X[:, pinned] == 0.0).all()


def _strata_by_link(cfg, fixture, count):
    """The strata of STRATA on ``fixture``, grouped by link: ``{null_sum: [(stratum, spec)]}``.

    Each stratum gets its own seed and count, so the strata finish in different rounds.
    """
    groups: dict = {}
    for index, (name, stratum) in enumerate(STRATA):
        if name == fixture:
            pinned, null_sum = _link_strata(cfg, stratum)
            groups.setdefault(null_sum, []).append(
                (stratum, (pinned, 4 + index, count + index % 3)))
    return groups


@pytest.mark.parametrize("block", [None, 3])
def test_stacked_strata_equal_their_one_stratum_calls(request, monkeypatch, block):
    """In one call per link, each stratum's points are its one-stratum call's, bit for bit,
    also when the block cap of 3 attempts splits the rounds between the strata."""
    for fixture in W_COUNTS:
        cfg = request.getfixturevalue(fixture)
        for null_sum, entries in _strata_by_link(cfg, fixture, 6).items():
            expected = [_draw(cfg, stratum, count, seed) for stratum, (_, seed, count) in entries]
            with monkeypatch.context() as patch:
                if block is not None:
                    patch.setattr(variety, "_ATTEMPT_BLOCK", block)
                stacked = variety._sample(cfg, [spec for _, spec in entries], null_sum=null_sum)
            for one, many in zip(expected, stacked, strict=True):
                assert len(one) == len(many)
                for a, b in zip(one, many):
                    np.testing.assert_array_equal(a.coordinates, b.coordinates)
                    assert a.residual_norm == b.residual_norm
                    assert a.zero_pattern == b.zero_pattern


@pytest.mark.parametrize("block", [None, 3])
def test_first_stratum_out_of_budget_raises_its_one_stratum_error(monkeypatch, block):
    """A stacked call raises the error of the first stratum, in list order, that runs
    out of budget: the message, points, request and outcomes of its one-stratum call."""
    cfg = _empty_stratum_link()
    generic, empty, other = ([], 3, 4), ([0, 1, 2, 3], 0, 2), ([0, 1, 2, 3], 5, 1)

    def one(stratum):
        with pytest.raises(SamplingBudgetError) as info:
            variety._sample(cfg, [stratum], max_attempts_per_point=3)
        return info.value

    orders = [([generic, empty], empty), ([empty, generic], empty),
              ([generic, other, empty], other)]
    if block is not None:
        monkeypatch.setattr(variety, "_ATTEMPT_BLOCK", block)
    for strata, first in orders:
        expected = one(first)
        with pytest.raises(SamplingBudgetError) as info:
            variety._sample(cfg, strata, max_attempts_per_point=3)
        error = info.value
        assert str(error) == str(expected)
        assert error.requested == expected.requested
        assert error.outcomes == expected.outcomes
        assert [p.coordinates.tobytes() for p in error.points] == [
            p.coordinates.tobytes() for p in expected.points]


@pytest.mark.parametrize("fixture, null_sum", [("pentagon", False), ("mixed_general_m2", False),
                                              ("mixed_s2", False), ("mixed_s2", True)])
def test_link_is_built_once_per_configuration_and_read_only(fixture, null_sum, request):
    """Repeated calls return the same read-only arrays; an equal configuration built
    apart gets its own, and its link goes when it does."""
    cfg = request.getfixturevalue(fixture)
    grad, rhs = variety._link(cfg, null_sum)
    again = variety._link(cfg, null_sum)
    assert again[0] is grad and again[1] is rhs
    for array in (grad, rhs):
        with pytest.raises(ValueError):
            array[0] = 1.0
    twin = Configuration(lambdas=cfg.lambdas, kind=cfg.kind, s=cfg.s)
    for mine, theirs in zip((grad, rhs), variety._link(twin, null_sum)):
        np.testing.assert_array_equal(mine, theirs)
        assert not np.shares_memory(mine, theirs)
    held = len(variety._LINKS)
    gone = weakref.ref(twin)
    del twin
    gc.collect()
    assert gone() is None
    assert len(variety._LINKS) < held and cfg in variety._LINKS


def test_stacked_sample_builds_one_philox(mixed_general_m3, monkeypatch):
    """The eight strata of a mixed-general m = 3 link draw from one Philox generator."""
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1) or philox(*a, **k))
    cfg = mixed_general_m3
    strata = [((), 7, 3)] + [(variety._stratum(cfg, K)[0], 8 + i, 3) for i, K in enumerate(
        K for size in (1, 2, 3) for K in combinations(range(3), size))]
    assert len(strata) == 8
    points = variety._sample(cfg, strata)
    assert [len(p) for p in points] == [3] * 8
    assert len(built) == 1


@pytest.mark.parametrize("fixture", list(W_COUNTS))
def test_verify_projects_and_certifies_once_per_link_and_round(fixture, request, monkeypatch):
    """The verification cases take one sampler call per link, and one projection and
    one certificate per round: as many rounds as the link's slowest stratum alone."""
    cfg = request.getfixturevalue(fixture)
    calls = []
    sample = variety._sample
    monkeypatch.setattr(variety, "_sample", lambda cfg, strata, **kwargs:
                        calls.append((strata, kwargs)) or sample(cfg, strata, **kwargs))
    projections = _calls(monkeypatch, "_project_block")
    certificates = _calls(monkeypatch, "_certify_block")
    cases = variety._verification_cases(cfg, 3, 7, 1e-10, 1e-8)
    assert [len(points) for _, points in cases] == [3] * len(cases)
    assert len(projections) == len(certificates)
    stacked = len(projections)
    assert len(calls) == (2 if cfg.kind == "mixed-m1" and cfg.s >= 2 else 1)
    assert sum(len(strata) for strata, _ in calls) == len(cases)
    expected = 0
    for strata, kwargs in calls:
        rounds = []
        for stratum in strata:
            projections.clear()
            sample(cfg, [stratum], **kwargs)
            rounds.append(len(projections))
        expected += max(rounds)
    assert stacked == expected
