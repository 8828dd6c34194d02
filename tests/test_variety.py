"""Sampling, projection and certification on the link varieties."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import (
    ProjectionError,
    SamplingBudgetError,
    StructuralError,
    certify,
    complexify,
    evaluate_system,
    jacobian_rank,
    project_to_variety,
    realify,
    sample_points,
    sample_with_zero_pattern,
    system_jacobian,
)

from _oracles import sample_reference, system_oracle


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
        frame = point.tangent_frame
        assert frame.shape == (cfg.ambient_real_dim, cfg.manifold_dim)
        np.testing.assert_allclose(frame.T @ frame, np.eye(frame.shape[1]), atol=1e-10)
        # Tangency: residual gradients annihilate the frame.
        jac = system_jacobian(cfg, point.coordinates)
        assert np.abs(jac @ frame).max() <= 1e-8
        assert jacobian_rank(cfg, point) == cfg.equation_count


def test_certified_frames_are_positively_oriented(pentagon, batch):
    for point in batch(pentagon, 5):
        jac = system_jacobian(pentagon, point.coordinates)
        square = np.column_stack([jac.T, point.tangent_frame])
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
    # Joint Siegel fails for this two-row configuration, so the w = 0 stratum
    # of the mixed link is empty and stratum sampling must exhaust its budget.
    ang = np.linspace(0.2, 5.9, 7)
    lam = np.column_stack([np.exp(1j * ang), np.exp(1j * (ang * 0 + 0.3))])
    cfg = None
    from momentangle import Configuration
    cfg = Configuration(lambdas=lam, kind="mixed-general")
    with pytest.raises(SamplingBudgetError) as info:
        sample_with_zero_pattern(cfg, (0, 1), 2, seed=0, max_attempts_per_point=3)
    assert info.value.requested == 2
    outcomes = info.value.outcomes
    assert outcomes["attempts"] == 6
    rejected = sum(v for key, v in outcomes.items() if key != "attempts")
    assert rejected == outcomes["attempts"] - len(info.value.points)
    # The stratum is empty, so no attempt gets past the projection.
    assert outcomes["not_converged"] + outcomes["line_search_stalls"] == 6
    for words in ("not converged", "line search stalls", "singular", "duplicates"):
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


def _draw(cfg, stratum, count, seed):
    if stratum is None:
        return sample_points(cfg, count, seed=seed)
    return sample_with_zero_pattern(cfg, None if stratum == "null" else stratum, count, seed=seed)


@pytest.mark.parametrize("fixture, stratum", STRATA)
def test_block_sampler_matches_sequential_reference(fixture, stratum, request):
    cfg = request.getfixturevalue(fixture)
    if stratum is None:
        reference = sample_reference(cfg, 30, seed=4)
    elif stratum == "null" and cfg.s >= 2:
        reference = sample_reference(cfg, 30, seed=4, null_sum=True)
    else:
        K = range(cfg.s) if stratum == "null" else stratum
        reference = sample_reference(cfg, 30, seed=4, pinned=[c for k in K for c in (2 * k, 2 * k + 1)])
    points = _draw(cfg, stratum, 30, seed=4)
    assert len(points) == len(reference) == 30
    for point, (coords, _, pattern) in zip(points, reference):
        np.testing.assert_allclose(point.coordinates, coords, rtol=0, atol=1e-9)
        assert point.zero_pattern == pattern


@pytest.mark.parametrize("fixture, stratum", STRATA)
def test_prefixes_do_not_depend_on_block_size(fixture, stratum, request):
    cfg = request.getfixturevalue(fixture)
    long = _draw(cfg, stratum, 40, seed=6)
    for k in (1, 7):
        for a, b in zip(_draw(cfg, stratum, k, seed=6), long[:k], strict=True):
            np.testing.assert_array_equal(a.coordinates, b.coordinates)
            np.testing.assert_array_equal(a.tangent_frame, b.tangent_frame)
            assert a.zero_pattern == b.zero_pattern


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
