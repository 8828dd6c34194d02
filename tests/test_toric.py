"""Gale polytopes, moment images, the infimum constant and star-shapedness."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import momentangle.config
from momentangle import (
    Configuration,
    NumericalError,
    StructuralError,
    VarietyPoint,
    big_moment_map,
    check_admissible,
    check_mixed_admissible,
    estimate_c,
    fiber_polytope,
    gale_transform,
    jacobian_rank,
    moment_image_check,
    moment_map,
    sample_points,
    star_shaped_check,
    toric,
)
from momentangle.config import _hull_verdict, hull_distance, realify
from _oracles import (
    c_exact,
    polytope_lp_reference,
    sample_reference,
    star_violations_lp,
    vertices_reference,
)
from conftest import roots_of_unity


def assert_same_vertex_set(first, second, tol: float = 1e-8) -> None:
    """Greedy nearest-neighbor matching; sorting rows would let floating
    noise in tied leading coordinates scramble the pairing."""
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    assert a.shape == b.shape
    unmatched = list(range(len(b)))
    for row in a:
        dists = [np.linalg.norm(b[j] - row) for j in unmatched]
        best = int(np.argmin(dists))
        assert dists[best] <= tol, (row, b[unmatched])
        unmatched.pop(best)


def test_gale_pentagon_polygon(pentagon):
    poly = gale_transform(pentagon)
    assert poly.dim == 5 - 2 * 1 - 1
    assert len(poly.vertices) == 5
    for v in poly.vertices:
        assert np.all(np.asarray(v) >= -1e-10)
        assert np.sum(v) == pytest.approx(1.0, abs=1e-9)
        assert np.abs(pentagon.lambdas[:, 0] @ np.asarray(v)) <= 1e-9


def test_gale_dimension_formula(hexagon_m2, mixed_general_m2):
    assert gale_transform(hexagon_m2).dim == 6 - 4 - 1
    assert gale_transform(mixed_general_m2).dim == 7 - 4 - 1


def test_gale_scaling_is_irrelevant(pentagon):
    a = gale_transform(pentagon, c=1.0)
    b = gale_transform(pentagon, c=0.25)
    assert a.dim == b.dim
    assert_same_vertex_set(a.vertices, b.vertices)


@pytest.mark.parametrize("c", [1e-300, 1e-12, 0.25, 1e12, 1e300])
def test_gale_vertices_do_not_depend_on_c(pentagon, c):
    """The homogeneous rows absorb c: no c drops a row from the rank, and
    only the presented equalities scale."""
    a = gale_transform(pentagon, c=1.0)
    b = gale_transform(pentagon, c=c)
    assert b.dim == a.dim == 2
    np.testing.assert_array_equal(b.vertices, a.vertices)
    for (row_a, rhs_a), (row_b, rhs_b) in zip(a.equalities[:-1], b.equalities[:-1]):
        np.testing.assert_array_equal(row_b, c * row_a)
        assert rhs_a == rhs_b == 0.0
    np.testing.assert_array_equal(b.equalities[-1][0], a.equalities[-1][0])


@pytest.mark.parametrize("c", [np.inf, np.nan, 0.0, -1.0, True, np.bool_(True)])
def test_gale_rejects_a_scale_that_is_not_positive_and_finite(pentagon, c):
    with pytest.raises(StructuralError, match="positive finite"):
        gale_transform(pentagon, c=c)


def test_gale_rejects_a_scale_that_overflows_lambda():
    cfg = Configuration(lambdas=4.0 * roots_of_unity(5, (1,)), kind="classical")
    assert gale_transform(cfg, c=1e307).dim == 2
    with pytest.raises(StructuralError, match="c \\* lambda finite"):
        gale_transform(cfg, c=1e308)


def test_gale_rejects_bad_inputs(pentagon):
    with pytest.raises(StructuralError):
        gale_transform(pentagon, c=0.0)
    half_plane = Configuration(
        lambdas=np.exp(1j * np.linspace(-1, 1, 5)).reshape(-1, 1), kind="classical"
    )
    with pytest.raises((StructuralError, NumericalError)):
        gale_transform(half_plane)


def test_polytope_contains_its_vertices(mixed_general_m2):
    poly = gale_transform(mixed_general_m2)
    for v in poly.vertices:
        assert poly.contains(v)
    assert not poly.contains(np.full(7, 1.0))
    payload = poly.to_dict()
    assert set(payload) >= {"equalities", "inequalities", "dim", "vertices"}


def test_fiber_polytope_specializes_to_gale(mixed_general_m2):
    fiber = fiber_polytope(mixed_general_m2, np.zeros(2))
    gale = gale_transform(mixed_general_m2, c=1.0)
    assert fiber.dim == gale.dim
    assert_same_vertex_set(fiber.vertices, gale.vertices)


def test_fiber_polytope_validation(mixed_general_m2, pentagon):
    with pytest.raises(StructuralError):
        fiber_polytope(pentagon, np.zeros(1))
    with pytest.raises(StructuralError):
        fiber_polytope(mixed_general_m2, np.zeros(3))
    with pytest.raises(StructuralError):
        fiber_polytope(mixed_general_m2, np.array([1.0, 0.1]))  # |w|^2 >= 1


def test_fiber_polytope_carries_certified_points(mixed_general_m2, batch):
    for point in batch(mixed_general_m2, 5):
        w, t = big_moment_map(mixed_general_m2, point)
        fiber = fiber_polytope(mixed_general_m2, w)
        assert fiber.contains(t, tol=1e-8)


def test_moment_map_accessors(mixed_general_m2, pentagon, batch):
    point = batch(mixed_general_m2, 1)[0]
    w = moment_map(mixed_general_m2, point)
    assert w.shape == (2,)
    np.testing.assert_array_equal(w, point.w_block(mixed_general_m2))
    with pytest.raises(StructuralError):
        moment_map(pentagon, batch(pentagon, 1)[0])


def test_moment_image_check_on_samples(mixed_general_m2, batch):
    for point in batch(mixed_general_m2, 6):
        report = moment_image_check(mixed_general_m2, point)
        assert report.constraint_residual <= 1e-9
        assert report.in_orbit_polytope
        assert report.hull_member
        assert report.w_bound_ok is None
        bounded = moment_image_check(
            mixed_general_m2, point, c_estimate=c_exact(mixed_general_m2.lambdas)
        )
        assert bounded.w_bound_ok


def test_estimate_c_matches_closed_form(mixed_general_m1):
    estimate = estimate_c(mixed_general_m1, samples=60, seed=4)
    exact = c_exact(mixed_general_m1.lambdas)
    assert exact == pytest.approx(0.5)
    assert 0.0 < estimate.value < 1.0
    # estimates from feasible points can only sit above the true infimum
    assert estimate.value >= exact - 1e-9
    assert estimate.value == pytest.approx(exact, abs=1e-12)
    assert estimate.samples_used == 60


def test_estimate_c_mixed_m2(mixed_general_m2):
    estimate = estimate_c(mixed_general_m2, samples=40, seed=2)
    exact = c_exact(mixed_general_m2.lambdas)
    assert estimate.value >= exact - 1e-9
    assert estimate.value == pytest.approx(exact, abs=1e-12)


def test_estimate_c_requires_mixed_admissible():
    lam = np.column_stack([roots_of_unity(5, (1,))[:, 0], np.ones(5)])
    bad = Configuration(lambdas=lam, kind="mixed-general")
    with pytest.raises(StructuralError):
        estimate_c(bad, samples=5)


def _random_mixed_general(seed: int) -> Configuration:
    """Gaussian lambdas, n = 5-9 (n > 2m) and m = 1-3."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(max(5, 2 * m + 1), 10))
    lam = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    return Configuration(lambdas=lam, kind="mixed-general")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_estimate_c_is_the_closed_form_with_a_certified_minimizer(seed):
    """c = 1 / (1 + max_j sum_k |lambda_j^k|) exactly; the coordinate point
    attains it with a full-rank Jacobian, and no independently sampled point
    lies below it."""
    cfg = _random_mixed_general(seed)
    assume(check_mixed_admissible(cfg).admissible)
    estimate = estimate_c(cfg, samples=5, seed=seed % 1000)
    assert estimate.value == c_exact(cfg.lambdas)
    assert jacobian_rank(cfg, estimate.minimizer) == cfg.equation_count
    z_sq = float(np.sum(np.abs(estimate.minimizer.z_block(cfg)) ** 2))
    assert z_sq == pytest.approx(estimate.value, abs=1e-12)
    for coords, _, _ in sample_reference(cfg, 3, seed=seed % 1000):
        assert float(np.sum(coords[2 * cfg.w_count:] ** 2)) >= estimate.value - 1e-9


def test_estimate_c_rejects_a_sample_below_the_closed_form(mixed_general_m2, monkeypatch):
    """The sampled cross-check raises rather than report a c that a point undercuts."""
    cfg = mixed_general_m2
    point = sample_points(cfg, 1, seed=0)[0]
    coords = point.coordinates.copy()
    coords[2 * cfg.w_count:] = 0.0
    below = VarietyPoint(coords, point.residual_norm, point.zero_pattern)
    monkeypatch.setattr(toric, "sample_points", lambda *a, **k: [below])
    with pytest.raises(NumericalError, match="below the closed-form"):
        estimate_c(cfg, samples=1)


def _star_matches_lp_reference(cfg, samples: int, ray_steps: int, seed: int):
    report = star_shaped_check(cfg, samples=samples, ray_steps=ray_steps, seed=seed)
    values = [moment_map(cfg, p) for p in sample_points(cfg, samples, seed=seed)]
    assert report.violations == star_violations_lp(cfg.lambdas, values, ray_steps)
    return report


def _off_siegel() -> Configuration:
    """lambda_j = e^{i theta_j}, theta = linspace(0.1, 2, 6): 0 is outside their hull."""
    return Configuration(lambdas=np.exp(1j * np.linspace(0.1, 2.0, 6)).reshape(-1, 1),
                         kind="mixed-general")


def test_star_check_matches_the_per_grid_point_lp_on_fixtures(
        mixed_general_m1, mixed_general_m2, mixed_general_m3):
    for cfg in (mixed_general_m1, mixed_general_m2, mixed_general_m3):
        assert _star_matches_lp_reference(cfg, 4, 6, seed=3).passed
    # 0 lies outside the hull of the lambda_j: the Gale polytope is empty,
    # every grid point takes a hull verdict, and some fibers are empty.
    report = _star_matches_lp_reference(_off_siegel(), 3, 5, seed=0)
    assert report.violations == tuple((i, r) for i in range(3) for r in (0.0, 0.25, 0.5, 0.75))


def _count_hull_verdicts(monkeypatch) -> list:
    calls = []
    verdict = toric._hull_verdict
    monkeypatch.setattr(toric, "_hull_verdict",
                        lambda points, tol: calls.append(tol) or verdict(points, tol))
    return calls


def test_star_check_does_not_trust_the_gale_point(monkeypatch):
    """Uniform weights, planted as the NNLS weights of the Siegel solve,
    stand in for the Gale point of a configuration whose Gale polytope is
    empty: the witness rejects them at r = 0, where they are the only
    weights, and the hull verdicts find the empty fibers of the LP oracle."""
    monkeypatch.setattr(toric, "_hull_weights", lambda pts: np.full(len(pts), 1.0 / len(pts)))
    verdicts = _count_hull_verdicts(monkeypatch)
    report = _star_matches_lp_reference(_off_siegel(), 3, 5, seed=0)
    assert report.violations
    assert len(verdicts) >= report.rays_checked
    assert set(verdicts) == {toric.FEASIBILITY_TOL}


@given(st.integers(0, 2**32 - 1))
@example(14962)  # off Siegel: its r = 1 fiber is a point, witnessed at 6.1e-11
@settings(max_examples=20, deadline=None)
def test_star_check_matches_the_per_grid_point_lp_on_random_configurations(seed):
    _star_matches_lp_reference(_random_mixed_general(seed), 3, 4, seed=seed % 1000)


def _count_lps(monkeypatch) -> list:
    calls = []
    linprog = momentangle.config.linprog
    monkeypatch.setattr(momentangle.config, "linprog",
                        lambda *a, **k: calls.append(k) or linprog(*a, **k))
    return calls


def test_star_check_solves_no_lp_unless_the_witness_fails(
        mixed_general_m1, mixed_general_m2, mixed_general_m3, monkeypatch):
    """No LP on the fixtures, nor off Siegel, where every witness may fail
    and the NNLS certificates of the hull verdicts settle each grid point.
    With every witness failing, each grid point gets one hull verdict and
    the report is unchanged."""
    calls = _count_lps(monkeypatch)
    for cfg in (mixed_general_m1, mixed_general_m2, mixed_general_m3):
        assert star_shaped_check(cfg, samples=3, ray_steps=5, seed=0).passed
    assert star_shaped_check(_off_siegel(), samples=3, ray_steps=5, seed=0).violations
    assert calls == []
    expected = star_shaped_check(mixed_general_m2, samples=3, ray_steps=5, seed=0)
    verdicts = _count_hull_verdicts(monkeypatch)
    monkeypatch.setattr(toric, "witness_distance",
                        lambda points, weights: np.full(points.shape[:-2], np.inf))
    assert star_shaped_check(mixed_general_m2, samples=3, ray_steps=5, seed=0) == expected
    assert len(verdicts) == 3 * 5


def test_star_check_without_an_nnls_point_takes_every_verdict_from_the_hull_rule(
        mixed_general_m2, monkeypatch):
    """Hull weights that NNLS fails to give (``_hull_weights`` returns None)
    leave no Gale point: every grid point gets a hull verdict, and the report
    is unchanged."""
    expected = star_shaped_check(mixed_general_m2, samples=3, ray_steps=5, seed=0)
    monkeypatch.setattr(toric, "_hull_weights", lambda pts: None)
    verdicts = _count_hull_verdicts(monkeypatch)
    assert star_shaped_check(mixed_general_m2, samples=3, ray_steps=5, seed=0) == expected
    assert len(verdicts) == 3 * 5


@pytest.mark.parametrize("ray_steps", [0, -1, 2.5, True, "4"])
def test_star_check_rejects_grids_that_check_no_fiber(mixed_general_m2, ray_steps):
    with pytest.raises(StructuralError, match="ray_steps"):
        star_shaped_check(mixed_general_m2, samples=1, ray_steps=ray_steps)


def test_star_shaped_grid(mixed_general_m2):
    report = star_shaped_check(mixed_general_m2, samples=6, ray_steps=8, seed=1)
    assert report.passed
    assert report.rays_checked == 6
    assert report.steps_per_ray == 8
    assert report.violations == ()


def test_star_shaped_check_only_solves_feasibility(mixed_general_m2, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("star_shaped_check built a polytope")

    monkeypatch.setattr(toric, "_build_polytope", forbidden)
    monkeypatch.setattr(toric, "_vertices", forbidden)
    assert star_shaped_check(mixed_general_m2, samples=2, ray_steps=3, seed=0).passed


def _star_fiber_empty(cfg, w) -> bool:
    """The star check's verdict on the fiber at w: a hull verdict at
    FEASIBILITY_TOL on the lambda_j seen from the target -w^2 / (1 - |w|^2)."""
    target = -(w**2) / (1.0 - np.sum(np.abs(w) ** 2))
    return not _hull_verdict(toric._shifted(cfg.lambdas, target), toric.FEASIBILITY_TOL)[0]


def test_feasibility_lp_agrees_with_fiber_polytope(mixed_general_m2):
    """The star check's emptiness verdict is the fiber polytope's, on moment
    values inside and outside the image."""
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(30):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        w *= rng.uniform(0.05, 0.99) / np.linalg.norm(w)
        empty = _star_fiber_empty(mixed_general_m2, w)
        assert empty == fiber_polytope(mixed_general_m2, w).is_empty
        verdicts.add(empty)
    assert verdicts == {True, False}


def _target_distance(cfg, target) -> float:
    """Sup-norm distance from a complex m-vector to the hull of the lambda_j."""
    return hull_distance(realify(cfg.lambdas - target))


def _hull_exit(cfg, d) -> tuple[float, float]:
    """(g*, slope): g * d leaves the hull of the lambda_j at g = g*, and its
    distance to the hull grows as slope * (g - g*) just beyond."""
    lo, hi = 0.0, 1.0
    while _target_distance(cfg, hi * d) < 1e-3:
        hi *= 2.0
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _target_distance(cfg, mid * d) <= 1e-14 else (lo, mid)
    return hi, _target_distance(cfg, (hi + 1e-6) * d) / 1e-6


def test_boundary_fibers_are_empty_at_the_package_tolerance(mixed_general_m2):
    """A fiber whose target -w^2 / (1 - |w|^2) misses the hull of the
    lambda_j by 1e-8 is empty; one whose target lies 1e-8 inside is not,
    by the star check's hull verdict and by the vertices.  An interior-margin
    LP at HiGHS's default feasibility tolerance reads the outside fibers as
    nonempty, with a margin of about -5e-9."""
    cfg = mixed_general_m2
    rng = np.random.default_rng(41)
    for _ in range(12):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        g_exit, slope = _hull_exit(cfg, -(u**2))
        for gap in (1e-8, -1e-8):
            g = g_exit + gap / slope
            w = np.sqrt(g / (1.0 + g)) * u  # target = g * (-u^2)
            wsq = float(np.sum(np.abs(w) ** 2))
            distance = _target_distance(cfg, -(w**2) / (1.0 - wsq))
            if gap > 0:
                assert 0.5e-8 <= distance <= 2e-8
            else:
                assert distance <= 1e-12
            assert _star_fiber_empty(cfg, w) == (gap > 0)
            assert fiber_polytope(cfg, w).is_empty == (gap > 0)


def test_lp_calls_go_through_one_helper(mixed_general_m2, batch, monkeypatch):
    """Every LP is the one call in config; the moment-image check solves none
    and reads its hull verdict from the point's own t / sum(t), the
    polytopes, built from their vertices, solve none either, and neither
    does the star check, whose Gale point comes from NNLS."""
    cfg = mixed_general_m2
    calls = []
    linprog = momentangle.config.linprog
    monkeypatch.setattr(momentangle.config, "linprog",
                        lambda *a, **k: calls.append(1) or linprog(*a, **k))
    assert not hasattr(toric, "linprog")

    points = batch(cfg, 4)
    for point in points:
        report = moment_image_check(cfg, point)
        w, t = big_moment_map(cfg, point)
        target = -(w**2) / np.sum(t)
        shifted = realify(cfg.lambdas - target)
        witness = float(np.max(np.abs(shifted.T @ (t / np.sum(t)))))
        assert report.hull_member == (witness <= toric.FEASIBILITY_TOL)
        assert report.hull_member
    assert calls == []

    gale_transform(cfg)
    fiber_polytope(cfg, moment_map(cfg, points[0]))
    assert calls == []
    star_shaped_check(cfg, samples=1, ray_steps=2, seed=0)
    assert calls == []


@pytest.mark.parametrize("c_estimate", [True, np.bool_(True), np.nan, -1.0, 0.0, 1.5, np.inf],
                         ids=["bool", "numpy-bool", "nan", "negative", "zero", "above-one", "inf"])
def test_moment_image_check_rejects_a_c_estimate_outside_zero_one(mixed_general_m2, batch,
                                                                  c_estimate):
    """c = inf sum |z_j|^2 lies in (0, 1]: anything else, or a bool, is not an estimate of it."""
    point = batch(mixed_general_m2, 1)[0]
    with pytest.raises(StructuralError, match="c_estimate"):
        moment_image_check(mixed_general_m2, point, c_estimate=c_estimate)
    assert moment_image_check(mixed_general_m2, point, c_estimate=1.0).w_bound_ok is not None


def test_moment_image_check_rejects_w_off_the_link(mixed_general_m2, batch):
    """Scaling w off the link keeps -w^2 / sum(t) inside the hull of the
    lambda_j, but no longer with t / sum(t) as the weights."""
    cfg = mixed_general_m2
    point = batch(cfg, 1)[0]
    coords = point.coordinates.copy()
    coords[: 2 * cfg.w_count] *= 1.01
    moved = VarietyPoint(coords, point.residual_norm, point.zero_pattern)
    w, t = big_moment_map(cfg, moved)
    assert _target_distance(cfg, -(w**2) / np.sum(t)) <= 1e-12
    report = moment_image_check(cfg, moved)
    assert not report.in_orbit_polytope
    assert not report.hull_member


def test_fiber_on_a_hull_edge_takes_the_support_path(mixed_general_m1):
    """Target at the midpoint of lambda_0 and lambda_1: the fiber is the
    single point t_0 = t_1 = (1 - s) / 2 with |w|^2 = s; the star check's
    hull verdict finds it nonempty, and its one vertex gives the support of
    the per-coordinate LPs."""
    cfg = mixed_general_m1
    target = 0.5 * (cfg.lambdas[0] + cfg.lambdas[1])
    s = float(np.abs(target[0]) / (1.0 + np.abs(target[0])))
    w = np.sqrt(-target * (1.0 - s) + 0j)
    assert np.sum(np.abs(w) ** 2) == pytest.approx(s, abs=1e-15)
    rows = toric._fiber_rows(cfg, w)
    assert not _star_fiber_empty(cfg, w)
    assert polytope_lp_reference(*rows, toric.FEASIBILITY_TOL) == ([0, 1], 0)
    fiber = fiber_polytope(cfg, w)
    assert fiber.dim == 0
    expected = np.zeros(5)
    expected[:2] = (1.0 - s) / 2.0
    assert fiber.vertices.shape == (1, 5)
    np.testing.assert_allclose(fiber.vertices[0], expected, atol=1e-12)


def _gale_rows(lam):
    """Equality rows (Re and Im of each quadric, then ones) and right-hand
    sides of the Gale polytope, built here from the lambdas alone."""
    lam = np.asarray(lam, dtype=complex)
    n, m = lam.shape
    rows = np.empty((2 * m, n))
    rows[0::2], rows[1::2] = lam.real.T, lam.imag.T
    rhs = np.zeros(2 * m + 1)
    rhs[-1] = 1.0
    return np.vstack([rows, np.ones(n)]), rhs


def _assert_matches_oracles(poly, A, b):
    """Same vertex set (within 1e-12), emptiness, support and dim as the
    per-subset loop and the per-coordinate LPs."""
    assert_same_vertex_set(poly.vertices, vertices_reference(A, b), tol=1e-12)
    support, dim = polytope_lp_reference(A, b)
    assert poly.dim == dim
    assert poly.is_empty == (support is None) == (len(poly.vertices) == 0)
    if support is not None:
        assert list(np.flatnonzero(poly.vertices.max(axis=0) > toric.FEASIBILITY_TOL)) == support


def _siegel_configuration(rng, n: int, m: int, kind: str = "classical") -> Configuration:
    """Gaussian lambdas, the last one minus a positive combination of the
    others, so that 0 is interior to their hull."""
    lam = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    lam[-1] = -rng.uniform(0.2, 1.0, n - 1) @ lam[:-1]
    return Configuration(lambdas=lam, kind=kind)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gale_vertices_match_the_oracles_on_random_admissible_configurations(seed):
    """5 <= n <= 10 and m <= 3, some with n > 8, beyond the old cap."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    cfg = _siegel_configuration(rng, int(rng.integers(max(5, 2 * m + 1), 11)), m)
    assume(check_admissible(cfg).admissible)
    poly = gale_transform(cfg)
    assert poly.dim == cfg.n - 2 * cfg.m - 1
    _assert_matches_oracles(poly, *_gale_rows(cfg.lambdas))


def _fiber_moment(target):
    """w with -w^2 / (1 - |w|^2) = target."""
    total = float(np.sum(np.abs(target)))
    return np.sqrt(-np.asarray(target, dtype=complex) / (1.0 + total))


def _near_degenerate_fiber(rng) -> tuple[Configuration, np.ndarray]:
    """m = 1: lambda_2 lies eps in [1e-14, 1e-9] off the line through lambda_0
    and lambda_1, three more lambda_j are random, and the fiber's target is on
    the segment lambda_0 lambda_1.  The basis {0, 1, 2} is then nearly
    singular, and its solution puts the segment's vertex a second time."""
    lam = rng.normal(size=6) + 1j * rng.normal(size=6)
    edge = lam[1] - lam[0]
    eps = 10.0 ** rng.uniform(-14, -9)
    lam[2] = lam[0] + rng.uniform(-1.0, 2.0) * edge + 1j * eps * edge / abs(edge)
    target = lam[0] + rng.uniform(0.05, 0.95) * edge
    return Configuration(lambdas=lam.reshape(-1, 1), kind="mixed-general"), _fiber_moment([target])


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "vertex", "outside", "real", "repeated", "near-degenerate"]))
@settings(max_examples=50, deadline=None)
@example(1, "repeated")  # a block with an exactly singular basis
@example(0, "near-degenerate")  # a vertex twice without the rank rule
def test_fiber_vertices_match_the_oracles(seed, mode):
    """Random fibers, nonempty or empty; the single point over a hull vertex
    of the lambda_j (dim 0, one vertex from many bases); an empty fiber just
    beyond it; real lambdas, whose equality rows have rank below their
    number, and which leave At = b without a solution when -w^2 is not real;
    a repeated lambda_j, which makes bases singular; and a nearly singular
    basis, which only the rank rule of the vertex routine rejects."""
    rng = np.random.default_rng(seed)
    m = 1 if mode in ("real", "near-degenerate") else int(rng.integers(1, 4))
    n = int(rng.integers(max(5, 2 * m + 1), 11))
    cfg = _siegel_configuration(rng, n, m, kind="mixed-general")
    if mode == "real":
        cfg = Configuration(lambdas=cfg.lambdas.real, kind="mixed-general")
    elif mode == "repeated":
        cfg = Configuration(lambdas=cfg.lambdas[[0, *range(n - 1)]], kind="mixed-general")
    top = int(np.argmax(cfg.lambdas[:, 0].real))  # a vertex of the hull of the lambda_j
    if mode in ("random", "repeated"):
        w = rng.normal(size=m) + 1j * rng.normal(size=m)
        w *= rng.uniform(0.05, 0.99) / np.linalg.norm(w)
    elif mode == "real":  # w = r e^(i pi k / 4): -w^2 is real for k = 0, 2 but not for k = 1
        k = int(rng.integers(3))
        w = rng.uniform(0.05, 0.9, size=1) * np.exp(0.25j * np.pi * k)
    elif mode == "near-degenerate":
        cfg, w = _near_degenerate_fiber(rng)
    else:
        w = _fiber_moment(cfg.lambdas[top] * (1.0 if mode == "vertex" else 1.05))
    A, b = toric._fiber_rows(cfg, w)
    fiber = fiber_polytope(cfg, w)
    if mode == "near-degenerate":
        # Points with t_2 > 0 miss At = b by about eps * t_2, inside HiGHS's
        # 1e-10, so the LP oracle's support and dim are not defined here.
        assert_same_vertex_set(fiber.vertices, vertices_reference(A, b))
        return
    _assert_matches_oracles(fiber, A, b)
    if mode == "vertex":
        assert fiber.dim == 0 and len(fiber.vertices) == 1
        assert fiber.vertices[0, top] > 0.0
    elif mode == "outside":
        assert fiber.is_empty
    elif mode == "real":
        assert np.linalg.matrix_rank(A) < A.shape[0]
        assert fiber.is_empty or k != 1


def test_polytopes_of_the_fixtures_match_the_oracles(
        pentagon, hexagon_m2, mixed_s1, mixed_s2, mixed_general_m1, mixed_general_m2,
        mixed_general_m3):
    for cfg in (pentagon, hexagon_m2, mixed_s1, mixed_s2, mixed_general_m1,
                mixed_general_m2, mixed_general_m3):
        _assert_matches_oracles(gale_transform(cfg), *_gale_rows(cfg.lambdas))


def test_gale_lists_the_vertices_of_the_11_gon():
    """Above the old n <= 8 cap: the triangles of 11th roots of unity around
    the origin, n (n^2 - 1) / 24 = 55 of them, each with three positive weights."""
    poly = gale_transform(Configuration(lambdas=roots_of_unity(11, (1,)), kind="classical"))
    assert poly.dim == 8
    assert poly.vertices.shape == (55, 11)
    assert np.all(np.count_nonzero(poly.vertices > 0.0, axis=1) == 3)
    assert len({tuple(np.flatnonzero(v)) for v in poly.vertices}) == 55


def test_gale_vertices_of_a_random_admissible_12_3_configuration():
    cfg = _siegel_configuration(np.random.default_rng(12), 12, 3)
    assert check_admissible(cfg).admissible
    poly = gale_transform(cfg)
    assert poly.dim == 12 - 6 - 1
    assert len(poly.vertices) > 0
    _assert_matches_oracles(poly, *_gale_rows(cfg.lambdas))
