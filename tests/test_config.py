"""Admissibility, regularity ranks and configuration serialization."""

import copy
import json
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import momentangle.config
from momentangle import (
    Configuration,
    StructuralError,
    check_admissible,
    check_mixed_admissible,
    check_regularity_rank,
    check_siegel,
    check_weak_hyperbolicity,
    configuration_from_dict,
    configuration_to_dict,
    fiber_count,
    fiber_points,
    fiber_polytope,
    gale_transform,
    hull_distance,
    isotropy_stratum,
    load_configuration,
    moment_image_check,
    normalize_configuration,
    origin_in_hull,
)
from momentangle.config import (
    _SUBSET_BLOCK,
    DEGENERACY_BAND,
    _sigma_min_floors,
    _subset_blocks,
    _unit_scale,
    complexify,
    in_tie_band,
    numerical_rank,
    rank_cut,
)
from _oracles import (
    admissibility_lp_reference,
    admissible_brute,
    first_subset_around_origin_brute,
    origin_in_hull_brute,
    svd_screen_flags,
)
from conftest import NEGATIVE_LEAST_SQUARES, roots_of_unity


def test_pentagon_is_admissible(pentagon):
    report = check_admissible(pentagon)
    assert report.siegel
    assert report.weak_hyperbolicity
    assert not report.degenerate
    assert report.admissible
    assert report.violating_subset is None
    assert report.hull_dimension == 2


def test_hexagon_m2_is_admissible(hexagon_m2):
    report = check_admissible(hexagon_m2)
    assert report.admissible
    assert report.hull_dimension == 4


def test_half_plane_configuration_fails_siegel():
    lam = np.exp(1j * np.linspace(-1.0, 1.0, 5)).reshape(5, 1)
    report = check_admissible(Configuration(lambdas=lam, kind="classical"))
    assert not report.siegel
    assert not report.admissible


def test_antipodal_pair_fails_weak_hyperbolicity():
    lam = np.array([1.0, -1.0, 1j, -0.5 + 0.8j]).reshape(4, 1)
    report = check_admissible(Configuration(lambdas=lam, kind="classical"))
    assert report.siegel
    assert not report.weak_hyperbolicity
    assert report.violating_subset == (0, 1)


def test_degeneracy_band_rejects_near_boundary():
    # A 2m-subset hull passing within (tol, 10 tol] of the origin: flag, reject.
    eps = 5e-9
    lam = np.array([1.0 + eps * 1j, -1.0 + eps * 1j, 1j, -1j * 0.7 + 0.01]).reshape(4, 1)
    report = check_admissible(Configuration(lambdas=lam, kind="classical"))
    assert report.weak_hyperbolicity  # no subset actually contains 0
    assert report.degenerate
    assert not report.admissible


@pytest.mark.parametrize("eps, violator", [(9e-9, False), (5e-9, False), (5e-10, True)])
def test_degeneracy_band_flags_rotated_near_ties(eps, violator):
    # The segment [a u + eps v, -b u + eps v] misses the origin by at most
    # eps |v|_inf, in (tol, 10 tol] or (tol / 10, tol] for tol = 1e-9.
    # Rotated off the axes, the LP objective alone reads 0 for all of them,
    # below the solver's default feasibility tolerance.
    rng = np.random.default_rng(5)
    for _ in range(40):
        u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        a, b = rng.uniform(0.5, 2.0, size=2)
        v = 1j * u
        lam = np.array([a * u + eps * v, -b * u + eps * v, v, -0.7 * v + 0.01 * u]).reshape(4, 1)
        report = check_admissible(Configuration(lambdas=lam, kind="classical"))
        assert report.weak_hyperbolicity != violator
        assert report.violating_subset == ((0, 1) if violator else None)
        assert report.degenerate
        assert not report.admissible


def test_tie_band_is_measured_in_the_sup_norm():
    # The segment [u + eps v, -u + eps v] with u, v on the diagonals lies
    # eps = 1.2e-6 from the origin in the Euclidean norm, past 10 tol, but
    # eps / sqrt(2) = 8.5e-7 in the sup norm: a tie for tol = 1e-7.
    eps = 1.2e-6
    u = np.exp(1j * np.pi / 4)
    v = 1j * u
    lam = np.array([u + eps * v, -u + eps * v, v, -0.7 * v + 0.01 * u]).reshape(4, 1)
    report = check_admissible(Configuration(lambdas=lam, kind="classical"), tol=1e-7)
    assert report.weak_hyperbolicity and report.violating_subset is None
    assert report.degenerate


@pytest.mark.parametrize("tol", [1e-20, 1e-300])
def test_a_tol_below_the_rounding_of_the_hull_verdict_is_a_tie(pentagon, tol):
    # The LP puts the pentagon's hull about 5.6e-17 from the origin, which it
    # holds: with a tol far below that rounding, the verdict must say so.
    report = check_admissible(pentagon, tol)
    assert report.degenerate is True
    assert not report.admissible
    default = check_admissible(pentagon)
    assert (default.admissible, default.degenerate) == (True, False)


def test_numerical_rank_edge_cases():
    assert numerical_rank(np.array([])) == 0
    assert numerical_rank(np.zeros(3)) == 0
    # 0.5 lies exactly at the cut 0.5 * 1.0 and does not count
    assert numerical_rank(np.array([1.0, 0.5, 0.25]), 0.5) == 1
    assert numerical_rank(np.array([2.0, 1.0, 1e-9])) == 2


@st.composite
def singular_value_stacks(draw):
    """Descending non-negative rows, some empty, all-zero or holding the cut itself."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)))
    width = draw(st.integers(0, 5))
    rank_tol = draw(st.sampled_from([1e-8, 0.25, 0.5]))
    rows = []
    for _ in range(int(np.prod(shape))):
        kind = draw(st.sampled_from(["random", "zero", "at-cut"]))
        row = np.sort(draw(st.lists(st.floats(0.0, 1e3), min_size=width, max_size=width)))[::-1]
        if kind == "zero":
            row = np.zeros(width)
        elif kind == "at-cut" and width >= 2:
            row[1:] = np.minimum(row[1:], rank_tol * row[0])
            row[draw(st.integers(1, width - 1))] = rank_tol * row[0]
        rows.append(row)
    return np.array(rows, dtype=float).reshape(*shape, width), rank_tol


@given(singular_value_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_rank_equals_row_by_row(case):
    """One rank rule over the last axis: a stack ranks as its rows do one by one."""
    sigma, rank_tol = case
    rows = sigma.reshape(int(np.prod(sigma.shape[:-1])), sigma.shape[-1])
    ranks = numerical_rank(sigma, rank_tol)
    cuts = rank_cut(sigma, rank_tol)
    assert ranks.shape == sigma.shape[:-1]
    assert cuts.shape == sigma.shape[:-1] + (min(sigma.shape[-1], 1),)
    assert ranks.reshape(-1).tolist() == [numerical_rank(row, rank_tol) for row in rows]
    assert cuts.reshape(-1).tolist() == [x for row in rows for x in rank_cut(row, rank_tol)]


@pytest.mark.parametrize("tol", [1e-9, 1e-8, 0.3])
def test_tie_band_edges(tol):
    low, high = tol / DEGENERACY_BAND, DEGENERACY_BAND * tol
    assert in_tie_band(low, tol) is False
    assert in_tie_band(high, tol) is True
    assert in_tie_band(tol, tol) is True
    values = np.array([np.nextafter(low, 0.0), low, np.nextafter(low, 1.0), tol,
                       high, np.nextafter(high, np.inf)])
    np.testing.assert_array_equal(in_tie_band(values, tol),
                                  [False, False, True, True, True, False])


def test_hull_distance_matches_hand_values():
    assert hull_distance(np.array([[1.0, 0.0], [-1.0, 0.0]])) <= 1e-12
    triangle = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    assert hull_distance(triangle) == pytest.approx(1.0, abs=1e-9)
    assert origin_in_hull(np.array([[0.5, 0.0], [-0.25, 0.25], [0.0, -1.0]]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_lp_verdicts_match_brute_hull_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    m = int(rng.integers(1, 3))
    lam = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    cfg = Configuration(lambdas=lam, kind="classical")
    siegel, _ = check_siegel(cfg)
    weak, _, _ = check_weak_hyperbolicity(cfg)
    siegel_b, weak_b = admissible_brute(cfg.realified_lambdas(), m)
    assert siegel == siegel_b
    assert weak == weak_b


def _planted_violator(rng, design: str) -> Configuration:
    """A classical configuration, n <= 8 and m <= 2, that violates weak hyperbolicity.

    ``antipodal`` plants lambda_b = -c lambda_a in a Gaussian configuration;
    ``even-roots`` takes odd powers of even roots of unity, so that
    lambda_{j + n/2} = -lambda_j up to scale.
    """
    m = int(rng.integers(1, 3))
    if design == "antipodal":
        n = int(rng.integers(max(4, 2 * m + 1), 9))
        lam = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        a, b = sorted(rng.choice(n, size=2, replace=False))
        lam[b] = -rng.uniform(0.5, 2.0) * lam[a]
    else:
        n = 2 * int(rng.integers(m + 1, 5))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
        lam = roots_of_unity(n, (1, 3)[:m]) * phases * rng.uniform(0.5, 2.0, size=(n, 1))
    return Configuration(lambdas=lam, kind="classical")


@given(st.integers(0, 2**32 - 1), st.sampled_from(["antipodal", "even-roots"]))
@settings(max_examples=40, deadline=None)
def test_weak_hyperbolicity_matches_brute_on_planted_violators(seed, design):
    # Gaussian configurations never violate weak hyperbolicity; these do, so
    # the subsets the determinant screen cannot clear reach the LP.
    cfg = _planted_violator(np.random.default_rng(seed), design)
    m = cfg.m
    ok, subset, degenerate = check_weak_hyperbolicity(cfg)
    pts = cfg.realified_lambdas()
    _, weak = admissible_brute(pts, m)
    assert not ok and not weak
    assert subset == first_subset_around_origin_brute(pts, 2 * m)
    assert not degenerate


def test_generic_configuration_needs_no_weak_hyperbolicity_lp(monkeypatch):
    rng = np.random.default_rng(12)
    lam = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    calls, verdicts = [], []
    hull_distance_lp = momentangle.config.hull_distance
    hull_verdict = momentangle.config._hull_verdict
    monkeypatch.setattr(momentangle.config, "hull_distance",
                        lambda pts: calls.append(pts) or hull_distance_lp(pts))
    monkeypatch.setattr(momentangle.config, "_hull_verdict",
                        lambda pts, tol: verdicts.append(pts) or hull_verdict(pts, tol))
    verdict = check_weak_hyperbolicity(Configuration(lambdas=lam, kind="classical"))
    assert verdict == (True, None, False)
    assert len(calls) == 0
    assert len(verdicts) == 0  # the screen clears all C(12, 6) = 924 subsets


@pytest.mark.parametrize("design", ["criterion-1", "antipodal", "even-roots"])
def test_determinant_screen_flags_the_svd_screen_subsets(monkeypatch, design):
    """The determinant screen sends the SVD screen's subsets to a hull
    verdict, in order, up to the first violator; configurations drawn as
    in acceptance criterion 1 (seed 101) and planted violators."""
    seen = []
    hull_verdict = momentangle.config._hull_verdict
    monkeypatch.setattr(momentangle.config, "_hull_verdict",
                        lambda pts, tol: seen.append(pts) or hull_verdict(pts, tol))
    rng = np.random.default_rng(101)
    for _ in range(40):
        if design == "criterion-1":
            m, n = int(rng.integers(1, 3)), int(rng.integers(5, 9))
            cfg = Configuration(rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        else:
            cfg = _planted_violator(rng, design)
        seen.clear()
        violator = check_weak_hyperbolicity(cfg)[1]
        pts = cfg.realified_lambdas()
        flagged = svd_screen_flags(pts, 2 * cfg.m)
        if violator is not None:
            flagged = flagged[:flagged.index(violator) + 1]
        assert len(seen) == len(flagged)
        assert all(np.array_equal(got, pts[list(s)]) for got, s in zip(seen, flagged))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6]),
       st.sampled_from(["gaussian", "singular", "near-singular"]), st.sampled_from([0, 500, -500]))
@example(0, 2, "near-singular", 0)
@example(1, 6, "singular", -500)
@settings(max_examples=60, deadline=None)
def test_sigma_min_floors_never_exceed_the_svd(seed, k, kind, power):
    """The determinant screen's bound, rounding allowance included, is at
    most sigma_min from the SVD: on Gaussian matrices, on matrices with a
    repeated row, and on matrices with sigma_min / sigma_max from 1 down to
    1e-14 and every other singular value 1, at scales 2^0 and 2^+-500,
    evaluated at unit scale as ``check_weak_hyperbolicity`` does."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(50, k, k))
    if kind == "singular":
        mats[:, -1] = mats[:, 0]
    elif kind == "near-singular":
        # sigma_1 = ... = sigma_{k-1} = 1 is where the AM-GM bound is tight.
        u, _, vt = np.linalg.svd(mats)
        sigma = np.ones((50, 1, k))
        sigma[..., -1] = 10.0 ** -rng.uniform(0.0, 14.0, size=(50, 1))
        mats = u * sigma @ vt
    mats = np.ldexp(mats, power)
    scaled, shift = _unit_scale(mats)
    floors = np.ldexp(_sigma_min_floors(scaled), shift)
    sigma_min = np.linalg.svd(mats, compute_uv=False)[:, -1]
    assert not np.any(floors > sigma_min)
    if kind == "gaussian":
        assert np.all(floors > 0)


HULL_DESIGNS = ("random", "antipodal", "subset-tie", "hull-tie")


def _hull_case(rng, design: str) -> Configuration:
    """A classical configuration with n = 5-10, m = 1-3 of one design.

    ``antipodal`` plants lambda_b = -c lambda_a.  ``subset-tie`` moves 2m
    points so that their affine hull passes 10^U(-12, -6) from the origin,
    over an interior point of their hull; ``hull-tie`` puts those 2m points
    on a facet of the whole hull, at that distance.
    """
    m = int(rng.integers(1, 4))
    n = int(rng.integers(max(5, 2 * m + 1), 11))
    pts = rng.normal(size=(n, 2 * m))
    if design == "antipodal":
        a, b = rng.choice(n, size=2, replace=False)
        pts[b] = -rng.uniform(0.5, 2.0) * pts[a]
    elif design != "random":
        rows = rng.choice(n, size=2 * m, replace=False)
        pts[rows] -= rng.dirichlet(np.ones(2 * m)) @ pts[rows]
        normal = np.linalg.svd(pts[rows[1:]] - pts[rows[0]])[2][-1]
        shift = 10.0 ** rng.uniform(-12, -6) * normal
        if design == "hull-tie":
            side = pts @ normal
            pts += np.outer(np.abs(side) - side, normal) + shift
        else:
            pts[rows] += shift
    return Configuration(lambdas=complexify(pts), kind="classical")


def _check_against_lp_reference(cfg, tol):
    """``check_admissible`` must give the one-LP-per-verdict fields.

    The LP's witness is a hull point only as accurate as the LP's 1e-10
    feasibility tolerance, so it can read just above ``tol / 10`` for a hull
    that holds a point nearer than that.  Only that tie flag may differ, and
    the brute oracle must find such a point in every hull the LP called a tie.
    """
    report = check_admissible(cfg, tol)
    got = (report.siegel, report.weak_hyperbolicity, report.violating_subset, report.degenerate)
    fields, ties = admissibility_lp_reference(cfg, tol)
    if got != fields:
        assert got == fields[:3] + (False,)
        pts = cfg.realified_lambdas()
        assert all(origin_in_hull_brute(pts if s is None else pts[list(s)], tol / DEGENERACY_BAND)
                   for s in ties)
    return report


def test_hull_verdicts_match_both_references_on_every_route(monkeypatch):
    """Each route of the hull verdict runs: the NNLS witness, the separating
    plane and the LP; the fields equal the LP reference's, and the brute
    oracle's away from ties."""
    routes = Counter()
    lp_calls = []
    hull_distance_lp = momentangle.config.hull_distance
    verdict = momentangle.config._hull_verdict

    def routed(points, tol):
        before = len(lp_calls)
        inside, tie = verdict(points, tol)
        routes["lp" if len(lp_calls) > before else "witness" if inside else "plane"] += 1
        return inside, tie

    monkeypatch.setattr(momentangle.config, "hull_distance",
                        lambda pts: lp_calls.append(1) or hull_distance_lp(pts))
    monkeypatch.setattr(momentangle.config, "_hull_verdict", routed)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(HULL_DESIGNS), st.sampled_from([1e-9, 1e-7]))
    @example(0, "random", 1e-9)
    @example(1, "subset-tie", 1e-9)
    @example(3, "hull-tie", 1e-7)
    @settings(max_examples=30, deadline=None)
    def agree(seed, design, tol):
        cfg = _hull_case(np.random.default_rng(seed), design)
        report = _check_against_lp_reference(cfg, tol)
        if not report.degenerate:  # admissible_brute, keeping its first subset
            pts = cfg.realified_lambdas()
            subset = first_subset_around_origin_brute(pts, 2 * cfg.m, tol)
            assert report.siegel == origin_in_hull_brute(pts, tol)
            assert (report.weak_hyperbolicity, report.violating_subset) == (subset is None, subset)

    agree()
    assert routes["witness"] and routes["plane"] and routes["lp"], routes


def _uniform_weights(a, b):
    return np.full(a.shape[1], 1.0 / a.shape[1])


def _negative_weights(a, b):
    return np.full(a.shape[1], -1.0)


def _singular(a, b):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _no_convergence(a, b):
    raise RuntimeError("Maximum number of iterations reached.")


#: Each wrong answer, by the solver it replaces: uniform weights from the
#: least-squares solve are taken as they are; negative ones send every hull
#: on to NNLS, which answers wrongly too.
_WRONG_SOLVES = {
    "_uniform_weights": [{"_least_squares": _uniform_weights},
                         {"_least_squares": _negative_weights,
                          "nnls": lambda a, b: (_uniform_weights(a, b), 0.0)}],
    "_no_convergence": [{"_least_squares": _singular, "nnls": _no_convergence}],
}


@pytest.mark.parametrize("wrong", sorted(_WRONG_SOLVES))
def test_hull_verdicts_do_not_trust_nnls(monkeypatch, wrong, pentagon, hexagon_m2):
    """Wrong or missing weights, from the least-squares solve or from NNLS,
    change no verdict: both certificates are recomputed, and the LP decides
    what they do not settle.  Each fake is called."""
    rng = np.random.default_rng(8)
    cases = [pentagon, hexagon_m2] + [_hull_case(rng, design) for design in HULL_DESIGNS * 4]
    for fakes in _WRONG_SOLVES[wrong]:
        calls = Counter()
        for name, fake in fakes.items():
            def counted(a, b, name=name, fake=fake):
                calls[name] += 1
                return fake(a, b)

            monkeypatch.setattr(momentangle.config, name, counted)
        for cfg in cases:
            for tol in (1e-9, 1e-7):
                _check_against_lp_reference(cfg, tol)
        assert set(calls) == set(fakes), calls
        monkeypatch.undo()


def _hull_system(points):
    """``A = [P^T; 1^T]`` and ``e = (0, ..., 0, 1)`` of the hull weights of ``points``."""
    a = np.vstack([points.T, np.ones(len(points))])
    e = np.zeros(len(a))
    e[-1] = 1.0
    return a, e


def _count_nnls(monkeypatch) -> list:
    calls = []
    nnls = momentangle.config.nnls
    monkeypatch.setattr(momentangle.config, "nnls", lambda a, b: calls.append(1) or nnls(a, b))
    return calls


def test_least_squares_hull_weights_are_nnls_weights(monkeypatch):
    """Weights that ``_hull_weights`` returns without calling NNLS are >= 0,
    and their residual |A t - e| is scipy NNLS's, to rounding: the
    least-squares solution minimizes over all t, so over t >= 0 as well."""
    from scipy.optimize import nnls as scipy_nnls

    calls = _count_nnls(monkeypatch)
    routes = Counter()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(HULL_DESIGNS + ("gaussian",)),
           st.integers(1, 12), st.sampled_from([2, 4, 6]))
    @settings(max_examples=80, deadline=None)
    def shortcut(seed, design, p, d):
        rng = np.random.default_rng(seed)
        if design == "gaussian":
            sets = [rng.normal(size=(p, d))]
        else:  # the Siegel hull and a 2m-subset, as the verdicts see them
            pts = _hull_case(rng, design).realified_lambdas()
            sets = [pts, pts[rng.choice(len(pts), size=pts.shape[1], replace=False)]]
        for points in sets:
            before = len(calls)
            t = momentangle.config._hull_weights(points)
            if len(calls) > before:
                routes["nnls"] += 1
                continue
            routes["least squares"] += 1
            assert np.all(t >= 0)
            a, e = _hull_system(points)
            residual = scipy_nnls(a, e)[1]
            assert abs(np.linalg.norm(a @ t - e) - residual) <= 1e-12 * (1 + np.linalg.norm(a, 2))

    shortcut()
    assert routes["least squares"] and routes["nnls"], routes


def test_fixture_admissibility_calls_no_nnls(monkeypatch, pentagon, hexagon_m2, mixed_s1,
                                             mixed_s2, mixed_general_m1, mixed_general_m2,
                                             mixed_general_m3):
    """Every hull verdict of the fixtures takes its weights from least squares."""
    calls = _count_nnls(monkeypatch)
    for cfg in (pentagon, hexagon_m2):
        assert check_admissible(cfg).admissible
    for cfg in (mixed_s1, mixed_s2, mixed_general_m1, mixed_general_m2, mixed_general_m3):
        assert check_mixed_admissible(cfg).admissible
    assert calls == []


@pytest.mark.parametrize("lam, admissible", [
    (NEGATIVE_LEAST_SQUARES, True),
    (np.exp(1j * np.linspace(-1.0, 1.0, 5)), False),  # half plane: outside, so t has a t_j < 0
])
def test_negative_least_squares_weights_take_nnls(monkeypatch, lam, admissible):
    cfg = Configuration(lambdas=lam.reshape(-1, 1), kind="classical")
    a, e = _hull_system(cfg.realified_lambdas())
    assert np.linalg.lstsq(a, e, rcond=None)[0].min() < 0
    calls = _count_nnls(monkeypatch)
    report = check_admissible(cfg)
    assert calls
    assert report.admissible == admissible
    assert (report.siegel, report.weak_hyperbolicity, report.violating_subset,
            report.degenerate) == admissibility_lp_reference(cfg, 1e-9)[0]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_admissibility_invariant_under_rotation_and_permutation(seed):
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=(6, 1)) + 1j * rng.normal(size=(6, 1))
    cfg = Configuration(lambdas=lam, kind="classical")
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    perm = rng.permutation(6)
    rotated = Configuration(lambdas=phase * lam[perm], kind="classical")
    assert check_admissible(cfg).admissible == check_admissible(rotated).admissible


@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([66, -66, 200, -200]))
@settings(max_examples=40, deadline=None)
def test_admissibility_invariant_under_power_of_two_scaling(seed, antipodal, power):
    """Scaling lambda and tol by the same power of two keeps the report:
    the hull LP runs at unit scale, where HiGHS's absolute feasibility
    tolerance means the same for every scale, and so does the screen."""
    if antipodal:
        cfg = _planted_violator(np.random.default_rng(seed), "antipodal")
    else:
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 3))
        n = int(rng.integers(max(4, 2 * m + 1), 9))
        cfg = Configuration(rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
    lam = cfg.lambdas
    scaled = Configuration(np.ldexp(lam.real, power) + 1j * np.ldexp(lam.imag, power))
    assert check_admissible(scaled, np.ldexp(1e-9, power)) == check_admissible(cfg, 1e-9)


def test_hull_certificates_are_scale_invariant(monkeypatch):
    """The hull weights are solved at unit scale, so scaling lambda and tol
    by 2^+-66 or 2^+-200 runs no more hull-distance LPs than scale 1.
    Solved at the caller's scale, these 40 configurations ran 0 LPs at
    scale 1 and 53 to 58 at each other scale."""
    lps = []
    hull_distance = momentangle.config.hull_distance
    monkeypatch.setattr(momentangle.config, "hull_distance",
                        lambda points: lps.append(1) or hull_distance(points))
    configurations = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        if seed % 2:
            configurations.append(_planted_violator(rng, "antipodal"))
        else:
            m = int(rng.integers(1, 3))
            n = int(rng.integers(max(4, 2 * m + 1), 9))
            configurations.append(Configuration(rng.normal(size=(n, m))
                                                + 1j * rng.normal(size=(n, m))))
    counts = {}
    for power in (0, 66, -66, 200, -200):
        lps.clear()
        for cfg in configurations:
            lam = cfg.lambdas
            check_admissible(Configuration(np.ldexp(lam.real, power) + 1j * np.ldexp(lam.imag, power)),
                             np.ldexp(1e-9, power))
        counts[power] = len(lps)
    assert all(count <= counts[0] for count in counts.values()), counts


def test_mixed_admissibility_needs_every_subset(mixed_general_m2):
    assert check_mixed_admissible(mixed_general_m2).admissible
    # Per-component fine, jointly broken: second row constant at 1 fails
    # Siegel for K = {1} (hull is the single point 1).
    lam = np.column_stack([roots_of_unity(5, (1,))[:, 0], np.ones(5)])
    bad = Configuration(lambdas=lam, kind="mixed-general")
    report = check_mixed_admissible(bad)
    assert not report.admissible
    assert (1,) in report.failing
    assert (0,) not in report.failing


def test_regularity_rank_frozen_values(pentagon):
    # Singleton: one nonzero column, complex rank 1.
    assert check_regularity_rank(pentagon, [0]) == 1
    # All lambdas equal: the columns coincide, rank stays 1.
    same = Configuration(lambdas=np.full((5, 1), 1j), kind="classical")
    assert check_regularity_rank(same, range(5)) == 1
    # A full admissible pentagon subset reaches the maximal rank m + 1.
    assert check_regularity_rank(pentagon, range(5)) == 2


def test_properties_and_sub_configuration(mixed_general_m2, mixed_s2):
    cfg = mixed_general_m2
    assert cfg.n == 7 and cfg.m == 2
    assert cfg.w_count == 2
    assert cfg.ambient_real_dim == 2 * (7 + 2)
    assert cfg.equation_count == 5
    assert cfg.manifold_dim == cfg.ambient_real_dim - cfg.equation_count
    sub = cfg.sub_configuration((1,))
    assert sub.kind == "classical" and sub.m == 1
    np.testing.assert_allclose(sub.lambdas[:, 0], cfg.lambdas[:, 1])

    assert mixed_s2.w_count == 2
    assert mixed_s2.equation_count == 3
    assert mixed_s2.manifold_dim == 2 * 5 + 2 * 2 - 3


def test_constructor_validation():
    lam = roots_of_unity(5, (1,))
    with pytest.raises(StructuralError):
        Configuration(lambdas=lam, kind="nonsense")
    with pytest.raises(StructuralError):
        Configuration(lambdas=lam[:3], kind="classical")  # n <= 3
    with pytest.raises(StructuralError):
        Configuration(lambdas=lam, kind="mixed-m1")  # missing s
    with pytest.raises(StructuralError):
        Configuration(lambdas=lam, kind="mixed-m1", s=0)
    with pytest.raises(StructuralError):
        Configuration(lambdas=roots_of_unity(5, (1, 2)), kind="mixed-m1", s=1)
    with pytest.raises(StructuralError):
        Configuration(lambdas=roots_of_unity(4, (1, 2)), kind="classical")  # n <= 2m
    # n = 5 > 2m = 4 is legal and must not raise.
    Configuration(lambdas=roots_of_unity(5, (1, 2)), kind="classical")


def test_serialization_round_trip(tmp_path, mixed_s2):
    data = configuration_to_dict(mixed_s2)
    again = configuration_from_dict(data)
    assert again.kind == mixed_s2.kind and again.s == mixed_s2.s
    np.testing.assert_allclose(again.lambdas, mixed_s2.lambdas)

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    loaded = load_configuration(str(path))
    np.testing.assert_allclose(loaded.lambdas, mixed_s2.lambdas)


def test_loader_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 1, "n": 5, "kind": "classical"}))
    with pytest.raises(StructuralError):
        load_configuration(str(bad))
    bad.write_text(json.dumps({
        "m": 1, "n": 5, "kind": "classical",
        "lambdas": [[[1.0, 0.0]]] * 4,  # wrong row count
    }))
    with pytest.raises(StructuralError):
        load_configuration(str(bad))


def test_boundary_rejects_bools_and_non_finite_numbers(pentagon, mixed_s2, capfd):
    for weights in ([np.nan] * 5, [1.0, 1.0, np.inf, 1.0, 1.0]):
        with pytest.raises(StructuralError):
            Configuration(lambdas=pentagon.lambdas, weights_b=weights)
    points = pentagon.realified_lambdas()
    points[2, 0] = np.nan
    with pytest.raises(StructuralError, match="points must be finite"):
        origin_in_hull(points)
    points[2, 0] = np.inf
    with pytest.raises(StructuralError, match="points must be finite"):
        hull_distance(points)
    assert capfd.readouterr() == ("", "")  # no LAPACK complaint on the way
    with pytest.raises(StructuralError):
        Configuration(lambdas=pentagon.lambdas, kind="mixed-m1", s=True)

    valid = configuration_to_dict(mixed_s2)
    bad_docs = [{**valid, "s": True}, {**valid, "m": True},
                {**valid, "weights_b": [True] * 5}]
    for entry in ([True, False], [10**400, 0]):
        doc = copy.deepcopy(valid)
        doc["lambdas"][2][0] = entry
        bad_docs.append(doc)
    for doc in bad_docs:
        with pytest.raises(StructuralError):
            configuration_from_dict(doc)


@pytest.mark.parametrize("name", [
    "origin_in_hull", "check_siegel", "check_weak_hyperbolicity", "check_admissible",
    "check_mixed_admissible", "gale_transform", "fiber_polytope", "moment_image_check",
    "fiber_count", "fiber_points", "isotropy_stratum", "normalize_configuration", "contains"])
@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, True])
def test_public_functions_reject_a_malformed_tol(pentagon, mixed_general_m2, batch, name, tol):
    """A tol that is not finite and positive raises at the boundary instead
    of deciding: with tol = -1, fiber_count over the uniform direction of
    the 7-gon m = 2 configuration gave 4 where the default gives 1,
    tol = inf put the origin in any hull, and tol = True ran at tol = 1 and
    called the pentagon not admissible.  An angular_tol of -1 or nan skipped
    normalize_configuration's antipode guard, and contains(vertex, -1)
    called a polytope's own vertex outside it."""
    mixed, point, direction = mixed_general_m2, batch(mixed_general_m2, 1)[0], np.arange(1.0, 8.0)
    gale = gale_transform(pentagon)
    call = {
        "origin_in_hull": lambda t: origin_in_hull(pentagon.realified_lambdas(), t),
        "check_siegel": lambda t: check_siegel(pentagon, t),
        "check_weak_hyperbolicity": lambda t: check_weak_hyperbolicity(pentagon, t),
        "check_admissible": lambda t: check_admissible(pentagon, t),
        "check_mixed_admissible": lambda t: check_mixed_admissible(mixed, t),
        "gale_transform": lambda t: gale_transform(pentagon, tol=t),
        "fiber_polytope": lambda t: fiber_polytope(mixed, np.zeros(2), t),
        "moment_image_check": lambda t: moment_image_check(mixed, point, tol=t),
        "fiber_count": lambda t: fiber_count(mixed, direction, t),
        "fiber_points": lambda t: fiber_points(mixed, direction, t),
        "isotropy_stratum": lambda t: isotropy_stratum(mixed, point, t),
        "normalize_configuration": lambda t: normalize_configuration(pentagon, t),
        "contains": lambda t: gale.contains(gale.vertices[0], t),
    }[name]
    call(1e-8)
    with pytest.raises(StructuralError, match="tol must be finite and positive"):
        call(tol)


@pytest.mark.parametrize("n, k", [(8, 4), (256, 1), (257, 1)])  # C(n, k) = 70, 256, 257
def test_subset_blocks_walk_the_combinations_in_order(n, k):
    blocks = list(_subset_blocks(n, k))
    assert [len(block) for block in blocks[:-1]] == [_SUBSET_BLOCK] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= _SUBSET_BLOCK
    assert all(block.shape[1:] == (k,) and block.dtype == np.intp for block in blocks)
    assert [tuple(row) for block in blocks for row in block.tolist()] == list(
        combinations(range(n), k))


# Integers stay small: a large ``s`` is legal and allocates that many
# default weights.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_VALID_DOCS = [
    configuration_to_dict(Configuration(lambdas=roots_of_unity(5, (1,)), kind="mixed-m1", s=2)),
    configuration_to_dict(Configuration(lambdas=roots_of_unity(7, (1, 2)), kind="mixed-general")),
]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, prefix + (key,))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_documents_load_or_raise_structural_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_VALID_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(_JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON_VALUES)
    try:
        cfg = configuration_from_dict(doc)
    except StructuralError:
        return
    assert cfg.s is None or type(cfg.s) is int
    for array in (cfg.lambdas, cfg.weights_a, cfg.weights_b):
        assert np.all(np.isfinite(array))
    again = configuration_from_dict(configuration_to_dict(cfg))
    np.testing.assert_array_equal(again.lambdas, cfg.lambdas)


def test_brute_hull_oracle_self_check():
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert origin_in_hull_brute(square)
    assert not origin_in_hull_brute(square + 2.0)
