"""Group actions, the leafwise flow and the 2^m branched covering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import (
    Configuration,
    GroupElement,
    NumericalError,
    StructuralError,
    actions,
    branched_cover,
    certify,
    closed_form_kernel_vector,
    fiber_count,
    fiber_points,
    foliation_flow,
    isotropy_stratum,
    project_to_variety,
    quadric_values,
    ray_radius,
    sample_with_zero_pattern,
    sign_act,
    sign_orbit,
    tangent_frame,
    torus_act,
)
from momentangle.variety import ZERO_TOL

from _oracles import fiber_points_reference
from conftest import roots_of_unity


def test_torus_action_preserves_link(mixed_general_m2, batch):
    rng = np.random.default_rng(1)
    point = batch(mixed_general_m2, 1)[0]
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, mixed_general_m2.n))
    moved = torus_act(mixed_general_m2, point, phases)
    assert moved.residual_norm <= 1e-10
    np.testing.assert_array_equal(moved.w_block(mixed_general_m2),
                                  point.w_block(mixed_general_m2))
    np.testing.assert_allclose(np.abs(moved.z_block(mixed_general_m2)),
                               np.abs(point.z_block(mixed_general_m2)), atol=1e-12)


def test_torus_action_rejects_non_unit_phases(pentagon, batch):
    point = batch(pentagon, 1)[0]
    with pytest.raises(StructuralError):
        torus_act(pentagon, point, np.full(5, 1.0 + 1e-6))


def test_sign_action_orbit(mixed_general_m2, batch):
    point = batch(mixed_general_m2, 1)[0]
    flipped = sign_act(mixed_general_m2, point, np.array([-1.0, 1.0]))
    np.testing.assert_allclose(flipped.w_block(mixed_general_m2)[0],
                               -point.w_block(mixed_general_m2)[0], atol=1e-12)
    orbit = sign_orbit(mixed_general_m2, point)
    assert len(orbit) == 4
    # involution
    back = sign_act(mixed_general_m2, flipped, np.array([-1.0, 1.0]))
    np.testing.assert_allclose(back.coordinates, point.coordinates, atol=1e-12)


def test_sign_action_validation(pentagon, mixed_general_m2, batch):
    with pytest.raises(StructuralError):
        sign_act(pentagon, batch(pentagon, 1)[0], np.array([1.0]))
    point = batch(mixed_general_m2, 1)[0]
    with pytest.raises(StructuralError):
        sign_act(mixed_general_m2, point, np.array([0.5, 1.0]))


@pytest.mark.parametrize("w0", [0.0, 5e-9, 2e-8, 1e-7, 4e-7, 6e-7, 5e-5, 2e-4])
def test_sign_orbit_halves_on_stratum(mixed_general_m2, batch, w0):
    """A point of the stratum (0,) with |w_0| set to ``w0`` and projected: its
    orbit has 2^(m - |zero_pattern|) points, however close w_0 lies to zero."""
    cfg = mixed_general_m2
    coords = batch(cfg, 1, (0,))[0].coordinates.copy()
    coords[0] = w0
    point = certify(cfg, project_to_variety(cfg, coords))
    orbit = sign_orbit(cfg, point)
    assert len(orbit) == 2 ** (cfg.m - len(point.zero_pattern))
    assert len(orbit) == (2 if w0**2 <= ZERO_TOL else 4)


def test_one_zero_rule_at_a_small_w(mixed_general_m2, batch):
    """A stratum point with w_0 moved to 1e-6 has |w_0|^2 = 1e-12 <= ZERO_TOL:
    its zero pattern, isotropy type, sign orbit and fiber count all read w_0
    as zero."""
    cfg = mixed_general_m2
    coords = batch(cfg, 1, (0,))[0].coordinates.copy()
    coords[0] = 1e-6
    point = certify(cfg, project_to_variety(cfg, coords))
    assert abs(point.w_block(cfg)[0]) == pytest.approx(1e-6, rel=1e-3)
    assert point.zero_pattern == (0,)
    assert isotropy_stratum(cfg, point) == (0,)
    assert len(sign_orbit(cfg, point)) == 2
    count = fiber_count(cfg, point.z_block(cfg))
    assert (count.count, count.near_branch) == (2, False)


def test_foliation_flow_velocity(pentagon, batch):
    """d/dt flow(tT) at t = 0 equals the closed-form leaf vector v(T, 0)."""
    point = batch(pentagon, 1)[0]
    T = np.array([0.4 - 0.9j])
    eps = 1e-7
    moved = foliation_flow(pentagon, point, eps * T)
    velocity = (moved.coordinates - point.coordinates) / eps
    expected = closed_form_kernel_vector(pentagon, point.coordinates, T, 0.0)
    np.testing.assert_allclose(velocity, expected, atol=1e-6)


def test_foliation_flow_group_law(pentagon, batch):
    point = batch(pentagon, 1)[0]
    a, b = np.array([0.3 + 0.1j]), np.array([-0.2 + 0.5j])
    one = foliation_flow(pentagon, foliation_flow(pentagon, point, a), b)
    two = foliation_flow(pentagon, point, a + b)
    np.testing.assert_allclose(one.coordinates, two.coordinates, atol=1e-10)


def test_group_element_composition(mixed_general_m2, batch):
    point = batch(mixed_general_m2, 1)[0]
    rng = np.random.default_rng(3)
    g = GroupElement(
        torus_part=np.exp(1j * rng.uniform(0, 2 * np.pi, 7)),
        sign_part=np.array([-1.0, -1.0]),
    )
    moved = g.apply(mixed_general_m2, point)
    assert moved.residual_norm <= 1e-10
    with pytest.raises(StructuralError):
        GroupElement(torus_part=np.array([2.0 + 0j]))
    with pytest.raises(StructuralError):
        GroupElement(sign_part=np.array([0.0]))


def test_branched_cover_lands_on_sphere(mixed_general_m2, batch):
    for point in batch(mixed_general_m2, 3):
        zhat = branched_cover(mixed_general_m2, point)
        assert np.linalg.norm(zhat) == pytest.approx(1.0, abs=1e-12)


def test_ray_radius_solves_sphere_equation(mixed_general_m2):
    rng = np.random.default_rng(5)
    zhat = rng.normal(size=7) + 1j * rng.normal(size=7)
    zhat /= np.linalg.norm(zhat)
    r = ray_radius(mixed_general_m2, zhat)
    F = quadric_values(mixed_general_m2, zhat)
    # |w_k|^2 = r^2 |F_k| on the candidate point; total norm must be 1
    assert r**2 * (1.0 + np.sum(np.abs(F))) == pytest.approx(1.0, abs=1e-12)


def test_fiber_count_generic_and_stratified(mixed_general_m2, batch):
    rng = np.random.default_rng(6)
    zhat = rng.normal(size=7) + 1j * rng.normal(size=7)
    count = fiber_count(mixed_general_m2, zhat)
    assert count.count == 4
    assert not count.near_branch
    assert len(count.quadric_magnitudes) == 2

    # a direction from the classical sub-link: all F_k = 0, single preimage
    stratum_point = batch(mixed_general_m2, 1, (0, 1))[0]
    zdir = stratum_point.z_block(mixed_general_m2)
    stratified = fiber_count(mixed_general_m2, zdir)
    assert stratified.count == 1

    # one quadric switched off: 2 preimages
    half = batch(mixed_general_m2, 1, (0,))[0]
    assert fiber_count(mixed_general_m2, half.z_block(mixed_general_m2)).count == 2


def test_fiber_points_match_count(mixed_general_m2):
    rng = np.random.default_rng(7)
    for _ in range(3):
        zhat = rng.normal(size=7) + 1j * rng.normal(size=7)
        count = fiber_count(mixed_general_m2, zhat)
        points = fiber_points(mixed_general_m2, zhat)
        assert len(points) == count.count
        for p in points:
            assert p.residual_norm <= 1e-10
            # all preimages project back to the same direction
            np.testing.assert_allclose(
                branched_cover(mixed_general_m2, p),
                zhat / np.linalg.norm(zhat),
                atol=1e-9,
            )


def test_fiber_count_certifies_nothing(mixed_general_m2, batch, monkeypatch):
    directions = [batch(mixed_general_m2, 1, pattern)[0].z_block(mixed_general_m2)
                  for pattern in (None, (0,), (0, 1))]
    expected = [fiber_count(mixed_general_m2, d) for d in directions]

    def refuse(*args):
        raise AssertionError("fiber_count certified a candidate")

    monkeypatch.setattr(actions, "_certify_block", refuse)
    monkeypatch.setattr(actions, "certify", refuse)
    assert [fiber_count(mixed_general_m2, d) for d in directions] == expected
    assert [e.count for e in expected] == [4, 2, 1]


def test_fiber_near_branch_flag(mixed_general_m2):
    """The flag trips exactly when a magnitude is within 10x of the branch
    tolerance (either side); steering the tolerance makes this deterministic."""
    rng = np.random.default_rng(8)
    zhat = rng.normal(size=7) + 1j * rng.normal(size=7)
    pivot = fiber_count(mixed_general_m2, zhat).quadric_magnitudes[0]
    assert pivot > 0
    assert fiber_count(mixed_general_m2, zhat, tol=pivot / 2.0).near_branch
    assert fiber_count(mixed_general_m2, zhat, tol=pivot * 2.0).near_branch
    assert not fiber_count(mixed_general_m2, zhat, tol=pivot / 1e6).near_branch


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@given(st.integers(0, 5), NON_FINITE, st.booleans())
@settings(max_examples=40, deadline=None)
def test_non_finite_phases_and_flow_parameters_raise_structural_errors(
        hexagon_m2, batch, position, value, imaginary):
    point = batch(hexagon_m2, 1)[0]
    bad = complex(0.0, value) if imaginary else complex(value, 0.0)
    phases = np.ones(6, dtype=complex)
    phases[position] = bad
    T = np.array([0.3 - 0.1j, 0.2 + 0.4j])
    T[position % 2] = bad
    for call in (lambda: torus_act(hexagon_m2, point, phases),
                 lambda: GroupElement(torus_part=phases),
                 lambda: foliation_flow(hexagon_m2, point, T),
                 lambda: GroupElement(flow_part=T)):
        with pytest.raises(StructuralError, match="must be finite"):
            call()


def test_isotropy_stratum(mixed_general_m2, batch):
    generic = batch(mixed_general_m2, 1)[0]
    assert isotropy_stratum(mixed_general_m2, generic) == ()
    on_stratum = batch(mixed_general_m2, 1, (1,))[0]
    assert isotropy_stratum(mixed_general_m2, on_stratum) == (1,)
    full = batch(mixed_general_m2, 1, (0, 1))[0]
    assert isotropy_stratum(mixed_general_m2, full) == (0, 1)


def _fixture(m: int) -> Configuration:
    return Configuration(lambdas=roots_of_unity(5 if m == 1 else 7, range(1, m + 1)),
                         kind="mixed-general")


def _fiber_case(m: int, mode: str, seed: int) -> tuple[Configuration, np.ndarray]:
    """A configuration and a direction of the given kind.

    ``random``: a Gaussian direction on the m-fixture.  ``stratum``: the z
    block of a fixture point with some w_k = 0 (|F_k| ~ 1e-11).  ``branch``:
    17 coordinates, the first 16 in pairs with lambda^k = (u, -u) for
    Gaussian integers u in the columns k of ``zero``; a direction of modulus
    1 on the pairs and 0 on the last coordinate has |z|^2 = 1/16, so those
    F_k are exactly 0.  ``near``: that direction plus a last coordinate that
    puts one such |F_k| in the near-branch band of 1e-8; ``tiny``: one that
    makes it about 1e-14, so that below a tol of 1e-16 the two roots
    w_k = +-sqrt(-F_k r^2) lie within 1e-6 of each other.
    """
    rng = np.random.default_rng(seed)
    if mode in ("random", "stratum"):
        cfg = _fixture(m)
        if mode == "random":
            return cfg, rng.normal(size=cfg.n) + 1j * rng.normal(size=cfg.n)
        pattern = tuple(sorted(rng.choice(m, size=rng.integers(1, m + 1), replace=False)))
        point = sample_with_zero_pattern(cfg, pattern, 1, seed=seed % 1000)[0]
        return cfg, point.z_block(cfg)
    lam = rng.normal(size=(17, m)) + 1j * rng.normal(size=(17, m))
    zero = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
    u = rng.integers(-3, 4, size=(8, len(zero))) + 1j * rng.integers(-3, 4, size=(8, len(zero)))
    lam[0:16:2, zero], lam[1:16:2, zero] = u, -u
    cfg = Configuration(lambdas=lam, kind="mixed-general")
    direction = np.zeros(17, dtype=complex)
    direction[:16] = rng.choice(np.array([1, -1, 1j, -1j]), size=16)
    assert np.all(quadric_values(cfg, direction)[zero] == 0.0)
    if mode in ("near", "tiny"):
        k = zero[0]
        target = 10.0 ** (rng.uniform(-9, -7) if mode == "near" else rng.uniform(-15, -13))
        direction[16] = 4.0 * np.sqrt(target / abs(lam[16, k])) * np.exp(2j * np.pi * rng.uniform())
    return cfg, direction


def _assert_same_points(cfg, points, expected) -> None:
    """Same count and order, bitwise coordinates, zero patterns, and frames
    spanning the same oriented space to within 1e-12."""
    assert len(points) == len(expected)
    for p, q in zip(points, expected):
        assert p.coordinates.tobytes() == q.coordinates.tobytes()
        assert p.zero_pattern == q.zero_pattern
        fp, fq = tangent_frame(cfg, p), tangent_frame(cfg, q)
        np.testing.assert_allclose(fp @ fp.T, fq @ fq.T, rtol=0, atol=1e-12)
        assert abs(np.linalg.det(fp.T @ fq) - 1.0) <= 1e-12


def _reference_or_error(cfg, direction, tol=1e-8):
    try:
        return fiber_points_reference(cfg, direction, tol)
    except NumericalError as exc:
        return exc


def _assert_same_fiber(cfg, result, expected) -> None:
    if isinstance(expected, NumericalError):
        assert type(result) is type(expected) and str(result) == str(expected)
    else:
        _assert_same_points(cfg, result, expected)


MODES = ("random", "stratum", "branch", "near", "tiny")


@given(st.sampled_from([1, 2, 3]), st.sampled_from(MODES), st.sampled_from([1e-8, 1e-16]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_fiber_block_matches_the_per_candidate_reference(m, mode, tol, seed):
    cfg, direction = _fiber_case(m, mode, seed)
    expected = _reference_or_error(cfg, direction, tol)
    try:
        result = fiber_points(cfg, direction, tol)
    except NumericalError as exc:
        result = exc
    _assert_same_fiber(cfg, result, expected)


def test_fiber_cases_reach_every_branch():
    """The cases above reach the zero choice, the w_k = 0 candidate that
    fails in the near-branch band, the full 2^m fiber, and, in tiny mode,
    all 2^l lifts of the l live quadrics, lifts closer than 1e-6 included."""
    sizes, failures, close = set(), set(), False
    for m in (1, 2, 3):
        for seed in range(8):
            for mode in MODES:
                tol = 1e-16 if mode == "tiny" else 1e-8
                cfg, direction = _fiber_case(m, mode, seed)
                expected = _reference_or_error(cfg, direction, tol)
                if isinstance(expected, NumericalError):
                    failures.add(mode)
                    continue
                sizes.add((m, mode, len(expected)))
                if mode == "tiny":
                    mags = np.abs(quadric_values(cfg, direction)) * ray_radius(cfg, direction) ** 2
                    assert len(expected) == 2 ** np.count_nonzero(mags > tol)
                    close |= any(np.linalg.norm(p.coordinates - q.coordinates) < 1e-6
                                 for i, p in enumerate(expected) for q in expected[:i])
    assert "near" in failures
    assert {(m, "random", 2**m) for m in (1, 2, 3)} <= sizes
    for mode in ("stratum", "branch"):
        assert any(kind == mode and size < 2**m for m, kind, size in sizes), mode
    assert close


def test_fibers_of_many_directions_cross_block_boundaries(monkeypatch):
    """One call for 70 directions, near-branch ones that fail included,
    gives each direction's reference fiber or error, across block
    boundaries."""
    cfg = _fixture(2)
    directions = [_fiber_case(2, "random", seed)[1] for seed in range(70)]
    rng = np.random.default_rng(3)
    for i in (5, 40, 64):  # near-branch directions, whose w_k = 0 candidates fail
        point = sample_with_zero_pattern(cfg, (i % 2,), 1, seed=i)[0]
        bump = np.zeros(7, dtype=complex)
        bump[rng.integers(7)] = 5e-9
        directions[i] = point.z_block(cfg) + bump
    expected = [_reference_or_error(cfg, d) for d in directions]
    assert [i for i, e in enumerate(expected) if isinstance(e, NumericalError)] == [5, 40, 64]
    for block in (256, 8, 3):  # 64, 2 and 1 directions a slice; 3 splits one
        monkeypatch.setattr(actions, "_ATTEMPT_BLOCK", block)
        for (_, result), want in zip(actions._fibers(cfg, directions, 1e-8), expected,
                                     strict=True):
            _assert_same_fiber(cfg, result, want)


def test_planted_failing_candidate_raises_the_reference_error(monkeypatch):
    """Candidates 2 and 3 of the middle direction are planted off the link:
    that direction gets candidate 2's own certificate error, the others
    their reference fibers."""
    cfg = _fixture(2)
    rng = np.random.default_rng(11)
    directions = [rng.normal(size=7) + 1j * rng.normal(size=7) for _ in range(3)]
    fiber = actions._fiber

    def planted(cfg, direction, tol):
        count, rows = fiber(cfg, direction, tol)
        if direction is directions[1]:
            rows = rows.copy()
            rows[2] *= 1.001
            rows[3] = 0.0
            planted.row = rows[2]
        return count, rows

    monkeypatch.setattr(actions, "_fiber", planted)
    (_, first), (_, failed), (_, last) = actions._fibers(cfg, directions, 1e-8)
    with pytest.raises(NumericalError) as expected:
        certify(cfg, planted.row)
    assert type(failed) is type(expected.value) and str(failed) == str(expected.value)
    _assert_same_points(cfg, first, fiber_points_reference(cfg, directions[0]))
    _assert_same_points(cfg, last, fiber_points_reference(cfg, directions[2]))
    with pytest.raises(type(expected.value), match="exceeds certification tolerance"):
        fiber_points(cfg, directions[1])


@pytest.mark.parametrize("direction, fault", [
    (np.zeros(7), "nonzero"),
    (np.full(7, np.nan), "finite"),
    (np.array([np.inf] + [0.0] * 6), "finite"),
    (np.full(7, 1e300 + 1e300j), "overflows"),
    (np.full(7, 1e-200), "too small"),
    (np.full(7, 1e-13j), "too small"),
    (np.ones(6), "C\\^7"),
])
def test_malformed_directions_raise_structural_errors(mixed_general_m2, direction, fault):
    for call in (fiber_points, fiber_count, quadric_values, ray_radius):
        with pytest.raises(StructuralError, match=fault):
            call(mixed_general_m2, direction)
