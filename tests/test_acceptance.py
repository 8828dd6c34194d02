"""Acceptance suite: the eleven headline guarantees, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line on the real
stdout (bypassing pytest's capture) before asserting, so a plain run of this
file always ends with an eleven-line scoreboard.  The tolerances below are
pinned on purpose: they are part of the contract, not tuning knobs.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from momentangle import (
    Configuration,
    CyclicWeights,
    check_admissible,
    classify,
    configuration_to_dict,
    estimate_c,
    evaluate_stack,
    fiber_count,
    fiber_points,
    gale_transform,
    jacobian_rank,
    moment_image_check,
    normalize_configuration,
    orientation_sign,
    sign_orbit,
    star_shaped_check,
)
from momentangle.cli import main
from momentangle.forms import _volumes

from _oracles import (admissible_brute, brute_force_contact_volume, c_exact,
                      contact_volume_scale)

HULL_TOL = 1e-9            # LP and brute-force hull membership tolerance
RANK_TOL = 1e-8            # SVD numerical-rank threshold
ANGLE_TOL = 1e-6           # principal angle bound, radians
VOLUME_ZERO_FACTOR = 1e-9  # on-stratum |volume| < factor * scale
PFAFFIAN_REL_TOL = 1e-9    # fast vs brute top-form relative agreement
MOMENT_TOL = 1e-9          # orbit-polytope constraint residual bound
CASE_SAMPLES = 200         # per-case sample floor (kernel table, volumes)
RANK_SAMPLES = 500         # total sample floor for the Jacobian criterion


@pytest.fixture
def announce(capsys):
    """One visible scoreboard line per criterion, then the assert.

    Printing happens with capture suspended so the eleven-line summary shows
    up in a plain ``pytest`` run, not only on failures.
    """

    def _announce(index: int, label: str, ok: bool, detail: str = "") -> None:
        line = f"[criterion {index:2d}] {'PASS' if ok else 'FAIL'}  {label}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, detail or line

    return _announce


# ---------------------------------------------------------------------------
# 1. admissibility oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_01_admissibility_oracle_equivalence(announce):
    rng = np.random.default_rng(101)
    disagreements: list[int] = []
    degenerate_skips = 0
    for index in range(500):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(5, 9))
        lam = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        cfg = Configuration(lambdas=lam, kind="classical")
        report = check_admissible(cfg, HULL_TOL)
        if report.degenerate:
            # within the declared tolerance band the verdict is undefined;
            # random continuous configurations land here with probability ~0
            degenerate_skips += 1
            continue
        realified = np.empty((n, 2 * m))
        realified[:, 0::2] = lam.real
        realified[:, 1::2] = lam.imag
        siegel, weak = admissible_brute(realified, m, HULL_TOL)
        if (report.siegel, report.weak_hyperbolicity) != (siegel, weak):
            disagreements.append(index)
    ok = not disagreements and degenerate_skips <= 2
    announce(1, "certified admissibility = brute hull membership on 500 random configurations",
             ok, f"disagreements at {disagreements[:5]}, degenerate skips {degenerate_skips}")


# ---------------------------------------------------------------------------
# shared sample table (criteria 2, 3, 4, 5, 7 reuse the cached batches)
# ---------------------------------------------------------------------------


def _kernel_table(batch, pentagon, hexagon_m2, mixed_s1, mixed_s2, mg2):
    """(name, cfg, points, expected kernel dims) covering every stratum."""
    return [
        ("classical (1,5)", pentagon, batch(pentagon, CASE_SAMPLES), (3, 2)),
        ("classical (2,6)", hexagon_m2, batch(hexagon_m2, CASE_SAMPLES), (5, 4)),
        ("mixed-m1 s=1 generic", mixed_s1, batch(mixed_s1, CASE_SAMPLES), (1, 0)),
        ("mixed-m1 s=1 stratum", mixed_s1,
         batch(mixed_s1, CASE_SAMPLES, (0,)), (3, 2)),
        ("mixed-m1 s=2 generic", mixed_s2, batch(mixed_s2, CASE_SAMPLES), (1, 0)),
        ("mixed-m1 s=2 stratum", mixed_s2,
         batch(mixed_s2, CASE_SAMPLES, (0, 1)), (3, 2)),
        # on the null quadric but with w != 0 the form stays contact: the
        # kernel jump happens exactly on {w = 0}
        ("mixed-m1 s=2 null cone", mixed_s2,
         batch(mixed_s2, CASE_SAMPLES, "null"), (1, 0)),
        ("mixed-general l=0", mg2, batch(mg2, CASE_SAMPLES), (1, 0)),
        ("mixed-general l=1 (w0)", mg2, batch(mg2, 100, (0,)), (3, 2)),
        ("mixed-general l=1 (w1)", mg2, batch(mg2, 100, (1,)), (3, 2)),
        ("mixed-general l=2", mg2, batch(mg2, 100, (0, 1)), (5, 4)),
    ]


def test_criterion_02_jacobian_rank(announce, batch, pentagon, hexagon_m2,
                                    mixed_s1, mixed_s2, mixed_general_m2):
    cases = [
        (pentagon, batch(pentagon, CASE_SAMPLES)),
        (hexagon_m2, batch(hexagon_m2, CASE_SAMPLES)),
        (mixed_s1, batch(mixed_s1, CASE_SAMPLES)),
        (mixed_s2, batch(mixed_s2, CASE_SAMPLES)),
        (mixed_general_m2, batch(mixed_general_m2, CASE_SAMPLES)),
    ]
    total = 0
    failures = 0
    for cfg, points in cases:
        for point in points:
            total += 1
            failures += jacobian_rank(cfg, point, RANK_TOL) != 2 * cfg.m + 1
    ok = failures == 0 and total >= RANK_SAMPLES
    announce(2, f"Jacobian rank 2m+1 on {total} certified samples",
             ok, f"{failures} rank failures out of {total}")


def test_criterion_03_kernel_dimension_table(announce, batch, pentagon,
                                             hexagon_m2, mixed_s1, mixed_s2,
                                             mixed_general_m2):
    table = _kernel_table(batch, pentagon, hexagon_m2, mixed_s1, mixed_s2,
                          mixed_general_m2)
    mismatches: list[tuple] = []
    indeterminate = 0
    total = 0
    for name, cfg, points, expected in table:
        ev = evaluate_stack(cfg, points, RANK_TOL)
        total += len(points)
        indeterminate += int(np.count_nonzero(ev.indeterminate))
        got = np.column_stack([ev.ker_dalpha_dim, ev.ker_alpha_cap_ker_dalpha_dim])
        wrong = ((got != expected) | (ev.expected_kernel_dims != expected)).any(axis=1)
        mismatches += [(name, tuple(dims), expected) for dims in got[wrong].tolist()]
    ok = not mismatches and indeterminate < 0.01 * total
    announce(3, f"kernel dimension table on {total} samples across 11 strata",
             ok, f"mismatches {mismatches[:5]}, indeterminate {indeterminate}/{total}")


def test_criterion_04_closed_form_kernel_agreement(announce, batch, pentagon,
                                                   hexagon_m2, mixed_s1,
                                                   mixed_s2, mixed_general_m2):
    table = _kernel_table(batch, pentagon, hexagon_m2, mixed_s1, mixed_s2,
                          mixed_general_m2)
    worst = 0.0
    where = ""
    for name, cfg, points, _ in table:
        angle = float(evaluate_stack(cfg, points, RANK_TOL).family_angle.max())
        if angle > worst:
            worst, where = angle, name
    ok = worst < ANGLE_TOL
    announce(4, f"closed-form kernel family within {ANGLE_TOL} rad of the SVD kernel",
             ok, f"worst angle {worst:.3e} at {where}")


def test_criterion_05_confoliation_positivity(announce, batch, mixed_s1,
                                              mixed_s2, mixed_general_m2):
    cases = [
        ("mixed-m1 s=1", mixed_s1,
         [batch(mixed_s1, CASE_SAMPLES)],
         [batch(mixed_s1, CASE_SAMPLES, (0,))]),
        ("mixed-m1 s=2", mixed_s2,
         [batch(mixed_s2, CASE_SAMPLES), batch(mixed_s2, CASE_SAMPLES, "null")],
         [batch(mixed_s2, CASE_SAMPLES, (0, 1))]),
        ("mixed-general m=2", mixed_general_m2,
         [batch(mixed_general_m2, CASE_SAMPLES)],
         [batch(mixed_general_m2, 100, (0,)), batch(mixed_general_m2, 50, (1,)),
          batch(mixed_general_m2, 50, (0, 1))]),
    ]
    bad: list[tuple] = []
    for name, cfg, off_batches, on_batches in cases:
        kappa = orientation_sign(cfg, off_batches[0][0])
        zero_bound = VOLUME_ZERO_FACTOR * contact_volume_scale(cfg)
        n_off = n_on = 0
        for points in off_batches:
            n_off += len(points)
            volume = evaluate_stack(cfg, points).contact_volume
            bad += [(name, "off", points[i].zero_pattern)
                    for i in np.flatnonzero(~(kappa * volume > 0))]
        for points in on_batches:
            n_on += len(points)
            volume = np.abs(evaluate_stack(cfg, points).contact_volume)
            bad += [(name, "on", v) for v in volume[~(volume < zero_bound)]]
        assert n_off >= CASE_SAMPLES and n_on >= CASE_SAMPLES, name
    ok = not bad
    announce(5, "calibrated contact volume positive off strata, zero on strata",
             ok, f"violations {bad[:5]}")


def test_criterion_06_pfaffian_oracle(announce):
    rng = np.random.default_rng(606)
    worst = 0.0
    for dim in (3, 5, 7, 9):
        for _ in range(250):
            a = rng.normal(size=dim)
            raw = rng.normal(size=(dim, dim))
            skew = raw - raw.T
            fast = float(_volumes(a[None], skew[None])[0][0])
            brute = brute_force_contact_volume(a, skew)
            rel = abs(fast - brute) / max(abs(fast), abs(brute), 1e-300)
            worst = max(worst, rel)
    ok = worst <= PFAFFIAN_REL_TOL
    announce(6, "fast top-form evaluation = brute exterior algebra on 1000 pairs",
             ok, f"worst relative error {worst:.3e}")


def test_criterion_07_leaf_rank(announce, batch, pentagon, hexagon_m2):
    bad = 0
    total = 0
    for cfg in (pentagon, hexagon_m2):
        ranks = evaluate_stack(cfg, batch(cfg, CASE_SAMPLES), RANK_TOL).leaf_rank
        total += len(ranks)
        bad += int(np.count_nonzero(ranks != 2 * cfg.m))
    ok = bad == 0
    announce(7, f"leaf 2-form rank exactly 2m on {total} classical samples",
             ok, f"{bad} rank failures")


def test_criterion_08_topology_classifier(announce, pentagon):
    rng = np.random.default_rng(808)
    dimension_failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # totals <= 3 trip the hypothesis note
        for _ in range(1000):
            length = int(rng.choice((3, 5, 7)))
            weights = tuple(int(x) for x in rng.integers(1, 5, size=length))
            s = int(rng.integers(1, 4))
            diffeo = classify(CyclicWeights(weights), s)
            expected = 2 * sum(weights) + 2 * s - 3
            dimension_failures += any(p + q != expected
                                      for p, q in diffeo.summands)
    pentagon_weights = normalize_configuration(pentagon).weights
    five = classify(CyclicWeights((1, 1, 1, 1, 1)), 1)
    pins_ok = (pentagon_weights == (1, 1, 1, 1, 1)
               and five.summands == ((4, 5),) * 5
               and five.description() == "#5 (S^4 x S^5)")
    ok = dimension_failures == 0 and pins_ok
    announce(8, "summand dimensions p+q = 2n+2s-3 on 1000 draws; pentagon pins",
             ok, f"{dimension_failures} dimension failures, pins_ok={pins_ok}")


def test_criterion_09_branched_covering(announce, batch, mixed_general_m1,
                                        mixed_general_m2, mixed_general_m3):
    problems: list[tuple] = []
    for cfg in (mixed_general_m1, mixed_general_m2, mixed_general_m3):
        m = cfg.m
        rng = np.random.default_rng(900 + m)
        for i in range(100):
            v = rng.normal(size=2 * cfg.n)
            direction = v[0::2] + 1j * v[1::2]
            info = fiber_count(cfg, direction)
            constructed = fiber_points(cfg, direction)
            if info.count != 2**m or len(constructed) != 2**m:
                problems.append((m, i, info.count, len(constructed)))
        # directions over the totally real stratum: every quadric value is 0
        for point in batch(cfg, 3, tuple(range(m)), seed=9):
            direction = point.z_block(cfg)
            info = fiber_count(cfg, direction)
            if info.count != 1 or len(fiber_points(cfg, direction)) != 1:
                problems.append((m, "stratum", info.count))
        for point in batch(cfg, 3, seed=9):
            if len(sign_orbit(cfg, point)) != 2**m:
                problems.append((m, "orbit"))
    ok = not problems
    announce(9, "fiber count 2^m generically, 1 over the stratum, orbit 2^m",
             ok, f"problems {problems[:5]}")


def test_criterion_10_toric_layer(announce, batch, pentagon, hexagon_m2,
                                  mixed_general_m2):
    dim_failures = []
    for cfg in (pentagon, hexagon_m2, mixed_general_m2):
        poly = gale_transform(cfg)
        if poly.dim != cfg.n - 2 * cfg.m - 1:
            dim_failures.append((cfg.n, cfg.m, poly.dim))

    exact = c_exact(mixed_general_m2.lambdas)
    estimate = estimate_c(mixed_general_m2, samples=40, seed=10)
    c_ok = 0.0 < estimate.value < 1.0 and estimate.value >= exact - 1e-9

    worst_residual = 0.0
    membership_ok = True
    for point in batch(mixed_general_m2, 100):
        report = moment_image_check(mixed_general_m2, point,
                                    c_estimate=exact, tol=MOMENT_TOL)
        worst_residual = max(worst_residual, report.constraint_residual)
        membership_ok &= (report.in_orbit_polytope and report.hull_member
                          and bool(report.w_bound_ok))

    star = star_shaped_check(mixed_general_m2, samples=50, ray_steps=20, seed=5)
    ok = (not dim_failures and c_ok and membership_ok
          and worst_residual <= MOMENT_TOL and star.passed)
    announce(10, "Gale dimensions, moment-image membership, star-shapedness, c in (0,1)",
             ok, f"dim failures {dim_failures}, worst residual {worst_residual:.3e}, "
                 f"c={estimate.value:.6f}, star violations {star.violations[:3]}")


def test_criterion_11_reproducibility(announce, tmp_path, pentagon, mixed_s2):
    identical = True
    for tag, cfg, argv_tail in (
        ("verify", pentagon, ["--samples", "4", "--seed", "11"]),
        ("gale", mixed_s2, []),
    ):
        config_path = tmp_path / f"{tag}.json"
        config_path.write_text(json.dumps(configuration_to_dict(cfg)))
        first = tmp_path / f"{tag}_a.json"
        second = tmp_path / f"{tag}_b.json"
        argv = [tag, str(config_path), *argv_tail,
                "--timestamp", "2024-01-01T00:00:00Z"]
        assert main(argv + ["--json", str(first)]) == 0
        assert main(argv + ["--json", str(second)]) == 0
        identical &= first.read_bytes() == second.read_bytes()
    announce(11, "identical command lines with a pinned --timestamp produce byte-identical "
                 "JSON reports", identical)
