"""End-to-end command-line tests driving ``momentangle.cli.main``.

Each test writes a configuration file into ``tmp_path``, invokes ``main``
with an argv list and checks the exit code plus the visible output.  Report
determinism is checked at the byte level.
"""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentangle.actions
import momentangle.config
import momentangle.forms
import momentangle.report
import momentangle.toric
import momentangle.variety
from momentangle import cli
from momentangle.cli import main
from momentangle.config import Configuration, configuration_to_dict
from conftest import NEGATIVE_LEAST_SQUARES, roots_of_unity


def write_config(tmp_path, cfg: Configuration, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(configuration_to_dict(cfg)))
    return str(path)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_admissible_exits_zero(tmp_path, pentagon, capsys):
    path = write_config(tmp_path, pentagon)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "siegel: PASS" in out
    assert "weak hyperbolicity: PASS" in out
    assert "admissible: yes" in out


def test_check_non_admissible_exits_one(tmp_path, capsys):
    # all points in a half plane: Siegel fails
    lam = np.exp(1j * np.array([0.0, 0.3, 0.6, 0.9, 1.2])).reshape(5, 1)
    cfg = Configuration(kind="classical", lambdas=lam)
    path = write_config(tmp_path, cfg)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "siegel: FAIL" in out
    assert "admissible: no" in out


def test_check_mixed_prints_per_component_lines(tmp_path, mixed_general_m2, capsys):
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "components [0]: PASS" in out
    assert "components [0, 1]: PASS" in out
    assert "admissible: yes" in out


def test_check_malformed_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_missing_file_exits_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_unknown_field_exits_two(tmp_path, pentagon, capsys):
    data = configuration_to_dict(pentagon)
    data["surprise"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    assert "unknown configuration fields" in capsys.readouterr().err


def test_check_solves_no_lp_on_fixtures_and_planted_violators(tmp_path, pentagon,
                                                             mixed_general_m2, monkeypatch):
    """Every hull verdict of these checks is settled by an NNLS certificate."""
    calls = []
    linprog = momentangle.config.linprog
    monkeypatch.setattr(momentangle.config, "linprog",
                        lambda *a, **k: calls.append(1) or linprog(*a, **k))
    even_roots = Configuration(lambdas=roots_of_unity(8, (1,)), kind="classical")
    antipodal = Configuration(lambdas=np.array([1.0, -1.0, 1j, -0.5 + 0.8j]), kind="classical")
    for name, cfg, code in [("pentagon", pentagon, 0), ("even", even_roots, 1),
                            ("antipodal", antipodal, 1), ("mixed", mixed_general_m2, 0)]:
        assert main(["check", write_config(tmp_path, cfg, f"{name}.json")]) == code
    assert calls == []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_classical(tmp_path, pentagon, capsys):
    path = write_config(tmp_path, pentagon)
    assert main(["verify", path, "--samples", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "jacobian rank maximal: PASS" in out
    assert "kernel dimensions per stratum: PASS" in out
    assert "closed-form kernel family agreement: PASS" in out
    assert "contact volume vanishes (total degeneracy): PASS" in out
    assert "Poisson leaf rank 2: PASS" in out
    assert "leaf 2-form degeneracy: PASS" in out
    assert "FAIL" not in out


def test_verify_mixed_m1_covers_strata(tmp_path, mixed_s2, capsys):
    path = write_config(tmp_path, mixed_s2)
    assert main(["verify", path, "--samples", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "contact volume vanishes on degenerate strata: PASS" in out
    assert "contact volume positive off degenerate strata: PASS" in out
    assert "FAIL" not in out


def test_verify_mixed_m1_with_unequal_w_weights(tmp_path, capsys):
    """The closed-form family agrees on a link whose w's carry the weights (1, 3)."""
    cfg = Configuration(roots_of_unity(5, (1,)), kind="mixed-m1", s=2, weights_a=[1.0, 3.0])
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "closed-form kernel family agreement: PASS (9/9)" in out
    assert "FAIL" not in out


def test_verify_mixed_general(tmp_path, mixed_general_m2, capsys):
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["verify", path, "--samples", "3", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "kernel dimensions per stratum: PASS" in out
    assert "FAIL" not in out


def test_verify_report_lists_cases(tmp_path, mixed_s2):
    path = write_config(tmp_path, mixed_s2)
    report = tmp_path / "verify.json"
    assert main(["verify", path, "--samples", "3", "--seed", "5",
                 "--json", str(report), "--timestamp", "T"]) == 0
    parsed = json.loads(report.read_text())
    assert parsed["result"]["cases"] == [
        "generic", "stratum w = 0", "null-quadric stratum"]
    assert parsed["result"]["all_passed"] is True


@pytest.mark.parametrize("kind, n, powers, s", [("mixed-m1", 13, (1,), 3),
                                                ("mixed-general", 15, (1, 3), None)])
def test_verify_decides_volume_zeros_at_frame_dimension_29(tmp_path, capsys, kind, n, powers, s):
    """Contact volumes grow much faster with the frame dimension than any
    fixed scale; against each point's own bound, the checks still hold."""
    cfg = Configuration(lambdas=roots_of_unity(n, powers), kind=kind, s=s)
    assert cfg.manifold_dim == 29
    assert main(["verify", write_config(tmp_path, cfg), "--samples", "10"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("scale", [1e5, 1e7])
def test_verify_classical_does_not_depend_on_the_scale_of_lambda(tmp_path, pentagon, capsys,
                                                                 scale):
    """lambda -> c lambda gives the same link; the leaf vectors grow with c."""
    cfg = Configuration(lambdas=scale * pentagon.lambdas, kind="classical")
    assert main(["verify", write_config(tmp_path, cfg), "--samples", "10"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_catches_a_volume_that_does_not_vanish(tmp_path, mixed_s1, capsys, monkeypatch):
    """Generic points planted as degenerate: their volumes fail the vanishing check."""
    monkeypatch.setattr(momentangle.forms, "_expected_dims",
                        lambda leaves: np.tile([3, 2], (len(leaves), 1)))
    assert main(["verify", write_config(tmp_path, mixed_s1), "--samples", "3"]) == 1
    assert "contact volume vanishes on degenerate strata: FAIL (3/6)" in capsys.readouterr().out


def test_verify_counts_a_positive_volume_below_its_zero_bound_as_zero(tmp_path, mixed_s1,
                                                                     capsys, monkeypatch):
    """Volumes of the right sign, planted 1e-12 times too small, are not positive."""
    volumes = momentangle.forms._volumes

    def shrunk(a, dmat):
        volume, modulus, sigma = volumes(a, dmat)
        volume[1:] *= 1e-12  # the first point calibrates the orientation
        return volume, modulus, sigma

    monkeypatch.setattr(momentangle.forms, "_volumes", shrunk)
    assert main(["verify", write_config(tmp_path, mixed_s1), "--samples", "3"]) == 1
    out = capsys.readouterr().out
    assert "contact volume positive off degenerate strata: FAIL (1/3)" in out
    assert "contact volume vanishes on degenerate strata: PASS (3/3)" in out


FIXTURES = ["pentagon", "hexagon_m2", "mixed_s1", "mixed_s2", "mixed_general_m1",
            "mixed_general_m2", "mixed_general_m3"]


def _verify_report(tmp_path, cfg, seed, code):
    """The ``result`` of a ``verify --json`` run, its exit code asserted."""
    report = tmp_path / "report.json"
    assert main(["verify", write_config(tmp_path, cfg), "--samples", "3", "--seed", str(seed),
                 "--json", str(report)]) == code
    return json.loads(report.read_text())["result"]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_verify_reports_the_library_verdict(tmp_path, request, capsys, fixture):
    """``verify`` writes exactly what ``momentangle.verify`` returns, and prints one
    line per check in its order."""
    cfg = request.getfixturevalue(fixture)
    result = _verify_report(tmp_path, cfg, 5, 0)
    assert result == momentangle.verify(cfg, 3, 5)
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: PASS ({check['passed']}/{check['total']})"
        for name, check in result["checks"].items()]
    assert list(result["checks"]) == sorted(result["checks"])


def _plant_volume_that_does_not_vanish(monkeypatch):
    monkeypatch.setattr(momentangle.forms, "_expected_dims",
                        lambda leaves: np.tile([3, 2], (len(leaves), 1)))


def _plant_shrunk_volumes(monkeypatch):
    volumes = momentangle.forms._volumes

    def shrunk(a, dmat):
        volume, modulus, sigma = volumes(a, dmat)
        volume[1:] *= 1e-12
        return volume, modulus, sigma

    monkeypatch.setattr(momentangle.forms, "_volumes", shrunk)


@pytest.mark.parametrize("plant", [_plant_volume_that_does_not_vanish, _plant_shrunk_volumes])
def test_a_failing_verify_reports_the_library_verdict(tmp_path, mixed_s1, monkeypatch, plant):
    """The planted failures above: exit 1, and the report is the library's result."""
    plant(monkeypatch)
    result = _verify_report(tmp_path, mixed_s1, 0, 1)
    assert result == momentangle.verify(mixed_s1, 3, 0)
    assert result["all_passed"] is False


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_from_weights(capsys):
    assert main(["classify", "--weights", "1,1,1,1,1", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "#5 (S^4 x S^5)" in out
    assert "dim 9" in out


def test_classify_from_config(tmp_path, pentagon, capsys):
    path = write_config(tmp_path, pentagon)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "normalized weights: 1,1,1,1,1" in out
    assert "#5 (S^4 x S^5)" in out


def test_classify_requires_exactly_one_source(tmp_path, pentagon, capsys):
    path = write_config(tmp_path, pentagon)
    assert main(["classify"]) == 2
    assert main(["classify", path, "--weights", "1,1,1"]) == 2
    assert main(["classify", "--weights", "1,oops,1"]) == 2


@pytest.mark.parametrize("weights, message", [
    ("1,1,1,1", "error: weights must have odd length >= 3, got length 4"),
    ("0,1,1,1,1", "error: weights must be >= 1"),
    ("1,oops,1", "error: cannot parse weights '1,oops,1'"),
])
def test_classify_weights_errors_say_what_is_wrong(weights, message, capsys):
    """Weights that parse but are not cyclic weights keep their own message."""
    assert main(["classify", "--weights", weights]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == message
    assert captured.out == ""


# ---------------------------------------------------------------------------
# gale
# ---------------------------------------------------------------------------


def test_gale_pentagon(tmp_path, pentagon, capsys):
    path = write_config(tmp_path, pentagon)
    assert main(["gale", path]) == 0
    out = capsys.readouterr().out
    assert "dimension: 2 (expected 2)" in out
    assert "vertices: 5" in out


@pytest.mark.parametrize("c, code", [("1e-12", 0), ("1e12", 0), ("inf", 2), ("nan", 2)])
def test_gale_c_away_from_one(tmp_path, pentagon, capsys, c, code):
    """A small or large c gives c = 1's polytope; a non-finite c is a usage error."""
    assert main(["gale", write_config(tmp_path, pentagon), "--c", c]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert "dimension: 2 (expected 2)" in captured.out and "vertices: 5" in captured.out
    else:
        assert "c must be a positive finite real" in captured.err


def test_gale_non_admissible_exits_one(tmp_path, capsys):
    lam = np.exp(1j * np.array([0.0, 0.3, 0.6, 0.9, 1.2])).reshape(5, 1)
    path = write_config(tmp_path, Configuration(kind="classical", lambdas=lam))
    assert main(["gale", path]) == 1
    assert "not admissible" in capsys.readouterr().err


def test_gale_non_admissible_writes_no_report(tmp_path, capsys):
    lam = np.exp(1j * np.array([0.0, 0.3, 0.6, 0.9, 1.2])).reshape(5, 1)
    path = write_config(tmp_path, Configuration(kind="classical", lambdas=lam))
    report = tmp_path / "report.json"
    assert main(["gale", path, "--json", str(report)]) == 1
    assert "not admissible" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("fixture", FIXTURES)
def test_gale_reports_the_library_verdict(tmp_path, request, capsys, fixture):
    """``gale`` writes the polytope and expected dimension of ``momentangle.gale_check``
    and exits on its verdict."""
    cfg = request.getfixturevalue(fixture)
    gale = momentangle.gale_check(cfg)
    report = tmp_path / "gale.json"
    assert main(["gale", write_config(tmp_path, cfg), "--json", str(report)]) == 0
    assert gale.passed and gale.admissibility.admissible
    assert json.loads(report.read_text())["result"] == {**gale.polytope.to_dict(),
                                                        "expected_dim": gale.expected_dim}
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"dimension: {gale.polytope.dim} (expected {gale.expected_dim})",
        f"vertices: {len(gale.polytope.vertices)}"]


def test_a_non_admissible_gale_reports_the_library_verdict(tmp_path, capsys):
    """The half-plane input of the tests above: no polytope in the library, exit 1 and no
    report from the command, and the library's violating subset on stderr."""
    lam = np.exp(1j * np.array([0.0, 0.3, 0.6, 0.9, 1.2])).reshape(5, 1)
    cfg = Configuration(kind="classical", lambdas=lam)
    gale = momentangle.gale_check(cfg)
    assert gale.polytope is None and not gale.passed and not gale.admissibility.admissible
    report = tmp_path / "gale.json"
    assert main(["gale", write_config(tmp_path, cfg), "--json", str(report)]) == 1
    assert not report.exists()
    assert capsys.readouterr().err == ("configuration not admissible (violating subset "
                                       f"{gale.admissibility.violating_subset})\n")


def test_gale_lists_every_vertex_above_eight_coordinates(tmp_path, capsys):
    """The 11-gon's Gale polytope has n (n^2 - 1) / 24 = 55 vertices."""
    path = write_config(tmp_path, Configuration(kind="classical",
                                                lambdas=roots_of_unity(11, (1,))))
    report = tmp_path / "gale.json"
    assert main(["gale", path, "--json", str(report)]) == 0
    assert "vertices: 55" in capsys.readouterr().out
    vertices = json.loads(report.read_text())["result"]["vertices"]
    assert len(vertices) == 55 and all(len(v) == 11 for v in vertices)


def test_gale_runs_the_admissibility_sweep_once(tmp_path, pentagon, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return momentangle.config.check_admissible(*args, **kwargs)

    monkeypatch.setattr(cli, "check_admissible", counted)
    monkeypatch.setattr(momentangle.toric, "check_admissible", counted)
    assert main(["gale", write_config(tmp_path, pentagon)]) == 0
    assert len(calls) == 1
    calls.clear()
    lam = np.exp(1j * np.array([0.0, 0.3, 0.6, 0.9, 1.2])).reshape(5, 1)
    assert main(["gale", write_config(tmp_path, Configuration(kind="classical", lambdas=lam))]) == 1
    assert "not admissible" in capsys.readouterr().err
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------


def test_cover_random_directions(tmp_path, mixed_general_m2, capsys):
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["cover", path, "--samples", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "fiber count 4" in out


@pytest.mark.parametrize("fixture", ["mixed_general_m1", "mixed_general_m2", "mixed_general_m3"])
def test_cover_reports_the_library_verdict(tmp_path, request, capsys, fixture):
    """``cover --samples 3 --seed 4`` writes the rows of ``momentangle.cover`` over
    ``random_directions(cfg, 3, 4)`` and prints one line per row."""
    cfg = request.getfixturevalue(fixture)
    verdicts = list(momentangle.cover(cfg, momentangle.random_directions(cfg, 3, 4)))
    report = tmp_path / "cover.json"
    assert main(["cover", write_config(tmp_path, cfg), "--samples", "3", "--seed", "4",
                 "--json", str(report)]) == 0
    assert json.loads(report.read_text())["result"] == {
        "fibers": [row for _, row in verdicts], "all_passed": all(ok for ok, _ in verdicts)}
    assert capsys.readouterr().out.splitlines() == [
        f"direction {i}: fiber count {row['count']}, constructed preimages {row['count']}"
        f"{' (near branch locus)' if row['near_branch'] else ''} -> PASS"
        for i, (_, row) in enumerate(verdicts)]


def test_random_directions_are_unit_philox_draws(mixed_general_m2):
    """Each direction is one ``normal(size=2n)`` draw of the generator keyed
    (seed mod 2^64, 0), over its norm; a negative seed wraps."""
    n = mixed_general_m2.n
    for seed in (0, 7, -1):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0],
                                                                dtype=np.uint64)))
        draws = [rng.normal(size=2 * n) for _ in range(3)]
        got = momentangle.random_directions(mixed_general_m2, 3, seed)
        assert [d.tobytes() for d in got] == [
            (momentangle.complexify(v) / np.linalg.norm(v)).tobytes() for v in draws]


def test_cover_explicit_direction(tmp_path, mixed_general_m1, capsys):
    path = write_config(tmp_path, mixed_general_m1)
    # weight the second coordinate: the uniform direction would sit exactly on
    # the branch locus (the quadric values of a full root-of-unity cycle sum
    # to zero), so skew it to keep F != 0
    direction = "1,0,2,0,1,0,1,0,1,0"
    assert main(["cover", path, "--direction", direction]) == 0
    out = capsys.readouterr().out
    assert "fiber count 2" in out


def test_cover_bad_direction_exits_two(tmp_path, mixed_general_m1, capsys):
    path = write_config(tmp_path, mixed_general_m1)
    assert main(["cover", path, "--direction", "1,0,0"]) == 2
    assert main(["cover", path, "--direction", "a,b"]) == 2


@pytest.mark.parametrize("direction, fault", [
    ("nan" + ",0" * 9, "finite"),
    ("inf" + ",0" * 9, "finite"),
    (",".join(["1e300"] * 10), "overflows"),
    (",".join(["0"] * 10), "nonzero"),
    (",".join(["1e-300"] * 10), "too small"),
])
def test_cover_malformed_direction_exits_two_naming_the_fault(
        tmp_path, mixed_general_m1, capsys, direction, fault):
    path = write_config(tmp_path, mixed_general_m1)
    report = tmp_path / "cover.json"
    assert main(["cover", path, "--direction", direction, "--json", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: direction") and fault in err
    assert "Traceback" not in err
    assert not report.exists()


def test_cover_takes_a_negative_direction_as_a_separate_argument(
        tmp_path, mixed_general_m2, capsys):
    """``--direction -1,...`` is the direction, as ``--direction=-1,...`` is."""
    path = write_config(tmp_path, mixed_general_m2)
    direction = "-1" + ",0" * 12 + ",1"
    runs = []
    for form in (["--direction", direction], [f"--direction={direction}"]):
        report = tmp_path / "cover.json"
        assert main(["cover", path, *form, "--timestamp", "T", "--json", str(report)]) == 0
        runs.append((capsys.readouterr(), report.read_bytes()))
    assert runs[0] == runs[1]
    assert "fiber count" in runs[0][0].out
    bad = "-inf,nan" + ",0" * 12
    assert main(["cover", path, "--direction", bad]) == 2
    assert "direction must be finite" in capsys.readouterr().err


def test_cover_prints_earlier_directions_before_a_failure(
        tmp_path, mixed_general_m2, capsys, monkeypatch):
    """A candidate of the third direction, planted off the link, fails its
    certificate: the first two lines print, then the certificate's error."""
    fiber = momentangle.actions._fiber
    seen = []

    def planted(cfg, direction, tol):
        count, rows = fiber(cfg, direction, tol)
        seen.append(rows)
        if len(seen) == 3:
            rows = rows * 1.001
        return count, rows

    monkeypatch.setattr(momentangle.actions, "_fiber", planted)
    path = write_config(tmp_path, mixed_general_m2)
    report = tmp_path / "cover.json"
    assert main(["cover", path, "--samples", "4", "--json", str(report)]) == 1
    captured = capsys.readouterr()
    with pytest.raises(momentangle.ProjectionError) as expected:
        momentangle.certify(mixed_general_m2, seen[2][0] * 1.001)
    assert captured.out.splitlines() == [
        f"direction {i}: fiber count 4, constructed preimages 4 -> PASS" for i in range(2)]
    assert captured.err == f"failure: {expected.value}\n"
    assert not report.exists()


@pytest.mark.parametrize("samples, blocks", [(1, [4]), (5, [20]), (64, [256]), (65, [256, 4])])
def test_cover_certifies_its_candidates_in_one_block(
        tmp_path, mixed_general_m2, capsys, monkeypatch, samples, blocks):
    """One certificate call per 256 candidates (4 per direction at m = 2)."""
    certify_block = momentangle.actions._certify_block
    sizes = []
    monkeypatch.setattr(momentangle.actions, "_certify_block",
                        lambda cfg, link, X, *a: sizes.append(len(X)) or
                        certify_block(cfg, link, X, *a))
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["cover", path, "--samples", str(samples)]) == 0
    assert capsys.readouterr().out.count("PASS") == samples
    assert sizes == blocks


def test_cover_prints_each_slice_before_certifying_the_next(
        tmp_path, mixed_general_m2, capsys, monkeypatch):
    """With blocks of 8 candidates (two directions at m = 2), the lines of
    one slice are printed before the next is certified, so what cover holds
    does not grow with --samples."""
    certify_block = momentangle.actions._certify_block
    outputs = []
    monkeypatch.setattr(momentangle.actions, "_ATTEMPT_BLOCK", 8)
    monkeypatch.setattr(momentangle.actions, "_certify_block",
                        lambda *a: outputs.append(capsys.readouterr().out) or certify_block(*a))
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["cover", path, "--samples", "5"]) == 0
    outputs.append(capsys.readouterr().out)
    assert [out.count("PASS") for out in outputs] == [0, 2, 2, 1]


#: z_j = sqrt(t_j) on the m = 2 fixture, with t_j = 1/7 + 0.05 cos(4 pi j / 7)
#: + 1e-13 [j = 0]: the first quadric reads |F| r^2 = 8.5e-14, so its two
#: lifts w = +-2.9e-7 lie 5.8e-7 apart.
CLOSE_LIFTS = [math.sqrt(1 / 7 + 0.05 * math.cos(4 * math.pi * j / 7) + (1e-13 if j == 0 else 0))
               for j in range(7)]


@pytest.mark.parametrize("tol", [1e-16, 1e-14])
def test_cover_keeps_lifts_closer_than_1e_6(tmp_path, mixed_general_m2, capsys, tol):
    """Every one of the 2^2 lifts is a preimage, however close two of them lie."""
    direction = np.array(CLOSE_LIFTS, dtype=complex)
    count = momentangle.fiber_count(mixed_general_m2, direction, tol)
    assert 5e-14 < count.quadric_magnitudes[0] < 1e-13
    assert count.count == len(momentangle.fiber_points(mixed_general_m2, direction, tol)) == 4
    text = ",".join(f"{x!r},0" for x in CLOSE_LIFTS)
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["cover", path, f"--direction={text}", "--tol", repr(tol)]) == 0
    assert "constructed preimages 4" in capsys.readouterr().out


def test_cover_passes_at_a_tolerance_equal_to_a_directions_own_magnitude(
        tmp_path, mixed_general_m2, capsys):
    """Directions on a w_k = 0 stratum of the m = 2 fixture, with ``--tol``
    the largest |F_k| r^2 of the stratum (1e-17 to 1e-11, so the w_k = 0
    lifts certify): the count and the lifts decide k on the same magnitude,
    so cover passes, and ``fiber_count`` matches ``fiber_points``."""
    path = write_config(tmp_path, mixed_general_m2)
    cases = 0
    for seed in range(60):
        pattern = (0, 1) if seed % 3 == 2 else (seed % 3,)
        point = momentangle.sample_with_zero_pattern(mixed_general_m2, pattern, 1, seed=seed)[0]
        direction = point.z_block(mixed_general_m2)
        mags = momentangle.fiber_count(mixed_general_m2, direction).quadric_magnitudes
        tol = max(mags[k] for k in pattern)
        if not 0 < tol <= 1e-11:  # the w_k = 0 lifts miss the link by about tol
            continue
        cases += 1
        count = momentangle.fiber_count(mixed_general_m2, direction, tol)
        assert count.count == len(momentangle.fiber_points(mixed_general_m2, direction, tol))
        text = ",".join(repr(x) for x in momentangle.realify(direction).tolist())
        assert main(["cover", path, f"--direction={text}", "--tol", repr(tol)]) == 0
        assert capsys.readouterr().out.startswith(f"direction 0: fiber count {count.count}, "
                                                  f"constructed preimages {count.count}")
    assert cases >= 40


def test_cover_rejects_a_tol_between_the_zero_cut_and_a_live_magnitude(
        tmp_path, mixed_general_m2, capsys):
    """With |F_0| r^2 = 5.1e-8, ``--tol 1e-7`` cut w_0 to zero, the lifts missed
    the link by 5.1e-8 and cover exited 1 on a certification failure; a tol
    above ``ZERO_TOL`` is a usage error, as for sample and verify.  The
    default tol still passes with 4 preimages, inside the near-branch band."""
    lifts = [math.sqrt(1 / 7 + 0.05 * math.cos(4 * math.pi * j / 7) + (6e-8 if j == 0 else 0))
             for j in range(7)]
    direction = np.array(lifts, dtype=complex)
    assert 5e-8 < momentangle.fiber_count(mixed_general_m2, direction).quadric_magnitudes[0] < 1e-7
    with pytest.raises(momentangle.StructuralError, match="tol must not exceed ZERO_TOL"):
        momentangle.fiber_points(mixed_general_m2, direction, 1e-7)
    path = write_config(tmp_path, mixed_general_m2)
    text = ",".join(f"{x!r},0" for x in lifts)
    assert main(["cover", path, f"--direction={text}", "--tol", "1e-7"]) == 2
    assert capsys.readouterr().err.startswith("error: tol must not exceed ZERO_TOL")
    assert main(["cover", path, f"--direction={text}"]) == 0
    assert capsys.readouterr().out == ("direction 0: fiber count 4, constructed preimages 4"
                                       " (near branch locus) -> PASS\n")


def test_cover_validates_each_direction_once(tmp_path, mixed_general_m2, capsys, monkeypatch):
    unit_direction = momentangle.actions._unit_direction
    calls = []
    monkeypatch.setattr(momentangle.actions, "_unit_direction",
                        lambda *a: calls.append(1) or unit_direction(*a))
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["cover", path, "--samples", "5"]) == 0
    assert len(calls) == 5


def test_cover_rejects_classical(tmp_path, pentagon, capsys):
    path = write_config(tmp_path, pentagon)
    assert main(["cover", path, "--samples", "1"]) == 2


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_cover_rejects_non_positive_samples(tmp_path, mixed_general_m1, capsys, samples):
    path = write_config(tmp_path, mixed_general_m1)
    report = tmp_path / "cover.json"
    assert main(["cover", path, "--samples", samples, "--json", str(report)]) == 2
    assert f"error: --samples must be positive, got {samples}" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_non_positive_samples_error_names_the_flag(tmp_path, pentagon, capsys, command):
    path = write_config(tmp_path, pentagon)
    report = tmp_path / "report.json"
    assert main([command, path, "--samples", "0", "--json", str(report)]) == 2
    assert capsys.readouterr().err == "error: --samples must be positive, got 0\n"
    assert not report.exists()


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_known_values(capsys):
    assert main(["count", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["count", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_count_reflection(capsys):
    assert main(["count", "--n", "7", "--equivalence", "rotation+reflection"]) == 0
    reflect = int(capsys.readouterr().out.strip())
    assert main(["count", "--n", "7"]) == 0
    rotate = int(capsys.readouterr().out.strip())
    assert reflect <= rotate


def test_count_invalid_n_exits_two(capsys):
    assert main(["count", "--n", "2"]) == 2


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_generic(tmp_path, pentagon, capsys):
    path = write_config(tmp_path, pentagon)
    assert main(["sample", path, "--samples", "4", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "certified 4 points" in out


def test_sample_pattern(tmp_path, mixed_general_m2, capsys):
    path = write_config(tmp_path, mixed_general_m2)
    report = tmp_path / "sample.json"
    assert main(["sample", path, "--samples", "3", "--pattern", "1",
                 "--json", str(report), "--timestamp", "T"]) == 0
    parsed = json.loads(report.read_text())
    assert all(p["zero_pattern"] == [1] for p in parsed["result"]["points"])


def test_sample_null_stratum(tmp_path, mixed_s2, capsys):
    path = write_config(tmp_path, mixed_s2)
    report = tmp_path / "null.json"
    assert main(["sample", path, "--samples", "3", "--null-stratum",
                 "--json", str(report), "--timestamp", "T"]) == 0
    parsed = json.loads(report.read_text())
    for p in parsed["result"]["points"]:
        coords = np.array(p["coordinates"])
        w = coords[0:4:2] + 1j * coords[1:4:2]
        assert abs(np.sum(w**2)) <= 1e-9
        assert p["zero_pattern"] == []


class _FrameBuilt(Exception):
    """Raised by the patched frame builder."""


def test_only_the_forms_build_tangent_frames(tmp_path, pentagon, mixed_s2, mixed_general_m2,
                                             monkeypatch, capsys):
    """Sampling, fibers, c and the moment image certify without a frame.

    With the frame builder patched to raise, ``sample`` (generic, ``--pattern``,
    ``--null-stratum``), ``cover``, ``fiber_points``, ``estimate_c`` and
    ``moment_image_check`` give the same reports and values as without the
    patch; ``verify``, which evaluates the forms, does reach it.
    """
    cfg = mixed_general_m2
    paths = [write_config(tmp_path, c, f"{i}.json")
             for i, c in enumerate((pentagon, mixed_general_m2, mixed_s2))]
    commands = [["sample", paths[0], "--samples", "5"],
                ["sample", paths[1], "--samples", "5", "--pattern", "0,1"],
                ["sample", paths[2], "--samples", "5", "--null-stratum"],
                ["cover", paths[1], "--samples", "3"]]

    def run(tag):
        out = []
        for i, argv in enumerate(commands):
            report = tmp_path / f"{tag}-{i}.json"
            assert main(argv + ["--json", str(report), "--timestamp", "T"]) == 0
            out.append(report.read_text())
        point = momentangle.variety.sample_points(cfg, 1, seed=3)[0]
        fibers = momentangle.actions.fiber_points(cfg, point.z_block(cfg))
        estimate = momentangle.toric.estimate_c(cfg, samples=5)
        moment = momentangle.toric.moment_image_check(cfg, point, c_estimate=estimate.value)
        return out + [[p.coordinates.tobytes() for p in fibers], estimate.value,
                      estimate.minimizer.coordinates.tobytes(), moment]

    expected = run("plain")

    def raising(*args, **kwargs):
        raise _FrameBuilt

    for module in (momentangle.variety, momentangle.forms):
        monkeypatch.setattr(module, "_tangent_frames", raising)
    assert run("patched") == expected
    with pytest.raises(_FrameBuilt):
        main(["verify", paths[0], "--samples", "2"])


@pytest.mark.parametrize("command, tol", [("sample", "1e-7"), ("sample", "1e300"),
                                          ("verify", "1"), ("cover", "1e-7"), ("cover", "1")])
def test_a_tol_above_the_zero_cut_exits_two(tmp_path, mixed_general_m2, capsys, command, tol):
    """A certified residual above ``ZERO_TOL`` could cross the cut that decides the zero
    pattern: the tol is a usage error, and no report is written."""
    report = tmp_path / "report.json"
    assert main([command, write_config(tmp_path, mixed_general_m2), "--samples", "2",
                 "--tol", tol, "--json", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tol must not exceed ZERO_TOL")
    assert captured.out == "" and not report.exists()


def test_sample_at_the_zero_cut_certifies_large_lambdas(tmp_path, hexagon_m2, capsys):
    """``--tol 1e-8``, the workaround for lambda scaled by 1e7, still samples."""
    cfg = Configuration(kind="classical", lambdas=hexagon_m2.lambdas * 1e7)
    assert main(["sample", write_config(tmp_path, cfg), "--samples", "5", "--tol", "1e-8"]) == 0
    assert capsys.readouterr().out.startswith("certified 5 points")


def test_sample_pattern_and_null_conflict(tmp_path, mixed_s2, capsys):
    path = write_config(tmp_path, mixed_s2)
    assert main(["sample", path, "--pattern", "0", "--null-stratum"]) == 2


def test_sample_bad_pattern_exits_two(tmp_path, mixed_general_m2, capsys):
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["sample", path, "--pattern", "0,oops"]) == 2
    assert main(["sample", path, "--pattern", "7"]) == 2


def test_sample_empty_pattern_exits_two(tmp_path, mixed_general_m2, capsys):
    """An empty ``--pattern`` is a pattern that does not parse, not a missing one."""
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["sample", path, "--pattern", "", "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot parse pattern ''\n"
    assert captured.out == ""


def test_sample_empty_pattern_and_null_stratum_conflict(tmp_path, mixed_s2, capsys):
    path = write_config(tmp_path, mixed_s2)
    assert main(["sample", path, "--pattern", "", "--null-stratum", "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert "mutually exclusive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, option, constant", [
    ("check", "--tol", momentangle.config.HULL_TOL),
    ("verify", "--tol", momentangle.variety.DEFAULT_TOL),
    ("verify", "--rank-tol", momentangle.config.DEFAULT_RANK_TOL),
    ("gale", "--tol", momentangle.toric.FEASIBILITY_TOL),
    ("cover", "--tol", momentangle.variety.ZERO_TOL),
    ("sample", "--tol", momentangle.variety.DEFAULT_TOL),
    ("sample", "--rank-tol", momentangle.config.DEFAULT_RANK_TOL),
])
def test_tolerance_defaults_are_the_library_constants(command, option, constant):
    args = cli._build_parser().parse_args([command, "cfg.json"])
    assert getattr(args, option[2:].replace("-", "_")) == constant


TOLERANCE_FLAGS = [
    ["--tol", "inf"], ["--tol", "nan"], ["--tol", "0"], ["--tol", "-1"],
    ["--rank-tol", "nan"], ["--rank-tol", "2"], ["--rank-tol", "-1"],
]


@pytest.mark.parametrize("flags, command", [
    *(pytest.param(flags, command, id=f"flags{i}-{command}")
      for command in ("sample", "verify") for i, flags in enumerate(TOLERANCE_FLAGS)),
    # check, gale and cover take --tol only
    *(pytest.param(flags, command, id=f"flags{i}-{command}")
      for command in ("check", "gale", "cover") for i, flags in enumerate(TOLERANCE_FLAGS[:4])),
])
def test_tolerances_outside_their_range_exit_two(tmp_path, pentagon, mixed_general_m2, capsys,
                                                  command, flags):
    # cover is defined on mixed-general links only
    path = write_config(tmp_path, mixed_general_m2 if command == "cover" else pentagon)
    report = tmp_path / "report.json"
    samples = ["--samples", "2"] if command in ("sample", "verify", "cover") else []
    assert main([command, path, *samples, *flags, "--json", str(report)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("command", ["check", "verify", "count"])
def test_an_unwritable_report_path_exits_two(tmp_path, pentagon, capsys, command):
    """The verdict is printed, then the report cannot be written: a usage error, not a crash."""
    path = write_config(tmp_path, pentagon)
    argv = {"check": ["check", path], "verify": ["verify", path, "--samples", "2"],
            "count": ["count", "--n", "5"]}[command]
    report = tmp_path / "missing" / "report.json"
    assert main(argv + ["--json", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write report: ")
    assert captured.out
    assert not report.parent.exists()


# ---------------------------------------------------------------------------
# report determinism
# ---------------------------------------------------------------------------


def test_identical_command_lines_with_a_pinned_timestamp_write_identical_bytes(tmp_path, pentagon):
    path = write_config(tmp_path, pentagon)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", path, "--samples", "4", "--seed", "11",
            "--timestamp", "2024-01-01T00:00:00Z"]
    assert main(argv + ["--json", str(first)]) == 0
    assert main(argv + ["--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert b"NaN" not in first.read_bytes()


@pytest.mark.parametrize("argv, tolerances, seed", [
    (["check", "CFG", "--tol", "1e-8"], {"tol": 1e-8}, None),
    (["verify", "CFG", "--samples", "2", "--seed", "5", "--tol", "1e-9", "--rank-tol", "1e-7"],
     {"tol": 1e-9, "rank_tol": 1e-7}, 5),
    (["classify", "CFG"], {}, None),
    (["classify", "--weights", "1,1,1,1,1"], {}, None),
    (["gale", "CFG", "--tol", "1e-8", "--c", "2"], {"tol": 1e-8, "c": 2.0}, None),
    (["cover", "MIXED", "--samples", "2", "--seed", "5", "--tol", "1e-9"], {"tol": 1e-9}, 5),
    (["count", "--n", "7"], {}, None),
    (["sample", "CFG", "--samples", "2", "--seed", "5", "--tol", "1e-9", "--rank-tol", "1e-7"],
     {"tol": 1e-9, "rank_tol": 1e-7}, 5),
], ids=["check", "verify", "classify-config", "classify-weights", "gale", "cover", "count",
        "sample"])
def test_the_manifest_is_read_off_the_command_line(tmp_path, pentagon, mixed_general_m2,
                                                   argv, tolerances, seed):
    """Each command's manifest names it and holds exactly its parsed --tol, --rank-tol and
    --c; only the runs without a configuration file record none."""
    paths = {"CFG": write_config(tmp_path, pentagon),
             "MIXED": write_config(tmp_path, mixed_general_m2, "mixed.json")}
    argv = [paths.get(arg, arg) for arg in argv]
    report = tmp_path / "report.json"
    assert main(argv + ["--timestamp", "T", "--json", str(report)]) == 0
    manifest = json.loads(report.read_text())["manifest"]
    assert manifest["command"] == argv[0]
    assert manifest["tolerances"] == tolerances
    assert manifest["seed"] == seed
    assert manifest["timestamp"] == "T"
    config = next((arg for arg in argv if arg in paths.values()), None)
    assert manifest["config_path"] == config
    assert (manifest["config_hash"] is None) == (config is None)


def test_an_empty_timestamp_is_kept(tmp_path, pentagon):
    """``--timestamp ""`` pins the timestamp to the empty string, not to the current time."""
    path = write_config(tmp_path, pentagon)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", path, "--timestamp", "", "--json", str(first)]) == 0
    assert main(["check", path, "--timestamp", "", "--json", str(second)]) == 0
    assert json.loads(first.read_text())["manifest"]["timestamp"] == ""
    assert first.read_bytes() == second.read_bytes()


def test_main_reuses_one_parser_without_carrying_flags(tmp_path, mixed_general_m2):
    """Reports from calls in a row equal those from calls on a fresh parser."""
    path = write_config(tmp_path, mixed_general_m2)
    runs = [
        ["sample", path, "--samples", "3", "--pattern", "0,1"],
        ["sample", path, "--samples", "3"],
        ["check", path, "--tol", "1e-8"],
        ["check", path],
    ]

    def report(argv, name):
        out = tmp_path / name
        assert main(argv + ["--timestamp", "T", "--json", str(out)]) == 0
        return out.read_bytes()

    in_a_row = [report(argv, f"row{i}.json") for i, argv in enumerate(runs)]
    assert cli._build_parser() is cli._build_parser()
    single = []
    for i, argv in enumerate(runs):
        cli._build_parser.cache_clear()
        single.append(report(argv, f"single{i}.json"))
    assert in_a_row == single
    assert json.loads(in_a_row[1])["result"]["points"][0]["zero_pattern"] == []
    assert json.loads(in_a_row[3])["manifest"]["tolerances"] == {"tol": 1e-9}


def test_a_run_without_a_report_hashes_nothing(tmp_path, pentagon, monkeypatch):
    """The manifest, and with it the configuration's hash, is built only for a report."""
    calls = []
    sha256_hex = momentangle.report.sha256_hex
    for module in (momentangle.report, cli):
        monkeypatch.setattr(module, "sha256_hex",
                            lambda text: calls.append(text) or sha256_hex(text))
    path = write_config(tmp_path, pentagon)
    assert main(["check", path]) == 0
    assert calls == []
    assert main(["check", path, "--json", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1


def test_report_embeds_config_hash(tmp_path, pentagon, mixed_s1):
    path_a = write_config(tmp_path, pentagon, "a.json")
    path_b = write_config(tmp_path, mixed_s1, "b.json")
    out_a, out_b = tmp_path / "ra.json", tmp_path / "rb.json"
    assert main(["check", path_a, "--json", str(out_a), "--timestamp", "T"]) == 0
    assert main(["check", path_b, "--json", str(out_b), "--timestamp", "T"]) == 0
    hash_a = json.loads(out_a.read_text())["manifest"]["config_hash"]
    hash_b = json.loads(out_b.read_text())["manifest"]["config_hash"]
    assert hash_a != hash_b
    assert len(hash_a) == 64


def test_same_config_same_hash_across_paths(tmp_path, pentagon):
    path_a = write_config(tmp_path, pentagon, "first.json")
    path_b = write_config(tmp_path, pentagon, "second.json")
    out_a, out_b = tmp_path / "ra.json", tmp_path / "rb.json"
    main(["check", path_a, "--json", str(out_a), "--timestamp", "T"])
    main(["check", path_b, "--json", str(out_b), "--timestamp", "T"])
    hash_a = json.loads(out_a.read_text())["manifest"]["config_hash"]
    hash_b = json.loads(out_b.read_text())["manifest"]["config_hash"]
    assert hash_a == hash_b


def _fresh_env(**extra) -> dict:
    """Environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _reports_across_blas_thread_counts(tmp_path, argv):
    """The report of ``argv`` from two fresh interpreters, one and two BLAS threads."""
    reports = []
    for threads in ("1", "2"):
        report = tmp_path / f"threads{threads}.json"
        env = _fresh_env(OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "momentangle.cli", *argv,
                        "--timestamp", "2024-01-01T00:00:00Z", "--json", str(report)],
                       env=env, check=True, capture_output=True, timeout=120)
        reports.append(report.read_bytes())
    return reports


def test_sample_report_is_identical_across_blas_thread_counts(tmp_path, mixed_general_m2):
    """Two fresh interpreters, one and two BLAS threads, the same report bytes."""
    path = write_config(tmp_path, mixed_general_m2)
    first, second = _reports_across_blas_thread_counts(
        tmp_path, ["sample", path, "--pattern", "0", "--samples", "60"])
    assert first == second


def test_verify_report_is_identical_across_blas_thread_counts(tmp_path, mixed_general_m3):
    """The stacked verification gives the same report bytes on one and two BLAS threads."""
    path = write_config(tmp_path, mixed_general_m3)
    first, second = _reports_across_blas_thread_counts(tmp_path, ["verify", path, "--samples", "5"])
    assert first == second
    assert json.loads(first)["result"]["all_passed"] is True


@pytest.mark.parametrize("argv, solves", [
    (["count", "--n", "12"], False),
    (["sample", "{config}", "--samples", "3"], False),
    (["check", "{config}"], False),
    (["verify", "{config}", "--samples", "2"], False),
    (["classify", "--weights", "1,1,1,1,1"], False),
    (["cover", "{mixed}", "--samples", "2"], False),
    (["gale", "{config}"], False),
    (["classify", "{config}"], False),
    (["check", "{planted}"], True),
])
def test_scipy_optimize_is_imported_only_by_commands_that_solve(tmp_path, pentagon,
                                                                 mixed_general_m2, argv, solves):
    """Only a command that reaches the NNLS or the LP loads ``scipy.optimize``,
    and with it ``scipy``: ``check`` on a configuration whose least-squares
    hull weights have a negative entry.  On the pentagon, whose hull weights
    all come from least squares, ``check``, ``gale`` and ``classify`` load no
    scipy module, nor does any other command, ``verify`` with its Pfaffians
    among them."""
    planted = Configuration(lambdas=NEGATIVE_LEAST_SQUARES.reshape(-1, 1), kind="classical")
    paths = {"config": write_config(tmp_path, pentagon),
             "mixed": write_config(tmp_path, mixed_general_m2, "mixed.json"),
             "planted": write_config(tmp_path, planted, "planted.json")}
    code = ("import sys; from momentangle import cli; assert cli.main(sys.argv[1:]) == 0; "
            "print('scipy.optimize' in sys.modules, "
            "any(name.split('.')[0] == 'scipy' for name in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, *(a.format(**paths) for a in argv)],
                          env=_fresh_env(), check=True, capture_output=True, text=True,
                          timeout=120)
    assert done.stdout.splitlines()[-1] == f"{solves} {solves}"


def test_the_cli_imports_no_private_name():
    """Every verdict comes from the library's public functions: ``cli.py`` imports no
    ``_``-prefixed name from a ``momentangle`` module (a dunder like ``__version__`` is
    public)."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "momentangle")
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []
