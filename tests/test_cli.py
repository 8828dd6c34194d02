"""End-to-end command-line tests driving ``momentangle.cli.main``.

Each test writes a configuration file into ``tmp_path``, invokes ``main``
with an argv list and checks the exit code plus the visible output.  Report
determinism is checked at the byte level.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momentangle import cli
from momentangle.cli import main
from momentangle.config import Configuration, configuration_to_dict


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


# ---------------------------------------------------------------------------
# gale
# ---------------------------------------------------------------------------


def test_gale_pentagon(tmp_path, pentagon, capsys):
    path = write_config(tmp_path, pentagon)
    assert main(["gale", path]) == 0
    out = capsys.readouterr().out
    assert "dimension: 2 (expected 2)" in out
    assert "vertices: 5" in out


def test_gale_non_admissible_exits_one(tmp_path, capsys):
    lam = np.exp(1j * np.array([0.0, 0.3, 0.6, 0.9, 1.2])).reshape(5, 1)
    path = write_config(tmp_path, Configuration(kind="classical", lambdas=lam))
    assert main(["gale", path]) == 1
    assert "not admissible" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------


def test_cover_random_directions(tmp_path, mixed_general_m2, capsys):
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["cover", path, "--samples", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "fiber count 4" in out


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


def test_cover_rejects_classical(tmp_path, pentagon, capsys):
    path = write_config(tmp_path, pentagon)
    assert main(["cover", path, "--samples", "1"]) == 2


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_cover_rejects_non_positive_samples(tmp_path, mixed_general_m1, capsys, samples):
    path = write_config(tmp_path, mixed_general_m1)
    report = tmp_path / "cover.json"
    assert main(["cover", path, "--samples", samples, "--json", str(report)]) == 2
    assert "count must be positive" in capsys.readouterr().err
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


def test_sample_pattern_and_null_conflict(tmp_path, mixed_s2, capsys):
    path = write_config(tmp_path, mixed_s2)
    assert main(["sample", path, "--pattern", "0", "--null-stratum"]) == 2


def test_sample_bad_pattern_exits_two(tmp_path, mixed_general_m2, capsys):
    path = write_config(tmp_path, mixed_general_m2)
    assert main(["sample", path, "--pattern", "0,oops"]) == 2
    assert main(["sample", path, "--pattern", "7"]) == 2


@pytest.mark.parametrize("command", ["sample", "verify"])
@pytest.mark.parametrize("flags", [
    ["--tol", "inf"], ["--tol", "nan"], ["--tol", "0"], ["--tol", "-1"],
    ["--rank-tol", "nan"], ["--rank-tol", "2"], ["--rank-tol", "-1"],
])
def test_tolerances_outside_their_range_exit_two(tmp_path, pentagon, capsys, command, flags):
    path = write_config(tmp_path, pentagon)
    report = tmp_path / "report.json"
    assert main([command, path, "--samples", "2", *flags, "--json", str(report)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


# ---------------------------------------------------------------------------
# report determinism
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_for_identical_manifests(tmp_path, pentagon):
    path = write_config(tmp_path, pentagon)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", path, "--samples", "4", "--seed", "11",
            "--timestamp", "2024-01-01T00:00:00Z"]
    assert main(argv + ["--json", str(first)]) == 0
    assert main(argv + ["--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert b"NaN" not in first.read_bytes()


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


def test_sample_report_is_identical_across_blas_thread_counts(tmp_path, mixed_general_m2):
    """Two fresh interpreters, one and two BLAS threads, the same report bytes."""
    path = write_config(tmp_path, mixed_general_m2)
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        report = tmp_path / f"threads{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "momentangle.cli", "sample", path,
                        "--pattern", "0", "--samples", "60",
                        "--timestamp", "2024-01-01T00:00:00Z", "--json", str(report)],
                       env=env, check=True, capture_output=True, timeout=120)
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
