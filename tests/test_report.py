"""Canonical JSON serialization and run manifests.

The whole point of the report module is byte-level determinism, so these
tests compare exact strings rather than parsed structures.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from momentangle.report import (
    RunManifest,
    build_report,
    canonical_json,
    format_float,
    sha256_hex,
)


# ---------------------------------------------------------------------------
# float formatting
# ---------------------------------------------------------------------------


def test_format_float_round_trips_doubles():
    values = [1.0, -1.5, 0.1, 1e-300, 1e300, math.pi, 2.0 / 3.0, 5e-324]
    for v in values:
        assert float(format_float(v)) == v


def test_format_float_normalizes_negative_zero():
    assert format_float(-0.0) == "0"
    assert format_float(0.0) == "0"


def test_format_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_float(bad)


# ---------------------------------------------------------------------------
# canonical_json
# ---------------------------------------------------------------------------


def test_canonical_json_sorts_keys():
    a = canonical_json({"b": 1, "a": 2})
    b = canonical_json({"a": 2, "b": 1})
    assert a == b == '{"a":2,"b":1}'


def test_canonical_json_is_valid_json():
    obj = {
        "name": "x",
        "values": [1, 2.5, None, True],
        "nested": {"z": [0.1], "a": "text"},
    }
    text = canonical_json(obj)
    assert json.loads(text) == {
        "name": "x",
        "values": [1, 2.5, None, True],
        "nested": {"z": [0.1], "a": "text"},
    }


def test_canonical_json_complex_as_pair():
    assert canonical_json(1.0 + 2.0j) == "[1,2]"
    assert canonical_json(np.complex128(3 - 4j)) == "[3,-4]"


def test_canonical_json_ndarray_as_nested_lists():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert canonical_json(arr) == "[[1,2],[3,4]]"


def test_canonical_json_numpy_scalars():
    assert canonical_json(np.int64(7)) == "7"
    assert canonical_json(np.float64(0.5)) == "0.5"
    assert canonical_json(np.bool_(True)) == "true"


def test_canonical_json_rejects_nan_anywhere():
    with pytest.raises(ValueError):
        canonical_json({"x": [1.0, float("nan")]})
    with pytest.raises(ValueError):
        canonical_json(np.array([np.inf]))


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(TypeError):
        canonical_json({1: "x"})


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json(object())


def test_canonical_json_golden_mixed_list():
    # The bytes the writer produced before its float fast path.
    obj = {"b": [np.float64(0.1), -0.0, 1, True, np.bool_(False), np.int64(3), 1 + 2j,
                 np.arange(2.0)], "a": None}
    assert canonical_json(obj) == '{"a":null,"b":[0.10000000000000001,0,1,true,false,3,[1,2],[0,1]]}'


def test_canonical_json_tuple_matches_list():
    assert canonical_json((1, 2)) == canonical_json([1, 2]) == "[1,2]"


# ---------------------------------------------------------------------------
# hashing and manifests
# ---------------------------------------------------------------------------


def test_sha256_hex_known_value():
    # sha256 of the empty string is a published constant
    assert sha256_hex("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert sha256_hex("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def _manifest() -> RunManifest:
    return RunManifest(
        command="verify",
        config_path="cfg.json",
        config_hash="deadbeef",
        seed=7,
        tolerances={"rank": 1e-8, "angle": 1e-6},
        timestamp="2024-01-01T00:00:00Z",
        version="0.1.0",
    )


def test_build_report_is_deterministic():
    result = {"checks": [{"name": "rank", "passed": True}], "seed": 7}
    first = build_report(_manifest(), result)
    second = build_report(_manifest(), dict(result))
    assert first == second
    assert sha256_hex(first) == sha256_hex(second)


def test_build_report_shape():
    text = build_report(_manifest(), {"ok": True})
    parsed = json.loads(text)
    assert set(parsed) == {"manifest", "result"}
    assert parsed["manifest"]["command"] == "verify"
    assert parsed["manifest"]["tolerances"] == {"rank": 1e-8, "angle": 1e-6}
    assert parsed["result"] == {"ok": True}


def test_build_report_sensitive_to_every_field():
    base = build_report(_manifest(), {"ok": True})
    bumped = RunManifest(
        command="verify",
        config_path="cfg.json",
        config_hash="deadbeef",
        seed=8,  # only the seed differs
        tolerances={"rank": 1e-8, "angle": 1e-6},
        timestamp="2024-01-01T00:00:00Z",
        version="0.1.0",
    )
    assert build_report(bumped, {"ok": True}) != base
    assert build_report(_manifest(), {"ok": False}) != base
