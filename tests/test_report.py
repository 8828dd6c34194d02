"""Canonical JSON serialization and run manifests.

The whole point of the report module is byte-level determinism, so these
tests compare exact strings rather than parsed structures.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.report import (
    RunManifest,
    build_report,
    canonical_json,
    format_float,
    sha256_hex,
)

from _oracles import canonical_json_reference


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


def test_canonical_json_rejects_nan_anywhere():
    with pytest.raises(ValueError):
        canonical_json({"x": [1.0, float("nan")]})
    with pytest.raises(ValueError):
        canonical_json([math.inf])


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(TypeError):
        canonical_json({1: "x"})


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json(object())


@pytest.mark.parametrize("value", [np.float64(0.5), np.int64(7), np.bool_(True), 1 + 2j,
                                   np.arange(2.0)], ids=repr)
def test_canonical_json_takes_json_types_only(value):
    """Producers convert NumPy values with tolist(), float() or int(); the writer does not."""
    name = type(value).__name__
    for obj in (value, [value], [0.5, value], {"a": value}):
        with pytest.raises(TypeError, match=f"cannot serialize {name} into a report"):
            canonical_json(obj)


def test_canonical_json_golden_mixed_list():
    # The bytes the writer produced before its float fast path.
    obj = {"b": [0.1, -0.0, 1, True, False, 3, [1.0, 2.0], [0.0, 1.0]], "a": None}
    assert canonical_json(obj) == '{"a":null,"b":[0.10000000000000001,0,1,true,false,3,[1,2],[0,1]]}'


def test_canonical_json_tuple_matches_list():
    assert canonical_json((1, 2)) == canonical_json([1, 2]) == "[1,2]"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 1e-5, -1e-5, 0.5, -0.5, 1e16, 1e17]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
BAD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf])
#: Zeros of both signs and subnormals, as pinned sample coordinates hold them.
TINY_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
                        st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307))
#: Strings with the ``%`` the writer's template doubles.
TEXT = st.one_of(st.text(max_size=4), st.text(alphabet="%s.17g-0", max_size=6))
#: Lists of ints mixed with bools, beside all-int lists.
INT_LISTS = st.lists(st.one_of(st.integers(), st.booleans()), max_size=6)


def _records(floats):
    """Lists of dicts with one key set, a float list, a float and an int list, like sample points."""
    floats = st.one_of(floats, TINY_FLOATS)
    return st.lists(st.fixed_dictionaries({
        "coordinates": st.lists(floats, min_size=1, max_size=14),
        "residual": floats,
        "zero_pattern": st.lists(st.integers(0, 70), max_size=3),
    }), max_size=4)


def _leaves(floats):
    return st.one_of(
        st.none(), st.booleans(), st.integers(), TEXT, floats,
        st.lists(floats, max_size=6),
        st.lists(floats, min_size=7, max_size=40),  # the lengths of sampled coordinates
        st.lists(st.one_of(floats, st.just(-0.0)), max_size=40),
        st.lists(st.lists(floats, min_size=2, max_size=2), max_size=3),
        st.lists(st.integers(), max_size=6), INT_LISTS, _records(floats),
    )


def _documents(leaves, keys=TEXT):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4)), max_leaves=20)


def _outcome(writer, obj):
    """The text a writer produces, or the type and message of what it raises."""
    try:
        return writer(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(_documents(_leaves(FLOATS)))
@settings(max_examples=200, deadline=None)
def test_canonical_json_matches_the_plain_recursion(obj):
    assert canonical_json(obj) == canonical_json_reference(obj)


#: A nan or inf, then a dict whose keys are not strings, or the other way round.
_NAN_THEN_BAD_KEY = st.tuples(BAD_FLOATS, st.dictionaries(st.integers(0, 3), FLOATS, min_size=1))


@given(_documents(_leaves(st.one_of(FLOATS, BAD_FLOATS)) | st.builds(object),
                  st.one_of(TEXT, st.integers(0, 3), st.none()))
       | _NAN_THEN_BAD_KEY.map(list) | _NAN_THEN_BAD_KEY.map(lambda pair: [pair[1], pair[0]])
       | _NAN_THEN_BAD_KEY.map(lambda pair: {"a": pair[0], "b": pair[1]}))
@settings(max_examples=200, deadline=None)
def test_canonical_json_raises_as_the_plain_recursion(obj):
    """nan/inf, non-string keys and unknown types: the same error, the same message."""
    assert _outcome(canonical_json, obj) == _outcome(canonical_json_reference, obj)


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
