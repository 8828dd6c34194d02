"""Reproducible verification reports: canonical JSON and run manifests.

Reports must be byte-identical across runs with the same inputs, so the JSON
writer here is deliberately manual: keys sorted, compact separators, floats
always rendered with 17 significant digits (enough to round-trip IEEE
doubles), no locale or whitespace variation.  Complex numbers serialize as
[re, im] pairs, matching the configuration schema.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value in report: {value}")
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format(value, ".17g")


def canonical_json(obj) -> str:
    """Serialize to deterministic JSON (sorted keys, pinned float format)."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list[str]) -> None:
    # The exact types a report is made of first, then every type by isinstance.
    kind = type(obj)
    if kind is float:
        out.append(format_float(obj))
    elif kind is dict:
        _write_dict(obj, out)
    elif kind is list or kind is tuple:
        _write_list(obj, out)
    elif kind is str:
        out.append(json.dumps(obj, ensure_ascii=True))
    elif kind is int:
        out.append(str(obj))
    else:
        _write_other(obj, out)


def _write_other(obj, out: list[str]) -> None:
    # No two branches match one value.
    if isinstance(obj, float):  # np.float64 is a float too
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        _write_dict(obj, out)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, np.floating):
        out.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.append(f"[{format_float(obj.real)},{format_float(obj.imag)}]")
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _write_dict(obj: dict, out: list[str]) -> None:
    out.append("{")
    for i, key in enumerate(sorted(obj)):
        if not isinstance(key, str):
            raise TypeError(f"report keys must be strings, got {key!r}")
        out.append(_key(key) if i == 0 else "," + _key(key))
        _write(obj[key], out)
    out.append("}")


#: The float types whose lists take the one-``%`` path of :func:`_write_list`.
_FLOAT_TYPES = frozenset({float, np.float64})


def _write_list(obj, out: list[str]) -> None:
    if obj and _FLOAT_TYPES.issuperset(map(type, obj)):
        text = _floats(len(obj)) % tuple(obj)
        # nan and inf hold an "n", and a "-0" token is -0.0: format_float
        # raises on the first and normalizes the second.
        if "n" in text or "-0," in text + ",":
            text = ",".join(map(format_float, obj))
        out.append("[" + text + "]")
    else:
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")


@lru_cache(maxsize=256)
def _floats(count: int) -> str:
    """The ``%`` template of ``count`` floats in the report's format, comma-separated."""
    return ",".join(["%.17g"] * count)


@lru_cache(maxsize=4096)
def _key(key: str) -> str:
    """A dict key as it appears in the report, with its colon."""
    return json.dumps(key, ensure_ascii=True) + ":"


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a report byte for byte."""

    command: str
    config_path: str | None
    config_hash: str | None
    seed: int | None
    tolerances: dict
    timestamp: str
    version: str

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config_path": self.config_path,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "timestamp": self.timestamp,
            "version": self.version,
        }


def build_report(manifest: RunManifest, result: dict) -> str:
    """Assemble the canonical JSON report for one command run."""
    return canonical_json({"manifest": manifest.to_dict(), "result": result})
