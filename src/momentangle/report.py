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
    if isinstance(obj, float):  # the common case; np.float64 is a float too
        out.append(format_float(obj))
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
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        if obj and all(isinstance(item, float) for item in obj):
            out.append("[" + ",".join(map(format_float, obj)) + "]")
        else:
            out.append("[")
            for i, item in enumerate(obj):
                if i:
                    out.append(",")
                _write(item, out)
            out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


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
