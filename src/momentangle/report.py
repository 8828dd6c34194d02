"""Reproducible verification reports: canonical JSON and run manifests.

Reports must be byte-identical across runs with the same inputs, so the JSON
writer here is deliberately manual: keys sorted, compact separators, floats
always rendered with 17 significant digits (enough to round-trip IEEE
doubles), no locale or whitespace variation.  A report is made of JSON's
types only: dict, list (or tuple), str, int, float, bool and None, each of
exactly that type.  Producers convert NumPy values with ``.tolist()``,
``float(...)`` or ``int(...)``; anything else raises ``TypeError``.

:func:`canonical_json` walks the document once and writes a ``%`` template:
each float becomes a ``%.17g`` placeholder and goes into a list, and a ``%``
in a string or key is written ``%%``.  One ``%`` then formats every float of
the report.  Before it, the floats are checked: a nan or inf raises
``ValueError`` (:func:`format_float`'s), and every -0.0 becomes 0.  A bad
key or any other type raises ``TypeError`` where the walk meets it, after
a nan or inf met before it: the error, and its message, are those of one
plain recursion that formats each float where it stands.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache


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
    template: list[str] = []
    floats: list[float] = []
    try:
        _write(obj, template, floats)
    except (TypeError, ValueError):
        _check_finite(floats)  # a nan or inf the walk met first raises instead
        raise
    _check_finite(floats)
    if 0.0 in floats:  # -0.0 == 0.0 too; adding 0.0 changes no other float's bits
        floats = [value + 0.0 for value in floats]
    return "".join(template) % tuple(floats)


def _check_finite(floats: list[float]) -> None:
    """Raise :func:`format_float`'s ``ValueError`` at the first nan or inf of ``floats``."""
    if not math.isfinite(sum(floats)):  # finite terms may overflow the sum: look
        for value in floats:
            if not math.isfinite(value):
                raise ValueError(f"non-finite value in report: {value}")


_FLOAT = "%.17g"


def _write(obj, out: list[str], floats: list[float]) -> None:
    kind = type(obj)
    if kind is float:
        out.append(_FLOAT)
        floats.append(obj)
    elif kind is dict:
        _write_dict(obj, out, floats)
    elif kind is list or kind is tuple:
        _write_list(obj, out, floats)
    elif kind is str:
        out.append(_string(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {kind.__name__} into a report")


def _write_dict(obj: dict, out: list[str], floats: list[float]) -> None:
    out.append("{")
    for key, text in _keys(tuple(obj)):
        out.append(text)
        _write(obj[key], out, floats)
    out.append("}")


@lru_cache(maxsize=1024)
def _keys(keys: tuple) -> tuple[tuple[str, str], ...]:
    """A dict's keys in sorted order, each with its text: comma, key and colon.

    Raises ``TypeError`` at the first key, in sorted order, that is not a
    string; only key sets of strings are cached.
    """
    texts = []
    for i, key in enumerate(sorted(keys)):
        if not isinstance(key, str):
            raise TypeError(f"report keys must be strings, got {key!r}")
        texts.append((key, ("," if i else "") + _string(key) + ":"))
    return tuple(texts)


def _write_list(obj, out: list[str], floats: list[float]) -> None:
    if not obj:
        out.append("[]")
        return
    kinds = set(map(type, obj))
    if kinds == {float}:
        out.append(_floats(len(obj)))
        floats += obj
    elif kinds == {int}:
        out.append("[" + ",".join(map(str, obj)) + "]")
    else:
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out, floats)
        out.append("]")


@lru_cache(maxsize=256)
def _floats(count: int) -> str:
    """The template of a list of ``count`` floats, brackets included."""
    return "[" + ",".join([_FLOAT] * count) + "]"


def _string(text: str) -> str:
    """A string as it appears in the template: JSON, with each ``%`` doubled."""
    return json.dumps(text, ensure_ascii=True).replace("%", "%%")


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Where a report came from: command, configuration, seed, tolerances, timestamp, version.

    It does not record every flag (``--samples``, ``--pattern`` and the like
    are left out), so equal manifests do not imply equal reports; identical
    command lines with a pinned timestamp do.
    """

    command: str
    config_path: str | None
    config_hash: str | None
    seed: int | None
    tolerances: dict
    timestamp: str
    version: str

    def to_dict(self) -> dict:
        return dict(vars(self))


def build_report(manifest: RunManifest, result: dict) -> str:
    """Assemble the canonical JSON report for one command run."""
    return canonical_json({"manifest": manifest.to_dict(), "result": result})
