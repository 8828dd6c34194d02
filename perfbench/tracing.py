"""Per-layer tracing by wrapping module bindings from outside.

Every span is ``[name, start, end, parent, command id, failed, outermost]``
and is kept in memory until the run ends.  A function is wrapped in every
``momentangle`` module that binds it, because calls inside a module go
through that module's globals; the wrapper is named after the function's
home module.  A few bindings are named after the module that calls through
them instead, so that, for example, scipy's ``linprog`` counts as
``config.lp`` or ``toric.lp`` by the layer that solves the LP.

Nothing in the program changes: :meth:`Tracer.install` swaps module
attributes and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from time import perf_counter

#: (span name, home module, attribute): wrap every binding of the function.
#: Some have no metric of their own; they keep ``cli.self_s`` to CLI glue.
HOME_SPANS = [
    ("config.check_admissible", "config", "check_admissible"),
    ("config.check_mixed_admissible", "config", "check_mixed_admissible"),
    ("config.check_weak_hyperbolicity", "config", "check_weak_hyperbolicity"),
    ("config.hull_distance", "config", "hull_distance"),
    ("config.load_configuration", "config", "load_configuration"),
    ("variety.sample", "variety", "_sample"),
    ("variety.project_to_variety", "variety", "project_to_variety"),
    ("variety.certify", "variety", "certify"),
    ("variety.jacobian_rank", "variety", "jacobian_rank"),
    ("forms.kernel_analysis", "forms", "kernel_analysis"),
    ("forms.kernel_family_angle", "forms", "kernel_family_angle"),
    ("forms.contact_volume", "forms", "contact_volume"),
    ("forms.symplectic_leaf_rank", "forms", "symplectic_leaf_rank"),
    ("forms.leaf_two_form_magnitude", "forms", "leaf_two_form_magnitude"),
    ("forms.orientation_sign", "forms", "orientation_sign"),
    ("toric.gale_transform", "toric", "gale_transform"),
    ("toric.fiber_polytope", "toric", "fiber_polytope"),
    ("toric.star_shaped_check", "toric", "star_shaped_check"),
    ("toric.estimate_c", "toric", "estimate_c"),
    ("toric.moment_image_check", "toric", "moment_image_check"),
    ("actions.fiber_count", "actions", "fiber_count"),
    ("actions.fiber_points", "actions", "fiber_points"),
    ("topology.count_diffeo_types", "topology", "count_diffeo_types"),
    ("topology.normalize_configuration", "topology", "normalize_configuration"),
    ("topology.classify", "topology", "classify"),
    ("report.build_report", "report", "build_report"),
]

#: (span name, module, attribute): wrap this one binding only.
BINDING_SPANS = [
    ("config.lp", "config", "linprog"),
    ("toric.lp", "toric", "linprog"),
    ("forms.pfaffian", "forms", "pfaffian"),
    ("actions.certify", "actions", "certify"),
]

#: Hot functions whose calls are counted without a span.
COUNTED = [
    ("variety.system_jacobian", "variety", "system_jacobian"),
    ("variety.evaluate_system", "variety", "evaluate_system"),
]

#: Numbers taken from a span's return value: span name -> (counter, function).
RESULT_SIZES = {
    "variety.sample": ("variety.sample.points", len),
    "report.build_report": ("report.bytes", len),  # canonical JSON is ASCII
}

#: Per-layer metrics and their units.  Counts, seconds and bytes are totals
#: per traced pass of the command list; the ratios are over the whole run.
PER_LAYER = {
    "config.check_admissible.calls": "count",
    "config.check_admissible.s": "s",
    "config.check_weak_hyperbolicity.self_s": "s",
    "config.hull_distance.calls": "count",
    "config.hull_distance.s": "s",
    "config.lp.calls": "count",
    "config.lp.s": "s",
    "config.lp_per_decision": "lp/decision",
    "variety.sample.calls": "count",
    "variety.sample.s": "s",
    "variety.sample.self_s": "s",
    "variety.sample.attempts": "count",
    "variety.accept_ratio": "points/attempt",
    "variety.project_to_variety.calls": "count",
    "variety.project_to_variety.s": "s",
    "variety.project_to_variety.failures": "count",
    "variety.certify.calls": "count",
    "variety.certify.s": "s",
    "variety.certify.failures": "count",
    "variety.system_jacobian.calls": "count",
    "variety.evaluate_system.calls": "count",
    "forms.kernel_analysis.calls": "count",
    "forms.kernel_analysis.s": "s",
    "forms.kernel_analysis.self_s": "s",
    "forms.pfaffian.calls": "count",
    "forms.pfaffian.s": "s",
    "forms.kernel_family_angle.s": "s",
    "forms.contact_volume.s": "s",
    "forms.symplectic_leaf_rank.s": "s",
    "toric.gale_transform.s": "s",
    "toric.fiber_polytope.calls": "count",
    "toric.fiber_polytope.s": "s",
    "toric.fiber_polytope.self_s": "s",
    "toric.star_shaped_check.s": "s",
    "toric.estimate_c.s": "s",
    "toric.moment_image_check.s": "s",
    "toric.lp.calls": "count",
    "toric.lp.s": "s",
    "actions.fiber_count.calls": "count",
    "actions.fiber_count.s": "s",
    "actions.fiber_points.calls": "count",
    "actions.fiber_points.s": "s",
    "actions.certify.calls": "count",
    "topology.count_diffeo_types.s": "s",
    "topology.normalize_configuration.s": "s",
    "topology.classify.s": "s",
    "report.build_report.calls": "count",
    "report.build_report.s": "s",
    "report.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
PER_PASS_UNITS = ("count", "s", "bytes")

NAME, START, END, PARENT, COMMAND, FAILED, OUTER = range(7)


PACKAGE = "momentangle"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._command: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def _modules(self) -> list:
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every listed binding; record names that no longer exist."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = self._modules()
        by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
        # Single bindings first, so the home pass below no longer sees them.
        for name, module, attr in BINDING_SPANS:
            mod = by_name.get(module)
            if mod is None or not callable(getattr(mod, attr, None)):
                self.absent.append(name)
                continue
            self._patch(mod, attr, self._span_wrapper(name, getattr(mod, attr)))
        for table, make in ((HOME_SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, module, attr in table:
                home = by_name.get(module)
                target = getattr(home, attr, None) if home is not None else None
                if not callable(target):
                    self.absent.append(name)
                    continue
                wrapper = make(name, target)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._command, False,
                           self._active[name] == 0])
        self._stack.append(index)
        self._active[name] += 1
        return index

    def _close(self, index: int, failed: bool) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        span[FAILED] = failed
        self._stack.pop()
        self._active[span[NAME]] -= 1

    def _span_wrapper(self, name: str, fn):
        size = RESULT_SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._close(index, failed)
            if size is not None:
                self.counts[size[0]] += size[1](result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def command(self, command_id: str, root: str):
        """The root span of one operation."""
        self._command = command_id
        index = self._open(root)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(index, failed)
            self._command = None

    def write(self, path) -> None:
        """Write every span, one JSON list per line, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "command",
                                            "failed"],
                                 "absent": self.absent, "counts": dict(self.counts)}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span[:OUTER]))
                fh.write("\n")


def summarize(tracer: Tracer) -> dict[str, float]:
    """Totals by span name: ``calls``, ``s``, ``self_s``, ``failures``, plus derived stats.

    ``s`` sums only outermost spans of a name, so recursion is not counted
    twice; ``self_s`` is a span's duration minus that of its direct children.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    stats: Counter = Counter()
    for i, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += duration - child_time[i]
        stats[f"{name}.failures"] += span[FAILED]
        if span[OUTER]:
            stats[f"{name}.s"] += duration
    stats.update(tracer.counts)

    decisions = stats["config.check_admissible.calls"]
    lp_in_decisions = sum(1 for span in spans
                          if span[NAME] == "config.lp" and _has_ancestor(
                              spans, span, "config.check_admissible"))
    stats["config.lp_per_decision"] = lp_in_decisions / decisions if decisions else 0.0

    attempts = sum(1 for span in spans
                   if span[NAME] == "variety.project_to_variety" and span[PARENT] >= 0
                   and spans[span[PARENT]][NAME] == "variety.sample")
    stats["variety.sample.attempts"] = attempts
    stats["variety.accept_ratio"] = (stats["variety.sample.points"] / attempts
                                     if attempts else 0.0)
    return dict(stats)


def _has_ancestor(spans, span, name: str) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
