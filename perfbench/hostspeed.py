"""Host-speed gauge: a fixed reference computation timed between commands.

The benchmark runs on shared virtual machines whose speed swings by a factor
of up to 1.8, in phases that last from seconds to many minutes.  CPU time
swings with wall time, so it is contention for the physical core, not
scheduling, and no choice of clock removes it.  A slow phase that outlasts a
whole run cannot be filtered by taking the fastest of repeated passes.

So the run times a small fixed computation (:func:`reference_work`) every
:data:`EVERY_S` seconds, between commands and outside their timed region.
It mixes what the program under test spends its time on: interpreted
Python, small numpy linear algebra, a tiny scipy ``linprog`` and JSON.  It
imports nothing from ``momentangle``, so no change to the program can move
it.  A command's latency is scaled by ``REFERENCE_S / g``, where ``g`` is
the median gauge time around the command (:meth:`Gauge.factor`).  Reported
times are therefore milliseconds at the host speed at which the reference
work takes :data:`REFERENCE_S`, about the usual speed of a 2-vCPU x86-64
virtual machine; the raw times are printed in the run details.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
from scipy.optimize import linprog

#: Seconds the reference work takes at the reference host speed.
REFERENCE_S = 4.0e-3
#: A gauge sample is taken between commands once this many seconds have passed.
EVERY_S = 0.25
#: Gauge samples within this many seconds of a command's start or end count for it.
WINDOW_S = 1.5
#: A command is scaled by at least this many gauge samples, the nearest if the window holds fewer.
MIN_SAMPLES = 5

_RNG = np.random.default_rng(20130513)
_MATRIX = _RNG.normal(size=(12, 12))
_POINTS = _RNG.normal(size=(2, 9))
_DOC = {"points": _RNG.normal(size=(20, 4)).tolist(), "label": "reference", "ok": True}


def reference_work() -> float:
    """One fixed unit of mixed Python, numpy, scipy and JSON work; returns a checksum."""
    total = 0
    table = {}
    for i in range(1500):
        total += (i * i) % 7
        table[i % 97] = table.get(i % 97, 0) + i
    a = _MATRIX
    for _ in range(6):
        a = a @ _MATRIX / 12.0
        np.linalg.svd(a, compute_uv=False)
        np.linalg.solve(_MATRIX, a[:, 0])
    lp = linprog(np.zeros(9), A_eq=np.vstack([_POINTS, np.ones(9)]), b_eq=[0.0, 0.0, 1.0],
                 bounds=(0, None), method="highs")
    text = json.dumps(_DOC, sort_keys=True)
    return total + len(table) + float(np.abs(a).sum()) + lp.status + len(json.loads(text))


class Gauge:
    """Timeline of gauge samples ``(time at the middle, seconds taken)``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> float:
        """Time the reference work once it is warm: a command has just evicted it from cache."""
        reference_work()
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.samples.append((0.5 * (start + end), end - start))
        return end - start

    def maybe_sample(self) -> None:
        """Take a sample if the last is :data:`EVERY_S` or more seconds old."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def block(self, count: int = MIN_SAMPLES) -> None:
        for _ in range(count):
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median gauge time around ``[start, end]``."""
        near = [g for t, g in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            near = [g for _, g in nearest]
        return REFERENCE_S / statistics.median(near)

    def summary_ms(self) -> dict:
        times = sorted(1e3 * g for _, g in self.samples)
        return {"samples": len(times), "min": times[0], "median": statistics.median(times),
                "max": times[-1]}
