"""Correctness of every operation's output, checked outside the timed region.

Verdicts are compared with the slow, independent oracles in
``tests/_oracles.py``; everything else is recomputed here from the inputs.
Oracle answers are cached per operation, since every pass of a run repeats
the same inputs.
"""

from __future__ import annotations

import importlib.util
import os
from itertools import combinations
from pathlib import Path

import numpy as np

from workloads import Op, Workload, lambdas_of, realified

#: Vertex feasibility tolerance of the Gale check (the library's own).
FEASIBILITY_TOL = 1e-9
#: Rounding allowance when recomputing a residual the program reported.
RECOMPUTE_SLACK = 1e-14


def load_oracles(root: Path):
    path = root / "tests" / "_oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def link_residuals(data: dict, coords: np.ndarray) -> np.ndarray:
    """Infinity norm of the link equations at each row of ``coords``."""
    lam = lambdas_of(data)
    w_count = {"classical": 0, "mixed-m1": data.get("s"), "mixed-general": lam.shape[1]}
    values = coords[:, 0::2] + 1j * coords[:, 1::2]
    w, z = values[:, :w_count[data["kind"]]], values[:, w_count[data["kind"]]:]
    quad = (np.abs(z) ** 2) @ lam
    if data["kind"] == "mixed-m1":
        quad = quad + np.sum(w**2, axis=1, keepdims=True)
    elif data["kind"] == "mixed-general":
        quad = quad + w**2
    sphere = np.sum(np.abs(values) ** 2, axis=1) - 1.0
    parts = np.abs(np.concatenate([quad.real, quad.imag, sphere[:, None]], axis=1))
    return parts.max(axis=1)


class Checker:
    def __init__(self, workload: Workload, oracles):
        self.workload = workload
        self.oracles = oracles
        self._cache: dict[str, object] = {}

    def check(self, op: Op, rc: int | None, report: dict | None, value) -> str | None:
        """None when the output is correct, else the reason it is not."""
        if op.api is not None:
            return getattr(self, f"_api_{op.api}")(op, value)
        if report is None:
            return f"exit {rc} and no report written"
        return getattr(self, f"_cli_{op.argv[0]}")(op, rc, report["result"])

    def _config(self, op: Op) -> dict:
        path = op.argv[1] if op.argv is not None else op.params["path"]
        return self.workload.files[os.path.basename(path)]

    def _oracle(self, op: Op, compute):
        if op.id not in self._cache:
            self._cache[op.id] = compute()
        return self._cache[op.id]

    # -- CLI commands ------------------------------------------------------

    def _cli_check(self, op: Op, rc, res) -> str | None:
        data = self._config(op)
        lam, m = lambdas_of(data), data["m"]
        design = op.expect["design"]
        if data["kind"] != "classical" and m > 1:
            failing = self._oracle(op, lambda: [
                list(K) for size in range(1, m + 1) for K in combinations(range(m), size)
                if not all(self.oracles.admissible_brute(realified(lam[:, list(K)]), len(K)))])
            if sorted(res["failing_subsets"]) != sorted(failing):
                return f"failing subsets {res['failing_subsets']}, oracle {failing}"
            expected_rc = 1 if failing else 0
        elif res["degenerate"]:
            # Inside the tie band the verdict is undefined (criterion 1's rule).
            expected_rc = 1
        else:
            siegel, weak = self._oracle(
                op, lambda: self.oracles.admissible_brute(realified(lam), m))
            if (res["siegel"], res["weak_hyperbolicity"]) != (siegel, weak):
                return (f"verdict siegel={res['siegel']} weak={res['weak_hyperbolicity']}, "
                        f"oracle siegel={siegel} weak={weak}")
            if design == "violator" and weak:
                return "planted violator passes weak hyperbolicity"
            subset = res["violating_subset"]
            if subset is not None and not self.oracles.origin_in_hull_brute(
                    realified(lam)[subset]):
                return f"reported violating subset {subset} does not hold the origin"
            expected_rc = 0 if siegel and weak else 1
        return None if rc == expected_rc else f"exit {rc}, expected {expected_rc}"

    def _cli_classify(self, op: Op, rc, res) -> str | None:
        n = self._config(op)["n"]
        dim = 2 * n + 2 * res["s"] - 3
        if rc != 0:
            return f"exit {rc}"
        if res["normalized_weights"] != op.expect["weights"]:
            return f"weights {res['normalized_weights']}, built {op.expect['weights']}"
        if res["manifold_dimension"] != dim or any(p + q != dim for p, q in res["summands"]):
            return f"dimension {res['manifold_dimension']} or summands {res['summands']} != {dim}"
        return None

    def _cli_verify(self, op: Op, rc, res) -> str | None:
        if rc != 0 or not res["all_passed"]:
            failed = [k for k, v in res["checks"].items() if v["passed"] != v["total"]]
            return f"exit {rc}, failed checks {failed}"
        return None

    def _cli_sample(self, op: Op, rc, res) -> str | None:
        data = self._config(op)
        count, tol = op.expect["count"], op.expect["tol"]
        points = res["points"]
        if rc != 0 or res["count"] != count or len(points) != count:
            return f"exit {rc}, {len(points)} points of {count}"
        if res["worst_residual"] > tol or any(p["residual"] > tol for p in points):
            return f"worst residual {res['worst_residual']} above {tol}"
        coords = np.array([p["coordinates"] for p in points])
        worst = float(link_residuals(data, coords).max())
        if worst > tol + RECOMPUTE_SLACK:
            return f"recomputed residual {worst} above {tol}"
        if "--pattern" in op.argv:
            pinned = {int(k) for k in op.argv[op.argv.index("--pattern") + 1].split(",")}
            if any(not pinned <= set(p["zero_pattern"]) for p in points):
                return f"points off the stratum w{sorted(pinned)} = 0"
        if "--null-stratum" in op.argv:
            s = data["s"]
            w = coords[:, 0:2 * s:2] + 1j * coords[:, 1:2 * s:2]
            null = np.sum(w**2, axis=1)
            if float(np.max(np.maximum(abs(null.real), abs(null.imag)))) > tol + RECOMPUTE_SLACK:
                return "points off the null quadric"
        return None

    def _cli_gale(self, op: Op, rc, res) -> str | None:
        data = self._config(op)
        n, m = data["n"], data["m"]
        if rc != 0 or res["dim"] != n - 2 * m - 1 or res["expected_dim"] != n - 2 * m - 1:
            return f"exit {rc}, dimension {res['dim']}, expected {n - 2 * m - 1}"
        vertices = np.array(res["vertices"] or [], dtype=float)
        if vertices.size == 0:
            return "no vertices"
        lam = lambdas_of(data)
        rows = np.vstack([lam.real.T, lam.imag.T, np.ones((1, n))])
        rhs = np.concatenate([np.zeros(2 * m), [1.0]])
        if (vertices.min() < -FEASIBILITY_TOL
                or np.abs(vertices @ rows.T - rhs).max() > FEASIBILITY_TOL):
            return "infeasible vertex"
        return None

    def _cli_cover(self, op: Op, rc, res) -> str | None:
        m = op.expect["m"]
        if rc != 0 or not res["all_passed"]:
            return f"exit {rc}, all_passed {res['all_passed']}"
        for row in res["fibers"]:
            if row["count"] != row["constructed"] or not (row["near_branch"]
                                                          or row["count"] == 2**m):
                return f"fiber count {row['count']}, constructed {row['constructed']}"
        return None

    def _cli_count(self, op: Op, rc, res) -> str | None:
        rotation = self.oracles.necklace_total(op.expect["n"])
        if rc != 0:
            return f"exit {rc}"
        if op.expect["equivalence"] == "rotation":
            ok = res["count"] == rotation
        else:  # each reflection class joins at most two rotation classes
            ok = -(-rotation // 2) <= res["count"] <= rotation
        return None if ok else f"count {res['count']}, necklaces {rotation}"

    # -- library calls -----------------------------------------------------

    def _c_exact(self, op: Op) -> float:
        return self.oracles.c_exact(lambdas_of(self._config(op)))

    def _api_star(self, op: Op, report) -> str | None:
        return None if report.passed else f"violations {report.violations[:3]}"

    def _api_estimate_c(self, op: Op, estimate) -> str | None:
        exact = self._c_exact(op)
        if exact - 1e-9 <= estimate.value < 1.0:
            return None
        return f"estimate {estimate.value} outside [{exact} - 1e-9, 1)"

    def _api_moment(self, op: Op, reports) -> str | None:
        if len(reports) != op.params["count"]:
            return f"{len(reports)} reports"
        bad = [i for i, r in enumerate(reports)
               if not (r.in_orbit_polytope and r.hull_member and r.w_bound_ok)]
        return f"points {bad} fail moment-image membership" if bad else None
