"""Moment maps and orbit-space polytopes of the mixed links.

For a mixed-general link the torus-invariant data of a point X = (w, z) is

    moment_map(X)     = (w_1, ..., w_m)
    big_moment_map(X) = (w_1, ..., w_m, |z_1|^2, ..., |z_n|^2) =: (w, t)

and the image is cut out by the defining equations rewritten in (w, t):

    t >= 0,   sum_j t_j lambda_j^k = -w_k^2  (k = 1..m),   sum_j t_j = 1 - |w|^2.

Fixing w gives the *fiber polytope* P_w; at w = 0 this is the Gale-transform
polytope P-hat = {t >= 0, sum t_j c lambda_j = 0, sum t_j = 1} (the constraint
is invariant under the positive scaling c).  For admissible configurations
both have affine dimension n - 2m - 1.

Polytopes are stored in H-representation with the convention

    equalities:    a . x  = b
    inequalities:  a . x >= b

plus an optional V-representation (vertices enumerated as basic feasible
solutions, for ambient dimension <= 8).  The affine dimension is computed
from the support: coordinates that can be strictly positive somewhere on the
polytope; on that face only the equalities bind, so

    dim = |support| - rank(equality columns on the support).

The support comes from an interior-margin LP and, when the margin does not
clear ``tol``, one maximization per coordinate, all by :func:`.config._solve_lp`.
The moment-image check solves no LP: a point's own t is its hull witness.
The star check solves one, for a point of the Gale polytope, and
c = inf sum |z_j|^2 has a closed form (:func:`estimate_c`).

The sign convention sum t_j lambda_j = -w^2 is the one the defining equations
w^2 + F(z) = 0 actually induce; the big-moment-map residual test pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import (
    Configuration,
    _is_int,
    _solve_lp,
    check_admissible,
    check_mixed_admissible,
    numerical_rank,
    realify,
    witness_distance,
)
from .errors import NumericalError, StructuralError
from .variety import VarietyPoint, certify, sample_points

FEASIBILITY_TOL = 1e-9
VERTEX_ENUMERATION_MAX_DIM = 8


@dataclass(frozen=True, eq=False)
class PolytopeDescription:
    """H-representation (and small-instance V-representation) of a polytope.

    ``equalities`` are pairs (a, b) meaning a . x = b; ``inequalities`` mean
    a . x >= b.  ``vertices`` is an array with one vertex per row, or None
    when enumeration was skipped; ``dim`` is the affine dimension, -1 for an
    empty polytope.
    """

    ambient_dim: int
    equalities: tuple[tuple[np.ndarray, float], ...]
    inequalities: tuple[tuple[np.ndarray, float], ...]
    vertices: np.ndarray | None
    dim: int

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise StructuralError(f"expected a vector of length {self.ambient_dim}")
        eq_ok = all(abs(float(a @ x) - b) <= tol for a, b in self.equalities)
        ub_ok = all(float(a @ x) >= b - tol for a, b in self.inequalities)
        return eq_ok and ub_ok

    @property
    def is_empty(self) -> bool:
        return self.dim < 0

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "equalities": [
                {"a": [float(v) for v in a], "b": float(b)} for a, b in self.equalities
            ],
            "inequalities": [
                {"a": [float(v) for v in a], "b": float(b)} for a, b in self.inequalities
            ],
            "vertices": None
            if self.vertices is None
            else [[float(v) for v in row] for row in self.vertices],
        }


@dataclass(frozen=True)
class MomentImageReport:
    """Per-point verification of the orbit-space membership facts.

    ``constraint_residual`` is the worst violation of the (w, t) system
    above; ``hull_member`` checks, by :func:`.config.witness_distance` and no
    LP, that -w^2 / sum(t) is the convex combination of the lambda_j with
    weights t / sum(t), so it fails off the link even where -w^2 / sum(t) lies
    in the hull; ``w_bound_ok`` checks |w|^2 <= 1 - c for a supplied estimate
    of c = inf sum |z_j|^2 (None when no estimate given).
    """

    constraint_residual: float
    in_orbit_polytope: bool
    hull_member: bool
    w_bound_ok: bool | None


@dataclass(frozen=True)
class CEstimate:
    """c = inf sum |z_j|^2 over the link, a certified point attaining it, and the cross-check size."""

    value: float
    minimizer: VarietyPoint
    samples_used: int


@dataclass(frozen=True)
class StarShapedReport:
    """Outcome of the radial grid check on moment images; violations are empty fibers."""

    rays_checked: int
    steps_per_ray: int
    violations: tuple[tuple[int, float], ...]  # (ray index, radial factor)

    @property
    def passed(self) -> bool:
        return not self.violations


def _equality_rows(lambdas: np.ndarray, rhs: np.ndarray, total: float):
    """Rows (Re/Im of each quadric, then the simplex row) and right-hand sides."""
    A = np.vstack([realify(lambdas).T, np.ones(lambdas.shape[0])])
    return A, np.append(realify(rhs), total)


def _interior_margin(A: np.ndarray, b: np.ndarray) -> float | None:
    """max delta with t_j >= delta on {t >= 0, At = b}; None when the set is empty."""
    n = A.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    A_eq = np.hstack([A, np.zeros((A.shape[0], 1))])
    x = _solve_lp(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=b,
                  bounds=[(0, None)] * n + [(None, None)])
    return None if x is None else float(x[-1])


def _support(A: np.ndarray, b: np.ndarray, tol: float) -> list[int] | None:
    """Coordinates that are positive somewhere on {t >= 0, At = b}, or None
    when it is empty: all n when :func:`_interior_margin` exceeds ``tol``,
    otherwise from n per-coordinate maximizations."""
    n = A.shape[1]
    margin = _interior_margin(A, b)
    if margin is None:
        return None
    if margin > tol:
        return list(range(n))

    support = []
    for j in range(n):
        c = np.zeros(n)
        c[j] = -1.0
        x = _solve_lp(c, A_eq=A, b_eq=b)
        if x is None:
            return None
        if x[j] > tol:
            support.append(j)
    return support


def _enumerate_vertices(A: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """All basic feasible solutions of {t >= 0, At = b}, deduplicated/sorted."""
    n = A.shape[1]
    r = numerical_rank(np.linalg.svd(A, compute_uv=False))
    found: list[np.ndarray] = []
    for cols in combinations(range(n), r):
        sub = A[:, cols]
        if numerical_rank(np.linalg.svd(sub, compute_uv=False)) < r:
            continue
        sol, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.min(sol, initial=0.0) < -1e-11:
            continue
        t = np.zeros(n)
        t[list(cols)] = np.clip(sol, 0.0, None)
        if np.linalg.norm(A @ t - b, np.inf) > tol:
            continue
        if not any(np.linalg.norm(t - u, np.inf) < 1e-7 for u in found):
            found.append(t)
    found.sort(key=tuple)
    return np.array(found) if found else np.zeros((0, n))


def _build_polytope(A: np.ndarray, b: np.ndarray,
                    tol: float = FEASIBILITY_TOL) -> PolytopeDescription:
    n = A.shape[1]
    equalities = tuple((A[i].copy(), float(b[i])) for i in range(A.shape[0]))
    inequalities = tuple((np.eye(n)[j], 0.0) for j in range(n))
    support = _support(A, b, tol)
    if support is None:
        return PolytopeDescription(n, equalities, inequalities,
                                   vertices=np.zeros((0, n)), dim=-1)
    dim = len(support) - int(numerical_rank(np.linalg.svd(A[:, support], compute_uv=False)))
    vertices = _enumerate_vertices(A, b, tol) if n <= VERTEX_ENUMERATION_MAX_DIM else None
    return PolytopeDescription(n, equalities, inequalities, vertices=vertices, dim=dim)


def gale_transform(cfg: Configuration, c: float = 1.0,
                   tol: float = FEASIBILITY_TOL) -> PolytopeDescription:
    """The polytope {t >= 0, sum_j t_j c lambda_j = 0, sum t_j = 1}.

    Requires an admissible configuration; its affine dimension is then
    n - 2m - 1.  The scaling c > 0 is mathematically irrelevant (the
    homogeneous constraint absorbs it) and kept only to match the usual
    presentation.
    """
    if not np.isreal(c) or not c > 0:
        raise StructuralError("c must be a positive real")
    report = check_admissible(cfg, tol)
    if not report.admissible:
        raise StructuralError(
            "gale_transform needs an admissible configuration "
            f"(siegel={report.siegel}, weak_hyperbolicity={report.weak_hyperbolicity}, "
            f"violating_subset={report.violating_subset})"
        )
    A, b = _equality_rows(float(c) * cfg.lambdas, np.zeros(cfg.m, dtype=complex), 1.0)
    poly = _build_polytope(A, b, tol)
    if poly.is_empty:
        raise NumericalError("Gale polytope empty for an admissible configuration "
                             "(internal inconsistency)")
    return poly


def fiber_polytope(cfg: Configuration, w,
                   tol: float = FEASIBILITY_TOL) -> PolytopeDescription:
    """The fiber {t >= 0, sum t_j lambda_j = -w^2, sum t_j = 1 - |w|^2}.

    ``w`` is the complex m-vector of a moment-map value; |w|^2 < 1 required.
    May legitimately be empty (w outside the moment image).
    """
    return _build_polytope(*_fiber_rows(cfg, w), tol)


def _fiber_rows(cfg: Configuration, w):
    """Equality rows and right-hand sides of the fiber polytope at w."""
    if cfg.kind != "mixed-general":
        raise StructuralError("fiber polytopes are defined for mixed-general links")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if w.shape != (cfg.m,):
        raise StructuralError(f"w must have {cfg.m} complex components")
    wsq = float(np.sum(np.abs(w) ** 2))
    if wsq >= 1.0:
        raise StructuralError("|w|^2 < 1 is required")
    return _equality_rows(cfg.lambdas, -(w**2), 1.0 - wsq)


def moment_map(cfg: Configuration, point: VarietyPoint) -> np.ndarray:
    """The w block of a mixed-general point, as a complex m-vector."""
    if cfg.kind != "mixed-general":
        raise StructuralError("the moment map is defined for mixed-general links")
    return point.w_block(cfg)


def big_moment_map(cfg: Configuration, point: VarietyPoint) -> tuple[np.ndarray, np.ndarray]:
    """(w, t) with t_j = |z_j|^2 — the full torus-invariant data of a point."""
    return moment_map(cfg, point), np.abs(point.z_block(cfg)) ** 2


def moment_image_check(
    cfg: Configuration,
    point: VarietyPoint,
    c_estimate: float | None = None,
    tol: float = FEASIBILITY_TOL,
) -> MomentImageReport:
    """Verify the orbit-space membership facts for one certified point.

    Checks (i) the (w, t) image satisfies the defining constraints of the
    orbit polytope, (ii) the normalized quadric vector -w^2 / sum(t) lies in
    the convex hull of the lambda_j, with t / sum(t) as the witness weights
    (no LP), and (iii) optionally |w|^2 <= 1 - c.
    (The w block itself need not lie in the hull of the c-scaled lambda_j;
    the hull fact that actually holds is (ii).)
    """
    w, t = big_moment_map(cfg, point)
    wsq = float(np.sum(np.abs(w) ** 2))
    quad = cfg.lambdas.T @ t + w**2
    residual = max(float(np.max(np.abs(quad))), abs(wsq + float(np.sum(t)) - 1.0))  # t >= 0
    target = -(w**2) / float(np.sum(t))
    hull_member = witness_distance(realify(cfg.lambdas - target), t) <= tol
    w_bound_ok = None if c_estimate is None else wsq <= 1.0 - c_estimate + tol
    return MomentImageReport(
        constraint_residual=residual,
        in_orbit_polytope=residual <= tol,
        hull_member=hull_member,
        w_bound_ok=w_bound_ok,
    )


def estimate_c(cfg: Configuration, samples: int = 200, seed: int = 0) -> CEstimate:
    """c = inf sum |z_j|^2 over the link, in closed form, with a certified minimizer.

    With L = max_j sum_k |lambda_j^k|, every point of the link has
    |w|^2 = sum_k |sum_j t_j lambda_j^k| <= L sum t and |w|^2 + sum t = 1, so
    sum t >= c = 1 / (1 + L).  The coordinate point z = sqrt(c) e_j,
    w_k = sqrt(-c lambda_j^k) at a maximizing j attains it and is certified.
    ``samples`` certified samples cross-check the bound: one with
    sum |z|^2 < c - FEASIBILITY_TOL raises :class:`NumericalError`.
    """
    if cfg.kind != "mixed-general":
        raise StructuralError("estimate_c is defined for mixed-general links")
    mixed = check_mixed_admissible(cfg)
    if not mixed.admissible:
        raise StructuralError(f"configuration not mixed-admissible: {mixed.failing}")

    row_sums = np.sum(np.abs(cfg.lambdas), axis=1)
    j = int(np.argmax(row_sums))
    value = 1.0 / (1.0 + float(row_sums[j]))
    coords = np.zeros(cfg.ambient_real_dim)
    coords[: 2 * cfg.w_count] = realify(np.sqrt(-value * cfg.lambdas[j]))
    coords[2 * (cfg.w_count + j)] = np.sqrt(value)
    minimizer = certify(cfg, coords)

    pts = sample_points(cfg, samples, seed=seed)
    lowest = min((float(np.sum(np.abs(p.z_block(cfg)) ** 2)) for p in pts), default=value)
    if lowest < value - FEASIBILITY_TOL:
        raise NumericalError(f"a sampled point has sum |z|^2 = {lowest:.12g} "
                             f"below the closed-form c = {value:.12g}")
    return CEstimate(value=value, minimizer=minimizer, samples_used=len(pts))


def _fiber_witness(A: np.ndarray, b: np.ndarray, t: np.ndarray) -> bool:
    """Whether At = b holds to within FEASIBILITY_TOL; callers pass a t >= 0."""
    return float(np.max(np.abs(A @ t - b))) <= FEASIBILITY_TOL


def star_shaped_check(cfg: Configuration, samples: int = 50, ray_steps: int = 20,
                      seed: int = 0) -> StarShapedReport:
    """Check the moment image is star-shaped about 0 on a sampled ray grid.

    For each sampled point (w, t) and each radial factor r on a uniform
    [0, 1] grid, the fiber polytope at r*w must be nonempty.  The fibers are
    convex in (t, r^2), so (1 - r^2) t_gale + r^2 t lies in it, for t_gale in
    the Gale polytope (one LP per call); :func:`_fiber_witness` recomputes
    its residual.  Where that fails, or the Gale polytope is empty, the grid
    point runs the interior-margin LP of :func:`fiber_polytope`, and only an
    empty fiber there is reported, as (ray index, r).
    """
    if cfg.kind != "mixed-general":
        raise StructuralError("star_shaped_check is defined for mixed-general links")
    if not _is_int(ray_steps) or ray_steps < 1:
        raise StructuralError("ray_steps must be a positive integer")
    pts = sample_points(cfg, samples, seed=seed)
    grid = np.linspace(0.0, 1.0, ray_steps)
    A, b = _fiber_rows(cfg, np.zeros(cfg.m))
    x = _solve_lp(np.zeros(cfg.n), A_eq=A, b_eq=b)
    t_gale = None if x is None else np.clip(x, 0.0, None)
    violations: list[tuple[int, float]] = []
    for i, point in enumerate(pts):
        w, t = big_moment_map(cfg, point)
        for r in grid:
            rows = _fiber_rows(cfg, r * w)
            if t_gale is not None and _fiber_witness(*rows, (1.0 - r**2) * t_gale + r**2 * t):
                continue
            if _interior_margin(*rows) is None:
                violations.append((i, float(r)))
    return StarShapedReport(rays_checked=len(pts), steps_per_ray=ray_steps,
                            violations=tuple(violations))
