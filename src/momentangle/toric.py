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

plus the V-representation: the vertices, as basic feasible solutions from
one stacked solve per block of column bases (:func:`_vertices`), for every
n.  The rest is read off them: no vertex means an empty polytope, and the
support (the coordinates positive somewhere on the polytope) is the set of
coordinates positive at some vertex.  On that face only the equalities
bind, so

    dim = |support| - rank(equality columns on the support).

Building a polytope solves no LP.  P_w is nonempty exactly when its target
-w^2 / (1 - |w|^2) lies in the hull of the lambda_j (divide t by sum t), so
the moment-image and star checks ask the package's hull questions
(:func:`_shifted`); c = inf sum |z_j|^2 has a closed form (:func:`estimate_c`).

The sign convention sum t_j lambda_j = -w^2 is the one the defining equations
w^2 + F(z) = 0 actually induce; the big-moment-map residual test pins it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import (
    AdmissibilityReport,
    Configuration,
    _hull_verdict,
    _hull_weights,
    _is_int,
    _solve_rows,
    _subset_blocks,
    check_admissible,
    check_mixed_admissible,
    check_tolerances,
    numerical_rank,
    realify,
    witness_distance,
)
from .errors import NumericalError, StructuralError
from .variety import VarietyPoint, certify, sample_points

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PolytopeDescription:
    """H- and V-representation of a polytope.

    ``equalities`` are pairs (a, b) meaning a . x = b; ``inequalities`` mean
    a . x >= b.  ``vertices`` is an array with one vertex per row, in the
    order of the first basis that yields each (no rows when empty); ``dim``
    is the affine dimension, -1 for an empty polytope.
    """

    ambient_dim: int
    equalities: tuple[tuple[np.ndarray, float], ...]
    inequalities: tuple[tuple[np.ndarray, float], ...]
    vertices: np.ndarray
    dim: int

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        check_tolerances(tol)
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
            "vertices": [[float(v) for v in row] for row in self.vertices],
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


def _vertices(A: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """The basic feasible solutions of {t >= 0, At = b}, one per row.

    The r = rank A column bases B run in lexicographic blocks, each one
    stacked solve of A_B t_B = b (:func:`.config._solve_rows`, so an exactly
    singular basis gives no candidate); feasible candidates (t_B >= -1e-11) keep
    only full-rank bases (:func:`.config.numerical_rank`) and a recomputed
    |At - b| <= ``tol``.  Rows are in the order of the first basis giving
    each vertex; one within 1e-7 of an earlier row is that vertex.
    """
    n = A.shape[1]
    u, sigma, _ = np.linalg.svd(A, full_matrices=False)
    r = int(numerical_rank(sigma))
    # r rows with the solutions of At = b, when it is consistent
    rows, rhs = u[:, :r].T @ A, u[:, :r].T @ b
    found: list[np.ndarray] = []
    for block in _subset_blocks(n, r):
        mats = rows.T[block].transpose(0, 2, 1)
        sol = _solve_rows(mats, np.broadcast_to(rhs, block.shape)[..., None])[..., 0]
        ok = np.all(np.isfinite(sol) & (sol >= -1e-11), axis=1)
        cols, sol = block[ok], sol[ok]
        full_rank = numerical_rank(np.linalg.svd(A.T[cols], compute_uv=False)) == r
        t = np.zeros((len(cols), n))
        np.put_along_axis(t, cols, np.clip(sol, 0.0, None), axis=1)
        t = t[full_rank & (np.max(np.abs(t @ A.T - b), axis=1) <= tol)]
        for v in t:
            if not found or np.min(np.max(np.abs(np.asarray(found) - v), axis=1)) >= 1e-7:
                found.append(v)
    return np.array(found) if found else np.zeros((0, n))


def _build_polytope(A: np.ndarray, b: np.ndarray,
                    tol: float = FEASIBILITY_TOL) -> PolytopeDescription:
    """{t >= 0, At = b}; max t_j is attained at a vertex, so its vertices give the support."""
    n = A.shape[1]
    equalities = tuple((A[i].copy(), float(b[i])) for i in range(A.shape[0]))
    inequalities = tuple((np.eye(n)[j], 0.0) for j in range(n))
    vertices = _vertices(A, b, tol)
    support = np.flatnonzero(np.max(vertices, axis=0, initial=0.0) > tol)
    dim = (len(support) - int(numerical_rank(np.linalg.svd(A[:, support], compute_uv=False)))
           if len(vertices) else -1)
    return PolytopeDescription(n, equalities, inequalities, vertices=vertices, dim=dim)


@dataclass(frozen=True)
class GaleCheck:
    """Admissibility, the Gale polytope (None unless admissible) and its dimension verdict."""

    admissibility: AdmissibilityReport
    polytope: PolytopeDescription | None
    expected_dim: int  # n - 2m - 1
    passed: bool  # the polytope has dimension expected_dim


def gale_check(cfg: Configuration, c: float = 1.0, tol: float = FEASIBILITY_TOL) -> GaleCheck:
    """The gale gate (tolerance, scale c, one admissibility sweep), then the Gale polytope.

    c must be a positive finite real with c * lambda finite; a bool is no
    scale.  The polytope comes from the unscaled rows, so no c moves its
    vertices or dimension (the relative rank cut could drop scaled rows).
    """
    check_tolerances(tol)
    c = float(np.real(c)) if np.isreal(c) and not isinstance(c, (bool, np.bool_)) else np.nan
    if not (0 < c < np.inf and c * float(np.max(np.abs(realify(cfg.lambdas)))) < np.inf):
        raise StructuralError("c must be a positive finite real, with c * lambda finite")
    report = check_admissible(cfg, tol)
    expected_dim = cfg.n - 2 * cfg.m - 1
    if not report.admissible:
        return GaleCheck(report, None, expected_dim, False)
    A, b = _equality_rows(cfg.lambdas, np.zeros(cfg.m, dtype=complex), 1.0)
    poly = _build_polytope(A, b, tol)
    if poly.is_empty:
        raise NumericalError("Gale polytope empty for an admissible configuration "
                             "(internal inconsistency)")
    A[:-1] *= c  # the presented rows
    poly = replace(poly, equalities=tuple(zip(A, map(float, b))))
    return GaleCheck(report, poly, expected_dim, poly.dim == expected_dim)


def gale_transform(cfg: Configuration, c: float = 1.0,
                   tol: float = FEASIBILITY_TOL) -> PolytopeDescription:
    """The polytope {t >= 0, sum_j t_j c lambda_j = 0, sum t_j = 1}, by :func:`gale_check`.

    Requires an admissible configuration; its affine dimension is then
    n - 2m - 1.  The scaling c > 0 is mathematically irrelevant (the
    homogeneous constraint absorbs it) and kept only to match the usual
    presentation: it scales the λ rows of ``equalities`` and nothing else.
    """
    gale = gale_check(cfg, c, tol)
    if gale.polytope is None:
        report = gale.admissibility
        raise StructuralError(
            "gale_transform needs an admissible configuration "
            f"(siegel={report.siegel}, weak_hyperbolicity={report.weak_hyperbolicity}, "
            f"violating_subset={report.violating_subset})"
        )
    return gale.polytope


def fiber_polytope(cfg: Configuration, w,
                   tol: float = FEASIBILITY_TOL) -> PolytopeDescription:
    """The fiber {t >= 0, sum t_j lambda_j = -w^2, sum t_j = 1 - |w|^2}.

    ``w`` is the complex m-vector of a moment-map value; |w|^2 < 1 required.
    May legitimately be empty (w outside the moment image).
    """
    check_tolerances(tol)
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


def _shifted(lambdas: np.ndarray, targets) -> np.ndarray:
    """Realified lambda_j - target, (n, 2m) per target; 0 is in their hull iff the target is."""
    return realify(lambdas - np.asarray(targets)[..., None, :])


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
    c = inf sum |z_j|^2 lies in (0, 1] on every link, so a ``c_estimate``
    outside it, nan or a bool raises :class:`StructuralError`.
    """
    check_tolerances(tol)
    if c_estimate is not None and (isinstance(c_estimate, (bool, np.bool_))
                                   or not 0.0 < c_estimate <= 1.0):
        raise StructuralError(f"c_estimate must lie in (0, 1], got {c_estimate!r}")
    w, t = big_moment_map(cfg, point)
    wsq = float(np.sum(np.abs(w) ** 2))
    quad = cfg.lambdas.T @ t + w**2
    residual = max(float(np.max(np.abs(quad))), abs(wsq + float(np.sum(t)) - 1.0))  # t >= 0
    target = -(w**2) / float(np.sum(t))
    hull_member = witness_distance(_shifted(cfg.lambdas, target), t) <= tol
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


def star_shaped_check(cfg: Configuration, samples: int = 50, ray_steps: int = 20,
                      seed: int = 0) -> StarShapedReport:
    """Check the moment image is star-shaped about 0 on a sampled ray grid.

    For each sampled point (w, t) and each radial factor r on a uniform
    [0, 1] grid, the fiber polytope at r*w must be nonempty: its target
    -(r w)^2 / (1 - r^2 |w|^2) must lie in the hull of the lambda_j.  The
    fibers are convex in (t, r^2), so the weights (1 - r^2) t_gale + r^2 t,
    with t_gale the hull weights of the Siegel verdict
    (:func:`.config._hull_weights`: least squares when it is ``>= 0``, NNLS
    otherwise), witness the grid point when their stacked
    :func:`.config.witness_distance` is at most FEASIBILITY_TOL.  Any other
    grid point (all when there are no weights: NNLS raised) gets
    :func:`.config._hull_verdict`; a target outside is reported as (ray, r).
    """
    if cfg.kind != "mixed-general":
        raise StructuralError("star_shaped_check is defined for mixed-general links")
    if not _is_int(ray_steps) or ray_steps < 1:
        raise StructuralError("ray_steps must be a positive integer")
    pts = sample_points(cfg, samples, seed=seed)
    grid = np.linspace(0.0, 1.0, ray_steps)
    t_gale = _hull_weights(cfg.realified_lambdas())
    violations: list[tuple[int, float]] = []
    for i, point in enumerate(pts):
        w, t = big_moment_map(cfg, point)
        W = grid[:, None] * w
        shifted = _shifted(cfg.lambdas, -(W**2) / (1.0 - np.sum(np.abs(W) ** 2, axis=1))[:, None])
        held = (np.zeros(ray_steps, dtype=bool) if t_gale is None else
                witness_distance(shifted, np.outer(1.0 - grid**2, t_gale) + np.outer(grid**2, t))
                <= FEASIBILITY_TOL)
        for r, points in zip(grid[~held], shifted[~held]):
            if not _hull_verdict(points, FEASIBILITY_TOL)[0]:
                violations.append((i, float(r)))
    return StarShapedReport(rays_checked=len(pts), steps_per_ray=ray_steps,
                            violations=tuple(violations))
