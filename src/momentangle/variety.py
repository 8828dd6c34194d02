"""Numerical realization of the quadric links (moment-angle manifolds).

The *classical* link ``M_1`` lives in C^n:

    F_k(z) = sum_j lambda_j^k |z_j|^2 = 0   (k = 1..m),    sum_j |z_j|^2 = 1.

The *mixed* links add squared complex variables w:

* mixed-m1 (m = 1, s >= 1), in C^{s+n}:
      w_1^2 + ... + w_s^2 + sum_j lambda_j |z_j|^2 = 0,  |w|^2 + |z|^2 = 1;
* mixed-general (one w per quadric), in C^{m+n}:
      w_k^2 + F_k(z) = 0  (k = 1..m),                    |w|^2 + |z|^2 = 1.

Points are stored as interleaved real vectors ``(Re c_1, Im c_1, Re c_2, ...)``
with the w block (if any) first, then the z block.  A certified point carries
an *oriented* orthonormal tangent frame: the frame columns span the kernel of
the real Jacobian, and their orientation is fixed globally by requiring
``det [J^T | frame] > 0``, i.e. (residual gradients, frame) is positively
oriented in the standard ambient basis.  Gradients are globally defined and
independent at regular points, so this orients each link consistently —
which is what makes "the contact volume has one sign off the stratum" a
well-posed numerical statement.

Numerically the link is a stack of real quadrics ``x^T S_e x = d_e``
(:attr:`.Configuration.quadrics`; ``d_e`` is 1 for the sphere, 0 otherwise),
so the Jacobian of a whole block ``X`` of points is one matrix product,
``2 S_e x`` for every row.  Sampling draws a block of attempts, each from its
own stream keyed by ``(seed, attempt)``, runs one Gauss-Newton iteration
over the block (each row with its own convergence test and step halving)
and certifies the converged rows with one stacked SVD.  Points are accepted
in attempt order, and a block never holds more attempts than points still
needed, so the accepted points do not depend on the block size: a shorter
request gives a prefix of a longer one, bit for bit.  :func:`project_to_variety`
and :func:`certify` are the one-row case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_RANK_TOL, Configuration, numerical_rank
from .errors import (
    NumericalError,
    ProjectionError,
    SamplingBudgetError,
    SingularPointError,
    StructuralError,
)

DEFAULT_TOL = 1e-10
ZERO_TOL = 1e-8
DUPLICATE_TOL = 1e-6
MAX_HALVINGS = 30
MAX_ITER = 100
_EPS = np.finfo(float).eps

#: Attempts per block in :func:`_sample`; bounds the stacked arrays.
_ATTEMPT_BLOCK = 256


def realify(values: np.ndarray) -> np.ndarray:
    """Interleave a complex vector into (Re, Im, Re, Im, ...)."""
    values = np.asarray(values, dtype=complex)
    out = np.empty(2 * values.size)
    out[0::2] = values.real
    out[1::2] = values.imag
    return out


def complexify(coords: np.ndarray) -> np.ndarray:
    """Inverse of :func:`realify`."""
    coords = np.asarray(coords, dtype=float)
    return coords[0::2] + 1j * coords[1::2]


@dataclass(frozen=True, eq=False)
class VarietyPoint:
    """A certified point of a quadric link.

    Attributes
    ----------
    coordinates:
        Real ambient vector (interleaved realification, w block first).
    residual_norm:
        Infinity norm of the defining residuals at the point.
    tangent_frame:
        ``(ambient_real_dim, manifold_dim)`` array with orthonormal columns
        spanning the tangent space, positively oriented (see module docs).
    zero_pattern:
        Indices of w coordinates that vanish within the zero tolerance
        (always empty for classical points).
    """

    coordinates: np.ndarray
    residual_norm: float
    tangent_frame: np.ndarray
    zero_pattern: tuple[int, ...]

    def w_block(self, cfg: Configuration) -> np.ndarray:
        return complexify(self.coordinates)[: cfg.w_count]

    def z_block(self, cfg: Configuration) -> np.ndarray:
        return complexify(self.coordinates)[cfg.w_count :]


def _ambient(cfg: Configuration, coords) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (cfg.ambient_real_dim,):
        raise StructuralError(
            f"expected ambient vector of length {cfg.ambient_real_dim}, got {coords.shape}"
        )
    return coords


def _check_tolerances(tol: float, rank_tol: float = DEFAULT_RANK_TOL) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise StructuralError(f"tol must be finite and positive, got {tol!r}")
    if not 0 < rank_tol < 1:
        raise StructuralError(f"rank_tol must lie in (0, 1), got {rank_tol!r}")


def _link(
    cfg: Configuration, free: np.ndarray | None = None, null_sum: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``(G, d)`` for the link's quadrics, optionally on a stratum.

    ``G`` is ``2 S`` laid out as ``(dim, equations * dim)``, so that
    ``X @ G`` holds the Jacobians ``2 S_e x`` of a block ``X`` (``S_e`` is
    symmetric); ``d`` is the right-hand side.  ``null_sum`` appends the
    Re/Im rows of ``sum_r w_r^2``; ``free`` restricts to those coordinates.
    """
    quads = cfg.quadrics
    if null_sum:
        extra = quads[:2].copy()  # the mixed-m1 quadric without its z block
        extra[:, 2 * cfg.w_count :, 2 * cfg.w_count :] = 0.0
        quads = np.concatenate([quads, extra])
    if free is not None:
        quads = quads[:, free][:, :, free]
    rhs = np.zeros(len(quads))
    rhs[cfg.equation_count - 1] = 1.0
    dim = quads.shape[1]
    return (2.0 * quads).transpose(1, 0, 2).reshape(dim, -1), rhs


def _evaluate(grad: np.ndarray, rhs: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians ``(N, eq, dim)`` and residuals ``(N, eq)`` of a block of points."""
    jac = (X @ grad).reshape(len(X), rhs.size, X.shape[1])
    return jac, 0.5 * np.einsum("nea,na->ne", jac, X) - rhs


def evaluate_system(cfg: Configuration, coords: np.ndarray) -> np.ndarray:
    """Residuals ``x^T S_e x - d_e`` of the defining system at an ambient point.

    Layout: ``(Re F_1, Im F_1, ..., Re F_m, Im F_m, rho - 1)`` where for the
    mixed kinds F_k includes its w^2 part and rho sums |w|^2 + |z|^2.
    (mixed-m1 has a single complex quadric, so the vector has length 3.)
    """
    return _evaluate(*_link(cfg), _ambient(cfg, coords)[None])[1][0]


def system_jacobian(cfg: Configuration, coords: np.ndarray) -> np.ndarray:
    """Real Jacobian ``2 S_e x`` of :func:`evaluate_system`, shape (equations, ambient).

    Row order matches the residual layout; this fixed order is also the
    normal frame used for the orientation convention.
    """
    return _evaluate(*_link(cfg), _ambient(cfg, coords)[None])[0][0]


def _norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt(np.einsum("ne,ne->n", r, r))


def _min_norm_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of ``jac[i] @ step = rhs[i]``.

    The singular-value cut is ``lstsq``'s: ``eps * max(M, N) * sigma_1``.
    """
    u, sigma, vh = np.linalg.svd(jac, full_matrices=False)
    cut = _EPS * max(jac.shape[1:]) * sigma[:, :1]
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > cut)
    coef = (rhs[:, None, :] @ u)[:, 0] * inv
    return (coef[:, None, :] @ vh)[:, 0]


def _line_search(grad, rhs, x, jac, r, step):
    """Halve each row's step until its residual 2-norm decreases.

    Returns the new ``(x, jac, r)`` (updated in place, or replaced when
    every row takes its full step) and the rows that still had not
    decreased after :data:`MAX_HALVINGS` halvings.
    """
    base = _norms(r)
    pending = np.arange(len(x))
    scale = 1.0
    for _halving in range(MAX_HALVINGS + 1):
        candidate = x[pending] + scale * step[pending]
        jac_new, r_new = _evaluate(grad, rhs, candidate)
        better = _norms(r_new) < base[pending]
        if pending.size == len(x) and better.all():
            return candidate, jac_new, r_new, ~better
        moved = pending[better]
        x[moved], jac[moved], r[moved] = candidate[better], jac_new[better], r_new[better]
        pending = pending[~better]
        if not pending.size:
            break
        scale *= 0.5
    stalled = np.zeros(len(x), dtype=bool)
    stalled[pending] = True
    return x, jac, r, stalled


_CONVERGED, _NOT_CONVERGED, _STALLED = 0, 1, 2


def _project_block(
    grad: np.ndarray, rhs: np.ndarray, starts: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Newton on every row of ``starts`` at once.

    Each row runs its own iteration: it stops when its residual infinity
    norm reaches ``tol``, and its step is halved until its residual 2-norm
    decreases, at most :data:`MAX_HALVINGS` times.  Returns the points, their
    last residuals and a status per row (converged, not converged, stalled).
    """
    X = np.array(starts, dtype=float)
    R = np.empty((len(X), rhs.size))
    status = np.full(len(X), _NOT_CONVERGED)
    rows = np.arange(len(X))  # rows still iterating; x, jac and r are theirs
    x = X.copy()
    jac, r = _evaluate(grad, rhs, x)
    for _ in range(max_iter):
        done = np.abs(r).max(axis=1) <= tol
        if done.any():
            X[rows], R[rows] = x, r
            status[rows[done]] = _CONVERGED
            rows, x, jac, r = rows[~done], x[~done], jac[~done], r[~done]
        if not rows.size:
            break
        x, jac, r, stalled = _line_search(grad, rhs, x, jac, r, _min_norm_steps(jac, -r))
        if stalled.any():
            X[rows], R[rows] = x, r
            status[rows[stalled]] = _STALLED
            rows, x, jac, r = rows[~stalled], x[~stalled], jac[~stalled], r[~stalled]
    X[rows], R[rows] = x, r
    status[rows[np.abs(r).max(axis=1) <= tol]] = _CONVERGED
    return X, R, status


def _projection_error(status: int, residual: np.ndarray, max_iter: int) -> ProjectionError:
    best = float(np.linalg.norm(residual, np.inf))
    if status == _STALLED:
        return ProjectionError(
            f"line search stalled after {MAX_HALVINGS} halvings "
            f"(best residual {np.linalg.norm(residual):.3e})",
            best_residual=best,
        )
    return ProjectionError(
        f"no convergence after {max_iter} iterations (best residual {best:.3e})",
        best_residual=best,
    )


def project_to_variety(
    cfg: Configuration,
    start: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> np.ndarray:
    """Project an ambient point onto the link by Gauss-Newton least squares.

    Each step is the minimum-norm least-squares solution of the linearized
    system, halved until the residual 2-norm decreases (at most 30
    halvings).  Raises :class:`ProjectionError` with the best residual
    achieved if ``tol`` (on the infinity norm) is not reached within
    ``max_iter`` iterations.
    """
    _check_tolerances(tol)
    X, R, status = _project_block(*_link(cfg), _ambient(cfg, start)[None], tol, max_iter)
    if status[0] != _CONVERGED:
        raise _projection_error(status[0], R[0], max_iter)
    return X[0]


def _certify_block(
    cfg: Configuration, X: np.ndarray, tol: float, rank_tol: float
) -> list[VarietyPoint | NumericalError]:
    """Certify every row of ``X``: a point, or the error that rejects it.

    One SVD of the stacked Jacobians gives the ranks and the kernel frames,
    and one ``slogdet`` their orientations.
    """
    eq, s = cfg.equation_count, cfg.w_count
    jac, R = _evaluate(*_link(cfg), X)
    res_norms = np.max(np.abs(R), axis=1)
    _, sigma, vh = np.linalg.svd(jac, full_matrices=True)
    frames = vh[:, eq:].transpose(0, 2, 1).copy()  # orthonormal kernel bases
    # Orient: (gradients, frame) must be a positive basis of the ambient space.
    signs, _ = np.linalg.slogdet(np.concatenate([jac.transpose(0, 2, 1), frames], axis=2))
    frames[signs < 0, :, -1] *= -1.0
    w_moduli = np.hypot(X[:, 0 : 2 * s : 2], X[:, 1 : 2 * s : 2])

    out: list[VarietyPoint | NumericalError] = []
    for i, res_norm in enumerate(res_norms.tolist()):
        rank = numerical_rank(sigma[i], rank_tol)
        if res_norm > tol:
            out.append(ProjectionError(
                f"residual {res_norm:.3e} exceeds certification tolerance {tol:.1e}",
                best_residual=res_norm,
            ))
        elif rank != eq:
            out.append(SingularPointError(f"singular point: Jacobian rank {rank} < {eq}"))
        elif signs[i] == 0:  # cannot happen at a certified regular point
            out.append(SingularPointError("degenerate orientation basis"))
        else:
            out.append(VarietyPoint(
                coordinates=X[i],
                residual_norm=res_norm,
                tangent_frame=frames[i],
                zero_pattern=tuple(np.flatnonzero(w_moduli[i] <= ZERO_TOL).tolist()),
            ))
    return out


def certify(
    cfg: Configuration,
    coords: np.ndarray,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> VarietyPoint:
    """Certify an ambient point as a regular point of the link.

    Checks the residual infinity norm against ``tol``, requires the real
    Jacobian to have full rank (2m+1 rows, or 3 for mixed-m1), and returns
    the point together with its oriented orthonormal tangent frame.
    """
    _check_tolerances(tol, rank_tol)
    point = _certify_block(cfg, _ambient(cfg, coords)[None], tol, rank_tol)[0]
    if isinstance(point, NumericalError):
        raise point
    return point


def jacobian_rank(cfg: Configuration, point: VarietyPoint, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the real Jacobian at a point."""
    sigma = np.linalg.svd(system_jacobian(cfg, point.coordinates), compute_uv=False)
    return numerical_rank(sigma, rank_tol)


def _rng_for(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator keyed to (seed, attempt index).

    Philox is a counter-based bit generator, so each (seed, index) pair
    yields an independent, platform-stable stream; sampling is reproducible
    whether or not attempts are interleaved or parallelized.
    """
    key = np.array([seed % (1 << 64), index % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _is_duplicate(coords: np.ndarray, accepted) -> bool:
    """Whether ``coords`` lies within DUPLICATE_TOL of a row of ``accepted``."""
    accepted = np.asarray(accepted, dtype=float).reshape(-1, coords.size)
    return bool(np.any(np.linalg.norm(accepted - coords, axis=1) < DUPLICATE_TOL))


def sample_points(
    cfg: Configuration,
    count: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    max_attempts_per_point: int = 50,
) -> list[VarietyPoint]:
    """Draw ``count`` certified points, deterministically in (seed, index).

    Starting points are standard Gaussians normalized to the unit sphere,
    then projected by Gauss-Newton.  Duplicates (within 1e-6) are discarded
    and resampled.  If the retry budget runs out a
    :class:`SamplingBudgetError` carrying the partial result is raised.
    """
    return _sample(cfg, count, seed, tol, rank_tol, max_attempts_per_point)


def sample_with_zero_pattern(
    cfg: Configuration,
    pattern: tuple[int, ...] | None,
    count: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    max_attempts_per_point: int = 50,
) -> list[VarietyPoint]:
    """Sample certified points on a w-degeneracy stratum.

    * mixed-general: ``pattern`` is a set of indices K; the coordinates
      ``w_k, k in K`` are pinned to zero during projection.
    * mixed-m1: ``pattern`` is a set of indices into the w block, pinned to
      zero exactly as above; the degenerate stratum (kernel dimension three,
      vanishing contact volume) is ``pattern = tuple(range(s))``.
      Alternatively pass ``pattern=None`` to sample the null quadric
      ``sum_r w_r^2 = 0`` instead: for s = 1 that collapses to w_1 = 0,
      which is pinned exactly, while for s >= 2 the two real equations
      Re/Im(sum w_r^2) = 0 are appended to the system and the resulting
      points generically have every w_r != 0.

    Certification (residuals, Jacobian rank, tangent frame) is always against
    the ambient link system; the stratum only constrains where the point
    lands.
    """
    if cfg.kind == "classical":
        raise StructuralError("zero patterns only make sense for mixed kinds")
    if pattern is not None:
        if len(pattern) == 0:
            raise StructuralError("stratum sampling needs a nonempty index set")
        K = sorted(set(int(k) for k in pattern))
        if K[0] < 0 or K[-1] >= cfg.w_count:
            raise StructuralError("pattern indices must lie in range of the w block")
        pinned = [c for k in K for c in (2 * k, 2 * k + 1)]
        return _sample(cfg, count, seed, tol, rank_tol, max_attempts_per_point,
                       pinned_coords=pinned)
    if cfg.kind == "mixed-general":
        raise StructuralError("mixed-general stratum sampling needs a nonempty index set")
    # mixed-m1 null quadric
    if cfg.s == 1:
        return _sample(cfg, count, seed, tol, rank_tol, max_attempts_per_point,
                       pinned_coords=[0, 1])
    return _sample(cfg, count, seed, tol, rank_tol, max_attempts_per_point,
                   null_sum=True)


def _sample(
    cfg: Configuration,
    count: int,
    seed: int,
    tol: float,
    rank_tol: float,
    max_attempts_per_point: int,
    pinned_coords: list[int] | None = None,
    null_sum: bool = False,
) -> list[VarietyPoint]:
    if count < 1:
        raise StructuralError("count must be positive")
    _check_tolerances(tol, rank_tol)
    dim = cfg.ambient_real_dim
    free = np.setdiff1d(np.arange(dim), pinned_coords or [])
    grad, rhs = _link(cfg, free, null_sum)

    points: list[VarietyPoint] = []
    accepted = np.empty((count, dim))
    tally = dict.fromkeys(("not_converged", "line_search_stalls", "singular", "duplicates"), 0)
    budget = count * max_attempts_per_point
    attempt = 0
    while len(points) < count and attempt < budget:
        # Never more attempts than points still needed: the sequential loop
        # would have stopped at the same attempt.
        size = min(count - len(points), _ATTEMPT_BLOCK, budget - attempt)
        starts = np.empty((size, free.size))
        for row, index in enumerate(range(attempt, attempt + size)):
            start = _rng_for(seed, index).normal(size=free.size)
            starts[row] = start / np.linalg.norm(start)
        attempt += size
        Y, _, status = _project_block(grad, rhs, starts, tol, MAX_ITER)
        converged, not_converged, stalled = np.bincount(status, minlength=3).tolist()
        tally["not_converged"] += not_converged
        tally["line_search_stalls"] += stalled
        X = np.zeros((converged, dim))
        X[:, free] = Y[status == _CONVERGED]
        for point in _certify_block(cfg, X, tol, rank_tol):  # in attempt order
            if isinstance(point, ProjectionError):
                tally["not_converged"] += 1
            elif isinstance(point, SingularPointError):
                tally["singular"] += 1
            elif _is_duplicate(point.coordinates, accepted[: len(points)]):
                tally["duplicates"] += 1
            else:
                accepted[len(points)] = point.coordinates
                points.append(point)
    if len(points) < count:
        outcomes = {"attempts": attempt, **tally}
        breakdown = ", ".join(f"{key.replace('_', ' ')} {value}" for key, value in tally.items())
        raise SamplingBudgetError(
            f"only {len(points)} of {count} requested points certified "
            f"within {budget} attempts ({breakdown})",
            points=points,
            requested=count,
            outcomes=outcomes,
        )
    return points
