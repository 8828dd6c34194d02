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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_RANK_TOL, Configuration, numerical_rank
from .errors import (
    ProjectionError,
    SamplingBudgetError,
    SingularPointError,
    StructuralError,
)

DEFAULT_TOL = 1e-10
ZERO_TOL = 1e-8
DUPLICATE_TOL = 1e-6
MAX_HALVINGS = 30


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


def split_blocks(cfg: Configuration, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an ambient real vector into complex (w, z) blocks."""
    values = complexify(coords)
    return values[: cfg.w_count], values[cfg.w_count :]


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


def evaluate_system(cfg: Configuration, coords: np.ndarray) -> np.ndarray:
    """Residuals of the defining system at an ambient point.

    Layout: ``(Re F_1, Im F_1, ..., Re F_m, Im F_m, rho - 1)`` where for the
    mixed kinds F_k includes its w^2 part and rho sums |w|^2 + |z|^2.
    (mixed-m1 has a single complex quadric, so the vector has length 3.)
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (cfg.ambient_real_dim,):
        raise StructuralError(
            f"expected ambient vector of length {cfg.ambient_real_dim}, got {coords.shape}"
        )
    w, z = split_blocks(cfg, coords)
    zsq = np.abs(z) ** 2
    quad = cfg.lambdas.T @ zsq  # (m,) complex: F_k of the z block
    if cfg.kind == "mixed-m1":
        quad = np.array([np.sum(w**2) + quad[0]])
    elif cfg.kind == "mixed-general":
        quad = w**2 + quad
    rho = float(np.sum(np.abs(w) ** 2) + np.sum(zsq))
    out = np.empty(2 * quad.size + 1)
    out[0:-1:2] = quad.real
    out[1:-1:2] = quad.imag
    out[-1] = rho - 1.0
    return out


def system_jacobian(cfg: Configuration, coords: np.ndarray) -> np.ndarray:
    """Real Jacobian of :func:`evaluate_system`, shape (equations, ambient).

    Row order matches the residual layout; this fixed order is also the
    normal frame used for the orientation convention.
    """
    coords = np.asarray(coords, dtype=float)
    n, m, s = cfg.n, cfg.m, cfg.w_count
    n_eq = cfg.equation_count
    jac = np.zeros((n_eq, cfg.ambient_real_dim))

    wx = coords[0 : 2 * s : 2]
    wy = coords[1 : 2 * s : 2]
    zx = coords[2 * s + 0 :: 2]
    zy = coords[2 * s + 1 :: 2]

    # z block of the quadric rows: d|z_j|^2 = (2x_j, 2y_j), scaled by lambda
    for k in range(m):
        lam = cfg.lambdas[:, k]
        jac[2 * k, 2 * s + 0 :: 2] = 2.0 * lam.real * zx
        jac[2 * k, 2 * s + 1 :: 2] = 2.0 * lam.real * zy
        jac[2 * k + 1, 2 * s + 0 :: 2] = 2.0 * lam.imag * zx
        jac[2 * k + 1, 2 * s + 1 :: 2] = 2.0 * lam.imag * zy

    if cfg.kind == "mixed-m1":
        jac[0:2, 0 : 2 * s] = _square_sum_rows(wx, wy)
    elif cfg.kind == "mixed-general":
        # _square_sum_rows entries, one 2x2 block per w_k; scalar writes are faster here
        for k in range(m):
            jac[2 * k, 2 * k] = 2.0 * wx[k]
            jac[2 * k, 2 * k + 1] = -2.0 * wy[k]
            jac[2 * k + 1, 2 * k] = 2.0 * wy[k]
            jac[2 * k + 1, 2 * k + 1] = 2.0 * wx[k]

    jac[-1] = 2.0 * coords
    return jac


def _square_sum_rows(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Rows (Re, Im) of d(sum w_r^2) over the interleaved w coordinates.

    d(w^2) with w = wx + i wy is (2wx, -2wy; 2wy, 2wx) per coordinate.
    """
    rows = np.empty((2, 2 * wx.size))
    rows[0, 0::2] = 2.0 * wx
    rows[0, 1::2] = -2.0 * wy
    rows[1, 0::2] = 2.0 * wy
    rows[1, 1::2] = 2.0 * wx
    return rows


def project_to_variety(
    cfg: Configuration,
    start: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = 100,
    _residual=None,
    _jacobian=None,
) -> np.ndarray:
    """Project an ambient point onto the link by Gauss-Newton least squares.

    Each step solves the linearized system via least squares and halves the
    step until the residual 2-norm decreases (at most 30 halvings).  Raises
    :class:`ProjectionError` with the best residual achieved if ``tol`` (on
    the infinity norm) is not reached within ``max_iter`` iterations.
    """
    residual = _residual or (lambda x: evaluate_system(cfg, x))
    jacobian = _jacobian or (lambda x: system_jacobian(cfg, x))

    x = np.array(start, dtype=float)
    r = residual(x)
    for _ in range(max_iter):
        if np.linalg.norm(r, np.inf) <= tol:
            return x
        step, *_ = np.linalg.lstsq(jacobian(x), -r, rcond=None)
        scale = 1.0
        base_norm = np.linalg.norm(r)
        for _halving in range(MAX_HALVINGS + 1):
            candidate = x + scale * step
            r_new = residual(candidate)
            if np.linalg.norm(r_new) < base_norm:
                x, r = candidate, r_new
                break
            scale *= 0.5
        else:
            raise ProjectionError(
                f"line search stalled after {MAX_HALVINGS} halvings "
                f"(best residual {base_norm:.3e})",
                best_residual=float(np.linalg.norm(r, np.inf)),
            )
    if np.linalg.norm(r, np.inf) <= tol:
        return x
    raise ProjectionError(
        f"no convergence after {max_iter} iterations "
        f"(best residual {np.linalg.norm(r, np.inf):.3e})",
        best_residual=float(np.linalg.norm(r, np.inf)),
    )


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
    coords = np.asarray(coords, dtype=float)
    resid = evaluate_system(cfg, coords)
    res_norm = float(np.linalg.norm(resid, np.inf))
    if res_norm > tol:
        raise ProjectionError(
            f"residual {res_norm:.3e} exceeds certification tolerance {tol:.1e}",
            best_residual=res_norm,
        )
    jac = system_jacobian(cfg, coords)
    _, sigma, vh = np.linalg.svd(jac, full_matrices=True)
    rank = numerical_rank(sigma, rank_tol)
    if rank != cfg.equation_count:
        raise SingularPointError(
            f"singular point: Jacobian rank {rank} < {cfg.equation_count}"
        )
    frame = vh[cfg.equation_count :].T.copy()  # orthonormal kernel basis

    # Orient: (gradients, frame) must be a positive basis of the ambient space.
    basis = np.column_stack([jac.T, frame])
    sign, _ = np.linalg.slogdet(basis)
    if sign < 0:
        frame[:, -1] = -frame[:, -1]
    elif sign == 0:  # cannot happen at a certified regular point
        raise SingularPointError("degenerate orientation basis")

    w = complexify(coords)[: cfg.w_count]
    pattern = tuple(int(k) for k in np.nonzero(np.abs(w) <= ZERO_TOL)[0])
    return VarietyPoint(
        coordinates=coords,
        residual_norm=res_norm,
        tangent_frame=frame,
        zero_pattern=pattern,
    )


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


def _is_duplicate(coords: np.ndarray, accepted: list[np.ndarray]) -> bool:
    """Whether ``coords`` lies within DUPLICATE_TOL of an accepted vector."""
    return any(np.linalg.norm(coords - other) < DUPLICATE_TOL for other in accepted)


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
    dim = cfg.ambient_real_dim
    free = np.setdiff1d(np.arange(dim), pinned_coords or [])

    if null_sum:
        s = cfg.w_count

        def residual(x):
            w = complexify(x[: 2 * s])
            total = np.sum(w**2)
            return np.concatenate([evaluate_system(cfg, x), [total.real, total.imag]])

        def jacobian(x):
            extra = np.zeros((2, dim))
            extra[:, 0 : 2 * s] = _square_sum_rows(x[0 : 2 * s : 2], x[1 : 2 * s : 2])
            return np.vstack([system_jacobian(cfg, x), extra])
    else:
        def residual(x):
            return evaluate_system(cfg, x)

        def jacobian(x):
            return system_jacobian(cfg, x)

    if pinned_coords:
        base_residual, base_jacobian = residual, jacobian

        def residual(y, _f=base_residual):
            return _f(_embed(y))

        def jacobian(y, _g=base_jacobian):
            return _g(_embed(y))[:, free]

    def _embed(y):
        full = np.zeros(dim)
        full[free] = y
        return full

    points: list[VarietyPoint] = []
    accepted_coords: list[np.ndarray] = []
    budget = count * max_attempts_per_point
    for attempt in range(budget):
        if len(points) == count:
            break
        rng = _rng_for(seed, attempt)
        start = rng.normal(size=free.size)
        start /= np.linalg.norm(start)
        try:
            solution = project_to_variety(cfg, start, tol=tol,
                                          _residual=residual, _jacobian=jacobian)
            coords = _embed(solution) if pinned_coords else solution
            point = certify(cfg, coords, tol=tol, rank_tol=rank_tol)
        except (ProjectionError, SingularPointError):
            continue
        if _is_duplicate(point.coordinates, accepted_coords):
            continue
        points.append(point)
        accepted_coords.append(point.coordinates)
    if len(points) < count:
        raise SamplingBudgetError(
            f"only {len(points)} of {count} requested points certified "
            f"within {budget} attempts",
            points=points,
            requested=count,
        )
    return points
