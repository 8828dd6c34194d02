"""Group actions on the links and the branched covering over the sphere.

Three commuting symmetry layers act on the links:

* the n-torus: z_j -> u_j z_j with |u_j| = 1 (w untouched);
* sign flips (mixed-general only): w_k -> sigma_k w_k, sigma_k = +-1 — the
  quadrics see only w_k^2, so this is a (Z/2)^m action whose fixed strata
  are the w-coordinate zero sets;
* the foliation flow (classical only): z_j -> e^{-i c_j(T)/b_j} z_j with
  c_j(T) = 2 Re(sum_k T_k lambda_j^k), the time-one map of the closed-form
  kernel field v(T, 0).  (The 1/b_j weight scaling keeps that identification
  exact for non-unit form weights; with unit weights it is the usual
  display.)

All actions preserve the defining residuals analytically; the implementations
re-certify numerically, at :data:`.variety.DEFAULT_TOL`, and return fresh points.

The branched covering ``p`` sends (w, z) to z/|z| on the unit sphere.  Its
fibers are computed by radial rescaling: a unit direction zhat lifts to
points (w, r zhat) with w_k^2 = -F_k(r zhat) = -r^2 F_k(zhat) and

    r^2 (1 + sum_k |F_k(zhat)|) = 1,

which is linear in r^2 — the 1-D radius solve on the ray therefore collapses
to a closed form and needs no iteration.  Each k with F_k != 0 contributes an
independent sign choice, so a direction with l nonzero quadric values has
exactly 2^l preimages (2^m generically, 1 on the classical stratum).  The
count and the 2^l sign-choice candidates come from one ray (:func:`_fiber`);
the candidates are the preimages as built, with no dedupe: a live k has
|w_k| > sqrt(tol), so two candidates differ by more than 2 sqrt(tol).
The candidates of up to 256 // 2^m directions are certified together, one
:func:`.variety._jacobian_ranks` screen (a shifted Cholesky, with the
stacked SVD only where it fails) per block of at most 256 candidates
(:func:`_fibers`); :func:`fiber_points` is the one-direction case.

Whether a w_k is zero is decided by one rule, |w_k|^2 <= ``ZERO_TOL``
(:func:`.variety._zero_mask`): a lift's |w_k|^2 is |F_k| r^2, so the
covering's live test |F_k| r^2 > tol at its default ``ZERO_TOL`` is the
same rule, and :func:`sign_orbit` and :func:`isotropy_stratum` read the
zeros the point's ``zero_pattern`` and the leaves of :mod:`.forms` read.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .config import (DEFAULT_RANK_TOL, Configuration, check_tolerances, complexify, in_tie_band,
                     realify)
from .errors import NumericalError, StructuralError
from .variety import (
    _ATTEMPT_BLOCK,
    DEFAULT_TOL,
    ZERO_TOL,
    VarietyPoint,
    _certify_block,
    _check_tol,
    _link,
    _zero_mask,
    certify,
)

UNIT_TOL = 1e-12


@dataclass(frozen=True)
class GroupElement:
    """An element of the symmetry group acting on a link.

    Any of the three parts may be None (identity in that factor).  Unit
    moduli and exact signs are validated on construction.
    """

    torus_part: np.ndarray | None = None
    sign_part: np.ndarray | None = None
    flow_part: np.ndarray | None = None

    def __post_init__(self):
        if self.torus_part is not None:
            u = np.atleast_1d(np.asarray(self.torus_part, dtype=complex))
            _validate_phases(u)
            object.__setattr__(self, "torus_part", u)
        if self.sign_part is not None:
            sigma = np.atleast_1d(np.asarray(self.sign_part))
            _validate_signs(sigma)
            object.__setattr__(self, "sign_part", sigma.astype(float))
        if self.flow_part is not None:
            T = np.atleast_1d(np.asarray(self.flow_part, dtype=complex))
            _validate_flow(T)
            object.__setattr__(self, "flow_part", T)

    def apply(self, cfg: Configuration, point: VarietyPoint) -> VarietyPoint:
        """Apply sign, then torus, then flow parts (they commute)."""
        out = point
        if self.sign_part is not None:
            out = sign_act(cfg, out, self.sign_part)
        if self.torus_part is not None:
            out = torus_act(cfg, out, self.torus_part)
        if self.flow_part is not None:
            out = foliation_flow(cfg, out, self.flow_part)
        return out


def _validate_phases(phases: np.ndarray) -> None:
    if not np.all(np.isfinite(phases)):
        raise StructuralError("torus phases must be finite (got nan or inf)")
    if np.any(np.abs(np.abs(phases) - 1.0) > UNIT_TOL):
        worst = float(np.max(np.abs(np.abs(phases) - 1.0)))
        raise StructuralError(f"torus phases must have unit modulus (off by {worst:.2e})")


def _validate_flow(T: np.ndarray) -> None:
    if not np.all(np.isfinite(T)):
        raise StructuralError("flow parameters must be finite (got nan or inf)")


def _validate_signs(signs: np.ndarray) -> None:
    if not np.all(np.isin(np.asarray(signs, dtype=float), (-1.0, 1.0))):
        raise StructuralError("signs must be exactly +1 or -1")


def torus_act(cfg: Configuration, point: VarietyPoint, phases) -> VarietyPoint:
    """Rotate each z_j by the unit phase u_j; w block untouched."""
    u = np.atleast_1d(np.asarray(phases, dtype=complex))
    if u.shape != (cfg.n,):
        raise StructuralError(f"expected {cfg.n} phases")
    _validate_phases(u)
    w = point.w_block(cfg)
    z = point.z_block(cfg)
    return certify(cfg, realify(np.concatenate([w, u * z])))


def sign_act(cfg: Configuration, point: VarietyPoint, signs) -> VarietyPoint:
    """Flip the signs of chosen w_k (mixed-general links only)."""
    if cfg.kind != "mixed-general":
        raise StructuralError("the sign action is defined for mixed-general links")
    sigma = np.atleast_1d(np.asarray(signs, dtype=float))
    if sigma.shape != (cfg.m,):
        raise StructuralError(f"expected {cfg.m} signs")
    _validate_signs(sigma)
    w = point.w_block(cfg)
    z = point.z_block(cfg)
    return certify(cfg, realify(np.concatenate([sigma * w, z])))


def foliation_flow(cfg: Configuration, point: VarietyPoint, T) -> VarietyPoint:
    """Time-one map of the leafwise flow with parameter T (classical links).

    The velocity at T = 0 is the closed-form kernel vector v(T, 0); tests
    confirm this by finite differences.
    """
    if cfg.kind != "classical":
        raise StructuralError("the foliation flow is defined for classical links")
    T_arr = np.atleast_1d(np.asarray(T, dtype=complex))
    if T_arr.shape != (cfg.m,):
        raise StructuralError(f"expected {cfg.m} complex flow parameters")
    _validate_flow(T_arr)
    c = 2.0 * np.real(cfg.lambdas @ T_arr)
    phases = np.exp(-1j * c / cfg.weights_b)
    z = point.z_block(cfg)
    return certify(cfg, realify(phases * z))


def branched_cover(cfg: Configuration, point: VarietyPoint) -> np.ndarray:
    """Normalized z block: the covering map onto the unit sphere of C^n."""
    if cfg.kind != "mixed-general":
        raise StructuralError("the branched cover is defined for mixed-general links")
    z = point.z_block(cfg)
    norm = float(np.linalg.norm(z))
    if norm < 1e-12:
        raise NumericalError("z block vanishes; point cannot be projected")
    return z / norm


def _unit_direction(cfg: Configuration, direction) -> np.ndarray:
    """``direction`` divided by its norm; StructuralError names what makes it unusable."""
    zhat = np.atleast_1d(np.asarray(direction, dtype=complex))
    if zhat.shape != (cfg.n,):
        raise StructuralError(f"expected a direction in C^{cfg.n}")
    if not np.all(np.isfinite(zhat)):
        raise StructuralError("direction must be finite (got nan or inf)")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(zhat))
    if norm == np.inf:
        raise StructuralError("direction is too large to normalize (its norm overflows)")
    if not np.any(zhat):
        raise StructuralError("direction must be nonzero")
    if norm < 1e-12:
        raise StructuralError(f"direction is too small to normalize (norm {norm:.1e} < 1e-12)")
    return zhat / norm


def _ray(cfg: Configuration, direction) -> tuple[np.ndarray, np.ndarray, float]:
    """The unit direction zhat, the quadric values F_k(zhat) and the radius r of its ray."""
    zhat = _unit_direction(cfg, direction)
    F = cfg.lambdas.T @ (np.abs(zhat) ** 2)
    return zhat, F, float(1.0 / np.sqrt(1.0 + np.sum(np.abs(F))))


def quadric_values(cfg: Configuration, direction) -> np.ndarray:
    """F_k evaluated on a unit z-direction (no w contribution)."""
    return _ray(cfg, direction)[1]


def ray_radius(cfg: Configuration, direction) -> float:
    """Radius r at which the ray over a unit direction meets the link."""
    return _ray(cfg, direction)[2]


@dataclass(frozen=True)
class FiberCount:
    """Fiber cardinality of the covering over one sphere direction.

    ``count`` is 2^l with l the number of quadric values |F_k| above ``tol``
    at the rescaled point; ``near_branch`` flags directions where some |F_k|
    falls in the tie band of the tolerance (:func:`.config.in_tie_band`),
    i.e. where the zero/nonzero split is not trustworthy.
    """

    count: int
    radius: float
    quadric_magnitudes: tuple[float, ...]
    near_branch: bool


def fiber_count(cfg: Configuration, direction,
                tol: float = ZERO_TOL) -> FiberCount:
    """Cardinality of the covering fiber over a unit z-direction; nothing is certified.

    Quadric k is live when |F_k| r^2 > ``tol``.  That is the |w_k|^2 of
    each lift, so at the default ``ZERO_TOL`` the count over a point's own
    z block is the size of its :func:`sign_orbit` off the near-branch band.
    """
    return _fiber(cfg, direction, tol)[0]


def fiber_points(cfg: Configuration, direction,
                 tol: float = ZERO_TOL) -> list[VarietyPoint]:
    """All preimages of a direction, by exhaustive sign-choice construction.

    Builds w_k = +-sqrt(-F_k r^2) for every k with |F_k| r^2 > tol (w_k = 0
    on the others) and certifies the 2^l candidates in one block; they are
    returned in order, all distinct, as two differ by 2|w_k| > 2 sqrt(tol)
    in some live w_k.  A candidate that fails certification raises its
    error.  Exponential in m, meant for m <= 3.  Directions with |F_k|
    in the near-branch band may fail certification for the w_k = 0 choice —
    counts there are inherently ill-conditioned.  A ``tol`` above
    ``ZERO_TOL`` raises StructuralError (:func:`.variety._check_tol`).
    """
    ((_, points),) = _fibers(cfg, [direction], tol)
    if isinstance(points, NumericalError):
        raise points
    return points


def _fiber(cfg: Configuration, direction, tol: float) -> tuple[FiberCount, np.ndarray]:
    """The count over a direction and its 2^l sign-choice lifts, one realified row each.

    The direction is normalized once, and k is decided on the |F_k| r^2 the
    count reports; the lifts take w_k = +-sqrt(-F_k r^2) for the live k (0
    for the others) in ``itertools.product`` order.
    """
    check_tolerances(tol)
    if cfg.kind != "mixed-general":
        raise StructuralError("fiber counting is defined for mixed-general links")
    zhat, F, r = _ray(cfg, direction)
    mags = np.abs(F) * r**2
    choices: list[tuple[complex, ...]] = []
    for value, live in zip(F * r**2, mags > tol):
        root = complex(np.sqrt(-value + 0.0j))
        choices.append((root, -root) if live else (0.0 + 0.0j,))
    w = np.array(list(product(*choices)), dtype=complex)
    count = FiberCount(count=len(w), radius=r, quadric_magnitudes=tuple(mags.tolist()),
                       near_branch=bool(np.any(in_tie_band(mags, tol))))
    return count, realify(np.hstack([w, np.broadcast_to(r * zhat, (len(w), cfg.n))]))


def _fibers(cfg: Configuration, directions, tol: float
            ) -> Iterator[tuple[FiberCount, list[VarietyPoint] | NumericalError]]:
    """Each direction's count, and its :func:`fiber_points` or its first failing candidate's error.

    The 2^l certified lifts of a direction are returned as built.

    Directions are taken in slices of ``_ATTEMPT_BLOCK // 2^m``.  Each slice
    is validated, its candidates are stacked and certified in blocks of at
    most ``_ATTEMPT_BLOCK`` rows, and its results are yielded before the
    next slice is built, so memory does not grow with the number of
    directions.  A ``tol`` above ``ZERO_TOL`` raises StructuralError, as in
    :func:`.variety.certify`: a lift whose w_k is cut to zero misses the link
    by up to ``tol``.
    """
    _check_tol(tol, DEFAULT_RANK_TOL)
    link = _link(cfg)
    step = max(1, _ATTEMPT_BLOCK >> cfg.m)
    for lo in range(0, len(directions), step):
        fibers = [_fiber(cfg, direction, tol) for direction in directions[lo : lo + step]]
        X = np.concatenate([rows for _, rows in fibers])
        certified: list[VarietyPoint | NumericalError] = []
        for row in range(0, len(X), _ATTEMPT_BLOCK):
            certified += _certify_block(cfg, link, X[row : row + _ATTEMPT_BLOCK],
                                        DEFAULT_TOL, DEFAULT_RANK_TOL)
        start = 0
        for count, rows in fibers:
            results = certified[start : start + len(rows)]
            start += len(rows)
            error = next((p for p in results if isinstance(p, NumericalError)), None)
            yield count, results if error is None else error


def random_directions(cfg: Configuration, count: int, seed: int) -> list[np.ndarray]:
    """``count`` unit directions in C^n: ``normal(size=2n)`` draws over their norms, in turn,
    from one Philox generator keyed (seed mod 2^64, 0)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % (1 << 64), 0],
                                                            dtype=np.uint64)))
    return [complexify(v) / np.linalg.norm(v)
            for v in (rng.normal(size=2 * cfg.n) for _ in range(count))]


def cover(cfg: Configuration, directions, tol: float = ZERO_TOL) -> Iterator[tuple[bool, dict]]:
    """Per direction, in turn: whether its fiber count equals its constructed preimages, and
    its report row.  Slices are certified as :func:`_fibers` takes them; a failing candidate's
    error is raised when its direction is reached."""
    for direction, (info, preimages) in zip(directions, _fibers(cfg, directions, tol)):
        if isinstance(preimages, NumericalError):
            raise preimages
        yield info.count == len(preimages), {
            "direction": [[float(c.real), float(c.imag)] for c in direction],
            "count": info.count, "constructed": len(preimages), "radius": info.radius,
            "near_branch": info.near_branch}


def sign_orbit(cfg: Configuration, point: VarietyPoint) -> list[VarietyPoint]:
    """The (Z/2)^m orbit of a point: 2^(m - |zero_pattern|) points.

    Only the w_k outside ``point.zero_pattern`` are flipped, one image per
    choice of their signs in ``itertools.product`` order; a w_k in it has
    |w_k|^2 <= ``ZERO_TOL`` and keeps its sign, so the orbit has as many
    points as :func:`fiber_count` counts over the point's z block.
    """
    choices = [(1.0,) if k in point.zero_pattern else (1.0, -1.0) for k in range(cfg.m)]
    return [sign_act(cfg, point, np.array(signs)) for signs in product(*choices)]


def isotropy_stratum(cfg: Configuration, point: VarietyPoint,
                     tol: float = ZERO_TOL) -> tuple[int, ...]:
    """Indices k (0-based) with w_k = 0 at the point — its isotropy type.

    The zeros are :func:`.variety._zero_mask`'s, |w_k|^2 <= ``tol``; at the
    default ``ZERO_TOL`` they are ``point.zero_pattern``.  On the link
    |w_k|^2 = |F_k(z)| exactly, so "|F_k| <= tol" must agree; a mismatch
    means the point does not lie on the link to tolerance, and raises.
    """
    check_tolerances(tol)
    if cfg.kind != "mixed-general":
        raise StructuralError("isotropy strata are defined for mixed-general links")
    F = cfg.lambdas.T @ (np.abs(point.z_block(cfg)) ** 2)
    from_quadrics = tuple(np.flatnonzero(np.abs(F) <= tol).tolist())
    from_w = tuple(np.flatnonzero(_zero_mask(cfg, point.coordinates[None], tol)[0]).tolist())
    if from_quadrics != from_w:
        raise NumericalError(
            f"inconsistent isotropy data: F-zeros {from_quadrics} vs w-zeros {from_w}"
        )
    return from_quadrics
