"""Numerical realization of the quadric links (moment-angle manifolds).

The *classical* link ``M_1`` lives in C^n:

    F_k(z) = sum_j lambda_j^k |z_j|^2 = 0   (k = 1..m),    sum_j |z_j|^2 = 1.

The *mixed* links add squared complex variables w:

* mixed-m1 (m = 1, s >= 1), in C^{s+n}:
      w_1^2 + ... + w_s^2 + sum_j lambda_j |z_j|^2 = 0,  |w|^2 + |z|^2 = 1;
* mixed-general (one w per quadric), in C^{m+n}:
      w_k^2 + F_k(z) = 0  (k = 1..m),                    |w|^2 + |z|^2 = 1.

Points are stored as interleaved real vectors ``(Re c_1, Im c_1, Re c_2, ...)``
with the w block (if any) first, then the z block.  Tangent frames are built
on demand (:func:`tangent_frame`), only where the forms read them: an
*oriented* orthonormal frame whose columns span the kernel of the real
Jacobian, with the orientation fixed globally by requiring
``det [J^T | frame] > 0``, i.e. (residual gradients, frame) is positively
oriented in the standard ambient basis.  Gradients are globally defined and
independent at regular points, so this orients each link consistently —
which is what makes "the contact volume has one sign off the stratum" a
well-posed numerical statement.

Numerically the link is a stack of real quadrics ``x^T S_e x = d_e``
(:attr:`.Configuration.quadrics`; ``d_e`` is 1 for the sphere, 0 otherwise),
so the Jacobian of a whole block ``X`` of points is one matrix product,
``2 S_e x`` for every row.  That layout (:func:`_link`) is built once per
configuration and kind of link (ambient, null quadric), read-only, and
shared by every function here and by :mod:`.actions`.  Sampling draws a
block of attempts, each from its own counter-based stream keyed by
``(seed, attempt)``; one Philox generator per sampling call is re-keyed for
each attempt of every stratum, and each round's starts are written into
one array.  One Gauss-Newton iteration runs over the block, each row with
its own convergence test and step halving.  A step comes from the normal
equations ``(J J^T) y = -r``, ``s = J^T y``, and is kept only where the
recomputed ``|J s + r|_inf`` is within 1e-8 of ``|r|_inf``; the other rows
take the minimum-norm step from an SVD.  One Cholesky of the stacked
``J J^T``, shifted by a multiple of its trace, proves the converged rows
full rank; the singular values of one stacked SVD rank the block only where
it fails (:func:`_jacobian_ranks`).  Certified points are accepted in
attempt order, with no duplicate screen (:func:`_sample` says why none is
needed), and a block never holds more of a stratum's attempts than points
it still needs, so the accepted points do not depend on the block size: a
shorter request gives a prefix of a longer one, bit for bit.
:func:`project_to_variety` and :func:`certify` are the one-row case of the
same code.

A w-degeneracy stratum pins some w coordinates to zero.  The quadrics couple
each w coordinate only with its own Re/Im partner, so the Jacobian columns
of a w that vanishes are zero, and every step, ``J^T y`` or the SVD's
minimum-norm step, is exactly zero there.  So a stratum needs no system of
its own: Gauss-Newton on the ambient link, started at zero on the pinned
coordinates, stays on the stratum.  The strata of one link share its
blocks: :func:`_sample` stacks every stratum's attempts of a round, projects
and certifies them once, and each stratum keeps the points of its own
one-stratum call.  Only the mixed-m1 null quadric with s >= 2 adds two
equations, and with them a link of its own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .config import (DEFAULT_RANK_TOL, Configuration, _is_int, _solve_rows, check_tolerances,
                     complexify, numerical_rank)
from .errors import (
    NumericalError,
    ProjectionError,
    SamplingBudgetError,
    SingularPointError,
    StructuralError,
)

DEFAULT_TOL = 1e-10
#: A w_k is zero when |w_k|^2 <= ZERO_TOL (:func:`_zero_mask`), the
#: package's one w-zero rule; the square is cut, not the modulus, because
#: the singular value a leaf adds to dalpha on the tangent space grows like
#: |w_k|^2, and |w_k|^2 = |F_k(z)| is what the covering cuts.
ZERO_TOL = 1e-8
MAX_HALVINGS = 30
MAX_ITER = 100
_EPS = np.finfo(float).eps
#: Largest miss ``|J step - rhs|_inf / |rhs|_inf`` of a normal-equation step.
_STEP_MISS = 1e-8

#: Attempts per block in :func:`_sample`, and fiber candidates per block in
#: :func:`.actions._fibers`; bounds the stacked arrays.
_ATTEMPT_BLOCK = 256


@dataclass(frozen=True, eq=False)
class VarietyPoint:
    """A certified point of a quadric link.

    Attributes
    ----------
    coordinates:
        Real ambient vector (interleaved realification, w block first).
    residual_norm:
        Infinity norm of the defining residuals at the point.
    zero_pattern:
        Indices k of the w coordinates with |w_k|^2 <= ``ZERO_TOL``
        (:func:`_zero_mask`; always empty for classical points): the leaves
        :mod:`.forms` expects, the signs :func:`.actions.sign_orbit` keeps
        and the isotropy type :func:`.actions.isotropy_stratum` reports.

    Frames are built on demand: :func:`tangent_frame` gives the oriented
    tangent frame at the point.
    """

    coordinates: np.ndarray
    residual_norm: float
    zero_pattern: tuple[int, ...]

    def w_block(self, cfg: Configuration) -> np.ndarray:
        return complexify(self.coordinates)[: cfg.w_count]

    def z_block(self, cfg: Configuration) -> np.ndarray:
        return complexify(self.coordinates)[cfg.w_count :]


def _ambient(cfg: Configuration, rows) -> np.ndarray:
    """The ambient vectors ``rows`` stacked ``(N, D)``, checked at the boundary.

    A row of another length, or a non-finite entry, raises StructuralError.
    Both are checked once, on the stack; the rows are searched one by one
    only for the message.
    """
    dim = cfg.ambient_real_dim
    try:
        X = np.array(rows, dtype=float)
    except ValueError:
        if all(np.shape(row) == (dim,) for row in rows):
            raise  # entries that are not numbers
        X = np.empty(0)  # rows of different lengths, named below
    if X.shape[1:] != (dim,):
        shape = next(np.shape(row) for row in rows if np.shape(row) != (dim,))
        raise StructuralError(f"expected ambient vector of length {dim}, got {shape}")
    if not np.all(np.isfinite(X)):
        raise StructuralError("ambient vector must be finite (got nan or inf)")
    return X


#: ``{null_sum: (G, d)}`` of each configuration, built by :func:`_link`.  The
#: configurations are held weakly, so their links go with them.
_LINKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _link(cfg: Configuration, null_sum: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``(G, d)`` for the link's quadrics, built once per configuration and kind of link.

    ``G`` is ``2 S`` laid out as ``(dim, equations * dim)``, so that
    ``X @ G`` holds the Jacobians ``2 S_e x`` of a block ``X`` (``S_e`` is
    symmetric); ``d`` is the right-hand side.  ``null_sum`` appends the
    Re/Im rows of ``sum_r w_r^2``.  Both arrays are read-only, like
    :attr:`.Configuration.quadrics`, and every caller of one configuration
    shares them.
    """
    links = _LINKS.setdefault(cfg, {})
    if null_sum not in links:
        quads = cfg.quadrics
        if null_sum:
            extra = quads[:2].copy()  # the mixed-m1 quadric without its z block
            extra[:, 2 * cfg.w_count :, 2 * cfg.w_count :] = 0.0
            quads = np.concatenate([quads, extra])
        rhs = np.zeros(len(quads))
        rhs[cfg.equation_count - 1] = 1.0
        dim = quads.shape[1]
        grad = (2.0 * quads).transpose(1, 0, 2).reshape(dim, -1)
        grad.flags.writeable = rhs.flags.writeable = False
        links[null_sum] = grad, rhs
    return links[null_sum]


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
    return _evaluate(*_link(cfg), _ambient(cfg, [coords]))[1][0]


def system_jacobian(cfg: Configuration, coords: np.ndarray) -> np.ndarray:
    """Real Jacobian ``2 S_e x`` of :func:`evaluate_system`, shape (equations, ambient).

    Row order matches the residual layout; this fixed order is also the
    normal frame used for the orientation convention.
    """
    return _evaluate(*_link(cfg), _ambient(cfg, [coords]))[0][0]


def _norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt(np.einsum("ne,ne->n", r, r))


def _gauss_newton_steps(jac: np.ndarray, rhs: np.ndarray, rhs_max: np.ndarray) -> np.ndarray:
    """Minimum-norm solutions of ``jac[i] @ step = rhs[i]``, checked.

    ``rhs_max`` holds ``|rhs|_inf`` of each row.  Each row solves the normal
    equations ``(J J^T) y = rhs`` and takes ``step = J^T y``.  A step is
    kept only where the recomputed miss ``|J step - rhs|_inf`` is at most
    :data:`_STEP_MISS` times ``|rhs|_inf``: a step in range(J^T) is the
    minimum-norm solution for a right-hand side perturbed by that much.  A
    step with a nan or an infinite entry has a nan or infinite miss (every
    row of ``J`` meets that entry), which fails the check.  The other rows,
    among them those whose ``J J^T`` is singular or overflows, take the
    exact :func:`_min_norm_steps`.
    """
    jac_t = jac.transpose(0, 2, 1)
    with np.errstate(all="ignore"):  # non-finite steps fail the check below
        step = (jac_t @ _solve_rows(jac @ jac_t, rhs[..., None]))[..., 0]
        miss = np.abs((jac @ step[..., None])[..., 0] - rhs).max(axis=1)
    fallback = ~(miss <= _STEP_MISS * rhs_max)
    if fallback.any():
        step[fallback] = _min_norm_steps(jac[fallback], rhs[fallback])
    return step


def _min_norm_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of ``jac[i] @ step = rhs[i]``, by SVD.

    The singular-value cut is ``lstsq``'s: ``eps * max(M, N) * sigma_1``, the
    :func:`.config.numerical_rank` cut at ``rank_tol = eps * max(M, N)``.  The
    values are in descending order, so those above it are the first ``rank``.
    The exact fallback of :func:`_gauss_newton_steps`, for the rows whose
    normal-equation step fails its check.  A step lies in range(J^T), so it
    is set to exactly zero on the zero columns of ``jac``, where the SVD
    leaves rounding: a stratum's pinned coordinates are such columns.
    """
    u, sigma, vh = np.linalg.svd(jac, full_matrices=False)
    rank = numerical_rank(sigma, _EPS * max(jac.shape[1:]))
    kept = np.arange(sigma.shape[1]) < rank[:, None]
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=kept)
    coef = (rhs[:, None, :] @ u)[:, 0] * inv
    step = (coef[:, None, :] @ vh)[:, 0]
    step[~jac.any(axis=1)] = 0.0
    return step


def _line_search(grad, rhs, x, jac, r, norms, step):
    """Halve each row's step until its residual 2-norm ``norms`` decreases.

    The full step is tried on the whole block at once; only the rows it
    does not improve are gathered and halved.  Returns the new
    ``(x, jac, r, norms)`` and the rows that still had not decreased after
    :data:`MAX_HALVINGS` halvings, which keep their old values.
    """
    x_out = x + step
    jac_out, r_out = _evaluate(grad, rhs, x_out)
    norms_out = _norms(r_out)
    pending = np.flatnonzero(~(norms_out < norms))
    stalled = np.zeros(len(x), dtype=bool)
    if not pending.size:
        return x_out, jac_out, r_out, norms_out, stalled
    x_out[pending], jac_out[pending], r_out[pending], norms_out[pending] = (
        x[pending], jac[pending], r[pending], norms[pending])
    scale = 1.0
    for _halving in range(MAX_HALVINGS):
        scale *= 0.5
        candidate = x[pending] + scale * step[pending]
        jac_new, r_new = _evaluate(grad, rhs, candidate)
        norms_new = _norms(r_new)
        better = norms_new < norms[pending]
        moved = pending[better]
        x_out[moved], jac_out[moved], r_out[moved], norms_out[moved] = (
            candidate[better], jac_new[better], r_new[better], norms_new[better])
        pending = pending[~better]
        if not pending.size:
            break
    stalled[pending] = True
    return x_out, jac_out, r_out, norms_out, stalled


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
    rows = np.arange(len(X))  # rows still iterating; x, jac, r and norms are theirs
    x = X
    jac, r = _evaluate(grad, rhs, x)
    norms = _norms(r)  # then carried from the line search that accepts each row
    for _ in range(max_iter):
        r_max = np.abs(r).max(axis=1)
        done = r_max <= tol
        if done.any():
            X[rows], R[rows] = x, r
            status[rows[done]] = _CONVERGED
            keep = ~done
            rows, x, jac, r, norms, r_max = (a[keep] for a in (rows, x, jac, r, norms, r_max))
        if not rows.size:
            break
        x, jac, r, norms, stalled = _line_search(grad, rhs, x, jac, r, norms,
                                                 _gauss_newton_steps(jac, -r, r_max))
        if stalled.any():
            X[rows], R[rows] = x, r
            status[rows[stalled]] = _STALLED
            keep = ~stalled
            rows, x, jac, r, norms = (a[keep] for a in (rows, x, jac, r, norms))
    X[rows], R[rows] = x, r
    status[rows[np.abs(r).max(axis=1) <= tol]] = _CONVERGED
    return X, R, status


def _projection_error(status: int, residual: np.ndarray, max_iter: int) -> ProjectionError:
    best = float(np.linalg.norm(residual, np.inf))
    if status == _STALLED:
        return ProjectionError(
            f"line search stalled after {MAX_HALVINGS} halvings (best residual {best:.3e})",
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
    ``max_iter`` iterations.  A ``max_iter`` that is not a non-negative
    integer (bools included) raises StructuralError.
    """
    check_tolerances(tol)
    if not (_is_int(max_iter) and max_iter >= 0):
        raise StructuralError("max_iter must be a non-negative integer")
    X, R, status = _project_block(*_link(cfg), _ambient(cfg, [start]), tol, max_iter)
    if status[0] != _CONVERGED:
        raise _projection_error(status[0], R[0], max_iter)
    return X[0]


def _zero_mask(cfg: Configuration, X: np.ndarray, tol: float = ZERO_TOL) -> np.ndarray:
    """``(N, w_count)``: which |w_k|^2 <= ``tol`` in the rows of ``X``.

    The package's one w-zero test, for zero patterns, the leaf quadrics of
    :mod:`.forms` and the w side of :func:`.actions.isotropy_stratum`.  It
    cuts |w_k|^2 because the singular value that tells dalpha a leaf from
    no leaf grows like |w_k|^2 (:mod:`.forms`), and because |w_k|^2 is
    |F_k(z)| on the link, which the covering cuts (:func:`.actions.fiber_count`).
    """
    s = cfg.w_count
    re, im = X[:, 0 : 2 * s : 2], X[:, 1 : 2 * s : 2]
    return re * re + im * im <= tol


def _zero_patterns(cfg: Configuration, X: np.ndarray) -> list[tuple[int, ...]]:
    """The zero pattern of each row of ``X``: the indices of its :func:`_zero_mask`.

    Each row gets one code, the bytes of its packed mask, and each distinct
    code's tuple is built once, for any ``w_count``: the rows of a block
    share a handful of patterns.
    """
    if not cfg.w_count:
        return [()] * len(X)
    zero = _zero_mask(cfg, X)
    packed = np.packbits(zero, axis=1)
    codes = packed.view(f"V{packed.shape[1]}")[:, 0].tolist()
    rows = dict(zip(codes, range(len(codes))))  # a row of each code
    patterns = {code: tuple(np.flatnonzero(zero[i]).tolist()) for code, i in rows.items()}
    return [patterns[code] for code in codes]


#: Traces of ``J J^T`` that :func:`_jacobian_ranks` screens: far enough from
#: underflow and overflow that the rounding model of its proof holds.
_SCREEN_TRACES = (2.0**-900, 2.0**900)


def _jacobian_ranks(jac: np.ndarray, rank_tol: float) -> np.ndarray:
    """:func:`.config.numerical_rank` of each ``(n, D)`` Jacobian of the stack ``jac``.

    One stacked product forms ``G = J J^T``, whose trace is ``T = |J|_F^2``,
    and one stacked Cholesky factors ``G - s T I`` with

        s = (2 r + c1 eps)^2 + c2 eps,   c1 = 2 n D,   c2 = 2 (D + n + 3),

    ``r = rank_tol`` and ``eps`` the machine epsilon.  If it succeeds, every
    row has rank ``n``.  If it fails anywhere, or a trace lies outside
    :data:`_SCREEN_TRACES`, the whole block is ranked by the singular values
    of one SVD without vectors.  So ``numerical_rank`` stays the one rank
    rule: the screen only proves that every row is above its cut.

    Why a cleared row is one the SVD ranks ``n`` too (first order in
    ``u = eps / 2``, ``gamma_k = k u / (1 - k u)``; Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 3 and 10; Rump,
    "Verification of positive definiteness", *BIT* 46, 2006):

    1. Each entry of the computed ``G`` is a dot product of length ``D``:
       it is off by at most ``gamma_D |J||J|^T``, which is at most
       ``gamma_D T`` in the 2-norm.
    2. Subtracting the shift rounds each diagonal entry by at most ``u T``.
       If ``s >= 1``, the shift is at least every diagonal entry, the first
       pivot is not positive and the Cholesky fails: for ``r >= 1/2`` no row
       is ever cleared.
    3. A Cholesky that runs to completion on a symmetric ``A`` gives
       ``R^T R = A + E`` with ``|E| <= gamma_{n+1} |R^T||R|``, so
       ``|E|_2 <= gamma_{n+1} tr A / (1 - gamma_{n+1})``, and
       ``lambda_min(A) >= -|E|_2`` as ``R^T R`` is semidefinite.  This
       holds whether or not ``A`` is positive definite (Rump).
    4. The computed shift is at least ``s T (1 - (D + n + 3) u)``: each
       diagonal entry is within ``gamma_D`` of ``G``'s, their sum rounds
       ``n - 1`` times, and ``s`` and the product four times more.

    A Cholesky that succeeds has ``s < 1`` (step 2), so summing
    ``D + 1 + (n + 1) + (D + n + 3)`` units of ``u T`` gives
    ``lambda_min(J J^T) >= s T - (D + n + 5/2) eps T``, which leaves
    ``(2 r + c1 eps)^2 T`` and ``(D + n + 7/2) eps T`` over for the
    second-order terms.  As ``T >= sigma_1^2``, the exact singular values
    have ``sigma_n >= (2 r + c1 eps) sigma_1``.  The SVD is backward stable:
    its values are exact for ``J + F`` with ``|F|_2 <= p eps |J|_2``, ``p``
    a modest function of the shape (LAPACK Users' Guide, sec. 4.9), taken
    as ``p <= n D = c1 / 2``, so by Weyl each computed value is within
    ``p eps sigma_1`` of its exact one.  The computed ``sigma_n`` is then
    at least ``(2 r + p eps) sigma_1 > r (1 + p eps) sigma_1``, and so above
    ``r`` times the computed ``sigma_1``, for every ``r`` in (0, 1).

    Forming ``J J^T`` squares the condition number, so a row with
    ``sigma_n / sigma_1`` below about ``sqrt(c2 eps)``, some 1e-7, always
    takes the SVD, whatever ``r``.
    """
    eq, dim = jac.shape[1:]
    with np.errstate(all="ignore"):  # an overflow fails the trace check
        gram = jac @ jac.transpose(0, 2, 1)
    diagonal = gram.reshape(len(jac), eq * eq)[:, :: eq + 1]  # a view into gram
    trace = diagonal.sum(axis=1)
    lo, hi = _SCREEN_TRACES
    # An empty block passes; a nan trace fails both comparisons.
    if lo <= trace.min(initial=hi) and trace.max(initial=lo) <= hi:
        diagonal -= ((2 * rank_tol + 2 * eq * dim * _EPS) ** 2
                     + 2 * (dim + eq + 3) * _EPS) * trace[:, None]
        try:
            np.linalg.cholesky(gram)
            return np.full(len(jac), eq)
        except np.linalg.LinAlgError:
            pass
    return numerical_rank(np.linalg.svd(jac, compute_uv=False), rank_tol)


def _certify_block(
    cfg: Configuration, link: tuple[np.ndarray, np.ndarray], X: np.ndarray,
    tol: float, rank_tol: float,
) -> list[VarietyPoint | NumericalError]:
    """Certify every row of ``X`` on the ambient ``link``: a point, or the error that rejects it.

    The ranks come from :func:`_jacobian_ranks`: one shifted Cholesky of the
    stacked ``J J^T`` proves every row full rank, or else one SVD without
    vectors ranks them; no frame is built.
    """
    eq = cfg.equation_count
    jac, R = _evaluate(*link, X)
    res_norms = np.max(np.abs(R), axis=1)
    ranks = _jacobian_ranks(jac, rank_tol)
    patterns = _zero_patterns(cfg, X)

    out: list[VarietyPoint | NumericalError] = []
    for i, (res_norm, rank) in enumerate(zip(res_norms.tolist(), ranks.tolist())):
        if res_norm > tol:
            out.append(ProjectionError(
                f"residual {res_norm:.3e} exceeds certification tolerance {tol:.1e}",
                best_residual=res_norm,
            ))
        elif rank != eq:
            out.append(SingularPointError(f"singular point: Jacobian rank {rank} < {eq}"))
        else:
            out.append(VarietyPoint(
                coordinates=X[i],
                residual_norm=res_norm,
                zero_pattern=patterns[i],
            ))
    return out


def _check_tol(tol: float, rank_tol: float) -> None:
    """:func:`.config.check_tolerances`, and a certification ``tol`` at most ``ZERO_TOL``:
    above it a certified |w_k|^2 can miss |F_k(z)| by more than the cut deciding the zeros."""
    check_tolerances(tol, rank_tol)
    if tol > ZERO_TOL:
        raise StructuralError(f"tol must not exceed ZERO_TOL = {ZERO_TOL!r}, got {tol!r}")


def certify(
    cfg: Configuration,
    coords: np.ndarray,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> VarietyPoint:
    """Certify an ambient point as a regular point of the link.

    Checks the residual infinity norm against ``tol`` (:func:`_check_tol`) and
    requires the real Jacobian to have full rank (2m+1 rows, or 3 for
    mixed-m1).  The frame is not built here; :func:`tangent_frame` builds it.
    """
    _check_tol(tol, rank_tol)
    point = _certify_block(cfg, _link(cfg), _ambient(cfg, [coords]), tol, rank_tol)[0]
    if isinstance(point, NumericalError):
        raise point
    return point


def _tangent_frames(cfg: Configuration, X: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL):
    """Oriented tangent frames ``(N, D, d)`` and Jacobian ranks ``(N,)`` at the rows of ``X``.

    One full SVD of the stacked Jacobians gives the ranks and the kernel
    frames, and one ``slogdet`` their orientations.
    """
    eq = cfg.equation_count
    jac, _ = _evaluate(*_link(cfg), X)
    _, sigma, vh = np.linalg.svd(jac, full_matrices=True)
    ranks = numerical_rank(sigma, rank_tol)
    frames = vh[:, eq:].transpose(0, 2, 1).copy()  # orthonormal kernel bases
    # Orient: (gradients, frame) must be a positive basis of the ambient space.
    signs, _ = np.linalg.slogdet(np.concatenate([jac.transpose(0, 2, 1), frames], axis=2))
    if np.any((signs == 0) & (ranks == eq)):  # cannot happen at a regular point
        raise SingularPointError("degenerate orientation basis")
    frames[signs < 0, :, -1] *= -1.0
    return frames, ranks


def tangent_frame(cfg: Configuration, point: VarietyPoint) -> np.ndarray:
    """``(ambient_real_dim, manifold_dim)`` orthonormal columns spanning the tangent
    space at a certified point, positively oriented (see module docs)."""
    return _tangent_frames(cfg, _ambient(cfg, [point.coordinates]))[0][0]


def jacobian_rank(cfg: Configuration, point: VarietyPoint, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the real Jacobian at a point, from the SVD that builds its frame."""
    return int(_tangent_frames(cfg, _ambient(cfg, [point.coordinates]), rank_tol)[1][0])


def _start_source():
    """Starting points of attempts: ``draw(seed, first, size, dim)`` gives attempts
    ``first, first + 1, ...`` of ``seed``, as ``(size, dim)``.

    Attempt ``i`` starts from ``dim`` standard normals of the Philox stream
    keyed by ``(seed mod 2^64, i mod 2^64)``, normalized to the unit sphere.
    Philox is a counter-based bit generator, so each (seed, attempt) pair
    yields an independent, platform-stable stream; sampling is reproducible
    whether or not attempts are interleaved or parallelized.  One Philox and
    one Generator serve every seed and attempt of the source: each attempt
    re-keys them with counter 0 and an empty buffer, the state
    ``Philox(key=...)`` starts in, so the streams equal a fresh generator
    per attempt bit for bit.

    Each row's squared norm is its own ``row.dot(row)``, as in
    ``np.linalg.norm`` of one vector; the rows are divided by the square
    roots all at once after the loop.  A square root and a division are
    correctly rounded wherever they run, so the starts are those of
    dividing each row by ``math.sqrt(row.dot(row))`` in the loop, bit for bit.
    """
    key = np.zeros(2, dtype=np.uint64)
    bits = np.random.Philox(key=key)
    gen = np.random.Generator(bits)
    state = bits.state  # counter 0 and an empty buffer
    state["state"]["key"] = key  # its entries are set per attempt

    def draw(seed: int, first: int, size: int, dim: int) -> np.ndarray:
        key[0] = seed % (1 << 64)
        starts = np.empty((size, dim))
        squares = np.empty(size)
        for i, row in enumerate(starts):
            key[1] = (first + i) % (1 << 64)
            bits.state = state
            gen.standard_normal(out=row)
            squares[i] = row.dot(row)
        starts /= np.sqrt(squares)[:, None]
        return starts

    return draw


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
    then projected by Gauss-Newton; no duplicate screen runs, as
    :func:`_sample` explains.  If the retry budget runs out a
    :class:`SamplingBudgetError` carrying the partial result is raised.
    """
    return _sample(cfg, [((), seed, count)], tol, rank_tol, max_attempts_per_point)[0]


def _stratum(cfg: Configuration, pattern: tuple[int, ...] | None) -> tuple[list[int], bool]:
    """``(pinned, null_sum)`` of a stratum of :func:`sample_with_zero_pattern`.

    ``pinned`` lists the real coordinates that start at zero; ``null_sum``
    says whether the link gains the null quadric's two equations.
    """
    if cfg.kind == "classical":
        raise StructuralError("zero patterns only make sense for mixed kinds")
    if pattern is None:
        if cfg.kind == "mixed-general":
            raise StructuralError("mixed-general stratum sampling needs a nonempty index set")
        if cfg.s >= 2:
            return [], True
        pattern = (0,)  # s = 1: the null quadric is w_1 = 0
    if len(pattern) == 0:
        raise StructuralError("stratum sampling needs a nonempty index set")
    K = sorted(set(int(k) for k in pattern))
    if K[0] < 0 or K[-1] >= cfg.w_count:
        raise StructuralError("pattern indices must lie in range of the w block")
    return [c for k in K for c in (2 * k, 2 * k + 1)], False


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
      ``w_k, k in K`` are started at zero and stay there: the link's
      Jacobian has zero columns at a w that vanishes, so no step moves it.
    * mixed-m1: ``pattern`` is a set of indices into the w block, started
      at zero exactly as above; the degenerate stratum (kernel dimension
      three, vanishing contact volume) is ``pattern = tuple(range(s))``.
      Alternatively pass ``pattern=None`` to sample the null quadric
      ``sum_r w_r^2 = 0`` instead: for s = 1 that collapses to w_1 = 0,
      which is started at zero as above, while for s >= 2 the two real
      equations Re/Im(sum w_r^2) = 0 are appended to the system and the
      resulting points generically have every w_r != 0.

    Certification (residuals, Jacobian rank) is always against
    the ambient link system; the stratum only constrains where the point
    lands.
    """
    pinned, null_sum = _stratum(cfg, pattern)
    return _sample(cfg, [(pinned, seed, count)], tol, rank_tol, max_attempts_per_point,
                   null_sum)[0]


class _Run:
    """One stratum of :func:`_sample`: its seed, free coordinates, attempts, points and tally."""

    def __init__(self, dim: int, pinned, seed: int, count: int, budget: int):
        self.free = np.ones(dim, dtype=bool)
        self.free[list(pinned)] = False  # a () index would pin every coordinate
        self.seed, self.free_dim = seed, int(np.count_nonzero(self.free))
        self.count, self.budget, self.attempt = count, budget, 0
        self.points: list[VarietyPoint] = []
        self.tally = dict.fromkeys(("not_converged", "line_search_stalls", "singular"), 0)

    def accept(self, status: np.ndarray, certified) -> None:
        """Tally a block's attempts by ``status``; take one certificate per converged
        attempt from the iterator ``certified``, accepting points in attempt order."""
        converged, not_converged, stalled = np.bincount(status, minlength=3).tolist()
        self.tally["not_converged"] += not_converged
        self.tally["line_search_stalls"] += stalled
        for point in islice(certified, converged):
            if isinstance(point, ProjectionError):
                self.tally["not_converged"] += 1
            elif isinstance(point, SingularPointError):
                self.tally["singular"] += 1
            else:
                self.points.append(point)

    def error(self) -> SamplingBudgetError:
        outcomes = {"attempts": self.attempt, **self.tally}
        breakdown = ", ".join(f"{key.replace('_', ' ')} {value}"
                              for key, value in self.tally.items())
        return SamplingBudgetError(
            f"only {len(self.points)} of {self.count} requested points certified "
            f"within {self.budget} attempts ({breakdown})",
            points=self.points,
            requested=self.count,
            outcomes=outcomes,
        )


def _sample(
    cfg: Configuration,
    strata: list[tuple[list[int], int, int]],
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    max_attempts_per_point: int = 50,
    null_sum: bool = False,
) -> list[list[VarietyPoint]]:
    """Certified points on each of ``strata``, all drawn on one link.

    A stratum is ``(pinned, seed, count)``: the real coordinates its starts
    hold at zero, the seed of its starts and the points it needs.  The link
    is the ambient one, or with ``null_sum`` the null quadric's, both built
    once per configuration (:func:`_link`).  Each round stacks every
    unfinished stratum's next attempts, at most :data:`_ATTEMPT_BLOCK` in
    all, drawn straight into one array, and projects and certifies them as
    one block.  One start source (:func:`_start_source`) serves every
    stratum of the call.  A stratum keeps its own attempt order, stream,
    budget and tally, so its points are those of its one-stratum call, bit
    for bit.  When the first unfinished stratum has spent its budget, its
    :class:`SamplingBudgetError` is raised, as one-stratum calls in list
    order would have raised it.

    No screen looks for certified points within 1e-6 of each other: two
    attempts land that close only with negligible probability.  Attempts
    ``i != j`` of a stratum have the Philox keys ``(seed, i) != (seed, j)``,
    so their starts are independent uniform draws on the sphere of the free
    coordinates, and each lands at a piecewise smooth function of its start.
    Near a certified (regular) point the stratum is a manifold of dimension
    d = free coordinates - equations >= 2n - 2m - 1, and weak hyperbolicity
    needs n >= 2m + 1, so d >= 3 on every stratum of an admissible link.
    Two points with a density on a d-manifold come within eps of each other
    with probability O(eps^d), some 1e-18 per pair at eps = 1e-6; on every
    fixture stratum the closest pair of 2,000 points is more than 0.1 apart.
    """
    for _, seed, count in strata:
        if not all(map(_is_int, (count, seed, max_attempts_per_point))):
            raise StructuralError("count, seed and max_attempts_per_point must be integers")
        if count < 1:
            raise StructuralError("count must be positive")
    if max_attempts_per_point < 1:
        raise StructuralError("max_attempts_per_point must be positive")
    _check_tol(tol, rank_tol)
    dim = cfg.ambient_real_dim
    ambient, (grad, rhs) = _link(cfg), _link(cfg, null_sum)
    draw = _start_source()
    runs = [_Run(dim, pinned, seed, count, count * max_attempts_per_point)
            for pinned, seed, count in strata]
    while True:
        unfinished = [run for run in runs if len(run.points) < run.count]
        if not unfinished:
            return [run.points for run in runs]
        if unfinished[0].attempt == unfinished[0].budget:
            raise unfinished[0].error()
        # Never more attempts than points still needed: the sequential loop
        # would have stopped at the same attempt.
        room, block = _ATTEMPT_BLOCK, []
        for run in unfinished:
            size = min(run.count - len(run.points), run.budget - run.attempt, room)
            if size:
                block.append((run, size))
                room -= size
        starts = np.zeros((sum(size for _, size in block), dim))
        row = 0
        for run, size in block:
            starts[row : row + size, run.free] = draw(run.seed, run.attempt, size, run.free_dim)
            run.attempt += size
            row += size
        X, _, status = _project_block(grad, rhs, starts, tol, MAX_ITER)
        certified = iter(_certify_block(cfg, ambient, X[status == _CONVERGED], tol, rank_tol))
        row = 0
        for run, size in block:
            run.accept(status[row : row + size], certified)
            row += size


def _verification_cases(cfg: Configuration, samples: int, seed: int, tol: float,
                        rank_tol: float) -> list[tuple[str, list[VarietyPoint]]]:
    """(name, points) pairs covering every degeneracy stratum, for :func:`.forms.verify`.

    The strata on the ambient link are sampled in one call; the null quadric
    of a mixed-m1 link with s >= 2 adds two equations, so it takes another.
    """
    names, strata = ["generic"], [((), seed, samples)]
    if cfg.kind == "mixed-m1":
        names.append("stratum w = 0")
        strata.append((_stratum(cfg, tuple(range(cfg.s)))[0], seed + 1, samples))
    elif cfg.kind == "mixed-general":
        index = 1
        for size in range(1, cfg.m + 1):
            for K in combinations(range(cfg.m), size):
                names.append(f"stratum w{sorted(K)} = 0")
                strata.append((_stratum(cfg, K)[0], seed + index, samples))
                index += 1
    cases = list(zip(names, _sample(cfg, strata, tol=tol, rank_tol=rank_tol)))
    if cfg.kind == "mixed-m1" and cfg.s >= 2:
        # The null quadric minus {w = 0}: kernel stays 1-dimensional and
        # the form stays contact there, so these points count as generic
        # for the per-point checks of verify.
        cases += zip(["null-quadric stratum"],
                     _sample(cfg, [((), seed + 2, samples)], tol=tol, rank_tol=rank_tol,
                             null_sum=True))
    return cases
