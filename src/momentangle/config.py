"""Configurations of Hermitian quadrics and their admissibility.

A configuration is a tuple ``Lambda = (lambda_1, ..., lambda_n)`` of vectors
in C^m, the coefficients of the system of quadrics

    F_k(z) = sum_j lambda_j^k |z_j|^2,       k = 1..m.

Two convex-position conditions drive everything downstream:

* the **Siegel condition**: the origin lies in the convex hull of the
  ``lambda_j`` (viewed in R^{2m});
* **weak hyperbolicity**: the origin does *not* lie in the convex hull of any
  ``2m`` of them.

A configuration satisfying both is *admissible*.  Every hull verdict, for
the Siegel condition and for a ``2m``-subset, is :func:`_hull_verdict`: the
non-negative least-squares weights of the hull give either a hull point
near the origin or a plane that separates the hull from it, each checked by
recomputation, and the hull-distance LP (:func:`hull_distance`) runs only
when neither certificate clears the tie band.  For weak hyperbolicity, one
stacked ``slogdet`` per block of ``2m``-subsets bounds each subset's hull
distance from below (:func:`_sigma_min_floors`); only the subsets that bound
leaves inside the tie band get a hull verdict, in lexicographic order.  The
package's one LP is in :func:`hull_distance`, at unit scale, and its one
NNLS in :func:`_hull_weights`, which first tries a plain least-squares solve
and calls NNLS only when that gives a negative weight; every hull distance
is :func:`witness_distance` of weights, a hull point as witness: the NNLS or
LP weights here, a point's own t = |z|^2 in :mod:`.toric`.
``scipy.optimize`` is imported on the first NNLS or LP, not with the
package, so hulls whose least-squares weights are all ``>= 0``, the paper's
fixtures among them, never load it.
All tolerances are explicit.

Conventions used throughout the package:

* ``lambdas`` is a complex array of shape ``(n, m)`` — row ``j`` is
  ``lambda_j``;
* complex data is realified by interleaving: ``z -> (Re z, Im z)`` per
  complex coordinate, in coordinate order (:func:`realify`, inverse
  :func:`complexify`);
* numerical rank = number of singular values exceeding ``rank_tol`` times
  the largest one (:func:`numerical_rank`, default :data:`DEFAULT_RANK_TOL`);
  every rank in the package goes through it, and complex ranks are computed
  as half the real rank of the realified matrix;
* one tie band, ``(cut / 10, 10 * cut]`` (:func:`in_tie_band`), flags every
  verdict too close to its cut to trust: hull distances here, singular
  values in :mod:`.forms`, quadric magnitudes in :mod:`.actions`.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericalError, StructuralError

KINDS = ("classical", "mixed-m1", "mixed-general")

#: Factor defining the "degeneracy band": hull distances in
#: ``(tol / DEGENERACY_BAND, DEGENERACY_BAND * tol]`` are treated as ties and
#: flagged (see :func:`in_tie_band`).
DEGENERACY_BAND = 10.0

#: Relative numerical-rank cut (see :func:`numerical_rank`).
DEFAULT_RANK_TOL = 1e-8

#: Default hull-distance cut of the hull verdicts (:func:`origin_in_hull`,
#: the Siegel and weak-hyperbolicity checks) and of the ``check`` command.
HULL_TOL = 1e-9

#: Rows per block of :func:`_subset_blocks`: subsets per stacked ``slogdet`` in
#: :func:`check_weak_hyperbolicity`, and bases per stacked solve in
#: :func:`.toric._vertices`.  Bounds the memory for large C(n, 2m) and the
#: work done before an early exit.
_SUBSET_BLOCK = 256

#: Squared Frobenius norm below which :func:`_sigma_min_floors` proves
#: nothing: above it, underflow is far below the rounding its proof allows for.
_FLOOR_FROBENIUS = 2.0**-900


@dataclass(frozen=True, eq=False)
class Configuration:
    """A configuration of ``n`` quadric coefficient vectors in C^m.

    Parameters
    ----------
    lambdas:
        Complex array of shape ``(n, m)`` (a 1-d array of length ``n`` is
        accepted for ``m = 1``).
    kind:
        ``"classical"`` (no w variables), ``"mixed-m1"`` (one quadric,
        ``s`` squared w variables) or ``"mixed-general"`` (``m`` quadrics,
        one squared w variable each).
    s:
        Number of w variables; required iff ``kind == "mixed-m1"``.
    weights_a, weights_b:
        Strictly positive coefficients of the 1-form ``alpha`` on the w block
        and the z block respectively.  Default to ones.
    """

    lambdas: np.ndarray
    kind: str = "classical"
    s: int | None = None
    weights_a: np.ndarray | None = None
    weights_b: np.ndarray | None = None

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=complex))
        if lam.ndim == 1:
            lam = lam.reshape(-1, 1)
        if lam.ndim != 2:
            raise StructuralError("lambdas must be a (n, m) array")
        if not np.all(np.isfinite(lam)):
            raise StructuralError("lambdas must be finite")
        object.__setattr__(self, "lambdas", lam)

        n, m = lam.shape
        if self.kind not in KINDS:
            raise StructuralError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if m < 1:
            raise StructuralError("m >= 1 is required")
        if n <= 3:
            raise StructuralError(f"n > 3 is required (got n = {n})")
        if n <= 2 * m:
            raise StructuralError(f"n > 2m is required (got n = {n}, m = {m})")

        if self.kind == "mixed-m1":
            if m != 1:
                raise StructuralError("mixed-m1 requires m = 1")
            if not _is_int(self.s) or self.s < 1:
                raise StructuralError("mixed-m1 requires a positive integer s")
        elif self.s is not None:
            raise StructuralError(f"kind {self.kind!r} does not take s")

        wa = np.ones(self.w_count) if self.weights_a is None else np.asarray(self.weights_a, dtype=float)
        wb = np.ones(n) if self.weights_b is None else np.asarray(self.weights_b, dtype=float)
        if wa.shape != (self.w_count,):
            raise StructuralError(f"weights_a must have length {self.w_count}")
        if wb.shape != (n,):
            raise StructuralError(f"weights_b must have length {n}")
        if not (np.all(np.isfinite(wa)) and np.all(np.isfinite(wb))):
            raise StructuralError("form weights must be finite")
        if (self.w_count and np.any(wa <= 0)) or np.any(wb <= 0):
            raise StructuralError("form weights must be strictly positive")
        object.__setattr__(self, "weights_a", wa)
        object.__setattr__(self, "weights_b", wb)

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    @property
    def m(self) -> int:
        return self.lambdas.shape[1]

    @property
    def w_count(self) -> int:
        """Number of complex w coordinates (0, s or m); w_r joins quadric ``w_quadric[r]``."""
        if self.kind == "classical":
            return 0
        if self.kind == "mixed-m1":
            return int(self.s)
        return self.m

    @cached_property
    def w_quadric(self) -> np.ndarray:
        """The quadric each w_r^2 joins, ``(w_count,)``, read-only: none on classical
        links, 0 for all s on mixed-m1 (m = 1), r for w_r on mixed-general (w_count = m)."""
        quadric = np.arange(self.w_count) % self.m
        quadric.flags.writeable = False
        return quadric

    @cached_property
    def _w_join(self) -> np.ndarray:
        """One-hot ``(w_count, m)`` of :attr:`w_quadric`, read-only."""
        join = np.eye(self.m)[self.w_quadric]
        join.flags.writeable = False
        return join

    @property
    def ambient_complex_dim(self) -> int:
        return self.w_count + self.n

    @property
    def ambient_real_dim(self) -> int:
        return 2 * self.ambient_complex_dim

    @property
    def equation_count(self) -> int:
        """Real equations cutting the link: 2 per complex quadric plus the sphere, 2m + 1."""
        return 2 * self.m + 1

    @property
    def manifold_dim(self) -> int:
        return self.ambient_real_dim - self.equation_count

    @cached_property
    def quadrics(self) -> np.ndarray:
        """The link as real quadrics: symmetric ``S_e``, shape ``(equations, dim, dim)``.

        Equation ``e`` reads ``x^T S_e x = d_e`` on the interleaved real
        vector ``x`` (w block first), in the row order of
        :func:`.variety.evaluate_system`: a (Re, Im) pair per complex
        quadric, then the sphere, the only row with ``d_e = 1``
        (``S = I``).  ``|z_j|^2`` is ``x_j^2 + y_j^2`` and
        ``w^2 = (x^2 - y^2) + i (2 x y)``.  Built once, read-only.
        """
        dim, s = self.ambient_real_dim, self.w_count
        quads = np.zeros((self.equation_count, dim, dim))
        z = np.arange(2 * s, dim)
        lam = np.repeat(self.lambdas, 2, axis=0)  # one row per real z coordinate
        for k in range(self.equation_count // 2):
            quads[2 * k, z, z] = lam[:, k].real
            quads[2 * k + 1, z, z] = lam[:, k].imag
        for r, k in enumerate(self.w_quadric.tolist()):  # w_r^2 joins quadric k
            x, y = 2 * r, 2 * r + 1
            quads[2 * k, x, x], quads[2 * k, y, y] = 1.0, -1.0
            quads[2 * k + 1, x, y] = quads[2 * k + 1, y, x] = 1.0
        quads[-1] = np.eye(dim)
        quads.flags.writeable = False
        return quads

    def realified_lambdas(self) -> np.ndarray:
        """The lambda_j as rows of a real (n, 2m) matrix (interleaved Re/Im)."""
        return realify(self.lambdas)

    def sub_configuration(self, components: Sequence[int]) -> "Configuration":
        """Restrict to the quadrics indexed by ``components`` (0-based)."""
        comps = tuple(components)
        if not comps or any(k < 0 or k >= self.m for k in comps):
            raise StructuralError("components must be a nonempty subset of range(m)")
        return Configuration(self.lambdas[:, comps], kind="classical")


def _is_int(value) -> bool:
    """An integer that is not a bool (``True`` is an ``int`` in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility decision for one configuration."""

    siegel: bool
    weak_hyperbolicity: bool
    violating_subset: tuple[int, ...] | None
    hull_dimension: int
    degenerate: bool = False

    @property
    def admissible(self) -> bool:
        """Conservative verdict: ties at the tolerance boundary reject."""
        return self.siegel and self.weak_hyperbolicity and not self.degenerate


@dataclass(frozen=True)
class MixedAdmissibilityReport:
    """Admissibility of every nonempty component subset K of {1..m}."""

    admissible: bool
    reports: dict[tuple[int, ...], AdmissibilityReport] = field(repr=False)

    @property
    def failing(self) -> tuple[tuple[int, ...], ...]:
        return tuple(K for K, rep in sorted(self.reports.items()) if not rep.admissible)


def _subset_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) in lexicographic order, as blocks of index rows.

    Each block is an ``(rows, k)`` array with at most :data:`_SUBSET_BLOCK`
    rows, in ``itertools.combinations`` order.  Built flat, then reshaped:
    ``fromiter`` takes ints 2.5 times faster than k-tuples.
    """
    subsets = combinations(range(n), k)
    while len(block := np.fromiter(chain.from_iterable(islice(subsets, _SUBSET_BLOCK)),
                                   np.intp).reshape(-1, k)):
        yield block


def realify(values: np.ndarray) -> np.ndarray:
    """Interleave a complex vector into (Re, Im, Re, Im, ...), along the last axis."""
    values = np.asarray(values, dtype=complex)
    out = np.empty(values.shape[:-1] + (2 * values.shape[-1],))
    out[..., 0::2] = values.real
    out[..., 1::2] = values.imag
    return out


def complexify(coords: np.ndarray) -> np.ndarray:
    """Inverse of :func:`realify`."""
    coords = np.asarray(coords, dtype=float)
    return coords[..., 0::2] + 1j * coords[..., 1::2]


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    Importing ``scipy.optimize`` takes most of the package's import time, and
    most commands solve neither an LP nor an NNLS.
    """
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def nnls(a, b):
    """``scipy.optimize.nnls``, imported on the first call (see :func:`linprog`).

    Called only by :func:`_hull_weights`, for a hull whose least-squares
    weights have a negative entry.
    """
    from scipy.optimize import nnls

    return nnls(a, b)


def witness_distance(points: np.ndarray, weights: np.ndarray):
    """``max |sum_i t_i p_i|`` for ``t`` = ``weights`` clipped to ``t >= 0`` and renormalised.

    The distance of one hull point, its witness: an upper bound on the hull's.
    Stacks ``(..., p, d)`` and ``(..., p)`` give an array ``(...)``, same bits.
    """
    t = np.maximum(weights, 0.0)
    t = t / t.sum(axis=-1, keepdims=True)
    dist = np.abs(t[..., None, :] @ points).max(axis=(-2, -1))
    return float(dist) if dist.ndim == 0 else dist


def _hull_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise StructuralError("points must be a nonempty 2-d array")
    if not np.isfinite(pts).all():
        raise StructuralError("points must be finite")
    return pts


def _unit_scale(points: np.ndarray) -> tuple[np.ndarray, int]:
    """``(points * 2**-e, e)``, with ``e`` putting the largest ``|entry|`` in [1/2, 1).

    All-zero points keep ``e = 0``.  Multiplying by a power of two is exact
    unless an entry underflows, and hulls scale with their points: the hull
    LP and the weak-hyperbolicity screen run at this scale, where no
    solver's absolute tolerance and no square or log of an entry is out of
    range.
    """
    e = math.frexp(float(np.abs(points).max(initial=0.0)))[1]
    return np.ldexp(points, -e), e


def hull_distance(points: np.ndarray) -> float:
    """Minimal sup-norm distance from the origin to the hull of ``points``.

    ``points`` has one point per row.  Solves the LP

        min u  s.t.  -u <= (sum_i t_i p_i)_d <= u,  sum t = 1,  t >= 0.

    The value returned is not the LP objective but :func:`witness_distance`
    of the weights ``t`` the solver returned.  The objective alone reads 0
    for hulls that miss the origin by less than the solver's feasibility
    tolerance; the recomputed distance does not.  The hull verdicts of the
    package call it only inside the tie band, where neither certificate of
    :func:`_hull_verdict` settles the verdict.  HiGHS runs at 1e-10 primal
    feasibility, its smallest: at its default 1e-7 a hull passing within 1e-8
    of the origin can return a vertex twice as far as the optimum.  That
    tolerance is absolute, so the LP sees the points at unit scale
    (:func:`_unit_scale`), and the distance is the same for ``c * points``,
    ``c`` a power of two, up to the factor ``c``.
    """
    pts = _hull_points(points)
    p, d = pts.shape
    scaled = _unit_scale(pts)[0].T
    c = np.zeros(p + 1)
    c[-1] = 1.0
    ones = np.ones((d, 1))
    a_ub = np.block([[scaled, -ones], [-scaled, -ones]])
    a_eq = np.concatenate([np.ones(p), [0.0]]).reshape(1, -1)
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * d), A_eq=a_eq, b_eq=[1.0], bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise NumericalError(f"hull-distance LP failed: {res.message}")
    return witness_distance(pts, res.x[:p])


def _least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of ``a t = b``, of any rank (``np.linalg.lstsq``)."""
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _hull_weights(points: np.ndarray) -> np.ndarray | None:
    """Unchecked NNLS weights ``t >= 0`` of ``[P^T; 1^T] t = e_last``; None if NNLS raises.

    The least-squares solution (:func:`_least_squares`) comes first: when it
    is ``>= 0`` it minimizes ``|A t - e|`` over all ``t``, so over ``t >= 0``
    too, and it is returned as it is.  Every minimizer has the same ``A t``,
    so the hull point ``P^T t / sum t`` and the plane ``y = P^T t`` of
    :func:`_hull_verdict` are those of any NNLS solution, and the KKT bound
    ``p_j . y >= |A t - e|^2`` holds with equality.  Only a negative entry, or
    ``lstsq`` raising, takes the NNLS solve (:func:`nnls`).
    """
    p, d = points.shape
    a = np.ones((d + 1, p))
    a[:d] = points.T
    e = np.zeros(d + 1)
    e[-1] = 1.0
    with contextlib.suppress(np.linalg.LinAlgError):
        t = _least_squares(a, e)
        if (t >= 0).all():
            return t
    try:
        return nnls(a, e)[0]
    except RuntimeError:
        return None


def _hull_verdict(points: np.ndarray, tol: float) -> tuple[bool, bool]:
    """``(inside, tie)``: whether :func:`hull_distance` is ``<= tol``, and in the tie band.

    The NNLS weights ``t >= 0`` of :func:`_hull_weights`, for
    ``A = [P^T; 1^T]`` and ``e = (0, ..., 0, 1)``, certify most verdicts
    without an LP.  They are the least-squares solution when it has no
    negative entry, and scipy's NNLS solution otherwise; either way:

    * inside, not a tie: ``t`` is a hull point whose :func:`witness_distance`,
      plus a rounding allowance, is at most ``tol / DEGENERACY_BAND``;
    * outside, not a tie: ``y = P^T t``, the top of the residual ``A t - e``,
      satisfies ``p_j . y >= |A t - e|^2 > 0`` by the KKT conditions, so
      every hull point ``x`` has ``|x|_inf >= y . x / |y|_1 >= min_j p_j . y
      / |y|_1``.  The minimum, recomputed and less a rounding allowance,
      must exceed ``DEGENERACY_BAND * tol * |y|_1``.

    The weights are those of the points at unit scale (:func:`_unit_scale`):
    the ones row of ``A`` does not scale with ``P``, so weights solved at the
    caller's scale differ from scale to scale, and at scales far from 1
    neither certificate cleared.  Both certificates are recomputed from
    ``points``; the solver's answer is never taken on trust.  Otherwise, or
    when there are no weights (NNLS fails to converge), the LP decides as
    :func:`hull_distance` ``<= tol``, a tie when the distance lies in
    :func:`in_tie_band` widened by the inside certificate's rounding
    allowance: a ``tol`` below that allowance gets a tie, not a confident
    verdict that rounding alone decided.
    """
    pts = _hull_points(points)
    p, d = pts.shape
    # A computed dot product of k terms is off by at most k * eps times the
    # sum of the absolute products; 16 leaves room for the rest.
    eps = np.finfo(float).eps
    allowance = float(16 * p * eps * np.abs(pts).max())
    t = _hull_weights(_unit_scale(pts)[0])
    if t is not None:
        if t.sum() > 0 and witness_distance(pts, t) + allowance <= tol / DEGENERACY_BAND:
            return True, False
        y = pts.T @ t
        norms = np.linalg.norm(pts, axis=1)
        margin = (pts @ y).min() - 16 * d * eps * norms.max() * np.linalg.norm(y)
        if margin > DEGENERACY_BAND * tol * np.abs(y).sum():
            return False, False
    dist = hull_distance(pts)
    tie = tol / DEGENERACY_BAND - allowance < dist <= DEGENERACY_BAND * tol + allowance
    return dist <= tol, tie


def origin_in_hull(points: np.ndarray, tol: float = HULL_TOL) -> bool:
    """Whether the origin lies in the convex hull of the rows of ``points``.

    The verdict of :func:`_hull_verdict`: a hull distance of at most ``tol``.
    """
    check_tolerances(tol)
    return _hull_verdict(points, tol)[0]


def rank_cut(sigma: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The cut of :func:`numerical_rank`: ``rank_tol`` times the largest value.

    Acts on the last axis of ``sigma`` and keeps it: for values ``(..., k)``
    the cuts have shape ``(..., 1)``, ready to compare against ``sigma``.
    Empty rows, which have nothing to cut, give shape ``(..., 0)``.
    """
    return rank_tol * np.asarray(sigma, dtype=float)[..., :1]


def numerical_rank(sigma: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL):
    """Number of singular values strictly above :func:`rank_cut`, along the last axis.

    ``sigma`` is in the descending order ``np.linalg.svd`` returns, so
    callers that also need the singular vectors keep their one SVD, and a
    stack ``(..., k)`` such as the stacked output of ``np.linalg.svd``
    gives an integer array of shape ``(...)``; one row gives a NumPy integer.
    Empty or all-zero rows have rank 0; a value exactly at the cut does not
    count.
    """
    sigma = np.asarray(sigma, dtype=float)
    return (sigma > rank_cut(sigma, rank_tol)).sum(axis=-1)


def _solve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack, with nan in the rows whose matrix is singular.

    numpy fails the whole stack on one singular matrix; the rows are then
    solved one at a time, which gives the same bits, so no row's solution
    depends on the rows that share its block.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(a)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.solve(a[i], b[i])
        return out


def _realify_matrix(matrix: np.ndarray) -> np.ndarray:
    """Real 2p x 2q representation [[Re, -Im], [Im, Re]] of a complex matrix."""
    re, im = matrix.real, matrix.imag
    return np.block([[re, -im], [im, re]])


def in_tie_band(value, tol: float):
    """Whether ``value`` is a tie at the cut ``tol``.

    The band is ``(tol / DEGENERACY_BAND, DEGENERACY_BAND * tol]``: too close
    to the cut for the verdict ``value <= tol`` to be trusted either way.
    Elementwise for arrays; a bool for a Python float.
    """
    return (tol / DEGENERACY_BAND < value) & (value <= DEGENERACY_BAND * tol)


def check_tolerances(tol: float, rank_tol: float = DEFAULT_RANK_TOL) -> None:
    """Reject a ``tol`` that is not finite and positive, or a ``rank_tol`` outside (0, 1).

    A bool is neither: ``True`` would otherwise pass as ``tol = 1``, while
    the range of ``rank_tol`` already excludes ``True`` and ``False``.

    The boundary check for every tolerance that comes from outside the
    program: the command line, and every public function that takes one.
    """
    if isinstance(tol, (bool, np.bool_)) or not (math.isfinite(tol) and tol > 0):
        raise StructuralError(f"tol must be finite and positive, got {tol!r}")
    if not 0 < rank_tol < 1:
        raise StructuralError(f"rank_tol must lie in (0, 1), got {rank_tol!r}")


def check_siegel(cfg: Configuration, tol: float = HULL_TOL) -> tuple[bool, bool]:
    """Siegel condition: 0 in H(Lambda).  Returns ``(verdict, degenerate)``.

    ``degenerate`` is set when the hull distance lies in the tie band
    ``(tol / 10, 10 * tol]`` (:func:`in_tie_band`); see :func:`_hull_verdict`.
    """
    check_tolerances(tol)
    return _hull_verdict(cfg.realified_lambdas(), tol)


def _sigma_min_floors(mats: np.ndarray) -> np.ndarray:
    """Proven lower bounds on ``sigma_min`` of each ``k x k`` matrix of the stack ``mats``.

    The entries must be below 1 in magnitude, as :func:`_unit_scale` leaves
    them.  A bound is nan, or not positive, where nothing is proved: for a
    singular matrix (``slogdet`` gives -inf) and where the squared Frobenius
    norm is below :data:`_FLOOR_FROBENIUS`.  :func:`check_weak_hyperbolicity`
    gives the formula and proves it.
    """
    k = mats.shape[-1]
    h = (k - 1) / 2
    eps = np.finfo(float).eps
    eta = k**3 * 2.0 ** (k - 2) * eps  # the proof's eta and a, with u = eps / 2
    a = k * eta + 500 * k * (k + 11) * eps
    logdet = np.linalg.slogdet(mats).logabsdet
    frob2 = np.einsum("sij,sij->s", mats, mats)
    # Clamped, a zero frob2 takes no log of 0; its bound is replaced below.
    logf = np.log(np.maximum(frob2, _FLOOR_FROBENIUS))
    floors = np.exp(logdet - h * logf + (h * math.log(k - 1) - a)) - 2 * eta * np.sqrt(frob2)
    floors[frob2 < _FLOOR_FROBENIUS] = np.nan
    return floors


def check_weak_hyperbolicity(
    cfg: Configuration, tol: float = HULL_TOL
) -> tuple[bool, tuple[int, ...] | None, bool]:
    """Weak hyperbolicity: 0 not in the hull of any 2m of the lambda_j.

    Returns ``(ok, violating_subset, degenerate)``.  The first subset (in
    lexicographic order) whose hull passes within ``tol`` of the origin is
    reported, and ``degenerate`` is set when its hull distance lies in the
    tie band ``(tol / 10, 10 * tol]`` (:func:`in_tie_band`).  With no such
    subset, ``degenerate`` is set when any subset's hull distance lies in
    the band.

    For the square matrix P of a subset's ``k = 2m`` realified rows, every
    hull point ``P^T t`` satisfies ``|P^T t|_inf >= |P^T t|_2 / sqrt(k) >=
    sigma_k(P) / k``.  By AM-GM on ``sigma_1^2, ..., sigma_{k-1}^2``, whose
    sum is at most ``F^2 = |P|_F^2``,

        sigma_k >= |det P| ((k - 1) / F^2)^h,   h = (k - 1) / 2;

    for ``k = 2`` this is ``|det P| / F``.  The points are first scaled by
    a power of two (:func:`_unit_scale`), and the cut ``10 * tol`` by the
    same power.  Then one stacked ``np.linalg.slogdet`` per block of subsets
    gives ``l = log|det P|`` (LAPACK ``getrf`` with partial pivoting; a
    singular matrix gives -inf and does not raise), and
    :func:`_sigma_min_floors` evaluates

        lower = exp(l - h log F^2 + (h log(k - 1) - a)) - 2 eta F,
        eta = k^3 2^(k-1) u,   a = k eta + 1000 k (k + 11) u,

    ``u = eps / 2``.  A subset is cleared only where ``lower > k * cut`` is
    True, so a nan or -inf leaves it flagged; the flagged subsets get a
    :func:`_hull_verdict` on the unscaled points, in lexicographic order.

    Why a cleared subset's hull distance exceeds the cut (first order in
    ``u``, ``gamma_j = j u / (1 - j u)``; Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 3 and 9):

    1. After scaling every entry is below 1.  A subset whose computed
       ``F^2`` is below ``2^-900`` (:data:`_FLOOR_FROBENIUS`) is never
       cleared; above it, underflow in the scaling, the squares and the LU
       is far below the terms that follow, which ignore it.
    2. ``getrf`` returns ``L U = Pi P + dP`` with ``|dP| <= gamma_k |L||U|``
       (Thm 9.3).  Partial pivoting keeps ``|l_ij| <= 1`` and ``|u_ij| <=
       2^(k-1) max |p_ij| <= 2^(k-1) F`` (the growth factor, sec. 9.3), so
       every entry of ``|L||U|`` is at most ``k 2^(k-1) F`` and ``|dP|_F <=
       eta F``.
    3. The product ``D`` of the ``|u_ii|`` is exactly ``|det Q|`` for ``Q =
       P + Pi^T dP``.  By AM-GM, ``sigma_k(Q) >= D ((k - 1) / |Q|_F^2)^h``
       with ``|Q|_F <= (1 + eta) F``, and by Weyl ``sigma_k(P) >=
       sigma_k(Q) - eta F``.  The computed ``F^2``, a sum of ``k^2``
       squares, is within ``gamma_{k^2}`` of the exact one.  Together these
       lose a factor ``1 - (k - 1) eta - h k^2 u`` and the term ``eta F``.
    4. Taking each log and exp within 4 ulps: the ``k`` logs that
       ``slogdet`` sums are at most 745 in magnitude (``2^-1074 <= |u_ii| <
       2^k``), so ``l`` is within ``745 k (k + 7) u`` of ``log D``.  The
       rest of the exponent, ``h log F^2`` at most ``625 h`` in magnitude
       (``2^-900 <= F^2 < k^2``) and a constant, and then the exp, the
       difference and the product ``k * cut`` add at most ``(1490 k + 7701 h
       + 10) u``.

    The ``a`` in the exponent exceeds the relative losses of steps 3 and 4,
    ``745 k^2 + 6705 k + 7701 h + h k^2 + 10`` units of ``u`` plus ``(k - 1)
    eta``, by at least ``255 k^2`` units, which covers the second-order
    terms, and ``2 eta F`` covers ``eta F`` with its rounding.  So ``lower``
    is at most ``sigma_k(P)`` and ``lower / k`` at most the hull distance.
    The scaled cut is exact, raised to the smallest normal float where it
    would underflow and infinite where it would overflow, so it is never
    below the exact one.
    """
    check_tolerances(tol)
    pts = cfg.realified_lambdas()
    scaled, shift = _unit_scale(pts)
    size = 2 * cfg.m
    try:
        cut = size * max(math.ldexp(DEGENERACY_BAND * tol, -shift), sys.float_info.min)
    except OverflowError:  # a cut above every hull distance clears nothing
        cut = math.inf
    degenerate = False
    for block in _subset_blocks(cfg.n, size):
        cleared = _sigma_min_floors(scaled[block]) > cut
        for subset in map(tuple, block[~cleared].tolist()):
            inside, tie = _hull_verdict(pts[list(subset)], tol)
            if inside:
                return False, subset, tie
            degenerate = degenerate or tie
    return True, None, degenerate


def hull_dimension(cfg: Configuration, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Affine dimension of the convex hull of the lambda_j in R^{2m}."""
    pts = cfg.realified_lambdas()
    sigma = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return int(numerical_rank(sigma, rank_tol))


def check_admissible(cfg: Configuration, tol: float = HULL_TOL) -> AdmissibilityReport:
    """Decide admissibility (Siegel + weak hyperbolicity) of a configuration.

    Ties at the tolerance boundary — hull distances inside the band
    ``(tol / 10, 10 * tol]`` (:func:`in_tie_band`) on either test — set the
    ``degenerate`` flag and make the final verdict "not admissible", since
    downstream rank guarantees need strict admissibility.
    """
    check_tolerances(tol)
    siegel, degenerate = check_siegel(cfg, tol)
    wh, violating, wh_degenerate = check_weak_hyperbolicity(cfg, tol)
    return AdmissibilityReport(
        siegel=siegel,
        weak_hyperbolicity=wh,
        violating_subset=violating,
        hull_dimension=hull_dimension(cfg),
        degenerate=degenerate or wh_degenerate,
    )


def check_mixed_admissible(cfg: Configuration,
                           tol: float = HULL_TOL) -> MixedAdmissibilityReport:
    """Admissibility of every nonempty sub-configuration (lambda^k_j)_{k in K}.

    For mixed varieties the quadrics indexed by a subset K keep acting on the
    z variables when the complementary w's vanish, so admissibility must hold
    for every nonempty K subset of {1..m}, not just the full set.  K is
    reported 0-based.
    """
    check_tolerances(tol)
    reports: dict[tuple[int, ...], AdmissibilityReport] = {}
    for size in range(1, cfg.m + 1):
        for K in combinations(range(cfg.m), size):
            reports[K] = check_admissible(cfg.sub_configuration(K), tol)
    ok = all(rep.admissible for rep in reports.values())
    return MixedAdmissibilityReport(admissible=ok, reports=reports)


def check_regularity_rank(
    cfg: Configuration, subset: Iterable[int], rank_tol: float = DEFAULT_RANK_TOL
) -> int:
    """Complex rank of the (m+1) x |J| matrix with columns (lambda_j, 1), j in J.

    For admissible configurations this equals m + 1 whenever the origin lies
    in the hull of the selected lambda_j — the regularity lemma behind the
    maximal-rank property of the quadric system.  Computed as half the real
    rank of the realified matrix.
    """
    J = sorted(set(int(j) for j in subset))
    if not J or J[0] < 0 or J[-1] >= cfg.n:
        raise StructuralError("subset must be a nonempty subset of range(n)")
    block = np.vstack([cfg.lambdas[J].T, np.ones(len(J))])
    sigma = np.linalg.svd(_realify_matrix(block), compute_uv=False)
    return int(numerical_rank(sigma, rank_tol)) // 2


# ---------------------------------------------------------------------------
# JSON interchange


_REQUIRED_KEYS = {"m", "n", "kind", "lambdas"}
_OPTIONAL_KEYS = {"s", "weights_a", "weights_b"}


def configuration_from_dict(data: dict) -> Configuration:
    """Build a :class:`Configuration` from its JSON dictionary form.

    Schema::

        {
          "m": int, "n": int,
          "kind": "classical" | "mixed-m1" | "mixed-general",
          "s": int,                      # mixed-m1 only
          "lambdas": [[[re, im], ...m pairs...], ...n rows...],
          "weights_a": [...], "weights_b": [...]
        }

    Unknown fields are rejected.
    """
    if not isinstance(data, dict):
        raise StructuralError("configuration JSON must be an object")
    unknown = set(data) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise StructuralError(f"unknown configuration fields: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise StructuralError(f"missing configuration fields: {sorted(missing)}")

    m, n = data["m"], data["n"]
    if not _is_int(m) or not _is_int(n) or m < 1 or n < 1:
        raise StructuralError("m and n must be positive integers")
    raw = data["lambdas"]
    if not isinstance(raw, list) or len(raw) != n:
        raise StructuralError(f"lambdas must be a list of {n} rows")
    entries = []
    for j, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != m:
            raise StructuralError(f"lambdas[{j}] must be a list of {m} [re, im] pairs")
        for k, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise StructuralError(f"lambdas[{j}][{k}] must be a [re, im] pair")
            re, im = (_real(x, f"lambdas[{j}][{k}]") for x in pair)
            entries.append(complex(re, im))
    lam = np.array(entries, dtype=complex).reshape(n, m)

    s = data.get("s")
    if s is not None and not _is_int(s):
        raise StructuralError("s must be an integer")
    wa = data.get("weights_a")
    wb = data.get("weights_b")
    return Configuration(
        lam,
        kind=data["kind"],
        s=s,
        weights_a=None if wa is None else _real_vector(wa, "weights_a"),
        weights_b=None if wb is None else _real_vector(wb, "weights_b"),
    )


def _real(value, name: str) -> float:
    """A JSON number as a float; bools, other types and overflow are rejected."""
    if not (_is_int(value) or isinstance(value, float)):
        raise StructuralError(f"{name} must hold numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise StructuralError(f"{name} holds a number out of range") from exc


def _real_vector(values, name: str) -> np.ndarray:
    if not isinstance(values, list):
        raise StructuralError(f"{name} must be a list of numbers")
    return np.array([_real(x, name) for x in values], dtype=float)


def configuration_to_dict(cfg: Configuration) -> dict:
    """Inverse of :func:`configuration_from_dict`."""
    data: dict = {
        "m": cfg.m,
        "n": cfg.n,
        "kind": cfg.kind,
        "lambdas": np.stack([cfg.lambdas.real, cfg.lambdas.imag], axis=-1).tolist(),
        "weights_a": cfg.weights_a.tolist(),
        "weights_b": cfg.weights_b.tolist(),
    }
    if cfg.s is not None:
        data["s"] = cfg.s
    return data


def load_configuration(path) -> Configuration:
    """Load a configuration from a JSON file."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise StructuralError(f"cannot read configuration file: {exc}") from exc
    with fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"invalid JSON in {path}: {exc}") from exc
    return configuration_from_dict(data)
