"""Configurations of Hermitian quadrics and their admissibility.

A configuration is a tuple ``Lambda = (lambda_1, ..., lambda_n)`` of vectors
in C^m, the coefficients of the system of quadrics

    F_k(z) = sum_j lambda_j^k |z_j|^2,       k = 1..m.

Two convex-position conditions drive everything downstream:

* the **Siegel condition**: the origin lies in the convex hull of the
  ``lambda_j`` (viewed in R^{2m});
* **weak hyperbolicity**: the origin does *not* lie in the convex hull of any
  ``2m`` of them.

A configuration satisfying both is *admissible*.  The Siegel condition is
decided by one hull-distance LP.  For weak hyperbolicity, one batched SVD
bounds the hull distance of every ``2m``-subset from below by
``sigma_min / (2m)``; only the subsets that bound leaves inside the tie band
go to the LP, in lexicographic order.  Every LP distance is recomputed from
the weights the solver returned, so a distance comes with a hull point as its
witness.  All tolerances are explicit parameters.

Conventions used throughout the package:

* ``lambdas`` is a complex array of shape ``(n, m)`` — row ``j`` is
  ``lambda_j``;
* complex data is realified by interleaving: ``z -> (Re z, Im z)`` per
  complex coordinate, in coordinate order;
* numerical rank = number of singular values exceeding ``rank_tol`` times
  the largest one (:func:`numerical_rank`, default :data:`DEFAULT_RANK_TOL`);
  every rank in the package goes through it, and complex ranks are computed
  as half the real rank of the realified matrix;
* one tie band, ``(cut / 10, 10 * cut]`` (:func:`in_tie_band`), flags every
  verdict too close to its cut to trust: hull distances here, singular
  values in :mod:`.forms`, quadric magnitudes in :mod:`.actions`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import NumericalError, StructuralError

KINDS = ("classical", "mixed-m1", "mixed-general")

#: Factor defining the "degeneracy band": hull distances in
#: ``(tol / DEGENERACY_BAND, DEGENERACY_BAND * tol]`` are treated as ties and
#: flagged (see :func:`in_tie_band`).
DEGENERACY_BAND = 10.0

#: Relative numerical-rank cut (see :func:`numerical_rank`).
DEFAULT_RANK_TOL = 1e-8

#: Subsets per batched SVD in :func:`check_weak_hyperbolicity`.  Bounds the
#: memory for large C(n, 2m) and the work done before an early exit.
_SUBSET_BLOCK = 256


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
        """Number of complex w coordinates (0, s or m depending on kind)."""
        if self.kind == "classical":
            return 0
        if self.kind == "mixed-m1":
            return int(self.s)
        return self.m

    @property
    def ambient_complex_dim(self) -> int:
        return self.w_count + self.n

    @property
    def ambient_real_dim(self) -> int:
        return 2 * self.ambient_complex_dim

    @property
    def equation_count(self) -> int:
        """Real equations cutting the link: 2 per complex quadric plus the sphere."""
        if self.kind == "mixed-m1":
            return 3
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
        for r in range(s):  # w_r^2 joins quadric r (mixed-general) or the one quadric
            k = r if self.kind == "mixed-general" else 0
            x, y = 2 * r, 2 * r + 1
            quads[2 * k, x, x], quads[2 * k, y, y] = 1.0, -1.0
            quads[2 * k + 1, x, y] = quads[2 * k + 1, y, x] = 1.0
        quads[-1] = np.eye(dim)
        quads.flags.writeable = False
        return quads

    def realified_lambdas(self) -> np.ndarray:
        """The lambda_j as rows of a real (n, 2m) matrix (interleaved Re/Im)."""
        out = np.empty((self.n, 2 * self.m))
        out[:, 0::2] = self.lambdas.real
        out[:, 1::2] = self.lambdas.imag
        return out

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


def hull_distance(points: np.ndarray) -> float:
    """Minimal sup-norm distance from the origin to the hull of ``points``.

    ``points`` has one point per row.  Solves the LP

        min u  s.t.  -u <= (sum_i t_i p_i)_d <= u,  sum t = 1,  t >= 0.

    The value returned is not the LP objective but ``max |sum_i t_i p_i|``
    for the weights ``t`` the solver returned, clipped to ``t >= 0`` and
    renormalised: an upper bound on the distance with a hull point as its
    witness.  The objective alone reads 0 for hulls that miss the origin by
    less than the solver's feasibility tolerance; the recomputed distance
    does not.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise StructuralError("points must be a nonempty 2-d array")
    p, d = pts.shape
    c = np.zeros(p + 1)
    c[-1] = 1.0
    ones = np.ones((d, 1))
    a_ub = np.block([[pts.T, -ones], [-pts.T, -ones]])
    b_ub = np.zeros(2 * d)
    a_eq = np.concatenate([np.ones(p), [0.0]]).reshape(1, -1)
    # At HiGHS's default primal feasibility tolerance (1e-7) the returned
    # vertex can lie twice as far from the origin as the optimum when the
    # hull passes within 1e-8 of it; 1e-10 is the smallest value HiGHS takes.
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (p + 1), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise NumericalError(f"hull-distance LP failed: {res.message}")
    t = np.clip(res.x[:p], 0.0, None)
    return float(np.max(np.abs(pts.T @ (t / t.sum()))))


def origin_in_hull(points: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether the origin lies in the convex hull of the rows of ``points``."""
    return hull_distance(points) <= tol


def rank_cut(sigma: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """The cut of :func:`numerical_rank`: ``rank_tol`` times the largest value, 0 if none."""
    return float(rank_tol * sigma[0]) if len(sigma) else 0.0


def numerical_rank(sigma: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values strictly above :func:`rank_cut`.

    ``sigma`` is in the descending order ``np.linalg.svd`` returns, so
    callers that also need the singular vectors keep their one SVD.  Empty
    or all-zero input has rank 0; a value exactly at the cut does not count.
    """
    return int(np.count_nonzero(sigma > rank_cut(sigma, rank_tol)))


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


def check_siegel(cfg: Configuration, tol: float = 1e-9) -> tuple[bool, float]:
    """Siegel condition: 0 in H(Lambda).  Returns (verdict, hull distance)."""
    dist = hull_distance(cfg.realified_lambdas())
    return dist <= tol, dist


def check_weak_hyperbolicity(
    cfg: Configuration, tol: float = 1e-9
) -> tuple[bool, tuple[int, ...] | None, bool]:
    """Weak hyperbolicity: 0 not in the hull of any 2m of the lambda_j.

    Returns ``(ok, violating_subset, degenerate)``.  The first subset (in
    lexicographic order) whose hull passes within ``tol`` of the origin is
    reported, and ``degenerate`` is set when its hull distance lies in the
    tie band ``(tol / 10, 10 * tol]`` (:func:`in_tie_band`).  With no such
    subset, ``degenerate`` is set when any subset's hull distance lies in
    the band.

    For the square matrix P of a subset's 2m realified rows, every hull
    point P^T t satisfies ``|P^T t|_inf >= |P^T t|_2 / sqrt(2m) >=
    sigma_min(P) / (2m)``.  One batched SVD per block of subsets evaluates
    that bound, less a rounding allowance; a subset whose bound exceeds the
    band is neither a violator nor a tie and needs no LP.
    """
    pts = cfg.realified_lambdas()
    size = 2 * cfg.m
    # A backward-stable SVD gets each singular value to within a small
    # multiple of size * eps * sigma_max.
    allowance = 16 * size * np.finfo(float).eps
    subsets = combinations(range(cfg.n), size)
    degenerate = False
    while block := list(islice(subsets, _SUBSET_BLOCK)):
        sigma = np.linalg.svd(pts[np.array(block)], compute_uv=False)
        bound = (sigma[:, -1] - allowance * sigma[:, 0]) / size
        for i in np.flatnonzero(bound <= DEGENERACY_BAND * tol):
            subset = block[i]
            dist = hull_distance(pts[list(subset)])
            if dist <= tol:
                return False, subset, in_tie_band(dist, tol)
            degenerate = degenerate or in_tie_band(dist, tol)
    return True, None, degenerate


def hull_dimension(cfg: Configuration, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Affine dimension of the convex hull of the lambda_j in R^{2m}."""
    pts = cfg.realified_lambdas()
    sigma = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return numerical_rank(sigma, rank_tol)


def check_admissible(cfg: Configuration, tol: float = 1e-9) -> AdmissibilityReport:
    """Decide admissibility (Siegel + weak hyperbolicity) of a configuration.

    Ties at the tolerance boundary — hull distances inside the band
    ``(tol / 10, 10 * tol]`` (:func:`in_tie_band`) on either test — set the
    ``degenerate`` flag and make the final verdict "not admissible", since
    downstream rank guarantees need strict admissibility.
    """
    siegel, siegel_dist = check_siegel(cfg, tol)
    degenerate = in_tie_band(siegel_dist, tol)
    wh, violating, wh_degenerate = check_weak_hyperbolicity(cfg, tol)
    return AdmissibilityReport(
        siegel=siegel,
        weak_hyperbolicity=wh,
        violating_subset=violating,
        hull_dimension=hull_dimension(cfg),
        degenerate=degenerate or wh_degenerate,
    )


def check_mixed_admissible(cfg: Configuration, tol: float = 1e-9) -> MixedAdmissibilityReport:
    """Admissibility of every nonempty sub-configuration (lambda^k_j)_{k in K}.

    For mixed varieties the quadrics indexed by a subset K keep acting on the
    z variables when the complementary w's vanish, so admissibility must hold
    for every nonempty K subset of {1..m}, not just the full set.  K is
    reported 0-based.
    """
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
    return numerical_rank(sigma, rank_tol) // 2


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
        "lambdas": [[[float(v.real), float(v.imag)] for v in row] for row in cfg.lambdas],
        "weights_a": [float(x) for x in cfg.weights_a],
        "weights_b": [float(x) for x in cfg.weights_b],
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
