"""The canonical 1-form alpha, its differential, kernels and contact volume.

On the ambient space (w block then z block, weights a_r and b_j):

    alpha = i * [ sum_r a_r (w_r dwbar_r - wbar_r dw_r)
                + sum_j b_j (z_j dzbar_j - zbar_j dz_j) ].

In the canonical realification this is ``alpha = 2 sum wt (x dy - y dx)``
per complex coordinate, and ``dalpha = 4 sum wt dx ^ dy``; both identities
are verified against direct complex-arithmetic transcriptions in the tests.

The kernel of ``dalpha`` restricted to the tangent space of a link is spanned
by explicit closed-form vectors parametrized by (T, mu):

* classical:       v_j = -i (2 Re<T, lambda_j> + mu) z_j / b_j
* mixed-m1:        u_r = -i (2 conj(T) wbar_r + mu w_r) / a_r, z part as above
* mixed-general:   u_k = -i (2 wbar_k conj(T_k) + mu w_k) / a_k, z part with
                   sum_k T_k lambda^k_j

(the 1/weight factors reduce to the unit-weight displays; the computation for
other weights is the same argument with the form coefficients carried along).
The dimension of the kernel and of its intersection with ker alpha depends
only on the degeneracy stratum of the point:

    classical                 -> (2m+1, 2m)
    mixed-m1, some w_r != 0   -> (1, 0)
    mixed-m1, all w_r == 0    -> (3, 2)
    mixed-general, l zeros    -> (2l+1, 2l)

Note the mixed-m1 stratification is by the vanishing of the whole w block,
not of the null quadric sum w_r^2: the tangency condition
2 conj(T) sum|w_r|^2 + mu sum w_r^2 = 0 forces T = 0 whenever some w_r != 0,
even on the null cone (possible for s >= 2, where sum w^2 = 0 does not imply
w = 0).  At such null points the kernel is still 1-dimensional, spanned by
v(0, mu), and alpha remains contact; the jump to dimension 3 — and the
vanishing of the contact volume — happens exactly on {w = 0} (the embedded
classical link, of real codimension 2s).  For s = 1 the two loci coincide.

``contact_volume`` evaluates ``alpha ^ (dalpha)^k`` (k = (dim-1)/2) on the
point's oriented orthonormal frame, with a_i = alpha(e_i) and
M = dalpha(e_i, e_j).  Its expansion in the d minors of M is the first-row
expansion of one bordered Pfaffian:

    k! * sum_i (-1)^(i+1) a_i Pf(M with row/col i removed)
        = k! * Pf([[0, a^T], [-a, M]]),

so the volume costs one Pfaffian of a (d+1) x (d+1) matrix.  It is the
Hodge star of the confoliation form in the induced metric.

Numerical-rank note: ranks use the relative rule of
:func:`.config.numerical_rank`, and singular values in the tie band
(:func:`.config.in_tie_band`) around its cut set ``indeterminate``.  That rule
is meaningless for matrices that vanish identically in exact arithmetic — a
pure-roundoff matrix is "full rank" relative to itself — so quantities
expected to vanish (the leaf 2-form below) are reported as raw magnitudes for
the caller to compare against an input-derived scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, factorial

import numpy as np

from .config import DEFAULT_RANK_TOL, Configuration, in_tie_band, numerical_rank, rank_cut
from .errors import NumericalError, StructuralError
from .pfaffian import pfaffian
from .variety import ZERO_TOL, VarietyPoint, complexify, realify


@dataclass(frozen=True)
class FormEvaluation:
    """Pointwise kernel/rank data of (alpha, dalpha) on the tangent frame."""

    alpha_on_frame: np.ndarray
    dalpha_on_frame: np.ndarray
    ker_dalpha_dim: int
    ker_alpha_cap_ker_dalpha_dim: int
    rank_dalpha_on_ker_alpha: int
    contact_volume: float
    trichotomy: str  # "contact" | "defect2" | "deep"
    indeterminate: bool


@dataclass(frozen=True)
class RankTrichotomy:
    """Verdict of the rank trichotomy for dalpha restricted to ker alpha.

    ``perp_dim`` is the dimension of the orthogonal complement of the kernel
    of the induced degenerate 2-form: 2k for contact, 2 for a rank defect of
    one symplectic block (where ``perp_basis`` spans ker alpha cap ker dalpha),
    0 when the form degenerates further.
    """

    label: str  # "contact" | "defect2" | "deep"
    rank: int
    perp_dim: int
    perp_basis: np.ndarray | None


def coordinate_weights(cfg: Configuration) -> np.ndarray:
    """Per-complex-coordinate form weights: the w block, then the z block."""
    return np.concatenate([cfg.weights_a, cfg.weights_b])


def eval_alpha(cfg: Configuration, point, vector) -> float:
    """alpha at ``point`` on ``vector``: 2 sum wt (x v_y - y v_x)."""
    p = np.asarray(point, dtype=float)
    v = np.asarray(vector, dtype=float)
    if p.size != cfg.ambient_real_dim or v.size != cfg.ambient_real_dim:
        raise StructuralError("ambient vectors expected")
    wt = coordinate_weights(cfg)
    return float(2.0 * np.sum(wt * (p[0::2] * v[1::2] - p[1::2] * v[0::2])))


def eval_dalpha(cfg: Configuration, u, v) -> float:
    """dalpha on (u, v): 4 sum wt (u_x v_y - u_y v_x).

    No base point is needed — dalpha has constant coefficients.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.size != cfg.ambient_real_dim or v.size != cfg.ambient_real_dim:
        raise StructuralError("ambient vectors expected")
    wt = coordinate_weights(cfg)
    return float(4.0 * np.sum(wt * (u[0::2] * v[1::2] - u[1::2] * v[0::2])))


def alpha_on_frame(cfg: Configuration, point: VarietyPoint) -> np.ndarray:
    """Vector of alpha(e_i) over the point's tangent frame columns."""
    frame = point.tangent_frame
    wt = coordinate_weights(cfg)
    p = point.coordinates
    return 2.0 * ((wt * p[0::2]) @ frame[1::2, :] - (wt * p[1::2]) @ frame[0::2, :])


def dalpha_on_frame(cfg: Configuration, point: VarietyPoint) -> np.ndarray:
    """Skew matrix M[i, j] = dalpha(e_i, e_j) over the tangent frame."""
    frame = point.tangent_frame
    wt = coordinate_weights(cfg)
    x = frame[0::2, :]
    y = frame[1::2, :]
    m = 4.0 * (x.T @ (wt[:, None] * y))
    return m - m.T


def closed_form_kernel_vector(cfg: Configuration, coords, T, mu: float) -> np.ndarray:
    """The explicit kernel vector v(T, mu) at an ambient point (realified).

    ``T`` is a complex scalar for m = 1 kinds and a length-m complex vector
    for mixed-general / classical with m > 1; ``mu`` is real.
    """
    coords = np.asarray(coords, dtype=float)
    values = complexify(coords)
    w, z = values[: cfg.w_count], values[cfg.w_count :]
    T_arr = np.atleast_1d(np.asarray(T, dtype=complex))
    if cfg.kind == "mixed-m1":
        if T_arr.shape != (1,):
            raise StructuralError("mixed-m1 takes a single complex T")
    elif T_arr.shape != (cfg.m,):
        raise StructuralError(f"expected {cfg.m} components in T")

    c = 2.0 * np.real(cfg.lambdas @ T_arr) + mu
    vz = -1j * c * z / cfg.weights_b

    if cfg.kind == "classical":
        vw = np.zeros(0, dtype=complex)
    elif cfg.kind == "mixed-m1":
        vw = -1j * (2.0 * np.conj(T_arr[0]) * np.conj(w) + mu * w) / cfg.weights_a
    else:
        vw = -1j * (2.0 * np.conj(w) * np.conj(T_arr) + mu * w) / cfg.weights_a
    return realify(np.concatenate([vw, vz]))


def null_quadric_value(cfg: Configuration, coords) -> complex:
    """sum_r w_r^2 for a mixed-m1 point (the stratum function)."""
    if cfg.kind != "mixed-m1":
        raise StructuralError("null_quadric_value applies to mixed-m1 only")
    w = complexify(np.asarray(coords, dtype=float))[: cfg.w_count]
    return complex(np.sum(w**2))


def kernel_family_basis(cfg: Configuration, coords) -> np.ndarray:
    """Closed-form basis of ker(dalpha|_T) at a point, one column per vector.

    The parameter count depends on the stratum; see the module docstring for
    the resulting dimensions.
    """
    coords = np.asarray(coords, dtype=float)
    w = complexify(coords)[: cfg.w_count]
    if cfg.kind == "classical":
        mu_column = closed_form_kernel_vector(cfg, coords, np.zeros(cfg.m, dtype=complex), 1.0)
        return np.column_stack([_leaf_span(cfg, coords), mu_column])
    if cfg.kind == "mixed-m1":
        if np.any(np.abs(w) > ZERO_TOL):
            # Valid for every w != 0: on the null cone it degenerates to
            # T = 0, mu = -2 sum|w|^2, still a nonzero kernel vector.
            T = np.conj(np.sum(w**2))
            mu = -2.0 * float(np.sum(np.abs(w) ** 2))
            return np.column_stack([closed_form_kernel_vector(cfg, coords, T, mu)])
        return np.column_stack([closed_form_kernel_vector(cfg, coords, T, mu)
                                for T, mu in ((1.0 + 0j, 0.0), (1j, 0.0), (0j, 1.0))])
    zero = np.abs(w) <= ZERO_TOL
    T_mu = np.zeros(cfg.m, dtype=complex)
    live = ~zero
    T_mu[live] = -0.5 * np.conj(w[live]) / w[live]
    mu_column = closed_form_kernel_vector(cfg, coords, T_mu, 1.0)
    return np.column_stack([_leaf_span(cfg, coords, np.flatnonzero(zero)), mu_column])


def expected_kernel_dims(cfg: Configuration, point: VarietyPoint) -> tuple[int, int]:
    """Stratum dimension table: (dim ker dalpha|_T, dim ker alpha cap ker dalpha)."""
    if cfg.kind == "classical":
        return 2 * cfg.m + 1, 2 * cfg.m
    if cfg.kind == "mixed-m1":
        w = point.w_block(cfg)
        degenerate = bool(np.all(np.abs(w) <= ZERO_TOL))
        return (3, 2) if degenerate else (1, 0)
    w = point.w_block(cfg)
    zeros = int(np.count_nonzero(np.abs(w) <= ZERO_TOL))
    return 2 * zeros + 1, 2 * zeros


def kernel_analysis(
    cfg: Configuration,
    point: VarietyPoint,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> FormEvaluation:
    """Kernel dimensions, restricted rank and contact volume at a point.

    Everything is computed in the coordinates of the point's orthonormal
    tangent frame.  Singular values in the tie band of the rank cut
    (:func:`.config.in_tie_band`) set ``indeterminate`` instead of silently
    rounding the verdict.
    """
    d = point.tangent_frame.shape[1]
    a = alpha_on_frame(cfg, point)
    dmat = dalpha_on_frame(cfg, point)

    # dalpha restricted to ker alpha (alpha never vanishes on these links)
    if np.linalg.norm(a) == 0.0:
        raise NumericalError("alpha vanished on the tangent frame")
    _, _, vh = np.linalg.svd(a.reshape(1, -1))
    ker_alpha = vh[1:].T

    sigmas = [np.linalg.svd(matrix, compute_uv=False)
              for matrix in (dmat, np.vstack([dmat, a]), ker_alpha.T @ dmat @ ker_alpha)]
    rank_d, rank_s, rank_r = (numerical_rank(sigma, rank_tol) for sigma in sigmas)
    indeterminate = any(np.any(in_tie_band(sigma, rank_cut(sigma, rank_tol))) for sigma in sigmas)

    if rank_r == d - 1:
        label = "contact"
    elif rank_r == d - 3:
        label = "defect2"
    else:
        label = "deep"

    return FormEvaluation(
        alpha_on_frame=a,
        dalpha_on_frame=dmat,
        ker_dalpha_dim=d - rank_d,
        ker_alpha_cap_ker_dalpha_dim=d - rank_s,
        rank_dalpha_on_ker_alpha=rank_r,
        contact_volume=_volume_from_frame_data(a, dmat),
        trichotomy=label,
        indeterminate=indeterminate,
    )


def rank_trichotomy(
    cfg: Configuration,
    point: VarietyPoint,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> RankTrichotomy:
    """Classify rank(dalpha|_{ker alpha}) on the tangent frame.

    With frame dimension 2k+1 the restricted rank is 2k (contact), 2k-2
    (a single degenerate 2-plane, which is ker alpha cap ker dalpha and is
    returned in ambient coordinates), or lower (total degeneracy beyond one
    block, as on classical links with m >= 2).
    """
    evaluation = kernel_analysis(cfg, point, rank_tol)
    d = point.tangent_frame.shape[1]
    k = (d - 1) // 2
    if evaluation.trichotomy == "contact":
        return RankTrichotomy("contact", evaluation.rank_dalpha_on_ker_alpha, 2 * k, None)
    if evaluation.trichotomy == "defect2":
        stacked = np.vstack([evaluation.dalpha_on_frame, evaluation.alpha_on_frame])
        _, sigma, vh = np.linalg.svd(stacked)
        basis = point.tangent_frame @ vh[numerical_rank(sigma, rank_tol):].T
        return RankTrichotomy("defect2", evaluation.rank_dalpha_on_ker_alpha, 2, basis)
    return RankTrichotomy("deep", evaluation.rank_dalpha_on_ker_alpha, 0, None)


def contact_volume(cfg: Configuration, point: VarietyPoint) -> float:
    """alpha ^ (dalpha)^k on the oriented orthonormal tangent frame."""
    a = alpha_on_frame(cfg, point)
    dmat = dalpha_on_frame(cfg, point)
    return _volume_from_frame_data(a, dmat)


def contact_volume_scale(cfg: Configuration) -> float:
    """Natural magnitude scale k! * (max weight)^k for on-stratum thresholds."""
    k = (cfg.manifold_dim - 1) // 2
    wt = coordinate_weights(cfg)
    return factorial(k) * float(np.max(wt)) ** k


def _volume_from_frame_data(a: np.ndarray, dmat: np.ndarray) -> float:
    """k! * Pf([[0, a^T], [-a, M]]), the bordered form of the minor expansion."""
    d = a.size
    if d % 2 == 0:
        raise StructuralError("contact volume needs an odd frame dimension")
    bordered = np.block([[np.zeros((1, 1)), a[None, :]], [-a[:, None], dmat]])
    return float(factorial((d - 1) // 2) * pfaffian(bordered))


def subspace_angle(span_a: np.ndarray, span_b: np.ndarray) -> float:
    """Largest principal angle (radians) of span(A) measured against span(B).

    Computed from sin(theta) = ||(I - P_B) Q_A||_2, which stays accurate for
    tiny angles where the arccos of singular values loses all precision.
    Symmetric when the spans have equal dimension.
    """
    qa = _orth(span_a)
    qb = _orth(span_b)
    if qa.shape[1] == 0:
        return 0.0
    if qb.shape[1] == 0:
        return float(np.pi / 2)
    resid = qa - qb @ (qb.T @ qa)
    s = np.linalg.svd(resid, compute_uv=False)
    return float(asin(min(1.0, float(s[0]))))


def _orth(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        return np.zeros((matrix.shape[0] if matrix.ndim == 2 else 0, 0))
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, : numerical_rank(s, max(matrix.shape) * np.finfo(float).eps)]


def numerical_kernel(
    cfg: Configuration, point: VarietyPoint, rank_tol: float = DEFAULT_RANK_TOL
) -> np.ndarray:
    """Ambient orthonormal basis of ker(dalpha|_T), from the SVD of dalpha."""
    _, sigma, vh = np.linalg.svd(dalpha_on_frame(cfg, point))
    return point.tangent_frame @ vh[numerical_rank(sigma, rank_tol):].T


def kernel_family_angle(cfg: Configuration, point: VarietyPoint,
                        rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Largest principal angle between the closed-form kernel family and the
    numerically computed kernel of dalpha on the tangent frame."""
    family = kernel_family_basis(cfg, point.coordinates)
    numeric = numerical_kernel(cfg, point, rank_tol)
    return subspace_angle(family, numeric)


def symplectic_leaf_rank(
    cfg: Configuration, point: VarietyPoint, rank_tol: float = DEFAULT_RANK_TOL
) -> int:
    """Rank of the Poisson structure at a classical point.

    Equals the dimension of the symplectic leaf through the point, i.e. the
    span of the 2m closed-form leaf vectors v(T, 0) with T running over the
    standard real basis of C^m.  For admissible configurations the R^{2m}
    action is locally free, so this is exactly 2m.

    Note dalpha itself restricts to *zero* on the leaf span (the leaves are
    tangent to ker alpha cap ker dalpha); the leaf symplectic structure is
    the one transported from R^{2m} by the action.  Use
    :func:`leaf_two_form_magnitude` to check the vanishing.
    """
    if cfg.kind != "classical":
        raise StructuralError("symplectic leaves are defined for classical links")
    sigma = np.linalg.svd(_leaf_span(cfg, point.coordinates), compute_uv=False)
    return numerical_rank(sigma, rank_tol)


def leaf_two_form_magnitude(cfg: Configuration, point: VarietyPoint) -> float:
    """max |dalpha(v_a, v_b)| over the leaf vectors — identically 0 in exact
    arithmetic (dalpha is totally degenerate on the leaves)."""
    span = _leaf_span(cfg, point.coordinates)
    wt = coordinate_weights(cfg)
    x, y = span[0::2, :], span[1::2, :]
    gram = 4.0 * (x.T @ (wt[:, None] * y))
    return float(np.abs(gram - gram.T).max())


def _leaf_span(cfg: Configuration, coords, components=None) -> np.ndarray:
    """Columns v(e_k, 0), v(i e_k, 0) for each k in ``components`` (all k by default)."""
    eye = np.eye(cfg.m, dtype=complex)
    ks = range(cfg.m) if components is None else components
    cols = [closed_form_kernel_vector(cfg, coords, phase * eye[k], 0.0)
            for k in ks for phase in (1.0, 1j)]
    return np.column_stack(cols) if cols else np.zeros((len(coords), 0))


def orientation_sign(cfg: Configuration, reference: VarietyPoint) -> float:
    """One-time orientation calibration for a sampling run.

    Returns the sign kappa in {+1, -1} such that kappa * contact_volume is
    positive at the reference point.  The reference must lie off the
    degeneracy stratum (where the volume vanishes identically).
    """
    vol = contact_volume(cfg, reference)
    scale = contact_volume_scale(cfg)
    if abs(vol) <= 1e-9 * scale:
        raise NumericalError(
            "reference point lies on (or too close to) the degeneracy stratum; "
            "cannot calibrate the orientation"
        )
    return 1.0 if vol > 0 else -1.0
