"""The canonical 1-form alpha, its differential, kernels and contact volume.

On the ambient space (w block then z block, weights a_r and b_j):

    alpha = i * [ sum_r a_r (w_r dwbar_r - wbar_r dw_r)
                + sum_j b_j (z_j dzbar_j - zbar_j dz_j) ].

In the canonical realification this is ``alpha = 2 sum wt (x dy - y dx)``
per complex coordinate, and ``dalpha = 4 sum wt dx ^ dy``; both identities
are verified against direct complex-arithmetic transcriptions in the tests.

The kernel of ``dalpha`` restricted to the tangent space of a link is spanned
by explicit closed-form vectors parametrized by (T, mu), T in C^m:

    v_j = -i (2 Re sum_k T_k lambda^k_j + mu) z_j / b_j
    u_r = -i (2 conj(T_k) wbar_r + mu w_r) / a_r,   w_r^2 joining quadric k

(:attr:`.Configuration.w_quadric`; the 1/weight factors reduce to the
unit-weight displays, and the computation for other weights is the same
argument with the form coefficients carried along).  The kinds differ only
in the w's they add: s to the one mixed-m1 quadric, one to each
mixed-general quadric.  Quadric k is a *leaf* at a point when every w
joining it vanishes (on a classical link every quadric is).  Tangency asks
sum (2 conj(T_k) |w_r|^2 + mu w_r^2) / a_r = 0 over the w_r joining quadric
k, so T_k is free on a leaf and fixed by mu elsewhere, and with l leaves the
kernel and its intersection with ker alpha have dimensions (2l+1, 2l):
(2m+1, 2m) on classical links, (3, 2) on the mixed-m1 stratum {w = 0} and
(1, 0) off it.  The mixed-m1 null cone sum w_r^2 = 0 (s >= 2) holds no leaf
outside {w = 0}: there the kernel is spanned by one v(T, 1) (v(0, 1) when the
a_r are equal), alpha remains contact, and the contact volume vanishes only
on {w = 0}.

A w_r vanishes when |w_r|^2 <= ``ZERO_TOL`` (:func:`.variety._zero_mask`,
the package's one w-zero rule).  The square is what dalpha sees: near a
leaf, the singular value that separates it on the tangent space grows like
|w_r|^2 (2.5-2.8 |w_r|^2 times the largest on the mixed-general m = 2
fixture, 0.8-1.0 on the s = 2 mixed-m1 link with weights_a (1, 3)), so at
unit scale the cut lies in the tie band of the rank rule, and a point where
the zero rule and the ranks could disagree is ``indeterminate``.  The cut
is absolute while the slope scales like 1/|lambda|^2 (about 4e-4 at
lambda * 100), so far from unit scale the two can part outside the band.

The contact volume is ``alpha ^ (dalpha)^k`` (k = (dim-1)/2) on the
point's oriented orthonormal frame, with a_i = alpha(e_i) and
M = dalpha(e_i, e_j).  Its expansion in the d minors of M is the first-row
expansion of one bordered Pfaffian:

    k! * sum_i (-1)^(i+1) a_i Pf(M with row/col i removed)
        = k! * Pf([[0, a^T], [-a, M]]),

so the volume costs one Pfaffian of a (d+1) x (d+1) matrix.  It is the
Hodge star of the confoliation form in the induced metric.

The same B = [[0, a^T], [-a, M]] decides every alpha-rank.  alpha never
vanishes on these links (alpha(i z_j) = 2 b_j |z_j|^2), so write B in the
orthonormal basis (a/|a|, K) of the frame coordinates, K spanning ker alpha.
The border row then reads (0, |a|, 0, ..., 0), and eliminating it and the
a/|a| row and column against the entry |a| leaves exactly K^T M K, dalpha
on ker alpha:

    rank B = 2 + rank(K^T M K),   Pf B = +-|a| Pf(K^T M K).

Now let (x_0, y) be in ker B: alpha(y) = 0 and M y = x_0 a.  If x_0 != 0, a
lies in the range of the skew M, which is orthogonal to ker M, so ker dalpha
lies in ker alpha.  On every stratum it does not (their dimensions are 2l+1
and 2l), so x_0 = 0 and ker B = 0 (+) (ker alpha cap ker dalpha).  Hence

    dim(ker alpha cap ker dalpha) = d + 1 - rank B,
    rank(dalpha on ker alpha) = rank B - 2,

and the contact volume vanishes exactly when rank B < d + 1.

Stacked evaluation: every certified point of a configuration has the same
frame dimension d = ``manifold_dim``, so :func:`evaluate_stack` takes the
points of a whole ``verify`` run, from every stratum, as frames (N, D, d),
in blocks of at most the sampler's block size.  Certified points carry no
frame: one full SVD of each block's Jacobians
(:func:`.variety._tangent_frames`) builds the frames and gives the Jacobian
ranks.  alpha and dalpha are two batched products; the rank of dalpha and
its numerical kernel, kept at width d with zero columns, come from one SVD
of the stack; one SVD of the stacked B without vectors gives the other two
alpha-ranks and the volume's modulus, and one call of the rank rule ranks
dalpha and B together; the leaf span is one SVD of a stack; the closed-form
family is one array of (T, mu) parameters, zero-padded to the width 2m+1
(v(0, 0) = 0); the bordered Pfaffians are one stacked elimination.  A
point's values do not depend on the stack it is evaluated in: one point's
are ``evaluate_stack(cfg, [point], rank_tol)``, which
:func:`orientation_sign` and :func:`rank_trichotomy` read, so a point gets
the same values, every rank included, alone as in any stack, even where a
singular value sits at the cut.  Only the defect-2 plane of
:func:`rank_trichotomy` builds a frame of its own (:func:`_on_frame`), and
takes the plane from the right singular vectors of that frame's B.
Coordinate vectors from outside pass :func:`.variety._ambient`: a wrong
length or shape, or a non-finite entry, raises StructuralError.

Numerical-rank note: ranks use the relative rule of
:func:`.config.numerical_rank`, and singular values of dalpha or B in the
tie band (:func:`.config.in_tie_band`) around its cut set ``indeterminate``.
So "the contact volume vanishes" is a rank verdict, rank B < d + 1, with the
tie band of the kernel dimensions; B never vanishes, as its border is
alpha != 0.  The Pfaffian of B gives the volume's value and sign, and
:func:`verify` also asks it to agree with the modulus k! * sqrt(prod_i
sigma_i(B)) to ``VOLUME_MODULUS_RTOL``.  The rank rule is meaningless for a
matrix that vanishes identically in exact arithmetic — a pure-roundoff
matrix is "full rank" relative to itself — so the leaf 2-form, which does,
comes with a per-point bound on its modulus, from the point's own data, that
:func:`verify` scales by ``VANISHING_FACTOR``: so no verdict depends on the
frame dimension or on the scale of lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import factorial

import numpy as np

from .config import (DEFAULT_RANK_TOL, Configuration, complexify, in_tie_band, numerical_rank,
                     rank_cut, realify)
from .errors import NumericalError, StructuralError
from .pfaffian import _pfaffians
from .variety import (_ATTEMPT_BLOCK, DEFAULT_TOL, VarietyPoint, _ambient, _tangent_frames,
                      _verification_cases, _zero_mask, tangent_frame)


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
    p, v = _ambient(cfg, [point, vector])
    wt = coordinate_weights(cfg)
    return float(2.0 * np.sum(wt * (p[0::2] * v[1::2] - p[1::2] * v[0::2])))


def eval_dalpha(cfg: Configuration, u, v) -> float:
    """dalpha on (u, v): 4 sum wt (u_x v_y - u_y v_x).

    No base point is needed — dalpha has constant coefficients.
    """
    u, v = _ambient(cfg, [u, v])
    wt = coordinate_weights(cfg)
    return float(4.0 * np.sum(wt * (u[0::2] * v[1::2] - u[1::2] * v[0::2])))


def _on_frame(cfg: Configuration, point: VarietyPoint) -> tuple[np.ndarray, ...]:
    """The point's tangent frame, and alpha ``(d,)`` and dalpha ``(d, d)`` on it."""
    frame = tangent_frame(cfg, point)
    return (frame, _alpha_stack(cfg, point.coordinates[None], frame[None])[0],
            _dalpha_stack(cfg, frame[None])[0])


def _alpha_stack(cfg: Configuration, coords: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """alpha on every frame column: ``(N, d)`` for points ``(N, D)`` and frames ``(N, D, d)``."""
    wt = coordinate_weights(cfg)
    x, y = frames[:, 0::2, :], frames[:, 1::2, :]
    return 2.0 * ((wt * coords[:, 0::2])[:, None, :] @ y
                  - (wt * coords[:, 1::2])[:, None, :] @ x)[:, 0]


def _dalpha_stack(cfg: Configuration, frames: np.ndarray) -> np.ndarray:
    """dalpha on every pair of frame columns: skew ``(N, d, d)``."""
    wt = coordinate_weights(cfg)
    m = 4.0 * (frames[:, 0::2, :].transpose(0, 2, 1) @ (wt[:, None] * frames[:, 1::2, :]))
    return m - m.transpose(0, 2, 1)


def closed_form_kernel_vector(cfg: Configuration, coords, T, mu: float) -> np.ndarray:
    """The explicit kernel vector v(T, mu) at an ambient point (realified).

    ``T`` is a complex scalar for m = 1 and a length-m complex vector
    otherwise, one component per quadric; ``mu`` is real.
    """
    T_arr = np.atleast_1d(np.asarray(T, dtype=complex))
    if T_arr.shape != (cfg.m,):
        raise StructuralError(f"expected {cfg.m} components in T")
    mu = float(mu)
    if not (np.all(np.isfinite(T_arr)) and np.isfinite(mu)):
        raise StructuralError("T and mu must be finite")
    return _kernel_vectors(cfg, _ambient(cfg, [coords]), T_arr[None, None],
                           np.array([[mu]]))[0, :, 0]


def _kernel_vectors(cfg: Configuration, coords: np.ndarray, T: np.ndarray,
                    mu: np.ndarray) -> np.ndarray:
    """v(T, mu) for ``c`` parameter pairs per point: ``(N, D, c)``.

    ``coords`` is ``(N, D)``, ``T`` complex ``(N, c, m)`` and ``mu`` real
    ``(N, c)``.  Each w takes the T of the quadric it joins
    (:attr:`.Configuration.w_quadric`).
    """
    values = complexify(coords)[:, None, :]
    w, z = values[..., : cfg.w_count], values[..., cfg.w_count :]
    coef = 2.0 * np.real(T @ cfg.lambdas.T) + mu[..., None]
    vz = -1j * coef * z / cfg.weights_b
    Tw = np.conj(T[..., cfg.w_quadric])
    vw = -1j * (2.0 * Tw * np.conj(w) + mu[..., None] * w) / cfg.weights_a
    return realify(np.concatenate([vw, vz], axis=-1)).transpose(0, 2, 1)


def null_quadric_value(cfg: Configuration, coords) -> complex:
    """sum_r w_r^2 for a mixed-m1 point (the stratum function)."""
    if cfg.kind != "mixed-m1":
        raise StructuralError("null_quadric_value applies to mixed-m1 only")
    w = complexify(_ambient(cfg, [coords])[0])[: cfg.w_count]
    return complex(np.sum(w**2))


def kernel_family_basis(cfg: Configuration, coords) -> np.ndarray:
    """Closed-form basis of ker(dalpha|_T) at a point, one column per vector.

    The parameter count depends on the stratum; see the module docstring for
    the resulting dimensions.
    """
    coords = _ambient(cfg, [coords])
    T, mu = _family_parameters(cfg, coords, _leaves(cfg, coords))
    used = (T[0] != 0).any(axis=1) | (mu[0] != 0)
    return _kernel_vectors(cfg, coords, T[:, used], mu[:, used])[0]


def _leaves(cfg: Configuration, coords: np.ndarray) -> np.ndarray:
    """``(N, m)``: quadric k is a leaf at a point when every w joining it passes
    :func:`.variety._zero_mask` (so every quadric of a classical link is one)."""
    return ~((~_zero_mask(cfg, coords)) @ cfg._w_join).astype(bool)


def _family_parameters(cfg: Configuration, coords: np.ndarray,
                       leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, mu) of the closed-form kernel family at a stack of points ``(N, D)``.

    Every point gets 2m+1 columns, (T, mu) = (0, 0) padding as v(0, 0) = 0:
    v(e_k, 0) and v(i e_k, 0) in columns 2k, 2k+1 for each leaf k (the
    ``leaves`` of :func:`_leaves`), then v(T, 1) with T_k = 0 on the leaves
    and T_k = -conj(sum_r w_r^2 / a_r) / (2 sum_r |w_r|^2 / a_r), the
    tangent value, over the w_r joining each other quadric.
    """
    w = complexify(coords)[:, : cfg.w_count]
    k = np.arange(cfg.m)
    T = np.zeros((len(coords), 2 * cfg.m + 1, cfg.m), dtype=complex)
    T[:, 2 * k, k], T[:, 2 * k + 1, k] = leaves, 1j * leaves
    np.divide(-np.conj(w**2 / cfg.weights_a @ cfg._w_join),
              2.0 * (np.abs(w) ** 2 / cfg.weights_a @ cfg._w_join),
              out=T[:, -1], where=~leaves)
    mu = np.zeros(T.shape[:2])
    mu[:, -1] = 1.0
    return T, mu


def _expected_dims(leaves: np.ndarray) -> np.ndarray:
    """(2l+1, 2l) for the l leaves (:func:`_leaves`) at each point of a stack: ``(N, 2)``."""
    cap = 2 * np.count_nonzero(leaves, axis=1)
    return np.column_stack([cap + 1, cap])


def _dalpha_kernels(frames: np.ndarray, dmat: np.ndarray, rank_tol: float):
    """One full SVD of each dalpha: its singular values and masked kernel.

    The kernel is ``frames @ V^T`` with the columns below dalpha's rank
    zeroed, so every point keeps the fixed width d and the span is exactly
    the numerical kernel.
    """
    _, sigma, vh = np.linalg.svd(dmat)
    keep = np.arange(sigma.shape[-1]) >= numerical_rank(sigma, rank_tol)[:, None]
    return sigma, (frames @ vh.transpose(0, 2, 1)) * keep[:, None, :]


def _rank_checks(sigma_d: np.ndarray, sigma_b: np.ndarray, rank_tol: float):
    """Ranks of dalpha and of the bordered matrix B, with tie flags.

    ``sigma_d`` ``(N, d)`` are the singular values of dalpha, which the
    caller computes with or without vectors, and ``sigma_b`` ``(N, d+1)``
    those of B (:func:`_volumes`).  The two rows share one ``(N, 2, d+1)``
    array, dalpha's padded with a zero, which is never above a cut nor in
    its tie band; so one call of the rank rule ranks both.  Returns the
    ranks ``(N, 2)`` and ``indeterminate`` ``(N,)``.
    """
    sigmas = np.zeros((len(sigma_b), 2, sigma_b.shape[1]))
    sigmas[:, 0, :-1], sigmas[:, 1] = sigma_d, sigma_b
    indeterminate = in_tie_band(sigmas, rank_cut(sigmas, rank_tol)).any(axis=(1, 2))
    return numerical_rank(sigmas, rank_tol), indeterminate


@dataclass(frozen=True)
class StackEvaluation:
    """Every per-point quantity ``momentangle verify`` checks, for N points.

    Each array has one entry per point, in the order given.  The leaf
    fields are set for classical configurations only.
    ``contact_volume_modulus`` is k! * sqrt(prod_i sigma_i(B)), which
    |``contact_volume``| equals in exact arithmetic; ``leaf_two_form_bound``
    bounds the modulus of the field before it (:func:`_leaf_magnitudes`).
    """

    jacobian_rank: np.ndarray
    ker_dalpha_dim: np.ndarray
    ker_alpha_cap_ker_dalpha_dim: np.ndarray
    rank_dalpha_on_ker_alpha: np.ndarray
    expected_kernel_dims: np.ndarray  # (N, 2)
    indeterminate: np.ndarray
    contact_volume: np.ndarray
    contact_volume_modulus: np.ndarray
    family_angle: np.ndarray
    leaf_rank: np.ndarray | None
    leaf_two_form_magnitude: np.ndarray | None
    leaf_two_form_bound: np.ndarray | None


def evaluate_stack(
    cfg: Configuration,
    points: list[VarietyPoint],
    rank_tol: float = DEFAULT_RANK_TOL,
) -> StackEvaluation:
    """The kernel dimensions and ranks of (alpha, dalpha), the contact volume,
    the closed-form family's angle, the Jacobian rank and, on classical
    links, the leaf checks, for a stack of points at once.

    Every certified point of a configuration has frame dimension
    ``manifold_dim``, so all strata stack together: each SVD runs over a
    block of points, the leaves and the closed-form family are built once
    per block, and the bordered Pfaffians are one stacked elimination.  A
    point's results do not depend on the other points in the stack, so
    blocks of at most ``_ATTEMPT_BLOCK`` points (the sampler's block) bound
    the memory of a long run without changing a value, and a stack of one
    block returns that block's evaluation as it is.  No points, or
    coordinates of the wrong length or not finite, raise StructuralError.
    """
    if not points:
        raise StructuralError("evaluate_stack needs at least one point")
    coords = _ambient(cfg, [p.coordinates for p in points])
    blocks = [_evaluate_block(cfg, coords[i : i + _ATTEMPT_BLOCK], rank_tol)
              for i in range(0, len(coords), _ATTEMPT_BLOCK)]
    if len(blocks) == 1:
        return blocks[0]
    return StackEvaluation(**{
        f.name: None if getattr(blocks[0], f.name) is None
        else np.concatenate([getattr(block, f.name) for block in blocks])
        for f in fields(StackEvaluation)})


def _evaluate_block(cfg: Configuration, coords: np.ndarray, rank_tol: float) -> StackEvaluation:
    """:func:`evaluate_stack` on one block of points ``(N, D)``."""
    frames, jacobian_rank = _tangent_frames(cfg, coords, rank_tol)
    d = frames.shape[2]
    a = _alpha_stack(cfg, coords, frames)
    dmat = _dalpha_stack(cfg, frames)
    sigma_d, kernel = _dalpha_kernels(frames, dmat, rank_tol)
    volume, modulus, sigma_b = _volumes(a, dmat)
    ranks, indeterminate = _rank_checks(sigma_d, sigma_b, rank_tol)
    leaves = _leaves(cfg, coords)
    family = _kernel_vectors(cfg, coords, *_family_parameters(cfg, coords, leaves))
    leaf_rank = leaf_magnitude = leaf_bound = None
    if cfg.kind == "classical":  # the first 2m columns span the leaf
        leaf = family[..., : 2 * cfg.m]
        leaf_rank = numerical_rank(np.linalg.svd(leaf, compute_uv=False), rank_tol)
        leaf_magnitude, leaf_bound = _leaf_magnitudes(cfg, leaf)
    return StackEvaluation(
        jacobian_rank=jacobian_rank,
        ker_dalpha_dim=d - ranks[:, 0],
        ker_alpha_cap_ker_dalpha_dim=d + 1 - ranks[:, 1],
        rank_dalpha_on_ker_alpha=ranks[:, 1] - 2,
        expected_kernel_dims=_expected_dims(leaves),
        indeterminate=indeterminate,
        contact_volume=volume,
        contact_volume_modulus=modulus,
        family_angle=_largest_angles(_orth(family), kernel),
        leaf_rank=leaf_rank,
        leaf_two_form_magnitude=leaf_magnitude,
        leaf_two_form_bound=leaf_bound,
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
    block, as on classical links with m >= 2).  The rank is
    ``evaluate_stack(cfg, [point], rank_tol)``'s; only the defect-2 plane
    builds a frame of its own.  The plane is the frame part of ker B (module
    docstring): the right singular vectors of B past its rank, rank + 2,
    mapped by the frame.
    """
    d = cfg.manifold_dim
    rank = int(evaluate_stack(cfg, [point], rank_tol).rank_dalpha_on_ker_alpha[0])
    if rank == d - 1:
        return RankTrichotomy("contact", rank, d - 1, None)
    if rank == d - 3:
        frame, a, dmat = _on_frame(cfg, point)
        vh = np.linalg.svd(_bordered(a[None], dmat[None])[0])[2]
        return RankTrichotomy("defect2", rank, 2, frame @ vh[rank + 2 :, 1:].T)
    return RankTrichotomy("deep", rank, 0, None)


#: The leaf 2-form, which vanishes identically in exact arithmetic, reads zero
#: in :func:`verify` when its modulus is at most this factor times its
#: per-point bound (:func:`_leaf_magnitudes`).
VANISHING_FACTOR = 1e-9

#: :func:`verify` counts a contact volume positive only when |Pf B| lies
#: within this relative distance of its modulus k! * sqrt(prod_i sigma_i(B)),
#: two unrelated algorithms for one number.
VOLUME_MODULUS_RTOL = 1e-6

#: Largest principal angle (radians) between the closed-form kernel family
#: and the numerical kernel of dalpha that :func:`verify` counts as agreement.
ANGLE_LIMIT = 1e-6


def _bordered(a: np.ndarray, dmat: np.ndarray) -> np.ndarray:
    """B = [[0, a^T], [-a, M]] for a stack ``(N, d)``, ``(N, d, d)``: ``(N, d+1, d+1)``.

    The rank identities of B (module docstring) need alpha != 0 on each
    frame, which holds on these links, as alpha(i z_j) = 2 b_j |z_j|^2.
    """
    n, d = a.shape
    if d % 2 == 0:
        raise StructuralError("contact volume needs an odd frame dimension")
    if not a.any(axis=1).all():
        raise NumericalError("alpha vanished on the tangent frame")
    bordered = np.zeros((n, d + 1, d + 1))
    bordered[:, 0, 1:], bordered[:, 1:, 0], bordered[:, 1:, 1:] = a, -a, dmat
    return bordered


def _volumes(a: np.ndarray, dmat: np.ndarray) -> tuple[np.ndarray, ...]:
    """k! * Pf(B), the bordered form of the minor expansion, its modulus
    k! * sqrt(prod_i sigma_i(B)) and the singular values sigma(B), for a
    stack ``(N, d)``, ``(N, d, d)``.

    The bordered matrices B are built at once; one stacked elimination
    (:func:`.pfaffian._pfaffians`) takes all their Pfaffians, and one
    stacked SVD without vectors all their singular values.  Since
    Pf(B)^2 = det B, the modulus equals |k! * Pf(B)| in exact arithmetic;
    it is computed in logs.
    """
    bordered = _bordered(a, dmat)
    sigma = np.linalg.svd(bordered, compute_uv=False)
    scale = factorial((a.shape[1] - 1) // 2)
    with np.errstate(divide="ignore"):  # a zero singular value gives modulus 0
        modulus = scale * np.exp(0.5 * np.log(sigma).sum(axis=1))
    return scale * _pfaffians(bordered), modulus, sigma


def subspace_angle(span_a: np.ndarray, span_b: np.ndarray) -> float:
    """Largest principal angle (radians) of span(A) measured against span(B).

    Computed from sin(theta) = ||(I - P_B) Q_A||_2, which stays accurate for
    tiny angles where the arccos of singular values loses all precision.
    Symmetric when the spans have equal dimension.  Spans that are not
    matrices of one ambient dimension raise StructuralError.
    """
    span_a, span_b = (np.asarray(span, dtype=float) for span in (span_a, span_b))
    if span_a.ndim != 2 or span_b.ndim != 2 or len(span_a) != len(span_b):
        raise StructuralError(f"expected spans (D, k) of one ambient dimension D, "
                              f"got shapes {span_a.shape} and {span_b.shape}")
    if span_a.size == 0:
        return 0.0
    if span_b.size == 0:
        return float(np.pi / 2)
    return float(_largest_angles(_orth(span_a[None]), _orth(span_b[None]))[0])


def _largest_angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """sin(theta) = ||(I - Q_B Q_B^T) Q_A||_2 for stacks of orthonormal bases.

    Zero columns in either basis leave its span, and the angle, unchanged.
    """
    resid = qa - qb @ (qb.transpose(0, 2, 1) @ qa)
    return np.arcsin(np.minimum(1.0, np.linalg.svd(resid, compute_uv=False)[:, 0]))


def _orth(stack: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the spans of a stack ``(N, D, c)``, width c kept.

    Columns beyond each matrix's numerical rank (``rank_tol = max(D, c)
    * eps``) are zero.
    """
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank = numerical_rank(s, max(stack.shape[1:]) * np.finfo(float).eps)
    return u * (np.arange(s.shape[-1]) < rank[:, None])[:, None, :]


def _leaf_magnitudes(cfg: Configuration, leaf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max_ab |dalpha(v_a, v_b)| over leaf vectors ``(N, D, 2m)``, and its
    Cauchy-Schwarz bound 4 max wt max_a |v_a|^2, which grows with lambda as they do."""
    wt = coordinate_weights(cfg)
    gram = 4.0 * (leaf[:, 0::2, :].transpose(0, 2, 1) @ (wt[:, None] * leaf[:, 1::2, :]))
    bound = 4.0 * np.max(wt) * np.einsum("nda,nda->na", leaf, leaf).max(axis=1)
    return np.abs(gram - gram.transpose(0, 2, 1)).max(axis=(1, 2)), bound


def orientation_sign(cfg: Configuration, reference: VarietyPoint) -> float:
    """One-time orientation calibration for a sampling run.

    Returns the sign kappa in {+1, -1} such that kappa * contact_volume is
    positive at the reference point.  The reference must lie off the
    degeneracy stratum (where the volume vanishes identically).
    """
    ev = evaluate_stack(cfg, [reference])
    return _volume_sign(ev.contact_volume[0], ev.ker_alpha_cap_ker_dalpha_dim[0])


def _volume_sign(volume: float, cap_dim: int) -> float:
    """:func:`orientation_sign` from the reference point's contact volume and
    its dim(ker alpha cap ker dalpha), the corank of B: the volume vanishes
    when that is positive."""
    if cap_dim > 0:
        raise NumericalError(
            "reference point lies on (or too close to) the degeneracy stratum; "
            "cannot calibrate the orientation"
        )
    return 1.0 if volume > 0 else -1.0


def verify(cfg: Configuration, samples: int, seed: int = 0, tol: float = DEFAULT_TOL,
           rank_tol: float = DEFAULT_RANK_TOL) -> dict:
    """Sample every stratum (:func:`.variety._verification_cases`) and check the
    form propositions at its points, evaluated in one :func:`evaluate_stack`.

    Returns the ``result`` of a ``momentangle verify`` report: the stratum
    names as ``cases``; as ``checks``, ``{"passed": p, "total": t}`` per check
    that applies to some point, in name order; and ``all_passed``.
    """
    cases = _verification_cases(cfg, samples, seed, tol, rank_tol)
    ev = evaluate_stack(cfg, [point for _, points in cases for point in points], rank_tol)
    volume, modulus = ev.contact_volume, ev.contact_volume_modulus
    cap, expected = ev.ker_alpha_cap_ker_dalpha_dim, ev.expected_kernel_dims
    zero = cap > 0  # rank B < d + 1: the volume vanishes (module docstring)
    # The first point calibrates the orientation (orientation_sign).
    kappa = 0.0 if cfg.kind == "classical" else _volume_sign(volume[0], cap[0])
    oks = {
        "jacobian rank maximal": ev.jacobian_rank == cfg.equation_count,
        "kernel dimensions per stratum":
            (ev.ker_dalpha_dim == expected[:, 0]) & (cap == expected[:, 1]),
        "closed-form kernel family agreement": ev.family_angle < ANGLE_LIMIT,
        "no indeterminate ranks": ~ev.indeterminate,
    }
    if cfg.kind == "classical":
        oks["contact volume vanishes (total degeneracy)"] = zero
        oks[f"Poisson leaf rank {2 * cfg.m}"] = ev.leaf_rank == 2 * cfg.m
        oks["leaf 2-form degeneracy"] = (np.abs(ev.leaf_two_form_magnitude)
                                         <= VANISHING_FACTOR * ev.leaf_two_form_bound)
    else:
        # The volume vanishes exactly where ker dalpha jumps: the strata with
        # ker alpha cap ker dalpha != 0 in the dimension table.
        degenerate = expected[:, 1] > 0
        matches = np.abs(np.abs(volume) - modulus) <= VOLUME_MODULUS_RTOL * modulus
        oks["contact volume vanishes on degenerate strata"] = zero[degenerate]
        oks["contact volume positive off degenerate strata"] = (
            (kappa * volume > 0) & ~zero & matches)[~degenerate]
    checks = {name: {"passed": int(np.count_nonzero(ok)), "total": ok.size}
              for name, ok in sorted(oks.items()) if ok.size}
    return {"cases": [name for name, _ in cases], "checks": checks,
            "all_passed": all(c["passed"] == c["total"] for c in checks.values())}
