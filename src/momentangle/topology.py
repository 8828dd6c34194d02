"""Diffeomorphism types of the m = 1 links from cyclic weight sequences.

An admissible planar configuration reduces to a combinatorial normal form:
normalize the lambda_j to the unit circle and cut the circle at the antipodes
of the points.  Weak hyperbolicity keeps every point clear of every antipode,
so the points fall into well-defined groups between consecutive antipodes;
reading off the group sizes in cyclic order gives a tuple (n_1, ..., n_{2l+1})
of positive integers — the Siegel condition forces an odd number of groups.

The diffeomorphism type of the corresponding link (with s extra squared
variables) is determined by partial sums around the cycle,

    d_j = n_j + n_{j+1} + ... + n_{j+l-1}    (indices mod 2l+1),

as the connected sum of the sphere products S^{2d_j+s-1} x S^{2n-2d_j+s-2}.

The number N(n) of weight cycles of total n, up to rotation (and
reflection), is counted by Burnside's lemma for each odd length L: a rotation
by k fixes C(n g/L - 1, g - 1) compositions, g = gcd(k, L), when L | n g and
none otherwise; each of the L reflections fixes sum_p C((n - p)/2 - 1,
(L - 1)/2 - 1), over the middle part p = n (mod 2).

Everything here is exact integer/stdlib combinatorics except the cut of the
circle, a ``bincount`` of the antipodes below each direction, which uses a
fixed angular tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from .config import Configuration, _is_int, check_admissible, check_tolerances
from .errors import StructuralError

ANGULAR_TOL = 1e-9

EQUIVALENCES = ("rotation", "rotation+reflection")


@dataclass(frozen=True)
class CyclicWeights:
    """A cyclic sequence n_1, ..., n_{2l+1} of positive integer weights."""

    weights: tuple[int, ...]

    def __post_init__(self):
        w = tuple(self.weights)
        if not all(_is_int(x) for x in w):
            raise StructuralError("weights must be integers")
        if len(w) < 3 or len(w) % 2 == 0:
            raise StructuralError(
                f"weights must have odd length >= 3, got length {len(w)}"
            )
        if any(x < 1 for x in w):
            raise StructuralError("weights must be >= 1")
        object.__setattr__(self, "weights", w)

    @property
    def total(self) -> int:
        """n = sum of the weights."""
        return sum(self.weights)

    @property
    def ell(self) -> int:
        """l with 2l+1 = number of weights."""
        return len(self.weights) // 2

    def canonical(self) -> "CyclicWeights":
        """Lexicographically minimal rotation — the cyclic normal form."""
        w = self.weights
        return CyclicWeights(min(w[i:] + w[:i] for i in range(len(w))))


@dataclass(frozen=True)
class DiffeoType:
    """A connected sum of sphere products S^{p_j} x S^{q_j}.

    ``summands`` is sorted lexicographically, so equal values mean equal
    types regardless of which rotation of the weights produced them.
    ``hypothesis_ok`` records whether the input satisfied n > 3 (the
    classification is stated under that hypothesis; smaller inputs are
    computed anyway and flagged).
    """

    s: int
    summands: tuple[tuple[int, int], ...]
    manifold_dimension: int
    hypothesis_ok: bool = True

    def description(self) -> str:
        """Human-readable connected-sum string, e.g. ``#5 (S^4 x S^5)``."""
        groups: list[tuple[tuple[int, int], int]] = []
        for pair in self.summands:
            if groups and groups[-1][0] == pair:
                groups[-1] = (pair, groups[-1][1] + 1)
            else:
                groups.append((pair, 1))
        return "#" + " # ".join(
            f"{count} (S^{p} x S^{q})" for (p, q), count in groups
        )


def classify(weights, s: int) -> DiffeoType:
    """Diffeomorphism type of the link with the given weights and s >= 1.

    Computes d_j = n_j + ... + n_{j+l-1} cyclically and emits the summand
    pairs (2 d_j + s - 1, 2n - 2 d_j + s - 2); every pair must sum to the
    manifold dimension 2n + 2s - 3, which is asserted.
    """
    if not isinstance(weights, CyclicWeights):
        weights = CyclicWeights(tuple(weights))
    if not _is_int(s) or s < 1:
        raise StructuralError("s must be a positive integer")
    n = weights.total
    ell = weights.ell
    length = len(weights.weights)

    hypothesis_ok = n > 3
    if not hypothesis_ok:
        warnings.warn(
            f"classification applied below its n > 3 hypothesis (n = {n})",
            stacklevel=2,
        )

    dim = 2 * n + 2 * s - 3
    pairs = []
    for j in range(length):
        d = sum(weights.weights[(j + t) % length] for t in range(ell))
        pair = (2 * d + s - 1, 2 * n - 2 * d + s - 2)
        if pair[0] + pair[1] != dim:
            raise StructuralError("dimension invariant violated (internal)")
        pairs.append(pair)
    return DiffeoType(
        s=s,
        summands=tuple(sorted(pairs)),
        manifold_dimension=dim,
        hypothesis_ok=hypothesis_ok,
    )


def normalize_configuration(
    cfg: Configuration, angular_tol: float = ANGULAR_TOL
) -> CyclicWeights:
    """Reduce an admissible planar (m = 1) configuration to its weight cycle.

    The circle is cut at the antipodes of the lambda_j's directions; the
    directions between two consecutive antipodes are a class.  A direction's
    class is the number of antipodes below it, so the class sizes are one
    ``bincount``, whose first and last bins join across angle 0.  They are
    returned in cyclic order, at the lexicographically minimal rotation.

    Raises if some lambda_j comes within ``angular_tol`` of an antipode —
    that is a weak-hyperbolicity failure at tolerance scale, and the grouping
    would be arbitrary.  An ``angular_tol`` that is not finite and positive
    raises StructuralError.
    """
    check_tolerances(angular_tol)
    if cfg.m != 1:
        raise StructuralError("normalization is defined for planar (m = 1) configurations")
    report = check_admissible(cfg)
    if not report.admissible:
        raise StructuralError(f"configuration is not admissible: {report}")

    lam = cfg.lambdas[:, 0]
    if np.any(np.abs(lam) == 0.0):
        raise StructuralError("zero lambda has no direction")
    angles = np.mod(np.angle(lam), 2.0 * np.pi)
    antipodes = np.mod(angles + np.pi, 2.0 * np.pi)

    # pairwise direction-vs-antipode separation on the circle
    diff = np.abs(angles[:, None] - antipodes[None, :])
    circle_dist = np.minimum(diff, 2.0 * np.pi - diff)
    if np.any(circle_dist < angular_tol):
        i, j = np.unravel_index(np.argmin(circle_dist), circle_dist.shape)
        raise StructuralError(
            f"lambda_{i} lies within {angular_tol:g} rad of the antipode of "
            f"lambda_{j}; weak hyperbolicity fails at tolerance scale"
        )

    bins = np.bincount(np.searchsorted(np.sort(antipodes), angles), minlength=cfg.n + 1)
    bins[-1] += bins[0]
    sizes = bins[1:][bins[1:] > 0].tolist()
    if len(sizes) % 2 == 0 or len(sizes) < 3:
        raise StructuralError(
            f"grouping produced {len(sizes)} classes; admissible configurations "
            "always give an odd count >= 3"
        )
    return CyclicWeights(tuple(sizes)).canonical()


def count_diffeo_types(n: int, equivalence: str = "rotation") -> int:
    """Number N(n) of weight cycles with total n, up to the chosen equivalence.

    Burnside's lemma for each odd length L = 3, 5, ..., n: the fixed
    compositions sum_k C(n g/L - 1, g - 1) over the rotations k with
    g = gcd(k, L) and L | n g, plus, for ``"rotation+reflection"``,
    L * sum_{p = n mod 2} C((n - p)/2 - 1, (L - 1)/2 - 1) over the
    reflections, divided by the group order L (or 2L).  Nothing is enumerated.
    """
    if not isinstance(n, int) or n < 3:
        raise StructuralError("n must be an integer >= 3")
    if equivalence not in EQUIVALENCES:
        raise StructuralError(f"equivalence must be one of {EQUIVALENCES}")
    if n <= 3:
        warnings.warn(f"counting below the n > 3 hypothesis (n = {n})", stacklevel=2)

    total = 0
    for length in range(3, n + 1, 2):
        fixed = sum(comb(n * g // length - 1, g - 1)
                    for g in (gcd(k, length) for k in range(length))
                    if n * g % length == 0)
        order = length
        if equivalence == "rotation+reflection":
            half = (length - 1) // 2
            fixed += length * sum(comb((n - p) // 2 - 1, half - 1)
                                  for p in range(2 - n % 2, n - 2 * half + 1, 2))
            order *= 2
        total += fixed // order
    return total
