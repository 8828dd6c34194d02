"""Independent brute-force oracles.

Everything here is deliberately naive: no linear programming, no clever
combinatorics, so that failures in the library cannot be masked by shared
machinery.
"""

from itertools import combinations
from math import comb

import numpy as np


def origin_in_hull_brute(points, tol: float = 1e-9) -> bool:
    """Convex-hull membership of the origin by Caratheodory enumeration.

    The origin lies in the hull iff some subset of at most d+1 points admits
    nonnegative barycentric coordinates.  Each subset gives a small linear
    system [p_1 .. p_k; 1 .. 1] x = [0; 1], solved by least squares and
    accepted when the residual is negligible and x >= -tol.  Rank-deficient
    subsets that still contain the origin are caught at a smaller size, so
    least squares never misses a feasible certificate.
    """
    pts = np.asarray(points, dtype=float)
    p, d = pts.shape
    stacked = np.vstack([pts.T, np.ones(p)])
    target = np.zeros(d + 1)
    target[-1] = 1.0
    for size in range(1, min(p, d + 1) + 1):
        for subset in combinations(range(p), size):
            a = stacked[:, subset]
            x, *_ = np.linalg.lstsq(a, target, rcond=None)
            if np.all(x >= -tol) and np.linalg.norm(a @ x - target, np.inf) <= tol:
                return True
    return False


def first_subset_around_origin_brute(points, size: int, tol: float = 1e-9):
    """Lexicographically first ``size``-subset whose hull holds the origin, or None."""
    pts = np.asarray(points, dtype=float)
    for subset in combinations(range(pts.shape[0]), size):
        if origin_in_hull_brute(pts[list(subset)], tol):
            return subset
    return None


def admissible_brute(points, m: int, tol: float = 1e-9) -> tuple[bool, bool]:
    """(siegel, weak_hyperbolicity) for realified lambdas, hull checks only."""
    pts = np.asarray(points, dtype=float)
    siegel = origin_in_hull_brute(pts, tol)
    weak = first_subset_around_origin_brute(pts, 2 * m, tol) is None
    return siegel, weak


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if np.gcd(k, n) == 1)


def necklace_count(total: int, length: int) -> int:
    """Cyclic compositions of ``total`` into ``length`` positive parts.

    Burnside over the rotation group: a rotation of order e = length/g fixes
    a composition iff it is e-periodic, which needs e | total and leaves
    C(total*g/length - 1, g - 1) choices for one period.
    """
    acc = 0
    for g in _divisors(length):
        e = length // g
        if total % e == 0:
            acc += _phi(e) * comb(total * g // length - 1, g - 1)
    assert acc % length == 0
    return acc // length


def necklace_total(n: int) -> int:
    """Necklaces over all odd lengths 3..n (the classifier's domain)."""
    return sum(necklace_count(n, length) for length in range(3, n + 1, 2))


def c_exact(lambdas) -> float:
    """Closed-form infimum of sum |z|^2 on a mixed-general link.

    With u_k = w_k^2 the link conditions collapse to |u| = 1 - sigma and
    sum_j t_j lambda_j = -u with t in the sigma-scaled simplex, so the
    smallest feasible sigma is 1/(1 + max_j sum_k |lambda^k_j|).
    """
    lam = np.asarray(lambdas, dtype=complex)
    return 1.0 / (1.0 + float(np.max(np.sum(np.abs(lam), axis=1))))
