"""Independent brute-force oracles.

Everything here is deliberately naive: no linear programming, no clever
combinatorics, so that failures in the library cannot be masked by shared
machinery.
"""

from itertools import combinations, permutations
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


def weight_cycles_brute(n: int, equivalence: str = "rotation") -> int:
    """Weight cycles of total n by enumeration of all 2^(n-1) compositions.

    Every composition of n into an odd number (>= 3) of positive parts is
    reduced to its lexicographically least rotation (and, for
    ``"rotation+reflection"``, the least of that and the reversed form's);
    the count is the number of distinct representatives.
    """
    def least_rotation(seq):
        return min(seq[i:] + seq[:i] for i in range(len(seq)))

    canonical = set()
    for length in range(3, n + 1, 2):
        for cuts in combinations(range(1, n), length - 1):
            bounds = (0, *cuts, n)
            comp = tuple(bounds[i + 1] - bounds[i] for i in range(length))
            rep = least_rotation(comp)
            if equivalence == "rotation+reflection":
                rep = min(rep, least_rotation(comp[::-1]))
            canonical.add(rep)
    return len(canonical)


def c_exact(lambdas) -> float:
    """Closed-form infimum of sum |z|^2 on a mixed-general link.

    With u_k = w_k^2 the link conditions collapse to |u| = 1 - sigma and
    sum_j t_j lambda_j = -u with t in the sigma-scaled simplex, so the
    smallest feasible sigma is 1/(1 + max_j sum_k |lambda^k_j|).
    """
    lam = np.asarray(lambdas, dtype=complex)
    return 1.0 / (1.0 + float(np.max(np.sum(np.abs(lam), axis=1))))


def _validate_skew(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.size and float(np.abs(a + a.T).max()) > 1e-12 * max(1.0, float(np.abs(a).max())):
        raise ValueError("matrix is not skew-symmetric")
    return a


def pfaffian_naive(matrix) -> float:
    """Pfaffian by recursive expansion along the first row.

    Exponential; intended as an oracle for dimensions up to ~10.  Minors are
    memoized on index tuples, which keeps repeated sub-Pfaffians cheap.
    """
    a = _validate_skew(matrix)
    n = a.shape[0]
    if n % 2 == 1:
        return 0.0

    memo: dict[tuple[int, ...], float] = {(): 1.0}

    def expand(indices: tuple[int, ...]) -> float:
        if indices in memo:
            return memo[indices]
        first, rest = indices[0], indices[1:]
        total = 0.0
        for pos, j in enumerate(rest):
            minor = rest[:pos] + rest[pos + 1 :]
            total += (-1.0) ** pos * a[first, j] * expand(minor)
        memo[indices] = total
        return total

    return float(expand(tuple(range(n))))


def brute_force_contact_volume(a, dmat) -> float:
    """Exterior-algebra evaluation of alpha ^ (dalpha)^k by recursive wedge
    expansion, independent of the library's Pfaffian.

    The 2-form power is evaluated through the first-principles recursion
    W(S) = k * sum_p (-1)^(p+1) M[s_0, s_p] W(S minus {s_0, s_p}) obtained by
    expanding one wedge factor at a time; no Pfaffian identity is invoked.
    Exponential cost — intended for frame dimensions up to ~11.
    """
    a = np.asarray(a, dtype=float)
    m = np.asarray(dmat, dtype=float)
    d = a.size
    if d % 2 == 0:
        raise ValueError("odd dimension required")

    memo: dict[tuple[int, ...], float] = {(): 1.0}

    def wedge_power(indices: tuple[int, ...]) -> float:
        if indices in memo:
            return memo[indices]
        k = len(indices) // 2
        first, rest = indices[0], indices[1:]
        total = 0.0
        for pos, j in enumerate(rest):
            minor = rest[:pos] + rest[pos + 1 :]
            total += (-1.0) ** pos * m[first, j] * wedge_power(minor)
        memo[indices] = k * total
        return memo[indices]

    out = 0.0
    everything = tuple(range(d))
    for i in range(d):
        rest = everything[:i] + everything[i + 1 :]
        out += (-1.0) ** i * a[i] * wedge_power(rest)
    return float(out)


def permutation_sum_contact_volume(a, dmat) -> float:
    """Literal definition of the wedge evaluation as a signed permutation sum.

    (1/2^k) sum_sigma sgn(sigma) a[s0] prod_i M[s(2i-1), s(2i)].  Factorial
    cost; used to pin the normalization of the other two evaluators in
    dimensions <= 7.
    """
    a = np.asarray(a, dtype=float)
    m = np.asarray(dmat, dtype=float)
    d = a.size
    k = (d - 1) // 2
    total = 0.0
    for perm in permutations(range(d)):
        term = _perm_sign(perm) * a[perm[0]]
        for i in range(k):
            term *= m[perm[2 * i + 1], perm[2 * i + 2]]
        total += term
    return float(total / 2.0**k)


def _perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
