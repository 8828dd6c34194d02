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


def system_oracle(cfg, coords):
    """Link residuals rebuilt from the complex defining equations."""
    coords = np.asarray(coords, dtype=float)
    values = coords[0::2] + 1j * coords[1::2]
    w, z = values[: cfg.w_count], values[cfg.w_count:]
    rows = []
    if cfg.kind == "classical":
        for k in range(cfg.m):
            g = np.sum(cfg.lambdas[:, k] * np.abs(z) ** 2)
            rows += [g.real, g.imag]
    elif cfg.kind == "mixed-m1":
        g = np.sum(w**2) + np.sum(cfg.lambdas[:, 0] * np.abs(z) ** 2)
        rows += [g.real, g.imag]
    else:
        for k in range(cfg.m):
            g = w[k] ** 2 + np.sum(cfg.lambdas[:, k] * np.abs(z) ** 2)
            rows += [g.real, g.imag]
    rows.append(np.sum(np.abs(w) ** 2) + np.sum(np.abs(z) ** 2) - 1.0)
    return np.array(rows)


def _square_rows(wx, wy):
    """(Re, Im) rows of d(sum w_r^2): (2wx, -2wy; 2wy, 2wx) per coordinate."""
    rows = np.empty((2, 2 * wx.size))
    rows[0, 0::2], rows[0, 1::2] = 2.0 * wx, -2.0 * wy
    rows[1, 0::2], rows[1, 1::2] = 2.0 * wy, 2.0 * wx
    return rows


def jacobian_oracle(cfg, coords):
    """Real Jacobian of :func:`system_oracle`, written out per kind."""
    coords = np.asarray(coords, dtype=float)
    s = cfg.w_count
    jac = np.zeros((len(system_oracle(cfg, coords)), coords.size))
    zx, zy = coords[2 * s::2], coords[2 * s + 1::2]
    wx, wy = coords[0:2 * s:2], coords[1:2 * s:2]
    for k in range(cfg.lambdas.shape[1]):
        lam = cfg.lambdas[:, k]
        jac[2 * k, 2 * s::2], jac[2 * k, 2 * s + 1::2] = 2.0 * lam.real * zx, 2.0 * lam.real * zy
        jac[2 * k + 1, 2 * s::2], jac[2 * k + 1, 2 * s + 1::2] = 2.0 * lam.imag * zx, 2.0 * lam.imag * zy
    if cfg.kind == "mixed-m1":
        jac[0:2, 0:2 * s] = _square_rows(wx, wy)
    elif cfg.kind == "mixed-general":
        for k in range(s):
            jac[2 * k:2 * k + 2, 2 * k:2 * k + 2] = _square_rows(wx[k:k + 1], wy[k:k + 1])
    jac[-1] = 2.0 * coords
    return jac


def sample_reference(cfg, count, seed, pinned=(), null_sum=False, tol=1e-10,
                     rank_tol=1e-8, max_attempts_per_point=50):
    """Certified samples by the plain sequential loop, one attempt at a time.

    Attempt ``i`` starts from a Gaussian drawn from the Philox stream keyed by
    ``(seed, i)``, normalised, with the ``pinned`` real coordinates held at
    zero; ``null_sum`` appends Re/Im of ``sum_r w_r^2 = 0`` to the system.
    Gauss-Newton takes ``lstsq`` steps, halved until the residual 2-norm
    drops (at most 30 times, 100 iterations, infinity norm <= ``tol``).  A
    point is kept when the link's Jacobian has full rank (per-point SVD) and
    it is not within 1e-6 of a kept point.  Returns ``(coords, frame,
    zero_pattern)`` per point, the frame oriented so that
    ``det [J^T | frame] > 0``.
    """
    dim, s = cfg.ambient_real_dim, cfg.w_count
    free = np.setdiff1d(np.arange(dim), list(pinned))

    def embed(y):
        x = np.zeros(dim)
        x[free] = y
        return x

    def residual(y):
        x = embed(y)
        rows = system_oracle(cfg, x)
        if null_sum:
            total = np.sum((x[0:2 * s:2] + 1j * x[1:2 * s:2]) ** 2)
            rows = np.concatenate([rows, [total.real, total.imag]])
        return rows

    def jacobian(y):
        x = embed(y)
        jac = jacobian_oracle(cfg, x)
        if null_sum:
            extra = np.zeros((2, dim))
            extra[:, 0:2 * s] = _square_rows(x[0:2 * s:2], x[1:2 * s:2])
            jac = np.vstack([jac, extra])
        return jac[:, free]

    def project(y):
        r = residual(y)
        for _ in range(100):
            if np.linalg.norm(r, np.inf) <= tol:
                return y
            step = np.linalg.lstsq(jacobian(y), -r, rcond=None)[0]
            base, scale = np.linalg.norm(r), 1.0
            for _halving in range(31):
                r_new = residual(y + scale * step)
                if np.linalg.norm(r_new) < base:
                    y, r = y + scale * step, r_new
                    break
                scale *= 0.5
            else:
                return None
        return y if np.linalg.norm(r, np.inf) <= tol else None

    found = []
    for attempt in range(count * max_attempts_per_point):
        if len(found) == count:
            break
        key = np.array([seed % (1 << 64), attempt % (1 << 64)], dtype=np.uint64)
        start = np.random.Generator(np.random.Philox(key=key)).normal(size=free.size)
        y = project(start / np.linalg.norm(start))
        if y is None:
            continue
        x = embed(y)
        if np.linalg.norm(system_oracle(cfg, x), np.inf) > tol:
            continue
        jac = jacobian_oracle(cfg, x)
        _, sigma, vh = np.linalg.svd(jac)
        eq = jac.shape[0]
        if np.count_nonzero(sigma > rank_tol * sigma[0]) != eq:
            continue
        frame = vh[eq:].T.copy()
        if np.linalg.det(np.column_stack([jac.T, frame])) < 0:
            frame[:, -1] = -frame[:, -1]
        if any(np.linalg.norm(x - other) < 1e-6 for other, _, _ in found):
            continue
        w = x[0:2 * s:2] + 1j * x[1:2 * s:2]
        found.append((x, frame, tuple(int(k) for k in np.nonzero(np.abs(w) <= 1e-8)[0])))
    return found


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
