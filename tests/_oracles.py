"""Independent brute-force oracles.

Everything here is deliberately naive: no clever combinatorics, and no
linear programming except in :func:`admissibility_lp_reference`, the
one-LP-per-hull-verdict route that the library's certificates must agree
with, :func:`star_violations_lp`, the one-LP-per-grid-point route of the
star check, and :func:`polytope_lp_reference`, the one-LP-per-coordinate
route to a polytope's support, so that failures in the library cannot be
masked by shared machinery.
"""

import json
import math
from itertools import combinations, permutations, product
from math import comb, factorial

import numpy as np

ZERO_TOL = 1e-8  # w_k counts as zero when |w_k|^2 is at most this


def _w_zero(w):
    """Which complex w_k count as zero: |w_k|^2 <= ZERO_TOL."""
    return w.real**2 + w.imag**2 <= ZERO_TOL


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


def svd_screen_flags(points, size: int, tol: float = 1e-9) -> list[tuple[int, ...]]:
    """The ``size``-subsets, in lexicographic order, that the SVD screen leaves flagged.

    Every hull point ``P^T t`` of a subset's square matrix ``P`` has
    ``|P^T t|_inf >= sigma_min(P) / size``.  A subset is flagged when that
    bound, less the rounding allowance of a backward-stable SVD (each
    singular value within ``16 size eps sigma_max``), does not clear the tie
    band: the reference for the determinant screen of
    ``check_weak_hyperbolicity``, which must flag the same subsets.
    """
    from momentangle import config

    pts = np.asarray(points, dtype=float)
    allowance = 16 * size * np.finfo(float).eps
    flagged = []
    for subset in combinations(range(pts.shape[0]), size):
        sigma = np.linalg.svd(pts[list(subset)], compute_uv=False)
        if not (sigma[-1] - allowance * sigma[0]) / size > config.DEGENERACY_BAND * tol:
            flagged.append(subset)
    return flagged


def admissibility_lp_reference(cfg, tol: float = 1e-9):
    """Admissibility fields by one LP per hull verdict, and the hulls that tied.

    Every verdict is ``hull_distance <= tol`` and every tie flag
    ``in_tie_band``, both from the library's LP (:func:`hull_distance`):
    once for the whole configuration, then for each 2m-subset that
    :func:`svd_screen_flags` leaves flagged, in lexicographic order.  With a
    violator, only its own tie joins the Siegel one.  Returns ``((siegel,
    weak_hyperbolicity, violating_subset, degenerate), ties)``, where
    ``ties`` lists the hulls that set ``degenerate``: ``None`` for the whole
    configuration, else the subset.
    """
    from momentangle import config

    pts = cfg.realified_lambdas()
    dist = config.hull_distance(pts)
    siegel = dist <= tol
    siegel_ties = [None] if config.in_tie_band(dist, tol) else []
    subset_ties = []
    for subset in svd_screen_flags(pts, 2 * cfg.m, tol):
        dist = config.hull_distance(pts[list(subset)])
        tie = [subset] if config.in_tie_band(dist, tol) else []
        if dist <= tol:
            ties = siegel_ties + tie
            return (siegel, False, subset, bool(ties)), ties
        subset_ties += tie
    ties = siegel_ties + subset_ties
    return (siegel, True, None, bool(ties)), ties


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


def weight_cycle_walk(lambdas, angular_tol: float = 1e-9):
    """The weight cycle of an admissible planar configuration, by a walk round the circle.

    ``lambdas`` are the complex lambda_j.  The circle is cut at the
    antipodes of their directions; directions and antipodes are sorted
    together (a direction before an antipode at the same angle), and each
    antipode closes the run of directions since the previous one.  The run
    before the first antipode wraps round to join the last.  Returns the
    nonzero run sizes at their lexicographically minimal rotation, or
    ``"tolerance"`` when a direction lies within ``angular_tol`` of an
    antipode, or ``"count"`` when the number of runs is even or below 3.
    Admissibility is the caller's to check.
    """
    angles = np.mod(np.angle(np.asarray(lambdas, dtype=complex)), 2.0 * np.pi)
    antipodes = np.mod(angles + np.pi, 2.0 * np.pi)
    for a in angles:
        for b in antipodes:
            if min(abs(a - b), 2.0 * np.pi - abs(a - b)) < angular_tol:
                return "tolerance"
    events = sorted([(float(a), 0) for a in angles] + [(float(a), 1) for a in antipodes])
    sizes: list[int] = []
    run = 0
    leading = None  # directions before the first antipode; they wrap around
    for _, is_antipode in events:
        if is_antipode:
            if leading is None:
                leading = run
            elif run:
                sizes.append(run)
            run = 0
        else:
            run += 1
    wrapped = run + (leading or 0)
    if wrapped:
        sizes.append(wrapped)
    if len(sizes) % 2 == 0 or len(sizes) < 3:
        return "count"
    assert sum(sizes) == len(angles), "the walk lost points"
    return min(tuple(sizes[i:] + sizes[:i]) for i in range(len(sizes)))


def c_exact(lambdas) -> float:
    """Closed-form infimum of sum |z|^2 on a mixed-general link.

    With u_k = w_k^2 the link conditions collapse to |u| = 1 - sigma and
    sum_j t_j lambda_j = -u with t in the sigma-scaled simplex, so the
    smallest feasible sigma is 1/(1 + max_j sum_k |lambda^k_j|).
    """
    lam = np.asarray(lambdas, dtype=complex)
    return 1.0 / (1.0 + float(np.max(np.sum(np.abs(lam), axis=1))))


def star_violations_lp(lambdas, moment_values, ray_steps: int, tol: float = 1e-9):
    """Star-shapedness violations by one LP per grid point.

    For the i-th moment value w and each r of ``linspace(0, 1, ray_steps)``,
    the fiber over r w is nonempty when its target
    -(r w)^2 / (1 - |r w|^2) lies in the hull of the lambda_j.  The LP

        min u  s.t.  -u <= (sum_j t_j lambda_j - target)_d <= u,  sum t = 1,  t >= 0

    runs by HiGHS at a 1e-10 primal feasibility tolerance, over the real and
    imaginary parts d.  (i, r) is a violation when the sup-norm distance of
    its weights, clipped to t >= 0 and renormalised, exceeds ``tol``
    (``toric.FEASIBILITY_TOL``): the statement the star check decides,
    at the scale the samples are accurate to.
    """
    from scipy.optimize import linprog

    lam = np.asarray(lambdas, dtype=complex)
    n, m = lam.shape
    rows = np.empty((2 * m, n))
    rows[0::2], rows[1::2] = lam.real.T, lam.imag.T
    ones = np.ones((2 * m, 1))
    A_ub = np.block([[rows, -ones], [-rows, -ones]])
    A_eq = np.concatenate([np.ones(n), [0.0]]).reshape(1, -1)
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    violations = []
    for i, w in enumerate(moment_values):
        for r in np.linspace(0.0, 1.0, ray_steps):
            rw = r * np.asarray(w, dtype=complex)
            scaled = -(rw**2) / (1.0 - float(np.sum(np.abs(rw) ** 2)))
            target = np.empty(2 * m)
            target[0::2], target[1::2] = scaled.real, scaled.imag
            res = linprog(cost, A_ub=A_ub, b_ub=np.concatenate([target, -target]),
                          A_eq=A_eq, b_eq=[1.0], bounds=[(0, None)] * n + [(None, None)],
                          method="highs", options={"primal_feasibility_tolerance": 1e-10})
            if res.status != 0:
                raise RuntimeError(res.message)
            t = np.clip(res.x[:n], 0.0, None)
            if np.max(np.abs(rows @ (t / t.sum()) - target)) > tol:
                violations.append((i, float(r)))
    return tuple(violations)


def fiber_points_reference(cfg, direction, tol: float = 1e-8):
    """Preimages of a direction by the per-candidate loop: one ``certify`` per sign choice.

    The direction is normalized once: F = ``quadric_values`` and
    r = ``ray_radius`` of the raw direction, zhat = direction / |direction|,
    and w_k = +-sqrt(-F_k r^2) for each k with |F_k| r^2 > ``tol`` (0
    otherwise); the candidates (w, r zhat) run in ``itertools.product``
    order, and the first that fails certification raises.  Every certified
    candidate is kept.
    """
    from momentangle import certify, quadric_values, ray_radius

    zhat = np.atleast_1d(np.asarray(direction, dtype=complex))
    zhat = zhat / float(np.linalg.norm(zhat))
    r = ray_radius(cfg, direction)
    F = quadric_values(cfg, direction)
    choices = []
    for value, magnitude in zip(F * r**2, np.abs(F) * r**2):
        root = complex(np.sqrt(-value + 0.0j))
        choices.append((0.0 + 0.0j,) if magnitude <= tol else (root, -root))
    found = []
    for combo in product(*choices):
        values = np.concatenate([np.array(combo), r * zhat])
        coords = np.empty(2 * values.size)
        coords[0::2], coords[1::2] = values.real, values.imag
        found.append(certify(cfg, coords))
    return found


def _rank(matrix, rank_tol: float = 1e-8) -> int:
    """Singular values above ``rank_tol`` times the largest."""
    sigma = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    return int(np.sum(sigma > rank_tol * sigma[:1]))


def vertices_reference(A, b, tol: float = 1e-9) -> np.ndarray:
    """All basic feasible solutions of {t >= 0, At = b}, one per row.

    One SVD rank test and one least-squares solve per r-column subset,
    r = rank A; a solution is kept when it is >= -1e-11, its clipped
    residual is within ``tol``, and it lies 1e-7 or more from every kept one.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    r = _rank(A)
    found = []
    for cols in combinations(range(n), r):
        sub = A[:, cols]
        if _rank(sub) < r:
            continue
        sol, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.min(sol, initial=0.0) < -1e-11:
            continue
        t = np.zeros(n)
        t[list(cols)] = np.clip(sol, 0.0, None)
        if np.linalg.norm(A @ t - b, np.inf) > tol:
            continue
        if not any(np.linalg.norm(t - u, np.inf) < 1e-7 for u in found):
            found.append(t)
    return np.array(found) if found else np.zeros((0, n))


def polytope_lp_reference(A, b, tol: float = 1e-9):
    """(support, dim) of {t >= 0, At = b} by one maximisation of each t_j.

    The support is the j whose maximum exceeds ``tol``, by HiGHS at a 1e-10
    primal feasibility tolerance; dim = |support| - rank A[:, support].
    An infeasible LP gives (None, -1).
    """
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    support = []
    for j in range(n):
        cost = np.zeros(n)
        cost[j] = -1.0
        res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10})
        if res.status == 2:
            return None, -1
        if res.status != 0:
            raise RuntimeError(res.message)
        if res.x[j] > tol:
            support.append(j)
    return support, len(support) - (_rank(A[:, support]) if support else 0)


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
                     rank_tol=1e-8, max_attempts_per_point=50, tally=None):
    """Certified samples by the plain sequential loop, one attempt at a time.

    Attempt ``i`` starts from a Gaussian drawn from the Philox stream keyed by
    ``(seed, i)``, normalised, with the ``pinned`` real coordinates held at
    zero; ``null_sum`` appends Re/Im of ``sum_r w_r^2 = 0`` to the system.
    Gauss-Newton takes ``lstsq`` steps, halved until the residual 2-norm
    drops (at most 30 times, 100 iterations, infinity norm <= ``tol``).  A
    point is kept when the link's Jacobian has full rank (per-point SVD) and
    it is not within 1e-6 of a kept point.  Returns ``(coords, frame,
    zero_pattern)`` per point, the frame oriented so that
    ``det [J^T | frame] > 0``.  A ``tally`` dict, when given, receives the
    number of duplicates discarded under ``"duplicates"``.
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
    if tally is not None:
        tally["duplicates"] = 0
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
        if jacobian_ranks_reference(cfg, x[None], rank_tol)[0] != cfg.equation_count:
            continue
        frame = frame_reference(cfg, x)
        if any(np.linalg.norm(x - other) < 1e-6 for other, _, _ in found):
            if tally is not None:
                tally["duplicates"] += 1
            continue
        w = x[0:2 * s:2] + 1j * x[1:2 * s:2]
        found.append((x, frame, tuple(int(k) for k in np.nonzero(_w_zero(w))[0])))
    return found


def jacobian_ranks_reference(cfg, X, rank_tol=1e-8):
    """Numerical ranks of the real Jacobians at the rows of ``X``: one stacked
    SVD of singular values only, counted strictly above ``rank_tol`` times
    the largest."""
    sigma = np.linalg.svd(np.array([jacobian_oracle(cfg, x) for x in X]), compute_uv=False)
    return np.count_nonzero(sigma > rank_tol * sigma[:, :1], axis=1)


def frame_reference(cfg, coords):
    """Orthonormal tangent frame at a point: the Jacobian's kernel from its
    full SVD, the last column flipped unless ``det [J^T | frame] > 0``."""
    jac = jacobian_oracle(cfg, coords)
    frame = np.linalg.svd(jac)[2][jac.shape[0]:].T.copy()
    if np.linalg.det(np.column_stack([jac.T, frame])) < 0:
        frame[:, -1] = -frame[:, -1]
    return frame


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


def pfaffian_lapack(matrix) -> float:
    """Pfaffian by one LAPACK Householder tridiagonalization (``dgehrd``).

    The Hessenberg form H = Q^T A Q of a skew matrix is tridiagonal, and
    Pf(A) = det(Q) Pf(H): Pf(H) is the product of the superdiagonal entries
    in even positions, and det(Q) = (-1)^(number of nonzero tau), because each
    reflector I - tau v v^T with tau != 0 has determinant -1 and tau = 0 is I.
    O(n^3), orthogonal, and independent of the library's elimination.
    """
    from scipy.linalg.lapack import dgehrd

    a = _validate_skew(matrix)
    n = a.shape[0]
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    h, tau, _ = dgehrd(a)
    sign = -1.0 if np.count_nonzero(tau) % 2 else 1.0
    return float(sign * np.prod(h[np.arange(0, n - 1, 2), np.arange(1, n, 2)]))


def _form_weights(cfg):
    return np.concatenate([cfg.weights_a, cfg.weights_b])


def _rank_and_tie(sigma, rank_tol):
    """Rank (values strictly above rank_tol * max) and whether one lies in (cut/10, 10 cut]."""
    cut = rank_tol * sigma[0] if len(sigma) else 0.0
    return int(np.count_nonzero(sigma > cut)), bool(np.any((cut / 10 < sigma) & (sigma <= 10 * cut)))


def kernel_vector_reference(cfg, coords, T, mu):
    """v(T, mu) at one point, realified: the per-kind formula of the module docstring."""
    values = np.asarray(coords, dtype=float)[0::2] + 1j * np.asarray(coords, dtype=float)[1::2]
    w, z = values[: cfg.w_count], values[cfg.w_count:]
    T = np.atleast_1d(np.asarray(T, dtype=complex))
    vz = -1j * (2.0 * np.real(cfg.lambdas @ T) + mu) * z / cfg.weights_b
    if cfg.kind == "classical":
        vw = np.zeros(0, dtype=complex)
    elif cfg.kind == "mixed-m1":
        vw = -1j * (2.0 * np.conj(T[0]) * np.conj(w) + mu * w) / cfg.weights_a
    else:
        vw = -1j * (2.0 * np.conj(w) * np.conj(T) + mu * w) / cfg.weights_a
    v = np.concatenate([vw, vz])
    out = np.empty(2 * v.size)
    out[0::2], out[1::2] = v.real, v.imag
    return out


def _leaf_columns(cfg, coords, components):
    eye = np.eye(cfg.m, dtype=complex)
    return [kernel_vector_reference(cfg, coords, phase * eye[k], 0.0)
            for k in components for phase in (1.0, 1j)]


def kernel_family_reference(cfg, coords):
    """Closed-form kernel basis at one point, one column per (T, mu) of its stratum."""
    coords = np.asarray(coords, dtype=float)
    w = (coords[0::2] + 1j * coords[1::2])[: cfg.w_count]
    if cfg.kind == "classical":
        cols = _leaf_columns(cfg, coords, range(cfg.m))
        cols.append(kernel_vector_reference(cfg, coords, np.zeros(cfg.m), 1.0))
    elif cfg.kind == "mixed-m1":
        if not np.all(_w_zero(w)):
            # Tangency: sum_r (2 conj(T) |w_r|^2 + mu w_r^2) / a_r = 0.
            a = cfg.weights_a
            cols = [kernel_vector_reference(cfg, coords, np.conj(np.sum(w**2 / a)),
                                            -2.0 * float(np.sum(np.abs(w) ** 2 / a)))]
        else:
            cols = [kernel_vector_reference(cfg, coords, T, mu)
                    for T, mu in ((1.0, 0.0), (1j, 0.0), (0j, 1.0))]
    else:
        zero = _w_zero(w)
        T = np.zeros(cfg.m, dtype=complex)
        T[~zero] = -0.5 * np.conj(w[~zero]) / w[~zero]
        cols = _leaf_columns(cfg, coords, np.flatnonzero(zero))
        cols.append(kernel_vector_reference(cfg, coords, T, 1.0))
    return np.column_stack(cols)


def _orth_reference(matrix):
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, : np.count_nonzero(s > max(matrix.shape) * np.finfo(float).eps * s[0])]


def rank_checks_reference(a, dmat, rank_tol):
    """Ranks and tie flags of dalpha, [dalpha; alpha] and dalpha on ker alpha,
    one SVD per matrix, for alpha ``a`` and dalpha ``dmat`` on one frame."""
    ker_alpha = np.linalg.svd(a.reshape(1, -1))[2][1:].T
    ranks, ties = zip(*(_rank_and_tie(np.linalg.svd(matrix, compute_uv=False), rank_tol)
                        for matrix in (dmat, np.vstack([dmat, a]),
                                       ker_alpha.T @ dmat @ ker_alpha)))
    return ranks, ties


def bordered_rank_checks_reference(a, dmat, rank_tol):
    """Ranks and tie flags of dalpha and of B = [[0, a^T], [-a, dalpha]], one
    SVD per matrix, for alpha ``a`` and dalpha ``dmat`` on one frame."""
    bordered = np.block([[np.zeros((1, 1)), a[None, :]], [-a[:, None], dmat]])
    ranks, ties = zip(*(_rank_and_tie(np.linalg.svd(matrix, compute_uv=False), rank_tol)
                        for matrix in (dmat, bordered)))
    return ranks, ties


def hadamard_volume_bound(a, dmat) -> float:
    """Hadamard's bound k! * sqrt(prod_i |B_i|_2) on the contact volume of one
    frame, over the rows B_i of B = [[0, a^T], [-a, dalpha]] (Pf(B)^2 = det B)."""
    bordered = np.block([[np.zeros((1, 1)), a[None, :]], [-a[:, None], dmat]])
    k = (len(a) - 1) // 2
    return factorial(k) * math.exp(0.5 * float(np.log(np.linalg.norm(bordered, axis=1)).sum()))


def cap_plane_reference(frame, a, dmat, rank_tol=1e-8):
    """Ambient orthonormal basis of ker alpha cap ker dalpha: the kernel of
    the stacked [dalpha; alpha] on the frame, mapped by the frame."""
    _, sigma, vh = np.linalg.svd(np.vstack([dmat, a]))
    return frame @ vh[_rank_and_tie(sigma, rank_tol)[0]:].T


def point_checks_reference(cfg, point, rank_tol=1e-8):
    """Every per-point quantity ``verify`` checks, one point at a time.

    The per-point path: the Jacobian rebuilt and ranked by its own SVD;
    alpha and dalpha on the frame of :func:`frame_reference`; one SVD each
    for dalpha, [dalpha; alpha] and dalpha on ker alpha (ranks and tie
    flags); the numerical kernel from a second full SVD of dalpha; the
    family angle from orthonormalised spans; the contact volume as k! times
    the LAPACK Pfaffian of the bordered matrix; on classical links the
    leaf rank and leaf 2-form magnitude.
    """
    coords = point.coordinates
    frame = frame_reference(cfg, coords)
    d = frame.shape[1]
    wt = _form_weights(cfg)
    x, y = frame[0::2, :], frame[1::2, :]
    a = 2.0 * ((wt * coords[0::2]) @ y - (wt * coords[1::2]) @ x)
    m = 4.0 * (x.T @ (wt[:, None] * y))
    dmat = m - m.T
    (rank_d, rank_s, rank_r), ties = rank_checks_reference(a, dmat, rank_tol)

    _, sigma, vh = np.linalg.svd(dmat)
    numeric = frame @ vh[_rank_and_tie(sigma, rank_tol)[0]:].T
    qa, qb = _orth_reference(kernel_family_reference(cfg, coords)), _orth_reference(numeric)
    resid = qa - qb @ (qb.T @ qa)
    angle = float(np.arcsin(min(1.0, np.linalg.svd(resid, compute_uv=False)[0])))

    bordered = np.block([[np.zeros((1, 1)), a[None, :]], [-a[:, None], dmat]])
    k = (d - 1) // 2
    volume = float(factorial(k) * pfaffian_lapack(bordered))

    w = (coords[0::2] + 1j * coords[1::2])[: cfg.w_count]
    zeros = int(np.count_nonzero(_w_zero(w)))
    if cfg.kind == "classical":
        expected = (2 * cfg.m + 1, 2 * cfg.m)
    elif cfg.kind == "mixed-m1":
        expected = (3, 2) if zeros == cfg.w_count else (1, 0)
    else:
        expected = (2 * zeros + 1, 2 * zeros)

    checks = {
        "jacobian_rank": _rank_and_tie(
            np.linalg.svd(jacobian_oracle(cfg, coords), compute_uv=False), rank_tol)[0],
        "ker_dalpha_dim": d - rank_d,
        "ker_alpha_cap_ker_dalpha_dim": d - rank_s,
        "rank_dalpha_on_ker_alpha": rank_r,
        "expected_kernel_dims": expected,
        "trichotomy": "contact" if rank_r == d - 1 else "defect2" if rank_r == d - 3 else "deep",
        "indeterminate": any(ties),
        "contact_volume": volume,
        "family_angle": angle,
    }
    if cfg.kind == "classical":
        leaf = np.column_stack(_leaf_columns(cfg, coords, range(cfg.m)))
        checks["leaf_rank"] = _rank_and_tie(np.linalg.svd(leaf, compute_uv=False), rank_tol)[0]
        lx, ly = leaf[0::2, :], leaf[1::2, :]
        gram = 4.0 * (lx.T @ (wt[:, None] * ly))
        checks["leaf_two_form_magnitude"] = float(np.abs(gram - gram.T).max())
    return checks


def contact_volume_scale(cfg) -> float:
    """The fixed scale k! * (max weight)^k of a link's contact volumes.

    Criterion 5 and the volume comparisons of the tests measure on-stratum
    volumes against it; the library decides zeros per point instead.
    """
    k = (cfg.manifold_dim - 1) // 2
    return factorial(k) * float(np.max(_form_weights(cfg))) ** k


def _format_float_reference(value) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value in report: {value}")
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format(value, ".17g")


def canonical_json_reference(obj) -> str:
    """Canonical report JSON by one plain recursion: sorted keys, compact
    separators, every float through ``format(x, ".17g")`` with -0.0 written
    as 0 and nan/inf raising ``ValueError``.  JSON's types only, each of
    exactly that type: any other value raises ``TypeError``."""
    out: list[str] = []

    def write(obj) -> None:
        kind = type(obj)
        if kind is float:
            out.append(_format_float_reference(obj))
        elif obj is None:
            out.append("null")
        elif kind is bool:
            out.append("true" if obj else "false")
        elif kind is int:
            out.append(str(obj))
        elif kind is str:
            out.append(json.dumps(obj, ensure_ascii=True))
        elif kind in (list, tuple):
            out.append("[")
            for i, item in enumerate(obj):
                if i:
                    out.append(",")
                write(item)
            out.append("]")
        elif kind is dict:
            out.append("{")
            for i, key in enumerate(sorted(obj)):
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be strings, got {key!r}")
                if i:
                    out.append(",")
                out.append(json.dumps(key, ensure_ascii=True))
                out.append(":")
                write(obj[key])
            out.append("}")
        else:
            raise TypeError(f"cannot serialize {kind.__name__} into a report")

    write(obj)
    return "".join(out)
