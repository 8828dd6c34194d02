"""Pfaffians of real skew-symmetric matrices.

``pfaffian`` reduces to skew tridiagonal form with Householder reflections
(each reflector flips the sign, since Pf(P A P^T) = det(P) Pf(A)), then
multiplies the superdiagonal entries in even positions (Wimmer, ACM TOMS
38(4), 2012, Algorithm 923).
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError

SKEW_TOL = 1e-12


def _validate_skew(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError("expected a square matrix")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if a.size and float(np.abs(a + a.T).max()) > SKEW_TOL * scale:
        raise StructuralError("matrix is not skew-symmetric")
    return a


def pfaffian(matrix) -> float:
    """Pfaffian via Householder skew tridiagonalization.  O(n^3), stable."""
    a = _validate_skew(matrix).copy()
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n % 2 == 1:
        return 0.0

    sign = 1.0
    for i in range(n - 2):
        x = a[i + 1 :, i]
        if np.linalg.norm(x[1:]) == 0.0:
            continue  # column already tridiagonal here
        alpha = -np.copysign(np.linalg.norm(x), x[0] if x[0] != 0 else 1.0)
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        # apply P = I - 2 v v^T on both sides of the trailing block
        a[i + 1 :, :] -= 2.0 * np.outer(v, v @ a[i + 1 :, :])
        a[:, i + 1 :] -= 2.0 * np.outer(a[:, i + 1 :] @ v, v)
        sign = -sign

    return float(sign * np.prod(a[np.arange(0, n - 1, 2), np.arange(1, n, 2)]))
