"""Pfaffians of real skew-symmetric matrices.

``pfaffian`` reduces to skew tridiagonal form H = Q^T A Q with one LAPACK
Hessenberg reduction (``dgehrd``; the Hessenberg form of a skew matrix is
tridiagonal), the reduction of Wimmer, ACM TOMS 38(4), 2012, Algorithm 923.
Then Pf(A) = det(Q) Pf(H): Pf(H) is the product of the superdiagonal entries
in even positions, and det(Q) = (-1)^(number of nonzero tau), because each
reflector I - tau v v^T with tau != 0 has determinant -1 and tau = 0 is I.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError

SKEW_TOL = 1e-12


def dgehrd(a):
    """LAPACK ``dgehrd``; ``scipy.linalg`` loads on the first call, as few commands need it."""
    from scipy.linalg.lapack import dgehrd

    return dgehrd(a)


def _validate_skew(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise StructuralError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if a.size and float(np.abs(a + a.T).max()) > SKEW_TOL * scale:
        raise StructuralError("matrix is not skew-symmetric")
    return a


def pfaffian(matrix) -> float:
    """Pfaffian via one LAPACK skew tridiagonalization.  O(n^3), stable."""
    a = _validate_skew(matrix)
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n % 2 == 1:
        return 0.0
    h, tau, _ = dgehrd(a)  # dgehrd works on a copy; ``matrix`` is untouched
    sign = -1.0 if np.count_nonzero(tau) % 2 else 1.0
    return float(sign * np.prod(h[np.arange(0, n - 1, 2), np.arange(1, n, 2)]))
