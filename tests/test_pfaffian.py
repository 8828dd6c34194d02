"""Pfaffian: fast tridiagonalization path against the cofactor recursion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import pfaffian

from _oracles import pfaffian_naive


def random_skew(rng, d):
    a = rng.normal(size=(d, d))
    return a - a.T


@pytest.mark.parametrize("d", [0, 2, 4, 6, 8, 10])
def test_fast_matches_naive_even_dims(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        mat = random_skew(rng, d)
        fast = pfaffian(mat)
        slow = pfaffian_naive(mat)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("d", [1, 3, 5, 7])
def test_odd_dimension_pfaffian_vanishes(d):
    rng = np.random.default_rng(d)
    assert pfaffian(random_skew(rng, d)) == 0.0
    assert pfaffian_naive(random_skew(rng, d)) == 0.0


def test_known_values():
    mat = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert pfaffian(mat) == pytest.approx(3.0)
    # Pf of the direct sum of 2x2 blocks is the product of the block entries.
    blocks = np.zeros((6, 6))
    for i, v in enumerate([2.0, -1.5, 4.0]):
        blocks[2 * i, 2 * i + 1] = v
        blocks[2 * i + 1, 2 * i] = -v
    assert pfaffian(blocks) == pytest.approx(2.0 * -1.5 * 4.0)


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(42)
    for d in (2, 4, 6, 8):
        mat = random_skew(rng, d)
        assert pfaffian(mat) ** 2 == pytest.approx(np.linalg.det(mat), rel=1e-8)


def test_congruence_scaling():
    rng = np.random.default_rng(7)
    mat = random_skew(rng, 6)
    b = rng.normal(size=(6, 6))
    assert pfaffian(b @ mat @ b.T) == pytest.approx(
        np.linalg.det(b) * pfaffian(mat), rel=1e-8
    )


def test_rejects_non_skew_input():
    with pytest.raises(ValueError):
        pfaffian(np.ones((2, 2)))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6]))
@settings(max_examples=40, deadline=None)
def test_swap_antisymmetry(seed, d):
    """Exchanging two rows and the same two columns flips the sign."""
    rng = np.random.default_rng(seed)
    mat = random_skew(rng, d)
    swapped = mat.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    swapped[:, [0, 1]] = swapped[:, [1, 0]]
    assert pfaffian(swapped) == pytest.approx(-pfaffian(mat), rel=1e-9, abs=1e-12)
