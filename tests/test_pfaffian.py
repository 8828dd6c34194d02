"""Pfaffian: fast tridiagonalization path against the cofactor recursion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import StructuralError, pfaffian

from _oracles import pfaffian_naive, pfaffian_parlett_reid


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_entries(bad):
    mat = np.array([[0.0, bad], [-bad, 0.0]])
    with pytest.raises(StructuralError, match="non-finite"):
        pfaffian(mat)
    big = random_skew(np.random.default_rng(3), 6)
    big[1, 4], big[4, 1] = bad, -bad
    with pytest.raises(StructuralError, match="non-finite"):
        pfaffian(big)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8, 10]),
       st.floats(0.0, 0.9))
@settings(max_examples=80, deadline=None)
def test_matches_naive_with_zero_patterns(seed, d, density):
    """Symmetric zero patterns leave columns already reduced at interior
    steps, where no reflector is applied and the sign must not flip."""
    rng = np.random.default_rng(seed)
    mat = random_skew(rng, d)
    holes = np.triu(rng.random((d, d)) < density, 1)
    mat[holes | holes.T] = 0.0
    before = mat.copy()
    scale = max(1.0, float(np.linalg.norm(mat, 2))) ** (d // 2)
    assert pfaffian(mat) == pytest.approx(pfaffian_naive(mat), rel=1e-9, abs=1e-12 * scale)
    np.testing.assert_array_equal(mat, before)
    # the elimination oracle that the stacked contact volumes are checked against
    assert pfaffian_parlett_reid(mat) == pytest.approx(pfaffian_naive(mat), rel=1e-9,
                                                       abs=1e-12 * scale)
