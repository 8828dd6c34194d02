"""Pfaffian: the stacked elimination against the cofactor recursion and LAPACK."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import Configuration, StructuralError, evaluate_stack, forms, pfaffian
from momentangle.pfaffian import _pfaffians
from momentangle.variety import _verification_cases

from _oracles import hadamard_volume_bound, pfaffian_lapack, pfaffian_naive
from conftest import roots_of_unity


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
    # the Householder oracle that the stacked contact volumes are checked against
    assert pfaffian_lapack(mat) == pytest.approx(pfaffian_naive(mat), rel=1e-9, abs=1e-12 * scale)


def hadamard_bound(stack):
    """sqrt(prod_i |A_i|_2) over the rows, a bound on |Pf| since Pf^2 = det."""
    return np.sqrt(np.prod(np.linalg.norm(stack, axis=-1), axis=-1))


@pytest.mark.parametrize("d", [2, 4, 6, 8, 12, 22, 30])
def test_matches_lapack_oracle(d):
    rng = np.random.default_rng(100 + d)
    stack = np.array([random_skew(rng, d) for _ in range(10)])
    lapack = np.array([pfaffian_lapack(mat) for mat in stack])
    one_by_one = np.array([pfaffian(mat) for mat in stack])
    assert np.all(np.abs(one_by_one - lapack) <= 1e-14 * hadamard_bound(stack))
    assert _pfaffians(stack).tobytes() == one_by_one.tobytes()


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2, 4, 5, 6, 8, 12, 22]),
       st.integers(1, 7), st.floats(0.0, 0.9))
@settings(max_examples=60, deadline=None)
def test_same_bits_alone_and_in_any_stack(seed, d, count, density):
    """Every operation is elementwise across the stack, so neither the size
    nor the order of a stack moves a bit of any of its Pfaffians."""
    rng = np.random.default_rng(seed)
    stack = np.array([random_skew(rng, d) for _ in range(count)]).reshape(count, d, d)
    stack[:, rng.random((d, d)) < density] = 0.0
    stack = np.triu(stack, 1) - np.triu(stack, 1).transpose(0, 2, 1)
    values = _pfaffians(stack)
    alone = np.array([_pfaffians(mat[None])[0] for mat in stack])
    order = rng.permutation(count)
    assert values.tobytes() == alone.tobytes()
    assert _pfaffians(stack[order]).tobytes() == values[order].tobytes()
    assert _pfaffians(np.concatenate([stack, stack[order]])).tobytes() == np.concatenate(
        [values, values[order]]).tobytes()


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8, 10]),
       st.integers(1, 6), st.floats(0.0, 0.9))
@settings(max_examples=80, deadline=None)
def test_stack_matches_naive_with_zero_patterns(seed, d, count, density):
    """Zero patterns that are symmetric in each matrix, and differ between
    them, give zero pivots and reduced columns at any step of any matrix."""
    rng = np.random.default_rng(seed)
    stack = np.array([random_skew(rng, d) for _ in range(count)])
    holes = np.triu(rng.random((count, d, d)) < density, 1)
    stack[holes | holes.transpose(0, 2, 1)] = 0.0
    scale = np.maximum(1.0, np.linalg.norm(stack, 2, axis=(1, 2))) ** (d // 2)
    naive = np.array([pfaffian_naive(mat) for mat in stack])
    assert np.all(np.abs(_pfaffians(stack) - naive) <= 1e-9 * np.abs(naive) + 1e-12 * scale)


def test_zero_pivot_column_gives_zero_without_warning():
    """A column that is exactly zero when its step comes makes Pf = 0, with
    no 0/0 warning, and leaves the other matrices of the stack alone."""
    rng = np.random.default_rng(5)
    first = random_skew(rng, 10)
    first[:, 0] = first[0, :] = 0.0  # zero at the first step
    later = np.zeros((10, 10))
    later[:2, :2] = [[0.0, 3.0], [-3.0, 0.0]]
    later[3:, 3:] = random_skew(rng, 7)  # the first step leaves column 2 exactly zero
    other = random_skew(rng, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _pfaffians(np.array([first, later, other]))
        assert pfaffian(first) == 0.0 and pfaffian(later) == 0.0
    assert values[0] == 0.0 and values[1] == 0.0
    assert values[2].tobytes() == _pfaffians(other[None])[0].tobytes()
    assert values[2] == pytest.approx(pfaffian_naive(other), rel=1e-9)


#: The links whose contact volumes were calibrated against their Hadamard
#: bounds: the seven fixtures, then frame dimensions 21 to 29.
MARGIN_LINKS = [
    ("pentagon", None), ("hexagon_m2", None), ("mixed_s1", None), ("mixed_s2", None),
    ("mixed_general_m1", None), ("mixed_general_m2", None), ("mixed_general_m3", None),
    ("mixed_s3_n9", ("mixed-m1", 9, (1,), 3)), ("mixed_s3_n11", ("mixed-m1", 11, (1,), 3)),
    ("mixed_s3_n13", ("mixed-m1", 13, (1,), 3)),
    ("general_m2_n11", ("mixed-general", 11, (1, 3), None)),
    ("general_m2_n15", ("mixed-general", 15, (1, 3), None)),
    ("general_m4_n11", ("mixed-general", 11, (1, 2, 3, 4), None)),
]


@pytest.mark.parametrize("name, spec", MARGIN_LINKS, ids=[name for name, _ in MARGIN_LINKS])
def test_contact_volume_margins_on_and_off_strata(request, name, spec):
    """Against the Hadamard bound H of each point's frame, the elimination
    leaves on-stratum volumes (and every classical one) below 1e-14 H, and
    the others above 1e-7 H, at frame dimensions 7 to 29."""
    if spec is None:
        cfg = request.getfixturevalue(name)
    else:
        kind, n, powers, s = spec
        cfg = Configuration(lambdas=roots_of_unity(n, powers), kind=kind, s=s)
    points = [p for _, case in _verification_cases(cfg, 20, 0, 1e-10, 1e-8) for p in case]
    ev = evaluate_stack(cfg, points)
    bound = [hadamard_volume_bound(*forms._on_frame(cfg, point)[1:]) for point in points]
    ratio = np.abs(ev.contact_volume) / bound
    on = np.ones(len(points), bool) if cfg.kind == "classical" else ev.expected_kernel_dims[:, 1] > 0
    assert on.any()
    assert ratio[on].max() <= 1e-14
    assert cfg.kind == "classical" or ratio[~on].min() >= 1e-7
