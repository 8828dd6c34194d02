"""Weight cycles, normal forms and the sphere-product classifier."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import (
    Configuration,
    CyclicWeights,
    StructuralError,
    check_admissible,
    classify,
    count_diffeo_types,
    normalize_configuration,
)
from _oracles import necklace_count, necklace_total, weight_cycle_walk, weight_cycles_brute


def directions(*degrees):
    ang = np.deg2rad(np.asarray(degrees, dtype=float))
    return Configuration(lambdas=np.exp(1j * ang).reshape(-1, 1), kind="classical")


def test_cyclic_weights_validation():
    CyclicWeights((1, 1, 1))
    with pytest.raises(StructuralError):
        CyclicWeights((1, 1))  # even length
    with pytest.raises(StructuralError):
        CyclicWeights((5,))  # too short
    with pytest.raises(StructuralError):
        CyclicWeights((1, 0, 1))
    with pytest.raises(StructuralError):
        CyclicWeights((1, 1.5, 1))


@pytest.mark.parametrize("build", [
    lambda: classify((1, 1, 1, 1, 1), True),
    lambda: CyclicWeights((True, 1, 1)),
    lambda: CyclicWeights((1, np.True_, 1)),
])
def test_bools_are_not_integers(build):
    with pytest.raises(StructuralError):
        build()


def test_canonical_rotation():
    assert CyclicWeights((2, 1, 1, 1, 1)).canonical().weights == (1, 1, 1, 1, 2)
    assert CyclicWeights((1, 3, 2)).canonical().weights == (1, 3, 2)
    assert CyclicWeights((3, 2, 1)).canonical().weights == (1, 3, 2)


def test_classify_pentagon():
    diffeo = classify((1, 1, 1, 1, 1), 1)
    assert diffeo.summands == ((4, 5),) * 5
    assert diffeo.manifold_dimension == 9
    assert diffeo.description() == "#5 (S^4 x S^5)"


def test_classify_with_s_two():
    diffeo = classify((1, 1, 1, 1, 1), 2)
    assert diffeo.summands == ((5, 6),) * 5
    assert diffeo.manifold_dimension == 11
    assert diffeo.description() == "#5 (S^5 x S^6)"


def test_classify_mixed_weights():
    diffeo = classify((1, 2, 2), 1)
    assert diffeo.manifold_dimension == 2 * 5 + 2 - 3
    assert diffeo.summands == ((2, 7), (4, 5), (4, 5))
    assert diffeo.description() == "#1 (S^2 x S^7) # 2 (S^4 x S^5)"


def test_classify_validation_and_hypothesis_flag():
    with pytest.raises(StructuralError):
        classify((1, 1, 1, 1, 1), 0)
    with pytest.warns(UserWarning):
        low = classify((1, 1, 1), 1)
    assert not low.hypothesis_ok


@given(
    st.lists(st.integers(1, 4), min_size=3, max_size=9).filter(lambda w: len(w) % 2 == 1),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_classify_dimension_invariant_and_rotation_independence(weights, s):
    weights = tuple(weights)
    if sum(weights) <= 3:
        return
    diffeo = classify(weights, s)
    dim = 2 * sum(weights) + 2 * s - 3
    assert diffeo.manifold_dimension == dim
    assert all(p + q == dim for p, q in diffeo.summands)
    rotated = weights[2:] + weights[:2]
    assert classify(rotated, s).summands == diffeo.summands


def test_normalize_pentagon(pentagon):
    assert normalize_configuration(pentagon).weights == (1, 1, 1, 1, 1)


def test_normalize_grouping_examples():
    assert normalize_configuration(directions(0, 10, 120, 240)).weights == (1, 1, 2)
    doubled = directions(0, 72, 144, 216, 288, 288)
    assert normalize_configuration(doubled).weights == (1, 1, 1, 1, 2)


def test_normalize_is_scale_and_rotation_invariant(pentagon):
    lam = pentagon.lambdas * np.exp(0.31j)
    lam = lam * np.linspace(0.5, 3.0, 5).reshape(-1, 1)  # per-point moduli
    moved = Configuration(lambdas=lam, kind="classical")
    assert normalize_configuration(moved).weights == (1, 1, 1, 1, 1)


def test_normalize_rejects_non_admissible():
    half_plane = directions(-40, -20, 0, 20, 40)
    with pytest.raises(StructuralError):
        normalize_configuration(half_plane)


def test_normalize_rejects_near_antipodal_pairs():
    # admissible (the LP clears its band) but inside a loose angular tolerance
    delta = np.rad2deg(2.5e-8)
    cfg = directions(0, 100, 180 + delta, 260)
    with pytest.raises(StructuralError, match="antipode"):
        normalize_configuration(cfg, angular_tol=1e-6)


@st.composite
def planar_configurations(draw):
    """Clusters of directions round a regular (2l+1)-gon, jittered and rotated.

    A spread of 0 puts whole clusters, and their antipodes, on one angle; a
    rotation of 0 puts a direction at the cut of the circle; large spreads
    leave admissibility, and large angular tolerances reach the antipodes.
    """
    corners = 2 * draw(st.integers(1, 3)) + 1
    sizes = draw(st.lists(st.integers(1, 3), min_size=corners, max_size=corners)
                 .filter(lambda sizes: sum(sizes) > 3))  # n > 3
    spread = draw(st.sampled_from([0.0, 1e-3, 0.3, 1.0, 2.5]))
    rotation = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 * np.pi)))
    angles = [rotation + 2.0 * np.pi * k / corners
              + draw(st.floats(-spread, spread) if spread else st.just(0.0))
              for k, size in enumerate(sizes) for _ in range(size)]
    radii = draw(st.lists(st.floats(0.1, 10.0), min_size=len(angles), max_size=len(angles)))
    lambdas = np.array(radii) * np.exp(1j * np.array(angles))
    return draw(st.permutations(list(lambdas)))


@given(planar_configurations(), st.sampled_from([1e-9, 0.1, 0.5, 2.0]))
@settings(max_examples=150, deadline=None)
def test_normalize_configuration_matches_the_walk(lambdas, angular_tol):
    """The closed-form class count equals the walk round the circle, raising where it does."""
    cfg = Configuration(lambdas=np.array(lambdas).reshape(-1, 1), kind="classical")
    expected = (weight_cycle_walk(lambdas, angular_tol) if check_admissible(cfg).admissible
                else "admissible")
    if isinstance(expected, tuple):
        assert normalize_configuration(cfg, angular_tol).weights == expected
    else:
        message = {"admissible": "not admissible", "tolerance": "antipode",
                   "count": "classes"}[expected]
        with pytest.raises(StructuralError, match=message):
            normalize_configuration(cfg, angular_tol)


def test_normalize_classify_round_trip(pentagon):
    weights = normalize_configuration(pentagon)
    diffeo = classify(weights, 1)
    assert diffeo.description() == "#5 (S^4 x S^5)"


def test_count_diffeo_types_pinned_values():
    assert count_diffeo_types(4) == 1
    assert count_diffeo_types(5) == 3


@pytest.mark.parametrize("n", range(4, 13))
def test_count_matches_necklace_oracle(n):
    assert count_diffeo_types(n, "rotation") == necklace_total(n)


def test_reflection_count_bounded_by_rotation_count():
    for n in range(4, 11):
        assert count_diffeo_types(n, "rotation+reflection") <= count_diffeo_types(n)


@pytest.mark.parametrize("equivalence", ["rotation", "rotation+reflection"])
@pytest.mark.parametrize("n", range(3, 15))
def test_count_matches_brute_enumeration(n, equivalence):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # n = 3 is below the hypothesis
        count = count_diffeo_types(n, equivalence)
    assert count == weight_cycles_brute(n, equivalence)


def test_count_at_large_n_matches_necklace_total():
    assert count_diffeo_types(60) == necklace_total(60)


def test_count_validation():
    with pytest.raises(StructuralError):
        count_diffeo_types(2)
    with pytest.raises(StructuralError):
        count_diffeo_types(6, "dihedral-ish")
    with pytest.warns(UserWarning):
        count_diffeo_types(3)


def test_necklace_oracle_hand_values():
    # compositions of 5 into 3 cyclic parts: {1,1,3} and {1,2,2}
    assert necklace_count(5, 3) == 2
    assert necklace_count(5, 5) == 1
    assert necklace_count(4, 3) == 1
