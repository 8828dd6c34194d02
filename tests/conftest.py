"""Shared fixtures: frozen configurations and a session cache of samples."""

import numpy as np
import pytest

from momentangle import Configuration, sample_points, sample_with_zero_pattern


def roots_of_unity(n: int, powers) -> np.ndarray:
    j = np.arange(n)
    return np.column_stack([np.exp(2.0 * np.pi * 1j * j * k / n) for k in powers])


#: An admissible classical m = 1 configuration whose Siegel solve needs NNLS:
#: the minimum-norm least-squares weights of its hull have an entry -1/14.
NEGATIVE_LEAST_SQUARES = np.array([3j, -1 + 1j, -3 - 1j, 1, 1j])


@pytest.fixture(scope="session")
def pentagon() -> Configuration:
    """Classical m = 1 pentagon (fifth roots of unity)."""
    return Configuration(lambdas=roots_of_unity(5, (1,)), kind="classical")


@pytest.fixture(scope="session")
def hexagon_m2() -> Configuration:
    """Admissible classical (m, n) = (2, 6); angles perturbed off the roots
    of unity, whose antipodal pairs would break weak hyperbolicity."""
    ang = 2.0 * np.pi * np.arange(6) / 6 + 0.35 * np.sin(1 + np.arange(6))
    lam = np.column_stack([np.exp(1j * ang), np.exp(2j * ang)])
    return Configuration(lambdas=lam, kind="classical")


@pytest.fixture(scope="session")
def mixed_s1() -> Configuration:
    return Configuration(lambdas=roots_of_unity(5, (1,)), kind="mixed-m1", s=1)


@pytest.fixture(scope="session")
def mixed_s2() -> Configuration:
    return Configuration(lambdas=roots_of_unity(5, (1,)), kind="mixed-m1", s=2)


@pytest.fixture(scope="session")
def mixed_general_m1() -> Configuration:
    return Configuration(lambdas=roots_of_unity(5, (1,)), kind="mixed-general")


@pytest.fixture(scope="session")
def mixed_general_m2() -> Configuration:
    return Configuration(lambdas=roots_of_unity(7, (1, 2)), kind="mixed-general")


@pytest.fixture(scope="session")
def mixed_general_m3() -> Configuration:
    return Configuration(lambdas=roots_of_unity(7, (1, 2, 3)), kind="mixed-general")


@pytest.fixture(scope="session")
def batch():
    """Cached certified samples, shared across tests.

    ``batch(cfg, count)`` draws generic points, ``batch(cfg, count, "null")``
    the mixed-m1 null quadric, and ``batch(cfg, count, (0, 1))`` pins those w
    coordinates to zero.  Per-point RNG streams are prefix stable, so a
    larger request extends a cached smaller one and slices stay consistent.
    """
    cache: dict = {}

    def get(cfg: Configuration, count: int, pattern=None, seed: int = 0):
        key = (cfg.kind, cfg.s, cfg.lambdas.tobytes(), pattern, seed)
        points = cache.get(key)
        if points is None or len(points) < count:
            if pattern is None:
                points = sample_points(cfg, count, seed=seed)
            elif pattern == "null":
                points = sample_with_zero_pattern(cfg, None, count, seed=seed)
            else:
                points = sample_with_zero_pattern(cfg, pattern, count, seed=seed)
            cache[key] = points
        return points[:count]

    return get
