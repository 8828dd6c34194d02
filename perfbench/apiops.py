"""Library calls that the CLI does not expose, run as workload operations.

Each takes a configuration file path and plain parameters, as a CLI command
would, and calls through the module attribute so that tracing sees it.
"""

from __future__ import annotations

from momentangle import config, toric, variety


def star(path: str, samples: int, ray_steps: int, seed: int):
    cfg = config.load_configuration(path)
    return toric.star_shaped_check(cfg, samples=samples, ray_steps=ray_steps, seed=seed)


def estimate_c(path: str, samples: int, seed: int):
    cfg = config.load_configuration(path)
    return toric.estimate_c(cfg, samples=samples, seed=seed)


def moment(path: str, count: int, seed: int, c_estimate: float):
    """Moment-image membership of ``count`` freshly sampled points."""
    cfg = config.load_configuration(path)
    points = variety.sample_points(cfg, count, seed=seed)
    return [toric.moment_image_check(cfg, p, c_estimate=c_estimate) for p in points]


OPS = {"star": star, "estimate_c": estimate_c, "moment": moment}
