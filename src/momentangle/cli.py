"""Command-line frontend: reproducible verification runs and reports.

Commands
--------
check     admissibility of a configuration file (exit 0/1)
verify    sample every stratum and check the kernel/volume propositions
classify  diffeomorphism type from weights or from a configuration
gale      Gale-transform polytope (dimension, vertices)
cover     branched-cover fiber counts over sphere directions
count     number of weight cycles N(n) up to rotation (or +reflection)
sample    draw and certify points, optionally on a stratum

Exit codes: 0 = pass, 1 = verification or admissibility failure,
2 = usage/parse/structural error or a report that cannot be written.  All
numbers print with 17 significant digits; pass ``--json PATH`` to write a
canonical JSON report.  Identical command lines with a pinned
``--timestamp`` write identical bytes.  The manifest records the command,
configuration, seed, tolerances, timestamp and version, not every flag.

:func:`main` owns the run path: it loads the configuration, records the
manifest and writes the report.  Each ``cmd_*`` only computes and prints,
and returns its exit code with the report's result (None: no report).
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from functools import cache

import numpy as np

from . import __version__
from .config import (
    DEFAULT_RANK_TOL,
    HULL_TOL,
    check_admissible,
    check_mixed_admissible,
    complexify,
    configuration_to_dict,
    load_configuration,
)
from .errors import NumericalError, StructuralError
from .forms import VOLUME_MODULUS_RTOL, evaluate_stack, vanishes, volume_sign
from .report import RunManifest, build_report, canonical_json, format_float, sha256_hex
from .topology import CyclicWeights, classify, count_diffeo_types, normalize_configuration
from .toric import FEASIBILITY_TOL, _checked_scale, _gale_polytope
from .actions import _fibers
from .variety import (DEFAULT_TOL, ZERO_TOL, _sample, _stratum, sample_points,
                      sample_with_zero_pattern)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

ANGLE_LIMIT = 1e-6


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_direction(sys.argv[1:] if argv is None else argv))
    try:
        cfg = None if getattr(args, "config", None) is None else load_configuration(args.config)
        manifest = _manifest(args, cfg)
        code, result = args.func(args, cfg)
        if args.json and result is not None:
            report = build_report(manifest, result)
            try:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(report)
            except OSError as exc:
                raise StructuralError(f"cannot write report: {exc}") from exc
        return code
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


def _join_direction(argv) -> list[str]:
    """``--direction V`` as ``--direction=V``: argparse reads a V like ``-1,0`` as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--direction" and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="momentangle",
        description="Verification toolkit for links of Hermitian quadric intersections.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide admissibility of a configuration")
    p.add_argument("config")
    p.add_argument("--tol", type=float, default=HULL_TOL)
    _common_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="sample strata and verify the form propositions")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=20, help="samples per stratum")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    _common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="diffeomorphism type from weights or a config")
    p.add_argument("config", nargs="?", help="configuration file (m = 1)")
    p.add_argument("--weights", help="comma-separated cyclic weights, e.g. 1,1,1,1,1")
    p.add_argument("--s", type=int, default=1, help="number of squared variables (s >= 1)")
    _common_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gale", help="Gale-transform polytope of a configuration")
    p.add_argument("config")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=FEASIBILITY_TOL)
    _common_flags(p)
    p.set_defaults(func=cmd_gale)

    p = sub.add_parser("cover", help="branched-cover fiber counts over directions")
    p.add_argument("config")
    p.add_argument("--direction", help="interleaved re,im,... of a direction in C^n")
    p.add_argument("--samples", type=int, default=5, help="random directions when none given")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=ZERO_TOL)
    _common_flags(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("count", help="count weight cycles N(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--equivalence", choices=("rotation", "rotation+reflection"),
                   default="rotation")
    _common_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sample", help="draw certified points")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    p.add_argument("--pattern", help="comma-separated w indices to pin to zero "
                                     "(mixed-general)")
    p.add_argument("--null-stratum", action="store_true",
                   help="sample the null quadric stratum (mixed-m1)")
    _common_flags(p)
    p.set_defaults(func=cmd_sample)

    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", help="write a canonical JSON report")
    p.add_argument("--timestamp", default=None,
                   help="timestamp embedded in reports (default: current UTC time)")


def _checked_samples(samples: int) -> int:
    """``--samples`` as given; :class:`StructuralError` unless it is positive."""
    if samples < 1:
        raise StructuralError(f"--samples must be positive, got {samples}")
    return samples


def _manifest(args, cfg) -> RunManifest:
    """The run's manifest, read off the parsed arguments; ``cfg`` is hashed, or None."""
    timestamp = args.timestamp
    if timestamp is None:  # "" is a pinned timestamp too
        timestamp = datetime.now(timezone.utc).isoformat()
    cfg_hash = None if cfg is None else sha256_hex(canonical_json(configuration_to_dict(cfg)))
    return RunManifest(
        command=args.command,
        config_path=getattr(args, "config", None),
        config_hash=cfg_hash,
        seed=getattr(args, "seed", None),
        tolerances={name: value for name, value in vars(args).items()
                    if name in ("tol", "rank_tol", "c")},
        timestamp=timestamp,
        version=__version__,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_check(args, cfg) -> tuple[int, dict | None]:
    if cfg.kind == "classical" or cfg.m == 1:
        report = check_admissible(cfg, args.tol)
        result = {**vars(report), "admissible": report.admissible}
        admissible = report.admissible
        print(f"siegel: {'PASS' if report.siegel else 'FAIL'}")
        wh = "PASS" if report.weak_hyperbolicity else f"FAIL (subset {report.violating_subset})"
        print(f"weak hyperbolicity: {wh}")
        if report.degenerate:
            print("degenerate: hull distance inside the tolerance band")
    else:
        mixed = check_mixed_admissible(cfg, args.tol)
        result = {
            "admissible": mixed.admissible,
            "failing_subsets": [list(K) for K in mixed.failing],
        }
        admissible = mixed.admissible
        for K, rep in sorted(mixed.reports.items()):
            print(f"components {list(K)}: {'PASS' if rep.admissible else 'FAIL'}")
    print(f"admissible: {'yes' if admissible else 'no'}")
    return EXIT_OK if admissible else EXIT_FAIL, result


def _verification_cases(cfg, samples, seed, tol, rank_tol):
    """(name, points) pairs covering every degeneracy stratum.

    The strata on the ambient link are sampled in one call; the null quadric
    of a mixed-m1 link with s >= 2 adds two equations, so it takes another.
    """
    names, strata = ["generic"], [((), seed, samples)]
    if cfg.kind == "mixed-m1":
        names.append("stratum w = 0")
        strata.append((_stratum(cfg, tuple(range(cfg.s)))[0], seed + 1, samples))
    elif cfg.kind == "mixed-general":
        from itertools import combinations
        index = 1
        for size in range(1, cfg.m + 1):
            for K in combinations(range(cfg.m), size):
                names.append(f"stratum w{sorted(K)} = 0")
                strata.append((_stratum(cfg, K)[0], seed + index, samples))
                index += 1
    cases = list(zip(names, _sample(cfg, strata, tol=tol, rank_tol=rank_tol)))
    if cfg.kind == "mixed-m1" and cfg.s >= 2:
        # The null quadric minus {w = 0}: kernel stays 1-dimensional and
        # the form stays contact there, so these points count as generic
        # for the per-point checks below.
        cases += zip(["null-quadric stratum"],
                     _sample(cfg, [((), seed + 2, samples)], tol=tol, rank_tol=rank_tol,
                             null_sum=True))
    return cases


def cmd_verify(args, cfg) -> tuple[int, dict | None]:
    cases = _verification_cases(cfg, _checked_samples(args.samples), args.seed, args.tol,
                                args.rank_tol)
    checks: dict[str, tuple[int, int]] = {}

    def record(name: str, ok: np.ndarray) -> None:
        """(passed, total) of one check over the points it applies to; none, no entry."""
        if ok.size:
            checks[name] = (int(np.count_nonzero(ok)), ok.size)

    points = [point for _, case_points in cases for point in case_points]
    ev = evaluate_stack(cfg, points, args.rank_tol)
    volume, modulus = ev.contact_volume, ev.contact_volume_modulus
    cap = ev.ker_alpha_cap_ker_dalpha_dim
    zero = cap > 0  # rank B < d + 1: the volume vanishes (forms module docstring)
    # The first point calibrates the orientation (forms.orientation_sign).
    kappa = 0.0 if cfg.kind == "classical" else volume_sign(volume[0], cap[0])
    record("jacobian rank maximal", ev.jacobian_rank == cfg.equation_count)
    record("kernel dimensions per stratum",
           (ev.ker_dalpha_dim == ev.expected_kernel_dims[:, 0])
           & (ev.ker_alpha_cap_ker_dalpha_dim == ev.expected_kernel_dims[:, 1]))
    record("closed-form kernel family agreement", ev.family_angle < ANGLE_LIMIT)
    if cfg.kind == "classical":
        record("contact volume vanishes (total degeneracy)", zero)
        record(f"Poisson leaf rank {2 * cfg.m}", ev.leaf_rank == 2 * cfg.m)
        record("leaf 2-form degeneracy",
               vanishes(ev.leaf_two_form_magnitude, ev.leaf_two_form_bound))
    else:
        # The volume vanishes exactly where ker dalpha jumps: the strata with
        # ker alpha cap ker dalpha != 0 in the dimension table.
        degenerate = ev.expected_kernel_dims[:, 1] > 0
        record("contact volume vanishes on degenerate strata", zero[degenerate])
        matches = np.abs(np.abs(volume) - modulus) <= VOLUME_MODULUS_RTOL * modulus
        record("contact volume positive off degenerate strata",
               ((kappa * volume > 0) & ~zero & matches)[~degenerate])
    record("no indeterminate ranks", ~ev.indeterminate)

    all_ok = True
    result: dict = {"cases": [name for name, _ in cases], "checks": {}}
    for name in sorted(checks):
        ok, total = checks[name]
        passed = ok == total
        all_ok &= passed
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({ok}/{total})")
        result["checks"][name] = {"passed": ok, "total": total}
    result["all_passed"] = all_ok
    return EXIT_OK if all_ok else EXIT_FAIL, result


def cmd_classify(args, cfg) -> tuple[int, dict | None]:
    if (args.weights is None) == (cfg is None):
        raise StructuralError("give either --weights or a configuration file")
    if cfg is None:
        try:
            parsed = tuple(int(x) for x in args.weights.split(","))
        except ValueError as exc:
            raise StructuralError(f"cannot parse weights {args.weights!r}") from exc
        weights = CyclicWeights(parsed)  # its StructuralError is a ValueError too
        source = {"weights": weights.weights}
    else:
        weights = normalize_configuration(cfg)
        source = {"normalized_weights": weights.weights}
        print(f"normalized weights: {','.join(str(x) for x in weights.weights)}")

    diffeo = classify(weights, args.s)
    print(f"{diffeo.description()}, dim {diffeo.manifold_dimension}")
    if not diffeo.hypothesis_ok:
        print("note: outside the n > 3 hypothesis")
    return EXIT_OK, {**source, **vars(diffeo), "description": diffeo.description()}


def cmd_gale(args, cfg) -> tuple[int, dict | None]:
    c = _checked_scale(cfg, args.c)
    report = check_admissible(cfg, args.tol)
    if not report.admissible:
        print(f"configuration not admissible (violating subset "
              f"{report.violating_subset})", file=sys.stderr)
        return EXIT_FAIL, None
    poly = _gale_polytope(cfg, c, args.tol)
    expected_dim = cfg.n - 2 * cfg.m - 1
    print(f"dimension: {poly.dim} (expected {expected_dim})")
    print(f"vertices: {len(poly.vertices)}")
    for v in poly.vertices:
        print("  " + " ".join(format_float(x) for x in v))
    result = poly.to_dict()
    result["expected_dim"] = expected_dim
    return EXIT_OK if poly.dim == expected_dim else EXIT_FAIL, result


def cmd_cover(args, cfg) -> tuple[int, dict | None]:
    directions: list[np.ndarray] = []
    if args.direction:
        try:
            flat = np.array([float(x) for x in args.direction.split(",")])
        except ValueError as exc:
            raise StructuralError(f"cannot parse direction {args.direction!r}") from exc
        if flat.size != 2 * cfg.n:
            raise StructuralError(f"direction needs {2 * cfg.n} numbers (re,im pairs)")
        directions.append(complexify(flat))
    else:
        rng = np.random.Generator(np.random.Philox(key=np.array(
            [args.seed % (1 << 64), 0], dtype=np.uint64)))
        for _ in range(_checked_samples(args.samples)):
            v = rng.normal(size=2 * cfg.n)
            directions.append(complexify(v) / np.linalg.norm(v))

    all_ok = True
    rows = []
    for i, (direction, (info, preimages)) in enumerate(
            zip(directions, _fibers(cfg, directions, args.tol))):
        if isinstance(preimages, NumericalError):
            raise preimages
        ok = info.count == len(preimages)
        all_ok &= ok
        flag = " (near branch locus)" if info.near_branch else ""
        print(f"direction {i}: fiber count {info.count}, "
              f"constructed preimages {len(preimages)}{flag}"
              f" -> {'PASS' if ok else 'FAIL'}")
        rows.append({
            "direction": [[float(c.real), float(c.imag)] for c in direction],
            "count": info.count,
            "constructed": len(preimages),
            "radius": info.radius,
            "near_branch": info.near_branch,
        })
    return EXIT_OK if all_ok else EXIT_FAIL, {"fibers": rows, "all_passed": all_ok}


def cmd_count(args, cfg) -> tuple[int, dict | None]:
    value = count_diffeo_types(args.n, args.equivalence)
    print(value)
    return EXIT_OK, {"n": args.n, "equivalence": args.equivalence, "count": value}


def cmd_sample(args, cfg) -> tuple[int, dict | None]:
    if args.pattern is not None and args.null_stratum:
        raise StructuralError("--pattern and --null-stratum are mutually exclusive")
    count = _checked_samples(args.samples)
    if args.pattern is not None:
        try:
            pattern = tuple(int(x) for x in args.pattern.split(","))
        except ValueError as exc:
            raise StructuralError(f"cannot parse pattern {args.pattern!r}") from exc
        points = sample_with_zero_pattern(cfg, pattern, count, args.seed, args.tol,
                                          args.rank_tol)
    elif args.null_stratum:
        points = sample_with_zero_pattern(cfg, None, count, args.seed, args.tol, args.rank_tol)
    else:
        points = sample_points(cfg, count, args.seed, args.tol, args.rank_tol)

    worst = max(p.residual_norm for p in points)
    print(f"certified {len(points)} points; worst residual {format_float(worst)}")
    result = {
        "count": len(points),
        "worst_residual": worst,
        "points": [
            {
                "coordinates": p.coordinates.tolist(),
                "residual": p.residual_norm,
                "zero_pattern": list(p.zero_pattern),
            }
            for p in points
        ],
    }
    return EXIT_OK, result


if __name__ == "__main__":
    sys.exit(main())
