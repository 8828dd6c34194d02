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

:func:`main` owns the run path: it loads the configuration, takes the
timestamp before the command runs and, when ``--json`` is given and the
command returns a result, records the manifest and writes the report.  Each
``cmd_*`` parses its flags, calls the library, which decides every verdict,
prints, and returns its exit code with the report's result (None: no report).
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
from .forms import verify
from .report import RunManifest, build_report, canonical_json, format_float, sha256_hex
from .topology import CyclicWeights, classify, count_diffeo_types, normalize_configuration
from .toric import FEASIBILITY_TOL, gale_check
from .actions import cover, random_directions
from .variety import DEFAULT_TOL, ZERO_TOL, sample_points, sample_with_zero_pattern

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_direction(sys.argv[1:] if argv is None else argv))
    try:
        cfg = None if getattr(args, "config", None) is None else load_configuration(args.config)
        timestamp = args.timestamp
        if timestamp is None:  # "" is a pinned timestamp too
            timestamp = datetime.now(timezone.utc).isoformat()
        code, result = args.func(args, cfg)
        if args.json and result is not None:
            report = build_report(_manifest(args, cfg, timestamp), result)
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


def _manifest(args, cfg, timestamp: str) -> RunManifest:
    """The run's manifest, read off the parsed arguments; ``cfg`` is hashed, or None."""
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


def cmd_verify(args, cfg) -> tuple[int, dict | None]:
    result = verify(cfg, _checked_samples(args.samples), args.seed, args.tol, args.rank_tol)
    for name, check in result["checks"].items():
        passed, total = check["passed"], check["total"]
        print(f"{name}: {'PASS' if passed == total else 'FAIL'} ({passed}/{total})")
    return EXIT_OK if result["all_passed"] else EXIT_FAIL, result


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
    gale = gale_check(cfg, args.c, args.tol)
    if gale.polytope is None:
        print(f"configuration not admissible (violating subset "
              f"{gale.admissibility.violating_subset})", file=sys.stderr)
        return EXIT_FAIL, None
    print(f"dimension: {gale.polytope.dim} (expected {gale.expected_dim})")
    print(f"vertices: {len(gale.polytope.vertices)}")
    for v in gale.polytope.vertices:
        print("  " + " ".join(format_float(x) for x in v))
    result = {**gale.polytope.to_dict(), "expected_dim": gale.expected_dim}
    return EXIT_OK if gale.passed else EXIT_FAIL, result


def cmd_cover(args, cfg) -> tuple[int, dict | None]:
    if args.direction:
        try:
            flat = np.array([float(x) for x in args.direction.split(",")])
        except ValueError as exc:
            raise StructuralError(f"cannot parse direction {args.direction!r}") from exc
        if flat.size != 2 * cfg.n:
            raise StructuralError(f"direction needs {2 * cfg.n} numbers (re,im pairs)")
        directions = [complexify(flat)]
    else:
        directions = random_directions(cfg, _checked_samples(args.samples), args.seed)
    all_ok, rows = True, []
    for i, (ok, row) in enumerate(cover(cfg, directions, args.tol)):
        all_ok &= ok
        flag = " (near branch locus)" if row["near_branch"] else ""
        print(f"direction {i}: fiber count {row['count']}, "
              f"constructed preimages {row['constructed']}{flag}"
              f" -> {'PASS' if ok else 'FAIL'}")
        rows.append(row)
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
