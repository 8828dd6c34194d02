"""Benchmark of the momentangle CLI: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload admit --seed 1 --seconds 24 --trace 0

Runs one workload (see ``workloads.py`` and ``METRICS.md``) as a closed loop:
one client runs one operation at a time, back to back, in this process.  CLI
commands go through ``momentangle.cli.main(argv)`` with ``--json`` and a
pinned ``--timestamp``, so report writing is part of every command.  The
program is imported from ``src/`` of the checkout this file sits in.

The command list is run in passes until ``--seconds`` are up, at least one
whole one (see :func:`measure`).  On a shared host the same work runs up to
1.8 times slower, in phases that can outlast a run, so a small fixed
reference computation is timed between commands (:mod:`hostspeed`) and
every latency is scaled to the host speed at which that computation takes
a fixed time.  A command's latency is the median of its scaled passes.
Every output is checked between commands, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; its spans are
written to ``.perfbench/trace-<workload>-<seed>.jsonl``.

Standard output ends with two JSON lines: the environment and run details,
then the result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
TIMESTAMP = "2024-01-01T00:00:00Z"
WORKLOADS = ("admit", "verify", "sample", "polytope")
#: Set-ups per run: this process plus fresh interpreters.
SETUP_SAMPLES = 3
#: Timed in a fresh interpreter between set-ups: the imports every set-up makes.
IMPORT_PROBE = ("import time; start = time.perf_counter(); import json, numpy, scipy.optimize; "
                "print(time.perf_counter() - start)")
#: Seconds :data:`IMPORT_PROBE` takes at the reference host speed.
REFERENCE_IMPORT_S = 0.5
PROBE_TIMEOUT_S = 120
#: Whole passes (traced: rounds) before a run may stop at its deadline.  One
#: pass of ``sample`` takes up to 14 s, so two would overrun ``--seconds``.
MIN_PASSES = 1

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
}


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
    }


class Runner:
    """Runs operations of one workload against files in ``workdir``."""

    def __init__(self, workload, workdir: Path, cli_main, apis):
        from workloads import DIR

        self.workload = workload
        self.workdir = workdir
        self.cli_main = cli_main
        self.apis = apis
        self.tracer = None
        rel = str(workdir.relative_to(ROOT))
        self._calls = {}
        for op in [*workload.ops, workload.warmup]:
            out = f"{rel}/{op.id}.out.json"
            if op.argv is not None:
                argv = [a.replace(DIR, rel) for a in op.argv]
                self._calls[op.id] = (out, argv + ["--json", out, "--timestamp", TIMESTAMP])
            else:
                params = {k: v.replace(DIR, rel) if isinstance(v, str) else v
                          for k, v in op.params.items()}
                self._calls[op.id] = (out, params)

    def run(self, op):
        """Run one operation: (latency in s, exit code, report text, return value, error)."""
        out, call = self._calls[op.id]
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        sink = io.StringIO()
        rc = value = error = None
        scope = (self.tracer.command(op.id, "cli" if op.argv is not None else "api")
                 if self.tracer is not None else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with scope, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if op.argv is not None:
                    rc = self.cli_main(call)
                else:
                    value = self.apis[op.api](**call)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        report = None
        if error is None and op.argv is not None and os.path.exists(out):
            report = Path(out).read_text(encoding="utf-8")
        return latency, rc, report, value, error


def setup(args):
    """The work that setup_s times: import the program, write the inputs, warm up."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import momentangle.cli

    import apiops
    import workloads

    workload = workloads.build(args.workload, args.seed, tiny=args.scale == "tiny")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload.write(workdir)
        runner = Runner(workload, workdir, momentangle.cli.main, apiops.OPS)
        _, rc, _, _, error = runner.run(workload.warmup)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    if error is not None or rc != 0:
        shutil.rmtree(workdir, ignore_errors=True)
        raise RuntimeError(f"warm-up failed: exit {rc}, {error}")
    return time.perf_counter() - start, runner


def probe_setup(args) -> float:
    """Time one set-up in a fresh interpreter, where nothing is imported yet."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def probe_imports() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_setups(args, first_s: float) -> tuple[float, list[float], list[float]]:
    """``setup_s`` with its set-up and import samples.

    Set-up is mostly importing numpy and scipy, which the reference work of
    :mod:`hostspeed` does not track, so it is scaled by the import times of
    fresh interpreters, one after each set-up: ``REFERENCE_IMPORT_S`` over
    their median.
    """
    setups, imports = [first_s], [probe_imports()]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(probe_setup(args))
        imports.append(probe_imports())
    scale = REFERENCE_IMPORT_S / statistics.median(imports)
    return statistics.median(setups) * scale, setups, imports


def check(checker, op, rc, report: str | None, value) -> str | None:
    try:
        return checker.check(op, rc, None if report is None else json.loads(report), value)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def run_pass(runner, checker, gauge, samples: dict, problems: list, verdicts: dict,
             deadline: float | None = None) -> bool:
    """One pass over the command list; False if it stopped at ``deadline`` first.

    Each command's ``(start, latency)`` is appended under its id.  A gauge
    sample is taken between commands when one is due.  A CLI command whose
    exit code and report bytes repeat those of an earlier pass keeps that
    pass's verdict instead of being checked again.
    """
    for op in runner.workload.ops:
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        gauge.maybe_sample()
        start = time.perf_counter()
        latency, rc, report, value, error = runner.run(op)
        samples.setdefault(op.id, []).append((start, latency))
        if error is not None:
            problem = error
        elif op.argv is not None:
            key = (rc, None if report is None else hashlib.sha256(report.encode()).digest())
            previous = verdicts.get(op.id)
            if previous is None or previous[0] != key:
                verdicts[op.id] = (key, check(checker, op, rc, report, value))
            problem = verdicts[op.id][1]
        else:
            problem = check(checker, op, rc, report, value)
        if problem is not None:
            problems.append(f"{op.id} [{op.label}]: {problem}")
    return True


def measure(runner, checker, gauge, seconds: float, tracer=None) -> dict:
    """Passes over the command list until ``seconds`` have passed.

    Untraced: after :data:`MIN_PASSES` whole passes, the pass under way stops
    when ``seconds`` are up, so some commands have one sample more than the
    rest.  Traced: rounds of an untraced and a traced whole pass, at least
    :data:`MIN_PASSES`, and another while it fits in ``seconds``.
    """
    untraced: dict[str, list] = {}
    traced: dict[str, list] = {}
    problems: list[str] = []
    verdicts: dict = {}
    rounds = 0
    start = time.perf_counter()
    deadline = start + seconds
    gauge.block()
    while True:
        if tracer is None:
            if run_pass(runner, checker, gauge, untraced, problems, verdicts,
                        deadline if rounds >= MIN_PASSES else None):
                rounds += 1
            if rounds >= MIN_PASSES and time.perf_counter() >= deadline:
                break
            continue
        run_pass(runner, checker, gauge, untraced, problems, verdicts)
        tracer.install()
        runner.tracer = tracer
        try:
            run_pass(runner, checker, gauge, traced, problems, verdicts)
        finally:
            runner.tracer = None
            tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_PASSES and elapsed + elapsed / rounds > seconds:
            break
    gauge.block()
    return {"untraced": untraced, "traced": traced, "problems": problems, "rounds": rounds}


def latencies(samples: dict[str, list], gauge=None) -> list[float]:
    """Each command's median latency over its samples, scaled to reference speed by ``gauge``.

    Without a gauge the raw latencies are used.
    """
    return [statistics.median(lat * (gauge.factor(t, t + lat) if gauge else 1.0)
                              for t, lat in runs)
            for runs in samples.values()]


def attempted(result: dict) -> int:
    return sum(len(v) for key in ("untraced", "traced") for v in result[key].values())


def end_to_end(result: dict, gauge, setup_s: float) -> dict:
    lat = latencies(result["untraced"], gauge)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "ok_ratio": 1.0 - len(result["problems"]) / attempted(result),
        "peak_rss_mib": peak_kib / 1024.0,
    }


def per_layer(result: dict, gauge, tracer) -> dict:
    import tracing

    stats = tracing.summarize(tracer)
    stats["trace.overhead_frac"] = (sum(latencies(result["traced"], gauge))
                                    / sum(latencies(result["untraced"], gauge)) - 1.0)
    passes = result["rounds"]
    return {name: stats.get(name, 0.0) / (passes if unit in tracing.PER_PASS_UNITS else 1)
            for name, unit in tracing.PER_LAYER.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' runs a few operations per workload (self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


class Terminated(BaseException):
    """SIGTERM, raised where the run is so that clean-up still happens.

    It is not a SystemExit, which a command's argument parsing may raise and
    :meth:`Runner.run` therefore catches.
    """


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "momentangle" / "__init__.py").is_file():
        print(f"error: no momentangle package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    os.chdir(ROOT)

    setup_s, runner = setup(args)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import checks
        import hostspeed
        import tracing

        gauge = hostspeed.Gauge()
        setup_samples, import_samples = [setup_s], []
        if not args.trace:
            setup_s, setup_samples, import_samples = timed_setups(args, setup_s)
        checker = checks.Checker(runner.workload, checks.load_oracles(ROOT))
        tracer = tracing.Tracer() if args.trace else None
        result = measure(runner, checker, gauge, args.seconds, tracer)
        if tracer is not None:
            metrics = per_layer(result, gauge, tracer)
            units = tracing.PER_LAYER
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            metrics = end_to_end(result, gauge, setup_s)
            units = END_TO_END
        (WORK / f"samples-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(
            {"gauge": gauge.samples, "untraced": result["untraced"],
             "traced": result["traced"], "setup_samples": setup_samples,
             "import_samples": import_samples}))
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    lat = latencies(result["untraced"], gauge)
    raw = latencies(result["untraced"])
    p90 = statistics.quantiles(lat, n=10)[8]
    for problem in result["problems"][:10]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "rounds": result["rounds"],
        "commands": len(lat),
        "commands_beyond_p90": sum(1 for x in lat if x > p90),
        "samples_per_command": statistics.median(len(v) for v in result["untraced"].values()),
        "setup_samples": setup_samples,
        "import_samples": import_samples,
        "raw": {"ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": 1e3 * statistics.median(raw),
                "op_p90_ms": 1e3 * statistics.quantiles(raw, n=10)[8]},
        "host_gauge_ms": gauge.summary_ms(),
        "absent_spans": tracer.absent if tracer is not None else [],
        "environment": environment(threads),
    }))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": attempted(result),
        "failed": len(result["problems"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated as exc:
        sys.exit(128 + exc.args[0])
