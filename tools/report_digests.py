"""Digests of every operation of the benchmark workloads: exit code, report and stdout.

    python3 tools/report_digests.py --seeds 3 13 > digests.txt

Runs every operation of the lists in ``perfbench/workloads.py``, every
workload of ``workloads.BUILDERS``, for each seed given.  A CLI command runs
through ``momentangle.cli.main`` with ``--json`` and a pinned
``--timestamp``; a library call of ``perfbench/apiops.py`` runs as the
benchmark runs it, and its return value is digested as the sha256 of its
``report.canonical_json``, with dataclasses turned into dicts by ``vars``
and NumPy values into lists or scalars by ``.tolist()``.  The configuration
files are written to ``inputs/`` of a fresh temporary directory that the
operations run in, so the paths inside every report are the same on every
run and in every checkout.  The program is imported from ``src/`` of the
checkout this file sits in.

Prints one line per operation: ``<workload>:<seed>:<op id>``, the exit code
(``-`` for a library call), the sha256 of the report or return value (``-``
if no report was written) and the sha256 of standard output.  A change keeps
every report and result byte for byte when ``diff`` finds nothing between
this output at its parent and at the change.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMESTAMP = "2024-01-01T00:00:00Z"
INPUTS = "inputs"
REPORT = "report.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plain(value):
    """``value`` in a report's types: dataclasses by ``vars``, NumPy values by ``.tolist()``."""
    if dataclasses.is_dataclass(value):
        return {key: _plain(item) for key, item in vars(value).items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def _run(op, program) -> tuple[str, str]:
    """Run one operation in the current directory: its exit code and report digest."""
    workloads, cli_main, apis, canonical_json = program
    if op.argv is None:
        params = {key: value.replace(workloads.DIR, INPUTS) if isinstance(value, str) else value
                  for key, value in op.params.items()}
        return "-", _sha256(canonical_json(_plain(apis[op.api](**params))).encode())
    argv = [a.replace(workloads.DIR, INPUTS) for a in op.argv]
    try:
        rc = cli_main(argv + ["--json", REPORT, "--timestamp", TIMESTAMP])
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code
    report = "-"
    if os.path.exists(REPORT):
        report = _sha256(Path(REPORT).read_bytes())
        os.remove(REPORT)
    return str(rc), report


def digests(program, name: str, seed: int, tiny: bool):
    """``(id, exit code, report sha256, stdout sha256)`` of each operation, in list order.

    ``program`` is ``(workloads, cli main, library calls, canonical_json)``.
    """
    workload = program[0].build(name, seed, tiny=tiny)
    Path(INPUTS).mkdir()
    try:
        workload.write(Path(INPUTS))
        for op in workload.ops:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                rc, report = _run(op, program)
            yield f"{name}:{seed}:{op.id}", rc, report, _sha256(sink.getvalue().encode())
    finally:
        for path in Path(INPUTS).iterdir():
            path.unlink()
        Path(INPUTS).rmdir()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' runs a few operations per workload")
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import apiops
    import momentangle.cli
    import workloads
    from momentangle.report import canonical_json

    program = (workloads, momentangle.cli.main, apiops.OPS, canonical_json)
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="report-digests-") as work:
        os.chdir(work)
        try:
            for seed in args.seeds:
                for name in workloads.BUILDERS:
                    for line in digests(program, name, seed, args.scale == "tiny"):
                        print(*line)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
