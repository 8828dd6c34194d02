"""Digests of every CLI command of the benchmark workloads: exit code, report and stdout.

    python3 tools/report_digests.py --seeds 3 13 > digests.txt

Runs every CLI command of the lists in ``perfbench/workloads.py`` (library
calls are skipped), for each seed given, through ``momentangle.cli.main``
with ``--json`` and a pinned ``--timestamp``.  The configuration files are
written to ``inputs/`` of a fresh temporary directory that the commands run
in, so the paths inside every report are the same on every run and in
every checkout.  The program is imported from ``src/`` of the checkout this
file sits in.

Prints one line per command: ``<workload>:<seed>:<op id>``, the exit code,
the sha256 of the report (``-`` if none was written) and the sha256 of
standard output.  A change keeps every report byte for byte when ``diff``
finds nothing between this output at its parent and at the change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMESTAMP = "2024-01-01T00:00:00Z"
WORKLOADS = ("admit", "verify", "sample", "polytope")
INPUTS = "inputs"
REPORT = "report.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(cli_main, workloads, name: str, seed: int, tiny: bool):
    """``(id, exit code, report sha256, stdout sha256)`` of each CLI command, in list order."""
    workload = workloads.build(name, seed, tiny=tiny)
    Path(INPUTS).mkdir()
    try:
        workload.write(Path(INPUTS))
        for op in workload.ops:
            if op.argv is None:
                continue
            argv = [a.replace(workloads.DIR, INPUTS) for a in op.argv]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = cli_main(argv + ["--json", REPORT, "--timestamp", TIMESTAMP])
                except SystemExit as exc:  # argparse rejects bad argv this way
                    rc = exc.code
            report = "-"
            if os.path.exists(REPORT):
                report = _sha256(Path(REPORT).read_bytes())
                os.remove(REPORT)
            yield f"{name}:{seed}:{op.id}", rc, report, _sha256(sink.getvalue().encode())
    finally:
        for path in Path(INPUTS).iterdir():
            path.unlink()
        Path(INPUTS).rmdir()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' runs a few commands per workload")
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import momentangle.cli
    import workloads

    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="report-digests-") as work:
        os.chdir(work)
        try:
            for seed in args.seeds:
                for name in WORKLOADS:
                    for line in digests(momentangle.cli.main, workloads, name, seed,
                                        args.scale == "tiny"):
                        print(*line)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
