"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at the tiny scale, untraced and
traced, and checks that each result names every metric of its kind with its
unit and that no operation failed.  It also checks that a seed always
generates the same inputs and another seed different ones, and that the
benchmark refuses to run, with no result, where the program is missing.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def check_result(proc: subprocess.CompletedProcess, units: dict[str, str], what: str) -> None:
    expect(proc.returncode == 0, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{what}: nothing attempted")
    expect(result["correct"] and result["failed"] == 0,
           f"{what}: {result['failed']} of {result['attempted']} failed: {proc.stderr[-500:]}")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expect(got == units, f"{what}: metrics {got} differ from BENCHMARK.json {units}")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], (int, float)), f"{what}: {name} is not a number")


def check_determinism(names: list[str]) -> None:
    sys.path.insert(0, str(HERE))
    import workloads

    expect(sorted(workloads.BUILDERS) == sorted(names),
           f"workloads {sorted(workloads.BUILDERS)} differ from BENCHMARK.json {names}")
    for name in names:
        first = workloads.build(name, 5).fingerprint()
        expect(first == workloads.build(name, 5).fingerprint(), f"{name}: seed 5 differs")
        expect(first != workloads.build(name, 6).fingerprint(), f"{name}: seeds 5 and 6 agree")


def check_refuses_without_program(spec: dict) -> None:
    """Where only BENCHMARK.json and the benchmark exist, exit non-zero and print no result."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0, "ran without the program")
        expect('"metrics"' not in last[0], "printed a result without the program")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    try:
        check_determinism(names)
        print("inputs: one seed, one set of inputs")
        check_refuses_without_program(spec)
        print("bare directory: refused")
        for name in names:
            for trace in (0, 1):
                check_result(run(ROOT, name, trace), units[trace], f"{name} trace={trace}")
            print(f"{name}: ok")
    except SelfTestError as exc:
        print(f"self-test failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
