"""Smoke test of the benchmark: reduced-size runs print every metric.

    python3 perfbench/smoke.py [WORKLOAD ...]

For each workload (default: all four) it runs ``run.py`` at a reduced
figure scale, once with ``--trace 0`` and once with ``--trace 1``, and
checks that each run exits 0, judges its outputs correct, prints every
metric name of ``BENCHMARK.json`` with its unit on a human-readable line,
and ends with a JSON line holding exactly those metrics.  It also checks
that the benchmark refuses to run, without printing a result, from a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.2"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: outputs judged incorrect")
    if set(result["metrics"]) != set(expected):
        problems.append(
            f"{where}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{where}: {name} unit {got.get('unit')!r}")
        if not any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1] if len(line.split()) > 2):
            problems.append(f"{where}: no human line for {name} [{unit}]")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench-tmp" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "fig-sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["a checkout without sources did not fail cleanly"]
    return []


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    workloads = argv or sorted(names)
    problems = check_refuses_without_sources()
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            found = check_run(workload, trace, expected)
            problems += found
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
