"""Host-time benchmark of the reproduction: four workloads, one command.

    python3 perfbench/run.py --workload fig-sweep --seed 24301 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
separate per-layer pass (cProfile folded into layers, ablations).  The
human-readable lines name every metric with its unit and sample count;
the last stdout line is the JSON result.  See ``perfbench/README.md``.

Every time is reported in *reference-speed seconds*: each measured call
is calibrated by probes of fixed kernels in the same process, before,
during and after it, and its wall time is divided by the host's slowdown
over those probes (see ``calibrate.py``).  ``host_speed`` gives the
ratio to raw wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    FIG_SWEEP,
    WORK_UNITS,
    WORKLOADS,
)

#: fresh-process set-up probes per run (setup_s is their median)
SETUP_PROBES = 5
#: a run whose children have not finished by then is stopped and fails
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------- processes
def _child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- metrics
def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.  With
    fewer than 21 samples that percentile is not above the median, so
    there is no tail to report: NaN."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return float("nan"), f"n/a: only n={n} cells"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of n={n}, 10 beyond"


def per_group(records: list[dict], field: str) -> float:
    """Sum over step groups of (median ``field``) / (median seconds):
    whole-step medians, so a window that ends mid-sweep does not tilt
    the mix between groups."""
    groups: dict[str, list[dict]] = {}
    for record in records:
        groups.setdefault(record["group"], []).append(record)
    work = sum(statistics.median(r[field] for r in g) for g in groups.values())
    secs = sum(statistics.median(r["secs"] for r in g)
               for g in groups.values())
    return work / secs


def end_to_end(workload: str, setups: list, result: dict):
    records = result["records"]
    whole = records
    if workload == "fig-sweep":
        # cell statistics over whole sweeps only, so the mix of VM runs
        # is the same in every run
        whole = records[:len(records) // FIG_SWEEP * FIG_SWEEP]
    cells = [secs * 1000 for r in whole for secs in r["cells"]]
    # the median cell of each population, averaged over the populations:
    # fig-sweep's unmodified and rollback runs differ 2-3x in size, so its
    # pooled median falls in the gap between them and jumps with the one
    # cell that borders it
    populations: dict[str, list[float]] = {}
    for r in whole:
        keys = r.get("populations") or [r["group"]] * len(r["cells"])
        for key, secs in zip(keys, r["cells"]):
            populations.setdefault(key, []).append(secs * 1000)
    p50 = statistics.mean(statistics.median(c) for c in populations.values())
    attempted = sum(len(r["cells"]) for r in records)
    failed = sum(len(r["cells"]) for r in records if r["problems"])
    tail_ms, tail_note = tail(cells)
    unit, alias = WORK_UNITS[workload]
    metrics = {
        "work_per_s": (per_group(records, "work"), "1/s",
                       f"{alias}: {unit} per second, n={len(records)} "
                       "steps"),
        "cell_mean_ms": (statistics.mean(cells), "ms", f"n={len(cells)}"),
        "peak_rss_mb": (result["rss_kb"] / 1024, "MB", "n=1 process"),
        "setup_s": (statistics.median(s["secs"] for s in setups),
                    "s", f"median of n={len(setups)} fresh processes"),
    }
    info = {
        "cell_p50_ms": (p50, "ms",
                        f"n={len(cells)} in {len(populations)} population(s)"),
        "cell_tail_ms": (tail_ms, "ms", tail_note),
        "failed_frac": (failed / attempted, "1", f"{failed}/{attempted}"),
    }
    if any(r["instructions"] for r in records):
        info["guest_mips"] = (
            per_group(records, "instructions") / 1e6, "Minstr/s",
            f"n={len(records)} steps")
    info["host_speed"] = (
        sum(r["secs"] for r in records) / sum(r["wall"] for r in records),
        "x", "reference speed = 1")
    problems = [p for r in records for p in r["problems"]]
    return metrics, info, attempted, failed, problems


def per_layer(result: dict, fleet: dict | None):
    def total(records):
        return sum(r["secs"] for r in records)

    untraced, traced = result["untraced"], result["traced"]
    # profiled self times are wall seconds of the traced steps
    to_ref = total(traced) / sum(r["wall"] for r in traced)
    layers = {k: v * to_ref for k, v in result["layers"].items()}
    profiled = sum(layers.values())
    counters: dict[str, float] = {}
    for record in untraced:
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
    metrics = {f"{layer}.self_s": (layers[layer], "s") for layer in LAYERS}
    metrics["other.self_s"] = (layers["other"], "s")
    metrics["other.share"] = (layers["other"] / profiled, "1")
    metrics["ledger.profiled_s"] = (profiled, "s")
    metrics["ledger.trace_overhead"] = (total(traced) / total(untraced), "x")
    entered = counters.get("sections_entered", 0)
    metrics["core.revocation.revocations"] = (
        counters.get("revocations", 0), "count")
    metrics["core.revocation.commit_ratio"] = (
        counters.get("sections_committed", 0) / entered if entered else 0.0,
        "1")
    metrics["vm.sched.context_switches"] = (
        counters.get("context_switches", 0), "count")
    metrics["trace.sink.events"] = (result["profile"]["events"], "count")
    restores = counters.get("restores", 0)
    metrics["vm.snapshot.restores"] = (restores, "count")
    metrics["vm.snapshot.restore_ms"] = (
        result["profile"]["restore_s"] * to_ref * 1000 / restores
        if restores else 0.0, "ms")
    phases = {"check.explore": 0.0, "check.cells": 0.0}
    for record in untraced:
        for name, secs in record.get("phases", {}).items():
            phases[name] += secs
    metrics["check.explore_s"] = (phases["check.explore"], "s")
    metrics["check.cells_s"] = (phases["check.cells"], "s")
    metrics["check.transitions"] = (counters.get("transitions", 0), "count")
    metrics["check.pruned"] = (counters.get("pruned", 0), "count")
    probe = result["cache"]
    for op in ("key", "get", "put"):
        metrics[f"cache.{op}_s"] = (sum(p[f"{op}_s"] for p in probe), "s")
    metrics["cache.bytes"] = (sum(p["bytes"] for p in probe), "B")
    warm = result["warm"]
    looked = warm["hits"] + warm["executed"]
    metrics["cache.hit_ratio"] = (
        warm["hits"] / looked if looked and warm["same"] else 0.0, "1")
    off = result.get("profile_off")
    metrics["obs.profile.overhead"] = (
        total(result["profile_on"]) / total(off) if off else 0.0, "x")
    interp = result.get("interp")
    metrics["ledger.interp_speedup"] = (
        total(interp["reference"]) / total(interp["fast"])
        if interp else 0.0, "x")
    if fleet is not None:
        secs = {lane: fleet[lane]["secs"]
                for lane in ("serial", "pool", "fleet")}
        metrics["fleet.pool_speedup"] = (secs["serial"] / secs["pool"], "x")
        metrics["fleet.fleet_speedup"] = (
            secs["serial"] / secs["fleet"], "x")
        metrics["fleet.overhead_s"] = (secs["fleet"] - secs["pool"], "s")
        metrics["fleet.bytes"] = (fleet["fleet_bytes"], "B")
    else:
        for name, unit in (("pool_speedup", "x"), ("fleet_speedup", "x"),
                           ("overhead_s", "s"), ("bytes", "B")):
            metrics[f"fleet.{name}"] = (0.0, unit)
    problems = []
    if not warm["same"]:
        problems.append("warm-cache outputs differ from cold-cache outputs")
    if interp and [r["fingerprint"] for r in interp["fast"]] != \
            [r["fingerprint"] for r in interp["reference"]]:
        problems.append("fast and reference interpreters disagree")
    if fleet is not None and len({fleet[lane]["fingerprint"]
                                  for lane in ("serial", "pool",
                                               "fleet")}) != 1:
        problems.append("serial, pool and fleet outputs differ")
    records = untraced + traced
    problems += [p for r in records for p in r["problems"]]
    attempted = sum(len(r["cells"]) for r in records)
    failed = sum(len(r["cells"]) for r in records if r["problems"])
    if problems and not failed:
        failed = 1
    return metrics, attempted, failed, problems


# ----------------------------------------------------------------- main
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the figure matrices (smoke test); pins are checked "
             "only at scale 1 and the default seed",
    )
    return parser


def _measure(args) -> tuple[dict, list, dict | None]:
    deadline = time.monotonic() + RUN_BUDGET_S
    common = [args.workload, str(args.seed), str(args.scale)]
    if args.trace:
        fleet = None
        if args.workload == "fig-sweep":
            fleet = _child(["fleet", *common], deadline)
        return _child(["trace", *common], deadline), [], fleet
    setups = [_child(["setup", *common], deadline)
              for _ in range(SETUP_PROBES)]
    return _child(["run", *common, str(args.seconds)], deadline), setups, None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result, setups, fleet = _measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale:g}")
    if args.trace:
        metrics, attempted, failed, problems = per_layer(result, fleet)
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:14.6g} {unit}")
    else:
        metrics, info, attempted, failed, problems = end_to_end(
            args.workload, setups, result)
        for name, (value, unit, note) in {**metrics, **info}.items():
            print(f"  {name:14s} {value:12.6g} {unit:9s} ({note})")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": spec[0], "unit": spec[1]}
            for name, spec in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
