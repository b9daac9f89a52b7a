"""Fleet scaling measurement: the evidence artifact ``BENCH_fleet.json``.

Measures wall-clock of the fig5–8 bench matrix and a DPOR checker
campaign through :class:`~repro.fleet.engine.FleetEngine` at several
loopback worker counts, caches disabled everywhere so every number is a
real execution.  The committed artifact records *measured* numbers for
the host it ran on — including ``host_cpus``, because loopback workers
can only speed a campaign up when the host has cores to run them on —
plus an explicitly-labelled analytical projection:

    ``projected_wall(n) = run_wall(1) / n + coordinator_overhead``

where ``coordinator_overhead = host_wall(1) - run_wall(1)`` is the
measured per-campaign cost of dispatch, pickling, transfer and reduce
(serial on the coordinator, so it does not shrink with n).  On a
single-core host the measured speedup is ~1.0 by physics; the CI
``fleet-smoke`` job regenerates this artifact on a multi-core runner
where measured and projected numbers can be compared directly.

Report schema (``repro.bench.fleet-perf/1``)::

    {
      "schema": "repro.bench.fleet-perf/1",
      "host_cpus": 4,
      "panels": ["5a", ...], "repetitions": 2, "seed": ...,
      "scale": 1.0,
      "bench": {
        "workers=1": {"runs": 144, "host_wall_s": ..., "run_wall_s": ...,
                       "bytes_sent": ..., "bytes_received": ...,
                       "speedup_vs_1": 1.0}, ...
      },
      "dpor": {"scenario": "handoff-trio", "workers=1": {...}, ...},
      "measured": {"bench_speedup_4_vs_1": ..., "dpor_speedup_4_vs_1": ...},
      "projection": {"model": ..., "coordinator_overhead_s": ...,
                     "projected_bench_wall_4_s": ...,
                     "projected_bench_speedup_4_vs_1": ...}
    }
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional, Sequence

from repro.bench.figures import WRITE_RATIOS, bench_scale, run_panel
from repro.bench.hostperf import DEFAULT_PANELS
from repro.bench.parallel import EngineStats
from repro.fleet.engine import FleetEngine

SCHEMA = "repro.bench.fleet-perf/1"
DEFAULT_OUTPUT = "BENCH_fleet.json"
DPOR_SCENARIO = "handoff-trio"


def _parse_panels(spec: Optional[str]):
    if not spec:
        return DEFAULT_PANELS
    from repro.bench.__main__ import _parse_panel

    return [_parse_panel(p) for p in spec.split(",") if p.strip()]


def _lane_totals(stats: EngineStats) -> dict:
    sent = sum(rec["bytes_sent"] for rec in stats.workers.values())
    received = sum(
        rec["bytes_received"] for rec in stats.workers.values()
    )
    return {
        "runs": stats.runs,
        "host_wall_s": round(stats.host_wall, 3),
        "run_wall_s": round(stats.run_wall, 3),
        "bytes_sent": sent,
        "bytes_received": received,
        "reassigned": stats.reassigned,
    }


def _measure_bench(
    workers: int, panels, repetitions: int, seed: int, progress
) -> dict:
    engine = FleetEngine.local(workers, cache=None)
    try:
        for panel in panels:
            run_panel(
                panel, repetitions=repetitions,
                write_ratios=WRITE_RATIOS, seed=seed, engine=engine,
            )
            if progress is not None:
                progress(
                    f"[fleet-perf] bench workers={workers}: "
                    f"{panel.figure}{panel.panel} done "
                    f"({engine.last_stats.host_wall:.1f}s)"
                )
        return _lane_totals(engine.stats)
    finally:
        engine.close()


def _measure_dpor(workers: int, progress) -> dict:
    from repro.check.dpor import explore_dpor

    engine = FleetEngine.local(workers, cache=None)
    try:
        t0 = time.perf_counter()
        report = explore_dpor(DPOR_SCENARIO, engine=engine)
        elapsed = time.perf_counter() - t0
        if progress is not None:
            progress(
                f"[fleet-perf] dpor workers={workers}: "
                f"{report.schedules} schedules in {elapsed:.1f}s"
            )
        cell = _lane_totals(engine.stats)
        cell["campaign_wall_s"] = round(elapsed, 3)
        cell["schedules"] = report.schedules
        return cell
    finally:
        engine.close()


def measure_fleet_perf(
    *,
    worker_counts: Sequence[int] = (1, 2, 4),
    repetitions: int = 2,
    seed: int = 0x5EED,
    panels: Optional[str] = None,
    include_dpor: bool = True,
    progress=None,
) -> dict:
    """Sweep the fleet over ``worker_counts`` and assemble the report."""
    panel_list = _parse_panels(panels)
    bench: dict[str, dict] = {}
    dpor: dict[str, object] = {"scenario": DPOR_SCENARIO}
    for n in worker_counts:
        bench[f"workers={n}"] = _measure_bench(
            n, panel_list, repetitions, seed, progress
        )
        if include_dpor:
            dpor[f"workers={n}"] = _measure_dpor(n, progress)

    report = {
        "schema": SCHEMA,
        "host_cpus": os.cpu_count() or 1,
        "panels": [f"{p.figure}{p.panel}" for p in panel_list],
        "repetitions": repetitions,
        "seed": seed,
        "scale": bench_scale(),
        "worker_counts": list(worker_counts),
        "bench": bench,
        "dpor": dpor if include_dpor else None,
    }

    base = bench.get(f"workers={worker_counts[0]}")
    measured: dict[str, float] = {}
    if base is not None:
        for n in worker_counts[1:]:
            cell = bench[f"workers={n}"]
            if cell["host_wall_s"]:
                measured[f"bench_speedup_{n}_vs_{worker_counts[0]}"] = (
                    round(base["host_wall_s"] / cell["host_wall_s"], 2)
                )
        if include_dpor:
            dbase = dpor.get(f"workers={worker_counts[0]}")
            for n in worker_counts[1:]:
                dcell = dpor.get(f"workers={n}")
                if dbase and dcell and dcell["campaign_wall_s"]:
                    measured[
                        f"dpor_speedup_{n}_vs_{worker_counts[0]}"
                    ] = round(
                        dbase["campaign_wall_s"]
                        / dcell["campaign_wall_s"], 2,
                    )
    report["measured"] = measured

    if base is not None and base["run_wall_s"]:
        overhead = max(0.0, base["host_wall_s"] - base["run_wall_s"])
        projection = {
            "model": "projected_wall(n) = run_wall(1)/n + "
                     "coordinator_overhead; overhead = host_wall(1) - "
                     "run_wall(1), measured, serial on the coordinator",
            "coordinator_overhead_s": round(overhead, 3),
        }
        for n in worker_counts[1:]:
            projected = base["run_wall_s"] / n + overhead
            projection[f"projected_bench_wall_{n}_s"] = round(projected, 3)
            projection[f"projected_bench_speedup_{n}_vs_1"] = round(
                base["host_wall_s"] / projected, 2
            )
        projection["note"] = (
            "projection assumes >= n idle cores; on a host with "
            f"{os.cpu_count() or 1} cpu(s) the measured speedups above "
            "are the ground truth for that host"
        )
        report["projection"] = projection
    return report


def write_fleet_perf(report: dict, path: str = DEFAULT_OUTPUT) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
