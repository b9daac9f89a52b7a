"""The four benchmark workloads, driven only through public entry points.

Each workload is a closed loop of *steps*: a step starts when the
previous one finishes, builds a fresh :class:`RunEngine` over a cold
:class:`ResultCache` (so every step pays the key/miss/put cost a first
CLI run pays), and returns a plain record: the work done, the step's
time and per-cell times in reference-speed seconds (see
``calibrate.py``), and an output fingerprint.  Step inputs come from
:func:`cell_seed` ``(seed, k)``, so one run covers several input
realizations and the same seed always gives the same inputs.

* ``fig-sweep`` -- figure panels 5a and 6c (unmodified and rollback, six
  write ratios, two repetitions).  One step is one write ratio of one
  panel (four VM runs, a cell each); twelve steps make a sweep.  Hot
  loops fuse into superblocks; barrier and undo-log work grows with the
  write ratio; no tracer, no snapshots.
* ``server-soak`` -- the ``soak`` preset rescaled to
  :data:`SOAK_REQUESTS` requests, chaos fault plan plus auditor.  One
  step is one server cell.  Monitors, revocation, the fault plane and
  the streaming tracer with its episode sink do the work.
* ``dpor-trio`` -- DPOR over ``handoff-trio``, then the three-policy
  oracle cell of every explored schedule plus :data:`DPOR_WALKS` seeded
  random-walk cells.  One step is one exploration; each oracle run is a
  cell.  Snapshot and restore dominate.
* ``obs-export`` -- the ``server-fleet`` capture (1020 guest threads,
  profiler on) with span building, episode detection and Chrome/JSONL
  export.  One step is one capture.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from typing import Any, Callable

from calibrate import Timed

#: seed at which the outputs are pinned (the repo-wide default, 0x5EED)
DEFAULT_SEED = 24301

WORKLOADS = ("fig-sweep", "server-soak", "dpor-trio", "obs-export")

#: what one unit of ``work_per_s`` is, and its name in the issue
WORK_UNITS = {
    "fig-sweep": ("runs", "runs_per_s"),
    "server-soak": ("requests", "requests_per_s"),
    "dpor-trio": ("executions", "executions_per_s"),
    "obs-export": ("spans", "spans_per_s"),
}

#: the soak preset's 4000 requests rescaled, so that a run holds enough
#: cells for a median and a tail, and each is short enough to calibrate
SOAK_REQUESTS = 1000
DPOR_SCENARIO = "handoff-trio"
DPOR_WALKS = 16
OBS_SCENARIO = "server-fleet"
FIG_PANELS = ((5, "a"), (6, "c"))
FIG_RATIOS = (0, 20, 40, 60, 80, 100)
#: fig-sweep steps per sweep: every write ratio of both panels
FIG_SWEEP = len(FIG_PANELS) * len(FIG_RATIOS)

#: (workload, group) -> outputs at DEFAULT_SEED and full scale; fig-sweep
#: pins the JSON of each whole panel of the first sweep, the others their
#: first step
PINS = {
    ("fig-sweep", "5a"): {"panel": "6749ba32a2e27915"},
    ("fig-sweep", "6c"): {"panel": "93e9bfaeae8397bd"},
    ("server-soak", "soak"): {"violations": 0, "report": "c9912f1e9fc3b203"},
    ("dpor-trio", "dpor"): {
        "divergences": 0,
        "reduction": "strategy=dpor explored=64 pruned=385 "
                     "transitions=2691 restores=448",
    },
    ("obs-export", "obs"): {
        "clock": 4010588, "spans": 5767, "episodes": 1430,
        "chrome": "045d92939331f603",
    },
}


def cell_seed(seed: int, k: int) -> int:
    """Input seed of step ``k`` (fig-sweep: of sweep ``k``)."""
    return seed + 7919 * k


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


# ------------------------------------------------------------------ setup
def setup(workload: str, seed: int) -> None:
    """Imports, ``source_digest()`` and building the presets/scenarios."""
    from repro.bench.parallel import source_digest

    source_digest()
    if workload == "fig-sweep":
        from repro.bench.figures import FigurePanel, run_panel  # noqa: F401
        from repro.bench.harness import comparison_specs
        from repro.bench.report import panel_json  # noqa: F401

        for figure, panel in FIG_PANELS:
            comparison_specs(
                FigurePanel(figure, panel).base_config(seed),
                repetitions=2,
            )
    elif workload == "server-soak":
        from repro.server.plane import run_server_cell  # noqa: F401
        from repro.server.presets import get_preset
        from repro.server.workload import build_server

        build_server(get_preset("soak").scaled(SOAK_REQUESTS), seed)
    elif workload == "dpor-trio":
        from repro.check.dpor import DporExplorer  # noqa: F401
        from repro.check.scenarios import get_scenario

        get_scenario(DPOR_SCENARIO).build()
    elif workload == "obs-export":
        from repro.obs.capture import capture_run  # noqa: F401
        from repro.obs.scenarios import get_scenario
        from repro.server.presets import get_preset
        from repro.server.workload import build_server

        get_scenario(OBS_SCENARIO)
        build_server(get_preset("fleet"), seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ steps
@contextmanager
def _measured(profiler):
    """Time one public call; profile the call itself and never the
    benchmark's own bookkeeping or calibration around it."""
    with Timed() as timed:
        if profiler is not None:
            profiler.enable()
        try:
            yield timed
        finally:
            if profiler is not None:
                profiler.disable()


def _engine(cache_dir):
    from repro.bench.parallel import ResultCache, RunEngine

    cache = None if cache_dir is None else ResultCache(cache_dir)
    return RunEngine(jobs=1, cache=cache)


def _record(group, timed, work, cells, stats, fingerprint, **extra):
    """The JSON-able record every step returns.  ``cells`` are raw walls
    measured inside the call; they are rescaled by the call's share of
    sampler-free time and by its calibration."""
    scale = timed.wall / timed.raw / timed.slowdown
    return {
        "group": group,
        "wall": timed.wall, "secs": timed.secs,
        "work": work, "instructions": 0,
        "cells": [wall * scale for wall in cells],
        "executed": stats.executed, "hits": stats.cache_hits,
        "fingerprint": fingerprint,
        "problems": [], "pinned": None, "counters": {},
        **extra,
    }


def fig_group(k: int) -> tuple[tuple[int, str], int]:
    """(panel, write ratio) of fig-sweep step ``k``."""
    return (FIG_PANELS[k // len(FIG_RATIOS) % len(FIG_PANELS)],
            FIG_RATIOS[k % len(FIG_RATIOS)])


def _fig_step(seed: int, k: int, cache_dir, profiler=None, *,
              options=None):
    from dataclasses import replace

    from repro.bench.figures import FigurePanel, run_panel
    from repro.bench.harness import comparison_specs
    from repro.bench.parallel import spec_key
    from repro.bench.report import panel_json

    (figure, letter), pct = fig_group(k)
    engine = _engine(cache_dir)
    with _measured(profiler) as timed:
        result = run_panel(
            FigurePanel(figure, letter), repetitions=2,
            write_ratios=(pct,), seed=cell_seed(seed, k // FIG_SWEEP),
            options=options, engine=engine,
        )
    stats = engine.last_stats
    counters = {"revocations": 0, "sections_committed": 0,
                "sections_entered": 0, "context_switches": 0}
    for runs in result.comparisons[0].runs.values():
        for run in runs:
            support = run.metrics.get("support", {})
            counters["revocations"] += support.get("revocations_completed", 0)
            counters["sections_committed"] += support.get(
                "sections_committed", 0)
            counters["sections_entered"] += support.get("sections_entered", 0)
            counters["context_switches"] += run.context_switches
    specs = comparison_specs(
        replace(result.comparisons[0].config, write_pct=pct),
        repetitions=2, options=options,
    )
    record = _record(
        f"{figure}{letter}-{pct}", timed, stats.runs, stats.run_walls, stats,
        digest(panel_json(result)),
        instructions=stats.guest_instructions, counters=counters,
        # cells are VM runs in spec order; a run's panel and mode fix its
        # size, so cell statistics are taken per (panel, mode)
        populations=[f"{figure}{letter}-{spec.mode}" for spec in specs],
    )
    if stats.executed and not stats.guest_instructions:
        record["problems"].append("step retired no guest instructions")
    return record, (spec_key, specs, result)


def fig_panel_pins(results: list) -> dict[str, dict]:
    """Whole-panel JSON digests of the first sweep, rebuilt from its
    per-write-ratio step results (each run is a pure function of its
    spec, so the concatenation is exactly the full panel)."""
    from repro.bench.figures import FigurePanel, PanelResult
    from repro.bench.report import panel_json

    out = {}
    for i, (figure, letter) in enumerate(FIG_PANELS):
        steps = results[i * len(FIG_RATIOS):(i + 1) * len(FIG_RATIOS)]
        panel = PanelResult(
            panel=FigurePanel(figure, letter), write_ratios=FIG_RATIOS,
            comparisons=[c for step in steps for c in step.comparisons],
        )
        out[f"{figure}{letter}"] = {"panel": digest(panel_json(panel))}
    return out


def _soak_step(seed: int, k: int, cache_dir, profiler=None):
    from repro.server.plane import (
        ServerSpec,
        run_server_cell,
        server_cell_key,
    )

    spec = ServerSpec(
        "soak", requests=SOAK_REQUESTS, seed_index=cell_seed(seed, k),
        chaos=True,
    )
    engine = _engine(cache_dir)
    with _measured(profiler) as timed:
        report = engine.map(
            run_server_cell, [spec], key_fn=server_cell_key)[0]
    fingerprint = digest(json.dumps(report, sort_keys=True))
    record = _record(
        "soak", timed, report["requests"], [timed.raw], engine.last_stats,
        fingerprint,
        counters={
            "revocations": sum(
                t["revocations"] for t in report["tiers"].values()),
            "context_switches": report["context_switches"],
        },
    )
    record["problems"] += report["violations"]
    if report["outcome"] != "completed":
        record["problems"].append(f"outcome {report['outcome']}")
    if k == 0:
        record["pinned"] = {"violations": len(report["violations"]),
                            "report": fingerprint}
    return record, (server_cell_key, [spec], report)


def _dpor_step(seed: int, k: int, cache_dir, profiler=None):
    from repro.check.dpor import DporExplorer
    from repro.check.explorer import (
        DEFAULT_MODES,
        CheckItem,
        check_cell_key,
        run_check_cell,
        summarize_results,
    )

    explorer = DporExplorer(DPOR_SCENARIO, mode=DEFAULT_MODES[0])
    with _measured(profiler) as search:
        schedules = explorer.explore()
    items = [
        CheckItem(DPOR_SCENARIO, prefix, DEFAULT_MODES)
        for prefix in schedules
    ]
    walks = [
        CheckItem(
            DPOR_SCENARIO, (), DEFAULT_MODES,
            walk_seed=cell_seed(seed, k) * 1000 + j, walk_bound=2,
        )
        for j in range(DPOR_WALKS)
    ]
    engine = _engine(cache_dir)
    with _measured(profiler) as cells:
        executed = engine.map(
            run_check_cell, items + walks, key_fn=check_cell_key)
    stats = engine.last_stats
    report = summarize_results(
        DPOR_SCENARIO, -1, DEFAULT_MODES,
        executed[:len(items)], executed[len(items):], strategy="dpor",
        explored=explorer.explored, pruned=explorer.pruned,
        transitions=explorer.transitions, restores=explorer.restores,
    )
    record = _record(
        "dpor", cells, report.explored + len(walks), stats.run_walls, stats,
        digest(json.dumps([
            report.reduction_line(), len(report.divergences),
            report.policy_outcomes, [list(e) for e in report.executions],
        ], sort_keys=True)),
        counters={
            "restores": explorer.restores,
            "transitions": explorer.transitions,
            "pruned": explorer.pruned,
        },
        phases={"check.explore": search.secs, "check.cells": cells.secs},
    )
    record["wall"] += search.wall
    record["secs"] += search.secs
    record["problems"] += [
        f"divergent schedule {list(d['schedule'])}"
        for d in report.divergences
    ]
    if k == 0:
        record["pinned"] = {"divergences": len(report.divergences),
                            "reduction": report.reduction_line()}
    return record, (check_cell_key, items + walks, report)


def _obs_step(seed: int, k: int, cache_dir, profiler=None, *,
              profile=True):
    from repro.obs.capture import (
        ObsSpec,
        capture_with_engine,
        obs_spec_key,
    )

    spec = ObsSpec(OBS_SCENARIO, seed=cell_seed(seed, k), profile=profile)
    engine = _engine(cache_dir)
    with _measured(profiler) as timed:
        artifact = capture_with_engine(spec, engine)
    summary = artifact["summary"]
    metrics = artifact["metrics"]
    support = metrics.get("support", {})
    record = _record(
        "obs", timed, summary["spans"], [timed.raw], engine.last_stats,
        digest(artifact["chrome_json"] + artifact["spans_jsonl"]),
        instructions=sum(
            t["instructions"] for t in metrics["threads"].values()),
        counters={
            "revocations": support.get("revocations_completed", 0),
            "sections_committed": support.get("sections_committed", 0),
            "sections_entered": support.get("sections_entered", 0),
            "context_switches": metrics["context_switches"],
        },
    )
    if summary["outcome"] != "completed":
        record["problems"].append(f"outcome {summary['outcome']}")
    if summary["trace"]["dropped"] or summary["trace"]["sink_errors"]:
        record["problems"].append(f"degraded trace {summary['trace']}")
    if profile and artifact["profile"]["total"] != summary["clock"]:
        record["problems"].append("profiled cycles do not sum to the clock")
    if k == 0:
        record["pinned"] = {
            "clock": summary["clock"], "spans": summary["spans"],
            "episodes": summary["episodes"],
            "chrome": digest(artifact["chrome_json"]),
        }
    return record, (obs_spec_key, [spec], None)


#: workload -> step(seed, k, cache_dir, profiler) -> (record, (key_fn,
#: key inputs, output)); ``cache_dir`` None runs without a cache
STEPS: dict[str, Callable[..., tuple[dict, Any]]] = {
    "fig-sweep": _fig_step,
    "server-soak": _soak_step,
    "dpor-trio": _dpor_step,
    "obs-export": _obs_step,
}


def pin_problems(workload: str, records: list[dict], outputs: list) -> list:
    """Mismatches between the run's outputs and :data:`PINS`; call only
    at DEFAULT_SEED and full scale."""
    if workload == "fig-sweep":
        got = fig_panel_pins(outputs[:FIG_SWEEP])
    else:
        got = {records[0]["group"]: records[0]["pinned"]}
    return [
        f"pinned {group} {key} changed: expected {want}, "
        f"got {got[group][key]}"
        for (name, group), pins in PINS.items() if name == workload
        for key, want in pins.items()
        if want is not None and got[group][key] != want
    ]


def minimum_steps(workload: str) -> int:
    """Steps a run needs at least: one whole fig sweep, else three."""
    return FIG_SWEEP if workload == "fig-sweep" else 3


def scale_env(scale: float) -> None:
    """Reduced-size runs (smoke test): shrink the figure matrices."""
    if scale != 1.0:
        os.environ["REPRO_BENCH_SCALE"] = str(scale)
