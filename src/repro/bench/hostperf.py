"""Host-performance baseline: measure both interpreters, emit a report.

The figure benchmarks report *virtual* time — deterministic, identical
for every interpreter.  This module measures the orthogonal quantity:
how much **host** wall clock the simulator burns producing those virtual
histories, per interpreter (``VMOptions.interp``).  It is the evidence
artifact for the interpreter's predecode tier: the committed
``BENCH_interp.json`` at the repo root records the measured speedup of
``interp="fast"`` over ``interp="reference"`` on the full Figures 5–8
suite, and ``benchmarks/test_interp_speed.py`` uses it as a soft
regression baseline.

Methodology
-----------

* Runs execute **serially and uncached** (``RunEngine(jobs=1,
  cache=None)``): pool scheduling and cache hits would corrupt the wall
  clock each interpreter is being billed for.
* Figures 7/8 reuse the very same runs as 5/6 (only the plotted metric
  differs), so the "full fig5–fig8 suite" is the six distinct sweeps
  5a..5c and 6a..6c (:data:`DEFAULT_PANELS`).
* Guest instruction totals come from the runs' own metrics and must be
  identical across interpreters — the report records both totals so a
  parity breach is visible right in the artifact
  (``guest_instructions_match``).

Report schema (``repro.bench.host-perf/1``)::

    {
      "schema": "repro.bench.host-perf/1",
      "panels": ["5a", ...],          # distinct sweeps measured
      "repetitions": 2,               # paired seeds per configuration
      "write_ratios": [0, 20, ...],
      "seed": 24301,
      "scale": 1.0,                   # REPRO_BENCH_SCALE at measure time
      "interps": {
        "<interp>": {
          "runs": 144,                # VM invocations measured
          "host_wall_s": 123.4,       # summed per-run wall clock
          "guest_instructions": 9876543,
          "ips": 80036.0              # guest instructions / host second
        }, ...
      },
      "guest_instructions_match": true,
      "speedup_fast_vs_reference": 2.4   # reference/fast host wall ratio
    }

``host_wall_s`` is the sum of per-run wall clocks (``EngineStats
.run_wall``), not the enclosing loop's elapsed time, so report assembly
and result reduction are excluded from the billed time.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.bench.figures import (
    WRITE_RATIOS,
    FigurePanel,
    bench_scale,
    run_panel,
)
from repro.bench.parallel import EngineStats, RunEngine
from repro.vm.vmcore import VMOptions

SCHEMA = "repro.bench.host-perf/1"

#: Default artifact location (repo root, committed).
DEFAULT_OUTPUT = "BENCH_interp.json"

#: The distinct run matrices behind Figures 5-8 (7/8 replot 5/6's runs).
DEFAULT_PANELS = (
    FigurePanel(5, "a"), FigurePanel(5, "b"), FigurePanel(5, "c"),
    FigurePanel(6, "a"), FigurePanel(6, "b"), FigurePanel(6, "c"),
)

INTERPS = ("reference", "fast")


def measure_interp(
    interp: str,
    panels: Sequence[FigurePanel] = DEFAULT_PANELS,
    *,
    repetitions: int = 2,
    seed: int = 0x5EED,
    write_ratios: tuple[int, ...] = WRITE_RATIOS,
    progress=None,
) -> EngineStats:
    """Run the panel suite on one interpreter; return the summed stats.

    Serial and uncached by construction — wall clock is the measurement.
    """
    engine = RunEngine(jobs=1, cache=None)
    options = VMOptions(interp=interp)
    for panel in panels:
        run_panel(
            panel, repetitions=repetitions, write_ratios=write_ratios,
            seed=seed, options=options, engine=engine,
        )
        if progress is not None:
            progress(
                f"[host-perf] {interp}: {panel.figure}{panel.panel} done "
                f"({engine.last_stats.host_wall:.1f}s)"
            )
    return engine.stats


def measure_host_perf(
    panels: Optional[Sequence[FigurePanel]] = None,
    *,
    repetitions: int = 2,
    seed: int = 0x5EED,
    write_ratios: tuple[int, ...] = WRITE_RATIOS,
    interps: Sequence[str] = INTERPS,
    progress=None,
) -> dict:
    """Measure every interpreter and assemble the schema/1 report."""
    if panels is None:
        panels = DEFAULT_PANELS
    per_interp: dict[str, EngineStats] = {}
    for interp in interps:
        per_interp[interp] = measure_interp(
            interp, panels, repetitions=repetitions, seed=seed,
            write_ratios=write_ratios, progress=progress,
        )

    report = {
        "schema": SCHEMA,
        "panels": [f"{p.figure}{p.panel}" for p in panels],
        "repetitions": repetitions,
        "write_ratios": list(write_ratios),
        "seed": seed,
        "scale": bench_scale(),
        "interps": {
            interp: {
                "runs": stats.runs,
                "host_wall_s": round(stats.run_wall, 3),
                "guest_instructions": stats.guest_instructions,
                "ips": round(stats.ips(), 1),
            }
            for interp, stats in per_interp.items()
        },
    }
    totals = {s.guest_instructions for s in per_interp.values()}
    report["guest_instructions_match"] = len(totals) == 1
    ref = per_interp.get("reference")
    fast = per_interp.get("fast")
    if ref is not None and fast is not None and fast.run_wall:
        report["speedup_fast_vs_reference"] = round(
            ref.run_wall / fast.run_wall, 2
        )
    return report


def write_host_perf(report: dict, path: str = DEFAULT_OUTPUT) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_host_perf(path: str = DEFAULT_OUTPUT) -> Optional[dict]:
    """The committed baseline, or None when absent/unreadable/foreign."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        return None
    return report
