"""Shared machinery for the figure benchmarks.

Figures 7 and 8 plot the *same runs* as Figures 5 and 6 (only the metric
changes: overall elapsed instead of high-priority elapsed), so panel sweeps
are cached per session and reused — exactly as the paper derives all four
figures from one set of benchmark executions.

Environment knobs:

* ``REPRO_BENCH_REPS``  — repetitions (paired seeds) per configuration
  (default 2; the paper uses 5).
* ``REPRO_BENCH_SCALE`` — multiplies iteration/section counts.
  Both are read by :mod:`repro.bench.figures`, which rejects a value
  that is not a positive finite number.
* ``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_CACHE`` / ``REPRO_BENCH_CACHE_DIR``
  — worker pool and on-disk result cache (see
  :mod:`repro.bench.parallel`); the measured numbers are identical for
  every setting.
"""

from __future__ import annotations

from repro.bench.figures import (
    FigurePanel,
    PanelResult,
    bench_reps,
    run_panel,
)
from repro.bench.parallel import RunEngine
from repro.bench.report import render_panel

_PANEL_CACHE: dict[tuple[int, str], PanelResult] = {}

_ENGINE: RunEngine | None = None


def engine() -> RunEngine:
    """One env-configured run engine shared by the whole bench session."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = RunEngine.from_env()
    return _ENGINE

#: figures sharing one sweep: 7 reuses 5's runs, 8 reuses 6's
_SWEEP_ALIAS = {5: 5, 6: 6, 7: 5, 8: 6}


def get_panel(figure: int, panel: str) -> PanelResult:
    """Measure (or fetch) the sweep behind one figure panel."""
    sweep_figure = _SWEEP_ALIAS[figure]
    key = (sweep_figure, panel)
    if key not in _PANEL_CACHE:
        _PANEL_CACHE[key] = run_panel(
            FigurePanel(sweep_figure, panel),
            repetitions=bench_reps(),
            engine=engine(),
        )
    cached = _PANEL_CACHE[key]
    if figure == sweep_figure:
        return cached
    # same comparisons, re-labelled for the overall-time figure
    return PanelResult(
        panel=FigurePanel(figure, panel),
        write_ratios=cached.write_ratios,
        comparisons=cached.comparisons,
    )


def report(result: PanelResult) -> None:
    print()
    print(render_panel(result))


def check_shape(result: PanelResult) -> None:
    """Sanity constraints that must hold for ANY healthy run, used by all
    figure benches (the paper-vs-measured comparison lives in
    EXPERIMENTS.md; these guards only catch a broken harness):

    * every series is positive,
    * the unmodified series is normalized to 1.0 at 0% writes,
    * overall elapsed >= high-priority elapsed for every configuration.
    """
    for mode in ("rollback", "unmodified"):
        for metric in ("high_elapsed", "overall_elapsed"):
            series = result.series(mode, metric)
            assert all(v > 0 for v in series)
    baseline = result.series("unmodified", result.panel.metric)
    assert abs(baseline[0] - 1.0) < 1e-9
    for comparison in result.comparisons:
        for mode in ("rollback", "unmodified"):
            for run in comparison.runs[mode]:
                assert run.overall_elapsed >= run.high_elapsed
