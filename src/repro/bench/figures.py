"""Sweep definitions for every figure in the paper's evaluation.

The paper's evaluation consists of Figures 5–8, each with three panels:

========  =======================  ==========================  ============
figure    metric                   high-priority inner loop    panels
========  =======================  ==========================  ============
Fig. 5    high-priority elapsed    100K ("small")              a: 2+8,
Fig. 6    high-priority elapsed    500K ("large")              b: 5+5,
Fig. 7    overall elapsed          100K ("small")              c: 8+2
Fig. 8    overall elapsed          500K ("large")              (high+low)
========  =======================  ==========================  ============

Each panel sweeps the write ratio over {0, 20, 40, 60, 80, 100}% and plots
the modified VM against the unmodified VM, both normalized to the
unmodified VM at 100% reads.  Figures 7/8 reuse the very same runs as 5/6
(only the metric differs), so :func:`run_panel` measures one sweep and
:class:`PanelResult` serves both figures.

Environment knobs: ``REPRO_BENCH_SCALE`` multiplies the work parameters
(iterations, sections) for quick smoke runs (< 1) or higher fidelity
(> 1); ``REPRO_BENCH_REPS`` sets the paired-seed repetitions (default 2).
A value that is not a positive finite number is an error, not a default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.bench.harness import (
    ComparisonResult,
    comparison_specs,
    reduce_comparison,
)
from repro.bench.microbench import MicrobenchConfig
from repro.bench.parallel import RunEngine, _env_number, execute_spec
from repro.util.stats import Summary
from repro.vm.vmcore import VMOptions

WRITE_RATIOS = (0, 20, 40, 60, 80, 100)

#: panel letter -> (high_threads, low_threads) — paper §4.1
THREAD_MIXES = {"a": (2, 8), "b": (5, 5), "c": (8, 2)}

#: scaled stand-ins for the paper's inner-loop iteration counts
ITERS_SMALL = 120   # "100K"
ITERS_LARGE = 600   # "500K"
ITERS_LOW = 600     # low-priority threads always run the 500K-scale loop


def bench_scale() -> float:
    """Work multiplier from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    return _env_number("REPRO_BENCH_SCALE", float, 1.0)


def bench_reps() -> int:
    """Paired-seed repetitions from ``REPRO_BENCH_REPS`` (default 2)."""
    return _env_number("REPRO_BENCH_REPS", int, 2)


@dataclass(frozen=True)
class FigurePanel:
    """Identity of one panel: which figure, which thread mix."""

    figure: int          # 5, 6, 7 or 8
    panel: str           # "a" | "b" | "c"

    def __post_init__(self) -> None:
        if self.figure not in (5, 6, 7, 8):
            raise ValueError("figure must be 5..8")
        if self.panel not in THREAD_MIXES:
            raise ValueError("panel must be 'a', 'b' or 'c'")

    @property
    def metric(self) -> str:
        """Figures 5/6 plot high-priority elapsed; 7/8 overall elapsed."""
        return "high_elapsed" if self.figure in (5, 6) else "overall_elapsed"

    @property
    def iters_high(self) -> int:
        """Figures 5/7 use the 100K-scale loop; 6/8 the 500K-scale loop."""
        small = self.figure in (5, 7)
        return ITERS_SMALL if small else ITERS_LARGE

    @property
    def mix(self) -> tuple[int, int]:
        return THREAD_MIXES[self.panel]

    @property
    def title(self) -> str:
        h, low = self.mix
        metric = (
            "high-priority elapsed" if self.metric == "high_elapsed"
            else "overall elapsed"
        )
        scale = "100K" if self.figure in (5, 7) else "500K"
        return (
            f"Figure {self.figure}({self.panel}): {metric}, "
            f"{h} high + {low} low, {scale}-scale iterations"
        )

    def base_config(self, seed: int = 0x5EED) -> MicrobenchConfig:
        h, low = self.mix
        cfg = MicrobenchConfig(
            high_threads=h,
            low_threads=low,
            iters_high=self.iters_high,
            iters_low=ITERS_LOW,
            seed=seed,
        )
        scale = bench_scale()
        return cfg if scale == 1.0 else cfg.scaled(scale)


def all_panels() -> list[FigurePanel]:
    return [
        FigurePanel(figure, panel)
        for figure in (5, 6, 7, 8)
        for panel in ("a", "b", "c")
    ]


@dataclass
class PanelResult:
    """One measured sweep: both metrics for both VMs over write ratios."""

    panel: FigurePanel
    write_ratios: tuple[int, ...]
    comparisons: list[ComparisonResult] = field(repr=False)
    #: host-side execution observability (wall clock, cache hits) for the
    #: sweep that produced this panel; never feeds the rendered series,
    #: so serial and parallel reports stay byte-identical
    stats: Optional[object] = field(default=None, repr=False, compare=False)

    def _summaries(self, mode: str, metric: str) -> list[Summary]:
        return [c.summary(mode, metric) for c in self.comparisons]

    def series(
        self, mode: str, metric: Optional[str] = None
    ) -> list[float]:
        """Normalized series as plotted in the paper: every point divided
        by the unmodified VM's mean at 0% writes (100% reads)."""
        metric = metric or self.panel.metric
        baseline = self._summaries("unmodified", metric)[0].mean
        return [
            s.mean / baseline for s in self._summaries(mode, metric)
        ]

    def ci_series(
        self, mode: str, metric: Optional[str] = None
    ) -> list[float]:
        """Normalized 90% CI half-widths for the same series."""
        metric = metric or self.panel.metric
        baseline = self._summaries("unmodified", metric)[0].mean
        return [
            s.ci_halfwidth / baseline for s in self._summaries(mode, metric)
        ]

    def mean_speedup(self, metric: Optional[str] = None) -> float:
        """Average unmodified/modified ratio across the sweep (>1 = the
        rollback VM wins; the paper reports 78% average gain overall)."""
        metric = metric or self.panel.metric
        ratios = [c.speedup(metric) for c in self.comparisons]
        return sum(ratios) / len(ratios)


def sweep_write_ratios(
    base: MicrobenchConfig,
    *,
    write_ratios: tuple[int, ...] = WRITE_RATIOS,
    repetitions: int = 3,
    modes: tuple[str, ...] = ("unmodified", "rollback"),
    options: Optional[VMOptions] = None,
    engine=None,
) -> list[ComparisonResult]:
    """Run the write-ratio sweep for one thread mix.

    The whole (write ratio x repetition x mode) matrix is enumerated up
    front and handed to one engine ``map`` call, so a parallel engine
    overlaps runs *across* write ratios, not just within one.
    """
    if engine is None:
        engine = RunEngine(jobs=1)
    modes = tuple(modes)
    per_ratio = len(modes) * repetitions
    specs = []
    for pct in write_ratios:
        specs.extend(
            comparison_specs(
                replace(base, write_pct=pct),
                modes,
                repetitions=repetitions,
                options=options,
            )
        )
    results = engine.map(execute_spec, specs)
    return [
        reduce_comparison(
            replace(base, write_pct=pct),
            modes,
            results[i * per_ratio:(i + 1) * per_ratio],
        )
        for i, pct in enumerate(write_ratios)
    ]


def run_panel(
    panel: FigurePanel,
    *,
    repetitions: int = 3,
    write_ratios: tuple[int, ...] = WRITE_RATIOS,
    seed: int = 0x5EED,
    options: Optional[VMOptions] = None,
    engine=None,
) -> PanelResult:
    """Measure one figure panel (and implicitly its Figure-7/8 sibling).

    ``engine`` selects execution strategy only (serial, fleet, cached);
    the measured numbers are identical for every choice.
    """
    if engine is None:
        engine = RunEngine(jobs=1)
    comparisons = sweep_write_ratios(
        panel.base_config(seed),
        write_ratios=write_ratios,
        repetitions=repetitions,
        options=options,
        engine=engine,
    )
    return PanelResult(
        panel=panel, write_ratios=tuple(write_ratios),
        comparisons=comparisons,
        stats=engine.last_stats,
    )
