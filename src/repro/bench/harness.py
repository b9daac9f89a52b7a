"""Measurement harness (paper §4.1 methodology).

    "To measure the total elapsed time of high-priority threads we take the
    first time-stamp at the beginning of the run() method of every high
    priority thread and the second time-stamp at the end ... We compute the
    total elapsed time for all high-priority threads by calculating the
    time elapsed from the earliest time-stamp of the first set to the
    latest time-stamp of the second set."

The paper repeats each benchmark six times in one VM invocation, discards
the warm-up iteration and reports the mean of five with 90% confidence
intervals.  Our VM has no JIT warm-up; the analogous repetition is across
*seeds* (different random arrival patterns), summarized the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.bench.microbench import (
    HIGH_PRIORITY,
    MicrobenchConfig,
    setup_microbench_vm,
)
from repro.util.rng import derive_seed
from repro.util.stats import Summary, summarize
from repro.vm.vmcore import JVM, VMOptions


@dataclass(frozen=True)
class RunResult:
    """Metrics from one VM invocation of the micro-benchmark.

    Instances cross process boundaries in the parallel engine and live in
    the on-disk result cache, so every field (including the raw
    ``metrics`` mapping) must stay plain picklable data.
    """

    mode: str
    config: MicrobenchConfig
    high_elapsed: int
    overall_elapsed: int
    total_cycles: int
    rollbacks: int
    undo_logged: int
    undo_restored: int
    context_switches: int
    metrics: dict[str, Any] = field(repr=False, default_factory=dict)


def run_microbench(
    config: MicrobenchConfig,
    mode: str = "unmodified",
    *,
    options: Optional[VMOptions] = None,
) -> RunResult:
    """Run one configuration on one VM mode and extract the paper's
    metrics.  Cycle profiles come from the obs capture
    (:mod:`repro.obs.capture`), not from this harness."""
    if options is None:
        options = VMOptions(mode=mode, seed=config.seed)
    else:
        options = options.with_(mode=mode, seed=config.seed)
    vm = JVM(options)
    setup_microbench_vm(vm, config)
    vm.run()

    high = [t for t in vm.threads if t.priority == HIGH_PRIORITY]
    low = [t for t in vm.threads if t.priority != HIGH_PRIORITY]
    if not high:
        raise ValueError("configuration spawned no high-priority threads")
    high_elapsed = max(t.end_time for t in high) - min(
        t.start_time for t in high
    )
    everyone = high + low
    overall = max(t.end_time for t in everyone) - min(
        t.start_time for t in everyone
    )
    m = vm.metrics()
    support = m.get("support", {})
    return RunResult(
        mode=mode,
        config=config,
        high_elapsed=high_elapsed,
        overall_elapsed=overall,
        total_cycles=vm.clock.now,
        rollbacks=support.get("revocations_completed", 0),
        undo_logged=support.get("undo_entries_logged", 0),
        undo_restored=support.get("undo_entries_restored", 0),
        context_switches=m["context_switches"],
        metrics=m,
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Paired runs of one configuration across VM modes and seeds."""

    config: MicrobenchConfig
    modes: tuple[str, ...]
    #: mode -> per-seed RunResults
    runs: dict[str, list[RunResult]] = field(repr=False, default_factory=dict)

    def summary(self, mode: str, metric: str = "high_elapsed") -> Summary:
        return summarize([getattr(r, metric) for r in self.runs[mode]])

    def speedup(self, metric: str = "high_elapsed",
                baseline: str = "unmodified",
                treatment: str = "rollback") -> float:
        """baseline/treatment mean ratio (> 1: treatment is faster)."""
        base = self.summary(baseline, metric).mean
        treat = self.summary(treatment, metric).mean
        return base / treat if treat else float("inf")


def comparison_specs(
    config: MicrobenchConfig,
    modes: tuple[str, ...] = ("unmodified", "rollback"),
    *,
    repetitions: int = 3,
    options: Optional[VMOptions] = None,
) -> list:
    """Enumerate the (rep x mode) run matrix in deterministic order.

    Seed pairing matters: both VMs see the same random arrival pattern in
    repetition *k*, so mode differences are not arrival noise.
    """
    from dataclasses import replace

    from repro.bench.parallel import RunSpec

    specs = []
    for rep in range(repetitions):
        seed = derive_seed(config.seed, "rep", rep)
        rep_config = replace(config, seed=seed)
        for mode in modes:
            specs.append(
                RunSpec(config=rep_config, mode=mode, options=options)
            )
    return specs


def reduce_comparison(
    config: MicrobenchConfig,
    modes: tuple[str, ...],
    results: list[RunResult],
) -> ComparisonResult:
    """Fold matrix-ordered RunResults back into a ComparisonResult."""
    runs: dict[str, list[RunResult]] = {m: [] for m in modes}
    for i, result in enumerate(results):
        runs[modes[i % len(modes)]].append(result)
    return ComparisonResult(config=config, modes=tuple(modes), runs=runs)


def compare_modes(
    config: MicrobenchConfig,
    modes: tuple[str, ...] = ("unmodified", "rollback"),
    *,
    repetitions: int = 3,
    options: Optional[VMOptions] = None,
    engine=None,
) -> ComparisonResult:
    """Run ``config`` under every mode with paired per-repetition seeds.

    All runs flow through a :class:`repro.bench.parallel.RunEngine`; the
    default is the serial uncached engine, so library callers and tests
    see the historical in-process behaviour unless they opt in.
    """
    from repro.bench.parallel import RunEngine, execute_spec

    if engine is None:
        engine = RunEngine(jobs=1)
    specs = comparison_specs(
        config, modes, repetitions=repetitions, options=options,
    )
    results = engine.map(execute_spec, specs)
    return reduce_comparison(config, modes, results)
