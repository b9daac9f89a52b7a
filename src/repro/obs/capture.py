"""One-call capture: run a scenario, return the full artifact bundle.

:func:`capture_run` builds a traced (and, by default, profiled) VM for
any registered scenario, attaches the online :class:`SpanBuilder` sink
and the counter-track sampler, runs to quiescence, and packages every
artifact — the ``repro.obs/1`` span JSONL, the Chrome trace JSON, the
folded flamegraph stacks, the profile tables and a one-screen summary —
into one plain, picklable dict.

Every obs VM is built here: :func:`build_capture_vm` for a registered
scenario and :func:`build_replay_vm` for a ``repro.check`` cell, both
attaching their sinks through :func:`attach_sinks`.  Every obs VM also
runs here, through the one driver :func:`run_capture`: the scheduler's
step loop, ``finish_run`` and :func:`_package`.  A
capture passes no checkpoint interval, so the loop takes no snapshot and
costs what ``vm.run()`` costs; the time-travel debugger
(:mod:`repro.obs.debug`) passes one and keeps the checkpoints.  A
recording is therefore the capture plus checkpoints, and its artifact is
byte-identical to the capture's.

:func:`capture_run` is itself the :class:`repro.bench.parallel.RunEngine`
task, so CLI invocations fan out across workers and land in the
content-addressed on-disk cache exactly like benchmark runs do (keyed by
the task, the spec and the source digest).

Determinism: sync-block ids are per-assembler and section ids are per-VM
state (no process-global build counters survive anywhere), so artifacts
are byte-identical whether a capture runs first or fifth in a process,
serially or on a fleet worker, fresh or from cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Optional

from repro.bench.parallel import RunEngine, run_key
from repro.bench.workloads import lookup_scenario
from repro.errors import run_outcome
from repro.obs.export import (
    chrome_trace_bytes,
    folded_stacks,
    spans_jsonl_bytes,
)
from repro.obs.spans import SpanBuilder
from repro.server.report import robustness_block
from repro.vm.snapshot import VMSnapshot, snapshot_vm
from repro.vm.threads import ThreadState
from repro.vm.vmcore import JVM, VMOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.explorer import CheckItem

#: artifact-bundle schema version
CAPTURE_FORMAT = "repro.obs.capture/1"

#: capture runs are bounded: a scenario that spins past this raises
#: StarvationError and the capture reports outcome="starvation"
CAPTURE_CYCLE_CAP = 200_000_000

#: counter tracks keep at most this many samples (dropped count is
#: reported in the summary — no silent truncation)
MAX_COUNTER_SAMPLES = 20_000


@dataclass(frozen=True)
class ObsSpec:
    """Pure, picklable identity of one observability capture."""

    scenario: str
    mode: str = "rollback"
    seed: int = 0x5EED
    interp: str = "fast"
    profile: bool = True
    #: write ratio for the figure-cell scenarios (ignored elsewhere)
    write_pct: int = 60


class _CounterSampler:
    """Per-slice sampler feeding the Chrome counter tracks."""

    def __init__(self) -> None:
        self.ready: list[tuple[int, int]] = []
        self.undo: list[tuple[int, int]] = []
        self.dropped = 0

    def __call__(self, vm: JVM) -> None:
        now = vm.clock.now
        # Both reads are O(1): the VM keeps its thread-state census and
        # the support derives its live undo total from running counters.
        self._append(self.ready, now, vm.census[ThreadState.READY])
        self._append(self.undo, now, vm.support.live_undo_entries())

    def _append(
        self, samples: list[tuple[int, int]], now: int, value: int
    ) -> None:
        if samples and samples[-1][1] == value:
            return  # run-length suppression: only record changes
        if len(samples) >= MAX_COUNTER_SAMPLES:
            self.dropped += 1
            return
        samples.append((now, value))


#: what one obs VM build returns: the spec the artifact header names,
#: the un-run VM, and the two sinks :func:`_package` reads after the run
Capture = tuple[ObsSpec, JVM, SpanBuilder, _CounterSampler]


def attach_sinks(vm: JVM) -> tuple[SpanBuilder, _CounterSampler]:
    """Attach the online span builder and the counter sampler to ``vm``.

    Events the VM traced before the builder was attached (the spawns of
    a hand-built VM) are fed to it first, so the spans cover the whole
    run either way."""
    builder = SpanBuilder()
    for event in vm.tracer.events:
        builder(event)
    vm.tracer.add_sink(builder)
    sampler = _CounterSampler()
    vm.slice_hooks.append(sampler)
    return builder, sampler


def build_capture_vm(spec: ObsSpec) -> Capture:
    """The traced (and, by default, profiled) VM of one capture, with
    its scenario installed and not yet run."""
    scenario = lookup_scenario("obs", spec.scenario)
    overrides = dict(scenario.options)
    overrides.setdefault("max_cycles", CAPTURE_CYCLE_CAP)
    options = VMOptions(
        mode=spec.mode,
        seed=spec.seed,
        interp=spec.interp,
        trace=True,
        profile=spec.profile,
        **overrides,
    )
    vm = JVM(options)
    builder, sampler = attach_sinks(vm)
    scenario.build(spec.seed, spec.write_pct).install(vm)
    return spec, vm, builder, sampler


def run_capture(
    capture: Capture, interval: Optional[int] = None
) -> tuple[dict[str, Any], list[VMSnapshot], list[int]]:
    """Run one obs VM to quiescence; return its artifact bundle, its
    checkpoints, and the clock at each of its quiescent points.

    The one loop that drives an obs VM.  With a checkpoint ``interval``
    it snapshots the VM before its first step and then every ``interval``
    slices, and records every distinct quiescent clock value in order;
    without one both lists stay empty and the run is exactly
    ``vm.run()``."""
    if interval is not None and interval < 1:
        raise ValueError("checkpoint interval must be >= 1")
    spec, vm, builder, sampler = capture
    checkpoints: list[VMSnapshot] = []
    boundaries: list[int] = []

    def drive() -> None:
        scheduler = vm.scheduler
        if interval is not None:
            checkpoints.append(snapshot_vm(vm))
            boundaries.append(vm.clock.now)
        last_snap_slice = scheduler.slices
        while scheduler.step():
            if interval is None:
                continue
            if boundaries[-1] != vm.clock.now:
                boundaries.append(vm.clock.now)
            if scheduler.slices - last_snap_slice >= interval:
                checkpoints.append(snapshot_vm(vm))
                last_snap_slice = scheduler.slices
        vm.finish_run()

    outcome = run_outcome(drive)
    artifact = _package(spec, vm, builder, sampler, outcome)
    return artifact, checkpoints, boundaries


def capture_run(spec: ObsSpec) -> dict[str, Any]:
    """Run one scenario and return the complete artifact bundle."""
    return run_capture(build_capture_vm(spec))[0]


def _package(
    spec: ObsSpec,
    vm: JVM,
    builder: SpanBuilder,
    sampler: _CounterSampler,
    outcome: str,
) -> dict[str, Any]:
    from repro.obs.episodes import detect_episodes

    spans = builder.finish(vm.clock.now)
    metrics = vm.metrics()
    episodes = detect_episodes(spans)
    # the serialized header deliberately omits `interp`: artifacts are a
    # pure function of (scenario, mode, seed), byte-identical whichever
    # interpreter produced them — the parity tests pin this
    header = {
        "scenario": spec.scenario,
        "mode": spec.mode,
        "seed": spec.seed,
        "outcome": outcome,
        "clock": vm.clock.now,
    }
    profiler = vm.profiler
    counters = {
        "ready_queue": sampler.ready,
        "undo_log": sampler.undo,
    }
    chrome = chrome_trace_bytes(
        spans,
        thread_names=[t.name for t in vm.threads],
        clock_now=vm.clock.now,
        profiler=profiler,
        counters=counters,
        meta=dict(header),
        episodes=episodes,
    )
    spans_by_kind: dict[str, int] = {}
    for span in spans:
        spans_by_kind[span.kind] = spans_by_kind.get(span.kind, 0) + 1
    profile_data: Optional[dict] = None
    folded = ""
    if profiler is not None:
        profile_data = profiler.snapshot()
        folded = folded_stacks(profiler)
    summary = {
        **header,
        "interp": spec.interp,
        "threads": len(vm.threads),
        "spans": len(spans),
        "spans_by_kind": dict(sorted(spans_by_kind.items())),
        "trace": metrics["trace"],
        "counter_samples_dropped": sampler.dropped,
        "episodes": len(episodes),
        "inversion_cycles": sum(e["cycles"] for e in episodes),
        "revocations": metrics.get("support", {}).get(
            "revocations_completed", 0
        ),
        "robustness": robustness_block(metrics),
        "context_switches": metrics["context_switches"],
        "cycles_by_track": (
            profile_data["tracks"] if profile_data is not None else None
        ),
    }
    return {
        "format": CAPTURE_FORMAT,
        **header,
        "spans_jsonl": spans_jsonl_bytes(spans, header).decode("utf-8"),
        "chrome_json": chrome.decode("utf-8"),
        "folded": folded,
        "profile": profile_data,
        "metrics": metrics,
        "summary": summary,
    }


def build_replay_vm(cell: CheckItem, mode: Optional[str] = None) -> Capture:
    """The traced/profiled checker VM for one ``repro.check`` cell,
    decision hook armed with its choice prefix.

    The VM comes from :func:`repro.check.explorer.check_vm`, the recipe
    every checker run shares, with tracing and profiling on.  ``mode``
    defaults to the cell's reference policy.  Shared by
    :func:`capture_replay` and the time-travel debugger's
    :func:`repro.obs.debug.record_replay`."""
    from repro.check.explorer import (
        CHECK_VM_SEED,
        ScheduleController,
        check_vm,
    )

    mode = mode or cell.modes[0]
    vm = check_vm(
        lookup_scenario("check", cell.scenario),
        mode,
        inject=cell.inject,
        trace=True,
        profile=True,
    )
    builder, sampler = attach_sinks(vm)
    vm.scheduler.decision_hook = ScheduleController(cell.prefix)
    spec = ObsSpec(
        scenario=f"replay:{cell.scenario}", mode=mode, seed=CHECK_VM_SEED
    )
    return spec, vm, builder, sampler


def capture_replay(
    payload: dict[str, Any], mode: Optional[str] = None
) -> dict[str, Any]:
    """Replay a ``repro.check`` counterexample into a full artifact
    bundle (trace + spans + profile), so a divergence found by the
    checker opens in Perfetto.  ``mode`` defaults to the
    counterexample's reference policy."""
    from repro.check.oracle import counterexample_cell

    cell = counterexample_cell(payload)
    return run_capture(build_replay_vm(cell, mode))[0]


# ------------------------------------------------------- RunEngine adapter
#: perfbench imports this name for its cache probe; ROADMAP item 5
#: deletes it
obs_spec_key = partial(run_key, capture_run)


def capture_with_engine(spec: ObsSpec, engine=None) -> dict[str, Any]:
    """Capture through a RunEngine (fan-out + on-disk artifact cache)."""
    if engine is None:
        engine = RunEngine.from_env()
    return engine.map(capture_run, [spec])[0]
