"""One-call capture: run a scenario, return the full artifact bundle.

:func:`capture_run` builds a traced (and, by default, profiled) VM for
any registered scenario, attaches the online :class:`SpanBuilder` sink
and the counter-track sampler, runs to quiescence, and packages every
artifact — the ``repro.obs/1`` span JSONL, the Chrome trace JSON, the
folded flamegraph stacks, the profile tables and a one-screen summary —
into one plain, picklable dict.

Every obs VM is built here: :func:`build_capture_vm` for a registered
scenario and :func:`build_replay_vm` for a ``repro.check``
counterexample, both attaching their sinks through :func:`attach_sinks`.
Captures run them straight through ``vm.run()``; the time-travel
debugger (:mod:`repro.obs.debug`) steps the very same VMs.

:func:`capture_run` is itself the :class:`repro.bench.parallel.RunEngine`
task and :func:`obs_spec_key` its cache key, so CLI invocations fan out
across workers and land in the content-addressed on-disk cache exactly
like benchmark runs do (keyed by the spec plus the source digest).

Determinism: sync-block ids are per-assembler and section ids are per-VM
state (no process-global build counters survive anywhere), so artifacts
are byte-identical whether a capture runs first or fifth in a process,
serially or on a fleet worker, fresh or from cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import run_outcome
from repro.obs.export import (
    chrome_trace_bytes,
    folded_stacks,
    spans_jsonl_bytes,
)
from repro.obs.scenarios import get_scenario
from repro.obs.spans import SpanBuilder
from repro.server.report import robustness_block
from repro.vm.threads import ThreadState
from repro.vm.vmcore import JVM, VMOptions

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
        ready_depth = sum(
            1 for t in vm.threads if t.state is ThreadState.READY
        )
        undo_entries = sum(
            len(t.undo_log) for t in vm.threads if t.undo_log is not None
        )
        self._append(self.ready, now, ready_depth)
        self._append(self.undo, now, undo_entries)

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
    scenario = get_scenario(spec.scenario)
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
    scenario.install(vm, spec.seed, spec.write_pct)
    return spec, vm, builder, sampler


def _run_and_package(
    spec: ObsSpec,
    vm: JVM,
    builder: SpanBuilder,
    sampler: _CounterSampler,
) -> dict[str, Any]:
    return _package(spec, vm, builder, sampler, run_outcome(vm.run))


def capture_run(spec: ObsSpec) -> dict[str, Any]:
    """Run one scenario and return the complete artifact bundle."""
    return _run_and_package(*build_capture_vm(spec))


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


def build_replay_vm(
    payload: dict[str, Any], mode: Optional[str] = None
) -> Capture:
    """The traced/profiled VM for a ``repro.check`` counterexample
    replay, decision hook armed with the minimized choice prefix.
    Shared by :func:`capture_replay` and the time-travel debugger's
    :func:`repro.obs.debug.record_replay`."""
    from repro.check.explorer import (
        CHECK_CYCLE_CAP,
        CHECK_VM_SEED,
        ScheduleController,
        _inject_plan,
    )
    from repro.check.scenarios import get_scenario as get_check_scenario
    from repro.vm.clock import CostModel

    mode = mode or payload["modes"][0]
    scenario = get_check_scenario(payload["scenario"])
    options = VMOptions(
        mode=mode,
        seed=CHECK_VM_SEED,
        cost_model=CostModel(quantum=1),
        max_cycles=CHECK_CYCLE_CAP,
        faults=_inject_plan(payload.get("inject")),
        trace=True,
        profile=True,
        **scenario.options,
    )
    vm = JVM(options)
    builder, sampler = attach_sinks(vm)
    scenario.build().install(vm)
    vm.scheduler.decision_hook = ScheduleController(
        tuple(payload["minimized_schedule"])
    )
    spec = ObsSpec(
        scenario=f"replay:{payload['scenario']}",
        mode=mode,
        seed=CHECK_VM_SEED,
    )
    return spec, vm, builder, sampler


def capture_replay(
    payload: dict[str, Any], mode: Optional[str] = None
) -> dict[str, Any]:
    """Replay a ``repro.check`` counterexample into a full artifact
    bundle (trace + spans + profile).

    Mirrors :func:`repro.check.explorer.run_schedule` — one-cycle
    quantum, fixed check seed, the minimized choice prefix driving the
    scheduler's decision hook — but with tracing and profiling on, so a
    divergence found by the checker opens in Perfetto.  ``mode``
    defaults to the counterexample's reference policy.
    """
    return _run_and_package(*build_replay_vm(payload, mode))


# ------------------------------------------------------- RunEngine adapter
def obs_spec_key(spec: ObsSpec) -> str:
    """Content address of one capture (identity + source digest)."""
    from repro.bench.parallel import cache_key, source_digest

    return cache_key("obs-capture", spec, source_digest())


def capture_with_engine(spec: ObsSpec, engine=None) -> dict[str, Any]:
    """Capture through a RunEngine (fan-out + on-disk artifact cache)."""
    if engine is None:
        from repro.bench.parallel import RunEngine

        engine = RunEngine.from_env()
    return engine.map(capture_run, [spec], key_fn=obs_spec_key)[0]
