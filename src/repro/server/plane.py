"""The overload-protection plane: storm detection, chaos soak, cells.

Three robustness layers stack on top of the guest server from
:mod:`repro.server.workload`:

* the guest program itself retries timed-out requests with exponential
  backoff + seeded jitter, sheds arrivals past the per-tier queue depth,
  and drops requests whose retry budget is spent;
* the :class:`AbortStormDetector` — a deterministic host-side slice hook
  — watches the revocation rate per fixed virtual-cycle window.  When a
  window's completed revocations cross ``storm_enter`` it raises the
  guest-visible ``Server.overload`` gate (generators shed every arrival
  while it is up) and demotes the hottest section site one rung down the
  PR-1 graceful-degradation ladder (revocable → priority-inheritance →
  non-revocable) via
  :meth:`~repro.core.revocation.RollbackSupport.escalate_hottest_site`;
  when the rate falls to ``storm_exit`` the gate drops again.  Every
  decision depends only on the virtual clock and VM metrics, so the
  storm → escalation → recovery sequence is replayable from the seed;
* chaos soak mode (``--chaos``) arms the fault plane
  (:data:`CHAOS_PLAN`: revocation storms, handoff delays, benign undo
  perturbations — never ``undo_drop`` or guest exceptions, which are
  reserved for the seeded-defect negative control) with the post-rollback
  invariant auditor enabled, and :func:`check_server_invariants` asserts
  request conservation and data-plane integrity after quiescence.

:func:`run_server_cell` is the picklable worker entry: one
:class:`ServerSpec` in, one deterministic report fragment out, fanned
through :class:`repro.bench.parallel.RunEngine` and cached under the
engine's derived key (task, spec and source digest).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.bench.parallel import run_key
from repro.errors import audited_run
from repro.faults.plane import FaultPlan
from repro.server.report import build_report
from repro.server.workload import (
    SERVER_CLASS,
    ServerConfig,
    build_server,
    expected_cycle_cap,
    tier_streams,
)
from repro.util.rng import sweep_seed
from repro.vm.vmcore import JVM, VMOptions

#: the chaos-soak fault plan: adversarial but behaviour-preserving kinds
#: only.  ``guest_exception`` would kill pool threads (conservation noise)
#: and ``undo_drop`` is a genuine seeded defect — both stay out of soak
#: campaigns and are exercised by the negative control instead.
CHAOS_PLAN = FaultPlan(
    seed=0xC4A0,
    revocation_storm_rate=0.10,
    handoff_delay_rate=0.02,
    handoff_delay_cycles=1_500,
    undo_perturb_rate=0.5,
)

#: negative control (``--inject-bug undo-drop``): a rollback occasionally
#: loses one undo entry, leaking an aborted store.  The auditor MUST
#: flag this — a clean report here would mean the soak cannot detect
#: real corruption.
UNDO_DROP_PLAN = FaultPlan(
    seed=0xC4A0,
    revocation_storm_rate=0.05,
    undo_drop_rate=0.25,
)


@dataclass(frozen=True)
class ServerSpec:
    """Pure, picklable identity of one server run (one cache cell)."""

    preset: str
    #: 0 = the preset's own request counts; otherwise tiers are rescaled
    #: proportionally to this total
    requests: int = 0
    #: sweep index: the VM seed is ``sweep_seed("server", config, index)``
    seed_index: int = 1
    mode: str = "rollback"
    interp: str = "fast"
    chaos: bool = False
    #: "" or "undo-drop" (the negative control)
    inject_bug: str = ""
    profile: bool = False


class AbortStormDetector:
    """Windowed revocation-rate watcher wired to the degradation ladder.

    Installed as a ``vm.slice_hooks`` observer.  All state transitions
    happen at fixed window boundaries of the virtual clock, so a run's
    storm timeline is a pure function of (config, seed, mode) — identical
    across interpreters and host machines.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.window_end = config.storm_window
        self.last_completed = 0
        self.active = False
        #: deterministic storm timeline: dicts with kind "enter"/"exit"
        self.events: list[dict] = []

    def __call__(self, vm: "JVM") -> None:
        while vm.clock.now >= self.window_end:
            self._close_window(vm)
            self.window_end += self.config.storm_window

    def _completed_revocations(self, vm: "JVM") -> int:
        collect = getattr(vm.support, "collect_metrics", None)
        if not callable(collect):
            return 0
        return collect().get("revocations_completed", 0)

    def _close_window(self, vm: "JVM") -> None:
        completed = self._completed_revocations(vm)
        delta = completed - self.last_completed
        self.last_completed = completed
        if not self.active and delta >= self.config.storm_enter:
            self.active = True
            vm.set_static(SERVER_CLASS, "overload", 1)
            escalated: list[str] = []
            escalate = getattr(vm.support, "escalate_hottest_site", None)
            if callable(escalate):
                for _ in range(self.config.storm_escalations):
                    level = escalate(reason="abort-storm")
                    if level is None:
                        break
                    escalated.append(level)
            vm.trace(
                "abort_storm", None, revocations=delta,
                escalated=",".join(escalated),
            )
            self.events.append({
                "kind": "enter",
                "cycle": self.window_end,
                "revocations": delta,
                "escalated": escalated,
            })
        elif self.active and delta <= self.config.storm_exit:
            self.active = False
            vm.set_static(SERVER_CLASS, "overload", 0)
            vm.trace("storm_cleared", None, revocations=delta)
            self.events.append({
                "kind": "exit",
                "cycle": self.window_end,
                "revocations": delta,
            })


def check_server_invariants(
    vm: "JVM", config: ServerConfig, seed: int
) -> list[str]:
    """Post-quiescence integrity of one server run.

    With zero worker errors the accounting is exact: every admitted
    request was either completed or dropped after its retry budget, every
    completion left one latency sample, the queues drained, and the data
    cells sum to exactly the service demand of the completed write
    transactions (rollbacks replayed exactly once).  Worker errors (only
    possible with guest-exception faults, which soak plans exclude) relax
    the equalities to inequalities.
    """
    problems: list[str] = []
    cls = SERVER_CLASS
    qcount = vm.get_static(cls, "qcount")
    qdone = vm.get_static(cls, "qdone")
    expected_cells = 0
    any_errors = False
    for ti, tier in enumerate(config.tiers):
        shed = vm.get_static(cls, "shed").get(ti)
        exhausted = vm.get_static(cls, "exhausted").get(ti)
        completed = vm.get_static(cls, "completed").get(ti)
        errors = vm.get_static(cls, "errors").get(ti)
        any_errors = any_errors or errors > 0
        lat = vm.get_static(cls, "lat").get(ti)
        sampled = sum(1 for i in range(len(lat)) if lat.get(i) >= 0)
        accounted = shed + exhausted + completed
        if errors == 0:
            if accounted != tier.requests:
                problems.append(
                    f"tier {tier.name}: shed {shed} + dropped {exhausted} "
                    f"+ completed {completed} = {accounted} != "
                    f"{tier.requests} requests"
                )
            if sampled != completed:
                problems.append(
                    f"tier {tier.name}: {sampled} latency samples != "
                    f"{completed} completions"
                )
        elif accounted > tier.requests:
            problems.append(
                f"tier {tier.name}: accounted {accounted} exceeds "
                f"{tier.requests} requests despite {errors} errors"
            )
        if errors == 0 and qcount.get(ti) != 0:
            problems.append(
                f"tier {tier.name}: queue not drained "
                f"({qcount.get(ti)} left)"
            )
        if qdone.get(ti) != 1:
            problems.append(f"tier {tier.name}: queue never closed")
        streams = tier_streams(config, tier, seed)
        expected_cells += sum(
            streams.svc[i]
            for i in range(tier.requests)
            if lat.get(i) >= 0 and streams.iswrite[i]
        )
    if not any_errors:
        cells = vm.get_static(cls, "cells")
        total = 0
        for li in range(config.locks):
            row = cells.get(li)
            total += sum(row.get(ci) for ci in range(len(row)))
        if total != expected_cells:
            problems.append(
                f"data cells sum {total} != {expected_cells} expected "
                "from completed write transactions"
            )
    return problems


def server_invariant_check(
    config: ServerConfig, stream_seed: int
) -> Callable[["JVM"], list[str]]:
    """Campaign-shaped closure over :func:`check_server_invariants` (the
    fault-campaign ``Scenario.check`` signature)."""

    def check(vm: "JVM") -> list[str]:
        return check_server_invariants(vm, config, stream_seed)

    return check


def spec_plan(spec: ServerSpec) -> FaultPlan | None:
    """The fault plan a spec arms (None = faults off)."""
    if spec.inject_bug == "undo-drop":
        return UNDO_DROP_PLAN
    if spec.inject_bug:
        raise ValueError(f"unknown --inject-bug {spec.inject_bug!r}")
    return CHAOS_PLAN if spec.chaos else None


def run_server_cell(spec: ServerSpec) -> dict:
    """Run one server cell; returns its deterministic report.

    The VM seed follows the repo seed-namespace convention: sweep index
    ``i`` of config ``c`` always runs under ``sweep_seed("server", c,
    i)`` — independent of preset ordering, CLI flags or other tools'
    sweeps.  The report never mentions ``interp`` or worker counts: the
    byte-identity contract across both is pinned by tests.
    """
    from repro.obs.episodes import detect_episodes
    from repro.obs.spans import SpanBuilder
    from repro.server.presets import get_preset

    config = get_preset(spec.preset)
    if spec.requests:
        config = config.scaled(spec.requests)
    seed = sweep_seed("server", config.name, spec.seed_index)
    plan = spec_plan(spec)
    options = VMOptions(
        mode=spec.mode,
        scheduler=config.scheduler,
        seed=seed,
        interp=spec.interp,
        profile=spec.profile,
        faults=plan,
        audit_rollbacks=plan is not None,
        max_cycles=expected_cycle_cap(config, seed),
        raise_on_uncaught=False,
        trace=True,
    )
    vm = JVM(options)
    # Stream, don't store: the tracer feeds an online SpanBuilder only,
    # so the raw events are never kept.  The builder still keeps every
    # span (about 5k per 1000-request cell), so host memory grows with
    # the spans, not the events.  The per-tier inversion-episode counts
    # in the report are detected over its spans at the end.
    vm.tracer.store = False
    spans = SpanBuilder()
    vm.tracer.add_sink(spans)
    build_server(config, seed).install(vm)
    detector = AbortStormDetector(config)
    vm.slice_hooks.append(detector)
    outcome, violations = audited_run(
        vm, server_invariant_check(config, seed)
    )
    report = build_report(
        vm,
        config,
        seed=seed,
        mode=spec.mode,
        outcome=outcome,
        violations=violations,
        storm_events=detector.events,
        injected=vm.fault_plane.report() if vm.fault_plane else {},
        episodes=detect_episodes(spans.finish(vm.clock.now)),
    )
    report["chaos"] = spec.chaos
    report["inject_bug"] = spec.inject_bug
    return report


#: perfbench imports this name as its key override and cache probe;
#: ROADMAP item 5 deletes it
server_cell_key = partial(run_key, run_server_cell)
