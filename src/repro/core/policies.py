"""Classical priority-inversion avoidance baselines (paper §5).

The paper argues against these protocols (§1: priority ceiling is not
transparent; priority inheritance is non-trivial, transitive, and defeated
by non-inheriting blocking operations) and compares its rollback scheme
against a plain blocking VM.  We implement both protocols anyway, as
runtime supports on the same seam, so the extension benchmarks can put all
four systems side by side:

* ``unmodified`` — blocking monitors (``NullSupport``).
* ``rollback`` — the paper (:class:`~repro.core.revocation.RollbackSupport`).
* ``inheritance`` — transitive priority inheritance (Sha/Rajkumar/Lehoczky).
* ``ceiling`` — priority-ceiling emulation: a thread holding a lock runs at
  the lock's ceiling (the highest priority of any thread that ever uses
  it; per the paper this must be supplied by the programmer via
  :func:`set_ceiling`, defaulting to the highest spawned priority).

Both protocols only change *scheduling*; they are most meaningful under the
strict :class:`~repro.vm.scheduler.PriorityScheduler`, but the prioritized
monitor queues honour the boosted priorities under round-robin too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.metrics import SupportMetrics
from repro.vm.monitors import Monitor, monitor_of
from repro.vm.support import NullSupport, RuntimeSupport

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.threads import Frame, VMThread


def set_ceiling(obj, priority: int) -> None:
    """Declare a lock's priority ceiling (programmer-supplied, §1)."""
    monitor_of(obj).ceiling = priority


def donate_priority(
    vm, metrics: SupportMetrics, thread: "VMThread", monitor: "Monitor"
) -> bool:
    """Transitive priority donation (Sha/Rajkumar/Lehoczky).

    ``thread`` is blocked on ``monitor``: the owner — and, transitively,
    the owner of whatever *it* blocks on — inherits ``thread``'s effective
    priority.  Shared by :class:`InheritanceSupport` and by the rollback
    runtime's degradation ladder, whose *inheritance* rung donates instead
    of revoking.  Returns True when any donation occurred.
    """
    donor_priority = thread.effective_priority
    mon: Optional[Monitor] = monitor
    seen: set[int] = set()
    donated = False
    while mon is not None and mon.owner is not None:
        owner = mon.owner
        if owner.tid in seen:
            break  # wait-for cycle: inheritance cannot help a deadlock
        seen.add(owner.tid)
        if owner.effective_priority < donor_priority:
            owner.inherited_priority = donor_priority
            metrics.priority_donations += 1
            donated = True
            vm.scheduler.on_priority_changed(owner)
            vm.trace(
                "inherit", owner, from_=thread, priority=donor_priority
            )
        mon = owner.blocked_on
    return donated


def recompute_inheritance(vm, thread: "VMThread") -> None:
    """Inherited priority = highest priority still waiting on any monitor
    the thread holds (recomputed after every release)."""
    best = max(
        (mon.highest_queued_priority() for mon in thread.held_monitors),
        default=-1,
    )
    if thread.inherited_priority != best:
        thread.inherited_priority = best
        vm.scheduler.on_priority_changed(thread)


class InheritanceSupport(RuntimeSupport):
    """Transitive priority inheritance.

    When a thread blocks on a monitor, the owner (and, transitively, the
    owner of whatever *it* blocks on) inherits the blocker's effective
    priority.  On release, the inherited priority is recomputed from the
    waiters still queued on the monitors the thread holds.
    """

    name = "inheritance"

    def __init__(self) -> None:
        super().__init__()
        self.metrics = SupportMetrics()

    def on_contended_acquire(
        self, thread: "VMThread", monitor: "Monitor"
    ) -> None:
        donate_priority(self.vm, self.metrics, thread, monitor)

    def on_handoff(
        self,
        releaser: "VMThread",
        monitor: "Monitor",
        new_owner: Optional["VMThread"],
    ) -> None:
        recompute_inheritance(self.vm, releaser)
        if new_owner is not None:
            recompute_inheritance(self.vm, new_owner)

    def state_fingerprint(self) -> dict:
        violations = [
            f"thread {t.name} retains inherited priority "
            f"{t.inherited_priority} after quiescence"
            for t in self.vm.threads
            if t.inherited_priority != -1
        ]
        return {
            "violations": violations,
            "donations": self.metrics.priority_donations,
        }

    def collect_metrics(self) -> dict[str, int]:
        return self.metrics.as_dict()


class CeilingSupport(RuntimeSupport):
    """Priority-ceiling emulation (immediate ceiling protocol).

    On acquisition a thread's priority is raised to the monitor's ceiling;
    on release it drops back to the highest ceiling among monitors it still
    holds.  Ceilings default to the highest priority of any spawned thread
    when the programmer did not call :func:`set_ceiling` — the transparent
    (but pessimal) fallback.
    """

    name = "ceiling"

    def __init__(self) -> None:
        super().__init__()
        self.metrics = SupportMetrics()
        self._default_ceiling: Optional[int] = None

    def _ceiling(self, monitor: "Monitor") -> int:
        if monitor.ceiling is not None:
            return monitor.ceiling
        if self._default_ceiling is None:
            threads = self.vm.threads
            self._default_ceiling = (
                max(t.priority for t in threads) if threads else 0
            )
        return self._default_ceiling

    def on_monitor_entered(
        self,
        thread: "VMThread",
        monitor: "Monitor",
        frame: "Frame",
        sync_id: object,
        recursive: bool,
    ) -> None:
        if recursive:
            return
        ceiling = self._ceiling(monitor)
        if ceiling > thread.ceiling_boost:
            thread.ceiling_boost = ceiling
            self.metrics.ceiling_boosts += 1
            self.vm.scheduler.on_priority_changed(thread)
            self.vm.trace("ceiling_boost", thread, to=ceiling)

    def on_handoff(
        self,
        releaser: "VMThread",
        monitor: "Monitor",
        new_owner: Optional["VMThread"],
    ) -> None:
        self._recompute(releaser)
        if new_owner is not None:
            self.on_monitor_entered(new_owner, monitor, None, None, False)

    def _recompute(self, thread: "VMThread") -> None:
        best = -1
        for mon in thread.held_monitors:
            c = self._ceiling(mon)
            if c > best:
                best = c
        if thread.ceiling_boost != best:
            thread.ceiling_boost = best
            self.vm.scheduler.on_priority_changed(thread)

    def state_fingerprint(self) -> dict:
        violations = [
            f"thread {t.name} retains ceiling boost {t.ceiling_boost} "
            "after quiescence"
            for t in self.vm.threads
            if t.ceiling_boost != -1
        ]
        return {
            "violations": violations,
            "boosts": self.metrics.ceiling_boosts,
        }

    def collect_metrics(self) -> dict[str, int]:
        return self.metrics.as_dict()


def make_support(mode: str) -> RuntimeSupport:
    """Factory used by :class:`repro.vm.vmcore.JVM`."""
    if mode == "unmodified":
        return NullSupport()
    if mode == "rollback":
        from repro.core.revocation import RollbackSupport

        return RollbackSupport()
    if mode == "inheritance":
        return InheritanceSupport()
    if mode == "ceiling":
        return CeilingSupport()
    raise ValueError(f"unknown support mode {mode!r}")
