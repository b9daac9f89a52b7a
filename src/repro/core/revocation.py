"""The modified VM's runtime support: revocable synchronized sections.

:class:`RollbackSupport` wires the paper's mechanisms into the VM's hook
seam (:mod:`repro.vm.support`):

* **Logging** — the write-barrier slow path appends ``(ref, offset, old)``
  to the thread's sequential undo buffer whenever the thread executes
  inside a synchronized section (§3.1.2).  All threads log, regardless of
  priority, exactly as in the paper's benchmark setup ("updates of both
  low-priority and high-priority threads are logged for fairness").
* **JMM tracking** — every read runs the dependency check; observing
  another thread's speculative write marks the writer's enclosing sections
  non-revocable (§2.2), as do native calls and ``wait``.  A write's
  dependency record is its undo-log entry: the barrier adds only one
  ``(log position, active sections)`` run per call
  (:meth:`JmmTracker.on_write`), rollback cuts the runs with the log and an
  outermost commit drops them in O(1).  The check has an exact O(1) fast
  path: it looks into other threads' logs only when some thread other
  than the reader holds a speculative write (``jmm.live``).
* **Detection** — contended acquisitions (and optionally a periodic scan)
  feed the :class:`~repro.core.detection.InversionDetector`.
* **Revocation** — at the holder's next yield point ``check_yield``
  validates the pending request, processes the undo log *in reverse,
  before any lock is released* (§3.1.2), and returns the rollback signal
  that the interpreter then steers through the injected handlers.
* **Deadlock breaking** and the **livelock guard** (§1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.deadlock import select_victim
from repro.core.detection import InversionDetector
from repro.core.jmm import JmmTracker
from repro.core.metrics import SupportMetrics
from repro.core.policies import donate_priority, recompute_inheritance
from repro.core.sections import (
    LADDER_INHERITANCE,
    LADDER_NONREVOCABLE,
    REASON_DEGRADED,
    REASON_DEPENDENCY,
    REASON_NATIVE,
    REASON_VOLATILE,
    REASON_WAIT,
    Section,
    SectionSite,
)
from repro.core.undolog import UndoLog
from repro.errors import ReproError
from repro.vm.heap import VMObject
from repro.vm.support import RuntimeSupport
from repro.vm.threads import RollbackSignal

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.monitors import Monitor
    from repro.vm.threads import Frame, VMThread


class RollbackSupport(RuntimeSupport):
    """Runtime half of the paper's contribution."""

    name = "rollback"

    def __init__(self) -> None:
        super().__init__()
        self.metrics = SupportMetrics()
        self.jmm = JmmTracker()
        self.detector = InversionDetector(self)
        #: tid -> cached tuple of active sections (hot path for logging)
        self._active_cache: dict[int, tuple[Section, ...]] = {}
        #: (tid, sync_id) -> SectionSite; created lazily on first revocation
        #: so the uncontended path never touches this dict
        self._sites: dict[tuple[int, object], SectionSite] = {}
        #: tid -> site of the thread's most recent revocation (the watchdog
        #: degrades it when the thread has no active section to blame)
        self._last_site: dict[int, SectionSite] = {}
        #: donations made by the ladder's inheritance rung; on_handoff only
        #: recomputes inherited priorities when this is non-zero
        self._donations = 0
        #: post-rollback invariant auditor (options.audit_rollbacks)
        self.auditor = None
        #: per-VM section-id sequence — part of VM state (deepcopied by
        #: snapshots), so section ids in traces are a pure function of the
        #: schedule, never of what else the host process ran
        self._section_seq = 0
        #: undo entries that left a log other than by rollback (commit
        #: truncation, fault-plane drops), net of fault-plane duplicates
        #: that ``undo_entries_logged`` never counted; see
        #: :meth:`live_undo_entries`
        self.retired = 0

    def attach(self, vm) -> None:
        super().attach(vm)
        if vm.options.audit_rollbacks:
            from repro.faults.auditor import InvariantAuditor

            self.auditor = InvariantAuditor(self)

    # -------------------------------------------------------------- helpers
    def _log(self, thread: "VMThread") -> UndoLog:
        log = thread.undo_log
        if log is None:
            log = UndoLog(self.vm.heap)
            thread.undo_log = log
        return log

    def _active_tuple(self, thread: "VMThread") -> tuple[Section, ...]:
        cached = self._active_cache.get(thread.tid)
        if cached is None:
            cached = tuple(thread.sections)
            self._active_cache[thread.tid] = cached
        return cached

    def _commit_log(self, thread: "VMThread", log: UndoLog) -> None:
        """Finalise ``thread``'s speculative writes at outermost commit:
        drop its JMM records and discard the buffer."""
        self.jmm.on_commit(thread)
        self.retired += log.truncate(0)

    def _invalidate(self, thread: "VMThread") -> None:
        self._active_cache.pop(thread.tid, None)

    def _site(self, thread: "VMThread", sync_id: object) -> SectionSite:
        key = (thread.tid, sync_id)
        site = self._sites.get(key)
        if site is None:
            site = SectionSite(thread.tid, sync_id)
            self._sites[key] = site
        return site

    def can_revoke(self, holder: "VMThread", target: Section) -> bool:
        """A section can be revoked iff it and every section nested inside
        it (still active) are revocable — rolling back the target undoes
        the inner sections' updates too (§2.2 footnote 1)."""
        try:
            idx = holder.sections.index(target)
        except ValueError:
            return False
        if target.recursive:
            return False
        return all(s.revocable for s in holder.sections[idx:])

    def pending_undo_entries(self, holder: "VMThread", target: Section) -> int:
        """How many undo-log entries a revocation of ``target`` would
        restore right now (the cost-aware detection extension reads this)."""
        log = holder.undo_log
        if log is None:
            return 0
        return max(0, len(log) - target.log_mark)

    def _mark_all(self, thread: "VMThread", reason: str) -> int:
        changed = 0
        for section in thread.sections:
            if section.mark_nonrevocable(reason):
                changed += 1
                self.vm.trace(
                    "nonrevocable", thread, section=repr(section),
                    mon=section.monitor, reason=reason,
                )
        if changed:
            self.metrics.nonrevocable_marks += changed
        return changed

    # -------------------------------------------------------------- monitors
    def on_monitor_entered(
        self,
        thread: "VMThread",
        monitor: "Monitor",
        frame: "Frame",
        sync_id: object,
        recursive: bool,
    ) -> None:
        scope = frame.method.rollback_scopes.get(sync_id)
        log = self._log(thread)
        self._section_seq += 1
        section = Section(
            thread,
            monitor,
            frame,
            sync_id,
            sid=self._section_seq,
            slot=scope.slot if scope else None,
            handler_pc=scope.handler_pc if scope else None,
            log_mark=log.mark(),
            recursive=recursive,
        )
        thread.sections.append(section)
        self._invalidate(thread)
        if not recursive and monitor.first_section is None:
            monitor.first_section = section
        self.metrics.sections_entered += 1
        if recursive:
            self.metrics.sections_recursive += 1
        elif self._sites:
            site = self._sites.get((thread.tid, sync_id))
            if site is not None and site.level == LADDER_NONREVOCABLE:
                # fully degraded site: pin every execution at entry, so
                # detection stops requesting revocations that always fail
                if section.mark_nonrevocable(REASON_DEGRADED):
                    self.metrics.nonrevocable_marks += 1
                    self.metrics.nonrevocable_degraded += 1
                    self.vm.trace(
                        "nonrevocable", thread, section=repr(section),
                        mon=section.monitor, reason=REASON_DEGRADED,
                    )

    def on_monitor_exited(
        self,
        thread: "VMThread",
        monitor: "Monitor",
        frame: "Frame",
        sync_id: object,
    ) -> None:
        if not thread.sections:
            raise ReproError(
                f"monitorexit with empty section stack in {thread.name!r}"
            )
        section = thread.sections.pop()
        self._invalidate(thread)
        if section.monitor is not monitor or section.sync_id != sync_id:
            raise ReproError(
                f"section stack mismatch in {thread.name!r}: popped "
                f"{section!r} for exit of {sync_id!r}"
            )
        if self._sites:
            site = self._sites.get((thread.tid, sync_id))
            if site is not None:
                site.commit()
        if not thread.sections:
            # Outermost commit: updates become final; the buffer and the
            # JMM dependency records are discarded.
            self._commit_log(thread, self._log(thread))
            thread.consecutive_revocations = 0
            thread.sections_committed += 1
            self.metrics.sections_committed += 1

    def on_contended_acquire(
        self, thread: "VMThread", monitor: "Monitor"
    ) -> None:
        self.detector.on_contended(thread, monitor)

    # ---------------------------------------------------------------- memory
    def store_barrier_cost(self, thread: "VMThread") -> int:
        # the fast path ("am I inside a section?") always; the slow path
        # (undo-log append) only inside one
        cm = self.vm.cost_model
        if thread.sections:
            return cm.barrier_fast + cm.barrier_slow
        return cm.barrier_fast

    def before_store(
        self, thread: "VMThread", container, slot, old_value
    ) -> int:
        m = self.metrics
        m.barrier_fast_hits += 1
        cost = self.store_barrier_cost(thread)
        if not thread.sections:
            return cost
        log = thread.undo_log
        if log is None:
            log = self._log(thread)
        entries = log.entries
        entries.append((container, slot, old_value))
        active = self._active_cache.get(thread.tid)
        if active is None:
            active = self._active_tuple(thread)
        self.jmm.on_write(thread, entries, 1, active)
        m.barrier_slow_hits += 1
        m.undo_entries_logged += 1
        return cost

    def before_store_batch(self, thread, entries) -> int:
        # Equivalent to per-entry before_store because the thread's
        # section stack cannot change across the entries (monitor ops are
        # never fused), so every entry sees the same ``thread.sections``
        # truth value and active tuple: the records are the undo entries
        # themselves, and the JMM tracker notes one run for all of them.
        m = self.metrics
        n = len(entries)
        m.barrier_fast_hits += n
        if n and thread.sections:
            log = self._log(thread).entries
            log.extend(entries)
            self.jmm.on_write(thread, log, n, self._active_tuple(thread))
            m.barrier_slow_hits += n
            m.undo_entries_logged += n
        return self.store_barrier_cost(thread) * n

    def after_load(self, thread: "VMThread", container, slot) -> int:
        self.metrics.read_barrier_hits += 1
        # Fast path: on_read can only report another thread's records, so
        # skip the lookup unless some thread other than the reader has one.
        # The predecode tier inlines this same guard (read_barrier_guard).
        live = self.jmm.live
        if len(live) > (thread.tid in live):
            sections = self.jmm.on_read(thread, container, slot)
            if not sections:
                return self.vm.cost_model.read_barrier
            reason = (REASON_VOLATILE if self._volatile(container, slot)
                      else REASON_DEPENDENCY)
            for section in sections:
                if section.mark_nonrevocable(reason):
                    self.metrics.nonrevocable_marks += 1
                    self.metrics.nonrevocable_dependency += 1
                    self.vm.trace(
                        "nonrevocable",
                        thread,
                        section=repr(section),
                        mon=section.monitor,
                        reason=reason,
                    )
        return self.vm.cost_model.read_barrier

    def _volatile(self, container, slot) -> bool:
        """Whether the location just read is a volatile field (Figure 3):
        an object's field of its own class, a static's ``(class, field)``
        key of the loaded class; an array element never is."""
        if type(container) is VMObject:
            return container.classdef.fields[slot].volatile
        if type(container) is tuple:
            return self.vm.classdef(container[0]).fields[slot].volatile
        return False

    def read_barrier_guard(self):
        return self.jmm.live, self.metrics

    def live_undo_entries(self) -> int:
        # Every entry enters a log through a barrier (logged) and leaves
        # by rollback (restored) or otherwise (retired), so the live total
        # costs nothing per store and needs no scan of the threads.
        m = self.metrics
        return m.undo_entries_logged - m.undo_entries_restored - self.retired

    # --------------------------------------------------------------- control
    def check_yield(self, thread: "VMThread") -> Optional[RollbackSignal]:
        target = thread.revocation_request
        if target is None:
            return None
        thread.revocation_request = None
        if target not in thread.sections:
            # the section already committed; request is stale.  Traced so
            # schedule-dependence analyses (repro.check.dpor) see that a
            # posted request was consumed here — the consumption orders
            # this slice against the posting slice on the same monitor.
            self.vm.trace(
                "revocation_denied", thread,
                mon=getattr(target, "monitor", None),
                reason="stale",
            )
            return None
        if not self.can_revoke(thread, target):
            self.metrics.revocations_denied_nonrevocable += 1
            self.vm.trace(
                "revocation_denied", thread, mon=target.monitor,
                reason="nonrevocable",
            )
            return None
        limit = self.vm.options.max_rollback_entries
        if limit and self.pending_undo_entries(thread, target) > limit:
            # the log grew past the budget between request and delivery
            self.metrics.revocations_denied_cost += 1
            self.vm.trace(
                "revocation_denied", thread, mon=target.monitor,
                reason="cost",
            )
            return None
        plane = self.vm.fault_plane
        if plane is not None:
            plane.perturb_undo(self, thread, target)
            plane.drop_undo(self, thread, target)
        # Process the undo log in reverse, *before any lock is released*
        # (§3.1.2) — partial results never become visible to other threads.
        log = self._log(thread)
        audit = self.auditor
        expectation = (
            audit.before_rollback(thread, target, log)
            if audit is not None
            else None
        )
        self.jmm.on_rollback(thread, target.log_mark)
        restored = log.rollback_to(target.log_mark)
        if audit is not None:
            audit.after_rollback(thread, target, log, expectation)
        cm = self.vm.cost_model
        cost = cm.rollback_base + cm.rollback_entry * restored
        self.vm.charge(thread, cost)
        if self.vm.profiler is not None:
            self.vm.profiler.rollback(thread, cost)
        m = self.metrics
        m.undo_entries_restored += restored
        m.rollback_cycles += cost
        m.revocations_completed += 1
        thread.consecutive_revocations += 1
        opts = self.vm.options
        if thread.consecutive_revocations >= opts.livelock_threshold:
            exponent = thread.consecutive_revocations - opts.livelock_threshold
            thread.grace_until = self.vm.clock.now + (
                opts.livelock_grace << min(exponent, 16)
            )
            self.vm.trace(
                "grace_granted", thread, until=thread.grace_until
            )
        # Per-site retry budget and exponential backoff (robustness plane):
        # unlike the thread-level livelock guard above — which any
        # revocation of the thread feeds — these track one static section
        # and survive across executions, so a single pathological hot spot
        # degrades without penalising the thread's other sections.
        site = self._site(thread, target.sync_id)
        site.attempts += 1
        site.total_revocations += 1
        self._last_site[thread.tid] = site
        if opts.revocation_backoff:
            site.grace_until = self.vm.clock.now + (
                opts.revocation_backoff << min(site.attempts - 1, 16)
            )
            m.backoff_windows_granted += 1
            self.vm.trace(
                "site_backoff", thread, sync_id=str(site.sync_id),
                until=site.grace_until,
            )
        budget = opts.revocation_retry_budget
        if budget and site.attempts >= budget:
            m.retry_budget_exhausted += 1
            self._degrade(thread, site, reason="budget")
        self.vm.trace(
            "rollback_begin", thread, section=repr(target),
            mon=target.monitor, undone=restored,
        )
        return RollbackSignal(target)

    def on_rollback_handler(
        self, thread: "VMThread", section: Section, is_target: bool
    ) -> None:
        top = thread.sections.pop()
        self._invalidate(thread)
        if top is not section:
            raise ReproError(
                f"rollback handler popped {top!r}, expected {section!r}"
            )

    def on_native_call(self, thread: "VMThread", name: str) -> None:
        changed = self._mark_all(thread, REASON_NATIVE)
        self.metrics.nonrevocable_native += changed

    def on_wait(self, thread: "VMThread", monitor: "Monitor") -> None:
        # §2.2: revoking past a completed wait() would "undeliver" the
        # notification; enclosing monitors become non-revocable.  We mark
        # the receiver's own section too (conservative: after the wait
        # returns, a rollback to its monitorenter would lose the notify).
        changed = self._mark_all(thread, REASON_WAIT)
        self.metrics.nonrevocable_wait += changed

    def on_wait_reacquired(
        self, thread: "VMThread", monitor: "Monitor"
    ) -> None:
        if monitor.first_section is None:
            monitor.first_section = thread.section_for_monitor(monitor)

    def on_thread_exit(self, thread: "VMThread") -> None:
        if thread.sections:
            raise ReproError(
                f"thread {thread.name!r} exited with active sections "
                f"{thread.sections!r}"
            )
        self._invalidate(thread)
        self._last_site.pop(thread.tid, None)

    def on_section_abandoned(self, thread: "VMThread", section) -> None:
        # Guest exception dispatch popped the section's frame without a
        # commit or rollback (hand-written bytecode with no catch-all
        # release handler).  The monitor was force-released with the
        # speculative updates in place, i.e. commit semantics — so when the
        # stack empties, finalise exactly as an outermost commit would.
        self._invalidate(thread)
        self.metrics.sections_abandoned += 1
        self.vm.trace(
            "section_abandoned", thread, section=repr(section)
        )
        if not thread.sections and thread.undo_log is not None:
            self._commit_log(thread, thread.undo_log)

    # ------------------------------------------------------------ robustness
    def request_revocation(
        self,
        holder: "VMThread",
        target: Section,
        *,
        requester: "VMThread | None" = None,
        origin: str = "inversion",
    ) -> bool:
        """Single chokepoint for posting a revocation request on ``holder``.

        Applies the robustness policies — degradation-ladder rung of the
        target's site, per-site backoff window, thread-level livelock grace
        — before posting.  Deadlock resolution bypasses them by posting
        its victim's request directly (:meth:`resolve_deadlock`).
        Returns True when a request is pending after the call (newly posted
        or subsumed by an outer pending one).
        """
        vm = self.vm
        reporter = requester if requester is not None else holder
        site = self._sites.get((holder.tid, target.sync_id))
        if site is not None:
            if site.level == LADDER_NONREVOCABLE:
                # Normally unreachable (sections are pinned at entry),
                # but a site can degrade while an execution is active.
                self.metrics.revocations_denied_degraded += 1
                vm.trace(
                    "revocation_denied", reporter, holder=holder,
                    mon=target.monitor, reason="degraded",
                )
                return False
            if site.level == LADDER_INHERITANCE:
                # Degraded rung: stop throwing away the holder's work;
                # fall back to donating the requester's priority.
                self.metrics.revocations_denied_degraded += 1
                vm.trace(
                    "revocation_denied", reporter, holder=holder,
                    mon=target.monitor, reason="degraded-inheritance",
                )
                if requester is not None and donate_priority(
                    vm, self.metrics, requester, target.monitor
                ):
                    self._donations += 1
                return False
            if vm.clock.now < site.grace_until:
                self.metrics.revocations_denied_grace += 1
                vm.trace(
                    "revocation_denied", reporter, holder=holder,
                    mon=target.monitor, reason="site-backoff",
                )
                return False
        if vm.clock.now < holder.grace_until:
            self.metrics.revocations_denied_grace += 1
            vm.trace(
                "revocation_denied", reporter, holder=holder,
                mon=target.monitor, reason="grace",
            )
            return False
        current = holder.revocation_request
        if current is not None:
            # Keep the outermost pending target: rolling back an outer
            # section subsumes any inner one.
            if current is target:
                return True
            try:
                if holder.sections.index(current) <= holder.sections.index(
                    target
                ):
                    return True
            except ValueError:
                pass  # stale request; replace it
        holder.revocation_request = target
        self.metrics.revocation_requests += 1
        vm.trace(
            "revocation_request",
            reporter,
            holder=holder,
            section=repr(target),
            mon=target.monitor,
            origin=origin,
        )
        # A blocked or sleeping holder never reaches a yield point on its
        # own; wake it so the rollback can proceed.
        vm.scheduler.wake_for_revocation(holder)
        # Preemption-based means *prompt*: under strict priority
        # scheduling the victim still needs CPU to reach the yield point
        # where the rollback runs, and medium-priority threads would
        # starve it of exactly that — reintroducing the inversion the
        # revocation exists to end.  Donate the requester's priority to
        # the holder for the duration of the undo; on_handoff sheds it
        # when the rolled-back monitor is released.  Round-robin (and
        # hook-driven checker) schedules need no boost — every ready
        # thread runs within one rotation — so the donation is gated to
        # keep revocation requests independent transitions under DPOR.
        if (
            vm.scheduler.name == "priority"
            and requester is not None
            and donate_priority(vm, self.metrics, requester, target.monitor)
        ):
            self._donations += 1
        return True

    def _degrade(
        self, thread: "VMThread", site: SectionSite, *, reason: str
    ) -> Optional[str]:
        """Demote ``site`` one ladder rung; returns the new level or None
        when the site already sits at the bottom."""
        new_level = site.escalate()
        if new_level is None:
            return None
        if new_level == LADDER_INHERITANCE:
            self.metrics.degradations_to_inheritance += 1
        else:  # LADDER_NONREVOCABLE
            self.metrics.degradations_to_nonrevocable += 1
            for section in thread.sections:
                if section.sync_id == site.sync_id and not section.recursive:
                    if section.mark_nonrevocable(REASON_DEGRADED):
                        self.metrics.nonrevocable_marks += 1
                        self.metrics.nonrevocable_degraded += 1
        self.vm.trace(
            "degrade", thread, sync_id=str(site.sync_id), level=new_level,
            reason=reason,
        )
        return new_level

    def escalate_hottest_site(
        self, *, reason: str = "abort-storm"
    ) -> Optional[str]:
        """Demote the most-revoked still-demotable site one ladder rung.

        The overload plane (:mod:`repro.server.plane`) calls this when its
        abort-storm detector trips: instead of letting a storm keep
        throwing away work, the hottest site falls back to priority
        inheritance (and, on a repeat offence, to non-revocability).
        Ties break deterministically on (tid, sync_id).  Returns the new
        ladder level, or None when no site is demotable.
        """
        best: Optional[SectionSite] = None
        best_key = None
        for (tid, sync_id), site in self._sites.items():
            if site.level == LADDER_NONREVOCABLE:
                continue
            key = (-site.total_revocations, tid, str(sync_id))
            if best_key is None or key < best_key:
                best, best_key = site, key
        if best is None:
            return None
        thread = next(
            (t for t in self.vm.threads if t.tid == best.tid), None
        )
        if thread is None:
            return None
        return self._degrade(thread, best, reason=reason)

    def on_starvation(self, thread: "VMThread") -> bool:
        self.metrics.starvations_detected += 1
        site: Optional[SectionSite] = None
        for section in thread.sections:
            if not section.recursive:
                site = self._site(thread, section.sync_id)
                break
        if site is None:
            site = self._last_site.get(thread.tid)
        if site is None:
            return False
        return self._degrade(thread, site, reason="starvation") is not None

    def on_handoff(
        self,
        releaser: "VMThread",
        monitor: "Monitor",
        new_owner: "VMThread | None",
    ) -> None:
        # Only needed once the ladder's inheritance rung has donated:
        # released monitors must shed the donation exactly as the
        # inheritance baseline does.
        if self._donations:
            recompute_inheritance(self.vm, releaser)
            if new_owner is not None:
                recompute_inheritance(self.vm, new_owner)

    # ------------------------------------------------------------ scheduling
    def periodic_scan(self) -> None:
        self.detector.scan_blocked()

    def resolve_deadlock(self, cycle: list["VMThread"]) -> bool:
        if not self.vm.options.resolve_deadlocks:
            return False
        picked = select_victim(self, cycle)
        if picked is None:
            return False
        victim, target = picked
        victim.revocation_request = target
        self.metrics.deadlocks_resolved += 1
        self.metrics.revocation_requests += 1
        self.vm.trace(
            "deadlock_resolve", victim, section=repr(target),
            cycle=[t.name for t in cycle],
        )
        self.vm.scheduler.wake_for_revocation(victim)
        # Same promptness argument as request_revocation (and the same
        # priority-scheduler gate): the victim must actually run to undo
        # its section, and third-party runnable threads must not starve
        # it.  Donate from the highest-priority member of the cycle.
        if self.vm.scheduler.name == "priority":
            donor = None
            for t in cycle:
                if t is victim:
                    continue
                if donor is None or (
                    t.effective_priority,
                    -t.tid,
                ) > (donor.effective_priority, -donor.tid):
                    donor = t
            if donor is not None and donate_priority(
                self.vm, self.metrics, donor, target.monitor
            ):
                self._donations += 1
        return True

    # -------------------------------------------------------------- checking
    def state_fingerprint(self) -> dict:
        """Rollback-runtime quiescence report for the differential oracle.

        On a clean run every section has committed (``thread.sections``
        empty) and every undo log drained (committed at outermost exit or
        restored by rollback) — anything left over means a section's
        effects escaped the commit/revoke protocol."""
        violations: list[str] = []
        for t in self.vm.threads:
            if t.sections:
                violations.append(
                    f"thread {t.name} quiesced with {len(t.sections)} "
                    "uncommitted section(s)"
                )
            log = t.undo_log
            if log is not None and len(log) > 0:
                violations.append(
                    f"thread {t.name} quiesced with {len(log)} undrained "
                    "undo entries"
                )
        return {
            "violations": violations,
            "revocations_completed": self.metrics.revocations_completed,
        }

    # --------------------------------------------------------------- metrics
    def collect_metrics(self) -> dict[str, int]:
        return self.metrics.as_dict()
