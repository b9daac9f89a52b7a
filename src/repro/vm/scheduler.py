"""Thread schedulers.

:class:`RoundRobinScheduler` reproduces the paper's platform: "The Jikes RVM
does not include a priority scheduler; threads are scheduled in a
round-robin fashion" (§4).  Thread priorities still matter — through the
prioritized monitor queues and through the inversion-detection algorithm —
exactly as in the paper's evaluation.

:class:`PriorityScheduler` is a strict-priority preemptive scheduler
(highest effective priority runs; round-robin within a level), provided as
an extension so the priority-inheritance and priority-ceiling baselines can
be exercised in their natural habitat and so classic unbounded priority
inversion (the medium-thread scenario from §1) can be demonstrated.

Both schedulers share the event loop: run the chosen thread for a slice,
wake sleepers when the ready set drains, and — when *nothing* can run —
detect wait-for cycles and hand them to the runtime support for resolution
(the paper's deadlock-breaking revocation, §1).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import DeadlockError, ScheduleError
from repro.vm.interpreter import PREEMPTED, YIELDED
from repro.vm.threads import ThreadState, VMThread

if TYPE_CHECKING:  # pragma: no cover
    from typing import Callable

    from repro.vm.vmcore import JVM


def find_wait_cycle(threads: list[VMThread]) -> Optional[list[VMThread]]:
    """Find one cycle in the wait-for graph (thread -> owner of the monitor
    it blocks on).  Returns the cycle's threads in wait-for order, or None.
    """
    visiting: dict[int, int] = {}  # tid -> position on current path
    for root in threads:
        if root.state is not ThreadState.BLOCKED:
            continue
        path: list[VMThread] = []
        visiting.clear()
        t: Optional[VMThread] = root
        while t is not None and t.state is ThreadState.BLOCKED:
            if t.tid in visiting:
                return path[visiting[t.tid]:]
            visiting[t.tid] = len(path)
            path.append(t)
            mon = t.blocked_on
            t = mon.owner if mon is not None else None
    return None


class BaseScheduler:
    """Shared event loop; subclasses define the ready-set policy."""

    name = "base"

    def __init__(self, vm: "JVM") -> None:
        self.vm = vm
        #: (wake_time, seq, thread) min-heap; entries may be stale
        self._sleepers: list[tuple[int, int, VMThread]] = []
        self._sleep_seq = 0
        self._last: Optional[VMThread] = None
        self.slices = 0
        self.context_switches = 0
        #: scheduling decisions taken through the decision hook (counted
        #: once the hook returns: a hook that raises made no decision)
        self.decisions = 0
        #: pluggable decision hook: called with the ordered list of READY
        #: candidate threads (the order the default policy would consider
        #: them) and must return the *tid* of the thread to run next.
        #: ``None`` (the default) keeps the built-in policy.  Schedule
        #: exploration (:mod:`repro.check`) installs a controller here to
        #: enumerate interleavings; any exception the hook raises
        #: propagates out of :meth:`step`, and a tid outside the candidate
        #: set raises :class:`repro.errors.ScheduleError`.
        self.decision_hook: Optional["Callable[[list[VMThread]], int]"] = None
        #: tid -> (revocations, sections_committed) at the last watchdog scan
        self._watchdog_snap: dict[int, tuple[int, int]] = {}
        #: threads flagged by the starvation watchdog over the whole run
        self.watchdog_trips = 0

    # ------------------------------------------------------------ ready set
    def make_ready(self, thread: VMThread) -> None:
        """Queue ``thread`` to run.  Never called on a thread that is
        already queued (see :meth:`withdraw`), so neither queue needs a
        state filter or dedup: every round-robin entry, and every heap
        entry carrying its thread's current stamp, is READY and unique."""
        raise NotImplementedError

    def _pick_next(self) -> Optional[VMThread]:
        raise NotImplementedError

    def ready_candidates(self) -> list[VMThread]:
        """READY threads in the order the default policy would pick them.

        The first element is what :meth:`_pick_next` would return; the
        queue itself is not consumed."""
        raise NotImplementedError

    def _take(self, thread: VMThread) -> None:
        """Remove ``thread`` (a current ready candidate) from the queue so
        it can be dispatched (or re-routed, see :meth:`withdraw`),
        mirroring what ``_pick_next`` does when it pops."""
        raise NotImplementedError

    def _pick_hooked(self) -> Optional[VMThread]:
        """Pick the next thread through :attr:`decision_hook`."""
        candidates = self.ready_candidates()
        if not candidates:
            return None
        chosen_tid = self.decision_hook(candidates)
        self.decisions += 1
        for t in candidates:
            if t.tid == chosen_tid:
                self._take(t)
                self.vm.trace(
                    "schedule_choice",
                    t,
                    decision=self.decisions,
                    candidates=tuple(c.tid for c in candidates),
                )
                return t
        raise ScheduleError(chosen_tid, [t.tid for t in candidates])

    # ------------------------------------------------------------- sleepers
    def add_sleeper(self, thread: VMThread, wake_time: int) -> None:
        thread.wakeup_time = wake_time
        self._sleep_seq += 1
        heapq.heappush(self._sleepers, (wake_time, self._sleep_seq, thread))

    def remove_sleeper(self, thread: VMThread) -> None:
        """Lazy cancellation: mark so a pending heap entry is skipped."""
        thread.wakeup_time = -1

    def withdraw(self, thread: VMThread) -> None:
        """Take a READY or SLEEPING thread back out of the ready set or the
        sleeper heap, so whoever routes it next queues it afresh, once."""
        if thread.state is ThreadState.READY:
            self._take(thread)
        elif thread.state is ThreadState.SLEEPING:
            self.remove_sleeper(thread)

    def _wake_due_sleepers(self) -> None:
        now = self.vm.clock.now
        while self._sleepers and self._sleepers[0][0] <= now:
            wake_time, _, thread = heapq.heappop(self._sleepers)
            if thread.wakeup_time != wake_time:
                continue  # stale (cancelled or re-armed)
            thread.wakeup_time = -1
            if thread.state is ThreadState.SLEEPING:
                self.make_ready(thread)
            elif thread.state is ThreadState.WAITING:
                self._timeout_waiter(thread)

    def _timeout_waiter(self, thread: VMThread) -> None:
        """A timed wait expired: leave the wait set and reacquire.

        The thread joins the entry queue; when the monitor is already free
        it is made runnable immediately so the WAIT instruction's retry
        path can complete (or lose a barge race and block, in no-handoff
        mode)."""
        mon = thread.waiting_on
        if mon is None:
            return
        saved = mon.remove_waiter(thread)
        if saved is None:
            return  # already notified; the notify path owns the transition
        self.vm.trace("wait_timeout", thread, mon=mon)
        mon.enqueue(thread, saved)
        thread.blocked_on = mon
        if mon.owner is None:
            self.make_ready(thread)
        else:
            thread.state = ThreadState.BLOCKED

    def pending_wake_time(self) -> int:
        """Earliest sleeper wake-up, or a sentinel far future.

        The interpreter polls this at yield points so a due wake-up
        preempts the running thread promptly (Jikes' timer tick firing at
        the next yield point), instead of waiting out the whole quantum.
        """
        t = self._next_sleeper_time()
        return t if t is not None else (1 << 62)

    def _next_sleeper_time(self) -> Optional[int]:
        while self._sleepers:
            wake_time, _, thread = self._sleepers[0]
            if thread.wakeup_time != wake_time:
                heapq.heappop(self._sleepers)
                continue
            return wake_time
        return None

    # ------------------------------------------------------------ main loop
    def run(self) -> None:
        """Drive all live threads to termination (or raise)."""
        while self.step():
            pass

    def step(self) -> Optional[tuple[VMThread, str]]:
        """One scheduling decision: run a single slice (or advance idle
        time / resolve a stall).  Returns ``(thread, reason)`` for an
        executed slice, ``(None, ...)``-style truthy placeholders are not
        used — idle/stall handling returns ``(None, "idle")`` — and None
        when every live thread has terminated.  The debugger steps the VM
        through this same entry point the run loop uses."""
        vm = self.vm
        self._wake_due_sleepers()
        if self.decision_hook is not None:
            thread = self._pick_hooked()
        else:
            thread = self._pick_next()
        if thread is None:
            if self._advance_idle():
                return (None, "idle")
            if self._resolve_stall():
                return (None, "stall-resolved")
            return None
        prof = vm.profiler
        if self._last is not None and self._last is not thread:
            if prof is not None:
                prof.set_context(thread.name, "switch")
            vm.clock.advance(vm.cost_model.context_switch)
            self.context_switches += 1
        self._last = thread
        vm.current_thread = thread
        if prof is not None:
            prof.set_context(thread.name, "guest")
        self.slices += 1
        reason = vm.interpreter.run_slice(thread)
        vm.current_thread = None
        if prof is not None:
            # "(vm)"/"vm" mirror repro.obs.profile.VM_TRACK/CAT_VM;
            # literal here so the VM layer never imports the obs layer.
            prof.set_context("(vm)", "vm")
        if reason is PREEMPTED or reason is YIELDED:
            self.make_ready(thread)
        vm.after_slice()
        interval = vm.options.watchdog_interval
        if interval and self.slices % interval == 0:
            self._watchdog_scan()
        return (thread, reason)

    def _advance_idle(self) -> bool:
        """Nothing ready: jump virtual time to the next sleeper."""
        wake = self._next_sleeper_time()
        if wake is None:
            return False
        prof = self.vm.profiler
        if prof is not None:
            prof.set_context("(vm)", "idle")
        self.vm.clock.advance_to(wake)
        if prof is not None:
            prof.set_context("(vm)", "vm")
        self._wake_due_sleepers()
        return True

    def _resolve_stall(self) -> bool:
        """No thread can run.  Either every live thread is gone (done), or
        we are deadlocked/stalled; try the support's resolution hook."""
        live = [t for t in self.vm.threads if t.is_live()]
        if not live:
            return False
        cycle = find_wait_cycle(live)
        if cycle is not None:
            self.vm.trace("deadlock", None, cycle=[t.name for t in cycle])
            if self.vm.support.resolve_deadlock(cycle):
                return True
            raise DeadlockError([t.name for t in cycle])
        blocked = [t.name for t in live if t.state is ThreadState.BLOCKED]
        waiting = [t.name for t in live if t.state is ThreadState.WAITING]
        raise DeadlockError(
            blocked + waiting,
            reason="stall: blocked threads "
            f"{blocked} / waiting threads {waiting} with no runnable "
            "notifier",
        )

    def _watchdog_scan(self) -> None:
        """Starvation/livelock watchdog (slice-count based, deterministic).

        A thread whose revocation count grew by ``watchdog_revocations`` or
        more since the previous scan, while its committed-section count
        stayed flat, is burning cycles without making forward progress —
        the revocation storm the paper's livelock discussion (§1) warns
        about.  The runtime support decides the remedy (degrading the hot
        section site); the scheduler only detects and reports.
        """
        vm = self.vm
        threshold = vm.options.watchdog_revocations
        snap = self._watchdog_snap
        for t in vm.threads:
            if not t.is_live():
                snap.pop(t.tid, None)
                continue
            prev = snap.get(t.tid)
            cur = (t.revocations, t.sections_committed)
            snap[t.tid] = cur
            if prev is None:
                continue
            if cur[1] == prev[1] and cur[0] - prev[0] >= threshold:
                self.watchdog_trips += 1
                vm.trace(
                    "starvation", t, revocations=cur[0] - prev[0]
                )
                vm.support.on_starvation(t)

    def on_priority_changed(self, thread: VMThread) -> None:
        """A thread's *effective* priority changed (inheritance donation or
        ceiling boost).  Round-robin ignores priorities; the priority
        scheduler re-keys the thread."""
        return None

    def wake_for_revocation(self, thread: VMThread) -> None:
        """Make an off-CPU thread runnable so it can process a pending
        revocation request (deadlock victims; sleepers holding monitors)."""
        if thread.state is ThreadState.BLOCKED and thread.blocked_on:
            thread.blocked_on.remove_from_queue(thread)
            thread.blocked_on = None
            # The park ends here, not at some later re-acquire: credit the
            # blocked interval so metrics (and the profiler's blocked
            # attribution) cover revocation wakes exactly like grants.
            self.vm.credit_blocked(thread)
            self.make_ready(thread)
        elif thread.state is ThreadState.SLEEPING:
            self.remove_sleeper(thread)
            self.make_ready(thread)
        # RUNNING/READY threads reach a yield point on their own; WAITING
        # threads do not hold the contested monitor (wait released it) and
        # their enclosing sections were marked non-revocable at wait().


class RoundRobinScheduler(BaseScheduler):
    """Quantum-based round robin over all ready threads (the Jikes model)."""

    name = "round-robin"

    def __init__(self, vm: "JVM") -> None:
        super().__init__(vm)
        self._ready: deque[VMThread] = deque()

    def make_ready(self, thread: VMThread) -> None:
        thread.state = ThreadState.READY
        self._ready.append(thread)

    def _pick_next(self) -> Optional[VMThread]:
        return self._ready.popleft() if self._ready else None

    def ready_candidates(self) -> list[VMThread]:
        return list(self._ready)

    def _take(self, thread: VMThread) -> None:
        self._ready.remove(thread)


class PriorityScheduler(BaseScheduler):
    """Strict-priority preemptive scheduler (extension).

    The highest effective priority runs; FIFO within one level.  When a
    thread becomes ready with higher effective priority than the running
    thread, the running thread is flagged and preempted at its next yield
    point (pseudo-preemption is preserved).
    """

    name = "priority"

    def __init__(self, vm: "JVM") -> None:
        super().__init__(vm)
        # (-prio, seq, stamp, thread); entries whose stamp no longer
        # matches the thread's sched_stamp are stale and skipped
        self._ready: list[tuple[int, int, int, VMThread]] = []
        self._seq = 0

    def _push(self, thread: VMThread) -> None:
        self._seq += 1
        heapq.heappush(
            self._ready,
            (-thread.effective_priority, self._seq, thread.sched_stamp,
             thread),
        )

    def _maybe_preempt_running(self, thread: VMThread) -> None:
        running = self.vm.current_thread
        if (
            running is not None
            and running.state is ThreadState.RUNNING
            and thread.effective_priority > running.effective_priority
        ):
            running.preempt_requested = True

    def make_ready(self, thread: VMThread) -> None:
        thread.state = ThreadState.READY
        thread.sched_stamp += 1
        self._push(thread)
        self._maybe_preempt_running(thread)

    def on_priority_changed(self, thread: VMThread) -> None:
        if thread.state is ThreadState.READY:
            # re-key: invalidate the old entry, push a fresh one
            thread.sched_stamp += 1
            self._push(thread)
            self._maybe_preempt_running(thread)

    def _pick_next(self) -> Optional[VMThread]:
        while self._ready:
            _neg_prio, _seq, stamp, t = heapq.heappop(self._ready)
            if stamp == t.sched_stamp:
                return t
        return None

    def ready_candidates(self) -> list[VMThread]:
        return [
            t for _neg_prio, _seq, stamp, t in sorted(self._ready)
            if stamp == t.sched_stamp
        ]

    def _take(self, thread: VMThread) -> None:
        # lazy removal: bump the stamp so the queued entry goes stale
        thread.sched_stamp += 1
