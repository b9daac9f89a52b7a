"""Scheduler tests: round-robin fairness, priority preemption, stall
detection, sleep bookkeeping, wait-for-cycle detection, and the pluggable
decision hook used by the schedule explorer."""

import copy
import sys
from collections import Counter

import pytest

from repro import Asm, DeadlockError, Monitor, ThreadState, VMThread
from repro.bench.workloads import (
    build_bounded_buffer,
    build_deadlock_pair,
    lookup_scenario,
)
from repro.errors import ScheduleError
from repro.faults import FaultPlan
from repro.faults.campaign import CYCLE_CAP
from repro.util.rng import sweep_seed
from repro.vm.clock import CostModel
from repro.vm.interpreter import PREEMPTED, YIELDED
from repro.vm.scheduler import (
    BaseScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    find_wait_cycle,
)
from repro.vm.vmcore import JVM, VMOptions

from conftest import build_class, make_vm


def _timed_loop_method():
    """run(is_high): spin 3000 iterations, then record the finish time in
    high_end or low_end depending on the argument."""
    run = Asm("run", argc=1)
    i = run.local()
    run.for_range(i, lambda: run.const(3_000), lambda: run.const(0).pop())
    run.time()
    run.if_then(
        lambda: run.load(0),
        lambda: run.putstatic("T", "high_end"),
        lambda: run.putstatic("T", "low_end"),
    )
    run.ret()
    return run


class TestRoundRobin:
    def test_round_robin_ignores_priority(self):
        """The Jikes scheduler the paper uses is priority-blind: a
        low-priority CPU hog is not starved by a high-priority one."""
        run = _timed_loop_method()
        vm = make_vm(scheduler="round-robin")
        vm.load(build_class("T", ["low_end:int", "high_end:int"], [run]))
        vm.spawn("T", "run", args=[0], priority=1, name="low")
        vm.spawn("T", "run", args=[1], priority=10, name="high")
        vm.run()
        low_end = vm.get_static("T", "low_end")
        high_end = vm.get_static("T", "high_end")
        # round robin: both finish around the same time (within a couple of
        # quanta), rather than low waiting for high to finish entirely
        assert abs(low_end - high_end) < vm.cost_model.quantum * 4

    def test_slices_and_switches_counted(self):
        run = Asm("run", argc=0)
        i = run.local()
        run.for_range(i, lambda: run.const(5_000), lambda:
                      run.const(0).pop())
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", [], [run]))
        vm.spawn("T", "run", name="a")
        vm.spawn("T", "run", name="b")
        vm.run()
        assert vm.scheduler.slices > 2
        assert vm.scheduler.context_switches >= 2

    def test_context_switch_costs_charged(self):
        def elapsed(threads):
            run = Asm("run", argc=0)
            i = run.local()
            run.for_range(i, lambda: run.const(4_000), lambda:
                          run.const(0).pop())
            run.ret()
            vm = make_vm()
            vm.load(build_class("T", [], [run]))
            for k in range(threads):
                vm.spawn("T", "run", name=f"t{k}")
            vm.run()
            return vm.clock.now, vm.scheduler.context_switches

        one, sw1 = elapsed(1)
        two, sw2 = elapsed(2)
        assert sw2 > sw1
        # two threads do twice the work plus the context-switch overhead
        assert two > 2 * one


class TestPriorityScheduler:
    def test_strict_priority_runs_high_first(self):
        """Under the strict scheduler, the high-priority thread finishes
        before the low one even when spawned second."""
        run = _timed_loop_method()
        vm = make_vm(scheduler="priority")
        vm.load(build_class("T", ["low_end:int", "high_end:int"], [run]))
        vm.spawn("T", "run", args=[0], priority=1, name="low")
        vm.spawn("T", "run", args=[1], priority=10, name="high")
        vm.run()
        assert vm.get_static("T", "high_end") < vm.get_static("T", "low_end")

    def test_preemption_when_higher_wakes(self):
        """A sleeping high-priority thread preempts the low one at its next
        yield point when it wakes."""
        low = Asm("low", argc=0)
        i = low.local()
        low.for_range(i, lambda: low.const(20_000), lambda:
                      low.const(0).pop())
        low.time().putstatic("T", "low_end")
        low.ret()

        high = Asm("high", argc=0)
        high.const(3_000).sleep()
        high.time().putstatic("T", "high_end")
        high.ret()

        vm = make_vm(scheduler="priority")
        vm.load(build_class("T", ["low_end:int", "high_end:int"],
                            [low, high]))
        vm.spawn("T", "low", priority=1, name="low")
        vm.spawn("T", "high", priority=10, name="high")
        vm.run()
        assert vm.get_static("T", "high_end") < vm.get_static("T", "low_end")

    def test_fifo_within_level(self):
        order: list[str] = []

        def recorder(vm_, thread, args):
            order.append(thread.name)
            return None

        run = Asm("run", argc=0)
        run.native("mark", 0)
        run.ret()
        vm = make_vm(scheduler="priority")
        vm.register_native("mark", recorder)
        vm.load(build_class("T", [], [run]))
        for k in range(3):
            vm.spawn("T", "run", priority=5, name=f"t{k}")
        vm.run()
        assert order == ["t0", "t1", "t2"]


class TestStallDetection:
    def test_pure_wait_stall_raises(self):
        """A thread waiting with nobody to notify is a stall, not a hang."""
        run = Asm("run", argc=0)
        run.getstatic("T", "lock")
        with run.sync():
            run.getstatic("T", "lock").wait_()
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", ["lock:ref"], [run]))
        vm.set_static("T", "lock", vm.new_object("T"))
        vm.spawn("T", "run", name="a")
        with pytest.raises(DeadlockError, match="stall"):
            vm.run()

    def test_timed_wait_is_not_a_stall(self):
        run = Asm("run", argc=0)
        run.getstatic("T", "lock")
        with run.sync():
            run.getstatic("T", "lock").const(5_000).timed_wait()
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", ["lock:ref"], [run]))
        vm.set_static("T", "lock", vm.new_object("T"))
        vm.spawn("T", "run", name="a")
        vm.run()  # completes via timeout

    def test_empty_vm_runs_to_completion(self):
        vm = make_vm()
        vm.run()
        assert vm.clock.now == 0


class TestSleepers:
    def test_sleepers_wake_in_time_order(self):
        order: list[str] = []

        def recorder(vm_, thread, args):
            order.append(thread.name)
            return None

        run = Asm("run", argc=1)
        run.load(0).sleep()
        run.native("mark", 0)
        run.ret()
        vm = make_vm()
        vm.register_native("mark", recorder)
        vm.load(build_class("T", [], [run]))
        vm.spawn("T", "run", args=[30_000], name="late")
        vm.spawn("T", "run", args=[10_000], name="early")
        vm.run()
        assert order == ["early", "late"]

    def test_start_time_recorded_at_first_schedule(self):
        run = Asm("run", argc=0)
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", [], [run]))
        t = vm.spawn("T", "run", name="a")
        assert t.start_time is None
        vm.run()
        assert t.start_time is not None
        assert t.end_time >= t.start_time
        assert t.elapsed() == t.end_time - t.start_time


def _wake_up_lateness(scheduler: str, interp: str) -> tuple[int, int]:
    """A priority-1 spinner holds a lock through 2,000 iterations while a
    priority-10 thread sleeps 200 cycles; the spinner's first slice is
    preempted when the sleep falls due.  Returns (cycles from the due
    time to the sleeper's first instruction after it, quantum)."""
    spin = Asm("spin", argc=0)
    spin.getstatic("T", "lock")
    with spin.sync():
        i = spin.local()
        spin.for_range(i, lambda: spin.const(2_000), lambda:
                       spin.const(0).pop())
    spin.ret()
    sleeper = Asm("sleeper", argc=0)
    sleeper.time().putstatic("T", "slept_at")
    sleeper.const(200).sleep()
    sleeper.time().putstatic("T", "woke_at")
    sleeper.ret()
    vm = make_vm(scheduler=scheduler, interp=interp)
    vm.load(build_class(
        "T", ["lock:ref", "slept_at:int", "woke_at:int"], [spin, sleeper]
    ))
    vm.set_static("T", "lock", vm.new_object("T"))
    vm.spawn("T", "sleeper", priority=10, name="sleeper")
    vm.spawn("T", "spin", priority=1, name="spinner")
    vm.run()
    due = vm.get_static("T", "slept_at") + 200
    return vm.get_static("T", "woke_at") - due, vm.cost_model.quantum


@pytest.mark.parametrize("interp", ["fast", "reference"])
class TestWakeUpPreemption:
    """A slice preempted because a sleeper fell due should hand the CPU
    to the sleeper, not to another slice of the preempted thread."""

    @pytest.mark.xfail(strict=True, reason=(
        "round-robin re-queues the preempted thread before the woken "
        "sleeper (DESIGN.md decision 5; ROADMAP item 16)"
    ))
    def test_round_robin_runs_the_woken_sleeper_next(self, interp):
        late, quantum = _wake_up_lateness("round-robin", interp)
        assert late < quantum

    def test_priority_runs_the_woken_sleeper_next(self, interp):
        late, quantum = _wake_up_lateness("priority", interp)
        assert late < quantum


def _bare_thread(tid: int, name: str) -> VMThread:
    run = Asm("run", argc=0)
    run.ret()
    return VMThread(tid, name, run.build(), [])


def _block_on(thread: VMThread, owner: VMThread) -> Monitor:
    """Make ``thread`` BLOCKED on a fresh monitor owned by ``owner``."""
    mon = Monitor(object())
    mon.owner = owner
    thread.state = ThreadState.BLOCKED
    thread.blocked_on = mon
    return mon


class TestFindWaitCycle:
    def test_no_blocked_threads(self):
        assert find_wait_cycle([_bare_thread(1, "a")]) is None

    def test_self_cycle(self):
        """A thread blocked on a monitor it owns itself (possible only
        through corrupted state, but the walker must not loop forever)."""
        t = _bare_thread(1, "a")
        _block_on(t, t)
        assert find_wait_cycle([t]) == [t]

    def test_chain_without_cycle(self):
        """a -> b -> c where c is runnable: no cycle."""
        a, b, c = (_bare_thread(k, n) for k, n in enumerate("abc"))
        _block_on(a, b)
        _block_on(b, c)
        c.state = ThreadState.READY
        assert find_wait_cycle([a, b, c]) is None

    def test_multi_monitor_ring(self):
        """Three threads, three monitors, blocked in a ring: the cycle
        comes back in wait-for order."""
        a, b, c = (_bare_thread(k, n) for k, n in enumerate("abc"))
        _block_on(a, b)
        _block_on(b, c)
        _block_on(c, a)
        cycle = find_wait_cycle([a, b, c])
        assert cycle is not None and len(cycle) == 3
        for waiter, owner in zip(cycle, cycle[1:] + cycle[:1]):
            assert waiter.blocked_on.owner is owner

    def test_tail_outside_cycle_is_excluded(self):
        """t -> a -> b -> a: the reported cycle is [a, b], without the
        tail thread that merely waits on it."""
        t, a, b = (_bare_thread(k, n) for k, n in enumerate("tab"))
        _block_on(t, a)
        _block_on(a, b)
        _block_on(b, a)
        cycle = find_wait_cycle([t, a, b])
        assert cycle is not None
        assert set(c.name for c in cycle) == {"a", "b"}

    def test_blocked_on_unowned_monitor(self):
        """blocked_on with no owner (release raced the walk): no cycle."""
        a = _bare_thread(1, "a")
        mon = Monitor(object())
        a.state = ThreadState.BLOCKED
        a.blocked_on = mon
        assert find_wait_cycle([a]) is None


def _spin_method(iters: int = 200) -> Asm:
    run = Asm("run", argc=0)
    i = run.local()
    run.for_range(i, lambda: run.const(iters), lambda: run.const(0).pop())
    run.ret()
    return run


def _hook_vm(scheduler: str = "round-robin"):
    """Two spinning threads on a one-cycle quantum: every back-edge is a
    scheduling decision the hook gets to make."""
    vm = make_vm(scheduler=scheduler, cost_model=CostModel(quantum=1))
    vm.load(build_class("T", [], [_spin_method()]))
    a = vm.spawn("T", "run", priority=1, name="a")
    b = vm.spawn("T", "run", priority=10, name="b")
    return vm, a, b


class TestDecisionHook:
    def test_hook_drives_round_robin(self):
        vm, a, b = _hook_vm()
        vm.scheduler.decision_hook = lambda cands: cands[-1].tid
        vm.run()
        assert vm.scheduler.decisions > 0
        choices = vm.tracer.of_kind("schedule_choice")
        assert choices
        assert choices[0].details["decision"] == 1
        assert choices[0].details["candidates"] == (a.tid, b.tid)

    def test_hook_overrides_strict_priority(self):
        """The hook sees every READY thread, so exploration can schedule a
        low-priority thread under the strict scheduler too."""
        vm, a, b = _hook_vm(scheduler="priority")
        picked_low = []

        def hook(cands):
            tids = [t.tid for t in cands]
            if a.tid in tids and len(tids) > 1:
                picked_low.append(True)
                return a.tid
            return tids[0]

        vm.scheduler.decision_hook = hook
        vm.run()
        assert picked_low                     # low ran while high was ready
        assert a.state is ThreadState.TERMINATED
        assert b.state is ThreadState.TERMINATED

    def test_hook_exception_propagates(self):
        vm, _, _ = _hook_vm()

        def hook(cands):
            raise RuntimeError("hook exploded")

        vm.scheduler.decision_hook = hook
        with pytest.raises(RuntimeError, match="hook exploded"):
            vm.run()

    def test_hook_that_raises_makes_no_decision(self):
        """A decision counts once the hook returns: an aborted call (the
        DPOR stepping run's peek) leaves the counter where it was."""
        vm, _, _ = _hook_vm()
        picks = 3

        def hook(cands):
            nonlocal picks
            if not picks:
                raise RuntimeError("paused")
            picks -= 1
            return cands[0].tid

        vm.scheduler.decision_hook = hook
        with pytest.raises(RuntimeError, match="paused"):
            vm.run()
        assert vm.scheduler.decisions == 3

    def test_hook_unknown_tid_raises_schedule_error(self):
        vm, a, b = _hook_vm()
        vm.scheduler.decision_hook = lambda cands: 999
        with pytest.raises(ScheduleError) as err:
            vm.run()
        assert err.value.chosen == 999
        assert set(err.value.candidates) == {a.tid, b.tid}

    def test_hook_choosing_dead_thread_raises(self):
        """Insisting on a thread that has terminated is a ScheduleError
        carrying the offending tid and the actual candidates."""
        vm, a, b = _hook_vm()
        vm.scheduler.decision_hook = lambda cands: b.tid
        with pytest.raises(ScheduleError) as err:
            vm.run()
        assert b.state is ThreadState.TERMINATED
        assert err.value.chosen == b.tid
        assert err.value.candidates == [a.tid]
        assert "ready candidates" in str(err.value)

    def test_hook_choosing_blocked_thread_raises(self):
        """A hook that keeps choosing a thread after it blocks on a
        monitor gets a ScheduleError, not a silent fallback."""
        run = Asm("run", argc=0)
        i = run.local()
        run.getstatic("T", "lock")
        with run.sync():
            run.for_range(i, lambda: run.const(50), lambda:
                          run.const(0).pop())
        run.ret()
        vm = make_vm(cost_model=CostModel(quantum=1))
        vm.load(build_class("T", ["lock:ref"], [run]))
        vm.set_static("T", "lock", vm.new_object("T"))
        a = vm.spawn("T", "run", priority=5, name="a")
        b = vm.spawn("T", "run", priority=5, name="b")
        warmup = 10  # let a enter the section, then insist on b

        def hook(cands):
            nonlocal warmup
            tids = [t.tid for t in cands]
            if warmup > 0 and a.tid in tids:
                warmup -= 1
                return a.tid
            return b.tid

        vm.scheduler.decision_hook = hook
        with pytest.raises(ScheduleError) as err:
            vm.run()
        assert err.value.chosen == b.tid
        assert b.state is ThreadState.BLOCKED

    def test_walk_budget_exhausted_mid_section_stays_legal(self):
        """A bounded random walk that spends its budget inside a critical
        section must keep the run legal: it pins the running thread from
        then on, the program completes, and preemptions never exceed the
        bound."""
        from repro.check.explorer import (
            ScheduleController,
            run_schedule,
        )
        from repro.check.scenarios import get_scenario
        from repro.util.rng import DeterministicRng

        scenario = get_scenario("handoff")
        for seed in range(5):
            ctrl = ScheduleController(
                rng=DeterministicRng(seed), bound=2
            )
            vm, outcome = run_schedule(scenario, "rollback", ctrl)
            assert outcome == "completed"
            assert ctrl.preemptions <= 2
            assert vm.get_static("Handoff", "counter") == 8

    def test_decisions_counted_only_under_hook(self):
        vm, _, _ = _hook_vm()
        vm.run()
        assert vm.scheduler.decisions == 0
        vm2, _, _ = _hook_vm()
        vm2.scheduler.decision_hook = lambda cands: cands[0].tid
        vm2.run()
        assert vm2.scheduler.decisions > 0


class TestSleeperHeapStaleness:
    def test_cancelled_entry_is_pruned(self):
        vm = make_vm()
        sched = vm.scheduler
        t = _bare_thread(1, "s")
        sched.add_sleeper(t, 100)
        sched.remove_sleeper(t)
        assert sched.pending_wake_time() == 1 << 62
        assert not sched._sleepers  # lazy prune drained the stale entry

    def test_rearmed_entry_shadows_the_stale_one(self):
        vm = make_vm()
        sched = vm.scheduler
        t = _bare_thread(1, "s")
        sched.add_sleeper(t, 100)
        sched.remove_sleeper(t)
        sched.add_sleeper(t, 200)
        assert sched.pending_wake_time() == 200
        assert len(sched._sleepers) == 1

    def test_wake_skips_stale_and_fires_once(self):
        """Re-arming to an earlier time leaves a later stale entry in the
        heap; the thread must wake exactly once, at the new time."""
        vm = make_vm()
        sched = vm.scheduler
        t = _bare_thread(1, "s")
        t.state = ThreadState.SLEEPING
        sched.add_sleeper(t, 100)
        sched.add_sleeper(t, 50)  # re-arm earlier; the 100 entry is stale
        vm.clock.advance_to(60)
        sched._wake_due_sleepers()
        assert t.state is ThreadState.READY
        assert t.wakeup_time == -1
        # the stale 100 entry must not resurrect the thread
        t.state = ThreadState.SLEEPING
        vm.clock.advance_to(150)
        sched._wake_due_sleepers()
        assert t.state is ThreadState.SLEEPING
        assert sched._next_sleeper_time() is None


# --------------------------------------------------- ready-queue invariant
SCHEDULERS = ("round-robin", "priority")


def _pick_order(sched: BaseScheduler) -> list[VMThread]:
    """The threads repeated default picks would dispatch, in order, drained
    from a copy of the queue so the real one is untouched."""
    probe = copy.copy(sched)
    probe._ready = copy.copy(sched._ready)
    order = []
    while (t := probe._pick_next()) is not None:
        order.append(t)
    return order


def _assert_ready_invariant(sched: BaseScheduler) -> None:
    """Why the ready queues need no state filter and no dedup: every
    queued entry (for the priority heap, every entry carrying its
    thread's current stamp) is READY, no thread is queued twice, the
    candidates are exactly the READY threads in default pick order, and
    no READY thread is also armed in the sleeper heap."""
    if isinstance(sched, RoundRobinScheduler):
        queued = list(sched._ready)
    else:
        queued = [t for _prio, _seq, stamp, t in sched._ready
                  if stamp == t.sched_stamp]
    assert all(t.state is ThreadState.READY for t in queued), queued
    assert len({t.tid for t in queued}) == len(queued), queued
    candidates = sched.ready_candidates()
    ready = {t.tid for t in sched.vm.threads if t.state is ThreadState.READY}
    assert {t.tid for t in candidates} == ready
    assert candidates == _pick_order(sched)
    # a live sleeper entry (its wake time still armed) is a sleeping or
    # timed-waiting thread's, never that of a thread already made READY
    armed = [t for wake, _seq, t in sched._sleepers if t.wakeup_time == wake]
    assert all(t.state in (ThreadState.SLEEPING, ThreadState.WAITING)
               for t in armed), armed


@pytest.fixture
def ready_log(monkeypatch) -> Counter:
    """Assert the ready-queue invariant after every scheduler step.

    Returns a log of how threads entered a ready set: one
    ``(caller, caller's caller, state before)`` key per ``make_ready``
    call, and one ``("slice", reason)`` key per executed slice."""
    log: Counter = Counter()
    step = BaseScheduler.step

    def checked_step(self):
        out = step(self)
        if out is not None and out[0] is not None:
            log["slice", out[1]] += 1
        _assert_ready_invariant(self)
        return out

    monkeypatch.setattr(BaseScheduler, "step", checked_step)
    for cls in (RoundRobinScheduler, PriorityScheduler):
        def logged(self, thread, _make_ready=cls.make_ready):
            caller = sys._getframe(1)
            log[caller.f_code.co_name, caller.f_back.f_code.co_name,
                thread.state] += 1
            _make_ready(self, thread)

        monkeypatch.setattr(cls, "make_ready", logged)
    return log


def _entered(log: Counter, caller: str, via: str = "",
             state: ThreadState | None = None) -> bool:
    return any(
        key[0] == caller and (not via or key[1] == via)
        and (state is None or key[2] is state)
        for key in log
    )


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestReadyQueueInvariant:
    def test_spawn_quantum_preemption_and_zero_sleep(self, scheduler,
                                                     ready_log):
        spin = _spin_method(3_000)
        yielder = Asm("yielder", argc=0)
        i = yielder.local()
        yielder.for_range(i, lambda: yielder.const(5), lambda:
                          yielder.const(0).sleep())
        yielder.ret()
        vm = make_vm(scheduler=scheduler)
        vm.load(build_class("T", [], [spin, yielder]))
        vm.spawn("T", "run", name="a")
        vm.spawn("T", "run", name="b")
        vm.spawn("T", "yielder", name="y")
        vm.run()
        assert _entered(ready_log, "spawn")
        assert ready_log["slice", PREEMPTED] and ready_log["slice", YIELDED]

    def test_sleeper_wake_and_timed_wait_timeout(self, scheduler,
                                                 ready_log):
        sleeper = Asm("sleeper", argc=0)
        sleeper.const(500).sleep()
        sleeper.ret()
        waiter = Asm("waiter", argc=0)
        waiter.getstatic("T", "lock")
        with waiter.sync():
            waiter.getstatic("T", "lock").const(1_000).timed_wait()
        waiter.ret()
        vm = make_vm(scheduler=scheduler)
        vm.load(build_class("T", ["lock:ref"], [sleeper, waiter]))
        vm.set_static("T", "lock", vm.new_object("T"))
        vm.spawn("T", "sleeper", name="s")
        vm.spawn("T", "waiter", name="w")
        vm.run()
        assert _entered(ready_log, "_wake_due_sleepers",
                        state=ThreadState.SLEEPING)
        assert _entered(ready_log, "_timeout_waiter", "_wake_due_sleepers",
                        ThreadState.WAITING)

    @pytest.mark.parametrize("handoff,via", [
        (False, "_wake_waiter"),    # notify, then the woken waiter retries
        (True, "_grant_handoff"),   # release grants ownership directly
    ])
    def test_monitor_successors(self, scheduler, handoff, via, ready_log):
        vm = make_vm(scheduler=scheduler, direct_handoff=handoff)
        build_bounded_buffer(
            capacity=2, items_per_producer=6, producers=2, consumers=2
        ).install(vm)
        vm.run()
        assert vm.tracer.of_kind("notify")
        assert _entered(ready_log, "_ready_or_delay", via,
                        ThreadState.BLOCKED)

    def test_grant_to_a_timed_out_waiter(self, scheduler, ready_log):
        """A timed wait that expires on a free monitor queues its waiter
        READY while it stays on the entry queue.  The thread ahead of it
        then enters and exits that monitor, and the exit hands the monitor
        to the already-queued waiter: it must still be queued once."""
        waiter = Asm("waiter", argc=0)
        waiter.getstatic("T", "lock")
        with waiter.sync():
            waiter.getstatic("T", "lock").const(50).timed_wait()
        waiter.ret()
        barger = Asm("barger", argc=0)
        i = barger.local()
        barger.for_range(i, lambda: barger.const(40), lambda:
                         barger.const(0).pop())
        barger.getstatic("T", "lock")
        with barger.sync():
            barger.const(1).putstatic("T", "x")
        barger.ret()
        vm = make_vm(scheduler=scheduler, direct_handoff=True)
        vm.load(build_class("T", ["lock:ref", "x:int"], [waiter, barger]))
        vm.set_static("T", "lock", vm.new_object("T"))
        vm.spawn("T", "waiter", name="w")
        vm.spawn("T", "barger", name="b")
        vm.run()
        assert vm.get_static("T", "x") == 1
        assert _entered(ready_log, "_ready_or_delay", "_grant_handoff",
                        ThreadState.READY)

    @pytest.mark.parametrize("delay", [None, "wake", "grant"])
    def test_rollback_grant_to_a_woken_waiter(self, scheduler, delay,
                                              ready_log):
        """Under a decision hook: ``o``'s no-handoff release wakes ``w``;
        ``l`` barges in ahead of it; ``h`` blocks and has ``l`` revoked;
        ``l``'s rollback hands the monitor to ``w``, which is READY and
        queued.  ``delay="wake"``: the fault plane postpones ``w``'s
        wake-up, so ``w`` is still asleep at the grant.  ``"grant"``: it
        postpones the grant, so the READY ``w`` must go to sleep."""
        holder = Asm("holder", argc=0)
        holder.getstatic("T", "lock")
        with holder.sync():
            holder.const(0).sleep()
        holder.ret()
        body = Asm("body", argc=0)
        body.getstatic("T", "lock")
        with body.sync():
            body.const(0).sleep()
            body.getstatic("T", "x").const(1).add().putstatic("T", "x")
        body.ret()
        vm = make_vm("rollback", scheduler=scheduler, faults=FaultPlan())
        delayed = {"wake": ThreadState.BLOCKED,
                   "grant": ThreadState.READY}.get(delay)
        postponed: list[str] = []

        def handoff_delay(thread, mon):
            # postpone one wake-up: the first of a thread in state delayed
            if postponed or thread.state is not delayed:
                return 0
            postponed.append(thread.name)
            return 5_000

        vm.fault_plane.handoff_delay = handoff_delay
        vm.load(build_class("T", ["lock:ref", "x:int"], [holder, body]))
        vm.set_static("T", "lock", vm.new_object("T"))
        vm.spawn("T", "holder", priority=10, name="o")
        vm.spawn("T", "body", priority=10, name="w")
        vm.spawn("T", "body", priority=1, name="l")
        vm.spawn("T", "body", priority=5, name="h")
        script = iter(["o", "w", "o", "l", "h", "l"])

        def hook(candidates):
            want = next(script, None)
            for t in candidates:
                if t.name == want:
                    return t.tid
            return candidates[0].tid

        vm.scheduler.decision_hook = hook
        vm.run()
        assert vm.get_static("T", "x") == 3
        assert vm.tracer.of_kind("rollback_begin")
        assert postponed == ([] if delay is None else ["w"])
        if delay != "grant":
            granted_from = (ThreadState.SLEEPING if delay == "wake"
                            else ThreadState.READY)
            assert _entered(ready_log, "_ready_or_delay", "_grant_handoff",
                            granted_from)

    def test_hooked_picks(self, scheduler, ready_log):
        """A decision hook takes threads from the back of the queue."""
        vm = make_vm(scheduler=scheduler)
        build_bounded_buffer(
            capacity=2, items_per_producer=6, producers=2, consumers=2
        ).install(vm)
        vm.scheduler.decision_hook = lambda candidates: candidates[-1].tid
        vm.run()
        assert vm.scheduler.decisions > 0

    def test_revocation_wakes_a_sleeping_holder(self, scheduler, ready_log):
        low = Asm("low", argc=0)
        low.getstatic("T", "lock")
        with low.sync():
            low.const(1).putstatic("T", "x")
            low.const(5_000).sleep()
        low.ret()
        high = Asm("high", argc=0)
        high.const(200).sleep()
        high.getstatic("T", "lock")
        with high.sync():
            high.const(2).putstatic("T", "x")
        high.ret()
        vm = make_vm("rollback", scheduler=scheduler)
        vm.load(build_class("T", ["lock:ref", "x:int"], [low, high]))
        vm.set_static("T", "lock", vm.new_object("T"))
        vm.spawn("T", "low", priority=1, name="low")
        vm.spawn("T", "high", priority=10, name="high")
        vm.run()
        assert _entered(ready_log, "wake_for_revocation",
                        "request_revocation", ThreadState.SLEEPING)

    def test_fault_plane_handoff_delay(self, scheduler, ready_log):
        """A delayed handoff parks the successor as a sleeper."""
        name = "handoff-delay-buffer"
        scenario = lookup_scenario("campaign", name)
        vm = JVM(VMOptions(
            mode="rollback", scheduler=scheduler,
            seed=sweep_seed("campaign", name, 0), max_cycles=CYCLE_CAP,
            faults=scenario.plan, **scenario.options,
        ))
        scenario.build().install(vm)
        vm.run()
        assert scenario.check(vm) == []
        assert vm.fault_plane.report().get("handoff_delay")
        assert _entered(ready_log, "_wake_due_sleepers",
                        state=ThreadState.SLEEPING)

    def test_deadlock_resolution(self, scheduler, ready_log):
        """Breaking a wait-for cycle wakes a blocked victim to roll back."""
        vm = make_vm("rollback", scheduler=scheduler, seed=7)
        build_deadlock_pair(hold_cycles=800, work=20).install(vm)
        vm.run()
        assert vm.tracer.of_kind("deadlock")
        assert _entered(ready_log, "wake_for_revocation",
                        "resolve_deadlock", ThreadState.BLOCKED)
