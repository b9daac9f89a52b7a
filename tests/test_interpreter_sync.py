"""Interpreter tests: monitors under concurrency.

Multi-threaded guest programs on the *unmodified* VM: mutual exclusion,
recursion, blocking, direct handoff, prioritized queues, wait/notify,
timed waits, sleep/yield.
"""

import pytest

from repro import Asm, UncaughtGuestException
from repro.vm.monitors import Monitor

from conftest import build_class, make_vm


def out_of(vm, name="out", cls="T"):
    return vm.get_static(cls, name)


def lock_class(*extra_fields, methods=()):
    return build_class("T", ["lock:ref", *extra_fields], methods)


def install(vm, cls):
    vm.load(cls)
    vm.set_static("T", "lock", vm.new_object("T"))


class TestMutualExclusion:
    def test_critical_section_atomicity(self):
        """Two threads interleaving non-atomic read-modify-write inside a
        monitor must not lose updates (the loop spans many quanta)."""
        run = Asm("run", argc=0)
        run.getstatic("T", "lock")
        with run.sync():
            i = run.local()
            run.for_range(i, lambda: run.const(2_000), lambda: (
                run.getstatic("T", "counter"), run.const(1), run.add(),
                run.putstatic("T", "counter"),
            ))
        run.ret()
        vm = make_vm()
        install(vm, lock_class("counter:int", methods=[run]))
        vm.spawn("T", "run", name="a")
        vm.spawn("T", "run", name="b")
        vm.run()
        assert out_of(vm, "counter") == 4_000

    def test_without_monitor_updates_are_lost(self):
        """Sanity check that the scheduler actually interleaves: the same
        read-modify-write WITHOUT the monitor, with a yield point between
        the read and the write, must lose updates.  (Pseudo-preemption
        means races can only manifest across yield points.)"""
        run = Asm("run", argc=0)
        i = run.local()
        tmp = run.local()
        run.for_range(i, lambda: run.const(2_000), lambda: (
            run.getstatic("T", "counter"), run.store(tmp),
            run.yield_(),
            run.load(tmp), run.const(1), run.add(),
            run.putstatic("T", "counter"),
        ))
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", ["counter:int"], [run]))
        vm.spawn("T", "run", name="a")
        vm.spawn("T", "run", name="b")
        vm.run()
        assert out_of(vm, "counter") < 4_000

    def test_recursion_within_one_thread(self):
        run = Asm("run", argc=0)
        run.getstatic("T", "lock")
        with run.sync():
            run.getstatic("T", "lock")
            with run.sync():
                run.const(1).putstatic("T", "out")
        run.ret()
        vm = make_vm()
        install(vm, lock_class("out:int", methods=[run]))
        vm.spawn("T", "run", name="a")
        vm.run()
        assert out_of(vm) == 1
        assert vm.get_static("T", "lock").monitor.owner is None

    def test_two_distinct_monitors_do_not_exclude(self):
        """Threads on different locks interleave freely."""
        run = Asm("run", argc=1)  # arg: lock index
        run.getstatic("T", "locks").load(0).aload()
        with run.sync():
            i = run.local()
            run.for_range(i, lambda: run.const(500), lambda: (
                run.getstatic("T", "counter"), run.const(1), run.add(),
                run.putstatic("T", "counter"),
            ))
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", ["locks:ref", "counter:int"], [run]))
        locks = vm.new_array(2)
        locks.put(0, vm.new_object("T"))
        locks.put(1, vm.new_object("T"))
        vm.set_static("T", "locks", locks)
        vm.spawn("T", "run", args=[0], name="a")
        vm.spawn("T", "run", args=[1], name="b")
        vm.run()
        # interleaving happened but each increment loop is racy only against
        # the other lock's thread — total may be lost; just require both ran.
        acquire_events = vm.tracer.of_kind("acquire")
        assert {e.thread for e in acquire_events} == {"a", "b"}


class TestHandoffAndQueues:
    def _contention_vm(self, priorities, prioritized=True):
        """All threads contend on one lock; record acquisition order."""
        run = Asm("run", argc=1)  # arg: my slot in the order array
        run.getstatic("T", "lock")
        with run.sync():
            # order[next] = tid; next++
            run.getstatic("T", "order")
            run.getstatic("T", "next")
            run.tid()
            run.astore()
            run.getstatic("T", "next").const(1).add()
            run.putstatic("T", "next")
            i = run.local()
            # long enough to span several quanta, so later arrivals truly
            # block while the first acquirer holds the lock
            run.for_range(i, lambda: run.const(8_000), lambda:
                          run.const(0).pop())
        run.ret()
        vm = make_vm(prioritized_queues=prioritized)
        vm.load(build_class("T", ["lock:ref", "order:ref", "next:int"],
                            [run]))
        vm.set_static("T", "lock", vm.new_object("T"))
        vm.set_static("T", "order", vm.new_array(len(priorities), -1))
        for k, prio in enumerate(priorities):
            vm.spawn("T", "run", args=[k], priority=prio, name=f"t{k}")
        vm.run()
        return vm.get_static("T", "order").snapshot()

    def test_prioritized_queue_prefers_high(self):
        """With a low-priority holder and mixed waiters, high-priority
        waiters acquire before low-priority ones (paper §4)."""
        order = self._contention_vm([1, 1, 10, 10])
        # The first acquirer is whoever got there first (round-robin spawn
        # order), but among the *queued* threads, the high-priority ones
        # (tids 2, 3) must precede the remaining low-priority one.
        queued = order[1:]
        high_positions = [queued.index(t) for t in (2, 3)]
        low_positions = [queued.index(t) for t in (0, 1) if t in queued]
        assert max(high_positions) < max(low_positions)

    def test_all_threads_eventually_acquire(self):
        order = self._contention_vm([5, 5, 5])
        assert sorted(order) == [0, 1, 2]

    def test_direct_handoff_option_prevents_barging(self, monkeypatch):
        """With VMOptions(direct_handoff=True), a release transfers
        ownership to the queued waiter before it runs, so the releaser
        cannot immediately re-enter (the abl-handoff ablation)."""
        run = Asm("run", argc=0)

        def _one_section(a):
            a.getstatic("T", "lock")
            ctx = a.sync()
            with ctx:
                i = a.local()
                a.for_range(i, lambda: a.const(600), lambda: (
                    a.getstatic("T", "counter"), a.const(1), a.add(),
                    a.putstatic("T", "counter"),
                ))

        s = run.local()
        run.for_range(s, lambda: run.const(3), lambda: _one_section(run))
        run.ret()

        # a handoff is a full release whose named waiter already owns
        # the monitor when release returns
        handoffs = []
        release = Monitor.release

        def spy(mon, thread, **kwargs):
            waiter = release(mon, thread, **kwargs)
            if waiter is not None and mon.owner is waiter:
                handoffs.append(waiter.name)
            return waiter

        monkeypatch.setattr(Monitor, "release", spy)
        vm = make_vm(direct_handoff=True)
        install(vm, lock_class("counter:int", methods=[run]))
        vm.spawn("T", "run", name="a")
        vm.spawn("T", "run", name="b")
        vm.run()
        assert out_of(vm, "counter") == 3_600
        assert handoffs  # contention actually exercised handoff


class TestWaitNotify:
    def _pingpong_class(self):
        """consumer waits for flag; producer sets flag and notifies."""
        consumer = Asm("consume", argc=0)
        consumer.getstatic("T", "lock")
        with consumer.sync():
            consumer.while_(
                lambda: consumer.getstatic("T", "flag").not_(),
                lambda: consumer.getstatic("T", "lock").wait_(),
            )
            consumer.const(1).putstatic("T", "observed")
        consumer.ret()

        producer = Asm("produce", argc=0)
        producer.pause(2_000)
        producer.getstatic("T", "lock")
        with producer.sync():
            producer.const(1).putstatic("T", "flag")
            producer.getstatic("T", "lock").notify()
        producer.ret()
        return build_class(
            "T", ["lock:ref", "flag:int", "observed:int"],
            [consumer, producer],
        )

    def test_wait_blocks_until_notify(self):
        vm = make_vm()
        install(vm, self._pingpong_class())
        vm.spawn("T", "consume", name="consumer")
        vm.spawn("T", "produce", name="producer")
        vm.run()
        assert out_of(vm, "observed") == 1

    def test_wait_releases_monitor_while_waiting(self):
        """The producer can enter the monitor while the consumer waits —
        i.e. wait released it."""
        vm = make_vm()
        install(vm, self._pingpong_class())
        vm.spawn("T", "consume", name="consumer")
        vm.spawn("T", "produce", name="producer")
        vm.run()
        producer_acquires = [
            e for e in vm.tracer.of_kind("acquire")
            if e.thread == "producer"
        ]
        assert producer_acquires

    def test_notify_all_wakes_everyone(self):
        consumer = Asm("consume", argc=0)
        consumer.getstatic("T", "lock")
        with consumer.sync():
            consumer.while_(
                lambda: consumer.getstatic("T", "flag").not_(),
                lambda: consumer.getstatic("T", "lock").wait_(),
            )
            consumer.getstatic("T", "woken").const(1).add()
            consumer.putstatic("T", "woken")
        consumer.ret()

        producer = Asm("produce", argc=0)
        producer.pause(3_000)
        producer.getstatic("T", "lock")
        with producer.sync():
            producer.const(1).putstatic("T", "flag")
            producer.getstatic("T", "lock").notifyall()
        producer.ret()

        vm = make_vm()
        install(vm, build_class(
            "T", ["lock:ref", "flag:int", "woken:int"],
            [consumer, producer],
        ))
        for k in range(3):
            vm.spawn("T", "consume", name=f"c{k}")
        vm.spawn("T", "produce", name="p")
        vm.run()
        assert out_of(vm, "woken") == 3

    def test_notify_without_waiters_is_noop(self):
        run = Asm("run", argc=0)
        run.getstatic("T", "lock")
        with run.sync():
            run.getstatic("T", "lock").notify()
            run.getstatic("T", "lock").notifyall()
        run.ret()
        vm = make_vm()
        install(vm, lock_class(methods=[run]))
        vm.spawn("T", "run", name="a")
        vm.run()  # completes without error

    def test_wait_without_ownership_raises(self):
        run = Asm("run", argc=0)
        run.getstatic("T", "lock").wait_()
        run.ret()
        vm = make_vm()
        install(vm, lock_class(methods=[run]))
        vm.spawn("T", "run", name="a")
        with pytest.raises(UncaughtGuestException) as exc_info:
            vm.run()
        assert exc_info.value.exc_class == "IllegalMonitorStateException"

    def test_notify_without_ownership_raises(self):
        run = Asm("run", argc=0)
        run.getstatic("T", "lock").notify()
        run.ret()
        vm = make_vm()
        install(vm, lock_class(methods=[run]))
        vm.spawn("T", "run", name="a")
        with pytest.raises(UncaughtGuestException) as exc_info:
            vm.run()
        assert exc_info.value.exc_class == "IllegalMonitorStateException"

    def test_timed_wait_times_out(self):
        run = Asm("run", argc=0)
        run.getstatic("T", "lock")
        with run.sync():
            run.time().putstatic("T", "t0")
            run.getstatic("T", "lock").const(5_000).timed_wait()
            run.time().putstatic("T", "t1")
        run.ret()
        vm = make_vm()
        install(vm, lock_class("t0:int", "t1:int", methods=[run]))
        vm.spawn("T", "run", name="a")
        vm.run()
        assert out_of(vm, "t1") - out_of(vm, "t0") >= 5_000

    def test_timed_wait_notified_before_timeout(self):
        waiter = Asm("waiter", argc=0)
        waiter.getstatic("T", "lock")
        with waiter.sync():
            waiter.getstatic("T", "lock").const(1_000_000).timed_wait()
            waiter.time().putstatic("T", "woke_at")
        waiter.ret()

        notifier = Asm("notifier", argc=0)
        notifier.pause(2_000)
        notifier.getstatic("T", "lock")
        with notifier.sync():
            notifier.getstatic("T", "lock").notify()
        notifier.ret()

        vm = make_vm()
        install(vm, lock_class("woke_at:int", methods=[waiter, notifier]))
        vm.spawn("T", "waiter", name="w")
        vm.spawn("T", "notifier", name="n")
        vm.run()
        assert 0 < out_of(vm, "woke_at") < 1_000_000

    def test_wait_restores_recursion_count(self):
        """wait inside a recursively-held monitor reacquires all levels."""
        waiter = Asm("waiter", argc=0)
        waiter.getstatic("T", "lock")
        with waiter.sync():
            waiter.getstatic("T", "lock")
            with waiter.sync():
                waiter.getstatic("T", "lock").wait_()
                waiter.const(1).putstatic("T", "resumed")
        waiter.ret()

        notifier = Asm("notifier", argc=0)
        notifier.pause(2_000)
        notifier.getstatic("T", "lock")
        with notifier.sync():
            notifier.getstatic("T", "lock").notify()
        notifier.ret()

        vm = make_vm()
        install(vm, lock_class("resumed:int", methods=[waiter, notifier]))
        vm.spawn("T", "waiter", name="w")
        vm.spawn("T", "notifier", name="n")
        vm.run()
        assert out_of(vm, "resumed") == 1
        assert vm.get_static("T", "lock").monitor.owner is None


class TestSleepYield:
    def test_sleep_advances_virtual_time(self):
        run = Asm("run", argc=0)
        run.time().putstatic("T", "t0")
        run.const(10_000).sleep()
        run.time().putstatic("T", "t1")
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", ["t0:int", "t1:int"], [run]))
        vm.spawn("T", "run", name="a")
        vm.run()
        assert out_of(vm, "t1") - out_of(vm, "t0") >= 10_000

    def test_all_sleeping_advances_clock(self):
        """When every thread sleeps, the scheduler jumps virtual time."""
        run = Asm("run", argc=0)
        run.const(50_000).sleep()
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", [], [run]))
        vm.spawn("T", "run", name="a")
        vm.spawn("T", "run", name="b")
        vm.run()
        assert vm.clock.now >= 50_000

    def test_yield_rotates_threads(self):
        run = Asm("run", argc=1)
        i = run.local()
        run.for_range(i, lambda: run.const(3), lambda: (
            # append tid to order array
            run.getstatic("T", "order"),
            run.getstatic("T", "next"),
            run.tid(),
            run.astore(),
            run.getstatic("T", "next").const(1).add(),
            run.putstatic("T", "next"),
            run.yield_(),
        ))
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", ["order:ref", "next:int"], [run]))
        vm.set_static("T", "order", vm.new_array(6, -1))
        vm.spawn("T", "run", args=[0], name="a")
        vm.spawn("T", "run", args=[0], name="b")
        vm.run()
        order = vm.get_static("T", "order").snapshot()
        assert order == [0, 1, 0, 1, 0, 1]  # perfect alternation via yield

    def test_quantum_preemption_interleaves(self):
        """No yields, no sleeps: quantum expiry alone must interleave."""
        run = Asm("run", argc=0)
        i = run.local()
        run.for_range(i, lambda: run.const(5_000), lambda: (
            run.getstatic("T", "last"), run.pop(),
            run.tid(), run.putstatic("T", "last"),
        ))
        run.ret()
        vm = make_vm()
        vm.load(build_class("T", ["last:int"], [run]))
        vm.spawn("T", "run", name="a")
        vm.spawn("T", "run", name="b")
        vm.run()
        assert vm.scheduler.context_switches > 2
