"""Unit tests for monitors: ownership, recursion, prioritized queues,
direct handoff, wait sets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GuestRuntimeError
from repro.vm.classfile import ClassDef
from repro.vm.classfile import MethodDef
from repro.vm.bytecode import Instruction, RETURN
from repro.vm.heap import VMObject
from repro.vm.monitors import Monitor, monitor_of
from repro.vm.threads import VMThread


def make_thread(tid, priority=5, name=None):
    m = MethodDef(name="run", code=[Instruction(RETURN, 0)])
    m.class_name = "T"
    return VMThread(tid, name or f"t{tid}", m, [], priority=priority)


@pytest.fixture
def obj():
    return VMObject(1, ClassDef("C"))


@pytest.fixture
def mon(obj):
    return Monitor(obj)


class TestInflation:
    def test_lazy_inflation(self, obj):
        assert obj.monitor is None
        m = monitor_of(obj)
        assert obj.monitor is m
        assert monitor_of(obj) is m

    def test_release_policy_is_per_call(self, mon):
        """Monitors carry no queue policy; the caller passes it at release
        (the VM forwards its options)."""
        holder, low, high = make_thread(0), make_thread(1, priority=1), \
            make_thread(2, priority=10)
        mon.try_acquire(holder)
        mon.enqueue(low)
        mon.enqueue(high)
        woken = mon.release(holder, prioritized=True, handoff=False)
        assert woken is high          # selected, not yet owner
        assert mon.owner is None      # monitor left free: barging possible
        assert high in mon.entry_queue


class TestAcquisition:
    def test_uncontended(self, mon):
        t = make_thread(1)
        assert mon.try_acquire(t)
        assert mon.owner is t and mon.count == 1
        assert mon in t.held_monitors

    def test_recursive(self, mon):
        t = make_thread(1)
        assert mon.try_acquire(t)
        assert mon.try_acquire(t)
        assert mon.count == 2
        assert t.held_monitors.count(mon) == 1

    def test_contended_fails(self, mon):
        a, b = make_thread(1), make_thread(2)
        assert mon.try_acquire(a)
        assert not mon.try_acquire(b)

    def test_woken_waiter_leaves_queue_with_its_count(self, mon):
        """A waiter that wins the retry race (no-handoff wake) leaves the
        entry queue and restores the count it queued with."""
        a, b = make_thread(1), make_thread(2)
        mon.try_acquire(a)
        mon.enqueue(b, count_on_acquire=3)
        assert mon.release(a, handoff=False) is b
        assert b in mon.entry_queue and mon.owner is None
        assert mon.try_acquire(b)
        assert mon.owner is b and mon.count == 3
        assert b not in mon.entry_queue

    def test_double_enqueue_rejected(self, mon):
        a, b = make_thread(1), make_thread(2)
        mon.try_acquire(a)
        mon.enqueue(b)
        with pytest.raises(GuestRuntimeError):
            mon.enqueue(b)


class TestRelease:
    def test_release_to_free(self, mon):
        t = make_thread(1)
        mon.try_acquire(t)
        assert mon.release(t) is None
        assert mon.owner is None
        assert mon not in t.held_monitors

    def test_recursive_release_keeps_ownership(self, mon):
        t = make_thread(1)
        mon.try_acquire(t)
        mon.try_acquire(t)
        assert mon.release(t) is None
        assert mon.owner is t and mon.count == 1

    def test_release_by_non_owner_raises(self, mon):
        a, b = make_thread(1), make_thread(2)
        mon.try_acquire(a)
        with pytest.raises(GuestRuntimeError) as exc_info:
            mon.release(b)
        assert exc_info.value.guest_class == "IllegalMonitorStateException"

    def test_direct_handoff(self, mon):
        a, b = make_thread(1), make_thread(2)
        mon.try_acquire(a)
        mon.enqueue(b)
        handed = mon.release(a)
        assert handed is b
        assert mon.owner is b and mon.count == 1
        assert mon in b.held_monitors


class TestPrioritizedQueue:
    def test_highest_priority_wins(self, mon):
        """Paper §4: a low-priority waiter runs only if no high-priority
        thread is waiting."""
        holder = make_thread(0)
        low = make_thread(1, priority=1)
        high = make_thread(2, priority=10)
        mon.try_acquire(holder)
        mon.enqueue(low)   # low arrived FIRST
        mon.enqueue(high)
        assert mon.release(holder) is high

    def test_fifo_within_priority_level(self, mon):
        holder = make_thread(0)
        first = make_thread(1, priority=5)
        second = make_thread(2, priority=5)
        mon.try_acquire(holder)
        mon.enqueue(first)
        mon.enqueue(second)
        assert mon.release(holder) is first

    def test_fifo_within_priority_level_across_levels(self, mon):
        """The map's arrival order breaks ties at every level, and a thread
        that leaves and re-enters the queue goes to the back."""
        holder = make_thread(0)
        mon.try_acquire(holder)
        low, mid1, high1, mid2, high2 = (
            make_thread(1, priority=1), make_thread(2, priority=5),
            make_thread(3, priority=9), make_thread(4, priority=5),
            make_thread(5, priority=9),
        )
        for t in (low, mid1, high1, mid2, high2):
            mon.enqueue(t)
        mon.remove_from_queue(high1)
        mon.enqueue(high1)  # now behind high2
        order = []
        current = holder
        while (current := mon.release(current)) is not None:
            order.append(current)
        assert order == [high2, high1, mid1, mid2, low]

    def test_unprioritized_is_plain_fifo(self, obj):
        mon = Monitor(obj)
        holder = make_thread(0)
        low = make_thread(1, priority=1)
        high = make_thread(2, priority=10)
        mon.try_acquire(holder)
        mon.enqueue(low)
        mon.enqueue(high)
        assert mon.release(holder, prioritized=False) is low

    def test_effective_priority_checked_at_release_time(self, mon):
        """Inheritance/ceiling boosts applied while queued must count."""
        holder = make_thread(0)
        a = make_thread(1, priority=2)
        b = make_thread(2, priority=3)
        mon.try_acquire(holder)
        mon.enqueue(a)
        mon.enqueue(b)
        a.inherited_priority = 9  # boosted while waiting
        assert mon.release(holder) is a

    def test_highest_queued_priority(self, mon):
        holder = make_thread(0)
        mon.try_acquire(holder)
        assert mon.highest_queued_priority() == -1
        mon.enqueue(make_thread(1, priority=4))
        mon.enqueue(make_thread(2, priority=8))
        assert mon.highest_queued_priority() == 8

    def test_remove_from_queue(self, mon):
        holder, w = make_thread(0), make_thread(1)
        mon.try_acquire(holder)
        mon.enqueue(w)
        mon.remove_from_queue(w)
        assert mon.release(holder) is None


class TestWaitSets:
    def test_notify_fifo(self, mon):
        a, b = make_thread(1), make_thread(2)
        mon.add_waiter(a, 1)
        mon.add_waiter(b, 2)
        thread, saved = mon.notify_one()
        assert thread is a and saved == 1

    def test_notify_empty(self, mon):
        assert mon.notify_one() is None

    def test_notify_all_drains(self, mon):
        mon.add_waiter(make_thread(1), 1)
        mon.add_waiter(make_thread(2), 1)
        assert len(mon.notify_all()) == 2
        assert mon.notify_all() == []

    def test_remove_waiter_returns_saved_count(self, mon):
        t = make_thread(1)
        mon.add_waiter(t, 3)
        assert mon.remove_waiter(t) == 3
        assert mon.remove_waiter(t) is None

    def test_handoff_restores_wait_count(self, mon):
        """A thread that waited with recursion 3 reacquires at count 3."""
        t, w = make_thread(1), make_thread(2)
        mon.try_acquire(w)
        mon.enqueue(t, count_on_acquire=3)
        assert mon.release(w) is t
        assert mon.count == 3


# ------------------------------------------ queue policy vs the list scan
class _ListQueue:
    """The entry queue as a list of ``(thread, count)`` scanned in full
    (the representation the monitor used before its ordered map), kept
    as the oracle for the map's waiter choice."""

    def __init__(self):
        self.items = []

    def enqueue(self, thread, count):
        self.items.append((thread, count))

    def remove(self, thread):
        self.items = [(t, c) for t, c in self.items if t is not thread]

    def best_index(self, prioritized):
        if not self.items:
            return None
        if not prioritized:
            return 0
        best_i = 0
        best_p = self.items[0][0].effective_priority
        for i in range(1, len(self.items)):
            p = self.items[i][0].effective_priority
            if p > best_p:
                best_i, best_p = i, p
        return best_i

    def highest(self):
        if not self.items:
            return -1
        return max(t.effective_priority for t, _ in self.items)


settings.register_profile(
    "monitor-queue", derandomize=True, max_examples=200, deadline=None,
)

_QUEUE_THREADS = 8
_enqueue = st.tuples(st.just("enqueue"), st.integers(0, _QUEUE_THREADS - 1),
                     st.integers(1, 3))
_queue_ops = st.lists(
    st.one_of(
        # enqueues drawn four times as often, so queues grow long
        _enqueue, _enqueue, _enqueue, _enqueue,
        st.tuples(st.just("remove"), st.integers(0, _QUEUE_THREADS - 1)),
        st.tuples(st.just("boost"), st.integers(0, _QUEUE_THREADS - 1),
                  st.sampled_from((-1, 2, 6, 9))),
        st.tuples(st.just("release"), st.booleans(), st.booleans()),
    ),
    min_size=8, max_size=40,
)


@settings(settings.get_profile("monitor-queue"))
@given(st.lists(st.integers(1, 4), min_size=_QUEUE_THREADS,
                max_size=_QUEUE_THREADS), _queue_ops)
def test_queue_policy_matches_list_scan(priorities, ops):
    """Any sequence of enqueues, removals, priority changes and releases
    picks the same successor, with the same restored count, as the list
    scan; the queue keeps the oracle's arrival order throughout."""
    mon = Monitor(VMObject(1, ClassDef("C")))
    threads = [make_thread(i, priority=p) for i, p in enumerate(priorities)]
    holder = make_thread(99)
    mon.try_acquire(holder)
    oracle = _ListQueue()
    for op in ops:
        if op[0] == "enqueue":
            t = threads[op[1]]
            if t in mon.entry_queue or t is mon.owner:
                continue
            mon.enqueue(t, op[2])
            oracle.enqueue(t, op[2])
        elif op[0] == "remove":
            mon.remove_from_queue(threads[op[1]])
            oracle.remove(threads[op[1]])
        elif op[0] == "boost":
            threads[op[1]].inherited_priority = op[2]
        else:
            prioritized, handoff = op[1], op[2]
            owner = mon.owner
            if owner is None:
                # a woken waiter (or a bystander) takes the free monitor
                i = oracle.best_index(prioritized)
                taker = holder if i is None else oracle.items[i][0]
                count = 1 if i is None else oracle.items[i][1]
                assert mon.try_acquire(taker) and mon.count == count
                oracle.remove(taker)
                continue
            mon.count = 1
            index = oracle.best_index(prioritized)
            chosen = mon.release(
                owner, prioritized=prioritized, handoff=handoff
            )
            if index is None:
                assert chosen is None and mon.owner is None
                continue
            expected, count = oracle.items[index]
            assert chosen is expected
            if handoff:
                assert mon.owner is expected and mon.count == count
                oracle.remove(expected)
            else:
                assert mon.owner is None
        assert list(mon.entry_queue.items()) == oracle.items
        assert mon.highest_queued_priority() == oracle.highest()
