"""Every monitor release goes through one interpreter path.

The interpreter releases monitors in five places: ``monitorexit``,
``wait``, a revoked thread returning a monitor it was handed but never
entered (``handoff_returned``), exception dispatch popping a frame that
still holds a section (``leaked_monitor``) and the rollback handler
(``rollback_release``).  Each scenario below reaches one of them on the
rollback VM with a support that records ``on_handoff``; every release the
trace reports must reach the support exactly once, naming the successor
the entry queue's policy picked.
"""

import pytest

from repro import Asm
from repro.core.revocation import RollbackSupport
from repro.vm import bytecode as bc

from conftest import build_class, make_vm

RELEASE_KINDS = (
    "release", "wait", "handoff_returned", "leaked_monitor",
    "rollback_release",
)


class RecordingSupport(RollbackSupport):
    """The rollback runtime, recording every ``on_handoff`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.handoffs: list[tuple[str, str, object]] = []

    def on_handoff(self, releaser, monitor, new_owner) -> None:
        self.handoffs.append((
            releaser.name, monitor.label,
            None if new_owner is None else new_owner.name,
        ))
        super().on_handoff(releaser, monitor, new_owner)


def recording_vm(fields, methods, **options):
    vm = make_vm("rollback", **options)
    support = RecordingSupport()
    support.attach(vm)
    vm.support = vm.interpreter.support = support
    vm.load(build_class("T", fields, methods))
    for spec in fields:
        name, kind = spec.split(":")
        if kind == "ref":  # each ref static is a fresh monitor object
            vm.set_static("T", name, vm.new_object("T"))
    return vm, support


def traced_releases(vm):
    """``(kind, releaser, monitor, successor)`` of every traced release."""
    return [
        (e.kind, e.thread, e.details["mon"], e.details["successor"])
        for e in vm.tracer.events if e.kind in RELEASE_KINDS
    ]


def assert_one_handoff_per_release(vm, support):
    releases = traced_releases(vm)
    assert [r[1:] for r in releases] == support.handoffs
    return releases


#: loop iterations that outlast one scheduling quantum
QUANTUM_SPIN = 2_000


def _spin(a, n):
    i = a.local()
    a.for_range(i, lambda: a.const(n), lambda: a.const(0).pop())


@pytest.mark.parametrize("handoff", [False, True])
def test_monitorexit_names_the_best_waiter(handoff):
    """The holder's exit picks the higher-priority waiter, although the
    lower one queued first; each exit reaches the support once."""
    run = Asm("run", argc=0)
    run.getstatic("T", "lock")
    with run.sync():
        _spin(run, QUANTUM_SPIN)  # the others run and queue meanwhile
    run.ret()
    vm, support = recording_vm(["lock:ref"], [run], direct_handoff=handoff)
    vm.spawn("T", "run", priority=5, name="holder")
    vm.spawn("T", "run", priority=2, name="low")
    vm.spawn("T", "run", priority=4, name="mid")
    vm.run()
    lock = vm.get_static("T", "lock").monitor.label
    assert assert_one_handoff_per_release(vm, support) == [
        ("release", "holder", lock, "mid"),
        ("release", "mid", lock, "low"),
        ("release", "low", lock, None),
    ]


@pytest.mark.parametrize("handoff", [False, True])
def test_wait_releases_every_level_at_once(handoff):
    """wait() inside a recursive hold hands the monitor to the queued
    notifier in one release; the waiter gets all levels back."""
    waiter = Asm("waiter", argc=0)
    waiter.getstatic("T", "lock")
    with waiter.sync():
        waiter.getstatic("T", "lock")
        with waiter.sync():
            _spin(waiter, QUANTUM_SPIN)  # the notifier queues meanwhile
            waiter.while_(
                lambda: waiter.getstatic("T", "flag").not_(),
                lambda: waiter.getstatic("T", "lock").wait_(),
            )
    waiter.ret()
    notifier = Asm("notifier", argc=0)
    notifier.getstatic("T", "lock")
    with notifier.sync():
        notifier.const(1).putstatic("T", "flag")
        notifier.getstatic("T", "lock").notify()
    notifier.ret()
    vm, support = recording_vm(
        ["lock:ref", "flag:int"], [waiter, notifier], direct_handoff=handoff,
    )
    vm.spawn("T", "waiter", name="w")
    vm.spawn("T", "notifier", name="n")
    vm.run()
    lock = vm.get_static("T", "lock").monitor
    assert assert_one_handoff_per_release(vm, support) == [
        ("wait", "w", lock.label, "n"),
        ("release", "n", lock.label, "w"),
        ("release", "w", lock.label, None),  # inner level: still held
        ("release", "w", lock.label, None),
    ]
    assert lock.owner is None and not lock.entry_queue and not lock.wait_set


def test_rollback_release_hands_to_the_requester():
    """A high-priority arrival revokes the low holder; the rollback
    handler's release hands the monitor to it."""
    low = Asm("low", argc=0)
    low.getstatic("T", "lock")
    with low.sync():
        _spin(low, QUANTUM_SPIN)
    low.ret()
    high = Asm("high", argc=0)
    high.const(200).sleep()
    high.getstatic("T", "lock")
    with high.sync():
        high.const(1).putstatic("T", "flag")
    high.ret()
    vm, support = recording_vm(["lock:ref", "flag:int"], [low, high])
    vm.spawn("T", "high", priority=10, name="high")
    vm.spawn("T", "low", priority=1, name="low")
    vm.run()
    lock = vm.get_static("T", "lock").monitor.label
    releases = assert_one_handoff_per_release(vm, support)
    assert releases[0] == ("rollback_release", "low", lock, "high")
    assert vm.metrics()["support"]["revocations_completed"] == 1


def test_handoff_returned_by_a_revoked_grantee():
    """``low`` holds ``lock`` and is handed ``other`` by direct handoff;
    ``high`` then revokes ``low``'s section before it runs again, so
    ``low`` returns the never-entered grant, then rolls back ``lock``.

    (A deadlock victim cannot carry such a grant: it is revoked while
    blocked, and the revocation wake takes it off the entry queue.)
    """
    low = Asm("low", argc=0)
    low.getstatic("T", "lock")
    with low.sync():
        low.getstatic("T", "other")
        with low.sync():
            low.const(0).pop()
    low.ret()
    mid = Asm("mid", argc=0)
    mid.getstatic("T", "other")
    with mid.sync():
        mid.const(1_000).sleep()  # low enters lock and queues on other
    _spin(mid, 3_000)  # outranks low, runs until high wakes
    mid.ret()
    high = Asm("high", argc=0)
    high.const(3_000).sleep()
    high.getstatic("T", "lock")
    with high.sync():
        high.const(1).putstatic("T", "flag")
    high.ret()
    vm, support = recording_vm(
        ["lock:ref", "other:ref", "flag:int"], [low, mid, high],
        direct_handoff=True, scheduler="priority",
    )
    vm.spawn("T", "low", priority=1, name="low")
    vm.spawn("T", "mid", priority=3, name="mid")
    vm.spawn("T", "high", priority=10, name="high")
    vm.run()
    lock = vm.get_static("T", "lock").monitor.label
    other = vm.get_static("T", "other").monitor.label
    releases = assert_one_handoff_per_release(vm, support)
    assert releases[:3] == [
        ("release", "mid", other, "low"),
        ("handoff_returned", "low", other, None),
        ("rollback_release", "low", lock, "high"),
    ]
    assert vm.get_static("T", "flag") == 1


def test_leaked_monitor_is_released_to_the_waiter():
    """Hand-assembled bytecode enters a monitor and throws with no
    catch-all; dispatch abandons the section, force-releases the monitor
    to the queued thread and tells the support, like every release."""
    leaker = Asm("leaker", argc=0)
    leaker.getstatic("T", "lock")
    leaker.emit(bc.MONITORENTER, "leak")
    _spin(leaker, QUANTUM_SPIN)  # the waiter queues meanwhile
    leaker.throw_new("RuntimeException")
    leaker.getstatic("T", "lock")
    leaker.emit(bc.MONITOREXIT, "leak")  # unreachable; the scope needs it
    leaker.ret()
    waiter = Asm("waiter", argc=0)
    waiter.getstatic("T", "lock")
    with waiter.sync():
        waiter.const(1).putstatic("T", "flag")
    waiter.ret()
    vm, support = recording_vm(
        ["lock:ref", "flag:int"], [leaker, waiter], raise_on_uncaught=False,
    )
    vm.spawn("T", "leaker", name="leaker")
    vm.spawn("T", "waiter", name="waiter")
    vm.run()
    lock = vm.get_static("T", "lock").monitor
    kinds = [e.kind for e in vm.tracer.events]
    assert kinds.index("section_abandoned") < kinds.index("leaked_monitor")
    assert assert_one_handoff_per_release(vm, support) == [
        ("leaked_monitor", "leaker", lock.label, "waiter"),
        ("release", "waiter", lock.label, None),
    ]
    assert vm.metrics()["support"]["sections_abandoned"] == 1
    assert vm.get_static("T", "flag") == 1
    assert lock.owner is None and not lock.entry_queue
