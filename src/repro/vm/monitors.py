"""Monitors: mutual exclusion, prioritized entry queues, wait sets.

Every guest object can act as a monitor (inflated lazily).  The monitor
header holds the fields the paper's detection algorithm reads (§4):

* ``owner`` and ``count`` — recursive ownership.  The paper has the
  acquiring thread "deposit its priority in the header of the monitor
  object"; here detection reads the owner's current
  ``effective_priority`` instead, the one value that deposit stands for,
  so a priority donation needs no re-deposit;
* the **prioritized entry queue** — "when a thread releases a monitor,
  another thread is scheduled from the queue.  If it is a high-priority
  thread, it is allowed to acquire the monitor.  If it is a low-priority
  thread, it is allowed to run only if there are no other waiting
  high-priority threads."

Release policy is chosen *by the caller* per release (the VM passes its
options), keeping the monitor itself policy-free:

``handoff=False`` (the default VM behaviour, faithful to the paper's
platform): release frees the monitor and *wakes* the preferred waiter,
which must still be scheduled before it can re-attempt acquisition — so a
runnable thread that reaches ``monitorenter`` first can **barge** in.  On
Jikes RVM this is exactly why a high-priority thread could wait through
many low-priority sections and why revocation pays off so visibly.

``handoff=True`` (ablation): ownership transfers directly to the chosen
waiter before it runs, eliminating barging and strengthening the blocking
baseline (see the ``abl-handoff`` benchmark).

``prioritized`` selects the waiter: highest effective priority, FIFO
within a level (paper §4); plain FIFO when disabled (ablation).

The entry queue and the wait set are insertion-ordered maps from thread
to recursion count (the count restored on acquire, or saved by
``wait``); insertion order is arrival order, so the first maximal key is
the longest-waiting thread of the best level.  A thread that acquires
the monitor leaves its entry queue, restoring its queued count.  The
interpreter releases every monitor through one method
(``Interpreter._release_monitor``), which routes the successor and tells
the runtime support.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.errors import GuestRuntimeError

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.heap import VMArray, VMObject
    from repro.vm.threads import VMThread

_priority = attrgetter("effective_priority")


class Monitor:
    """Inflated monitor state for one guest object."""

    __slots__ = (
        "obj",
        "label",
        "owner",
        "count",
        "entry_queue",
        "wait_set",
        "ceiling",
        "first_section",
    )

    def __init__(self, obj: "VMObject | VMArray"):
        self.obj = obj
        #: the trace label, ``repr(obj)``; oid, class and array length
        #: never change, so it is formatted once, at inflation
        self.label = repr(obj)
        self.owner: "VMThread | None" = None
        self.count = 0
        #: waiting to *enter*: thread -> count it restores on acquire,
        #: in arrival order
        self.entry_queue: dict["VMThread", int] = {}
        #: called wait(): thread -> saved recursion count, in arrival order
        self.wait_set: dict["VMThread", int] = {}
        self.ceiling: Optional[int] = None
        #: section record of the owner's outermost acquisition (set by the
        #: rollback runtime; None on the unmodified VM)
        self.first_section = None

    # ------------------------------------------------------------ acquisition
    def try_acquire(self, thread: "VMThread") -> bool:
        """Uncontended or recursive acquisition; False when owned by another."""
        if self.owner is None:
            # a woken waiter that wins the retry race leaves the queue
            # and restores the count it queued with
            self.owner = thread
            self.count = self.entry_queue.pop(thread, 1)
            thread.held_monitors.append(self)
            return True
        if self.owner is thread:
            self.count += 1
            return True
        return False

    def enqueue(self, thread: "VMThread", count_on_acquire: int = 1) -> None:
        """Park ``thread`` on the entry queue (it must then block)."""
        if thread in self.entry_queue:
            raise GuestRuntimeError(
                f"thread {thread.name!r} already queued on {self.obj!r}"
            )
        self.entry_queue[thread] = count_on_acquire

    def remove_from_queue(self, thread: "VMThread") -> None:
        self.entry_queue.pop(thread, None)

    def release(
        self,
        thread: "VMThread",
        *,
        prioritized: bool = True,
        handoff: bool = True,
    ) -> Optional["VMThread"]:
        """One level of release.

        On a full release with waiters queued, returns the preferred
        waiter.  With ``handoff`` it already owns the monitor (caller makes
        it runnable); without, the monitor is free and the waiter was
        merely *selected* — it stays queued, and the caller wakes it to
        retry (arriving threads may barge first).
        """
        if self.owner is not thread:
            raise GuestRuntimeError(
                f"thread {thread.name!r} released monitor {self.obj!r} "
                f"owned by "
                f"{self.owner.name if self.owner else 'nobody'!r}",
                guest_class="IllegalMonitorStateException",
            )
        self.count -= 1
        if self.count > 0:
            return None
        thread.held_monitors.remove(self)
        self.first_section = None
        self.owner = None
        queue = self.entry_queue
        if not queue:
            return None
        if prioritized:
            # max keeps the first maximal waiter: FIFO within a level
            waiter = max(queue, key=_priority)
        else:
            waiter = next(iter(queue))
        if handoff:
            self.owner = waiter
            self.count = queue.pop(waiter)
            waiter.held_monitors.append(self)
        return waiter

    # -------------------------------------------------------------- wait set
    def add_waiter(self, thread: "VMThread", saved_count: int) -> None:
        self.wait_set[thread] = saved_count

    def remove_waiter(self, thread: "VMThread") -> Optional[int]:
        """Remove from the wait set, returning the saved recursion count."""
        return self.wait_set.pop(thread, None)

    def notify_one(self) -> Optional[tuple["VMThread", int]]:
        """Move the longest-waiting thread from the wait set toward the
        entry queue.  Returns (thread, saved_count) or None."""
        if not self.wait_set:
            return None
        thread = next(iter(self.wait_set))
        return thread, self.wait_set.pop(thread)

    def notify_all(self) -> list[tuple["VMThread", int]]:
        moved = list(self.wait_set.items())
        self.wait_set.clear()
        return moved

    # ------------------------------------------------------------- inspection
    def is_locked(self) -> bool:
        return self.owner is not None

    def highest_queued_priority(self) -> int:
        return max(map(_priority, self.entry_queue), default=-1)

    def __repr__(self) -> str:
        owner = self.owner.name if self.owner else None
        return (
            f"Monitor({self.obj!r}, owner={owner!r}, count={self.count}, "
            f"queued={len(self.entry_queue)}, waiting={len(self.wait_set)})"
        )


def monitor_of(obj) -> Monitor:
    """Return the object's monitor, inflating it on first use."""
    mon = obj.monitor
    if mon is None:
        mon = Monitor(obj)
        obj.monitor = mon
    return mon
