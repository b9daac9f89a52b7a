"""Monitors: mutual exclusion, prioritized entry queues, wait sets.

Every guest object can act as a monitor (inflated lazily).  The monitor
header holds the fields the paper's detection algorithm reads (§4):

* ``owner`` and ``count`` — recursive ownership;
* ``deposited_priority`` — "a thread acquiring a monitor deposits its
  priority in the header of the monitor object";
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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import GuestRuntimeError

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.heap import VMArray, VMObject
    from repro.vm.threads import VMThread


class Monitor:
    """Inflated monitor state for one guest object."""

    __slots__ = (
        "obj",
        "label",
        "owner",
        "count",
        "deposited_priority",
        "entry_queue",
        "wait_set",
        "ceiling",
        "first_section",
        "acquisitions",
        "contended_acquisitions",
        "handoffs",
        "wakeups",
    )

    def __init__(self, obj: "VMObject | VMArray"):
        self.obj = obj
        #: the trace label, ``repr(obj)``; oid, class and array length
        #: never change, so it is formatted once, at inflation
        self.label = repr(obj)
        self.owner: "VMThread | None" = None
        self.count = 0
        self.deposited_priority: int = -1
        #: waiting to *enter*: list of (thread, count_on_acquire)
        self.entry_queue: list[tuple["VMThread", int]] = []
        #: called wait(): list of (thread, saved_count)
        self.wait_set: list[tuple["VMThread", int]] = []
        self.ceiling: Optional[int] = None
        #: section record of the owner's outermost acquisition (set by the
        #: rollback runtime; None on the unmodified VM)
        self.first_section = None
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.handoffs = 0
        self.wakeups = 0

    # ------------------------------------------------------------ acquisition
    def try_acquire(self, thread: "VMThread") -> bool:
        """Uncontended or recursive acquisition; False when owned by another."""
        if self.owner is None:
            self.owner = thread
            self.count = 1
            self.deposited_priority = thread.effective_priority
            self.acquisitions += 1
            thread.held_monitors.append(self)
            return True
        if self.owner is thread:
            self.count += 1
            self.acquisitions += 1
            return True
        return False

    def enqueue(self, thread: "VMThread", count_on_acquire: int = 1) -> None:
        """Park ``thread`` on the entry queue (it must then block)."""
        if any(t is thread for t, _ in self.entry_queue):
            raise GuestRuntimeError(
                f"thread {thread.name!r} already queued on {self.obj!r}"
            )
        self.entry_queue.append((thread, count_on_acquire))
        self.contended_acquisitions += 1

    def remove_from_queue(self, thread: "VMThread") -> None:
        self.entry_queue = [
            (t, c) for t, c in self.entry_queue if t is not thread
        ]

    def is_queued(self, thread: "VMThread") -> bool:
        return any(t is thread for t, _ in self.entry_queue)

    def queued_count(self, thread: "VMThread") -> Optional[int]:
        """The recursion count this queued thread will restore on acquire."""
        for t, c in self.entry_queue:
            if t is thread:
                return c
        return None

    def _best_index(self, prioritized: bool) -> Optional[int]:
        if not self.entry_queue:
            return None
        if not prioritized:
            return 0
        best_i = 0
        best_p = self.entry_queue[0][0].effective_priority
        for i in range(1, len(self.entry_queue)):
            p = self.entry_queue[i][0].effective_priority
            if p > best_p:
                best_i, best_p = i, p
        return best_i

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
        self.deposited_priority = -1
        index = self._best_index(prioritized)
        if index is None:
            return None
        if handoff:
            waiter, count = self.entry_queue.pop(index)
            self.owner = waiter
            self.count = count
            self.deposited_priority = waiter.effective_priority
            self.acquisitions += 1
            self.handoffs += 1
            waiter.held_monitors.append(self)
            return waiter
        self.wakeups += 1
        return self.entry_queue[index][0]

    def wait_release(
        self,
        thread: "VMThread",
        *,
        prioritized: bool = True,
        handoff: bool = True,
    ) -> tuple[int, Optional["VMThread"]]:
        """Fully release for ``wait``: drops all recursion levels at once.

        Returns ``(saved_count, successor)``; the caller records
        ``saved_count`` in the wait set so reacquisition restores it.
        """
        if self.owner is not thread:
            raise GuestRuntimeError(
                f"wait/notify on monitor {self.obj!r} not owned by "
                f"{thread.name!r}",
                guest_class="IllegalMonitorStateException",
            )
        saved = self.count
        self.count = 1
        successor = self.release(
            thread, prioritized=prioritized, handoff=handoff
        )
        return saved, successor

    # -------------------------------------------------------------- wait set
    def add_waiter(self, thread: "VMThread", saved_count: int) -> None:
        self.wait_set.append((thread, saved_count))

    def remove_waiter(self, thread: "VMThread") -> Optional[int]:
        """Remove from the wait set, returning the saved recursion count."""
        for i, (t, c) in enumerate(self.wait_set):
            if t is thread:
                del self.wait_set[i]
                return c
        return None

    def notify_one(self) -> Optional[tuple["VMThread", int]]:
        """Move the longest-waiting thread from the wait set toward the
        entry queue.  Returns (thread, saved_count) or None."""
        if not self.wait_set:
            return None
        return self.wait_set.pop(0)

    def notify_all(self) -> list[tuple["VMThread", int]]:
        moved, self.wait_set = self.wait_set, []
        return moved

    def refresh_deposited(self) -> None:
        """Re-deposit the owner's *current* effective priority.

        Priority donations change the owner's effective priority after the
        deposit made at acquisition time; detection compares against the
        deposited value, so a stale deposit would keep reporting an
        inversion that inheritance already cured.
        """
        if self.owner is not None:
            self.deposited_priority = self.owner.effective_priority

    # ------------------------------------------------------------- inspection
    def is_locked(self) -> bool:
        return self.owner is not None

    def waiters(self) -> list["VMThread"]:
        return [t for t, _ in self.entry_queue]

    def highest_queued_priority(self) -> int:
        if not self.entry_queue:
            return -1
        return max(t.effective_priority for t, _ in self.entry_queue)

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
