"""Java-memory-model consistency tracking (paper §2.1–2.2).

The JMM's happens-before visibility rule means a thread T' may legally
observe a value written by thread T *inside a still-active synchronized
section* (Figure 2: through a nested monitor that already exited; Figure 3:
through a volatile variable).  Revoking that section afterwards would make
the observed value appear "out of thin air".  The paper's resolution:

    "disable the revocability of monitors whose rollback could create
    inconsistencies with respect to the JMM ... We mark a monitor M
    non-revocable when a read-write dependency is created between a write
    performed within M and a read performed by another thread."

with the footnote that the write "may additionally be guarded by other
monitors nested within M" — i.e. every section enclosing the write loses
revocability, because rolling back any of them undoes the observed write.

:class:`JmmTracker` implements exactly that: every *logged* (speculative)
write pushes the tuple of sections active at the write onto a per-location,
per-thread stack; a read by a different thread returns the sections of the
latest speculative write so the runtime can mark them; undo pops, commit
clears.  Volatile variables need no special path — they are locations like
any other, and the read barrier fires on volatile reads too, reproducing
the Figure 3 rule as a special case of the general one.

The tracker also keeps ``live``: tid -> number of live speculative records,
with the invariant that ``live[tid]`` equals the total stack length of
``tid`` across all locations (a tid with no records has no key).  Two O(1)
fast paths rest on it, both exact:

* a read can return a non-empty tuple only when some thread *other than
  the reader* holds a record, i.e. when ``len(live) > (tid in live)``;
* when the committing thread is the only live writer and ``live[tid]``
  equals its undo-log length, :meth:`clear` leaves the same (empty) map as
  committing every logged location.  A thread's records at a location are
  never fewer than its log entries there, so equal totals mean equal
  per-location counts.

The caveat is the seeded ``undo-drop`` defect
(:meth:`repro.faults.plane.FaultPlane.drop_undo`): it deletes a log entry
but not its record, so ``live[tid]`` exceeds the log length, the commit
takes the per-location path, and the stale record survives it exactly as
it would without the fast path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.sections import Section
    from repro.vm.threads import VMThread


class JmmTracker:
    """Tracks which heap locations hold speculative (uncommitted) values."""

    __slots__ = ("_map", "live")

    def __init__(self) -> None:
        #: location -> tid -> stack of section tuples (one per logged write)
        self._map: dict[tuple, dict[int, list[tuple["Section", ...]]]] = {}
        #: tid -> live records across ``_map``; only ever mutated in place,
        #: because generated read barriers hold a reference to it
        self.live: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._map)

    def on_write(
        self,
        thread: "VMThread",
        loc: tuple,
        active_sections: tuple["Section", ...],
    ) -> None:
        """A speculative write by ``thread`` to ``loc`` was logged."""
        tid = thread.tid
        per_tid = self._map.get(loc)
        if per_tid is None:
            self._map[loc] = {tid: [active_sections]}
        else:
            stack = per_tid.get(tid)
            if stack is None:
                per_tid[tid] = [active_sections]
            else:
                stack.append(active_sections)
        live = self.live
        live[tid] = live.get(tid, 0) + 1

    def on_undo(self, thread: "VMThread", loc: tuple) -> None:
        """The latest speculative write by ``thread`` to ``loc`` was undone."""
        per_tid = self._map.get(loc)
        if per_tid is None:
            return
        tid = thread.tid
        stack = per_tid.get(tid)
        if not stack:
            return
        stack.pop()
        if not stack:
            del per_tid[tid]
            if not per_tid:
                del self._map[loc]
        self._release(tid, 1)

    def on_commit(self, thread: "VMThread", locs: Iterable[tuple]) -> None:
        """``thread`` exited its outermost section; its writes are final."""
        tid = thread.tid
        released = 0
        for loc in locs:
            per_tid = self._map.get(loc)
            if per_tid is None:
                continue
            stack = per_tid.pop(tid, None)
            if stack is not None:
                released += len(stack)
                if not per_tid:
                    del self._map[loc]
        if released:
            self._release(tid, released)

    def commit_all(self, thread: "VMThread", log_len: int) -> bool:
        """O(1) outermost commit: when ``thread`` is the only live writer
        and its record count equals ``log_len`` (its undo-log length),
        committing every logged location empties the tracker, so clear it
        and return True.  Otherwise return False and leave the tracker
        untouched for the per-location :meth:`on_commit`."""
        live = self.live
        held = live.get(thread.tid, 0)
        if len(live) != (held > 0) or held != log_len:
            return False
        self.clear()
        return True

    def _release(self, tid: int, n: int) -> None:
        live = self.live
        left = live[tid] - n
        if left:
            live[tid] = left
        else:
            del live[tid]

    def on_read(
        self, thread: "VMThread", loc: tuple
    ) -> tuple["Section", ...]:
        """``thread`` read ``loc``.  Returns the sections that must become
        non-revocable: the enclosing sections of the latest speculative
        write by any *other* thread (empty tuple when none)."""
        per_tid = self._map.get(loc)
        if per_tid is None:
            return ()
        tid = thread.tid
        result: tuple["Section", ...] = ()
        for writer_tid, stack in per_tid.items():
            if writer_tid != tid and stack:
                result += stack[-1]
        return result

    def speculative_writers(self, loc: tuple) -> list[int]:
        """Thread ids with live speculative writes to ``loc`` (testing)."""
        per_tid = self._map.get(loc)
        return sorted(per_tid) if per_tid else []

    def clear(self) -> None:
        self._map.clear()
        self.live.clear()
