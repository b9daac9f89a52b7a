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

:class:`JmmTracker` implements exactly that.  Every *logged* (speculative)
write already has one record: its entry in the writer's undo log (§3.1.2),
so the dependency record of a write is just its log position.  Per writer
thread the tracker keeps one ``(start position, active sections, sequence
number)`` run per barrier call — a thread's active-section tuple cannot
change inside one call, because monitor ops are never fused — and nothing
per entry.  A read by a different thread looks up the writer's latest log
entry at the location and returns the section tuple of the run holding it,
so the runtime can mark those sections; rollback cuts the runs back with
the log, and an outermost commit drops them.  Volatile variables need no
special path — they are locations like any other, and the read barrier
fires on volatile reads too, reproducing the Figure 3 rule as a special
case of the general one.

The lookup goes through a per-writer index from ``(container, slot)`` (the
object or array itself, or the ``(class, field)`` key of a static) to the
writer's last log position there.  It is built lazily on the first read
that needs it, extended from its last indexed position on later reads, and
dropped when a rollback cuts below it — so a write pays nothing for it.
When several writers hold records at one location, their section tuples
are reported in the order of each writer's oldest live record there (the
global sequence number orders the runs).  The index is derived state: it
is left out of VM checkpoints and rebuilt on the first read after a
restore.

The tracker also keeps ``live``: tid -> number of live speculative records
(a tid with no records has no key).  A read can return a non-empty tuple
only when some thread *other than the reader* holds a record, i.e. when
``len(live) > (tid in live)``; generated read barriers hold this dict and
evaluate that guard inline, so it is only ever mutated in place.

The one record that is not a log entry comes from the seeded ``undo-drop``
defect (:meth:`repro.faults.plane.FaultPlane.drop_undo`): it deletes a log
entry but not its record, so the record outlives the rollback as a *stale*
record, which ``live`` counts.  The writer's ``stale`` map (written only by
:meth:`JmmTracker.on_drop`, and consulted only while non-empty) keeps, per
location, the frozen bottom of that location's record stack plus the log
position above which the stack continues with log entries.  It reproduces
a per-location LIFO stack of records exactly: a later write stacks above
the stale record, a rollback pops one record per restored entry from the
top, and only an outermost commit whose log touches the location clears
it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.sections import Section
    from repro.vm.threads import VMThread

#: undo entry ``(container, slot, old)`` -> its location key
_KEY = itemgetter(0, 1)
_START = itemgetter(0)


class _Writer:
    """One thread's speculative writes, as positions in its undo log."""

    __slots__ = ("entries", "runs", "index", "indexed", "stale", "nstale")

    def __init__(self, entries: list) -> None:
        #: the thread's ``UndoLog.entries`` (the same list object)
        self.entries = entries
        #: one ``(start position, active sections, seq)`` per barrier call
        self.runs: list[tuple] = []
        #: location key -> last log position below ``indexed``
        self.index: dict = {}
        self.indexed = 0
        #: location key -> ``[frozen, anchor]``: the location's record
        #: stack is ``frozen`` (``(sections, seq)`` records, bottom first)
        #: plus the records of its log entries at positions >= ``anchor``;
        #: None until an undo entry is dropped
        self.stale: dict | None = None
        #: stale records across ``stale`` (``live`` counts them)
        self.nstale = 0

    def __getstate__(self):
        return self.entries, self.runs, self.stale, self.nstale

    def __setstate__(self, state) -> None:
        self.entries, self.runs, self.stale, self.nstale = state
        self.index = {}
        self.indexed = 0

    def record(self, pos: int) -> tuple:
        """``(sections, seq)`` of the run holding log position ``pos``."""
        run = self.runs[bisect_right(self.runs, pos, key=_START) - 1]
        return run[1], run[2]

    def last(self, key) -> int | None:
        """Log position of the latest entry at ``key``, or None."""
        entries = self.entries
        n = len(entries)
        done = self.indexed
        if done != n:
            self.index.update(zip(map(_KEY, entries[done:]), range(done, n)))
            self.indexed = n
        return self.index.get(key)

    def first(self, key) -> int:
        """Log position of the oldest entry at ``key`` (one is logged)."""
        return next(i for i, e in enumerate(self.entries) if _KEY(e) == key)

    def stack(self, key) -> list:
        """The full record stack at ``key``, bottom first (stale path)."""
        frozen, anchor = self.stale.get(key, ((), 0))
        entries = self.entries
        return list(frozen) + [
            self.record(i) for i in range(anchor, len(entries))
            if _KEY(entries[i]) == key
        ]


class JmmTracker:
    """Tracks which heap locations hold speculative (uncommitted) values."""

    __slots__ = ("_writers", "_seq", "live")

    def __init__(self) -> None:
        #: tid -> its speculative writes; exactly the keys of ``live``
        self._writers: dict[int, _Writer] = {}
        #: global barrier-call sequence number (orders writers at a read)
        self._seq = 0
        #: tid -> live records; only ever mutated in place, because
        #: generated read barriers hold a reference to it
        self.live: dict[int, int] = {}

    def __len__(self) -> int:
        """Threads holding speculative records."""
        return len(self._writers)

    def on_write(
        self,
        thread: "VMThread",
        entries: list,
        n: int,
        active_sections: tuple["Section", ...],
    ) -> None:
        """The last ``n`` entries of ``entries`` (``thread``'s undo log)
        were just logged by one barrier call under ``active_sections``."""
        tid = thread.tid
        writer = self._writers.get(tid)
        if writer is None:
            writer = self._writers[tid] = _Writer(entries)
        self._seq = seq = self._seq + 1
        writer.runs.append((len(entries) - n, active_sections, seq))
        live = self.live
        live[tid] = live.get(tid, 0) + n

    def on_rollback(self, thread: "VMThread", mark: int) -> None:
        """``thread``'s undo log is about to be rolled back to ``mark``:
        its records at positions from ``mark`` on go with their entries."""
        tid = thread.tid
        writer = self._writers.get(tid)
        if writer is None:
            return
        runs = writer.runs
        del runs[bisect_left(runs, mark, key=_START):]
        if writer.indexed > mark:
            writer.index = {}
            writer.indexed = 0
        if writer.stale:
            # each restored entry pops one record off its location's
            # stack; entries above a stale anchor pop log-derived records,
            # the ones below it pop frozen records
            entries = writer.entries
            for key, cut in writer.stale.items():
                frozen, anchor = cut
                if anchor > mark:
                    popped = sum(
                        1 for i in range(mark, anchor)
                        if _KEY(entries[i]) == key
                    )
                    del frozen[len(frozen) - popped:]
                    cut[1] = mark
        self._settle(tid, writer, mark)

    def on_commit(self, thread: "VMThread") -> None:
        """``thread`` exited its outermost section; its writes are final
        (called before the log is discarded)."""
        tid = thread.tid
        writer = self._writers.get(tid)
        if writer is None:
            return
        stale = writer.stale
        if stale:
            # a stale record survives unless the committed log touched
            # its location; with the log gone, its stack is all frozen
            touched = set(map(_KEY, writer.entries))
            for key in [k for k in stale if k in touched]:
                del stale[key]
            for cut in stale.values():
                cut[1] = 0
            writer.nstale = sum(len(cut[0]) for cut in stale.values())
            writer.runs = []
            writer.index = {}
            writer.indexed = 0
        self._settle(tid, writer, 0)

    def on_drop(self, thread: "VMThread", idx: int) -> None:
        """Entry ``idx`` of ``thread``'s undo log is about to be deleted
        while its record stays (the seeded ``undo-drop`` defect).  A
        rollback to a mark at or below ``idx`` follows at once; it cuts
        the runs and the index that the deletion shifts."""
        writer = self._writers[thread.tid]
        entries = writer.entries
        key = _KEY(entries[idx])
        stale = writer.stale
        if stale is None:
            stale = writer.stale = {}
        # freeze the location's whole stack: the dropped record stays in
        # it with no entry behind it
        frozen = writer.stack(key)
        for cut in stale.values():
            if cut[1] > idx:
                cut[1] -= 1  # its log part starts one entry lower
        stale[key] = [frozen, len(entries) - 1]
        writer.nstale += 1

    def _settle(self, tid: int, writer: _Writer, held: int) -> None:
        """``live[tid]``: ``held`` log entries plus the stale records."""
        held += writer.nstale
        if held:
            self.live[tid] = held
        else:
            del self._writers[tid]
            self.live.pop(tid, None)

    def on_read(
        self, thread: "VMThread", container, slot
    ) -> tuple["Section", ...]:
        """``thread`` read ``slot`` of ``container``.  Returns the sections
        that must become non-revocable: the enclosing sections of the
        latest speculative write by any *other* thread (empty tuple when
        none), writers in the order of their oldest live record there."""
        tid = thread.tid
        key = (container, slot)
        found = []
        writers = self._writers
        for writer_tid in self.live:
            if writer_tid == tid:
                continue
            writer = writers[writer_tid]
            pos = writer.last(key)
            stale = writer.stale
            if stale and key in stale:
                frozen, anchor = stale[key]
                top = (
                    frozen[-1] if pos is None or pos < anchor
                    else writer.record(pos)
                )
                found.append((writer, top[0], frozen[0][1]))
            elif pos is not None:
                found.append((writer, writer.record(pos)[0], None))
        if not found:
            return ()
        if len(found) == 1:
            return found[0][1]
        order = []
        for writer, sections, oldest in found:
            if oldest is None:
                oldest = writer.record(writer.first(key))[1]
            order.append((oldest, sections))
        order.sort(key=_START)
        result: tuple["Section", ...] = ()
        for _, sections in order:
            result += sections
        return result

    def clear(self) -> None:
        self._writers.clear()
        self.live.clear()

