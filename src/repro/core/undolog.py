"""Per-thread sequential undo buffers (paper §3.1.2).

    "We implemented the log as a sequential buffer.  For object and array
    stores, three values are recorded: object or array reference, value
    offset and the (old) value itself.  For static variable stores two
    values are recorded: the offset of the static variable in the global
    symbol table and the old value of the static variable."

An entry here is ``(container, slot, old_value)`` where ``container`` is a
:class:`~repro.vm.heap.VMObject`, :class:`~repro.vm.heap.VMArray`, or the
``(class_name, field_name)`` key of a static (our "global symbol table
offset").

    "If the execution of a synchronized section is interrupted and needs to
    be re-executed then the log is processed in reverse to restore modified
    locations to their original values."

Section boundaries are *marks* (buffer positions).  The log lives until the
thread exits its outermost synchronized section: a nested section's entries
stay after that section commits, because revoking the still-active outer
section must undo them too.
"""

from __future__ import annotations

from repro.vm.heap import Heap, VMArray, VMObject

Entry = tuple  # (container, slot, old_value)


class UndoLog:
    """Sequential buffer of old values with O(1) append and marks.

    Bound to one :class:`~repro.vm.heap.Heap` so static entries (which
    carry only the symbol-table key) can be restored.
    """

    __slots__ = ("heap", "entries")

    def __init__(self, heap: Heap) -> None:
        self.heap = heap
        self.entries: list[Entry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def mark(self) -> int:
        """Current position; a later rollback can return to it."""
        return len(self.entries)

    def append(self, container, slot, old_value) -> None:
        self.entries.append((container, slot, old_value))

    def rollback_to(self, mark: int) -> int:
        """Process the log in reverse down to ``mark``, restoring each
        location to its original value.  Returns the number of entries
        restored.
        """
        entries = self.entries
        if mark < 0 or mark > len(entries):
            raise ValueError(f"bad mark {mark} for log of {len(entries)}")
        count = 0
        for i in range(len(entries) - 1, mark - 1, -1):
            container, slot, old_value = entries[i]
            if isinstance(container, (VMObject, VMArray)):
                container.put(slot, old_value)
            else:
                # static: container is the (class, field) symbol-table key
                self.heap.put_static(container, old_value)
            count += 1
        del entries[mark:]
        return count

    def truncate(self, mark: int = 0) -> int:
        """Discard entries from ``mark`` on *without* restoring (commit).

        Returns the number of entries discarded.
        """
        n = len(self.entries) - mark
        if n < 0:
            raise ValueError(f"bad mark {mark} for log of {len(self.entries)}")
        del self.entries[mark:]
        return n

    def peek(self, index: int) -> Entry:
        return self.entries[index]
