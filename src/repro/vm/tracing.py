"""Structured execution tracing.

When enabled (``VMOptions.trace=True``) the VM records every scheduling,
synchronization, revocation and JMM event as a :class:`TraceEvent`.  Tests
assert on these traces (e.g. "no default handlers ran during a rollback",
"the high-priority thread acquired the monitor immediately after the
revocation"); examples print them to narrate executions.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


class TraceEvent:
    """One event: virtual time, kind, acting thread, free-form details.

    A slotted record that is never mutated once recorded: sinks, the
    stored log and VM snapshots all share the same event objects."""

    __slots__ = ("time", "kind", "thread", "details")

    def __init__(
        self,
        time: int,
        kind: str,
        thread: Optional[str],
        details: Optional[dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.kind = kind
        self.thread = thread
        self.details = {} if details is None else details

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceEvent:
            return NotImplemented
        return (
            self.time == other.time
            and self.kind == other.kind
            and self.thread == other.thread
            and self.details == other.details
        )

    def __repr__(self) -> str:
        return (
            f"TraceEvent(time={self.time!r}, kind={self.kind!r}, "
            f"thread={self.thread!r}, details={self.details!r})"
        )

    def __str__(self) -> str:
        parts = [f"[{self.time:>10}]", self.kind]
        if self.thread is not None:
            parts.append(f"thread={self.thread}")
        for k, v in self.details.items():
            parts.append(f"{k}={v}")
        return " ".join(parts)


class Tracer:
    """Append-only event log with query helpers.

    Besides the stored log, the tracer supports *streaming sinks*:
    callables registered with :meth:`add_sink` receive every event as it
    is recorded.  Sinks let online analyses (the Eraser-style lockset
    pass in :mod:`repro.check.lockset`) consume high-volume event streams
    without buffering them; set ``store=False`` to stream only and keep
    memory flat regardless of run length."""

    def __init__(self, enabled: bool = False, capacity: int = 1_000_000):
        self.enabled = enabled
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        self.dropped = 0
        #: sinks detached because they raised (observability must never
        #: take down the run it is observing)
        self.sink_errors = 0
        #: keep events in :attr:`events` (sinks still fire when False)
        self.store = True
        self._sinks: list = []

    def add_sink(self, sink) -> None:
        """Register a callable invoked with each recorded TraceEvent."""
        self._sinks.append(sink)

    def record(
        self,
        time: int,
        kind: str,
        thread_name: Optional[str],
        details: Optional[dict[str, Any]] = None,
    ) -> None:
        """Record one event; ``details`` is taken as is, never copied."""
        if not self.enabled:
            return
        event = TraceEvent(time, kind, thread_name, details)
        if self._sinks:
            broken = None
            for sink in self._sinks:
                try:
                    sink(event)
                except Exception:
                    # A faulty sink must not abort the VM run: detach it
                    # and count the detachment so summaries can report it.
                    if broken is None:
                        broken = []
                    broken.append(sink)
            if broken:
                for sink in broken:
                    self._sinks.remove(sink)
                self.sink_errors += len(broken)
        if not self.store:
            return
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    # -------------------------------------------------------------- queries
    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        want = set(kinds)
        return [e for e in self.events if e.kind in want]

    def for_thread(self, name: str) -> list[TraceEvent]:
        return [e for e in self.events if e.thread == name]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def first(self, kind: str) -> Optional[TraceEvent]:
        for e in self.events:
            if e.kind == kind:
                return e
        return None

    def last(self, kind: str) -> Optional[TraceEvent]:
        for e in reversed(self.events):
            if e.kind == kind:
                return e
        return None

    def between(self, start: int, end: int) -> list[TraceEvent]:
        return [e for e in self.events if start <= e.time < end]

    def render(self, events: Iterable[TraceEvent] | None = None) -> str:
        return "\n".join(str(e) for e in (events or self.events))
