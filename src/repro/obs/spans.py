"""Causal spans: folding the raw trace into typed intervals.

A :class:`TraceEvent` stream answers "what happened when"; spans answer
"what was *ongoing*, inside what, caused by whom".  The
:class:`SpanBuilder` is an online tracer sink (attach with
``vm.tracer.add_sink(builder)``) that folds events into:

=================  =====================================================
kind               interval
=================  =====================================================
``thread``         spawn → exit (one root span per VM thread)
``section``        monitorenter → monitorexit / rollback-release;
                   ``outcome`` is ``commit``, ``rollback``, ``abandoned``
                   or ``leaked``
``blocked``        entry-queue park → grant/wakeup (closed at the exact
                   clock value the thread's ``blocked_cycles`` metric is
                   credited, so span durations reconcile with metrics)
``wait``           Object.wait → return / timeout / notify / exit
``revocation``     revocation request → rollback completion; carries the
                   requester, the origin (acquire/periodic/deadlock) and
                   the undo-entry count restored
``revocation_denied``  instant: a posted request was refused (reason)
``inherit``        instant: a priority donation landed on a monitor owner
``degrade``        instant: a section site dropped a ladder rung
``grace`` / ``backoff``  instant: a revocation-free window was granted
``fault``          instant: an injected fault was delivered
``deadlock``       instant: a wait-for cycle was detected
=================  =====================================================

Causality: every span opened on a thread is parented to the innermost
span still open on that thread (section nesting falls out naturally),
and a ``revocation`` span is parented to the *section it preempted* on
the holder thread — so "which revocation killed which section, on whose
behalf" is one parent-pointer walk.  All times are exact virtual cycles.

Determinism: spans are a pure function of the event stream plus the
final clock value, so identical runs — across interpreters, worker
counts and cache states — yield identical span lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.vm.tracing import TraceEvent

#: pseudo-track used for events with no acting thread
VM_TRACK = "(vm)"


@dataclass
class Span:
    """One typed interval (or instant, when ``end == start``)."""

    sid: int
    kind: str
    thread: Optional[str]
    start: int
    end: Optional[int] = None
    parent: Optional[int] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[int]:
        return None if self.end is None else self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        """Stable field order for the ``repro.obs/1`` JSONL schema."""
        return {
            "sid": self.sid,
            "kind": self.kind,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
        }


class SpanBuilder:
    """Online span construction; usable directly as a tracer sink.

    Events are dispatched by kind through :attr:`_HANDLERS`, the table
    of this class's ``_on_<kind>`` methods; other kinds are ignored."""

    #: event kind -> handler; filled in from the ``_on_*`` methods below
    _HANDLERS: dict[str, Callable[["SpanBuilder", TraceEvent], None]] = {}

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_sid = 0
        self._thread_span: dict[str, Span] = {}
        #: per-thread stack of open section spans
        self._sections: dict[str, list[Span]] = {}
        #: recursive-entry depth per open section span
        self._depth: dict[int, int] = {}
        self._blocked: dict[str, Span] = {}
        self._wait: dict[str, Span] = {}
        #: holder thread -> open revocation span
        self._revocation: dict[str, Span] = {}
        #: holder thread -> undo entries restored (from rollback_begin)
        self._undone: dict[str, int] = {}

    # ------------------------------------------------------------ plumbing
    def _open(
        self,
        kind: str,
        thread: Optional[str],
        start: int,
        attrs: dict[str, Any],
        parent: Optional[Span] = None,
    ) -> Span:
        if parent is None and thread is not None:
            parent = self._innermost(thread)
        span = Span(
            sid=self._next_sid,
            kind=kind,
            thread=thread,
            start=start,
            parent=None if parent is None else parent.sid,
            attrs=attrs,
        )
        self._next_sid += 1
        self.spans.append(span)
        return span

    def _instant(
        self,
        kind: str,
        thread: Optional[str],
        time: int,
        attrs: dict[str, Any],
    ) -> Span:
        span = self._open(kind, thread, time, attrs)
        span.end = time
        return span

    def _innermost(self, thread: str) -> Optional[Span]:
        stack = self._sections.get(thread)
        if stack:
            return stack[-1]
        return self._thread_span.get(thread)

    # ---------------------------------------------------------- sink entry
    def __call__(self, event: TraceEvent) -> None:
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    # ------------------------------------------------------- thread spans
    def _on_spawn(self, e: TraceEvent) -> None:
        self._thread_span[e.thread] = self._open(
            "thread", e.thread, e.time,
            {"priority": e.details.get("priority")},
        )

    def _on_exit(self, e: TraceEvent) -> None:
        t = e.thread
        for table in (self._blocked, self._wait):
            span = table.pop(t, None)
            if span is not None:
                span.end = e.time
                span.attrs["outcome"] = "exit"
        for span in self._sections.pop(t, []):
            span.end = e.time
            span.attrs["outcome"] = "leaked"
            self._depth.pop(span.sid, None)
        span = self._thread_span.get(t)
        if span is not None:
            span.end = e.time

    # ------------------------------------------------------ section spans
    def _on_acquire(self, e: TraceEvent) -> None:
        t = e.thread
        blocked = self._blocked.pop(t, None)
        if blocked is not None:
            blocked.end = e.time
            blocked.attrs["outcome"] = "acquired"
        mon = e.details.get("mon")
        if e.details.get("recursive"):
            stack = self._sections.get(t)
            if stack:
                for span in reversed(stack):
                    if span.attrs.get("mon") == mon:
                        self._depth[span.sid] += 1
                        return
        attrs: dict[str, Any] = {"mon": mon}
        if e.details.get("handoff"):
            attrs["handoff"] = True
        span = self._open("section", t, e.time, attrs)
        self._sections.setdefault(t, []).append(span)
        self._depth[span.sid] = 1

    def _close_section(
        self, thread: str, mon: Any, time: int, outcome: str
    ) -> Optional[Span]:
        stack = self._sections.get(thread)
        if not stack:
            return None
        for i in range(len(stack) - 1, -1, -1):
            span = stack[i]
            if mon is not None and span.attrs.get("mon") != mon:
                continue
            if outcome == "commit":
                self._depth[span.sid] -= 1
                if self._depth[span.sid] > 0:
                    return None  # recursive exit: span stays open
            stack.pop(i)
            self._depth.pop(span.sid, None)
            span.end = time
            span.attrs["outcome"] = outcome
            return span
        return None

    def _on_release(self, e: TraceEvent) -> None:
        self._close_section(
            e.thread, e.details.get("mon"), e.time, "commit"
        )
        self._close_blocked(e.details.get("successor"), e.time, "granted")

    def _on_rollback_release(self, e: TraceEvent) -> None:
        section = self._close_section(
            e.thread, e.details.get("mon"), e.time, "rollback"
        )
        self._close_blocked(e.details.get("successor"), e.time, "granted")
        revocation = self._revocation.get(e.thread)
        if section is not None and revocation is not None:
            # the causal edge: this revocation preempted that section
            revocation.parent = section.sid
            section.attrs["revoked_by"] = revocation.sid

    def _on_handoff_returned(self, e: TraceEvent) -> None:
        self._close_blocked(e.details.get("successor"), e.time, "granted")

    def _on_leaked_monitor(self, e: TraceEvent) -> None:
        self._close_blocked(e.details.get("successor"), e.time, "granted")

    def _on_section_abandoned(self, e: TraceEvent) -> None:
        stack = self._sections.get(e.thread)
        if stack:
            span = stack.pop()
            self._depth.pop(span.sid, None)
            span.end = e.time
            span.attrs["outcome"] = "abandoned"

    # ----------------------------------------------------- blocked / wait
    def _on_block(self, e: TraceEvent) -> None:
        if e.thread not in self._blocked:
            self._blocked[e.thread] = self._open(
                "blocked", e.thread, e.time, {"mon": e.details.get("mon")}
            )

    def _close_blocked(
        self, thread: Optional[str], time: int, outcome: str
    ) -> None:
        """Close ``thread``'s open blocked span (if any) at ``time``.

        The close sites mirror ``JVM.credit_blocked`` call sites exactly
        — grants at release/wait/rollback-release, wakeups, revocation
        wakes — so every closed blocked span's duration equals the cycles
        credited to the thread's ``blocked_cycles`` metric at that very
        clock value (the zero-residue episode reconciliation relies on
        this)."""
        if thread is None:
            return
        span = self._blocked.pop(thread, None)
        if span is not None:
            span.end = time
            span.attrs["outcome"] = outcome

    def _on_wakeup(self, e: TraceEvent) -> None:
        self._close_blocked(e.thread, e.time, "wakeup")

    def _on_wait(self, e: TraceEvent) -> None:
        self._close_blocked(e.details.get("successor"), e.time, "granted")
        self._wait[e.thread] = self._open(
            "wait", e.thread, e.time,
            {"mon": e.details.get("mon"),
             "timeout": e.details.get("timeout")},
        )

    def _close_wait(self, thread: str, time: int, outcome: str) -> None:
        span = self._wait.pop(thread, None)
        if span is not None:
            span.end = time
            span.attrs["outcome"] = outcome

    def _on_wait_return(self, e: TraceEvent) -> None:
        self._close_wait(e.thread, e.time, "returned")

    def _on_wait_timeout(self, e: TraceEvent) -> None:
        self._close_wait(e.thread, e.time, "timeout")

    def _on_notify(self, e: TraceEvent) -> None:
        woken = e.details.get("woken")
        if woken is not None:
            self._close_wait(woken, e.time, "notified")

    # -------------------------------------------------- revocation chains
    def _open_revocation(
        self, holder: str, time: int, attrs: dict[str, Any]
    ) -> None:
        existing = self._revocation.get(holder)
        if existing is not None:
            existing.attrs["requests"] = (
                existing.attrs.get("requests", 1) + 1
            )
            return
        parent = None
        stack = self._sections.get(holder)
        if stack:
            parent = stack[-1]
        self._revocation[holder] = self._open(
            "revocation", holder, time, attrs, parent=parent
        )

    def _on_revocation_request(self, e: TraceEvent) -> None:
        holder = e.details.get("holder")
        if holder is None:
            return
        # A blocked holder is woken by the scheduler at this instant so
        # the rollback can proceed (and its park is credited here).
        self._close_blocked(holder, e.time, "revocation-wake")
        self._open_revocation(
            holder, e.time,
            {"requester": e.thread,
             "origin": e.details.get("origin"),
             "section": e.details.get("section")},
        )

    def _on_deadlock_resolve(self, e: TraceEvent) -> None:
        self._close_blocked(e.thread, e.time, "revocation-wake")
        self._open_revocation(
            e.thread, e.time,
            {"requester": None, "origin": "deadlock",
             "section": e.details.get("section"),
             "cycle": e.details.get("cycle")},
        )

    def _on_revocation_denied(self, e: TraceEvent) -> None:
        holder = e.details.get("holder")
        self._instant(
            "revocation_denied", holder, e.time,
            {"requester": e.thread, "reason": e.details.get("reason")},
        )

    def _on_rollback_begin(self, e: TraceEvent) -> None:
        self._undone[e.thread] = e.details.get("undone", 0)

    def _on_rollback_done(self, e: TraceEvent) -> None:
        self._close_blocked(e.thread, e.time, "revoked")
        span = self._revocation.pop(e.thread, None)
        if span is not None:
            span.end = e.time
            span.attrs["outcome"] = "rolled-back"
            span.attrs["undone"] = self._undone.pop(e.thread, 0)

    # ------------------------------------------------- instant annotations
    def _on_inherit(self, e: TraceEvent) -> None:
        # priority donation: e.thread is the receiving owner
        self._instant(
            "inherit", e.thread, e.time,
            {"from": e.details.get("from_"),
             "priority": e.details.get("priority")},
        )

    def _on_degrade(self, e: TraceEvent) -> None:
        self._instant(
            "degrade", e.thread, e.time,
            {"sync_id": e.details.get("sync_id"),
             "level": e.details.get("level"),
             "reason": e.details.get("reason")},
        )

    def _on_grace_granted(self, e: TraceEvent) -> None:
        self._instant(
            "grace", e.thread, e.time, {"until": e.details.get("until")}
        )

    def _on_site_backoff(self, e: TraceEvent) -> None:
        self._instant(
            "backoff", e.thread, e.time,
            {"sync_id": e.details.get("sync_id"),
             "until": e.details.get("until")},
        )

    def _on_fault_inject(self, e: TraceEvent) -> None:
        self._instant(
            "fault", e.thread, e.time, {"fault": e.details.get("fault")}
        )

    def _on_deadlock(self, e: TraceEvent) -> None:
        self._instant(
            "deadlock", e.thread, e.time,
            {"cycle": e.details.get("cycle")},
        )

    # ------------------------------------------------------------- closing
    def finish(self, now: int) -> list[Span]:
        """Close every still-open span at ``now`` and return the list."""
        for span in self.spans:
            if span.end is None:
                span.end = now
                span.attrs["open"] = True
        return self.spans


SpanBuilder._HANDLERS = {
    name[len("_on_"):]: fn
    for name, fn in vars(SpanBuilder).items()
    if name.startswith("_on_")
}


def build_spans(events: Iterable[TraceEvent], now: int) -> list[Span]:
    """Post-hoc construction from a stored event list (``vm.tracer.events``)."""
    builder = SpanBuilder()
    for event in events:
        builder(event)
    return builder.finish(now)
