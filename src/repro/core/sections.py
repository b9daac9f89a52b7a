"""Active synchronized-section records.

A :class:`Section` is created when a thread executes ``monitorenter`` and
destroyed when the matching ``monitorexit`` commits it or a revocation
unwinds it.  It ties together everything a rollback needs:

* the monitor and whether this was a *recursive* entry (recursive entries
  release one recursion level; only non-recursive entries can be revocation
  targets, since releasing an inner recursive level would not free the
  monitor);
* the frame and the transformer-injected scope info — which ``SAVESTATE``
  slot holds the operand-stack/locals snapshot and where the injected
  ``ROLLBACK_HANDLER`` lives;
* the undo-log *mark* delimiting this section's updates;
* the revocability state (paper §2.2): sections become non-revocable when
  their speculative writes are observed by another thread, when a native
  method runs inside them, or when ``wait`` is invoked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.monitors import Monitor
    from repro.vm.threads import Frame, VMThread

#: why a section lost revocability (for traces, metrics and tests)
REASON_DEPENDENCY = "read-write-dependency"
REASON_VOLATILE = "volatile-dependency"
REASON_NATIVE = "native-call"
REASON_WAIT = "wait"
REASON_UNTRANSFORMED = "no-rollback-scope"
REASON_DEGRADED = "degraded"

#: graceful-degradation ladder, most to least optimistic.  A *site* (one
#: static synchronized section executed by one thread) starts revocable;
#: when its revocation retry budget is exhausted — or the starvation
#: watchdog flags its thread — it degrades one rung at a time:
#: revocable -> priority-inheritance (inversions donate priority instead
#: of revoking) -> non-revocable (sections are pinned at entry, trading
#: the paper's mechanism away entirely for guaranteed forward progress).
LADDER_REVOCABLE = "revocable"
LADDER_INHERITANCE = "inheritance"
LADDER_NONREVOCABLE = "nonrevocable"
LADDER_ORDER = (LADDER_REVOCABLE, LADDER_INHERITANCE, LADDER_NONREVOCABLE)


class SectionSite:
    """Robustness state for one (thread, sync_id) section site.

    Unlike :class:`Section` — one dynamic execution — a site survives
    across executions, so it can remember how often revocation threw away
    this thread's work at this ``monitorenter`` without an intervening
    commit (``attempts``), impose a growing revocation-free grace window
    (``grace_until``), and hold the degradation-ladder rung the site has
    been demoted to.  Degradation is sticky: a site never climbs back up
    (re-promoting would readmit the livelock the demotion escaped).
    """

    __slots__ = (
        "tid",
        "sync_id",
        "level",
        "attempts",
        "total_revocations",
        "grace_until",
    )

    def __init__(self, tid: int, sync_id: object):
        self.tid = tid
        self.sync_id = sync_id
        self.level = LADDER_REVOCABLE
        #: revocations since the last commit at this site
        self.attempts = 0
        self.total_revocations = 0
        #: revocation requests are refused until this virtual time
        self.grace_until = 0

    def escalate(self) -> Optional[str]:
        """Demote one rung; returns the new level, or None at the bottom."""
        idx = LADDER_ORDER.index(self.level)
        if idx + 1 >= len(LADDER_ORDER):
            return None
        self.level = LADDER_ORDER[idx + 1]
        return self.level

    def commit(self) -> None:
        """A section at this site committed: the retry budget refills."""
        self.attempts = 0
        self.grace_until = 0

    def __repr__(self) -> str:
        return (
            f"SectionSite(tid={self.tid}, {self.sync_id!r}, "
            f"{self.level}, attempts={self.attempts})"
        )


class Section:
    """One dynamic execution of a synchronized section."""

    __slots__ = (
        "sid",
        "thread",
        "monitor",
        "frame",
        "sync_id",
        "slot",
        "handler_pc",
        "log_mark",
        "recursive",
        "revocable",
        "nonrevocable_reason",
        "depth",
    )

    def __init__(
        self,
        thread: "VMThread",
        monitor: "Monitor",
        frame: "Frame",
        sync_id: object,
        *,
        sid: int,
        slot: Optional[int],
        handler_pc: Optional[int],
        log_mark: int,
        recursive: bool,
    ):
        # allocated by the owning VM's RevocationManager, so section ids
        # are a pure function of that VM's execution (snapshot/restore and
        # trace determinism both depend on this — no process globals)
        self.sid = sid
        self.thread = thread
        self.monitor = monitor
        self.frame = frame
        self.sync_id = sync_id
        self.slot = slot
        self.handler_pc = handler_pc
        self.log_mark = log_mark
        self.recursive = recursive
        self.revocable = handler_pc is not None
        self.nonrevocable_reason: Optional[str] = (
            None if self.revocable else REASON_UNTRANSFORMED
        )
        self.depth = len(thread.sections)  # 0 = outermost

    def mark_nonrevocable(self, reason: str) -> bool:
        """Returns True when this call changed the state."""
        if not self.revocable:
            return False
        self.revocable = False
        self.nonrevocable_reason = reason
        return True

    @property
    def is_outermost(self) -> bool:
        return self.depth == 0

    def __repr__(self) -> str:
        flags = []
        if self.recursive:
            flags.append("recursive")
        if not self.revocable:
            flags.append(f"nonrevocable:{self.nonrevocable_reason}")
        return (
            f"Section#{self.sid}({self.thread.name}@{self.sync_id!r}"
            f"{' ' + ' '.join(flags) if flags else ''})"
        )
