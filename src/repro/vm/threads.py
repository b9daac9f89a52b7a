"""Green threads, frames, and the rollback control-flow signal.

Threads here mirror Jikes RVM's model: user-level ("green") threads
multiplexed on one virtual CPU, context-switched **only at yield points**.
A thread's call stack is a list of :class:`Frame`; each frame owns its
operand stack, locals, and the per-frame saved-state slots that the
transformer's ``SAVESTATE`` instruction populates (paper §3.1.1: "inject
bytecode to save the values on the operand stack just before each
rollback-scope's monitorenter opcode").

:class:`RollbackSignal` is the host-level representation of the paper's
*rollback exception*: it is "thrown internally by the VM" and is only ever
caught by the transformer-injected handlers — the augmented dispatch in the
interpreter ignores every other handler, including finally blocks (§3.1.2).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Optional

from repro.util.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.classfile import MethodDef
    from repro.vm.monitors import Monitor


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"        # parked on a monitor entry queue
    WAITING = "waiting"        # in a wait set (Object.wait)
    SLEEPING = "sleeping"      # SLEEP / PAUSE / timed wait timeout
    TERMINATED = "terminated"

    # Members are singletons, so identity hashing is exact; it keeps the
    # census update in ``VMThread.state`` off ``Enum.__hash__``, which is
    # Python code.
    __hash__ = object.__hash__


class RollbackSignal(Exception):
    """The internal rollback exception (paper §3.1.1).

    ``target`` is the synchronized-section record being revoked.  Normal
    guest exception dispatch never sees this signal; only exception-table
    entries of type :data:`repro.vm.classfile.ROLLBACK_TYPE` match it.
    """

    def __init__(self, target: Any):
        self.target = target
        super().__init__(f"rollback -> {target!r}")


class SavedState:
    """Snapshot taken by ``SAVESTATE``: operand stack + locals.

    Values are guest scalars/references; we copy the containers, not the
    referenced objects — object *contents* are restored by the undo log,
    while this snapshot restores the frame so re-execution of the section
    observes the same local state as the first execution.
    """

    __slots__ = ("stack", "locals")

    def __init__(self, stack: list, locals_: list):
        self.stack = list(stack)
        self.locals = list(locals_)

    def restore_into(self, frame: "Frame") -> None:
        frame.stack[:] = self.stack
        frame.locals[:] = self.locals


class Frame:
    """One method activation."""

    __slots__ = ("method", "code", "pc", "locals", "stack", "saved_states",
                 "depth")

    def __init__(self, method: "MethodDef", args: list, depth: int):
        self.method = method
        self.code = method.code
        self.pc = 0
        self.locals: list[Any] = list(args) + [0] * (
            method.max_locals - len(args)
        )
        self.stack: list[Any] = []
        #: slot -> SavedState, populated by SAVESTATE
        self.saved_states: dict[int, SavedState] = {}
        self.depth = depth

    def __getstate__(self) -> tuple:
        # ``code`` is the method's own list: rebound on unpickling, not
        # pickled as a copy
        return (self.method, self.pc, self.locals, self.stack,
                self.saved_states, self.depth)

    def __setstate__(self, state: tuple) -> None:
        (self.method, self.pc, self.locals, self.stack, self.saved_states,
         self.depth) = state
        self.code = self.method.code

    def __repr__(self) -> str:
        return f"Frame({self.method.qualified_name()}@{self.pc})"


class VMThread:
    """A guest thread.

    Priorities are small ints (higher = more urgent; the benchmark uses
    ``LOW_PRIORITY=1`` / ``HIGH_PRIORITY=10``).  ``effective_priority``
    folds in priority-inheritance donations and priority-ceiling boosts so
    the schedulers and prioritized monitor queues see one number.
    """

    __slots__ = (
        "tid", "name", "priority", "inherited_priority", "ceiling_boost",
        "_state", "census", "frames", "entry_method", "entry_args", "rng",
        "pending_handoff", "revocation_request", "active_rollback",
        "wakeup_time",
        "blocked_on", "waiting_on", "held_monitors", "sections",
        "undo_log", "quantum_used", "sched_stamp",
        "preempt_requested", "revocations", "consecutive_revocations",
        "grace_until", "sections_committed",
        # metrics
        "start_time", "end_time", "cycles_executed", "blocked_since",
        "blocked_cycles", "instructions_executed",
    )

    def __init__(
        self,
        tid: int,
        name: str,
        entry_method: "MethodDef",
        entry_args: list,
        priority: int = 5,
        rng: Optional[DeterministicRng] = None,
    ):
        self.tid = tid
        self.name = name
        self.priority = priority
        self.inherited_priority = -1
        self.ceiling_boost = -1
        self._state = ThreadState.NEW
        #: the owning VM's ``ThreadState -> count`` census, attached by
        #: ``JVM.spawn``; None for a thread built outside a VM
        self.census: Optional[dict[ThreadState, int]] = None
        self.entry_method = entry_method
        self.entry_args = list(entry_args)
        self.frames: list[Frame] = []
        self.rng = rng or DeterministicRng(0xACE0 + tid)
        #: monitor acquired for us by a releasing thread's direct handoff
        self.pending_handoff: "Monitor | None" = None
        #: section record to revoke at the next yield point
        self.revocation_request = None
        #: in-flight RollbackSignal while unwinding through handlers
        self.active_rollback = None
        self.wakeup_time = 0
        self.blocked_on: "Monitor | None" = None
        self.waiting_on: "Monitor | None" = None
        self.held_monitors: list["Monitor"] = []
        #: active synchronized-section records, outermost first
        self.sections: list = []
        #: per-thread sequential undo buffer (modified VM only)
        self.undo_log = None
        self.quantum_used = 0
        #: bumped on every (re)queueing so stale scheduler entries die
        self.sched_stamp = 0
        self.preempt_requested = False
        self.revocations = 0
        self.consecutive_revocations = 0
        #: outermost sections committed (the watchdog's forward-progress
        #: signal: revocations growing while this stays flat = livelock)
        self.sections_committed = 0
        #: livelock guard: while now < grace_until this thread may not be
        #: revoked again (set after repeated revocations)
        self.grace_until = 0
        self.start_time: Optional[int] = None
        self.end_time: Optional[int] = None
        self.cycles_executed = 0
        self.blocked_since: Optional[int] = None
        self.blocked_cycles = 0
        self.instructions_executed = 0

    # ----------------------------------------------------------- priorities
    @property
    def effective_priority(self) -> int:
        p = self.priority
        if self.inherited_priority > p:
            p = self.inherited_priority
        if self.ceiling_boost > p:
            p = self.ceiling_boost
        return p

    # ------------------------------------------------------------- lifecycle
    @property
    def state(self) -> ThreadState:
        return self._state

    @state.setter
    def state(self, new: ThreadState) -> None:
        # The one place a thread changes state, so the VM's census (read
        # in O(1) by the counter tracks and ``all_terminated``) can never
        # drift from a scan of its threads.
        census = self.census
        if census is not None:
            census[self._state] -= 1
            census[new] += 1
        self._state = new

    def start(self) -> None:
        """Push the entry frame; the scheduler makes the thread READY."""
        if self._state is not ThreadState.NEW:
            raise RuntimeError(f"thread {self.name!r} already started")
        self.frames.append(Frame(self.entry_method, self.entry_args, 0))
        self.state = ThreadState.READY

    def is_live(self) -> bool:
        return self._state not in (ThreadState.NEW, ThreadState.TERMINATED)

    def credit_blocked(self, now: int) -> int:
        """Close an open blocked interval at ``now``; returns the cycles
        credited (0 when no interval was open).  Every un-block path must
        route through here so ``blocked_cycles`` and the profiler's
        blocked attribution stay in exact agreement."""
        if self.blocked_since is None:
            return 0
        cycles = now - self.blocked_since
        self.blocked_cycles += cycles
        self.blocked_since = None
        return cycles

    def innermost_section(self):
        return self.sections[-1] if self.sections else None

    def in_synchronized_section(self) -> bool:
        return bool(self.sections)

    def section_for_monitor(self, monitor: "Monitor"):
        """Outermost active section that first acquired ``monitor``."""
        for section in self.sections:
            if section.monitor is monitor and not section.recursive:
                return section
        return None

    def elapsed(self) -> int:
        """Virtual run() duration; valid once the thread terminated."""
        if self.start_time is None or self.end_time is None:
            raise RuntimeError(f"thread {self.name!r} has not finished")
        return self.end_time - self.start_time

    def __repr__(self) -> str:
        return (
            f"VMThread({self.name!r}, prio={self.priority}"
            f"{'/' + str(self.effective_priority) if self.effective_priority != self.priority else ''}, "
            f"{self.state.value})"
        )
