"""The seam between the stock VM and the paper's modified VM.

The interpreter and scheduler call these hooks at every point the paper
instruments Jikes RVM.  The *unmodified* VM (the paper's baseline) uses
:class:`NullSupport`, whose hooks do nothing and charge nothing.  The
*modified* VM installs :class:`repro.core.revocation.RollbackSupport`;
the priority-inheritance and priority-ceiling baselines are further
implementations in :mod:`repro.core.policies`.

Keeping the seam explicit means the two VMs in every benchmark comparison
run byte-identical interpreter code, differing only in (a) whether the
transformer rewrote the loaded classes and (b) which support is installed —
mirroring how the paper compares a stock Jikes RVM against the same build
plus their compiler/runtime changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.monitors import Monitor
    from repro.vm.threads import Frame, RollbackSignal, VMThread
    from repro.vm.vmcore import JVM


class RuntimeSupport:
    """No-op hook set = the unmodified VM.

    Hooks that can consume virtual time return the extra cycle cost to
    charge; the base class charges zero everywhere.
    """

    name = "null"

    def __init__(self) -> None:
        self.vm: "JVM | None" = None

    def attach(self, vm: "JVM") -> None:
        self.vm = vm

    # ------------------------------------------------------------- monitors
    def on_monitor_entered(
        self,
        thread: "VMThread",
        monitor: "Monitor",
        frame: "Frame",
        sync_id: object,
        recursive: bool,
    ) -> int:
        """After a successful monitorenter (uncontended or via handoff)."""
        return 0

    def on_monitor_exited(
        self,
        thread: "VMThread",
        monitor: "Monitor",
        frame: "Frame",
        sync_id: object,
    ) -> int:
        """Before the matching monitorexit releases the monitor."""
        return 0

    def on_contended_acquire(
        self, thread: "VMThread", monitor: "Monitor"
    ) -> int:
        """``thread`` is about to block on ``monitor``'s entry queue.

        This is where the paper's detection algorithm runs (§4) and where
        priority inheritance donates priority.
        """
        return 0

    def on_handoff(
        self,
        releaser: "VMThread",
        monitor: "Monitor",
        new_owner: Optional["VMThread"],
    ) -> int:
        """After a release (possibly handing ownership to ``new_owner``)."""
        return 0

    # --------------------------------------------------------------- memory
    def before_store(
        self,
        thread: "VMThread",
        container,
        slot,
        old_value,
        volatile: bool,
    ) -> int:
        """Write-barrier slow-path hook; called only for instructions the
        transformer flagged (``Instruction.barrier``).  ``old_value`` is the
        value being overwritten; the rollback runtime appends it to the
        thread's undo log when the thread executes inside a synchronized
        section (paper §3.1.2)."""
        return 0

    def before_store_batch(self, thread: "VMThread", entries) -> int:
        """Batched write-barrier fast path.

        ``entries`` is a tuple of ``(container, slot, old_value, volatile)``
        records for a run of consecutive barrier stores between two
        observation points (no intervening raising op, read barrier, or
        yield point).  Must be observably equivalent to calling
        :meth:`before_store` once per entry in order; the base
        implementation does exactly that, subclasses may append the run in
        one call."""
        cost = 0
        for container, slot, old_value, volatile in entries:
            cost += self.before_store(thread, container, slot, old_value,
                                      volatile)
        return cost

    def after_load(
        self, thread: "VMThread", container, slot, volatile: bool
    ) -> int:
        """Read-barrier hook: JMM read-write dependency tracking (§2.2)."""
        return 0

    def read_barrier_guard(self):
        """State for a read barrier inlined into predecoded code, or None
        (the default: generated code always calls :meth:`after_load`).

        A support may return ``(live, metrics)``.  ``live`` is a dict keyed
        by thread id, mutated only in place; whenever it holds no key other
        than the reader's own tid, :meth:`after_load` must do nothing but
        bump ``metrics.read_barrier_hits`` and return
        ``cost_model.read_barrier``, which the generated code then does
        inline instead of calling it."""
        return None

    # -------------------------------------------------------------- control
    def check_yield(self, thread: "VMThread") -> "RollbackSignal | None":
        """Called at every yield point (and on resume from a block).

        Returns a :class:`~repro.vm.threads.RollbackSignal` when the thread
        must begin revoking a synchronized section, else None.
        """
        return None

    def on_rollback_handler(
        self, thread: "VMThread", section, is_target: bool
    ) -> int:
        """Injected handler bookkeeping: the handler is about to release
        ``section``'s monitor; when ``is_target`` it will then restore state
        and re-execute."""
        return 0

    def on_native_call(self, thread: "VMThread", name: str) -> int:
        """Native methods are irrevocable (§2.2)."""
        return 0

    def on_wait(self, thread: "VMThread", monitor: "Monitor") -> int:
        """``wait`` inside synchronized sections restricts revocability (§2.2)."""
        return 0

    def on_wait_reacquired(
        self, thread: "VMThread", monitor: "Monitor"
    ) -> int:
        return 0

    def on_thread_exit(self, thread: "VMThread") -> None:
        return None

    def on_section_abandoned(self, thread: "VMThread", section) -> None:
        """``section`` was discarded without commit or rollback — its frame
        was popped by guest exception dispatch unwinding past the
        synchronized region.  The support must drop any cached state keyed
        on the section (undo entries up to its mark stay: the catch-all
        release handler ran ``monitorexit``, which has commit semantics)."""
        return None

    # ------------------------------------------------------------ robustness
    def on_starvation(self, thread: "VMThread") -> bool:
        """The scheduler's watchdog flagged ``thread``: its revocation count
        keeps growing while it commits nothing.  Return True when the
        support took a corrective action (e.g. degraded the hot section
        site), False to let the scheduler merely trace the event."""
        return False

    # ----------------------------------------------------------- checking
    def state_fingerprint(self) -> dict:
        """Policy-internal state contribution to the differential oracle's
        final-state fingerprint (:mod:`repro.check.oracle`).

        Called after the VM quiesced.  Must return plain JSON-serializable
        data.  The ``"violations"`` key lists residual-state problems —
        undo logs that never drained, sections never committed, priority
        boosts never rescinded — and must be empty on a clean run;
        anything else in the mapping is informational only and excluded
        from cross-policy comparison."""
        return {"violations": []}

    # ------------------------------------------------------------ scheduling
    def periodic_scan(self) -> None:
        """Optional background detection (paper §1: "either at lock
        acquisition, or periodically in the background")."""
        return None

    def resolve_deadlock(self, cycle: list["VMThread"]) -> bool:
        """Attempt to break a wait-for cycle.  Return True when a resolution
        was initiated (a revocation request was posted), False to let the
        scheduler raise :class:`repro.errors.DeadlockError`."""
        return False


class NullSupport(RuntimeSupport):
    """Explicit alias for the unmodified VM's hook set."""

    name = "unmodified"
