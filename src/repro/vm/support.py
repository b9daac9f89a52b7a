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

    Only the write-barrier hooks (:meth:`before_store`,
    :meth:`before_store_batch` and the :meth:`store_barrier_cost` query)
    return a cycle cost to charge; the base class charges zero.  Every
    other hook is a notification and returns None, :meth:`after_load`
    included: a read barrier always costs ``cost_model.read_barrier``,
    which the interpreters charge themselves, and monitor, wait, native
    and rollback-handler bookkeeping costs no cycles beyond the
    interpreter's own cost model.
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
    ) -> None:
        """After a successful monitorenter (uncontended or via handoff)."""

    def on_monitor_exited(
        self,
        thread: "VMThread",
        monitor: "Monitor",
        frame: "Frame",
        sync_id: object,
    ) -> None:
        """Before the matching monitorexit releases the monitor."""

    def on_contended_acquire(
        self, thread: "VMThread", monitor: "Monitor"
    ) -> None:
        """``thread`` is about to block on ``monitor``'s entry queue.

        This is where the paper's detection algorithm runs (§4) and where
        priority inheritance donates priority.
        """

    def on_handoff(
        self,
        releaser: "VMThread",
        monitor: "Monitor",
        new_owner: Optional["VMThread"],
    ) -> None:
        """After a release (possibly handing ownership to ``new_owner``)."""

    # --------------------------------------------------------------- memory
    def before_store(
        self,
        thread: "VMThread",
        container,
        slot,
        old_value,
    ) -> int:
        """Write-barrier slow-path hook; called only for instructions the
        transformer flagged (``Instruction.barrier``).  ``old_value`` is the
        value being overwritten; the rollback runtime appends it to the
        thread's undo log when the thread executes inside a synchronized
        section (paper §3.1.2).

        A support that offers :meth:`read_barrier_guard` keeps its
        ``metrics`` exact: every call bumps ``barrier_fast_hits`` once and
        charges ``cost_model.barrier_fast``, and a call that logs also
        bumps ``barrier_slow_hits`` once and charges
        ``cost_model.barrier_slow``.  The cycle profiler attributes write
        barriers and undo logging from those counts at each flush."""
        return 0

    def store_barrier_cost(self, thread: "VMThread") -> int:
        """Cycles :meth:`before_store` charges ``thread`` for one flagged
        store.  It may depend only on state that stays fixed while the
        thread runs code without monitor ops, such as whether it is inside
        a synchronized section: a superblock reads it once per entry and
        charges it per store, deferring the stores themselves to
        :meth:`before_store_batch` at the run's exit."""
        return 0

    def before_store_batch(self, thread: "VMThread", entries) -> int:
        """Batched write-barrier fast path.

        ``entries`` is a sequence of ``(container, slot, old_value)``
        records — undo-log entries as they stand — in program order: in a predecoded block, a
        run of consecutive barrier stores between two observation points
        (no intervening raising op, read barrier, or yield point); in a
        superblock, every store of one run, passed once at the run's exit
        (the superblock has already charged :meth:`store_barrier_cost`
        per store and ignores the result).  Must be observably equivalent
        to calling :meth:`before_store` once per entry in order; the base
        implementation does exactly that, subclasses may append the run in
        one call."""
        cost = 0
        for container, slot, old_value in entries:
            cost += self.before_store(thread, container, slot, old_value)
        return cost

    def after_load(self, thread: "VMThread", container, slot) -> None:
        """Read-barrier hook: JMM read-write dependency tracking (§2.2).

        Called only in a modified VM, after every heap load; the caller
        charges the barrier's ``cost_model.read_barrier`` cycles.  The
        interpreters pass the location only, not the field's definition:
        whether it is ``volatile`` matters only when the read pins
        another thread's section, so a support looks that up itself, on
        its slow path (array elements are never volatile)."""

    def read_barrier_guard(self):
        """State for a read barrier inlined into predecoded code, or None
        (the default, for a support that runs no read barrier).

        The support of a modified VM must return ``(live, metrics)``: its
        generated code inlines every read barrier's fast path, and
        :func:`repro.vm.predecode.vm_namespace` unpacks the pair, so a
        None there fails loudly.  ``live`` is a dict keyed by thread id,
        mutated only in place; whenever it holds no key other than the
        reader's own tid, :meth:`after_load` must do nothing but bump
        ``metrics.read_barrier_hits``, which the generated code then does
        inline instead of calling it.  A predecoded block evaluates the
        guard ``len(live) > (tid in live)`` at every load.  A superblock
        evaluates it once per entry and declines the entry when it holds
        (the blocks then run the loop), because nothing that runs inside
        it changes ``live`` (its own stores reach
        :meth:`before_store_batch` only at the run's exit); it adds its
        fast-path hits to ``metrics.read_barrier_hits`` at the exit.

        Every :meth:`after_load` call, fast path or not, must bump
        ``read_barrier_hits`` once, and ``metrics`` must be the support's
        own counters, kept as :meth:`before_store` says: the cycle
        profiler watches that object and attributes every barrier from
        its counts at each flush, so the profiled VM runs this same
        support, inline fast path included.
        The fast path pins nothing, so it needs no field's ``volatile``
        flag: that lookup is :meth:`after_load`'s own slow path."""
        return None

    def live_undo_entries(self) -> int:
        """Undo entries currently held across every thread's log (the
        ``undo_log`` counter track), in O(1); a support without undo logs
        holds none."""
        return 0

    # -------------------------------------------------------------- control
    def check_yield(self, thread: "VMThread") -> "RollbackSignal | None":
        """Called at every yield point (and on resume from a block).

        Returns a :class:`~repro.vm.threads.RollbackSignal` when the thread
        must begin revoking a synchronized section, else None.
        """
        return None

    def on_rollback_handler(
        self, thread: "VMThread", section, is_target: bool
    ) -> None:
        """Injected handler bookkeeping: the handler is about to release
        ``section``'s monitor; when ``is_target`` it will then restore state
        and re-execute."""

    def on_native_call(self, thread: "VMThread", name: str) -> None:
        """Native methods are irrevocable (§2.2)."""

    def on_wait(self, thread: "VMThread", monitor: "Monitor") -> None:
        """``wait`` inside synchronized sections restricts revocability (§2.2)."""

    def on_wait_reacquired(
        self, thread: "VMThread", monitor: "Monitor"
    ) -> None:
        """A waiting thread holds ``monitor`` again (handoff or retry)."""

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
