"""The virtual-cycle profiler.

Where do the cycles go?  The paper's overhead story (§4.2) is a cycle
budget — work vs. write barriers vs. undo logging vs. rollback vs.
scheduling — and this module reconstructs that budget for any run, with
an exactness guarantee the virtual clock makes cheap: the profiler
listens to **every** clock advance, so its per-track totals sum to the
final virtual time with no residue, ever.

Three attribution layers, coarse to fine:

``tracks``
    ``track -> {category -> cycles}``.  One track per VM thread plus the
    ``"(vm)"`` pseudo-track.  Categories: ``guest`` (cycles flushed by an
    interpreter while the thread ran), ``rollback`` (revocation restore
    work charged via :meth:`JVM.charge`), ``switch`` (the context-switch
    cost of dispatching onto the track), ``idle`` (all threads asleep)
    and ``vm`` (everything outside an execution slice).  Invariant:
    ``sum(all categories of all tracks) == clock.now``.

``methods`` / ``stacks``
    Per-method cycle/instruction totals and folded call-stack totals,
    fed by the interpreters' flush points.  Both engines flush identical
    amounts at identical program points (the parity contract), so these
    tables are interpreter-independent.  Invariant: per track, the sum
    over methods equals the track's ``guest`` cycles.

``mech``
    ``(track, method, mechanism) -> cycles``: the slice of a method's
    cycles spent in runtime-support machinery — ``barrier`` (fast-path
    in-sync tests + read barriers), ``undo_log`` (slow-path log
    appends), ``monitor`` (enter/exit/contention/wait bookkeeping),
    ``native`` (trampolines) and ``rollback`` (restores; charged outside
    the flush stream, see the table note in ``docs/observability.md``).
    Captured by wrapping the installed :class:`RuntimeSupport` in a
    :class:`ProfilingSupport` proxy; the unmodified VM's hooks all cost
    zero, so its ``mech`` table stays empty.

The profiler is purely observational: it never advances the clock, never
touches the RNG and never emits trace events, so ``profile=True`` cannot
change a run's schedule, trace or fingerprint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.monitors import Monitor
    from repro.vm.threads import Frame, VMThread

#: pseudo-track for cycles not attributable to a guest thread
VM_TRACK = "(vm)"

CAT_GUEST = "guest"
CAT_ROLLBACK = "rollback"
CAT_SWITCH = "switch"
CAT_IDLE = "idle"
CAT_VM = "vm"


class CycleProfiler:
    """Exact per-track cycle attribution via the clock-listener seam."""

    def __init__(self) -> None:
        self.tracks: dict[str, dict[str, int]] = {}
        #: (track, qualified method name) -> [cycles, instructions]
        self.methods: dict[tuple[str, str], list[int]] = {}
        #: (track, "caller;...;callee") -> cycles
        self.stacks: dict[tuple[str, str], int] = {}
        #: (track, qualified method name, mechanism) -> cycles
        self.mech: dict[tuple[str, str, str], int] = {}
        #: track -> cycles spent parked on monitor entry queues.  NOT a
        #: clock partition (blocked time overlaps other threads' running
        #: time); credited by :meth:`JVM.credit_blocked` at the exact
        #: moment ``VMThread.blocked_cycles`` is, so the two always agree.
        self.blocked: dict[str, int] = {}
        self._track = VM_TRACK
        self._cat = CAT_VM

    # ------------------------------------------------------- clock listener
    def __call__(self, cycles: int) -> None:
        """Clock-listener entry point: every advance lands here."""
        if cycles:
            track = self.tracks.get(self._track)
            if track is None:
                track = self.tracks[self._track] = {}
            track[self._cat] = track.get(self._cat, 0) + cycles

    # ------------------------------------------------- scheduler bracketing
    def set_context(self, track: str, category: str) -> None:
        """Called by the scheduler around slices/switches/idle jumps."""
        self._track = track
        self._cat = category

    def push_category(self, category: str) -> str:
        """Temporarily recategorize advances (``JVM.charge(kind=...)``)."""
        prev = self._cat
        self._cat = category
        return prev

    def pop_category(self, prev: str) -> None:
        self._cat = prev

    # --------------------------------------------------- interpreter flush
    def on_flush(
        self, thread: "VMThread", frame: "Frame", cycles: int, insns: int
    ) -> None:
        """One interpreter flush: ``cycles``/``insns`` executed in
        ``frame``'s method since the previous flush.

        ``frame`` may already be popped (the RETURN flush) or may not be
        the top of stack (the INVOKE flush runs after the callee frame is
        pushed); ``frame.depth`` indexes its caller prefix either way.
        """
        track = thread.name
        key = (track, frame.method.qualified_name())
        cell = self.methods.get(key)
        if cell is None:
            self.methods[key] = [cycles, insns]
        else:
            cell[0] += cycles
            cell[1] += insns
        if cycles:
            callers = thread.frames[: frame.depth]
            folded = ";".join(
                [f.method.qualified_name() for f in callers]
                + [frame.method.qualified_name()]
            )
            skey = (track, folded)
            self.stacks[skey] = self.stacks.get(skey, 0) + cycles

    # --------------------------------------------------- mechanism splits
    def note_mechanism(
        self, thread: Optional["VMThread"], mechanism: str, cycles: int
    ) -> None:
        if not cycles:
            return
        track = thread.name if thread is not None else VM_TRACK
        if thread is not None and thread.frames:
            method = thread.frames[-1].method.qualified_name()
        else:
            method = "(no frame)"
        key = (track, method, mechanism)
        self.mech[key] = self.mech.get(key, 0) + cycles

    def note_blocked(self, track: str, cycles: int) -> None:
        """One closed blocked interval on ``track`` (entry-queue park →
        grant/wake).  Fed exclusively through ``JVM.credit_blocked``."""
        if cycles:
            self.blocked[track] = self.blocked.get(track, 0) + cycles

    # ------------------------------------------------------------- queries
    def total_cycles(self) -> int:
        return sum(
            cycles
            for cats in self.tracks.values()
            for cycles in cats.values()
        )

    def track_totals(self) -> dict[str, int]:
        return {
            track: sum(cats.values())
            for track, cats in sorted(self.tracks.items())
        }

    def category_totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for cats in self.tracks.values():
            for cat, cycles in cats.items():
                out[cat] = out.get(cat, 0) + cycles
        return dict(sorted(out.items()))

    def snapshot(self) -> dict:
        """Plain picklable summary: sorted tracks, grand total, method
        table.  The form stored in capture artifacts and RunResults."""
        return {
            "tracks": {
                track: dict(sorted(cats.items()))
                for track, cats in sorted(self.tracks.items())
            },
            "total": self.total_cycles(),
            "blocked": dict(sorted(self.blocked.items())),
            "methods": self.method_table(),
        }

    def method_table(self, top: int = 0) -> list[dict]:
        """Per-method rows, heaviest first (deterministic tie-break).

        Each row splits the method's flushed cycles into mechanism
        buckets plus ``work`` (the remainder: pure guest computation).
        ``rollback`` is charged outside the flush stream, so it is
        reported as an extra column, not subtracted from ``work``.
        """
        mech_by_method: dict[tuple[str, str], dict[str, int]] = {}
        for (track, method, mechanism), cycles in self.mech.items():
            split = mech_by_method.setdefault((track, method), {})
            split[mechanism] = split.get(mechanism, 0) + cycles
        rows = []
        for (track, method), (cycles, insns) in self.methods.items():
            split = mech_by_method.get((track, method), {})
            inflush = sum(
                v for k, v in split.items() if k != CAT_ROLLBACK
            )
            rows.append(
                {
                    "thread": track,
                    "method": method,
                    "cycles": cycles,
                    "insns": insns,
                    "work": max(0, cycles - inflush),
                    "barrier": split.get("barrier", 0),
                    "undo_log": split.get("undo_log", 0),
                    "monitor": split.get("monitor", 0),
                    "native": split.get("native", 0),
                    "rollback": split.get(CAT_ROLLBACK, 0),
                }
            )
        rows.sort(key=lambda r: (-r["cycles"], r["thread"], r["method"]))
        return rows[:top] if top else rows


class ProfilingSupport:
    """Delegating :class:`RuntimeSupport` wrapper that observes the extra
    cycle costs the installed support charges, splitting them by
    mechanism.  Pure pass-through otherwise — same costs, same signals,
    same state — so profiled and unprofiled runs are byte-identical.
    """

    def __init__(self, inner, profiler: CycleProfiler) -> None:
        self.inner = inner
        self.profiler = profiler

    def __getattr__(self, name):
        if name == "inner":
            # copy/pickle reconstruct probes attributes on an empty
            # instance before __dict__ is restored; without this guard
            # the delegation recurses forever.
            raise AttributeError(name)
        return getattr(self.inner, name)

    # ------------------------------------------------------------- barriers
    def before_store(self, thread, container, slot, old_value, volatile):
        cost = self.inner.before_store(
            thread, container, slot, old_value, volatile
        )
        if cost:
            fast = self.inner.vm.cost_model.barrier_fast
            if cost > fast:
                self.profiler.note_mechanism(thread, "barrier", fast)
                self.profiler.note_mechanism(
                    thread, "undo_log", cost - fast
                )
            else:
                self.profiler.note_mechanism(thread, "barrier", cost)
        return cost

    def before_store_batch(self, thread, entries):
        # Explicit wrapper (``__getattr__`` delegation would silently skip
        # attribution): same fast/slow split as before_store, applied to
        # the whole run at once so totals match the per-entry path.
        cost = self.inner.before_store_batch(thread, entries)
        if cost:
            fast = self.inner.vm.cost_model.barrier_fast * len(entries)
            if cost > fast:
                self.profiler.note_mechanism(thread, "barrier", fast)
                self.profiler.note_mechanism(
                    thread, "undo_log", cost - fast
                )
            else:
                self.profiler.note_mechanism(thread, "barrier", cost)
        return cost

    def after_load(self, thread, container, slot, volatile):
        cost = self.inner.after_load(thread, container, slot, volatile)
        self.profiler.note_mechanism(thread, "barrier", cost)
        return cost

    def read_barrier_guard(self):
        # No inline fast path under the profiler: every read barrier must
        # come through after_load above to be attributed to ``barrier``.
        return None

    # ------------------------------------------------------------- monitors
    def on_monitor_entered(self, thread, monitor, frame, sync_id, recursive):
        cost = self.inner.on_monitor_entered(
            thread, monitor, frame, sync_id, recursive
        )
        self.profiler.note_mechanism(thread, "monitor", cost)
        return cost

    def on_monitor_exited(self, thread, monitor, frame, sync_id):
        cost = self.inner.on_monitor_exited(thread, monitor, frame, sync_id)
        self.profiler.note_mechanism(thread, "monitor", cost)
        return cost

    def on_contended_acquire(self, thread, monitor):
        cost = self.inner.on_contended_acquire(thread, monitor)
        self.profiler.note_mechanism(thread, "monitor", cost)
        return cost

    def on_handoff(self, releaser, monitor, new_owner):
        cost = self.inner.on_handoff(releaser, monitor, new_owner)
        self.profiler.note_mechanism(releaser, "monitor", cost)
        return cost

    def on_wait(self, thread, monitor):
        cost = self.inner.on_wait(thread, monitor)
        self.profiler.note_mechanism(thread, "monitor", cost)
        return cost

    def on_wait_reacquired(self, thread, monitor):
        cost = self.inner.on_wait_reacquired(thread, monitor)
        self.profiler.note_mechanism(thread, "monitor", cost)
        return cost

    # -------------------------------------------------------------- control
    def on_native_call(self, thread, name):
        cost = self.inner.on_native_call(thread, name)
        self.profiler.note_mechanism(thread, "native", cost)
        return cost

    def on_rollback_handler(self, thread, section, is_target):
        cost = self.inner.on_rollback_handler(thread, section, is_target)
        self.profiler.note_mechanism(thread, CAT_ROLLBACK, cost)
        return cost
