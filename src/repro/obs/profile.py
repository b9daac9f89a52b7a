"""The virtual-cycle profiler.

Where do the cycles go?  The paper's overhead story (§4.2) is a cycle
budget — work vs. write barriers vs. undo logging vs. rollback vs.
scheduling — and this module reconstructs that budget for any run, with
an exactness guarantee the virtual clock makes cheap: the profiler
keeps a mark on the VM's clock and, at each context change, books the
cycles since the mark to the outgoing (track, category), so its
per-track totals sum to the final virtual time with no residue, ever.

Three attribution layers, coarse to fine:

``tracks``
    ``track -> {category -> cycles}``.  One track per VM thread plus the
    ``"(vm)"`` pseudo-track.  Categories: ``guest`` (cycles flushed by an
    interpreter while the thread ran), ``rollback`` (revocation restore
    work, filed by :meth:`CycleProfiler.rollback`), ``switch`` (the
    context-switch cost of dispatching onto the track), ``idle`` (all
    threads asleep) and ``vm`` (everything outside an execution slice).
    The context changes are the scheduler's
    :meth:`CycleProfiler.set_context` calls and the rollback call; reading
    ``tracks`` books the cycles still pending.  Invariant:
    ``sum(all categories of all tracks) == clock.now``.

``methods`` / ``stacks``
    Per-method cycle/instruction totals and folded call-stack totals,
    fed by the interpreters' flush points.  Both engines flush identical
    amounts at identical program points (the parity contract), so these
    tables are interpreter-independent.  Invariant: per track, the sum
    over methods equals the track's ``guest`` cycles.

``mech``
    ``(track, method, mechanism) -> cycles``: the slice of a method's
    cycles spent in runtime-support machinery — ``barrier`` (write-barrier
    fast-path in-sync tests + read barriers), ``undo_log`` (slow-path log
    appends) and ``rollback`` (restores; filed outside the flush
    stream, see the table note in ``docs/observability.md``).  Barrier
    and logging cycles are read off the support's own counters: the VM
    hands :meth:`CycleProfiler.watch_barriers` the
    :class:`~repro.core.metrics.SupportMetrics` that
    :meth:`RuntimeSupport.read_barrier_guard` exposes, and
    :meth:`CycleProfiler.on_flush` charges the hits counted since the
    previous flush, each at its fixed cost, to the flushed frame's
    method — the frame that ran them.  So a profiled VM runs the very
    support object an unprofiled one does, inline fast paths included.
    A support without that guard charges no barrier cycles.  The method
    table's ``monitor`` and ``native`` columns stay in the format and
    read 0: no support charges cycles for those mechanisms.

Superblocks (:mod:`repro.vm.tracecomp`) run under the profiler: a run
changes no context, and it feeds ``on_flush`` one flush for all its
completed iterations, which sums to what the per-iteration flushes would
have fed, under the same keys.

The profiler is purely observational: it never advances the clock, never
touches the RNG and never emits trace events, so ``profile=True`` cannot
change a run's schedule, trace or fingerprint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.clock import VirtualClock
    from repro.vm.threads import Frame, VMThread

#: pseudo-track for cycles not attributable to a guest thread
VM_TRACK = "(vm)"

CAT_GUEST = "guest"
CAT_ROLLBACK = "rollback"
CAT_SWITCH = "switch"
CAT_IDLE = "idle"
CAT_VM = "vm"


class CycleProfiler:
    """Exact per-track cycle attribution, booked at context changes."""

    def __init__(self, clock: "VirtualClock") -> None:
        self.clock = clock
        self._tracks: dict[str, dict[str, int]] = {}
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
        #: clock time booked so far: the cycles after it belong to the
        #: current (track, category)
        self._mark = clock.now
        #: barrier attribution (:meth:`watch_barriers`): the support
        #: metrics whose hit counters count every barrier, the cycles one
        #: hit of each costs, and the counts already attributed, all in
        #: ``(read_barrier, barrier_fast, barrier_slow)`` order.  Profiler
        #: state, so it rides along in snapshots.
        self._watched = None
        self._costs = (0, 0, 0)
        self._seen = (0, 0, 0)

    # ------------------------------------------------------------ booking
    def _book(self, category: str, until: int) -> None:
        """File the cycles from the mark to ``until`` under the current
        track and ``category``."""
        cycles = until - self._mark
        if cycles:
            self._mark = until
            track = self._tracks.get(self._track)
            if track is None:
                track = self._tracks[self._track] = {}
            track[category] = track.get(category, 0) + cycles

    @property
    def tracks(self) -> dict[str, dict[str, int]]:
        """``track -> {category -> cycles}`` up to the current clock."""
        self._book(self._cat, self.clock.now)
        return self._tracks

    def set_context(self, track: str, category: str) -> None:
        """Called by the scheduler around slices/switches/idle jumps."""
        self._book(self._cat, self.clock.now)
        self._track = track
        self._cat = category

    def rollback(self, thread: "VMThread", cycles: int) -> None:
        """A revocation restore just charged ``cycles`` on ``thread``'s
        behalf: file them under ``rollback`` on the current track and
        against ``thread``'s top method.  Restores run at the thread's
        own yield points, so it has a frame."""
        now = self.clock.now
        self._book(self._cat, now - cycles)
        self._book(CAT_ROLLBACK, now)
        if cycles:
            method = thread.frames[-1].method.qualified_name()
            key = (thread.name, method, CAT_ROLLBACK)
            self.mech[key] = self.mech.get(key, 0) + cycles

    def watch_barriers(self, metrics, cost_model) -> None:
        """Attribute barrier and undo-logging cycles from ``metrics``.

        Each read barrier bumps ``read_barrier_hits`` once and costs
        ``read_barrier``; each store barrier bumps ``barrier_fast_hits``
        once and costs ``barrier_fast``, and when it logs, also bumps
        ``barrier_slow_hits`` once and costs ``barrier_slow`` more (the
        contracts of :meth:`RuntimeSupport.read_barrier_guard` and
        :meth:`RuntimeSupport.before_store`).  :meth:`on_flush`
        charges the hits since the previous flush to the flushed frame's
        method: every barrier is flushed with the frame that ran it, so
        this is the key a per-call note would use, and generated code can
        count hits inline instead of calling into the profiler."""
        self._watched = metrics
        self._costs = (
            cost_model.read_barrier,
            cost_model.barrier_fast,
            cost_model.barrier_slow,
        )
        self._seen = (
            metrics.read_barrier_hits,
            metrics.barrier_fast_hits,
            metrics.barrier_slow_hits,
        )

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
        name = frame.method.qualified_name()
        key = (track, name)
        cell = self.methods.get(key)
        if cell is None:
            self.methods[key] = [cycles, insns]
        else:
            cell[0] += cycles
            cell[1] += insns
        m = self._watched
        if m is not None:
            reads = m.read_barrier_hits
            fast = m.barrier_fast_hits
            slow = m.barrier_slow_hits
            seen_reads, seen_fast, seen_slow = self._seen
            if reads != seen_reads or fast != seen_fast or slow != seen_slow:
                self._seen = (reads, fast, slow)
                read_cost, fast_cost, slow_cost = self._costs
                barrier = ((reads - seen_reads) * read_cost
                           + (fast - seen_fast) * fast_cost)
                if barrier:
                    mkey = (track, name, "barrier")
                    self.mech[mkey] = self.mech.get(mkey, 0) + barrier
                undo = (slow - seen_slow) * slow_cost
                if undo:
                    mkey = (track, name, "undo_log")
                    self.mech[mkey] = self.mech.get(mkey, 0) + undo
        if cycles:
            callers = thread.frames[: frame.depth]
            folded = ";".join(
                [f.method.qualified_name() for f in callers]
                + [frame.method.qualified_name()]
            )
            skey = (track, folded)
            self.stacks[skey] = self.stacks.get(skey, 0) + cycles

    # ------------------------------------------------------ blocked time
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
        ``rollback`` is filed outside the flush stream, so it is
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

