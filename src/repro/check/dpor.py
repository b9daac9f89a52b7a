"""Dynamic partial-order reduction (DPOR) with sleep sets for `repro.check`.

The exhaustive strategy in :mod:`repro.check.explorer` enumerates every
bounded-preemption choice prefix — sound but hopeless past 2-3 threads.
This module adds the Flanagan-Godefroid algorithm on top of the same
decision-hook seam: explore one interleaving, watch the *trace* the VM
already emits (``mem_read`` / ``mem_write`` / monitor / revocation
events) to find pairs of concurrent conflicting transitions, and add
backtrack points only where reordering could matter.  Sleep sets carry
"already explored from an equivalent state" facts downward so redundant
branches are pruned before they execute.  The result visits one
interleaving per Mazurkiewicz trace (equivalence class) instead of one
per schedule — the soundness battery in ``tests/test_check_dpor.py``
pins that the reduced set reaches the *identical* set of final-state
fingerprints as full enumeration wherever full enumeration is feasible.

Three design points anchor soundness:

* **Happens-before via vector clocks.**  Each committed transition gets a
  vector clock: the max of the executing thread's clock and the clocks of
  every earlier *dependent* transition.  A prior transition races with the
  new one iff it is dependent and not already in the accumulated causal
  past — the standard backward scan that merges clocks as it walks so
  dependence chains through third threads are honoured.
* **Conservative dependence.**  Footprints are extracted from trace
  events: reads/writes by location, monitor operations by monitor
  identity.  Any event kind that is not provably thread-local —
  revocation requests and denials, rollbacks, waits/notifies, wakeups,
  deadlock resolution — marks the slice *global*: dependent with
  everything.  Revocation timing depends on the virtual clock (grace
  windows, site backoff), so pretending those slices commute would drop
  real schedules; we sacrifice reduction for soundness instead.
* **Deterministic re-execution.**  The VM is fully deterministic given a
  choice sequence, so a thread's next transition from a given state is a
  fixed function of the state.  Sleep sets exploit exactly this: the
  footprint recorded when a choice's subtree completes *is* the footprint
  that choice would have again, even when the slice re-executes a rolled
  back synchronized section.

Exploration itself runs the reference policy with memory tracing (which
turns the interpreter's predecode tier off); the complete schedules it
emits are then farmed through :func:`repro.check.explorer.run_check_cell`
exactly like exhaustive cells — same differential oracle, same
counterexample / ddmin / replay pipeline, same content-addressed cache,
byte-identical reports for any worker count.

Rather than replaying every explored prefix from cycle zero, the engine
checkpoints the VM (:mod:`repro.vm.snapshot`) at decision points.  The
stepping run is the VM's decision hook, and a snapshot captures the
hook, so one :func:`~repro.vm.snapshot.restore_vm` brings back the VM
together with its committed schedule and pending decision — the same
resume path the time-travel debugger uses.  Snapshots are taken
sparsely (every :data:`SNAPSHOT_INTERVAL` levels of the DFS stack):
repositioning restores the nearest ancestor checkpoint and replays at
most ``SNAPSHOT_INTERVAL - 1`` recorded choices, trading a bounded
amount of deterministic re-execution for an order of magnitude fewer
serializations (each snapshot is one ``pickle.dumps`` of the VM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.check.explorer import (
    DEFAULT_MODES,
    CheckItem,
    ExplorationReport,
    check_vm,
    run_check_cell,
    summarize_results,
)
from repro.check.scenarios import CheckScenario, get_scenario
from repro.errors import run_outcome
from repro.vm.snapshot import VMSnapshot, restore_vm, snapshot_vm

#: take a full VM snapshot at stack depths divisible by this; states in
#: between are repositioned by replaying their recorded choices from the
#: nearest shallower checkpoint
SNAPSHOT_INTERVAL = 8

# --------------------------------------------------------------------------
# footprints: what a slice did, as seen through the trace
# --------------------------------------------------------------------------

#: the "touches everything" footprint element — see module docstring
GLOBAL = ("g", None)

#: event kinds whose ``details["mon"]`` scopes their dependence to one
#: monitor: the plain monitor protocol, plus the revocation state machine
#: (requests, grants, completions, nonrevocable pins) whose decisions are
#: functions of monitor/section state alone
_MONITOR_KINDS = frozenset({
    "acquire", "release", "block",
    "wait", "wait_return", "wait_timeout", "notify",
    "rollback_done", "rollback_release", "handoff_returned",
    "leaked_monitor",
    "revocation_request", "rollback_begin", "nonrevocable",
})

#: ``revocation_denied`` reasons decided purely from monitor/section
#: state; denials from the robustness ladder (grace windows, per-site
#: backoff, degradation) read the virtual clock or cross-execution site
#: records and stay GLOBAL
_DENIED_MONITOR_REASONS = frozenset({"stale", "nonrevocable", "cost"})

#: event kinds that never induce dependence beyond program order: pure
#: bookkeeping on the emitting thread.  ``unwind`` is frame surgery on
#: the rolling-back thread; ``wakeup`` marks a thread turning runnable,
#: whose *cause* (release / notify / timer) is traced with its own
#: footprint in the same slice.  Everything not listed here and not
#: precisely interpreted above is conservatively GLOBAL.
_LOCAL_KINDS = frozenset({
    "mem_read", "mem_write", "spawn", "exit", "catch", "debug",
    "schedule_choice", "uncaught", "unwind", "wakeup",
})


def slice_footprint(events) -> frozenset:
    """Reduce one slice's trace events to a conflict footprint.

    Elements are ``("r", loc)`` / ``("w", loc)`` for tracked memory
    accesses, ``("m", label)`` for monitor-scoped operations, and
    :data:`GLOBAL` for anything whose dependence we cannot bound —
    grace/backoff windows, ladder degradation, deadlock resolution: all
    clock- or cross-site-mediated, so pretending they commute would drop
    schedules."""
    fp = set()
    for event in events:
        kind = event.kind
        if kind == "mem_read":
            fp.add(("r", tuple(event.details["loc"])))
        elif kind == "mem_write":
            fp.add(("w", tuple(event.details["loc"])))
        elif kind in _MONITOR_KINDS:
            fp.add(("m", event.details["mon"]))
        elif (
            kind == "revocation_denied"
            and event.details.get("reason") in _DENIED_MONITOR_REASONS
        ):
            fp.add(("m", event.details["mon"]))
        elif kind not in _LOCAL_KINDS:
            fp.add(GLOBAL)
    return frozenset(fp)


def footprints_conflict(a: frozenset, b: frozenset) -> bool:
    """Dependence relation between two slices.

    Conflict iff either is GLOBAL, both touch the same monitor, or both
    touch the same location with at least one write.  Purely local slices
    (empty footprint) commute with everything non-GLOBAL."""
    if GLOBAL in a or GLOBAL in b:
        return True
    if len(a) > len(b):
        a, b = b, a
    for tag, key in a:
        if tag == "w":
            if ("w", key) in b or ("r", key) in b:
                return True
        elif tag == "r":
            if ("w", key) in b:
                return True
        else:  # monitor op: any op on the same monitor orders the slices
            if ("m", key) in b:
                return True
    return False


# --------------------------------------------------------------------------
# SteppingRun: drive one check run decision-by-decision
# --------------------------------------------------------------------------


class _PeekSignal(Exception):
    """Aborts a scheduler step inside the decision hook, exposing the
    candidate set without executing anything."""

    def __init__(self, tids: tuple[int, ...]) -> None:
        self.tids = tids


class SteppingRun:
    """One scenario run, paused at every scheduling decision.

    The protocol is ``advance() -> ("decision", tids) | ("done", outcome)``
    then ``choose(tid)`` to commit one decision and execute its slice.

    The run installs itself as its VM's decision hook, so the committed
    schedule and the pending decision are VM state.  Between ``advance``
    and ``choose`` the VM is quiescent: :meth:`checkpoint` is one
    :func:`~repro.vm.snapshot.snapshot_vm` of it, and :meth:`resume`
    restores an independent continuation from that snapshot, whose hook
    is the restored copy of the run, positioned at the same decision.

    Runs use the checker VM (:func:`repro.check.explorer.check_vm`) plus
    tracing (memory tracing forces the reference interpreter —
    exploration needs per-location events), so a schedule found here
    replays identically through the normal cell pipeline.
    """

    def __init__(
        self,
        scenario: CheckScenario,
        mode: str,
        *,
        inject: Optional[str] = None,
        interp: Optional[str] = None,
        trace_memory: bool = True,
    ) -> None:
        overrides = {"trace": True, "trace_memory": trace_memory}
        if interp is not None:
            overrides["interp"] = interp
        self.vm = check_vm(scenario, mode, inject=inject, **overrides)
        self.vm.scheduler.decision_hook = self
        self._peeking = False
        self._forced: Optional[int] = None
        #: committed choices so far (the prefix of a check schedule)
        self.schedule: list[int] = []
        #: candidate tids at the currently paused decision, else None
        self.pending: Optional[tuple[int, ...]] = None
        self.outcome: Optional[str] = None
        self.vm.begin_run()

    def __call__(self, cands) -> int:
        tids = tuple(t.tid for t in cands)
        if self._peeking:
            raise _PeekSignal(tids)
        if self._forced is None:
            raise RuntimeError("scheduling decision without a choice")
        if tids != self.pending:
            raise RuntimeError(
                f"determinism violation: candidates {tids} at replayed "
                f"decision, expected {self.pending}"
            )
        forced, self._forced = self._forced, None
        return forced

    # ------------------------------------------------------------- protocol
    def _run(self) -> None:
        while self.vm.scheduler.step() is not None:
            pass
        self.vm.finish_run()

    def advance(self) -> tuple[str, object]:
        """Run until the next decision or to termination (idempotent)."""
        if self.outcome is None and self.pending is None:
            self._peeking = True
            try:
                self.outcome = run_outcome(self._run)
            except _PeekSignal as sig:
                # the aborted probe counted a decision; undo it
                self.vm.scheduler.decisions -= 1
                self.pending = sig.tids
            finally:
                self._peeking = False
        if self.outcome is not None:
            return ("done", self.outcome)
        return ("decision", self.pending)

    def choose(self, tid: int) -> None:
        """Commit ``tid`` at the pending decision and run its slice."""
        if self.pending is None:
            raise RuntimeError("choose() without a pending decision")
        if tid not in self.pending:
            raise ValueError(f"{tid} not a candidate in {self.pending}")
        self.schedule.append(tid)
        self._forced = tid
        try:
            outcome = run_outcome(self.vm.scheduler.step)
        finally:
            self.pending = None
        if outcome != "completed":  # the slice ended the run
            self.outcome = outcome

    def default_choice(self, tids: tuple[int, ...]) -> int:
        """The deterministic default policy's pick, mirroring
        :meth:`repro.check.explorer.ScheduleController._default_choice`:
        keep the thread that ran the previous slice while it stays ready,
        else the head of the candidate order."""
        last = self.vm.scheduler._last
        if last is not None and last.tid in tids:
            return last.tid
        return tids[0]

    def drive(self, choices=()) -> str:
        """Run to completion: force ``choices`` positionally (falling back
        to the default policy on drift, as the replay controller does),
        then default-continue.  Returns the outcome string."""
        choices = tuple(choices)
        index = len(self.schedule)
        while True:
            kind, data = self.advance()
            if kind == "done":
                return data
            want = choices[index] if index < len(choices) else None
            if want is None or want not in data:
                want = self.default_choice(data)
            self.choose(want)
            index += 1

    # ----------------------------------------------------------- snapshots
    def checkpoint(self) -> VMSnapshot:
        """Capture the run at the pending decision."""
        if self.pending is None:
            raise RuntimeError("checkpoint() requires a pending decision")
        return snapshot_vm(self.vm)

    @staticmethod
    def resume(snapshot: VMSnapshot) -> "SteppingRun":
        """Clone an independent run positioned at the snapshot's
        decision.  May be called any number of times per snapshot."""
        return restore_vm(snapshot).scheduler.decision_hook


# --------------------------------------------------------------------------
# the DPOR engine
# --------------------------------------------------------------------------


@dataclass
class _Transition:
    """One committed slice on the current DFS path."""

    tid: int
    footprint: frozenset
    #: vector clock *after* the transition: tid -> 1-based path position
    clock: dict
    #: this transition's own 1-based position on the path
    pos: int


@dataclass
class _State:
    """One decision point on the DFS stack (pre-state of path[depth])."""

    #: enabled candidates in scheduler order
    tids: tuple[int, ...]
    #: full VM checkpoint, or None for replay-repositioned states
    checkpoint: Optional[VMSnapshot]
    #: thread -> footprint of its (fixed, deterministic) next transition,
    #: for threads whose subtree was already explored from an equivalent
    #: state — never re-explore unless something dependent ran
    sleep: dict
    #: per-thread vector clocks on entry, for restoration on backtrack
    clocks: dict
    backtrack: set = field(default_factory=set)
    #: choices fully explored from here (tid -> first-slice footprint)
    done: dict = field(default_factory=dict)


class DporExplorer:
    """Depth-first DPOR search over one scenario under one policy."""

    def __init__(
        self,
        scenario_name: str,
        *,
        mode: str = DEFAULT_MODES[0],
        inject: Optional[str] = None,
        max_schedules: int = 200_000,
    ) -> None:
        self.scenario = get_scenario(scenario_name)
        self.mode = mode
        self.inject = inject
        self.max_schedules = max_schedules
        #: complete interleavings executed
        self.explored = 0
        #: prefixes abandoned because every enabled thread was asleep
        self.pruned = 0
        #: distinct transitions committed by the search (excl. replays)
        self.transitions = 0
        #: checkpoint restores (each one clones a snapshot)
        self.restores = 0
        #: transitions re-executed while repositioning between snapshots
        self.replayed = 0

    # ------------------------------------------------------------ positioning
    def _fresh_run(self) -> SteppingRun:
        return SteppingRun(self.scenario, self.mode, inject=self.inject)

    def _make_state(self, run, tids, sleep, clocks) -> _State:
        depth = len(run.schedule)
        want_snap = depth % SNAPSHOT_INTERVAL == 0
        state = _State(
            tids=tuple(tids),
            checkpoint=run.checkpoint() if want_snap else None,
            sleep=dict(sleep),
            clocks={t: dict(vc) for t, vc in clocks.items()},
        )
        for tid in state.tids:
            if tid not in state.sleep:
                state.backtrack.add(tid)
                break
        return state

    def _reposition(self, stack, path) -> SteppingRun:
        """Produce a live run paused at ``stack[-1]``'s decision by
        restoring the nearest ancestor checkpoint and replaying the
        recorded choices between it and the target."""
        depth = len(stack) - 1
        anchor = depth
        while stack[anchor].checkpoint is None:
            anchor -= 1
        run = SteppingRun.resume(stack[anchor].checkpoint)
        self.restores += 1
        for transition in path[anchor:depth]:
            run.choose(transition.tid)
            kind, data = run.advance()
            if kind != "decision":
                raise RuntimeError(
                    "determinism violation: replay terminated early"
                )
            self.replayed += 1
        if run.pending != stack[depth].tids:
            raise RuntimeError(
                "determinism violation: repositioned candidates "
                f"{run.pending} != recorded {stack[depth].tids}"
            )
        return run

    # ---------------------------------------------------------- race analysis
    def _commit(self, tid, footprint, path, clocks, stack) -> _Transition:
        """Vector-clock bookkeeping for a newly executed transition, plus
        backtrack-point insertion at every race it closes.

        Backward scan with merge: ``base`` starts as the executing
        thread's clock; walking earlier transitions newest-first, a
        dependent transition not yet covered by ``base`` is a *race*
        (concurrent + conflicting) and seeds a backtrack point at its
        pre-state; covered or not, a dependent transition's clock then
        merges into ``base`` so dependence chains through other threads
        are honoured for the remainder of the scan."""
        pos = len(path) + 1
        base = dict(clocks.get(tid, {}))
        for j in range(len(path) - 1, -1, -1):
            prior = path[j]
            if prior.tid == tid:
                continue  # program order: already inside base
            if not footprints_conflict(footprint, prior.footprint):
                continue
            if prior.pos > base.get(prior.tid, 0):
                self._add_backtrack(stack[j], tid)
            for k, v in prior.clock.items():
                if v > base.get(k, 0):
                    base[k] = v
        base[tid] = pos
        clocks[tid] = dict(base)
        self.transitions += 1
        return _Transition(tid=tid, footprint=footprint, clock=base,
                           pos=pos)

    @staticmethod
    def _add_backtrack(state: _State, tid: int) -> None:
        """Flanagan-Godefroid backtrack insertion, conservative variant:
        schedule the racing thread at the race's pre-state when it was
        enabled there, otherwise every enabled thread (selection later
        skips done/slept entries)."""
        if tid in state.tids:
            state.backtrack.add(tid)
        else:
            state.backtrack.update(state.tids)

    @staticmethod
    def _select(state: _State) -> Optional[int]:
        """Next unexplored backtrack choice, in candidate order."""
        for tid in state.tids:
            if (
                tid in state.backtrack
                and tid not in state.done
                and tid not in state.sleep
            ):
                return tid
        return None

    # -------------------------------------------------------------- main loop
    def explore(self) -> list[tuple[int, ...]]:
        """Run the DFS; returns the explored complete schedules in
        deterministic search order."""
        run = self._fresh_run()
        kind, data = run.advance()
        if kind == "done":
            # no scheduling decisions at all: the single execution
            self.explored = 1
            return [()]

        schedules: list[tuple[int, ...]] = []
        clocks: dict[int, dict] = {}
        stack: list[_State] = [self._make_state(run, data, {}, clocks)]
        path: list[_Transition] = []
        live: Optional[SteppingRun] = run

        def retire(last: _Transition) -> None:
            """The subtree under ``last`` is exhausted: record it done at
            its pre-state and put it to sleep there — determinism fixes
            its footprint, so any sibling branch in which nothing
            dependent ran need not re-explore it."""
            state = stack[-1]
            state.done[last.tid] = last.footprint
            state.sleep[last.tid] = last.footprint

        while stack:
            state = stack[-1]
            pick = self._select(state)
            if pick is None:
                if not state.done:
                    # nothing explorable: every enabled thread slept
                    self.pruned += 1
                stack.pop()
                if stack:
                    retire(path.pop())
                live = None
                continue
            if live is None:
                live = self._reposition(stack, path)
                clocks = {t: dict(vc) for t, vc in state.clocks.items()}
            event_mark = len(live.vm.tracer.events)
            live.choose(pick)
            kind, data = live.advance()
            footprint = slice_footprint(
                live.vm.tracer.events[event_mark:]
            )
            path.append(
                self._commit(pick, footprint, path, clocks, stack)
            )
            if kind == "decision":
                child_sleep = {
                    t: fp
                    for t, fp in state.sleep.items()
                    if t != pick and not footprints_conflict(fp, footprint)
                }
                stack.append(
                    self._make_state(live, data, child_sleep, clocks)
                )
            else:
                self.explored += 1
                if self.explored > self.max_schedules:
                    raise RuntimeError(
                        f"DPOR exceeded {self.max_schedules} schedules; "
                        "shrink the scenario or raise max_schedules"
                    )
                schedules.append(tuple(live.schedule))
                retire(path.pop())
                live = None
        return schedules


def explore_dpor(
    scenario_name: str,
    *,
    modes: tuple[str, ...] = DEFAULT_MODES,
    inject: Optional[str] = None,
    engine=None,
    max_schedules: int = 200_000,
) -> ExplorationReport:
    """DPOR search plus the standard differential-oracle cell pipeline.

    The search runs in-process (it is inherently sequential); the explored
    schedules then fan out through ``engine`` exactly like exhaustive
    prefixes, so caching, determinism across worker counts, divergence
    reporting and counterexample handling are all shared code paths.
    ``bound`` is reported as ``-1``: DPOR needs no preemption bound."""
    modes = tuple(modes)
    if engine is None:
        from repro.bench.parallel import RunEngine

        engine = RunEngine(jobs=1)
    explorer = DporExplorer(
        scenario_name,
        mode=modes[0],
        inject=inject,
        max_schedules=max_schedules,
    )
    schedules = explorer.explore()
    items = [
        CheckItem(scenario_name, prefix, modes, inject)
        for prefix in schedules
    ]
    executed = engine.map(run_check_cell, items)
    return summarize_results(
        scenario_name,
        -1,
        modes,
        executed,
        [],
        strategy="dpor",
        explored=explorer.explored,
        pruned=explorer.pruned,
        transitions=explorer.transitions,
        restores=explorer.restores,
    )
