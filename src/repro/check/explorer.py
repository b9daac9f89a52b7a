"""CHESS-style bounded schedule exploration over the deterministic VM.

The scheduler's pluggable decision hook (:mod:`repro.vm.scheduler`) is the
entire interface to the VM: at every scheduling decision the hook sees the
ordered READY candidates and picks a tid.  Exploration VMs run with a
one-cycle quantum so *every yield point* is a decision point — the
granularity at which pseudo-preemption can occur at all (paper footnote 4).

Search is stateless (no VM snapshots): a schedule is identified by its
*choice prefix*; replaying a prefix and then following the deterministic
default policy (keep running the last thread while it stays ready,
otherwise take the first candidate) re-creates the state.  From each
executed schedule, children are derived by substituting every unchosen
candidate at every decision at or past the prefix, keeping only children
whose **preemption count** — decisions that switch away from a thread that
was still ready — stays within the bound.  With preemptions bounded and
guest programs finite, the prefix space is finite and BFS terminates;
bounded-preemption search is the CHESS result that most concurrency bugs
hide at very small preemption counts.

Each executed schedule is one *cell*: run the reference policy under the
controller, then replay the recorded choice sequence under every other
policy and hand the outcomes to the differential oracle
(:mod:`repro.check.oracle`).  Cells are pure functions of their
:class:`CheckItem`, so they fan out across worker processes through the
:class:`repro.bench.parallel.RunEngine` and land in its content-addressed
result cache; BFS waves reduce in deterministic order, keeping every
report byte-identical for any worker count.

Replaying a rollback-policy schedule under a blocking policy is
*projection*, not simulation: revocations change how many decisions a run
takes and which threads are ready at each one.  When a recorded choice
names a thread that is not a candidate, the controller falls back to the
default policy for that decision and counts *drift* — the embodiment of
"equivalent modulo legal serialization order".

:class:`ScheduleController` is the checker's one decision hook: cells,
counterexample replays and the DPOR stepping run
(:class:`repro.check.dpor.SteppingRun`, a controller that pauses past
its prefix instead of continuing) all replay prefixes through it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Optional

from repro.bench.parallel import RunEngine, run_key
from repro.bench.workloads import Scenario, lookup_scenario
from repro.check.oracle import (
    check_expectations,
    divergence_problems,
    final_fingerprint,
    fingerprint_digest,
)
from repro.errors import run_outcome
from repro.util.rng import DeterministicRng, sweep_seed
from repro.vm.clock import CostModel
from repro.vm.vmcore import JVM, VMOptions

#: policies compared by default; index 0 is the reference (exploration) mode
DEFAULT_MODES = ("rollback", "inheritance", "unmodified")

#: per-run cycle cap: exploration programs are tiny, so anything that runs
#: this long is livelocked and should fail loudly, not hang the search
CHECK_CYCLE_CAP = 5_000_000

#: fixed VM seed for all check runs — schedules come from the controller,
#: not from arrival randomness, so every cell shares one seed
CHECK_VM_SEED = 0x5EED

#: named seeded defects for counterexample fixtures (CLI ``--inject-bug``)
INJECTABLE_BUGS = ("undo-drop",)


class ScheduleController:
    """Decision hook that replays a choice prefix, then continues with the
    deterministic default policy or a seeded bounded random walk.

    Records the full decision trace (candidates and choice at every
    decision), the preemption count, and the drift count (prefix choices
    that were not candidates when replayed — see module docstring).
    Subclasses change what happens past the prefix by overriding
    :meth:`_continue` (the DPOR stepping run pauses there).
    """

    def __init__(
        self,
        prefix: tuple[int, ...] = (),
        *,
        rng: Optional[DeterministicRng] = None,
        bound: Optional[int] = None,
    ) -> None:
        self.prefix = tuple(prefix)
        self.rng = rng
        self.bound = bound
        self.preemptions = 0
        self.drift = 0
        #: [(candidate tids, chosen tid)] per decision
        self.trace: list[tuple[tuple[int, ...], int]] = []
        self._last: Optional[int] = None

    @property
    def schedule(self) -> list[int]:
        return [chosen for _, chosen in self.trace]

    def __call__(self, candidates) -> int:
        tids = tuple(t.tid for t in candidates)
        index = len(self.trace)
        if index < len(self.prefix) and self.prefix[index] in tids:
            chosen = self.prefix[index]
        else:
            if index < len(self.prefix):
                self.drift += 1
            chosen = self._continue(tids)
        if (
            self._last is not None
            and self._last in tids
            and chosen != self._last
        ):
            self.preemptions += 1
        self._last = chosen
        self.trace.append((tids, chosen))
        return chosen

    def default_choice(self, tids: tuple[int, ...]) -> int:
        """Zero-preemption continuation: keep the last thread while it is
        still ready, otherwise the head of the candidate order."""
        if self._last is not None and self._last in tids:
            return self._last
        return tids[0]

    def _continue(self, tids: tuple[int, ...]) -> int:
        """The pick past the prefix and on drift: the default policy, or
        the seeded random walk honouring the preemption budget — once
        the budget is spent, preemptive switches are off the menu."""
        if self.rng is None:
            return self.default_choice(tids)
        if (
            self.bound is not None
            and self.preemptions >= self.bound
            and self._last is not None
            and self._last in tids
        ):
            return self._last
        return self.rng.choice(tids)


def _inject_plan(inject: Optional[str]):
    if inject is None:
        return None
    from repro.faults.plane import FaultPlan

    if inject == "undo-drop":
        # Every rollback loses one undo entry: the canonical seeded
        # serializability defect for counterexample round-trips.
        return FaultPlan(undo_drop_rate=1.0)
    raise ValueError(
        f"unknown injected bug {inject!r}; known: {INJECTABLE_BUGS}"
    )


def check_vm(
    scenario: Scenario,
    mode: str,
    *,
    inject: Optional[str] = None,
    **overrides,
) -> JVM:
    """The checker VM: one-cycle quantum, fixed seed, cycle cap and the
    injected-bug plan, with ``scenario`` installed and not yet run.

    ``overrides`` are merged over ``scenario.options``.  Every checker
    run is built here — exploration cells, DPOR stepping runs and
    counterexample replays — so a schedule found by one replays
    identically through the others."""
    options = VMOptions(
        mode=mode,
        seed=CHECK_VM_SEED,
        cost_model=CostModel(quantum=1),
        max_cycles=CHECK_CYCLE_CAP,
        faults=_inject_plan(inject),
        **{**scenario.options, **overrides},
    )
    vm = JVM(options)
    scenario.build().install(vm)
    return vm


def run_schedule(
    scenario: Scenario,
    mode: str,
    controller: ScheduleController,
    *,
    inject: Optional[str] = None,
) -> tuple[JVM, str]:
    """Run one scenario under one policy, scheduled by ``controller``."""
    vm = check_vm(scenario, mode, inject=inject)
    vm.scheduler.decision_hook = controller
    return vm, run_outcome(vm.run)


@dataclass(frozen=True)
class CheckItem:
    """One exploration cell: pure, picklable input to :func:`run_check_cell`."""

    scenario: str
    prefix: tuple[int, ...] = ()
    modes: tuple[str, ...] = DEFAULT_MODES
    inject: Optional[str] = None
    #: non-None: continue past the prefix with a seeded random walk
    walk_seed: Optional[int] = None
    #: preemption budget for the walk portion
    walk_bound: Optional[int] = None


def run_check_cell(item: CheckItem) -> dict:
    """Execute one schedule under every policy; return plain report data."""
    scenario = lookup_scenario("check", item.scenario)
    reference = item.modes[0]
    rng = (
        DeterministicRng(item.walk_seed)
        if item.walk_seed is not None
        else None
    )
    ref_ctrl = ScheduleController(
        item.prefix, rng=rng, bound=item.walk_bound
    )
    vm, outcome = run_schedule(
        scenario, reference, ref_ctrl, inject=item.inject
    )
    outcomes = {reference: outcome}
    digests = {
        reference: fingerprint_digest(final_fingerprint(vm, outcome))
    }
    drift = {reference: ref_ctrl.drift}
    expectation_problems = (
        check_expectations(scenario, vm) if outcome == "completed" else []
    )
    for mode in item.modes[1:]:
        ctrl = ScheduleController(ref_ctrl.schedule)
        vm2, outcome2 = run_schedule(
            scenario, mode, ctrl, inject=item.inject
        )
        outcomes[mode] = outcome2
        digests[mode] = fingerprint_digest(
            final_fingerprint(vm2, outcome2)
        )
        drift[mode] = ctrl.drift
    return {
        "schedule": ref_ctrl.schedule,
        "candidates": [list(tids) for tids, _ in ref_ctrl.trace],
        "preemptions": ref_ctrl.preemptions,
        "outcomes": outcomes,
        "digests": digests,
        "drift": drift,
        "problems": divergence_problems(
            item.modes, outcomes, digests, expectation_problems
        ),
    }


#: perfbench imports this name as its key override and cache probe;
#: ROADMAP item 5 deletes it
check_cell_key = partial(run_key, run_check_cell)


def derive_children(
    prefix: tuple[int, ...], result: dict, bound: int
) -> Iterator[tuple[int, ...]]:
    """Child prefixes of one executed schedule, within the preemption bound.

    At every decision at or past the executed prefix, each unchosen
    candidate spawns the child ``schedule[:i] + (candidate,)``.  The
    child's preemption count is exact: the default continuation beyond a
    prefix never preempts, so a child's preemptions are those of its own
    choice list."""
    schedule = result["schedule"]
    candidates = result["candidates"]
    last: Optional[int] = None
    preemptions = 0
    for i, (tids, chosen) in enumerate(zip(candidates, schedule)):
        if i >= len(prefix):
            for alt in tids:
                if alt == chosen:
                    continue
                extra = (
                    1
                    if last is not None and last in tids and alt != last
                    else 0
                )
                if preemptions + extra <= bound:
                    yield tuple(schedule[:i]) + (alt,)
        if last is not None and last in tids and chosen != last:
            preemptions += 1
        last = chosen


@dataclass
class ExplorationReport:
    """Aggregated, deterministic result of one exploration."""

    scenario: str
    bound: int
    modes: tuple[str, ...]
    schedules: int = 0        # strategy cells executed (exhaustive / dpor)
    walks: int = 0            # random-walk cells executed
    distinct_schedules: int = 0
    distinct_states: int = 0  # reference-policy final-state digests
    max_decisions: int = 0
    policy_outcomes: dict = field(default_factory=dict)
    divergences: list = field(default_factory=list)
    #: which search produced the cells: "exhaustive", "dpor", or "random"
    strategy: str = "exhaustive"
    #: complete interleavings the strategy executed
    explored: int = 0
    #: prefixes abandoned as provably redundant (sleep-set prunes; 0 for
    #: the stateless strategies)
    pruned: int = 0
    #: scheduler transitions executed by the strategy's own search (dpor)
    transitions: int = 0
    #: snapshot restores performed by the strategy's own search (dpor)
    restores: int = 0
    #: (schedule, reference digest, reference outcome) per executed cell —
    #: the raw material of the DPOR soundness battery
    executions: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.divergences

    def reduction_line(self) -> str:
        """Deterministic one-line search-effort summary.  Identical for
        any ``REPRO_BENCH_JOBS`` value: every count is a pure function of
        (scenario, strategy, bound, modes, inject)."""
        return (
            f"strategy={self.strategy} explored={self.explored} "
            f"pruned={self.pruned} transitions={self.transitions} "
            f"restores={self.restores}"
        )


def summarize_results(
    scenario_name: str,
    bound: int,
    modes: tuple[str, ...],
    executed: list[dict],
    walk_results: list[dict],
    **extra,
) -> ExplorationReport:
    """Fold executed cell results into an :class:`ExplorationReport`.

    Shared by every strategy so reports stay byte-comparable; ``extra``
    carries strategy-specific fields (explored/pruned/...)."""
    reference = modes[0]
    everything = executed + walk_results
    outcome_counts: dict[str, Counter] = {m: Counter() for m in modes}
    for result in everything:
        for mode in modes:
            outcome_counts[mode][result["outcomes"][mode]] += 1
    return ExplorationReport(
        scenario=scenario_name,
        bound=bound,
        modes=modes,
        schedules=len(executed),
        walks=len(walk_results),
        distinct_schedules=len(
            {tuple(r["schedule"]) for r in everything}
        ),
        distinct_states=len(
            {r["digests"][reference] for r in everything}
        ),
        max_decisions=max(
            (len(r["schedule"]) for r in everything), default=0
        ),
        policy_outcomes={
            mode: dict(sorted(outcome_counts[mode].items()))
            for mode in modes
        },
        divergences=[r for r in everything if r["problems"]],
        executions=tuple(
            (
                tuple(r["schedule"]),
                r["digests"][reference],
                r["outcomes"][reference],
            )
            for r in everything
        ),
        **extra,
    )


def explore(
    scenario_name: str,
    bound: int,
    *,
    modes: tuple[str, ...] = DEFAULT_MODES,
    inject: Optional[str] = None,
    walks: int = 0,
    walk_bound: Optional[int] = None,
    engine=None,
    max_schedules: int = 200_000,
    exhaustive: bool = True,
) -> ExplorationReport:
    """Exhaustive bounded-preemption BFS plus optional random walks.

    With ``exhaustive=False`` the BFS is skipped entirely and only the
    seeded walks run — the CLI's ``--strategy random``.

    Random-walk cell ``k`` uses the repo-wide seed-namespace convention
    (:func:`repro.util.rng.sweep_seed`): its walk seed is
    ``sweep_seed("check", scenario_name, k)`` with ``k`` 0-based.
    """
    lookup_scenario("check", scenario_name)  # fail fast on unknown names
    if engine is None:
        engine = RunEngine(jobs=1)
    modes = tuple(modes)
    visited: set[tuple[int, ...]] = {()}
    frontier: list[tuple[int, ...]] = [()] if exhaustive else []
    executed: list[dict] = []
    while frontier:
        items = [
            CheckItem(scenario_name, prefix, modes, inject)
            for prefix in frontier
        ]
        results = engine.map(run_check_cell, items)
        next_frontier: list[tuple[int, ...]] = []
        for prefix, result in zip(frontier, results):
            executed.append(result)
            for child in derive_children(prefix, result, bound):
                if child not in visited:
                    visited.add(child)
                    next_frontier.append(child)
        if len(visited) > max_schedules:
            raise RuntimeError(
                f"exploration exceeded {max_schedules} schedules; "
                "shrink the scenario or the bound"
            )
        frontier = next_frontier

    walk_results: list[dict] = []
    if walks:
        walk_items = [
            CheckItem(
                scenario_name,
                (),
                modes,
                inject,
                walk_seed=sweep_seed("check", scenario_name, k),
                walk_bound=bound if walk_bound is None else walk_bound,
            )
            for k in range(walks)
        ]
        walk_results = engine.map(run_check_cell, walk_items)

    return summarize_results(
        scenario_name,
        bound,
        modes,
        executed,
        walk_results,
        strategy="exhaustive" if exhaustive else "random",
        explored=len(executed) + len(walk_results),
    )
