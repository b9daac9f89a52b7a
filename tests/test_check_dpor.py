"""Soundness battery for the DPOR + snapshot/restore checker.

DPOR is only a *reduction* — it must never change what the checker can
observe.  On scenarios small enough for full (unbounded) exhaustive
enumeration, the battery requires that the DPOR search visits a strict
subset of the schedules yet finds the identical set of final-state
fingerprints, and — with the seeded ``undo-drop`` defect — the identical
set of divergence signatures.  Explored/pruned/transition/restore counts
are pinned as goldens: any dependence-classification or sleep-set change
that silently weakens (or breaks) the reduction shows up as count drift
here before it can corrupt a real checking run.

Also covers the sleep-set edge case around revocation: a rollback
re-executing a revoked section must not resurrect a slept transition
(which would show up as duplicate trace-equivalent schedules and count
drift on ``mini-barge``, whose explored tree revokes 32 times), and the
``handoff-trio`` acceptance scenario — 6 threads, monitors + revocation —
where exhaustive enumeration is infeasible but DPOR completes.
"""

import pytest

from repro.bench.parallel import RunEngine
from repro.check.dpor import DporExplorer, SteppingRun, explore_dpor
from repro.check.explorer import explore
from repro.check.scenarios import get_scenario

#: deep enough that the exhaustive BFS never prunes a preemption — the
#: battery needs the *full* schedule space as ground truth
FULL_BOUND = 99

#: (scenario, exhaustive schedules, dpor reduction goldens)
BATTERY = [
    ("mini-handoff", 16,
     "strategy=dpor explored=4 pruned=0 transitions=26 restores=3"),
    ("mini-barge", 1488,
     "strategy=dpor explored=48 pruned=0 transitions=415 restores=47"),
    ("mini-racy", 20,
     "strategy=dpor explored=4 pruned=0 transitions=21 restores=3"),
]

#: the complete mini-handoff DPOR schedule tree, in search order — the
#: sleep-set regression golden (see TestSleepSetsUnderRevocation)
MINI_HANDOFF_TREE = [
    (0, 1, 0, 1, 1, 0, 1, 0, 0),
    (0, 0, 1, 0, 1, 1),
    (1, 0, 1, 0, 1, 0, 0),
    (1, 1, 0, 1, 0, 0),
]


@pytest.fixture(scope="module", autouse=True)
def _isolated_cache(tmp_path_factory):
    """Module-scoped cache isolation: the memoized reports below share
    one content-addressed cache, but nothing leaks into the repo tree."""
    mp = pytest.MonkeyPatch()
    mp.setenv(
        "REPRO_BENCH_CACHE_DIR",
        str(tmp_path_factory.mktemp("bench-cache")),
    )
    mp.delenv("REPRO_BENCH_JOBS", raising=False)
    yield
    mp.undo()


_MEMO: dict = {}


def _exhaustive(name: str, inject=None):
    key = ("ex", name, inject)
    if key not in _MEMO:
        _MEMO[key] = explore(
            name, FULL_BOUND, inject=inject, max_schedules=50_000
        )
    return _MEMO[key]


def _dpor(name: str, inject=None):
    key = ("dpor", name, inject)
    if key not in _MEMO:
        _MEMO[key] = explore_dpor(name, inject=inject)
    return _MEMO[key]


def _digests(report) -> set:
    return {digest for _, digest, _ in report.executions}


def _schedules(report) -> set:
    return {schedule for schedule, _, _ in report.executions}


class TestSoundnessBattery:
    @pytest.mark.parametrize(
        "name,exhaustive_count,reduction", BATTERY,
        ids=[row[0] for row in BATTERY],
    )
    def test_same_fingerprints_from_a_subset_of_schedules(
        self, name, exhaustive_count, reduction
    ):
        ex, dp = _exhaustive(name), _dpor(name)
        assert ex.schedules == exhaustive_count       # ground truth pinned
        assert dp.reduction_line() == reduction       # reduction pinned
        assert dp.explored < ex.schedules             # a real reduction
        assert _schedules(dp) <= _schedules(ex)       # subset, not invention
        assert _digests(dp) == _digests(ex)           # soundness: same states
        assert dp.distinct_states == ex.distinct_states
        assert dp.ok and ex.ok

    def test_schedule_dependent_states_all_found(self):
        """mini-racy's lost-update race has two legal final states; the
        reduced search must surface both, not just the serialized one."""
        assert _dpor("mini-racy").distinct_states == 2

    def test_policy_outcome_tables_agree_on_completion(self):
        for name, _, _ in BATTERY:
            dp = _dpor(name)
            for mode in dp.modes:
                assert set(dp.policy_outcomes[mode]) == {"completed"}


class TestInjectedBugEquivalence:
    """With the seeded defect, the reduced search must find the same
    *distinct* counterexamples as ground truth — divergences are keyed by
    their (digests, outcomes) signature, not by schedule identity, since
    many schedules witness one bug."""

    @staticmethod
    def _signatures(report) -> set:
        return {
            (
                tuple(sorted(r["digests"].items())),
                tuple(sorted(r["outcomes"].items())),
            )
            for r in report.divergences
        }

    def test_dpor_finds_the_same_counterexamples(self):
        ex = _exhaustive("mini-handoff", inject="undo-drop")
        dp = _dpor("mini-handoff", inject="undo-drop")
        assert not ex.ok and not dp.ok
        assert self._signatures(dp) == self._signatures(ex)

    def test_divergent_schedule_is_a_witness_from_ground_truth(self):
        ex = _exhaustive("mini-handoff", inject="undo-drop")
        dp = _dpor("mini-handoff", inject="undo-drop")
        divergent = {tuple(r["schedule"]) for r in dp.divergences}
        assert divergent <= {tuple(r["schedule"]) for r in ex.divergences}

    def test_problems_name_the_corrupted_counter(self):
        dp = _dpor("mini-handoff", inject="undo-drop")
        assert any(
            "MiniHandoff.counter" in p
            for r in dp.divergences for p in r["problems"]
        )


class TestSleepSetsUnderRevocation:
    """Revocation-induced rollback re-executes a critical section; the
    re-executed slice must not resurrect a transition already retired
    into an ancestor's sleep set.  A resurrection would surface as a
    duplicate (trace-equivalent) schedule in the explored tree and as
    count drift against the pinned goldens."""

    def test_mini_handoff_tree_pinned(self):
        expl = DporExplorer("mini-handoff", mode="rollback", inject=None)
        assert expl.explore() == MINI_HANDOFF_TREE
        assert (expl.explored, expl.pruned) == (4, 0)
        assert (expl.transitions, expl.restores, expl.replayed) == (26, 3, 2)

    def test_no_duplicate_schedules_despite_revocations(self):
        """mini-barge's explored tree revokes 32 times — every rollback
        re-executes a section through the dependence tracker — yet sleep
        sets still admit no two trace-equivalent executions."""
        expl = DporExplorer("mini-barge", mode="rollback", inject=None)
        schedules = expl.explore()
        assert len(schedules) == len(set(schedules)) == 48
        scenario = get_scenario("mini-barge")
        revocations = 0
        for schedule in schedules:
            run = SteppingRun(scenario, "rollback")
            assert run.drive(schedule) == "completed"
            revocations += sum(t.revocations for t in run.vm.threads)
        assert revocations == 32

    def test_search_is_deterministic(self):
        first = DporExplorer("mini-barge", mode="rollback", inject=None)
        second = DporExplorer("mini-barge", mode="rollback", inject=None)
        assert first.explore() == second.explore()
        assert (first.explored, first.pruned, first.transitions,
                first.restores, first.replayed) == \
               (second.explored, second.pruned, second.transitions,
                second.restores, second.replayed)


class TestSteppingRunGuards:
    """A stepping run replays each committed choice; a replay that sees
    anything other than the paused decision is a determinism violation,
    never a silent fallback to the default policy."""

    def _paused(self):
        run = SteppingRun(get_scenario("mini-handoff"), "rollback")
        kind, tids = run.advance()
        assert kind == "decision" and len(tids) > 1
        return run, tids

    def test_replayed_candidates_must_equal_pending(self):
        run, tids = self._paused()
        run.pending = tids[:1]              # not what the replay will see
        with pytest.raises(RuntimeError, match="determinism violation"):
            run.choose(tids[0])

    def test_drifting_replay_raises(self):
        run, tids = self._paused()
        ghost = max(tids) + 1
        run.pending = tids + (ghost,)
        with pytest.raises(RuntimeError, match="determinism violation"):
            run.choose(ghost)

    def test_drive_falls_back_to_the_default_policy(self):
        run, tids = self._paused()
        assert run.drive((max(tids) + 1,)) == "completed"
        assert run.drift == 1
        assert run.schedule[0] == tids[0]


class TestReportDeterminism:
    def test_identical_across_worker_counts(self):
        serial = explore_dpor("mini-handoff", engine=RunEngine(jobs=1))
        with RunEngine(jobs=2) as engine:
            fanned = explore_dpor("mini-handoff", engine=engine)
        assert serial.reduction_line() == fanned.reduction_line()
        assert serial.executions == fanned.executions
        assert serial.policy_outcomes == fanned.policy_outcomes
        assert serial.divergences == fanned.divergences


class TestHandoffTrioAcceptance:
    """The scaling criterion: 6 threads, 3 monitors, revocation in play.
    The cross-pair product space defeats exhaustive enumeration at any
    useful budget, while DPOR's dependence tracking collapses commuting
    cross-pair orderings and checks the scenario to completion."""

    def test_exhaustive_blows_even_a_generous_budget(self):
        with pytest.raises(RuntimeError, match="exceeded"):
            explore("handoff-trio", FULL_BOUND, max_schedules=1_000)

    def test_dpor_checks_it_to_completion(self):
        report = _dpor("handoff-trio")
        assert report.reduction_line() == (
            "strategy=dpor explored=64 pruned=385 "
            "transitions=2691 restores=448"
        )
        assert report.ok
        assert report.distinct_states == 1        # serializability holds
        for mode in report.modes:
            assert report.policy_outcomes[mode] == {"completed": 64}
