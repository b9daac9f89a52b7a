"""Tests for the bounded-preemption schedule explorer.

Covers the ScheduleController semantics (prefix replay, drift fallback,
default continuation, walk budgets), the child-derivation preemption
accounting, and the end-to-end ``explore`` loop: exact schedule counts on
the pinned ``handoff`` scenario, determinism across repeats and worker
counts, and divergence detection with the seeded ``undo-drop`` defect.
"""

from types import SimpleNamespace

import pytest

from repro.bench.parallel import RunEngine
from repro.check.explorer import (
    CheckItem,
    ScheduleController,
    derive_children,
    explore,
    run_check_cell,
)
from repro.util.rng import DeterministicRng


def _threads(*tids: int):
    return [SimpleNamespace(tid=t) for t in tids]


class TestScheduleController:
    def test_default_keeps_last_while_ready(self):
        ctrl = ScheduleController()
        assert ctrl(_threads(3, 5)) == 3          # head of candidates
        assert ctrl(_threads(3, 5)) == 3          # sticks with last
        assert ctrl(_threads(5)) == 5             # last gone: take head
        assert ctrl(_threads(3, 5)) == 5          # sticks with new last
        assert ctrl.preemptions == 0
        assert ctrl.drift == 0
        assert ctrl.schedule == [3, 3, 5, 5]

    def test_prefix_replay_and_preemption_count(self):
        ctrl = ScheduleController(prefix=(5, 3))
        assert ctrl(_threads(3, 5)) == 5
        assert ctrl(_threads(3, 5)) == 3          # switch away from ready 5
        assert ctrl(_threads(3, 5)) == 3          # default: keep last
        assert ctrl.preemptions == 1
        assert ctrl.drift == 0

    def test_prefix_choice_not_a_candidate_counts_drift(self):
        ctrl = ScheduleController(prefix=(9, 5))
        assert ctrl(_threads(3, 5)) == 3          # 9 absent: default, drift
        assert ctrl(_threads(3, 5)) == 5          # 5 present: replayed
        assert ctrl.drift == 1

    def test_trace_records_candidates_and_choice(self):
        ctrl = ScheduleController(prefix=(5,))
        ctrl(_threads(3, 5))
        assert ctrl.trace == [((3, 5), 5)]

    def test_walk_respects_preemption_budget(self):
        """Once the budget is spent, a walk never switches away from a
        still-ready thread, no matter what the dice say."""
        for seed in range(10):
            ctrl = ScheduleController(
                rng=DeterministicRng(seed), bound=1
            )
            for _ in range(50):
                ctrl(_threads(1, 2, 3))
            assert ctrl.preemptions <= 1

    def test_walk_budget_zero_is_fully_sequential(self):
        ctrl = ScheduleController(rng=DeterministicRng(7), bound=0)
        choices = [ctrl(_threads(1, 2)) for _ in range(20)]
        assert ctrl.preemptions == 0
        assert len(set(choices)) == 1             # never leaves the first pick


class TestDeriveChildren:
    def _result(self, candidates, schedule):
        return {"candidates": candidates, "schedule": schedule}

    def test_substitutes_unchosen_candidates(self):
        result = self._result([[1, 2], [1, 2]], [1, 1])
        children = set(derive_children((), result, bound=2))
        assert children == {(2,), (1, 2)}

    def test_respects_prefix(self):
        """Decisions inside the prefix are fixed; no children there."""
        result = self._result([[1, 2], [1, 2]], [2, 2])
        children = set(derive_children((2,), result, bound=2))
        assert children == {(2, 1)}

    def test_bound_prunes_preemptive_children(self):
        # schedule already contains one preemption (1 -> 2 while 1 ready);
        # with bound=1 the child that adds a second preemption is pruned
        result = self._result([[1, 2], [1, 2], [1, 2]], [1, 2, 2])
        children = set(derive_children((1, 2), result, bound=1))
        assert children == set()
        children2 = set(derive_children((1, 2), result, bound=2))
        assert children2 == {(1, 2, 1)}

    def test_first_decision_switch_is_not_a_preemption(self):
        """Choosing a different first thread preempts nobody."""
        result = self._result([[1, 2]], [1])
        assert set(derive_children((), result, bound=0)) == {(2,)}

    def test_nonpreemptive_switch_allowed_at_bound_zero(self):
        # last thread (1) left the candidate set: switching is free
        result = self._result([[1, 2], [2, 3]], [1, 2])
        children = set(derive_children((), result, bound=0))
        assert (2,) in children                   # different first choice
        assert ((1, 3) in children)               # 1 not ready: no preemption


class TestExploreHandoff:
    def test_bound_one_counts_pinned(self):
        report = explore("handoff", 1)
        assert report.schedules == 14
        assert report.walks == 0
        assert report.distinct_schedules == 14
        assert report.distinct_states == 1        # serializability in force
        assert report.ok
        assert report.policy_outcomes["rollback"] == {"completed": 14}
        assert report.policy_outcomes["inheritance"] == {"completed": 14}
        assert report.policy_outcomes["unmodified"] == {"completed": 14}

    def test_bound_two_superset_of_bound_one(self):
        r1 = explore("handoff", 1)
        r2 = explore("handoff", 2)
        assert r2.schedules > r1.schedules
        assert r2.ok and r2.distinct_states == 1

    def test_deterministic_across_repeats_and_jobs(self):
        serial = explore("handoff", 1, engine=RunEngine(jobs=1))
        again = explore("handoff", 1, engine=RunEngine(jobs=1))
        with RunEngine(jobs=2) as engine:
            fanned = explore("handoff", 1, engine=engine)
        for other in (again, fanned):
            assert other.schedules == serial.schedules
            assert other.distinct_states == serial.distinct_states
            assert other.policy_outcomes == serial.policy_outcomes
            assert other.divergences == serial.divergences

    def test_injected_bug_is_caught(self):
        report = explore("handoff", 1, inject="undo-drop")
        assert not report.ok
        first = report.divergences[0]
        assert first["problems"]
        # the defect corrupts rollback state: digests split along policy
        assert (
            first["digests"]["inheritance"]
            == first["digests"]["unmodified"]
        )

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(ValueError, match="unknown check scenario"):
            explore("no-such", 1)

    def test_walks_are_deterministic(self):
        a = explore("handoff", 1, walks=4)
        b = explore("handoff", 1, walks=4)
        assert a.walks == b.walks == 4
        assert a.policy_outcomes == b.policy_outcomes
        assert a.distinct_states == b.distinct_states == 1


class TestCheckCell:
    def test_projection_replays_reference_schedule(self):
        """A cell's non-reference policies replay the reference choices;
        on the quiet default schedule there is no drift at all."""
        result = run_check_cell(CheckItem("handoff"))
        assert result["drift"] == {
            "rollback": 0, "inheritance": 0, "unmodified": 0
        }
        assert result["preemptions"] == 0
        assert not result["problems"]

    def test_preemptive_prefix_triggers_revocation_yet_agrees(self):
        """Prefix (0, 1) preempts the low thread mid-section: rollback
        revokes, blocking policies wait — same final state either way."""
        result = run_check_cell(CheckItem("handoff", prefix=(0, 1)))
        assert result["preemptions"] == 1
        assert not result["problems"]
        assert len(set(result["digests"].values())) == 1
