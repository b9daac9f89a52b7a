"""Differential-oracle tests.

Unit tests pin the fingerprint/divergence machinery; the property sweep
(`TestPolicyEquivalenceProperty`) generates random small guest programs
from a seeded parameter space and requires every explored schedule —
well over 200 across the sweep — to be policy-equivalent, the paper's
serializability claim exercised wholesale.
"""

import pytest

from repro.bench.parallel import RunEngine
from repro.check.explorer import CheckItem, explore, run_check_cell
from repro.check.oracle import (
    COUNTEREXAMPLE_FORMAT,
    divergence_problems,
    final_fingerprint,
    fingerprint_digest,
    replay_counterexample,
)
from repro.bench.workloads import TOOL_SCENARIOS, Scenario
from repro.check.scenarios import (
    build_locked_counter,
    build_racy_counter,
)
from repro.util.rng import DeterministicRng, sweep_seed


class TestFingerprint:
    def test_digest_ignores_allocation_order(self):
        """Two different interleavings of handoff quiesce in the same
        guest-observable state, so their digests agree even though the
        heaps were populated in different orders."""
        quiet = run_check_cell(CheckItem("handoff"))
        preempted = run_check_cell(CheckItem("handoff", prefix=(0, 1)))
        assert quiet["digests"] == preempted["digests"]

    def test_digest_sensitive_to_statics(self):
        from repro.check.explorer import ScheduleController, run_schedule
        from repro.check.scenarios import get_scenario

        scenario = get_scenario("handoff")
        vm, outcome = run_schedule(
            scenario, "rollback", ScheduleController()
        )
        fp = final_fingerprint(vm, outcome)
        digest = fingerprint_digest(fp)
        vm.set_static("Handoff", "counter", 99)
        fp2 = final_fingerprint(vm, outcome)
        assert fingerprint_digest(fp2) != digest
        assert fp2["statics"]["Handoff.counter"] == 99

    def test_clean_run_has_no_violations(self):
        from repro.check.explorer import ScheduleController, run_schedule
        from repro.check.scenarios import get_scenario

        for mode in ("rollback", "inheritance", "unmodified"):
            vm, outcome = run_schedule(
                get_scenario("handoff"), mode, ScheduleController()
            )
            fp = final_fingerprint(vm, outcome)
            assert outcome == "completed"
            assert fp["monitor_violations"] == []
            assert fp["support_violations"] == []
            assert fp["uncaught"] == []


class TestDivergenceProblems:
    MODES = ("rollback", "inheritance", "unmodified")

    def test_all_agree_is_clean(self):
        problems = divergence_problems(
            self.MODES,
            {m: "completed" for m in self.MODES},
            {m: "aaaa" for m in self.MODES},
            [],
        )
        assert problems == []

    def test_digest_split_among_completed_is_reported(self):
        problems = divergence_problems(
            self.MODES,
            {m: "completed" for m in self.MODES},
            {"rollback": "aaaa", "inheritance": "bbbb",
             "unmodified": "bbbb"},
            [],
        )
        assert len(problems) == 1
        assert "final-state divergence" in problems[0]
        assert "rollback=aaaa" in problems[0]

    def test_blocking_policy_deadlock_is_legal(self):
        """A deadlock under a blocking policy while rollback completes is
        the paper's selling point, not a divergence."""
        problems = divergence_problems(
            self.MODES,
            {"rollback": "completed", "inheritance": "deadlock",
             "unmodified": "deadlock"},
            {"rollback": "aaaa", "inheritance": "dead",
             "unmodified": "dead"},
            [],
        )
        assert problems == []

    def test_reference_not_completing_is_reported(self):
        problems = divergence_problems(
            self.MODES,
            {"rollback": "deadlock", "inheritance": "completed",
             "unmodified": "completed"},
            {"rollback": "dead", "inheritance": "aaaa",
             "unmodified": "aaaa"},
            [],
        )
        assert any("did not complete" in p for p in problems)

    def test_expectation_problems_carry_through(self):
        problems = divergence_problems(
            self.MODES,
            {m: "completed" for m in self.MODES},
            {m: "aaaa" for m in self.MODES},
            ["expected Handoff.counter == 8, got 9"],
        )
        assert problems == ["expected Handoff.counter == 8, got 9"]


class TestReplayValidation:
    def test_rejects_foreign_payloads(self):
        with pytest.raises(ValueError, match="not a"):
            replay_counterexample({"format": "something-else"})

    def test_format_constant_is_versioned(self):
        assert COUNTEREXAMPLE_FORMAT.endswith("/1")


# ---------------------------------------------------------- property sweep
def _random_scenario(k: int) -> Scenario:
    """One random locked-counter program drawn from a seeded parameter
    space (thread count, priorities, section and iteration counts), named
    so the class name and expectations stay self-describing."""
    rng = DeterministicRng(sweep_seed("check-prop", "locked-counter", k))
    n_threads = rng.randint(2, 3)
    sections = rng.randint(1, 2)
    iters = rng.randint(1, 2)
    spawns = [
        (rng.randint(1, 10), f"t{j}") for j in range(n_threads)
    ]
    cls = f"Prop{k}"
    return Scenario(
        name=f"prop-{k}",
        description="randomized locked counter (property sweep)",
        program=lambda seed, write_pct: build_locked_counter(
            cls, spawns, sections=sections, iters=iters
        ),
        explorable=True,
        expected_statics={(cls, "counter"): n_threads * sections * iters},
    )


class TestPolicyEquivalenceProperty:
    N_PROGRAMS = 8

    def _install(self, monkeypatch, extra):
        """Extend the checker's rows of the one table for this test (the
        explorer looks scenarios up by name inside each cell)."""
        for scenario in extra:
            monkeypatch.setitem(
                TOOL_SCENARIOS["check"], scenario.name, scenario
            )

    def test_random_programs_policy_equivalent(self, monkeypatch):
        """Every explored schedule of every random program must agree
        across all three policies AND hit the program's arithmetic
        expectation; the sweep must cover well over 200 schedules."""
        programs = [
            _random_scenario(k) for k in range(self.N_PROGRAMS)
        ]
        self._install(monkeypatch, programs)
        engine = RunEngine(jobs=1)
        total_schedules = 0
        distinct = set()
        for scenario in programs:
            report = explore(scenario.name, 1, engine=engine)
            assert report.ok, (
                f"{scenario.name}: {report.divergences[0]['problems']}"
            )
            # serializability: one final state no matter the interleaving
            assert report.distinct_states == 1, scenario.name
            total_schedules += report.schedules
            distinct.add((scenario.name, report.schedules))
        assert total_schedules >= 200, total_schedules

    def test_racy_program_still_policy_equivalent_per_schedule(self):
        """Even a racy program (final state depends on the schedule) must
        agree across policies for any FIXED schedule — policies don't
        invent interleavings."""
        report = explore("racy-yield", 1)
        assert report.ok
        assert report.distinct_states > 1   # lost updates really happen

    def test_generator_is_deterministic(self):
        a = _random_scenario(3)
        b = _random_scenario(3)
        assert a.expected_statics == b.expected_statics
        assert a.build().spawns == b.build().spawns


class TestScenarioBuilders:
    def test_locked_counter_total_is_schedule_independent(self):
        workload = build_locked_counter(
            "LC", [(1, "a"), (9, "b")], sections=2, iters=3
        )
        assert [s[3] for s in workload.spawns] == ["a", "b"]
        assert workload.classdef.name == "LC"

    def test_racy_counter_shape(self):
        workload = build_racy_counter(iters=4)
        assert len(workload.spawns) == 2
        assert workload.spawns[0][1] == [4]
