"""Chaos soak behaviour: the abort-storm detector driving the PR-1
degradation ladder, recovery, cross-interpreter fingerprints under
faults, the undo-drop negative control, and the campaign replay path.

The storm run is the acceptance sequence in miniature: a deterministic
abort-storm (chaos revocation storm on one hot lock) trips the detector,
which raises the overload gate and demotes the hottest site one ladder
rung; once the revocation rate collapses the gate drops again — all
replayable from the seed.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.workloads import (
    TOOL_SCENARIOS,
    Scenario,
    build_philosophers,
    lookup_scenario,
)
from repro.check import final_fingerprint, fingerprint_digest
from repro.faults import FaultPlan, campaign
from repro.server.plane import (
    CHAOS_PLAN,
    AbortStormDetector,
    ServerSpec,
    check_server_invariants,
    run_server_cell,
)
from repro.server.presets import get_preset
from repro.server.workload import build_server, expected_cycle_cap
from repro.util.rng import sweep_seed
from repro.vm.vmcore import JVM, VMOptions


def _storm_run(interp="fast", trace=True):
    config = get_preset("storm")
    seed = sweep_seed("server", config.name, 1)
    options = VMOptions(
        mode="rollback",
        scheduler="priority",
        seed=seed,
        interp=interp,
        trace=trace,
        faults=CHAOS_PLAN,
        audit_rollbacks=True,
        max_cycles=expected_cycle_cap(config, seed),
        raise_on_uncaught=False,
    )
    vm = JVM(options)
    build_server(config, seed).install(vm)
    detector = AbortStormDetector(config)
    vm.slice_hooks.append(detector)
    vm.run()
    return vm, detector, config, seed


@pytest.fixture(scope="module")
def storm_run():
    return _storm_run()


class TestAbortStormLadder:
    def test_storm_escalates_the_ladder(self, storm_run):
        """Satellite 4: an induced abort storm escalates at least one
        revocable site to priority inheritance."""
        vm, detector, _, _ = storm_run
        support = vm.metrics()["support"]
        assert support["degradations_to_inheritance"] >= 1
        entries = [e for e in detector.events if e["kind"] == "enter"]
        assert entries and entries[0]["escalated"] == ["inheritance"]

    def test_storm_recovers(self, storm_run):
        """The gate drops again once the revocation rate collapses, and
        the run still quiesces with its invariants intact."""
        vm, detector, config, seed = storm_run
        kinds = [e["kind"] for e in detector.events]
        assert "exit" in kinds
        assert kinds.index("enter") < kinds.index("exit")
        assert vm.get_static("Server", "overload") == 0
        assert check_server_invariants(vm, config, seed) == []

    def test_sequence_visible_in_trace(self, storm_run):
        """The storm -> escalation -> recovery sequence lands in the obs
        trace stream in causal order."""
        vm, _, _, _ = storm_run
        storms = vm.tracer.of_kind("abort_storm")
        degrades = vm.tracer.of_kind("degrade")
        cleared = vm.tracer.of_kind("storm_cleared")
        assert storms and degrades and cleared
        assert storms[0].details["escalated"] == "inheritance"
        assert degrades[0].details["reason"] == "abort-storm"
        assert storms[0].time <= degrades[0].time <= cleared[0].time

    def test_denied_revocations_after_escalation(self, storm_run):
        """Post-escalation the demoted site refuses revocation — the
        mechanism that actually stops the storm."""
        vm, _, _, _ = storm_run
        support = vm.metrics()["support"]
        assert support["revocations_denied_degraded"] >= 1

    def test_storm_timeline_is_reproducible(self, storm_run):
        """Same (config, seed, plan) => same storm events, cycle for
        cycle — the replay contract of the detector."""
        _, detector, _, _ = storm_run
        _, again, _, _ = _storm_run(trace=False)
        assert detector.events == again.events


class TestChaosFingerprints:
    def test_final_state_identical_across_interps(self, storm_run):
        """Satellite 4: the differential oracle's final-state fingerprint
        matches between interpreters even under the chaos plan."""
        vm, _, _, _ = storm_run
        ref_vm, _, _, _ = _storm_run(interp="reference", trace=False)
        assert fingerprint_digest(
            final_fingerprint(vm, "completed")
        ) == fingerprint_digest(final_fingerprint(ref_vm, "completed"))

    def test_chaos_cell_reports_byte_identical(self):
        reports = [
            json.dumps(
                run_server_cell(
                    ServerSpec(
                        preset="chaos-smoke", chaos=True, interp=interp
                    )
                ),
                sort_keys=True,
            )
            for interp in ("fast", "reference")
        ]
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["violations"] == []


class TestNegativeControl:
    def test_undo_drop_is_detected(self):
        """A genuinely seeded defect (a rollback losing one undo entry)
        must be caught — by the auditor or the conservation checks."""
        report = run_server_cell(
            ServerSpec(preset="chaos-smoke", inject_bug="undo-drop")
        )
        assert report["violations"]
        assert report["injected"].get("undo_drop", 0) >= 1


class TestCampaignReplay:
    """Satellite 3: failures surface an exact reproduction command."""

    def _install_failing_scenario(self, monkeypatch):
        """Make the campaign's rows one scenario that always fails."""
        scenario = Scenario(
            name="unit-fails",
            description="a program whose invariant never holds",
            program=lambda seed, write_pct: build_philosophers(
                2, rounds=1, think_cycles=50, eat_iters=5
            ),
            plan=FaultPlan(),
            check=lambda vm: ["synthetic violation"],
        )
        monkeypatch.setitem(
            TOOL_SCENARIOS, "campaign", {scenario.name: scenario}
        )

    def test_failures_carry_exact_vm_seed(self, monkeypatch):
        self._install_failing_scenario(monkeypatch)
        report = campaign.run_campaign(2)
        assert report["violations"] == 2
        assert len(report["failures"]) == 2
        failure = report["failures"][0]
        assert failure["scenario"] == "unit-fails"
        assert failure["seed_index"] == 1
        assert failure["vm_seed"] == hex(
            sweep_seed("campaign", "unit-fails", 1)
        )
        assert failure["violations"] == ["synthetic violation"]

    def test_main_prints_replay_command(self, monkeypatch, capsys):
        canned = {
            "seeds": 1, "scenarios": {}, "violations": 1,
            "failures": [{
                "scenario": "unit-fails", "seed_index": 3,
                "vm_seed": "0xabc", "outcome": "completed",
                "violations": ["boom"],
            }],
        }
        monkeypatch.setattr(
            campaign, "run_campaign",
            lambda seeds, scenario_filter=None, engine=None,
            interp="fast": canned,
        )
        rc = campaign.main(["--seeds", "1", "--jobs", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert (
            "REPLAY: PYTHONPATH=src python -m repro.faults.campaign "
            "--scenario unit-fails --replay 3 --interp fast"
            "  # vm seed 0xabc"
        ) in err

    def test_replay_command_roundtrips_interp(self, monkeypatch, capsys):
        """The REPLAY line must carry every flag shaping the failing
        cell: a reference-engine campaign failure has to replay on the
        reference engine, not silently fall back to the default."""
        canned = {
            "seeds": 1, "scenarios": {}, "violations": 1,
            "failures": [{
                "scenario": "unit-fails", "seed_index": 3,
                "vm_seed": "0xabc", "outcome": "completed",
                "violations": ["boom"],
            }],
        }
        monkeypatch.setattr(
            campaign, "run_campaign",
            lambda seeds, scenario_filter=None, engine=None,
            interp="fast": canned,
        )
        rc = campaign.main(
            ["--seeds", "1", "--jobs", "1", "--interp", "reference"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        replay = next(
            line for line in err.splitlines()
            if line.startswith("REPLAY: ")
        )
        assert "--interp reference" in replay
        # the emitted command parses back through the campaign CLI into
        # exactly the failing cell's identity
        argv = replay.split("#")[0].split("python -m repro.faults.campaign")[
            1
        ].split()
        # the replayed name must be a campaign row: the CLI checks it
        self._install_failing_scenario(monkeypatch)
        monkeypatch.setattr(
            campaign, "_campaign_cell",
            lambda cell: {
                "violations": [(cell.scenario, cell.seed_index, cell.interp)]
            },
        )
        rc = campaign.main(argv)
        fragment = json.loads(capsys.readouterr().out)
        assert fragment["violations"] == [["unit-fails", 3, "reference"]]

    def test_replay_flag_reruns_one_cell(self, monkeypatch, capsys):
        self._install_failing_scenario(monkeypatch)
        rc = campaign.main(
            ["--scenario", "unit-fails", "--replay", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        fragment = json.loads(out)
        assert fragment["violations"] == ["synthetic violation"]

    def test_replay_honours_interp_flag(self, monkeypatch, capsys):
        seen = {}
        real_run_one = campaign.run_one

        def spy(scenario, index, *, interp="fast"):
            seen["interp"] = interp
            return real_run_one(scenario, index, interp=interp)

        self._install_failing_scenario(monkeypatch)
        monkeypatch.setattr(campaign, "run_one", spy)
        campaign.main(
            ["--scenario", "unit-fails", "--replay", "1",
             "--interp", "reference"]
        )
        capsys.readouterr()
        assert seen["interp"] == "reference"

    def test_fragments_identical_across_interp(self):
        """The campaign's determinism contract extends to the engine:
        one (scenario, seed) cell yields a byte-identical fragment on
        either interpreter."""
        scenario = lookup_scenario("campaign", "storm-philosophers")
        fragments = [
            json.dumps(
                campaign.run_one(scenario, 1, interp=interp),
                sort_keys=True,
            )
            for interp in ("fast", "reference")
        ]
        assert fragments[0] == fragments[1]

    def test_replay_requires_scenario(self):
        with pytest.raises(SystemExit):
            campaign.main(["--replay", "1"])

    def test_server_chaos_scenario_clean(self):
        scenario = lookup_scenario("campaign", "server-chaos")
        fragment = campaign.run_one(scenario, 1)
        assert fragment["outcome"] == "completed"
        assert fragment["violations"] == []
        assert fragment["injected"].get("revocation_storm", 0) >= 1
