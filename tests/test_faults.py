"""Fault-injection plane: plan validation, each fault kind, the invariant
auditor, and campaign determinism.

The headline scenario: a single thread holding a long section while a
100%-rate revocation storm revokes it at every slice boundary.  With the
robustness machinery disabled the run livelocks (the section can never
complete); with the per-site retry budget it terminates, degrading the hot
site one ladder rung and recording the event.
"""

import pytest

from repro import Asm, FaultPlan, InvariantViolation, StarvationError
from repro.core.undolog import UndoLog
from repro.faults.campaign import run_campaign

from conftest import build_class, make_vm

SECTION_ITERS = 4_000


def _storm_vm(plan=None, **options):
    """One thread incrementing ``counter`` SECTION_ITERS times inside one
    synchronized section, with the thread-level livelock guard neutralised
    (``livelock_grace=0``) so only the machinery under test can stop a
    storm."""
    run = Asm("run", argc=0)
    run.getstatic("T", "lock")
    with run.sync():
        i = run.local()
        run.for_range(i, lambda: run.const(SECTION_ITERS), lambda: (
            run.getstatic("T", "counter"), run.const(1), run.add(),
            run.putstatic("T", "counter"),
        ))
    run.ret()
    cls = build_class("T", ["lock:ref", "counter:int"], [run])
    if plan is None:
        plan = FaultPlan(revocation_storm_rate=1.0)
    options.setdefault("livelock_grace", 0)
    options.setdefault("revocation_backoff", 0)
    vm = make_vm("rollback", faults=plan, **options)
    vm.load(cls)
    vm.set_static("T", "lock", vm.new_object("T"))
    vm.spawn("T", "run", name="victim")
    return vm


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(guest_exception_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(revocation_storm_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(handoff_delay_cycles=-1)

    def test_any_enabled(self):
        assert not FaultPlan().any_enabled()
        assert FaultPlan(handoff_delay_rate=0.5).any_enabled()

    def test_vm_without_plan_has_no_plane(self):
        vm = make_vm("rollback")
        assert vm.fault_plane is None


class TestStormLivelock:
    def test_storm_livelocks_without_budget(self):
        """Baseline: with budget, backoff and watchdog all disabled, a
        permanent storm keeps revoking the section and the run never
        finishes (the failure mode ISSUE calls out)."""
        vm = _storm_vm(
            revocation_retry_budget=0,
            watchdog_interval=0,
            max_cycles=3_000_000,
        )
        with pytest.raises(StarvationError):
            vm.run()
        # the storm really was revoking over and over
        assert vm.metrics()["support"]["revocations_completed"] >= 10

    def test_retry_budget_terminates_storm(self):
        """The same storm terminates under a retry budget: the hot site
        degrades (recorded degradation event) and further revocations of
        it are refused."""
        vm = _storm_vm(
            revocation_retry_budget=3,
            watchdog_interval=0,
            max_cycles=30_000_000,
        )
        vm.run()
        assert vm.get_static("T", "counter") == SECTION_ITERS
        s = vm.metrics()["support"]
        assert s["revocations_completed"] == 3
        assert s["degradations_to_inheritance"] == 1
        assert s["retry_budget_exhausted"] == 1
        assert s["revocations_denied_degraded"] >= 1
        degrades = vm.tracer.of_kind("degrade")
        assert degrades and degrades[0].details["reason"] == "budget"

    def test_storm_requests_go_through_chokepoint(self):
        """Storm-injected requests carry origin=storm in the trace — they
        use the same request path as real inversion detection."""
        vm = _storm_vm(
            revocation_retry_budget=3,
            watchdog_interval=0,
            max_cycles=30_000_000,
        )
        vm.run()
        requests = vm.tracer.of_kind("revocation_request")
        assert requests
        assert all(e.details["origin"] == "storm" for e in requests)


class TestHottestSiteEscalation:
    def test_escalation_walks_the_ladder(self):
        """The abort-storm hook demotes the most-revoked site one rung
        per call, then reports exhaustion with None."""
        vm = _storm_vm(
            revocation_retry_budget=3,
            watchdog_interval=0,
            max_cycles=30_000_000,
        )
        vm.run()
        # the budget already demoted the hot site to inheritance; the
        # storm hook pushes it on down to non-revocable
        assert vm.support.escalate_hottest_site() == "nonrevocable"
        s = vm.metrics()["support"]
        assert s["degradations_to_nonrevocable"] == 1
        degrades = vm.tracer.of_kind("degrade")
        assert any(
            e.details["reason"] == "abort-storm" for e in degrades
        )
        # fully degraded: nothing left to demote
        assert vm.support.escalate_hottest_site() is None

    def test_escalation_noop_without_sites(self):
        vm = make_vm("rollback")
        assert vm.support.escalate_hottest_site() is None


class TestGuestExceptionInjection:
    def _loop_vm(self, plan, threads=1, **options):
        run = Asm("run", argc=0)
        run.getstatic("T", "lock")
        with run.sync():
            i = run.local()
            run.for_range(i, lambda: run.const(2_000), lambda: (
                run.getstatic("T", "counter"), run.const(1), run.add(),
                run.putstatic("T", "counter"),
            ))
        run.ret()
        cls = build_class("T", ["lock:ref", "counter:int"], [run])
        vm = make_vm("rollback", faults=plan, **options)
        vm.load(cls)
        vm.set_static("T", "lock", vm.new_object("T"))
        for k in range(threads):
            vm.spawn("T", "run", name=f"t{k}")
        return vm

    def test_injected_exception_kills_thread(self):
        plan = FaultPlan(guest_exception_rate=1.0, max_injections=1)
        vm = self._loop_vm(plan, raise_on_uncaught=False)
        vm.run()
        t = vm.thread_named("t0")
        assert [thread for thread, _exc in vm.uncaught] == [t]
        assert vm.get_static("T", "counter") < 2_000
        assert vm.fault_plane.report() == {"guest_exception": 1, "total": 1}
        faults = vm.tracer.of_kind("fault_inject")
        assert faults and faults[0].details["fault"] == "guest_exception"

    def test_monitor_released_on_injected_exception(self):
        """The exception unwinds through the transformer's release
        handlers, so a second thread still acquires the lock and the VM
        reaches a clean shutdown (balanced section stacks)."""
        plan = FaultPlan(guest_exception_rate=1.0, max_injections=1)
        vm = self._loop_vm(plan, threads=2, raise_on_uncaught=False)
        vm.run()
        assert len(vm.uncaught) == 1
        # the survivor ran its full loop on top of the victim's progress
        assert vm.get_static("T", "counter") >= 2_000
        mon = vm.get_static("T", "lock").monitor
        assert mon is None or mon.owner is None


class TestHandoffDelay:
    def test_delayed_handoff_still_completes(self):
        plan = FaultPlan(handoff_delay_rate=1.0, handoff_delay_cycles=2_500)
        run = Asm("run", argc=0)
        run.getstatic("T", "lock")
        with run.sync():
            i = run.local()
            run.for_range(i, lambda: run.const(500), lambda: (
                run.getstatic("T", "counter"), run.const(1), run.add(),
                run.putstatic("T", "counter"),
            ))
        run.ret()
        cls = build_class("T", ["lock:ref", "counter:int"], [run])
        vm = make_vm("rollback", faults=plan)
        vm.load(cls)
        vm.set_static("T", "lock", vm.new_object("T"))
        for k in range(3):
            vm.spawn("T", "run", name=f"t{k}")
        vm.run()
        assert vm.get_static("T", "counter") == 3 * 500
        assert vm.fault_plane.counts.get("handoff_delay", 0) >= 1
        assert vm.tracer.of_kind("handoff_delayed")


class TestInvariantAuditor:
    def test_audited_storm_run_is_clean(self):
        vm = _storm_vm(
            revocation_retry_budget=3,
            watchdog_interval=0,
            audit_rollbacks=True,
            max_cycles=30_000_000,
        )
        vm.run()
        s = vm.metrics()["support"]
        assert s["invariant_checks"] == s["revocations_completed"] >= 1
        assert s["invariant_violations"] == 0

    def test_undo_perturbation_is_benign(self):
        """A duplicated undo entry must not change the restored state —
        the auditor proves it on every rollback."""
        plan = FaultPlan(revocation_storm_rate=1.0, undo_perturb_rate=1.0)
        vm = _storm_vm(
            plan,
            revocation_retry_budget=3,
            watchdog_interval=0,
            audit_rollbacks=True,
            max_cycles=30_000_000,
        )
        vm.run()
        assert vm.get_static("T", "counter") == SECTION_ITERS
        assert vm.fault_plane.counts.get("undo_perturb", 0) >= 1
        assert vm.metrics()["support"]["invariant_violations"] == 0

    def test_corrupted_rollback_is_caught(self, monkeypatch):
        """Sabotage the undo replay (drop the restores); the auditor must
        refuse to let the run continue."""

        def skip_restore(self, mark):
            n = len(self.entries) - mark
            del self.entries[mark:]
            return n

        monkeypatch.setattr(UndoLog, "rollback_to", skip_restore)
        vm = _storm_vm(
            revocation_retry_budget=3,
            watchdog_interval=0,
            audit_rollbacks=True,
            max_cycles=30_000_000,
        )
        with pytest.raises(InvariantViolation):
            vm.run()
        assert vm.metrics()["support"]["invariant_violations"] == 1
        assert vm.tracer.of_kind("invariant_violation")


class TestCampaign:
    def test_campaign_is_deterministic_and_clean(self):
        first = run_campaign(2)
        second = run_campaign(2)
        assert first == second
        assert first["violations"] == 0
        # every scenario actually injected something across the sweep
        for name, scenario in first["scenarios"].items():
            if name == "deadlock-ring":
                continue  # delays are probabilistic per-handoff; may be 0
            assert scenario["injected"]["total"] > 0, name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign scenario"):
            run_campaign(1, "no-such-scenario")

    def test_cli_jobs_identical_and_workers_reaped(
        self, monkeypatch, capsys
    ):
        """``--jobs 2`` runs the campaign on a loopback fleet: stdout is
        byte-identical to ``--jobs 1``, and ``main`` closes the engine, so
        its worker processes have exited by the time it returns."""
        from repro.faults import campaign
        from repro.fleet import cli

        engines = []
        build = cli.engine_from_args

        def recording_engine(args):
            engines.append(build(args))
            return engines[-1]

        monkeypatch.setattr(cli, "engine_from_args", recording_engine)
        argv = ["--seeds", "2", "--scenario", "storm-philosophers",
                "--no-cache"]
        outputs = []
        for jobs in ("1", "2"):
            assert campaign.main(argv + ["--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        serial, fleet = engines
        assert serial.procs == []
        assert len(fleet.procs) == 2
        assert all(proc.poll() is not None for proc in fleet.procs)
