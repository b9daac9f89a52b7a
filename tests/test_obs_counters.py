"""The two O(1) counter tracks against the scans they replace.

The obs sampler reads ``vm.census[READY]`` for the ``ready_queue`` track
and ``vm.support.live_undo_entries()`` for the ``undo_log`` track.  Both
are kept as state changes instead of being recomputed, so every test
here installs a slice hook that recomputes them the slow way (a walk of
every guest thread) and asserts agreement after each slice: on the
1020-thread fleet capture in each support mode, under the chaos plan's
undo-log duplication, under the seeded undo-drop defect, and across a
checkpoint/restore.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.check.dpor import SteppingRun
from repro.check.scenarios import get_scenario as get_check_scenario
from repro.obs.capture import ObsSpec, build_capture_vm
from repro.vm.threads import ThreadState


class CrossCheck:
    """Slice hook asserting both O(1) counters equal a full scan."""

    def __init__(self) -> None:
        self.slices = 0
        self.max_undo = 0

    def __call__(self, vm) -> None:
        assert_census_matches_scan(vm)
        undo = sum(
            len(t.undo_log) for t in vm.threads if t.undo_log is not None
        )
        assert vm.support.live_undo_entries() == undo
        self.slices += 1
        self.max_undo = max(self.max_undo, undo)


def assert_census_matches_scan(vm) -> None:
    scan = Counter(t.state for t in vm.threads)
    assert vm.census == {s: scan.get(s, 0) for s in ThreadState}


def _checked_capture(scenario: str, mode: str):
    _spec, vm, _builder, _sampler = build_capture_vm(
        ObsSpec(scenario=scenario, mode=mode)
    )
    check = CrossCheck()
    vm.slice_hooks.insert(0, check)
    vm.run()
    assert check.slices == vm.scheduler.slices
    return vm, check


@pytest.mark.parametrize("mode", ["rollback", "unmodified", "inheritance"])
def test_fleet_counters_match_scans_every_slice(mode):
    vm, check = _checked_capture("server-fleet", mode)
    assert len(vm.threads) == 1020
    assert vm.all_terminated()
    assert vm.census[ThreadState.TERMINATED] == 1020
    if mode == "rollback":
        assert check.max_undo > 0  # the undo track was really exercised


def test_storm_counters_survive_undo_perturbation():
    """The chaos plan duplicates undo entries that no barrier logged."""
    vm, _check = _checked_capture("server-storm", "rollback")
    assert vm.fault_plane.report().get("undo_perturb", 0) >= 1


def test_undo_drop_soak_cell_counters_match_scans():
    """A fault-plane drop removes an entry without a rollback restoring
    it.  The cell is built as ``run_server_cell`` builds it, except that
    the rollback auditor is off: it would stop the run inside the very
    slice of the first drop, before any hook saw the state after it."""
    from repro.errors import ReproError
    from repro.server.plane import AbortStormDetector, ServerSpec, spec_plan
    from repro.server.presets import get_preset
    from repro.server.workload import build_server, expected_cycle_cap
    from repro.util.rng import sweep_seed
    from repro.vm.vmcore import JVM, VMOptions

    spec = ServerSpec(preset="chaos-smoke", inject_bug="undo-drop")
    config = get_preset(spec.preset)
    seed = sweep_seed("server", config.name, spec.seed_index)
    vm = JVM(VMOptions(
        mode=spec.mode, scheduler=config.scheduler, seed=seed,
        faults=spec_plan(spec), max_cycles=expected_cycle_cap(config, seed),
        raise_on_uncaught=False, trace=True,
    ))
    build_server(config, seed).install(vm)
    check = CrossCheck()
    vm.slice_hooks.append(check)
    vm.slice_hooks.append(AbortStormDetector(config))
    try:
        vm.run()
    except ReproError:
        pass  # the defect may wedge the run; every slice was still checked
    assert check.slices == vm.scheduler.slices > 0
    assert vm.fault_plane.report().get("undo_drop", 0) >= 1


#: the mini-handoff schedule that revokes the low thread's section
#: (``tests/test_vm_snapshot.py``); at decision 2 one thread is BLOCKED
#: and the other holds one live undo entry, which the revocation after
#: the checkpoint restores
REVOKING_SCHEDULE = (0, 1, 0, 1, 1, 0, 1, 0, 0)


def test_restored_threads_share_the_restored_census():
    """A checkpoint pickles the VM and its threads together, so a
    restored VM's threads keep feeding that VM's census (not the
    original's) and both counters still match a scan to the end."""
    run = SteppingRun(get_check_scenario("mini-handoff"), "rollback")
    run.vm.slice_hooks.append(CrossCheck())
    for tid in REVOKING_SCHEDULE[:2]:
        assert run.advance()[0] == "decision"
        run.choose(tid)
    assert run.advance()[0] == "decision"
    checkpoint = run.checkpoint()
    census_before = dict(run.vm.census)
    assert census_before[ThreadState.BLOCKED] == 1
    assert run.vm.support.live_undo_entries() == 1

    resumed = SteppingRun.resume(checkpoint)
    vm = resumed.vm
    assert vm.census is not run.vm.census
    assert vm.census == census_before
    assert all(t.census is vm.census for t in vm.threads)
    check = CrossCheck()
    vm.slice_hooks.append(check)
    assert resumed.drive(list(REVOKING_SCHEDULE)) == "completed"
    assert vm.support.metrics.revocations_completed == 1
    assert check.slices > 0
    assert_census_matches_scan(vm)
    assert vm.all_terminated()
    # the continuation never touched the original run's census
    assert run.vm.census == census_before


def test_thread_outside_a_vm_counts_nothing():
    from repro.vm import bytecode as bc
    from repro.vm.bytecode import Instruction
    from repro.vm.classfile import MethodDef
    from repro.vm.threads import VMThread

    method = MethodDef(name="run", code=[Instruction(bc.RETURN, 0)],
                       max_locals=0)
    thread = VMThread(0, "bare", method, [])
    assert thread.census is None
    thread.start()
    thread.state = ThreadState.TERMINATED
    assert thread.state is ThreadState.TERMINATED
