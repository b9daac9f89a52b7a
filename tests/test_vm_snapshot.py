"""Snapshot fidelity property tests.

The contract (``repro.vm.snapshot``): a restored VM driven forward with
the same scheduling choices is *byte-identical* to a from-zero replay of
the full schedule — final clock, clock-event count, rendered trace,
metrics dict, and final-state fingerprint all agree exactly.  Anything a
serialized checkpoint might silently share (heap aliasing), drop (RNG
state, undo logs, degradation ladders), or double-count breaks one of
these five comparisons.

The matrix crosses scenarios (locked handoff with revocation, priority
barge, unprotected race) with both interpreters and seeded random-walk
drivers.  The two legs checkpoint different states:

* ``reference`` is DPOR's own path: a memory-traced
  :class:`~repro.check.dpor.SteppingRun` (memory tracing forces the
  reference interpreter), checkpointed while paused *inside*
  ``scheduler.step()`` — due sleepers already woken, the decision not
  yet made — and resumed through ``SteppingRun.resume``/``drive``.
* ``fast`` is the predecode tier: a ``check_vm`` under a
  :class:`~repro.check.explorer.ScheduleController`, snapshotted
  *between* scheduler steps.  Its caches are host-side closures that
  stay on the live VM and are rebuilt, never serialized, on a restored
  one.

The revocation case additionally checkpoints at *every* decision of a
schedule known to revoke, so snapshots taken mid-rollback (live undo
log, in-flight section records) are covered, not just quiet points.
"""

import pytest

from repro import Asm
from repro.check.dpor import SteppingRun
from repro.check.explorer import ScheduleController, check_vm
from repro.check.oracle import final_fingerprint, fingerprint_digest
from repro.check.scenarios import get_scenario
from repro.util.rng import DeterministicRng
from repro.vm.classfile import FieldDef
from repro.vm.snapshot import VMSnapshot, restore_vm, snapshot_vm
from repro.vm.vmcore import JVM

from conftest import build_class, drain, make_vm

#: the mini-handoff schedule (from the pinned DPOR tree) whose replay
#: preempts the low thread mid-section and triggers a revocation
REVOKING_SCHEDULE = (0, 1, 0, 1, 1, 0, 1, 0, 0)


def _observe(vm: JVM, outcome: str) -> dict:
    """Everything the fidelity contract compares, as plain data."""
    return {
        "outcome": outcome,
        "clock": vm.clock.now,
        "clock_events": vm.clock.events,
        "trace": vm.tracer.render(),
        "metrics": vm.metrics(),
        "digest": fingerprint_digest(final_fingerprint(vm, outcome)),
        "schedule": tuple(vm.scheduler.decision_hook.schedule),
    }


def _stepping_run(name: str) -> SteppingRun:
    return SteppingRun(get_scenario(name), "rollback")


def _fast_vm(name: str, controller: ScheduleController) -> JVM:
    """The fast-tier checker VM of ``name`` scheduled by ``controller``,
    not yet stepped."""
    vm = check_vm(get_scenario(name), "rollback", trace=True, interp="fast")
    vm.scheduler.decision_hook = controller
    return vm


def _step_to_decision(vm: JVM, n: int) -> bool:
    """Step ``vm`` until its scheduler has made ``n`` decisions; False
    when the run ends first."""
    while vm.scheduler.decisions < n:
        if not vm.scheduler.step():
            return False
    return True


def _from_zero(name: str, interp: str, choices) -> dict:
    """Observe a from-zero run of ``choices`` on a fresh VM."""
    if interp == "reference":
        run = _stepping_run(name)
        return _observe(run.vm, run.drive(choices))
    vm = _fast_vm(name, ScheduleController(choices))
    return _observe(vm, drain(vm))


def _resume(checkpoint: VMSnapshot, interp: str, choices) -> dict:
    """Restore an independent continuation of ``checkpoint``, finish it
    on ``choices`` (by absolute decision position) and observe it."""
    if interp == "reference":
        run = SteppingRun.resume(checkpoint)
        return _observe(run.vm, run.drive(choices))
    vm = restore_vm(checkpoint)
    vm.scheduler.decision_hook.prefix = tuple(choices)
    return _observe(vm, drain(vm))


def _random_walk_with_checkpoint(name, interp, seed, checkpoint_at):
    """Drive a seeded random walk, checkpointing at decision
    ``checkpoint_at``; finish the walk and return
    (checkpoint, full choice list, observations of the original run)."""
    if interp == "fast":
        vm = _fast_vm(
            name, ScheduleController(rng=DeterministicRng(seed))
        )
        assert _step_to_decision(vm, checkpoint_at), (
            f"walk ended before the requested checkpoint at {checkpoint_at}"
        )
        checkpoint = snapshot_vm(vm)
        original = _observe(vm, drain(vm))
        return checkpoint, list(original["schedule"]), original
    rng = DeterministicRng(seed)
    run = _stepping_run(name)
    checkpoint = None
    choices = []
    while True:
        kind, data = run.advance()
        if kind == "done":
            assert checkpoint is not None, (
                f"walk ended after {len(choices)} decisions, before the "
                f"requested checkpoint at {checkpoint_at}"
            )
            return checkpoint, choices, _observe(run.vm, data)
        if len(choices) == checkpoint_at:
            checkpoint = run.checkpoint()
        tid = data[rng.randint(0, len(data) - 1)]
        run.choose(tid)
        choices.append(tid)


def _checkpoint_on_schedule(interp: str, stop: int):
    """Follow ``REVOKING_SCHEDULE`` on mini-handoff for ``stop``
    decisions and checkpoint there; None when the run ends first."""
    if interp == "fast":
        vm = _fast_vm("mini-handoff", ScheduleController(REVOKING_SCHEDULE))
        return snapshot_vm(vm) if _step_to_decision(vm, stop) else None
    run = _stepping_run("mini-handoff")
    for tid in REVOKING_SCHEDULE[:stop]:
        kind, data = run.advance()
        assert kind == "decision"
        run.choose(tid if tid in data else run.default_choice(data))
    if run.advance()[0] == "done":
        return None
    return run.checkpoint()


CASES = [
    (name, interp, seed)
    for name in ("mini-handoff", "mini-barge", "mini-racy")
    for interp in ("reference", "fast")
    for seed in (7, 1234)
]


@pytest.mark.parametrize(
    "name,interp,seed", CASES,
    ids=[f"{n}-{i}-s{s}" for n, i, s in CASES],
)
def test_restored_continuation_matches_from_zero_replay(
    name, interp, seed
):
    checkpoint, choices, original = _random_walk_with_checkpoint(
        name, interp, seed, checkpoint_at=3
    )
    assert restore_vm(checkpoint).scheduler.decision_hook.schedule == (
        choices[:3]
    )

    # leg 1: resume from the checkpoint, replay the remaining choices
    assert _resume(checkpoint, interp, choices) == original

    # leg 2: from-zero replay of the full schedule on a fresh VM
    assert _from_zero(name, interp, choices) == original


def test_one_checkpoint_seeds_independent_divergent_continuations():
    """Restores are isolated clones: two continuations from one
    checkpoint can diverge without contaminating each other or the
    master, and a third restore still reproduces the first's result."""
    checkpoint, choices, _ = _random_walk_with_checkpoint(
        "mini-racy", "reference", 99, checkpoint_at=2
    )
    a = SteppingRun.resume(checkpoint)
    b = SteppingRun.resume(checkpoint)
    kind_a, tids_a = a.advance()
    kind_b, tids_b = b.advance()
    assert (kind_a, tids_a) == (kind_b, tids_b) == ("decision", tids_a)
    # drive them apart: a takes the first candidate everywhere, b the last
    while a.advance()[0] == "decision":
        a.choose(a.pending[0])
    while b.advance()[0] == "decision":
        b.choose(b.pending[-1])
    out_a = _observe(a.vm, a.outcome)
    out_b = _observe(b.vm, b.outcome)
    assert out_a["schedule"] != out_b["schedule"]

    # a third restore retracing a's choices reproduces a byte-for-byte
    assert _resume(checkpoint, "reference", out_a["schedule"]) == out_a


@pytest.mark.parametrize("interp", ["reference", "fast"])
def test_checkpoint_at_every_decision_of_a_revoking_schedule(interp):
    """Walk the revoking schedule, checkpointing at each decision —
    including the ones where a rollback is in flight — and require every
    resumed continuation to land on the from-zero observation."""
    expected = _from_zero("mini-handoff", interp, REVOKING_SCHEDULE)
    if interp == "reference":
        revocations = expected["metrics"]["support"]["revocations_completed"]
        assert revocations > 0, "schedule no longer revokes; re-pin it"

    for stop in range(len(REVOKING_SCHEDULE)):
        checkpoint = _checkpoint_on_schedule(interp, stop)
        if checkpoint is None:
            break
        assert _resume(checkpoint, interp, REVOKING_SCHEDULE) == expected, (
            f"divergence resuming from decision {stop}"
        )


def _decoded_methods(vm) -> set[str]:
    """Qualified names of the methods the VM holds decoded."""
    return {dm.method.qualified_name()
            for dm in vm.interpreter.decoded.values()}


@pytest.mark.parametrize("interp", ["reference", "fast"])
def test_snapshot_leaves_the_original_run_untouched(interp):
    """snapshot_vm detaches observers while it serializes and must put
    every one of them back: the donor run continues exactly as if never
    snapshotted.  Under the predecode tier the donor also keeps its
    compiled blocks, while a restored VM starts without any and compiles
    its own once it runs."""
    expected = _from_zero("mini-handoff", interp, REVOKING_SCHEDULE)

    if interp == "reference":
        donor = _stepping_run("mini-handoff")
        vm = donor.vm
    else:
        vm = _fast_vm("mini-handoff", ScheduleController(REVOKING_SCHEDULE))
    for stop, tid in enumerate(REVOKING_SCHEDULE[:4]):
        if interp == "reference":
            kind, data = donor.advance()
            assert kind == "decision"
        else:
            assert _step_to_decision(vm, stop)
        decoded = _decoded_methods(vm)
        checkpoint = snapshot_vm(vm)    # snapshot, keep going
        assert _decoded_methods(vm) == decoded
        restored = restore_vm(checkpoint)
        assert _decoded_methods(restored) == set()
        if interp == "reference":
            donor.choose(tid if tid in data else donor.default_choice(data))
    if interp == "fast":
        assert decoded, "donor never predecoded before its last checkpoint"
        resumed = restore_vm(checkpoint)
        drain(resumed)
        assert _decoded_methods(resumed)
        outcome = drain(vm)
    else:
        assert not decoded
        outcome = donor.drive(REVOKING_SCHEDULE)
    assert _observe(vm, outcome) == expected


def test_unpicklable_state_fails_loudly_and_reattaches_observers():
    """A closure in VM state cannot be serialized: snapshot_vm raises a
    ValueError naming it and hands the donor back fully wired.  The
    decision hook is VM state too, so a lambda hook fails the same way
    and stays attached."""
    run = _stepping_run("mini-handoff")
    kind, _ = run.advance()
    assert kind == "decision"
    vm = run.vm
    lambda_hook = lambda cands: cands[0].tid       # noqa: E731
    vm.scheduler.decision_hook = lambda_hook
    with pytest.raises(ValueError, match="not picklable") as info:
        snapshot_vm(vm)
    assert "<lambda>" in str(info.value)
    assert vm.scheduler.decision_hook is lambda_hook
    vm.scheduler.decision_hook = run

    vm.register_native("hostClosure", lambda vm, thread, args: 0)
    sink = lambda event: None                      # noqa: E731
    slice_hook = lambda vm, thread: None           # noqa: E731
    vm.tracer.add_sink(sink)
    vm.slice_hooks.append(slice_hook)
    hook = vm.scheduler.decision_hook
    events = vm.tracer.events
    n_events = len(events)
    assert hook is not None and n_events > 0

    with pytest.raises(ValueError, match="not picklable") as info:
        snapshot_vm(vm)
    assert "function" in str(info.value)
    assert "<lambda>" in str(info.value)
    assert info.value.__cause__ is not None

    assert vm.scheduler.decision_hook is hook
    assert vm.tracer._sinks == [sink]
    assert vm.slice_hooks == [slice_hook]
    assert vm.tracer.events is events
    assert len(events) == n_events


def test_restored_vm_shares_the_recorded_event_objects():
    """A checkpoint keeps the trace log out of its pickle blob: every
    restored VM starts from the very event objects recorded before the
    checkpoint (never copies), then appends its own.  Sharing is safe
    because a recorded TraceEvent is never mutated."""
    vm = _fast_vm("mini-handoff", ScheduleController(REVOKING_SCHEDULE))
    assert _step_to_decision(vm, 4)
    recorded = list(vm.tracer.events)
    assert recorded
    assert not hasattr(recorded[0], "__dict__")

    checkpoint = snapshot_vm(vm)
    first = restore_vm(checkpoint)
    second = restore_vm(checkpoint)
    for resumed in (first, second):
        events = resumed.tracer.events
        assert events is not vm.tracer.events
        assert len(events) == len(recorded)
        assert all(a is b for a, b in zip(events, recorded))
    drain(first)
    assert len(first.tracer.events) > len(recorded)
    assert len(second.tracer.events) == len(recorded)
    assert all(
        a is b for a, b in zip(first.tracer.events, recorded)
    )


def test_snapshot_requires_a_quiescent_vm():
    run = _stepping_run("mini-handoff")
    kind, data = run.advance()
    assert kind == "decision"
    vm = run.vm
    vm.current_thread = vm.threads[0]      # simulate a slice in flight
    with pytest.raises(ValueError, match="quiescent"):
        snapshot_vm(vm)
    vm.current_thread = None
    snapshot_vm(vm)                        # quiescent again: fine


def test_checkpoint_requires_a_pending_decision():
    run = _stepping_run("mini-handoff")
    with pytest.raises(RuntimeError, match="pending decision"):
        run.checkpoint()


def _dependency_program():
    """A writer that holds speculative writes to an instance field, an
    array element and a static while it spins in its section, and a
    reader that first reads an unrelated static (the read consults the
    writer's records, so it builds the writer's JMM index) and, after a
    second delay, the writer's three locations."""
    writer = Asm("writer", argc=0)
    writer.getstatic("J", "lock")
    with writer.sync():
        writer.getstatic("J", "obj").const(1).putfield("f")
        writer.getstatic("J", "arr").const(0).const(2).astore()
        writer.const(3).putstatic("J", "s")
        i = writer.local()
        writer.for_range(i, lambda: writer.const(3_000), lambda: (
            writer.getstatic("J", "obj").const(4).putfield("g")
        ))
    writer.ret()

    reader = Asm("reader", argc=0)
    reader.const(1_000).sleep()
    reader.getstatic("J", "other").putstatic("J", "seen")
    reader.const(1_000).sleep()
    reader.getstatic("J", "obj").getfield("f").putstatic("J", "seen")
    reader.getstatic("J", "arr").const(0).aload().putstatic("J", "seen")
    reader.getstatic("J", "s").putstatic("J", "seen")
    reader.ret()

    cls = build_class(
        "J", ["lock:ref", "obj:ref", "arr:ref", "s:int", "other:int",
              "seen:int"],
        [writer, reader],
    )
    cls.fields["f"] = FieldDef("f", "int")
    cls.fields["g"] = FieldDef("g", "int")
    return cls


def _dependency_vm(interp):
    vm = make_vm("rollback", interp=interp)
    vm.load(_dependency_program())
    vm.set_static("J", "lock", vm.new_object("J"))
    vm.set_static("J", "obj", vm.new_object("J"))
    vm.set_static("J", "arr", vm.new_array(2))
    vm.spawn("J", "writer", priority=1, name="W")
    vm.spawn("J", "reader", priority=5, name="R")
    return vm


def _dependency_answers(vm) -> dict:
    """Every thread's ``on_read`` answer at every logged location, keyed
    by log position so two VMs compare."""
    jmm = vm.support.jmm
    answers = {}
    for writer in vm.threads:
        seen = set()
        log = writer.undo_log
        for pos, (container, slot, _) in enumerate(log.entries if log else ()):
            if (container, slot) in seen:
                continue
            seen.add((container, slot))
            for reader in vm.threads:
                answers[writer.tid, pos, reader.tid] = tuple(
                    map(repr, jmm.on_read(reader, container, slot))
                )
    return answers


def _finish(vm) -> dict:
    return {
        "outcome": drain(vm),
        "clock": vm.clock.now,
        "clock_events": vm.clock.events,
        "trace": vm.tracer.render(),
        "metrics": vm.metrics(),
        "seen": vm.get_static("J", "seen"),
    }


@pytest.mark.parametrize("interp", ["reference", "fast"])
def test_restored_vm_rebuilds_the_jmm_index(interp):
    """The JMM tracker's per-writer index is derived state: a checkpoint
    leaves it out, and the restored VM rebuilds it on the first read.
    Checkpoint right after a read built the writer's index while the
    writer still holds its speculative records; the restored VM answers
    every read alike and finishes exactly like the straight run."""
    straight = _dependency_vm(interp)
    checkpoint = None
    while checkpoint is None:
        assert straight.scheduler.step() is not None, "no index was built"
        writers = straight.support.jmm._writers
        if any(w.indexed for w in writers.values()):
            checkpoint = snapshot_vm(straight)
    writer_tid, reader_tid = (t.tid for t in straight.threads)
    assert list(straight.support.jmm.live) == [writer_tid]
    answers = _dependency_answers(straight)
    pinned = answers[writer_tid, 0, reader_tid]
    assert len(pinned) == 1 and "W@" in pinned[0]
    expected = _finish(straight)
    assert expected["metrics"]["support"]["nonrevocable_dependency"] == 1

    probed = restore_vm(checkpoint)
    assert all(
        w.index == {} and w.indexed == 0
        for w in probed.support.jmm._writers.values()
    )
    assert _dependency_answers(probed) == answers
    assert _finish(probed) == expected

    assert _finish(restore_vm(checkpoint)) == expected
