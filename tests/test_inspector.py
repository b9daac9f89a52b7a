"""Stepping and inspecting a hand-built VM through the time-travel
debugger: :func:`record_vm` records it, a :class:`DebugSession` steps
it, and :func:`inspect_vm` / :func:`render_frames` look inside."""

import json

import pytest

from repro import Asm, VMStateError
from repro.obs.debug import (
    DebugSession,
    inspect_vm,
    record_vm,
    render_frames,
    render_state,
)
from repro.obs.spans import build_spans
from repro.vm.bytecode import disassemble
from repro.vm.predecode import predecode_method, render_decoded

from conftest import build_class, counter_vm, make_vm


def hooked_check_vm(scenario):
    """A checker VM scheduled by a controller with a fixed prefix."""
    from repro.check.explorer import ScheduleController, check_vm
    from repro.check.scenarios import get_scenario

    vm = check_vm(get_scenario(scenario), "rollback", trace=True)
    vm.scheduler.decision_hook = ScheduleController((1, 0, 1))
    return vm


@pytest.fixture(scope="module")
def recording():
    return record_vm(counter_vm(), interval=8)


def in_section(recording):
    """A session positioned at the first point where ``low`` is inside
    its synchronized section."""
    session = DebugSession(recording)
    while not session.vm.thread_named("low").sections:
        session.step()
    return session


class TestStepping:
    def test_step_slices_progress_virtual_time(self, recording):
        session = DebugSession(recording)
        before = session.now
        assert session.step(3) > before

    def test_finish_completes_the_run(self, recording):
        session = DebugSession(recording)
        session.step(2)
        assert session.seek(recording.clock) == recording.clock
        assert session.vm.all_terminated()
        assert session.vm.get_static("T", "counter") == 2_060

    def test_stepping_equals_plain_run(self, recording):
        """Recording (and stepping) must be observationally identical
        to vm.run()."""
        plain = counter_vm()
        plain.run()
        assert recording.clock == plain.clock.now
        assert recording.outcome == "completed"
        assert (
            recording.artifact["metrics"]["support"]
            == plain.metrics()["support"]
        )
        session = DebugSession(recording)
        session.seek(recording.clock)
        assert session.vm.metrics()["support"] == plain.metrics()["support"]
        # the sinks attach after the spawns, yet the spans still cover
        # the whole run: the same stream a post-hoc fold produces
        posthoc = build_spans(plain.tracer.events, plain.clock.now)
        assert [
            (r["kind"], r["thread"], r["start"], r["end"])
            for r in _span_records(recording)
        ] == [(s.kind, s.thread, s.start, s.end) for s in posthoc]

    def test_run_until_predicate(self, recording):
        session = DebugSession(recording)
        assert session.until(5_000) >= 5_000

    def test_run_until_event_rollback(self, recording):
        """Position at the first rollback span of the recorded stream."""
        start = min(
            obj["start"] for obj in _span_records(recording)
            if obj["kind"] == "revocation"
        )
        session = DebugSession(recording)
        assert session.seek(start) >= start
        assert session.now < recording.clock
        assert recording.artifact["metrics"]["support"][
            "revocations_completed"
        ] >= 1

    def test_run_until_never_satisfied_returns_false(self, recording):
        session = DebugSession(recording)
        assert session.until(recording.clock + 10**9) == recording.clock

    def test_inspector_rejects_finished_vm(self):
        vm = counter_vm()
        vm.run()
        with pytest.raises(VMStateError):
            record_vm(vm)

    def test_uncaught_exception_surfaces_on_step(self):
        boom = Asm("boom", argc=0)
        boom.throw_new("Error")
        cls = build_class("B", [], [boom])
        vm = make_vm()
        vm.load(cls)
        vm.spawn("B", "boom", name="b")
        assert record_vm(vm).outcome == "uncaught:Error"

    @pytest.mark.parametrize(
        "scenario", ["handoff", "barge", "handoff-trio", "pileup6"]
    )
    def test_restores_continue_under_the_recorded_decision_hook(
        self, scenario
    ):
        """The decision hook is VM state: every checkpoint of a hooked
        VM restores with its own copy of the controller, so a session
        restored anywhere drains to the straight run's timeline."""
        from repro.check.explorer import ScheduleController
        from repro.errors import run_outcome

        straight = hooked_check_vm(scenario)
        outcome = run_outcome(straight.run)
        rec = record_vm(hooked_check_vm(scenario), interval=4)
        assert (rec.clock, rec.outcome) == (straight.clock.now, outcome)
        clocks = [c.clock_now for c in rec.checkpoints]
        assert len(clocks) > 2 and clocks == sorted(set(clocks))
        session = DebugSession(rec)
        for clock in clocks:
            assert session.seek(clock) == clock
            hook = session.vm.scheduler.decision_hook
            assert isinstance(hook, ScheduleController)
            assert hook.prefix == (1, 0, 1)
            session.step(10**9)
            assert session.now == rec.clock, f"checkpoint at {clock}"
            assert session.vm.tracer.render() == straight.tracer.render()


class TestInspection:
    def test_stack_trace_shows_frames_and_sections(self, recording):
        session = in_section(recording)
        low = next(
            t for t in session.state()["threads"] if t["name"] == "low"
        )
        assert low["frames"][0]["method"] == "T.run"
        assert low["sections"]
        text = render_frames(session.vm, "low")
        assert text.startswith("low [")
        assert "at T.run pc=" in text
        assert "sections:" in text

    def test_disassemble_around_marks_pc(self, recording):
        session = DebugSession(recording)
        session.step()
        assert "->" in render_frames(session.vm, "low")
        with pytest.raises(VMStateError):
            render_frames(session.vm, "nobody")

    def test_locals_and_stack_snapshots(self, recording):
        session = in_section(recording)
        state = inspect_vm(session.vm)
        low = next(t for t in state["threads"] if t["name"] == "low")
        frame = low["frames"][0]
        assert frame["locals"][0] == 2_000  # the iters argument
        assert isinstance(frame["stack"], list)
        assert frame["instruction"] is not None

    def test_threads_summary(self, recording):
        session = DebugSession(recording)
        session.step(2)
        text = render_state(session.state())
        assert "low" in text and "high" in text

    def test_disassemble_method(self):
        vm = counter_vm()
        text = disassemble(vm.resolve_method("T", "run").code)
        assert "monitorenter" in text
        assert "savestate" in text  # the transformer ran (rollback mode)

    def test_disassemble_decoded(self):
        vm = counter_vm()
        text = render_decoded(
            predecode_method(vm, vm.resolve_method("T", "run"))
        )
        assert "T.run" in text
        assert "block [" in text        # at least one fused block
        assert "def _b" in text         # generated block source included


def _span_records(recording):
    lines = recording.artifact["spans_jsonl"].splitlines()[1:]
    return [json.loads(line) for line in lines]
