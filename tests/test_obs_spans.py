"""Span construction: causality, outcomes, and determinism.

The span builder folds the raw trace into typed intervals; these tests
pin the structural invariants the exporters and the CLI rely on:
sections parent to their enclosing span, revocations parent to the
section they preempted (with a back-link), every span closes with an
outcome, and the whole construction is a pure function of the event
stream.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import (
    build_bounded_buffer,
    build_deadlock_pair,
    build_medium_inversion,
    build_philosophers,
)
from repro.errors import run_outcome
from repro.obs.spans import SpanBuilder, build_spans
from repro.vm.vmcore import JVM, VMOptions


def _run(build, mode="rollback", **overrides):
    opts = dict(mode=mode, trace=True, seed=7, max_cycles=50_000_000)
    opts.update(overrides)
    vm = JVM(VMOptions(**opts))
    build().install(vm)
    # a run that crashed part-way must not feed the span checks: every
    # caller asserts the outcome it expects
    return vm, run_outcome(vm.run)


def _spans(vm):
    return build_spans(vm.tracer.events, vm.clock.now)


def test_every_thread_gets_a_root_span():
    vm, outcome = _run(lambda: build_deadlock_pair(hold_cycles=800, work=20))
    assert outcome == "completed"
    spans = _spans(vm)
    roots = [s for s in spans if s.kind == "thread"]
    assert {s.thread for s in roots} == {t.name for t in vm.threads}
    for s in roots:
        assert s.parent is None
        assert s.end is not None and s.end >= s.start


def test_sections_parent_to_enclosing_span():
    vm, outcome = _run(lambda: build_philosophers(
        3, rounds=3, think_cycles=300, eat_iters=15
    ))
    assert outcome == "completed"
    spans = _spans(vm)
    by_sid = {s.sid: s for s in spans}
    section_spans = [s for s in spans if s.kind == "section"]
    assert section_spans
    for s in section_spans:
        parent = by_sid[s.parent]
        assert parent.kind in ("thread", "section")
        assert parent.thread == s.thread
        # containment: child interval inside parent interval
        assert parent.start <= s.start
        assert parent.end >= s.end


def test_section_outcomes_are_closed():
    vm, outcome = _run(lambda: build_philosophers(
        3, rounds=3, think_cycles=300, eat_iters=15
    ))
    assert outcome == "completed"
    for s in _spans(vm):
        if s.kind == "section":
            assert s.attrs["outcome"] in (
                "commit", "rollback", "abandoned", "leaked"
            )
            assert s.end is not None


def test_revocation_parents_to_preempted_section():
    vm, outcome = _run(lambda: build_philosophers(
        3, rounds=3, think_cycles=300, eat_iters=15
    ))
    assert outcome == "completed"
    spans = _spans(vm)
    by_sid = {s.sid: s for s in spans}
    revocations = [s for s in spans if s.kind == "revocation"]
    assert revocations, "workload must exercise revocation"
    for r in revocations:
        section = by_sid[r.parent]
        assert section.kind == "section"
        assert section.attrs["outcome"] == "rollback"
        # the causal back-link
        assert section.attrs["revoked_by"] == r.sid
        assert r.attrs["outcome"] == "rolled-back"
        assert r.attrs["origin"] in ("inversion", "deadlock", "periodic")


def test_blocked_span_outcomes():
    vm, outcome = _run(lambda: build_deadlock_pair(hold_cycles=800, work=20))
    assert outcome == "completed"
    outcomes = {
        s.attrs["outcome"] for s in _spans(vm) if s.kind == "blocked"
    }
    # the deadlock pair blocks, one thread is woken for revocation, the
    # other is granted the monitor when the rollback releases it
    assert "revocation-wake" in outcomes or "wakeup" in outcomes
    assert "granted" in outcomes or "acquired" in outcomes


def test_wait_spans_close_with_outcome():
    vm, outcome = _run(lambda: build_bounded_buffer(
        capacity=2, items_per_producer=6, producers=2, consumers=2
    ))
    assert outcome == "completed"
    waits = [s for s in _spans(vm) if s.kind == "wait"]
    assert waits, "bounded buffer must exercise Object.wait"
    for s in waits:
        assert s.attrs["outcome"] in (
            "returned", "notified", "timeout", "exit"
        )


def test_deadlock_instant_on_unmodified():
    vm, outcome = _run(
        lambda: build_deadlock_pair(hold_cycles=800, work=20),
        mode="unmodified",
    )
    assert outcome == "deadlock"
    spans = _spans(vm)
    dead = [s for s in spans if s.kind == "deadlock"]
    assert len(dead) == 1
    assert dead[0].start == dead[0].end
    assert dead[0].attrs["cycle"]


def test_online_sink_equals_posthoc_construction():
    vm = JVM(VMOptions(mode="rollback", trace=True, seed=7,
                       max_cycles=50_000_000))
    builder = SpanBuilder()
    vm.tracer.add_sink(builder)
    build_medium_inversion(
        medium_threads=2, low_section_iters=300,
        medium_work_iters=500, high_section_iters=60,
    ).install(vm)
    vm.run()
    online = [s.as_dict() for s in builder.finish(vm.clock.now)]
    posthoc = [
        s.as_dict() for s in build_spans(vm.tracer.events, vm.clock.now)
    ]
    assert online == posthoc


def test_spans_are_pure_function_of_events():
    vm, outcome = _run(lambda: build_philosophers(
        3, rounds=3, think_cycles=300, eat_iters=15
    ))
    assert outcome == "completed"
    a = [s.as_dict() for s in _spans(vm)]
    b = [s.as_dict() for s in _spans(vm)]
    assert a == b


def test_finish_marks_open_spans():
    builder = SpanBuilder()
    from repro.vm.tracing import TraceEvent

    builder(TraceEvent(time=0, kind="spawn", thread="t1",
                       details={"priority": 5}))
    spans = builder.finish(100)
    assert len(spans) == 1
    assert spans[0].end == 100
    assert spans[0].attrs["open"] is True


def test_dispatch_table_is_the_on_methods():
    handlers = {
        name[len("_on_"):]: fn
        for name, fn in vars(SpanBuilder).items()
        if name.startswith("_on_")
    }
    assert handlers
    assert SpanBuilder._HANDLERS == handlers


def test_unknown_kind_is_ignored():
    from repro.vm.tracing import TraceEvent

    builder = SpanBuilder()
    builder(TraceEvent(0, "mem_read", "t1", {"loc": "x"}))
    builder(TraceEvent(0, "no_such_kind", None))
    assert builder.finish(10) == []
