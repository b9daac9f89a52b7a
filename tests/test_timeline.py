"""Tests for the trace-timeline renderer."""

from repro import Asm
from repro.vm.timeline import render_timeline

from conftest import build_class, make_vm


def inversion_vm():
    run = Asm("run", argc=2)  # (iters, delay)
    run.load(1).sleep()
    run.getstatic("T", "lock")
    with run.sync():
        i = run.local()
        run.for_range(i, lambda: run.load(0), lambda: (
            run.getstatic("T", "counter"), run.const(1), run.add(),
            run.putstatic("T", "counter"),
        ))
    run.ret()
    cls = build_class("T", ["lock:ref", "counter:int"], [run])
    vm = make_vm("rollback", seed=3)
    vm.load(cls)
    vm.set_static("T", "lock", vm.new_object("T"))
    vm.spawn("T", "run", args=[2_000, 1], priority=1, name="low")
    vm.spawn("T", "run", args=[60, 6_000], priority=10, name="high")
    vm.run()
    return vm


class TestRenderTimeline:
    def test_rows_per_thread(self):
        vm = inversion_vm()
        out = render_timeline(vm)
        assert "low" in out and "high" in out
        assert "legend:" in out

    def test_rollback_marker_present(self):
        vm = inversion_vm()
        assert vm.metrics()["support"]["revocations_completed"] >= 1
        out = render_timeline(vm)
        low_row = next(line for line in out.splitlines()
                       if line.strip().startswith("low"))
        assert "R" in low_row

    def test_section_and_block_glyphs(self):
        vm = inversion_vm()
        out = render_timeline(vm)
        low_row = next(line for line in out.splitlines()
                       if line.strip().startswith("low"))
        high_row = next(line for line in out.splitlines()
                        if line.strip().startswith("high"))
        assert "#" in low_row    # held the section
        assert "#" in high_row
        assert "-" in low_row or "-" in high_row  # someone blocked

    def test_window_restriction(self):
        vm = inversion_vm()
        out = render_timeline(vm, start=0, end=100, width=20)
        assert "0 .. 100" in out

    def test_untraced_vm_message(self):
        from repro.vm.vmcore import JVM, VMOptions

        vm = JVM(VMOptions())
        vm.run()
        assert "no trace events" in render_timeline(vm)

    def test_width_respected(self):
        vm = inversion_vm()
        out = render_timeline(vm, width=30)
        rows = [line for line in out.splitlines() if line.endswith("|")]
        for row in rows:
            bar = row.split("|")[1]
            assert len(bar) == 30


def _thread_rows(out):
    return [line for line in out.splitlines() if line.endswith("|")]


class TestBudgetedDownsampling:
    """max_width is a budget for the whole rendered row — name gutter,
    rails and cells.  Rows must never exceed it (down to the documented
    MIN_COLUMNS floor), at exactly-budget and budget±1 alike, and
    downsampling must keep the first and last trace events visible."""

    def test_budget_exact_and_off_by_one(self):
        vm = inversion_vm()
        name_width = max(len(t.name) for t in vm.threads)
        floor = name_width + 3 + 10  # gutter + rails + MIN_COLUMNS
        for budget in (floor - 1, floor, floor + 1, 40, 59, 60, 61, 83):
            out = render_timeline(vm, max_width=budget)
            for row in _thread_rows(out):
                assert len(row) <= max(budget, floor), (budget, row)

    def test_budget_sweep_property(self):
        vm = inversion_vm()
        name_width = max(len(t.name) for t in vm.threads)
        floor = name_width + 3 + 10
        for budget in range(floor, 120):
            out = render_timeline(vm, max_width=budget)
            rows = _thread_rows(out)
            assert rows, budget
            for row in rows:
                assert len(row) <= budget, (budget, row)

    def test_first_and_last_events_preserved(self):
        vm = inversion_vm()
        events = vm.tracer.events
        t0 = events[0].time
        t1 = max(vm.clock.now, events[-1].time)
        span = t1 - t0
        for budget in (25, 40, 80):
            out = render_timeline(vm, max_width=budget)
            rows = _thread_rows(out)
            width = len(rows[0].split("|")[1])
            first_col = min(
                max(0, min(width - 1, (e.time - t0) * width // span))
                for e in events if e.thread
            )
            last_col = max(
                max(0, min(width - 1, (e.time - t0) * width // span))
                for e in events if e.thread
            )
            cols = {
                c for row in rows
                for c, ch in enumerate(row.split("|")[1]) if ch != " "
            }
            assert first_col in cols, budget
            assert last_col in cols, budget

    def test_point_markers_land_on_integer_exact_cells(self):
        # Point markers (R/D/G/!) must sit in the cell given by the
        # integer floor mapping (time - t0) * width // span.  A float
        # implementation can land one cell off when time * width is not
        # exactly representable, shifting markers between hosts.
        vm = inversion_vm()
        events = vm.tracer.events
        t0 = events[0].time
        t1 = max(vm.clock.now, events[-1].time)
        span = t1 - t0
        rollbacks = [e for e in events if e.kind == "rollback_done"]
        assert rollbacks
        for budget in (25, 47, 60, 93):
            out = render_timeline(vm, max_width=budget)
            rows = _thread_rows(out)
            width = len(rows[0].split("|")[1])
            row = next(r for r in rows if r.strip().startswith("low"))
            bar = row.split("|")[1]
            for e in rollbacks:
                c = max(0, min(width - 1, (e.time - t0) * width // span))
                assert bar[c] == "R", (budget, c)

    def test_legacy_none_budget_keeps_80_cells(self):
        vm = inversion_vm()
        out = render_timeline(vm, max_width=None)
        for row in _thread_rows(out):
            assert len(row.split("|")[1]) == 80


def nested_sync_vm():
    """One thread holds ``a`` for the whole run and takes ``b`` briefly
    inside it: the outer section outlives the inner one by far."""
    run = Asm("run", argc=2)  # (inner iters, outer iters)
    run.getstatic("T", "a")
    with run.sync():
        run.getstatic("T", "b")
        with run.sync():
            i = run.local()
            run.for_range(i, lambda: run.load(0), lambda: (
                run.getstatic("T", "counter"), run.const(1), run.add(),
                run.putstatic("T", "counter"),
            ))
        j = run.local()
        run.for_range(j, lambda: run.load(1), lambda: (
            run.getstatic("T", "counter"), run.const(1), run.add(),
            run.putstatic("T", "counter"),
        ))
    run.ret()
    cls = build_class("T", ["a:ref", "b:ref", "counter:int"], [run])
    vm = make_vm("rollback", seed=3)
    vm.load(cls)
    vm.set_static("T", "a", vm.new_object("T"))
    vm.set_static("T", "b", vm.new_object("T"))
    vm.spawn("T", "run", args=[20, 200], name="t")
    vm.run()
    return vm


class TestNestedSections:
    def test_outer_section_stays_painted_after_inner_release(self):
        from repro.obs.spans import build_spans

        vm = nested_sync_vm()
        sections = sorted(
            (s for s in build_spans(vm.tracer.events, vm.clock.now)
             if s.kind == "section"),
            key=lambda s: s.start,
        )
        outer, inner = sections
        assert outer.end > 4 * inner.end  # a outlives b by far
        out = render_timeline(vm, width=60)
        bar = _thread_rows(out)[0].split("|")[1]
        t0 = vm.tracer.events[0].time
        span = max(vm.clock.now, vm.tracer.events[-1].time) - t0
        first = (outer.start - t0) * 60 // span
        last = (outer.end - t0) * 60 // span
        assert bar[first:last + 1] == "#" * (last - first + 1)
