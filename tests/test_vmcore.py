"""Tests for the JVM facade: options, loading, linking, metrics, tracing."""

import pytest

from repro import (
    Asm,
    ClassDef,
    CostModel,
    FieldDef,
    LinkError,
    StarvationError,
    VMOptions,
    VMStateError,
)
from repro.vm import bytecode as bc
from repro.vm.vmcore import JVM

from conftest import build_class, make_vm


def trivial_class(name="T"):
    a = Asm("run", argc=0)
    a.ret()
    return ClassDef(name, methods=[a.build()])


class TestOptions:
    def test_defaults(self):
        opts = VMOptions()
        assert opts.mode == "unmodified"
        assert not opts.modified

    def test_modified_flag(self):
        assert VMOptions(mode="rollback").modified
        assert not VMOptions(mode="inheritance").modified

    @pytest.mark.parametrize("field,value", [
        ("mode", "fancy"),
        ("scheduler", "lottery"),
        ("detection", "psychic"),
    ])
    def test_invalid_options_rejected(self, field, value):
        with pytest.raises(ValueError):
            VMOptions(**{field: value})

    def test_with_creates_variant(self):
        opts = VMOptions(seed=1)
        opts2 = opts.with_(seed=2)
        assert opts.seed == 1 and opts2.seed == 2

    def test_kwargs_shortcut(self):
        vm = JVM(mode="rollback", seed=9)
        assert vm.options.mode == "rollback"
        assert vm.options.seed == 9


class TestLoading:
    def test_duplicate_class_rejected(self, vm):
        vm.load(trivial_class())
        with pytest.raises(LinkError):
            vm.load(trivial_class())

    def test_builtin_exceptions_preloaded(self, vm):
        assert "Throwable" in vm.classes
        assert "NullPointerException" in vm.classes

    def test_linking_assigns_costs_and_ypoints(self, vm):
        a = Asm("run", argc=0)
        top = a.label()
        a.place(top)
        i = a.local()
        a.iinc(i, 1)
        a.load(i).const(5).lt().if_(top)
        a.ret()
        loaded = vm.load(ClassDef("L", methods=[a.build()]))
        code = loaded.method("run").code
        assert all(ins.cost >= 0 for ins in code)
        backward_if = code[4]
        assert backward_if.op == bc.IF and backward_if.ypoint

    def test_invoke_is_yield_point_but_impl_calls_are_not(self):
        vm = make_vm("rollback")
        callee = Asm("work", argc=0, synchronized=True)
        callee.ret()
        caller = Asm("main", argc=0)
        caller.invoke("C", "work", 0)
        caller.ret()
        loaded = vm.load(ClassDef("C", methods=[callee.build(),
                                                caller.build()]))
        main_invoke = next(
            ins for ins in loaded.method("main").code
            if ins.op == bc.INVOKE
        )
        assert main_invoke.ypoint
        wrapper_invoke = next(
            ins for ins in loaded.method("work").code
            if ins.op == bc.INVOKE
        )
        assert not wrapper_invoke.ypoint  # inlined $impl call
        assert wrapper_invoke.cost == 0


class TestLifecycle:
    def test_spawn_after_run_rejected(self, vm):
        vm.load(trivial_class())
        vm.spawn("T", "run", name="a")
        vm.run()
        with pytest.raises(VMStateError):
            vm.spawn("T", "run", name="b")

    def test_run_twice_rejected(self, vm):
        vm.load(trivial_class())
        vm.run()
        with pytest.raises(VMStateError):
            vm.run()

    def test_spawn_arity_checked(self, vm):
        vm.load(trivial_class())
        with pytest.raises(LinkError):
            vm.spawn("T", "run", args=[1, 2])

    def test_thread_named_lookup(self, vm):
        vm.load(trivial_class())
        t = vm.spawn("T", "run", name="zed")
        assert vm.thread_named("zed") is t
        with pytest.raises(VMStateError):
            vm.thread_named("nope")

    def test_starvation_guard(self):
        a = Asm("run", argc=0)
        top = a.label()
        a.place(top)
        a.goto(top)  # infinite loop
        cls = ClassDef("T", methods=[a.build()])
        vm = make_vm(max_cycles=100_000)
        vm.load(cls)
        vm.spawn("T", "run", name="spin")
        with pytest.raises(StarvationError):
            vm.run()


class TestCostModelIntegration:
    def test_scaled_cost_model_slows_virtual_time(self):
        def elapsed(cm):
            a = Asm("run", argc=0)
            i = a.local()
            a.for_range(i, lambda: a.const(1_000), lambda: a.const(0).pop())
            a.ret()
            vm = JVM(VMOptions(cost_model=cm))
            vm.load(ClassDef("T", methods=[a.build()]))
            vm.spawn("T", "run", name="t")
            vm.run()
            return vm.clock.now

        base = elapsed(CostModel())
        doubled = elapsed(CostModel().scaled(2.0))
        assert doubled > base * 1.7


class TestMetrics:
    def test_schema_identical_across_modes(self):
        for mode in ("unmodified", "rollback"):
            vm = make_vm(mode)
            vm.load(trivial_class())
            vm.spawn("T", "run", name="t")
            vm.run()
            m = vm.metrics()
            assert {"mode", "elapsed_cycles", "context_switches",
                    "slices", "threads", "support"} <= set(m)
            assert "t" in m["threads"]

    def test_per_thread_fields(self, vm):
        vm.load(trivial_class())
        vm.spawn("T", "run", name="t")
        vm.run()
        t = vm.metrics()["threads"]["t"]
        assert t["state"] == "terminated"
        assert t["instructions"] >= 1
        assert t["end_time"] >= t["start_time"]

    def test_all_terminated(self, vm):
        vm.load(trivial_class())
        vm.spawn("T", "run", name="t")
        assert not vm.all_terminated()
        vm.run()
        assert vm.all_terminated()


class TestTracing:
    def test_disabled_by_default_outside_tests(self):
        vm = JVM(VMOptions())
        assert not vm.tracer.enabled
        vm.load(trivial_class())
        vm.spawn("T", "run", name="t")
        vm.run()
        assert vm.tracer.events == []

    def test_events_recorded_when_enabled(self, vm):
        vm.load(trivial_class())
        vm.spawn("T", "run", name="t")
        vm.run()
        kinds = {e.kind for e in vm.tracer.events}
        assert "spawn" in kinds and "exit" in kinds

    def test_trace_query_helpers(self, vm):
        vm.load(trivial_class())
        vm.spawn("T", "run", name="t")
        vm.run()
        assert vm.tracer.count("spawn") == 1
        assert vm.tracer.first("spawn").thread == "t"
        assert vm.tracer.last("exit").thread == "t"
        assert vm.tracer.for_thread("t")
        assert vm.tracer.of_kind("spawn", "exit")
        rendered = vm.tracer.render()
        assert "spawn" in rendered

    def test_capacity_limit(self):
        from repro.vm.tracing import Tracer

        tr = Tracer(enabled=True, capacity=3)
        for i in range(5):
            tr.record(i, "k", None)
        assert len(tr.events) == 3
        assert tr.dropped == 2

    def test_between(self):
        from repro.vm.tracing import Tracer

        tr = Tracer(enabled=True)
        for i in range(10):
            tr.record(i * 10, "k", None)
        assert len(tr.between(20, 50)) == 3


    def test_trace_event_is_slotted_and_compares_by_value(self):
        from repro.vm.tracing import TraceEvent

        event = TraceEvent(5, "acquire", "t", {"mon": "<M#1>"})
        assert not hasattr(event, "__dict__")
        assert event == TraceEvent(5, "acquire", "t", {"mon": "<M#1>"})
        assert event != TraceEvent(5, "acquire", "t", {"mon": "<M#2>"})
        assert TraceEvent(0, "k", None).details == {}
        assert str(event) == "[         5] acquire thread=t mon=<M#1>"

    def test_record_takes_the_details_dict_as_is(self):
        from repro.vm.tracing import Tracer

        tr = Tracer(enabled=True)
        details = {"mon": "<M#1>"}
        tr.record(3, "block", "t", details)
        assert tr.events[0].details is details

    def test_monitor_label_is_cached_at_inflation(self, vm):
        from repro.vm.monitors import monitor_of

        vm.load(trivial_class())
        obj = vm.new_object("T")
        mon = monitor_of(obj)
        assert mon.label == repr(obj)
        vm.trace("probe", None, mon=mon)
        assert vm.tracer.events[-1].details == {"mon": repr(obj)}

    @pytest.mark.parametrize("build, events, digest", [
        (lambda w: w.build_deadlock_pair(hold_cycles=800, work=20),
         23, "3ab3d982cb512593"),
        (lambda w: w.build_bounded_buffer(
            capacity=2, items_per_producer=6, producers=2, consumers=2),
         114, "35e742e1e7368c03"),
    ], ids=["deadlock_pair", "bounded_buffer"])
    def test_render_pinned(self, build, events, digest):
        """``render()`` of two traced runs, pinned byte for byte: the
        deadlock pair covers block, wakeup and rollback events, the
        bounded buffer wait, notify and wait_return."""
        import hashlib

        from repro.bench import workloads

        vm = JVM(VMOptions(mode="rollback", trace=True, seed=7,
                           max_cycles=50_000_000))
        build(workloads).install(vm)
        vm.run()
        rendered = vm.tracer.render()
        assert len(vm.tracer.events) == events
        assert hashlib.sha256(rendered.encode()).hexdigest()[:16] == digest


class TestGuestExceptionFactory:
    def test_known_class(self, vm):
        exc = vm.make_guest_exception("ArithmeticException", "boom")
        assert exc.classdef.name == "ArithmeticException"
        assert exc.fields["message"] == "boom"

    def test_unknown_class_falls_back(self, vm):
        exc = vm.make_guest_exception("NoSuchClass", "boom")
        assert exc.classdef.name == "RuntimeException"


class TestHostAccess:
    def test_new_object_and_array(self, vm):
        vm.load(ClassDef("O", fields=[FieldDef("x", "int")]))
        obj = vm.new_object("O")
        assert obj.classdef.name == "O"
        arr = vm.new_array(3, fill=7)
        assert arr.snapshot() == [7, 7, 7]

    def test_static_roundtrip(self, vm):
        vm.load(ClassDef("S", fields=[
            FieldDef("x", "int", is_static=True)
        ]))
        vm.set_static("S", "x", 42)
        assert vm.get_static("S", "x") == 42
