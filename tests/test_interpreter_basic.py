"""Interpreter tests: arithmetic, control flow, heap access, calls.

All run a single guest thread and assert on static fields ("out" by
convention) after the VM quiesces.
"""

import pytest

from repro import Asm, UncaughtGuestException
from repro.vm.threads import ThreadState

from conftest import build_class, make_vm, run_single


def out_of(vm, name="out"):
    return vm.get_static("T", name)


class TestArithmetic:
    @pytest.mark.parametrize("emitter,expected", [
        (lambda a: a.const(2).const(3).add(), 5),
        (lambda a: a.const(2).const(3).sub(), -1),
        (lambda a: a.const(4).const(3).mul(), 12),
        (lambda a: a.const(7).const(2).div(), 3),
        (lambda a: a.const(-7).const(2).div(), -3),   # Java: toward zero
        (lambda a: a.const(7).const(-2).div(), -3),
        (lambda a: a.const(-7).const(-2).div(), 3),
        (lambda a: a.const(7).const(3).mod(), 1),
        (lambda a: a.const(-7).const(3).mod(), -1),   # sign of dividend
        (lambda a: a.const(7).const(-3).mod(), 1),
        (lambda a: a.const(5).neg(), -5),
        (lambda a: a.const(0b1100).const(0b1010).and_(), 0b1000),
        (lambda a: a.const(0b1100).const(0b1010).or_(), 0b1110),
        (lambda a: a.const(0b1100).const(0b1010).xor(), 0b0110),
        (lambda a: a.const(3).const(2).shl(), 12),
        (lambda a: a.const(12).const(2).shr(), 3),
        (lambda a: a.const(-8).const(1).shr(), -4),   # arithmetic shift
        (lambda a: a.const(0).not_(), 1),
        (lambda a: a.const(5).not_(), 0),
    ])
    def test_int_ops(self, emitter, expected):
        vm = run_single(
            lambda a: (emitter(a), a.putstatic("T", "out")),
            fields=["out:int"],
        )
        assert out_of(vm) == expected

    def test_float_arithmetic(self):
        vm = run_single(
            lambda a: (
                a.const(1.5).const(0.25).add(), a.putstatic("T", "out"),
            ),
            fields=["out:float"],
        )
        assert out_of(vm) == pytest.approx(1.75)

    def test_float_division_by_zero_gives_infinity(self):
        vm = run_single(
            lambda a: (
                a.const(1.0).const(0.0).div(), a.putstatic("T", "out"),
            ),
            fields=["out:float"],
        )
        assert out_of(vm) == float("inf")

    @pytest.mark.parametrize("emitter,expected", [
        (lambda a: a.const(2).const(3).lt(), 1),
        (lambda a: a.const(3).const(3).lt(), 0),
        (lambda a: a.const(3).const(3).le(), 1),
        (lambda a: a.const(3).const(2).gt(), 1),
        (lambda a: a.const(3).const(3).ge(), 1),
        (lambda a: a.const(3).const(3).eq(), 1),
        (lambda a: a.const(3).const(4).ne(), 1),
    ])
    def test_comparisons(self, emitter, expected):
        vm = run_single(
            lambda a: (emitter(a), a.putstatic("T", "out")),
            fields=["out:int"],
        )
        assert out_of(vm) == expected

    def test_reference_equality_is_identity(self):
        def emit(a: Asm):
            x = a.local()
            a.new("T").store(x)
            a.load(x).load(x).eq().putstatic("T", "same")
            a.load(x).new("T").eq().putstatic("T", "diff")

        vm = run_single(emit, fields=["same:int", "diff:int"])
        assert out_of(vm, "same") == 1
        assert out_of(vm, "diff") == 0


class TestStackAndLocals:
    def test_dup_pop_swap(self):
        vm = run_single(
            lambda a: (
                a.const(1).const(2).swap().sub(),  # 2 - 1
                a.putstatic("T", "out"),
            ),
            fields=["out:int"],
        )
        assert out_of(vm) == 1

    def test_dup(self):
        vm = run_single(
            lambda a: (a.const(3).dup().mul(), a.putstatic("T", "out")),
            fields=["out:int"],
        )
        assert out_of(vm) == 9

    def test_locals_roundtrip(self):
        def emit(a: Asm):
            x = a.local()
            a.const(11).store(x)
            a.load(x).putstatic("T", "out")

        assert out_of(run_single(emit, fields=["out:int"])) == 11

    def test_iinc(self):
        def emit(a: Asm):
            x = a.local()
            a.const(5).store(x)
            a.iinc(x, 3)
            a.iinc(x, -1)
            a.load(x).putstatic("T", "out")

        assert out_of(run_single(emit, fields=["out:int"])) == 7

    def test_arguments_populate_locals(self):
        vm = run_single(
            lambda a: (a.load(0).load(1).sub(), a.putstatic("T", "out")),
            argc=2,
            args=[10, 4],
            fields=["out:int"],
        )
        assert out_of(vm) == 6


class TestControlFlow:
    def test_loop_sum(self):
        def emit(a: Asm):
            i = a.local()
            a.for_range(i, lambda: a.const(10), lambda: (
                a.getstatic("T", "out"), a.load(i), a.add(),
                a.putstatic("T", "out"),
            ))

        assert out_of(run_single(emit, fields=["out:int"])) == 45

    def test_nested_loops(self):
        def emit(a: Asm):
            i, j = a.local(), a.local()
            a.for_range(i, lambda: a.const(5), lambda:
                a.for_range(j, lambda: a.const(4), lambda: (
                    a.getstatic("T", "out"), a.const(1), a.add(),
                    a.putstatic("T", "out"),
                )))

        assert out_of(run_single(emit, fields=["out:int"])) == 20

    def test_if_then_else_both_arms(self):
        for cond, expected in ((1, 10), (0, 20)):
            vm = run_single(
                lambda a, c=cond: a.if_then(
                    lambda: a.const(c),
                    lambda: a.const(10).putstatic("T", "out"),
                    lambda: a.const(20).putstatic("T", "out"),
                ),
                fields=["out:int"],
            )
            assert out_of(vm) == expected


class TestHeapAccess:
    def test_object_fields(self):
        from repro.vm.classfile import FieldDef

        def emit(a: Asm):
            o = a.local()
            a.new("T").store(o)
            a.load(o).const(5).putfield("x")
            a.load(o).getfield("x").putstatic("T", "out")

        asm = Asm("main")
        emit(asm)
        asm.ret()
        cls = build_class("T", ["out:int"], [asm])
        cls.add_field(FieldDef("x", "int"))  # instance field
        vm = make_vm()
        vm.load(cls)
        vm.spawn("T", "main", name="main")
        vm.run()
        assert out_of(vm) == 5

    def test_array_store_load(self):
        def emit(a: Asm):
            arr = a.local()
            a.const(4).newarray().store(arr)
            a.load(arr).const(2).const(99).astore()
            a.load(arr).const(2).aload().putstatic("T", "out")
            a.load(arr).arraylen().putstatic("T", "len")

        vm = run_single(emit, fields=["out:int", "len:int"])
        assert out_of(vm) == 99
        assert out_of(vm, "len") == 4

    def test_newarray_fill(self):
        def emit(a: Asm):
            arr = a.local()
            a.const(3).newarray(fill=7).store(arr)
            a.load(arr).const(0).aload().putstatic("T", "out")

        assert out_of(run_single(emit, fields=["out:int"])) == 7

    def test_statics_roundtrip(self):
        vm = run_single(
            lambda a: (
                a.const(21).putstatic("T", "out"),
                a.getstatic("T", "out"), a.const(2), a.mul(),
                a.putstatic("T", "out"),
            ),
            fields=["out:int"],
        )
        assert out_of(vm) == 42

    def test_classref_pushes_class_object(self):
        vm = run_single(
            lambda a: a.classref("T").putstatic("T", "out"),
            fields=["out:ref"],
        )
        assert out_of(vm).classdef.name == "Class"


class TestCalls:
    def test_invoke_with_result(self):
        helper = Asm("square", argc=1, returns_value=True)
        helper.load(0).load(0).mul().ret()

        main = Asm("main")
        main.const(6).invoke("T", "square", 1).putstatic("T", "out")
        main.ret()

        vm = make_vm()
        vm.load(build_class("T", ["out:int"], [helper, main]))
        vm.spawn("T", "main", name="main")
        vm.run()
        assert out_of(vm) == 36

    def test_recursion(self):
        fact = Asm("fact", argc=1, returns_value=True)
        fact.if_then(
            lambda: fact.load(0).const(2).lt(),
            lambda: fact.const(1).ret(),
        )
        fact.load(0)
        fact.load(0).const(1).sub()
        fact.invoke("T", "fact", 1)
        fact.mul()
        fact.ret()

        main = Asm("main")
        main.const(6).invoke("T", "fact", 1).putstatic("T", "out")
        main.ret()

        vm = make_vm()
        vm.load(build_class("T", ["out:int"], [fact, main]))
        vm.spawn("T", "main", name="main")
        vm.run()
        assert out_of(vm) == 720

    def test_stack_overflow_becomes_guest_error(self):
        forever = Asm("loop", argc=0)
        forever.invoke("T", "loop", 0)
        forever.ret()

        vm = make_vm()
        vm.load(build_class("T", [], [forever]))
        vm.spawn("T", "loop", name="main")
        with pytest.raises(UncaughtGuestException) as exc_info:
            vm.run()
        assert exc_info.value.exc_class == "StackOverflowError"

    def test_thread_result(self):
        """A value-returning entry method hands its value to the guest
        (here through a static) and returning it ends the thread."""
        m = Asm("main", returns_value=True)
        m.const(123).putstatic("T", "out")
        m.getstatic("T", "out").ret()
        vm = make_vm()
        vm.load(build_class("T", ["out:int"], [m]))
        t = vm.spawn("T", "main", name="main")
        vm.run()
        assert vm.get_static("T", "out") == 123
        assert t.state is ThreadState.TERMINATED


class TestNatives:
    def test_println_captures(self):
        vm = run_single(
            lambda a: (a.const("hello").native("println", 1)),
        )
        assert vm.console == ["hello"]

    def test_custom_native_with_return(self):
        def emit(a: Asm):
            a.const(20).const(22).native("plus", 2)
            a.putstatic("T", "out")

        asm = Asm("main")
        emit(asm)
        asm.ret()
        vm = make_vm()
        vm.register_native("plus", lambda vm_, t, args: args[0] + args[1])
        vm.load(build_class("T", ["out:int"], [asm]))
        vm.spawn("T", "main", name="main")
        vm.run()
        assert out_of(vm) == 42

    def test_identity_hash(self):
        def emit(a: Asm):
            a.new("T").native("identityHashCode", 1)
            a.putstatic("T", "out")

        vm = run_single(emit, fields=["out:int"])
        assert out_of(vm) > 0


class TestIntrospectionOps:
    def test_tid(self):
        vm = run_single(
            lambda a: a.tid().putstatic("T", "out"), fields=["out:int"]
        )
        assert out_of(vm) == 0

    def test_time_monotonic(self):
        def emit(a: Asm):
            a.time().putstatic("T", "t0")
            i = a.local()
            a.for_range(i, lambda: a.const(50), lambda: a.const(0).pop())
            a.time().putstatic("T", "t1")

        vm = run_single(emit, fields=["t0:int", "t1:int"])
        assert out_of(vm, "t1") > out_of(vm, "t0") > 0

    def test_rand_within_bound(self):
        def emit(a: Asm):
            arr = a.local()
            a.const(200).newarray().store(arr)
            i = a.local()
            a.for_range(i, lambda: a.const(200), lambda: (
                a.load(arr), a.load(i), a.rand(7), a.astore(),
            ))
            a.load(arr).putstatic("T", "out")

        vm = run_single(emit, fields=["out:ref"])
        values = vm.get_static("T", "out").snapshot()
        assert set(values) <= set(range(7))
        assert len(set(values)) > 1  # actually random

    def test_determinism_across_vms(self):
        """Same seed, same program -> bit-identical virtual execution."""
        def emit(a: Asm):
            i = a.local()
            a.for_range(i, lambda: a.const(100), lambda: (
                a.getstatic("T", "out"), a.rand(1000), a.add(),
                a.putstatic("T", "out"),
            ))

        vm1 = run_single(emit, fields=["out:int"], seed=99)
        vm2 = run_single(emit, fields=["out:int"], seed=99)
        assert out_of(vm1) == out_of(vm2)
        assert vm1.clock.now == vm2.clock.now

    def test_different_seeds_differ(self):
        def emit(a: Asm):
            a.rand(10**9).putstatic("T", "out")

        vm1 = run_single(emit, fields=["out:int"], seed=1)
        vm2 = run_single(emit, fields=["out:int"], seed=2)
        assert out_of(vm1) != out_of(vm2)
