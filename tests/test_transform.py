"""Transformer tests (paper §3.1.1): sync-method wrapping, rollback-scope
injection, write-barrier insertion, relocation, and barrier elision."""

import pytest

from repro import Asm, ClassDef, FieldDef, TransformError
from repro.core.transform import (
    IMPL_SUFFIX,
    elide_barriers,
    inject_rollback_scopes,
    insert_instructions,
    insert_write_barriers,
    transform_class,
    wrap_synchronized_methods,
)
from repro.vm import bytecode as bc
from repro.vm.bytecode import Instruction
from repro.vm.classfile import ROLLBACK_TYPE

from conftest import build_class, make_vm


def sync_counter_method(name="run", *, count=3):
    a = Asm(name, argc=0)
    a.getstatic("C", "lock")
    with a.sync():
        i = a.local()
        a.for_range(i, lambda: a.const(count), lambda: (
            a.getstatic("C", "value"), a.const(1), a.add(),
            a.putstatic("C", "value"),
        ))
    a.ret()
    return a


def counter_class(*methods):
    return ClassDef("C", fields=[
        FieldDef("lock", "ref", is_static=True),
        FieldDef("value", "int", is_static=True),
    ], methods=[m.build() for m in methods])


class TestInsertInstructions:
    def _method(self):
        a = Asm("m", argc=0)
        top = a.label()
        end = a.label()
        a.place(top)              # 0
        a.const(1)                # 0: const
        a.if_(end)                # 1: if -> end
        a.goto(top)               # 2: goto -> top
        a.place(end)
        a.ret()                   # 3
        return a.build()

    def test_branch_targets_relocated(self):
        m = self._method()
        insert_instructions(m, 1, [Instruction(bc.NOP), Instruction(bc.NOP)])
        # if (now at pc 3) targets ret (was 3, now 5); goto targets 0
        assert m.code[3].op == bc.IF and m.code[3].a == 5
        assert m.code[4].op == bc.GOTO and m.code[4].a == 0

    def test_branch_to_insertion_point_lands_on_inserted_code(self):
        m = self._method()
        # goto targets pc 0; insert at 0 -> the goto must now target the
        # inserted instruction (SAVESTATE-before-monitorenter semantics)
        insert_instructions(m, 0, [Instruction(bc.NOP)])
        goto = next(ins for ins in m.code if ins.op == bc.GOTO)
        assert goto.a == 0

    def test_exception_table_relocated(self):
        a = Asm("m", argc=0)
        a.try_(
            body=lambda: a.const(1).pop(),
            catches=[("E", lambda: a.pop())],
        )
        a.ret()
        m = a.build()
        entry_before = m.exc_table[0]
        # Insert strictly before the range: everything shifts.
        insert_instructions(m, entry_before.start, [Instruction(bc.NOP)] * 3)
        entry_after = m.exc_table[0]
        # A boundary pc equal to the insertion point stays (the inserted
        # code joins the range); interior and later pcs shift.
        assert entry_after.start == entry_before.start
        assert entry_after.end == entry_before.end + 3
        assert entry_after.handler == entry_before.handler + 3

    def test_empty_insert_is_noop(self):
        m = self._method()
        code_before = list(m.code)
        insert_instructions(m, 1, [])
        assert m.code == code_before

    def test_bad_insertion_point_rejected(self):
        with pytest.raises(TransformError):
            insert_instructions(self._method(), 99, [Instruction(bc.NOP)])


class TestWrapSynchronizedMethods:
    def _sync_method(self, *, is_static=True, returns_value=False):
        a = Asm(
            "work",
            argc=0 if is_static else 1,
            is_static=is_static,
            synchronized=True,
            returns_value=returns_value,
        )
        if returns_value:
            a.const(7)
        a.ret()
        return a.build()

    def test_wrapper_replaces_original(self):
        cls = ClassDef("C", methods=[self._sync_method()])
        assert wrap_synchronized_methods(cls) == 1
        assert not cls.method("work").synchronized
        impl = cls.method("work" + IMPL_SUFFIX)
        assert impl.force_inline
        assert not impl.synchronized

    def test_static_wrapper_locks_class_object(self):
        cls = ClassDef("C", methods=[self._sync_method(is_static=True)])
        wrap_synchronized_methods(cls)
        wrapper = cls.method("work")
        assert wrapper.code[0].op == bc.CLASSREF
        assert wrapper.code[0].a == "C"

    def test_instance_wrapper_locks_receiver(self):
        cls = ClassDef("C", methods=[self._sync_method(is_static=False)])
        wrap_synchronized_methods(cls)
        wrapper = cls.method("work")
        assert wrapper.code[0].op == bc.LOAD and wrapper.code[0].a == 0

    def test_wrapper_signature_matches(self):
        cls = ClassDef("C", methods=[self._sync_method(returns_value=True)])
        wrap_synchronized_methods(cls)
        wrapper = cls.method("work")
        impl = cls.method("work" + IMPL_SUFFIX)
        assert wrapper.argc == impl.argc
        assert wrapper.returns_value and impl.returns_value

    def test_wrapper_executes_correctly(self):
        """End to end: a synchronized method on the modified VM."""
        work = Asm("work", argc=0, synchronized=True, returns_value=True)
        work.getstatic("C", "value").const(1).add()
        work.dup().putstatic("C", "value")
        work.ret()

        main = Asm("main", argc=0)
        i = main.local()
        main.for_range(i, lambda: main.const(5), lambda:
                       main.invoke("C", "work", 0).pop())
        main.ret()

        cls = ClassDef("C", fields=[
            FieldDef("value", "int", is_static=True),
        ], methods=[work.build(), main.build()])
        vm = make_vm("rollback")
        vm.load(cls)
        vm.spawn("C", "main", name="m")
        vm.run()
        assert vm.get_static("C", "value") == 5

    def test_synchronized_methods_exclude_each_other(self):
        """Two threads in the same synchronized *method* must serialize."""
        work = Asm("work", argc=0, synchronized=True)
        i = work.local()
        work.for_range(i, lambda: work.const(1_500), lambda: (
            work.getstatic("C", "value"), work.const(1), work.add(),
            work.putstatic("C", "value"),
        ))
        work.ret()
        cls = ClassDef("C", fields=[
            FieldDef("value", "int", is_static=True),
        ], methods=[work.build()])
        vm = make_vm("rollback")
        vm.load(cls)
        vm.spawn("C", "work", name="a")
        vm.spawn("C", "work", name="b")
        vm.run()
        assert vm.get_static("C", "value") == 3_000

    def test_instance_sync_method_without_receiver_rejected(self):
        a = Asm("bad", argc=0, is_static=False, synchronized=True)
        a.ret()
        cls = ClassDef("C", methods=[a.build()])
        with pytest.raises(TransformError):
            wrap_synchronized_methods(cls)

    def test_reserved_suffix_rejected(self):
        a = Asm("x" + IMPL_SUFFIX, argc=0, synchronized=True)
        a.ret()
        cls = ClassDef("C", methods=[a.build()])
        with pytest.raises(TransformError):
            wrap_synchronized_methods(cls)


class TestInjectRollbackScopes:
    def test_savestate_inserted_before_monitorenter(self):
        m = sync_counter_method().build()
        inject_rollback_scopes(m)
        enters = [pc for pc, ins in enumerate(m.code)
                  if ins.op == bc.MONITORENTER]
        assert len(enters) == 1
        assert m.code[enters[0] - 1].op == bc.SAVESTATE

    def test_handler_appended_with_resume_pc(self):
        m = sync_counter_method().build()
        inject_rollback_scopes(m)
        handler = m.code[-1]
        assert handler.op == bc.ROLLBACK_HANDLER
        assert m.code[handler.b].op == bc.SAVESTATE
        assert m.code[handler.b].a == handler.a  # same state slot

    def test_exception_table_entry_added(self):
        m = sync_counter_method().build()
        before = len(m.exc_table)
        inject_rollback_scopes(m)
        rollback_entries = [e for e in m.exc_table
                            if e.type == ROLLBACK_TYPE]
        assert len(rollback_entries) == 1
        assert len(m.exc_table) == before + 1
        entry = rollback_entries[0]
        # covers the section body through the last monitorexit
        exits = [pc for pc, ins in enumerate(m.code)
                 if ins.op == bc.MONITOREXIT]
        assert entry.end == max(exits) + 1

    def test_scope_map_recorded(self):
        m = sync_counter_method().build()
        inject_rollback_scopes(m)
        assert len(m.rollback_scopes) == 1
        (scope,) = m.rollback_scopes.values()
        assert m.code[scope.save_pc].op == bc.SAVESTATE
        assert m.code[scope.handler_pc].op == bc.ROLLBACK_HANDLER

    def test_nested_sections_get_separate_scopes(self):
        a = Asm("m", argc=0)
        a.getstatic("C", "lock")
        with a.sync():
            a.getstatic("C", "lock2")
            with a.sync():
                a.const(0).pop()
        a.ret()
        m = a.build()
        inject_rollback_scopes(m)
        assert len(m.rollback_scopes) == 2
        handlers = [ins for ins in m.code
                    if ins.op == bc.ROLLBACK_HANDLER]
        assert len(handlers) == 2
        slots = {h.a for h in handlers}
        assert len(slots) == 2

    def test_idempotent(self):
        m = sync_counter_method().build()
        inject_rollback_scopes(m)
        code_len = len(m.code)
        assert inject_rollback_scopes(m) == 0
        assert len(m.code) == code_len

    def test_no_sections_no_change(self):
        a = Asm("m", argc=0)
        a.const(1).pop().ret()
        m = a.build()
        assert inject_rollback_scopes(m) == 0

    def test_branch_targets_still_valid_after_injection(self):
        m = sync_counter_method(count=10).build()
        inject_rollback_scopes(m)
        m.verify()


class TestWriteBarriers:
    def test_all_stores_flagged(self):
        a = Asm("m", argc=0)
        o = a.local()
        a.new("C").store(o)
        a.load(o).const(1).putfield("f")
        a.const(1).putstatic("C", "value")
        a.const(2).newarray().const(0).const(1).astore()
        a.ret()
        m = a.build()
        assert insert_write_barriers(m) == 3
        flagged = [ins.op for ins in m.code if ins.barrier]
        assert sorted(flagged) == sorted(
            [bc.PUTFIELD, bc.PUTSTATIC, bc.ASTORE]
        )

    def test_loads_not_flagged(self):
        a = Asm("m", argc=0)
        a.getstatic("C", "value").pop()
        a.ret()
        m = a.build()
        insert_write_barriers(m)
        assert not any(ins.barrier for ins in m.code)

    def test_repeat_flagging_counts_zero(self):
        a = Asm("m", argc=0)
        a.const(1).putstatic("C", "value")
        a.ret()
        m = a.build()
        assert insert_write_barriers(m) == 1
        assert insert_write_barriers(m) == 0


class TestTransformClass:
    def test_full_pipeline_verifies(self):
        cls = counter_class(sync_counter_method())
        transform_class(cls)
        cls.verify()
        m = cls.method("run")
        assert m.rollback_scopes
        assert any(ins.barrier for ins in m.code)

    def test_unmodified_vm_does_not_transform(self):
        cls = counter_class(sync_counter_method())
        vm = make_vm("unmodified")
        loaded = vm.load(cls)
        assert not loaded.method("run").rollback_scopes
        assert not any(ins.barrier for ins in loaded.method("run").code)

    def test_modified_vm_transforms_on_load(self):
        cls = counter_class(sync_counter_method())
        vm = make_vm("rollback")
        loaded = vm.load(cls)
        assert loaded.method("run").rollback_scopes

    def test_load_does_not_mutate_callers_classdef(self):
        """The same ClassDef loaded into both VMs stays pristine."""
        cls = counter_class(sync_counter_method())
        vm1 = make_vm("rollback")
        vm1.load(cls)
        assert not cls.method("run").rollback_scopes
        vm2 = make_vm("unmodified")
        vm2.load(cls)  # must not see the transformed copy
        assert not any(ins.barrier for ins in cls.method("run").code)


class TestBarrierElision:
    def _program(self):
        """helper() stores outside any section; run() stores inside one and
        calls helper() from inside the section; lonely() stores and is
        never called from a section."""
        helper = Asm("helper", argc=0)
        helper.const(1).putstatic("C", "value")
        helper.ret()

        lonely = Asm("lonely", argc=0)
        lonely.const(2).putstatic("C", "value")
        lonely.ret()

        run = Asm("run", argc=0)
        run.const(0).putstatic("C", "value")  # outside the section
        run.getstatic("C", "lock")
        with run.sync():
            run.const(1).putstatic("C", "value")  # inside
            run.invoke("C", "helper", 0)
        run.ret()

        return ClassDef("C", fields=[
            FieldDef("lock", "ref", is_static=True),
            FieldDef("value", "int", is_static=True),
        ], methods=[helper.build(), lonely.build(), run.build()])

    def test_elision_clears_provably_safe_barriers(self):
        cls = self._program()
        transform_class(cls)
        elided = elide_barriers([cls])
        assert elided >= 1
        # lonely() is never reachable from a section: barrier gone
        lonely_stores = [ins for ins in cls.method("lonely").code
                         if bc.is_store(ins.op)]
        assert all(not ins.barrier for ins in lonely_stores)
        # helper() is called from inside a section: barrier kept
        helper_stores = [ins for ins in cls.method("helper").code
                         if bc.is_store(ins.op)]
        assert all(ins.barrier for ins in helper_stores)

    def test_stores_inside_sections_keep_barriers(self):
        cls = self._program()
        transform_class(cls)
        elide_barriers([cls])
        run = cls.method("run")
        in_section = False
        for ins in run.code:
            if ins.op == bc.MONITORENTER:
                in_section = True
            elif ins.op == bc.MONITOREXIT:
                in_section = False
            elif bc.is_store(ins.op) and in_section:
                assert ins.barrier

    def test_elision_soundness_same_final_state(self):
        """Running with and without elision must produce identical heaps
        and identical rollback behaviour (elision is cost-only)."""
        def run_vm(elision):
            cls = counter_class(sync_counter_method(count=500))
            vm = make_vm("rollback", barrier_elision=elision, seed=7)
            vm.load(cls)
            vm.set_static("C", "lock", vm.new_object("C"))
            vm.spawn("C", "run", priority=1, name="low")
            vm.spawn("C", "run", priority=10, name="high")
            vm.run()
            return vm.get_static("C", "value")

        assert run_vm(True) == run_vm(False) == 1_000

    def test_predecoded_method_not_stale_after_elision(self):
        """Regression: predecode can legitimately run *before* barrier
        elision (a direct ``predecode_method`` call, e.g. a debugging dump).
        Elision then mutates barrier flags the compiled DecodedMethod
        baked in; without invalidation the fast engine keeps charging
        the removed barriers and diverges from the reference clock."""
        from repro.check import final_fingerprint, fingerprint_digest
        from repro.vm.predecode import predecode_method

        def program():
            run = Asm("run", argc=0)
            # outside any section: this barrier gets elided
            run.const(0).putstatic("C", "value")
            run.getstatic("C", "lock")
            with run.sync():
                i = run.local()
                run.for_range(i, lambda: run.const(50), lambda: (
                    run.getstatic("C", "value"), run.const(1), run.add(),
                    run.putstatic("C", "value"),
                ))
            run.ret()
            return counter_class(run)

        def run_vm(interp, *, pre_decode):
            vm = make_vm("rollback", interp=interp, seed=7)
            vm.load(program())
            vm.set_static("C", "lock", vm.new_object("C"))
            vm.spawn("C", "run", priority=1, name="low")
            vm.spawn("C", "run", priority=10, name="high")
            if pre_decode:
                # populate the decode cache before run() runs elision —
                # the mid-campaign mutation this regression guards
                predecode_method(vm, vm.classes["C"].method("run"))
            vm.run()
            return vm

        fast = run_vm("fast", pre_decode=True)
        ref = run_vm("reference", pre_decode=False)
        assert fast.clock.now == ref.clock.now
        assert fingerprint_digest(
            final_fingerprint(fast, "completed")
        ) == fingerprint_digest(final_fingerprint(ref, "completed"))

    def test_transitive_propagation(self):
        """a() called in a section calls b(); b's stores keep barriers."""
        b_m = Asm("b", argc=0)
        b_m.const(1).putstatic("C", "value")
        b_m.ret()

        a_m = Asm("a", argc=0)
        a_m.invoke("C", "b", 0)
        a_m.ret()

        run = Asm("run", argc=0)
        run.getstatic("C", "lock")
        with run.sync():
            run.invoke("C", "a", 0)
        run.ret()

        cls = ClassDef("C", fields=[
            FieldDef("lock", "ref", is_static=True),
            FieldDef("value", "int", is_static=True),
        ], methods=[b_m.build(), a_m.build(), run.build()])
        transform_class(cls)
        elide_barriers([cls])
        b_stores = [ins for ins in cls.method("b").code
                    if bc.is_store(ins.op)]
        assert all(ins.barrier for ins in b_stores)
