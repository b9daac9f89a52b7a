"""Unit tests for Section records and the bytecode module helpers."""

import itertools

import pytest

from repro.core.sections import (
    REASON_DEPENDENCY,
    REASON_NATIVE,
    REASON_UNTRANSFORMED,
    REASON_WAIT,
    Section,
)
from repro.vm import bytecode as bc
from repro.vm.bytecode import Instruction, disassemble, mnemonic
from repro.vm.classfile import ClassDef, MethodDef
from repro.vm.heap import VMObject
from repro.vm.monitors import Monitor
from repro.vm.threads import Frame, VMThread


def make_thread(tid=1):
    m = MethodDef(name="run", code=[Instruction(bc.RETURN, 0)],
                  max_locals=0)
    m.class_name = "T"
    return VMThread(tid, f"t{tid}", m, [])


#: sids are allocated by the owning VM's RevocationManager in production;
#: these unit tests stand in for it with a plain counter
_sids = itertools.count(1)


def make_section(thread, *, slot=0, handler_pc=5, recursive=False):
    mon = Monitor(VMObject(1, ClassDef("C")))
    frame = Frame(thread.entry_method, [], 0)
    return Section(
        thread, mon, frame, f"sync#{slot}",
        sid=next(_sids), slot=slot, handler_pc=handler_pc,
        log_mark=0, recursive=recursive,
    )


class TestSection:
    def test_ids_unique(self):
        t = make_thread()
        a, b = make_section(t), make_section(t)
        assert a.sid != b.sid

    def test_revocable_by_default(self):
        s = make_section(make_thread())
        assert s.revocable
        assert s.nonrevocable_reason is None

    def test_untransformed_sections_never_revocable(self):
        """A monitorenter with no injected rollback scope (handler_pc is
        None) cannot be revoked."""
        t = make_thread()
        s = make_section(t, handler_pc=None)
        assert not s.revocable
        assert s.nonrevocable_reason == REASON_UNTRANSFORMED

    def test_mark_nonrevocable_once(self):
        s = make_section(make_thread())
        assert s.mark_nonrevocable(REASON_NATIVE) is True
        assert s.mark_nonrevocable(REASON_WAIT) is False  # first wins
        assert s.nonrevocable_reason == REASON_NATIVE

    def test_depth_tracks_nesting(self):
        t = make_thread()
        outer = make_section(t)
        t.sections.append(outer)
        inner = make_section(t, slot=1)
        assert outer.depth == 0 and outer.is_outermost
        assert inner.depth == 1 and not inner.is_outermost

    def test_repr_mentions_state(self):
        t = make_thread()
        s = make_section(t, recursive=True)
        s.mark_nonrevocable(REASON_DEPENDENCY)
        text = repr(s)
        assert "recursive" in text
        assert REASON_DEPENDENCY in text


class TestThreadSectionHelpers:
    def test_section_for_monitor_skips_recursive(self):
        t = make_thread()
        outer = make_section(t)
        t.sections.append(outer)
        recursive = Section(
            t, outer.monitor, outer.frame, "sync#9",
            sid=next(_sids), slot=1, handler_pc=7,
            log_mark=0, recursive=True,
        )
        t.sections.append(recursive)
        assert t.section_for_monitor(outer.monitor) is outer

    def test_innermost_section(self):
        t = make_thread()
        assert t.innermost_section() is None
        s = make_section(t)
        t.sections.append(s)
        assert t.innermost_section() is s
        assert t.in_synchronized_section()


class TestBytecodeModule:
    def test_mnemonics_cover_all_opcodes(self):
        for op in bc.SPEC:
            assert mnemonic(op)

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            mnemonic(9999)
        with pytest.raises(ValueError):
            Instruction(9999)

    def test_is_branch_and_is_store(self):
        assert bc.is_branch(bc.GOTO) and bc.is_branch(bc.IF)
        assert not bc.is_branch(bc.ADD)
        assert bc.is_store(bc.PUTFIELD) and bc.is_store(bc.ASTORE)
        assert not bc.is_store(bc.GETFIELD)

    def test_repr_flags(self):
        ins = Instruction(bc.PUTFIELD, "x")
        ins.barrier = True
        assert "[barrier]" in repr(ins)

    def test_disassemble(self):
        code = [Instruction(bc.CONST, 1), Instruction(bc.RETURN, 0)]
        text = disassemble(code)
        assert "0: const 1" in text
        assert "1: return" in text
