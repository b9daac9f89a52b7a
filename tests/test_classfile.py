"""Unit tests for the class model and bytecode verifier."""

import pytest

from repro.errors import VerifyError
from repro.vm import bytecode as bc
from repro.vm.bytecode import Instruction
from repro.vm.classfile import (
    ClassDef,
    ExceptionTableEntry,
    FieldDef,
    MethodDef,
    ROLLBACK_TYPE,
    THROWABLE,
)


def method(code, *, name="m", argc=0, max_locals=None, exc_table=()):
    m = MethodDef(
        name=name,
        argc=argc,
        max_locals=max_locals if max_locals is not None else argc,
        code=code,
        exc_table=list(exc_table),
    )
    m.class_name = "C"
    return m


def ret():
    return Instruction(bc.RETURN, 0)


class TestFieldDef:
    def test_default_values(self):
        assert FieldDef("x", "int").default() == 0
        assert FieldDef("y", "ref").default() is not None

    def test_frozen(self):
        f = FieldDef("x")
        with pytest.raises(AttributeError):
            f.name = "y"


class TestExceptionTableEntry:
    def test_covers_half_open(self):
        e = ExceptionTableEntry(2, 5, 9)
        assert not e.covers(1)
        assert e.covers(2) and e.covers(4)
        assert not e.covers(5)

    def test_shifted(self):
        e = ExceptionTableEntry(2, 5, 9, THROWABLE)
        s = e.shifted(at=3, by=2)
        assert (s.start, s.end, s.handler) == (2, 7, 11)
        assert s.type == THROWABLE

    def test_shifted_before_insertion_point(self):
        e = ExceptionTableEntry(2, 5, 9)
        s = e.shifted(at=100, by=2)
        assert (s.start, s.end, s.handler) == (2, 5, 9)


class TestVerifier:
    def test_valid_minimal_method(self):
        method([ret()]).verify()

    def test_empty_body_rejected(self):
        with pytest.raises(VerifyError, match="empty"):
            method([]).verify()

    def test_fall_off_end_rejected(self):
        with pytest.raises(VerifyError, match="fall off"):
            method([Instruction(bc.CONST, 1)]).verify()

    def test_goto_as_terminator_allowed(self):
        method([Instruction(bc.GOTO, 0)]).verify()

    def test_athrow_as_terminator_allowed(self):
        method([Instruction(bc.CONST, 1), Instruction(bc.ATHROW)]).verify()

    def test_branch_out_of_range_rejected(self):
        with pytest.raises(VerifyError, match="branch target"):
            method([Instruction(bc.GOTO, 5), ret()]).verify()

    def test_negative_branch_rejected(self):
        with pytest.raises(VerifyError, match="branch target"):
            method([Instruction(bc.IF, -1), ret()]).verify()

    def test_local_index_out_of_range_rejected(self):
        with pytest.raises(VerifyError, match="local index"):
            method([Instruction(bc.LOAD, 3), ret()], max_locals=2).verify()

    def test_max_locals_below_argc_rejected(self):
        m = method([ret()], argc=2, max_locals=1)
        with pytest.raises(VerifyError, match="max_locals"):
            m.verify()

    def test_unmatched_monitorenter_rejected(self):
        code = [
            Instruction(bc.CONST, 1),
            Instruction(bc.MONITORENTER, "s1"),
            ret(),
        ]
        with pytest.raises(VerifyError, match="no exit"):
            method(code).verify()

    def test_monitorenter_without_sync_id_rejected(self):
        code = [
            Instruction(bc.CONST, 1),
            Instruction(bc.MONITORENTER),
            Instruction(bc.CONST, 1),
            Instruction(bc.MONITOREXIT),
            ret(),
        ]
        with pytest.raises(VerifyError, match="sync id"):
            method(code).verify()

    def test_bad_exception_range_rejected(self):
        m = method([ret()], exc_table=[ExceptionTableEntry(0, 5, 0)])
        with pytest.raises(VerifyError, match="exception range"):
            m.verify()

    def test_bad_handler_pc_rejected(self):
        m = method(
            [Instruction(bc.CONST, 1), ret()],
            exc_table=[ExceptionTableEntry(0, 1, 7)],
        )
        with pytest.raises(VerifyError, match="handler pc"):
            m.verify()

    def test_rollback_handler_resume_pc_checked(self):
        code = [Instruction(bc.ROLLBACK_HANDLER, 0, 99)]
        with pytest.raises(VerifyError, match="resume pc"):
            method(code).verify()


class TestClassDef:
    def test_duplicate_field_rejected(self):
        c = ClassDef("C", fields=[FieldDef("x")])
        with pytest.raises(VerifyError, match="duplicate field"):
            c.add_field(FieldDef("x"))

    def test_duplicate_method_rejected(self):
        c = ClassDef("C", methods=[method([ret()])])
        with pytest.raises(VerifyError, match="duplicate method"):
            c.add_method(method([ret()]))

    def test_illegal_name_rejected(self):
        with pytest.raises(VerifyError):
            ClassDef("<bad>")
        with pytest.raises(VerifyError):
            ClassDef("")

    def test_field_lookup(self):
        c = ClassDef("C", fields=[FieldDef("x")])
        assert c.field("x").name == "x"
        with pytest.raises(VerifyError, match="no field"):
            c.field("y")

    def test_method_lookup(self):
        c = ClassDef("C", methods=[method([ret()])])
        assert c.method("m").name == "m"
        with pytest.raises(VerifyError, match="no method"):
            c.method("nope")

    def test_static_vs_instance_partition(self):
        c = ClassDef("C", fields=[
            FieldDef("a", is_static=True), FieldDef("b"),
        ])
        assert [f.name for f in c.static_fields()] == ["a"]
        assert [f.name for f in c.instance_fields()] == ["b"]

    def test_add_method_sets_class_name(self):
        c = ClassDef("Xyz")
        m = method([ret()])
        c.add_method(m)
        assert m.class_name == "Xyz"
        assert m.qualified_name() == "Xyz.m"


class TestRollbackTypeSentinel:
    def test_rollback_type_is_not_a_legal_class_name(self):
        with pytest.raises(VerifyError):
            ClassDef(ROLLBACK_TYPE)
