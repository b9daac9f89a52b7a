"""Unit tests for the sequential undo buffer (paper §3.1.2)."""

import pytest

from repro.core.undolog import UndoLog
from repro.vm.classfile import ClassDef, FieldDef
from repro.vm.heap import Heap


@pytest.fixture
def heap():
    h = Heap()
    h.register_class(ClassDef("C", fields=[
        FieldDef("x", "int"),
        FieldDef("s", "int", is_static=True),
    ]))
    return h


@pytest.fixture
def log(heap):
    return UndoLog(heap)


class TestAppendAndMarks:
    def test_empty_log(self, log):
        assert len(log) == 0
        assert log.mark() == 0

    def test_marks_advance_with_appends(self, log, heap):
        obj = heap.allocate(heap.class_objects["C"].classdef)
        log.append(obj, "x", 0)
        assert log.mark() == 1
        log.append(obj, "x", 1)
        assert log.mark() == 2


class TestRollback:
    def test_object_field_restored(self, log, heap):
        cls = ClassDef("D", fields=[FieldDef("x", "int")])
        obj = heap.allocate(cls)
        old = obj.put("x", 10)
        log.append(obj, "x", old)
        old = obj.put("x", 20)
        log.append(obj, "x", old)
        assert log.rollback_to(0) == 2
        assert obj.get("x") == 0
        assert len(log) == 0

    def test_array_restored(self, log, heap):
        arr = heap.allocate_array(3)
        log.append(arr, 1, arr.put(1, 5))
        log.append(arr, 2, arr.put(2, 6))
        log.rollback_to(0)
        assert arr.snapshot() == [0, 0, 0]

    def test_static_restored(self, log, heap):
        key = ("C", "s")
        log.append(key, "s", heap.put_static(key, 9))
        log.rollback_to(0)
        assert heap.get_static(key) == 0

    def test_partial_rollback_to_mark(self, log, heap):
        cls = ClassDef("D", fields=[FieldDef("x", "int")])
        obj = heap.allocate(cls)
        log.append(obj, "x", obj.put("x", 1))
        mark = log.mark()
        log.append(obj, "x", obj.put("x", 2))
        log.append(obj, "x", obj.put("x", 3))
        assert log.rollback_to(mark) == 2
        assert obj.get("x") == 1       # back to the marked state
        assert len(log) == 1           # pre-mark entry survives

    def test_reverse_order_matters(self, log, heap):
        """Processing in reverse restores the oldest value, not an
        intermediate one — the paper's 'processed in reverse'."""
        cls = ClassDef("D", fields=[FieldDef("x", "int")])
        obj = heap.allocate(cls)
        obj.put("x", 100)  # unlogged baseline
        log.append(obj, "x", obj.put("x", 1))
        log.append(obj, "x", obj.put("x", 2))
        log.append(obj, "x", obj.put("x", 3))
        log.rollback_to(0)
        assert obj.get("x") == 100

    def test_bad_mark_rejected(self, log):
        with pytest.raises(ValueError):
            log.rollback_to(5)
        with pytest.raises(ValueError):
            log.rollback_to(-1)


class TestTruncate:
    def test_commit_discards_without_restoring(self, log, heap):
        arr = heap.allocate_array(2)
        log.append(arr, 0, arr.put(0, 7))
        assert log.truncate(0) == 1
        assert arr.get(0) == 7  # value kept
        assert len(log) == 0

    def test_truncate_to_mark(self, log, heap):
        arr = heap.allocate_array(2)
        log.append(arr, 0, arr.put(0, 7))
        mark = log.mark()
        log.append(arr, 1, arr.put(1, 8))
        assert log.truncate(mark) == 1
        assert len(log) == 1

    def test_truncate_bad_mark(self, log):
        with pytest.raises(ValueError):
            log.truncate(3)


class TestLocations:
    def test_peek(self, log, heap):
        arr = heap.allocate_array(1)
        log.append(arr, 0, 42)
        assert log.peek(0) == (arr, 0, 42)
