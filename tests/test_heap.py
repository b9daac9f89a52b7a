"""Unit tests for the guest heap."""

import pytest

from repro.errors import GuestRuntimeError, LinkError
from repro.vm.classfile import ClassDef, FieldDef
from repro.vm.heap import Heap, VMArray, VMObject, location_of, require_ref
from repro.vm.values import NULL


@pytest.fixture
def heap():
    return Heap()


@pytest.fixture
def point_class():
    return ClassDef("Point", fields=[
        FieldDef("x", "int"),
        FieldDef("y", "int"),
        FieldDef("origin", "ref", is_static=True),
        FieldDef("count", "int", is_static=True),
    ])


class TestObjects:
    def test_allocation_initializes_defaults(self, heap, point_class):
        obj = heap.allocate(point_class)
        assert obj.get("x") == 0 and obj.get("y") == 0

    def test_put_returns_old_value(self, heap, point_class):
        obj = heap.allocate(point_class)
        assert obj.put("x", 5) == 0
        assert obj.put("x", 7) == 5
        assert obj.get("x") == 7

    def test_statics_not_instance_fields(self, heap, point_class):
        obj = heap.allocate(point_class)
        with pytest.raises(LinkError):
            obj.get("count")

    def test_unknown_field_raises(self, heap, point_class):
        obj = heap.allocate(point_class)
        with pytest.raises(LinkError):
            obj.put("z", 1)

    def test_oids_unique_and_monotonic(self, heap, point_class):
        oids = [heap.allocate(point_class).oid for _ in range(10)]
        assert len(set(oids)) == 10
        assert oids == sorted(oids)


class TestArrays:
    def test_fill_and_length(self, heap):
        arr = heap.allocate_array(4, fill=9)
        assert len(arr) == 4
        assert arr.snapshot() == [9, 9, 9, 9]

    def test_put_get_roundtrip(self, heap):
        arr = heap.allocate_array(3)
        assert arr.put(1, 42) == 0
        assert arr.get(1) == 42

    @pytest.mark.parametrize("index", [-1, 3, 100])
    def test_bounds_checked(self, heap, index):
        arr = heap.allocate_array(3)
        with pytest.raises(GuestRuntimeError) as exc_info:
            arr.get(index)
        assert exc_info.value.guest_class == "ArrayIndexOutOfBoundsException"
        with pytest.raises(GuestRuntimeError):
            arr.put(index, 1)

    def test_negative_length_rejected(self):
        with pytest.raises(GuestRuntimeError) as exc_info:
            VMArray(1, -1)
        assert exc_info.value.guest_class == "NegativeArraySizeException"

    def test_zero_length_allowed(self, heap):
        assert len(heap.allocate_array(0)) == 0


class TestStatics:
    def test_register_class_installs_statics(self, heap, point_class):
        heap.register_class(point_class)
        assert heap.get_static(("Point", "count")) == 0
        assert heap.get_static(("Point", "origin")) is NULL

    def test_put_static_returns_old(self, heap, point_class):
        heap.register_class(point_class)
        assert heap.put_static(("Point", "count"), 3) == 0
        assert heap.put_static(("Point", "count"), 4) == 3

    def test_unknown_static_raises(self, heap):
        with pytest.raises(LinkError):
            heap.get_static(("Nope", "x"))
        with pytest.raises(LinkError):
            heap.put_static(("Nope", "x"), 1)

    def test_static_def_lookup(self, heap, point_class):
        heap.register_class(point_class)
        with pytest.raises(LinkError):
            heap.get_static(("Point", "x"))  # instance field, not static
        with pytest.raises(LinkError):
            heap.put_static(("Point", "x"), 1)

    def test_class_object_created(self, heap, point_class):
        cls_obj = heap.register_class(point_class)
        assert heap.class_object("Point") is cls_obj
        assert cls_obj.classdef.name == "Class"

    def test_class_object_missing_raises(self, heap):
        with pytest.raises(LinkError):
            heap.class_object("Nope")

    def test_iter_statics(self, heap, point_class):
        heap.register_class(point_class)
        keys = {k for k, _ in heap.iter_statics()}
        assert ("Point", "count") in keys and ("Point", "origin") in keys


class TestLocations:
    def test_location_kinds_disjoint(self, heap, point_class):
        obj = heap.allocate(point_class)
        arr = heap.allocate_array(2)
        locs = {
            location_of(obj, "x"),
            location_of(arr, 0),
            location_of(("Point", "count"), "count"),
        }
        assert len(locs) == 3

    def test_same_slot_same_location(self, heap, point_class):
        obj = heap.allocate(point_class)
        assert location_of(obj, "x") == location_of(obj, "x")

    def test_different_objects_differ(self, heap, point_class):
        a, b = heap.allocate(point_class), heap.allocate(point_class)
        assert location_of(a, "x") != location_of(b, "x")


class TestRequireRef:
    def test_null_raises_npe(self):
        with pytest.raises(GuestRuntimeError) as exc_info:
            require_ref(NULL)
        assert exc_info.value.guest_class == "NullPointerException"

    def test_scalar_raises(self):
        with pytest.raises(GuestRuntimeError):
            require_ref(42)

    def test_valid_ref_passes_through(self, heap, point_class):
        obj = heap.allocate(point_class)
        assert require_ref(obj) is obj
