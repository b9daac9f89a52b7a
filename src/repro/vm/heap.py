"""The guest heap: objects, arrays and static variables.

Every guest object carries a *header* slot for its monitor (inflated lazily
on first synchronization, as in Jikes RVM's lock nursery) and a stable
object id used by the undo log and the JMM dependency tracker to key heap
locations.

Statics live in a per-heap table keyed by ``(class_name, field_name)``; the
paper's undo-log entry for a static store records "the offset of the static
variable in the global symbol table and the old value" (§3.1.2) — our key
plays the role of that offset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import GuestRuntimeError, LinkError
from repro.vm.classfile import ClassDef
from repro.vm.values import NULL

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.monitors import Monitor


class VMObject:
    """An instance of a guest class.

    Field storage is a plain dict (name -> value), pre-populated with JVM
    default values at allocation so reads of unwritten fields are defined.
    """

    __slots__ = ("oid", "classdef", "fields", "monitor")

    def __init__(self, oid: int, classdef: ClassDef):
        self.oid = oid
        self.classdef = classdef
        self.fields: dict[str, Any] = {
            f.name: f.default() for f in classdef.instance_fields()
        }
        self.monitor: "Monitor | None" = None

    def get(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise LinkError(
                f"{self.classdef.name} has no instance field {name!r}"
            ) from None

    def put(self, name: str, value: Any) -> Any:
        """Store ``value`` and return the previous value (for undo logging)."""
        fields = self.fields
        if name not in fields:
            raise LinkError(
                f"{self.classdef.name} has no instance field {name!r}"
            )
        old = fields[name]
        fields[name] = value
        return old

    def __repr__(self) -> str:
        return f"<{self.classdef.name}#{self.oid}>"


class VMArray:
    """A guest array of untyped slots."""

    __slots__ = ("oid", "storage", "monitor")

    def __init__(self, oid: int, length: int, fill: Any = 0):
        if length < 0:
            raise GuestRuntimeError(
                f"negative array length {length}",
                guest_class="NegativeArraySizeException",
            )
        self.oid = oid
        self.storage: list[Any] = [fill] * length
        self.monitor: "Monitor | None" = None

    def __len__(self) -> int:
        return len(self.storage)

    def get(self, index: int) -> Any:
        if not (0 <= index < len(self.storage)):
            raise GuestRuntimeError(
                f"array index {index} out of bounds [0, {len(self.storage)})",
                guest_class="ArrayIndexOutOfBoundsException",
            )
        return self.storage[index]

    def put(self, index: int, value: Any) -> Any:
        """Store and return the previous value (for undo logging)."""
        if not (0 <= index < len(self.storage)):
            raise GuestRuntimeError(
                f"array index {index} out of bounds [0, {len(self.storage)})",
                guest_class="ArrayIndexOutOfBoundsException",
            )
        old = self.storage[index]
        self.storage[index] = value
        return old

    def snapshot(self) -> list[Any]:
        return list(self.storage)

    def __repr__(self) -> str:
        return f"<array#{self.oid} len={len(self.storage)}>"


class Heap:
    """Allocator plus the statics table.

    ``Class`` objects: for every loaded class the heap materializes one
    :class:`VMObject` of the built-in ``Class`` classdef; synchronized
    *static* methods lock it, as the JVM locks ``Foo.class``.
    """

    _CLASS_CLASSDEF = ClassDef("Class")

    def __init__(self) -> None:
        self._next_oid = 1
        self.statics: dict[tuple[str, str], Any] = {}
        self.class_objects: dict[str, VMObject] = {}

    def _oid(self) -> int:
        oid = self._next_oid
        self._next_oid += 1
        return oid

    def register_class(self, classdef: ClassDef) -> VMObject:
        """Install a class's statics and create its ``Class`` object."""
        for f in classdef.static_fields():
            self.statics[(classdef.name, f.name)] = f.default()
        cls_obj = VMObject(self._oid(), self._CLASS_CLASSDEF)
        self.class_objects[classdef.name] = cls_obj
        return cls_obj

    def class_object(self, class_name: str) -> VMObject:
        try:
            return self.class_objects[class_name]
        except KeyError:
            raise LinkError(f"class {class_name!r} not loaded") from None

    def allocate(self, classdef: ClassDef) -> VMObject:
        return VMObject(self._oid(), classdef)

    def allocate_array(self, length: int, fill: Any = 0) -> VMArray:
        return VMArray(self._oid(), length, fill)

    # ------------------------------------------------------------- statics
    def get_static(self, key: tuple[str, str]) -> Any:
        try:
            return self.statics[key]
        except KeyError:
            raise LinkError(f"no static field {key[0]}.{key[1]}") from None

    def put_static(self, key: tuple[str, str], value: Any) -> Any:
        """Store and return the previous value (for undo logging)."""
        statics = self.statics
        if key not in statics:
            raise LinkError(f"no static field {key[0]}.{key[1]}")
        old = statics[key]
        statics[key] = value
        return old

    def iter_statics(self) -> Iterator[tuple[tuple[str, str], Any]]:
        return iter(self.statics.items())


def location_of(container: VMObject | VMArray | tuple[str, str], slot) -> tuple:
    """Canonical key of a heap location for undo-log / JMM bookkeeping.

    * instance field -> ``("f", oid, field_name)``
    * array element  -> ``("a", oid, index)``
    * static field   -> ``("s", class_name, field_name)``
    """
    tag = LOC_TAGS.get(type(container))
    if tag is not None:
        return (tag, container.oid, slot)
    cls, fname = container
    return ("s", cls, fname)


#: container type -> location tag; one dict probe instead of an
#: ``isinstance`` chain on the barrier hot path (neither class is subclassed)
LOC_TAGS = {VMObject: "f", VMArray: "a"}


NULL_REF_MESSAGE = "null reference dereferenced"


def require_ref(value: Any, what: str = "reference"):
    """Raise the guest-level NPE analogue on ``null`` / non-reference."""
    if value is NULL:
        raise GuestRuntimeError(
            f"{NULL_REF_MESSAGE} ({what})",
            guest_class="NullPointerException",
        )
    if not isinstance(value, (VMObject, VMArray)):
        raise GuestRuntimeError(
            f"expected a {what}, got {value!r}",
            guest_class="NullPointerException",
        )
    return value
