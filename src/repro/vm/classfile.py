"""The class model: fields, methods, exception tables.

This is the unit the transformer (:mod:`repro.core.transform`) consumes and
produces, mirroring how the paper rewrites Java class files with BCEL.  A
:class:`ClassDef` is *loaded* into a :class:`repro.vm.vmcore.JVM`, which
resolves symbolic references, runs the transformer when the VM is in
"modified" mode, assigns instruction costs and marks yield points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import VerifyError
from repro.vm import bytecode as bc
from repro.vm.bytecode import Instruction
from repro.vm.values import default_value

#: Guest exception class name that catches everything (like java.lang.Throwable).
THROWABLE = "Throwable"

#: Sentinel exception-table type for the transformer-injected rollback scopes.
#: Deliberately unnameable from guest code (illegal class name).
ROLLBACK_TYPE = "<rollback>"

#: Exception-table type None means a catch-all *finally* style handler.


@dataclass(frozen=True)
class FieldDef:
    """An instance or static field.

    ``kind`` is one of ``int``/``float``/``ref``/``str``; ``volatile``
    fields follow the JLS visibility rule the paper discusses in §2.1
    (Figure 3): a volatile write happens-before every subsequent volatile
    read of the same variable, so revoking a section containing an observed
    volatile write is forbidden.
    """

    name: str
    kind: str = "int"
    volatile: bool = False
    is_static: bool = False

    def default(self):
        return default_value(self.kind)


@dataclass(frozen=True)
class ExceptionTableEntry:
    """One row of a method's exception table.

    Covers pcs in ``[start, end)``.  ``type`` is a guest class name,
    :data:`THROWABLE` (catches any guest exception), ``None`` (catch-all,
    used for finally blocks and for javac-style monitor-release handlers),
    or :data:`ROLLBACK_TYPE` (injected; only ever matched by the augmented
    dispatch during a revocation, and skipped by normal dispatch).
    """

    start: int
    end: int
    handler: int
    type: Optional[str] = THROWABLE

    def covers(self, pc: int) -> bool:
        return self.start <= pc < self.end

    def shifted(self, at: int, by: int) -> "ExceptionTableEntry":
        """Relocate after ``by`` instructions were inserted at pc ``at``.

        A pc *equal to* ``at`` stays put, so code inserted exactly at a
        range boundary extends the range (transformer semantics: a jump to
        a ``monitorenter`` must land on the injected ``SAVESTATE``).
        """

        def fix(pc: int) -> int:
            return pc + by if pc > at else pc

        return ExceptionTableEntry(
            fix(self.start), fix(self.end), fix(self.handler), self.type
        )


@dataclass
class MethodDef:
    """A method body.

    ``argc`` counts *all* incoming arguments including the receiver for
    instance methods (locals ``0 .. argc-1`` are populated from the operand
    stack of the caller).  ``synchronized`` methods are rewritten by the
    transformer into a wrapper acquiring the receiver's monitor (the class
    object for static methods) around a renamed ``$impl`` method, exactly as
    the paper does (§3.1.1); ``force_inline`` marks the renamed method so
    the cost model charges no invoke overhead for it, modelling the paper's
    inlining directive.
    """

    name: str
    argc: int = 0
    max_locals: int = 0
    code: list[Instruction] = field(default_factory=list)
    exc_table: list[ExceptionTableEntry] = field(default_factory=list)
    synchronized: bool = False
    is_static: bool = False
    force_inline: bool = False
    returns_value: bool = False
    #: number of SAVESTATE slots used (set by the transformer)
    state_slots: int = 0
    #: sync_id -> ScopeInfo for transformer-injected rollback scopes
    rollback_scopes: dict = field(default_factory=dict)
    #: class this method belongs to (set when added to a ClassDef)
    class_name: str = ""

    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.name}"

    def invalidate_decoded(self) -> None:
        """Drop the cached predecode result.

        The interpreter's predecode tier (:mod:`repro.vm.predecode`)
        caches its compiled blocks on the MethodDef at first execution; call
        this after any in-place mutation of ``code`` so stale blocks can
        never execute.  ``copy()`` never carries the cache.
        """
        self.__dict__.pop("_decoded", None)

    def copy(self) -> "MethodDef":
        """Independent copy (instructions included) for load-time rewriting.

        A ClassDef may be loaded into several VMs (e.g. the modified and
        unmodified VM of one benchmark comparison); loading always copies so
        link-time mutation (costs, yield points, barrier flags) of one VM
        never leaks into another.  Predecode state (``_decoded``) is
        deliberately not copied: it binds one VM's heap and runtime
        support, and the new copy is re-linked (and re-predecoded) by
        whichever VM loads it.
        """
        m = MethodDef(
            name=self.name,
            argc=self.argc,
            max_locals=self.max_locals,
            code=[ins.copy() for ins in self.code],
            exc_table=list(self.exc_table),
            synchronized=self.synchronized,
            is_static=self.is_static,
            force_inline=self.force_inline,
            returns_value=self.returns_value,
            state_slots=self.state_slots,
            rollback_scopes=dict(self.rollback_scopes),
        )
        m.class_name = self.class_name
        return m

    def verify(self) -> None:
        """Structural checks mirroring JVM bytecode verification.

        Raises :class:`VerifyError` on: empty body, fall-off-the-end,
        branch/handler targets outside the body, inverted exception ranges,
        bad local indices, or unmatched monitorenter/monitorexit sync ids.
        """
        code = self.code
        n = len(code)
        if n == 0:
            raise VerifyError(f"{self.qualified_name()}: empty body")
        last = code[-1]
        if last.op not in (bc.RETURN, bc.GOTO, bc.ATHROW, bc.ROLLBACK_HANDLER):
            raise VerifyError(
                f"{self.qualified_name()}: control may fall off the end "
                f"(last instruction {last!r})"
            )
        if self.max_locals < self.argc:
            raise VerifyError(
                f"{self.qualified_name()}: max_locals {self.max_locals} "
                f"< argc {self.argc}"
            )
        enters: dict[object, int] = {}
        exits: dict[object, int] = {}
        for pc, ins in enumerate(code):
            op = ins.op
            if bc.is_branch(op):
                if not isinstance(ins.a, int) or not (0 <= ins.a < n):
                    raise VerifyError(
                        f"{self.qualified_name()}@{pc}: branch target "
                        f"{ins.a!r} outside [0, {n})"
                    )
            elif op in (bc.LOAD, bc.STORE, bc.IINC):
                if not isinstance(ins.a, int) or not (
                    0 <= ins.a < self.max_locals
                ):
                    raise VerifyError(
                        f"{self.qualified_name()}@{pc}: local index "
                        f"{ins.a!r} outside [0, {self.max_locals})"
                    )
            elif op == bc.MONITORENTER:
                enters[ins.a] = enters.get(ins.a, 0) + 1
            elif op == bc.MONITOREXIT:
                exits[ins.a] = exits.get(ins.a, 0) + 1
            elif op == bc.ROLLBACK_HANDLER:
                if not isinstance(ins.b, int) or not (0 <= ins.b < n):
                    raise VerifyError(
                        f"{self.qualified_name()}@{pc}: rollback resume pc "
                        f"{ins.b!r} outside [0, {n})"
                    )
        for sync_id, count in enters.items():
            if sync_id is None:
                raise VerifyError(
                    f"{self.qualified_name()}: monitorenter without sync id"
                )
            if exits.get(sync_id, 0) < 1:
                raise VerifyError(
                    f"{self.qualified_name()}: sync id {sync_id!r} has "
                    f"{count} enter(s) but no exit"
                )
        for entry in self.exc_table:
            if not (0 <= entry.start < entry.end <= n):
                raise VerifyError(
                    f"{self.qualified_name()}: exception range "
                    f"[{entry.start}, {entry.end}) invalid for body of {n}"
                )
            if not (0 <= entry.handler < n):
                raise VerifyError(
                    f"{self.qualified_name()}: handler pc {entry.handler} "
                    f"outside [0, {n})"
                )


class ClassDef:
    """A loadable guest class: named fields and methods.

    There is no inheritance in the guest language (the paper's mechanism is
    orthogonal to it); exception "subtyping" is modelled by the
    :data:`THROWABLE` catch-all type.
    """

    def __init__(
        self,
        name: str,
        fields: list[FieldDef] | None = None,
        methods: list[MethodDef] | None = None,
    ):
        if not name or name.startswith("<"):
            raise VerifyError(f"illegal class name {name!r}")
        self.name = name
        self.fields: dict[str, FieldDef] = {}
        self.methods: dict[str, MethodDef] = {}
        for f in fields or []:
            self.add_field(f)
        for m in methods or []:
            self.add_method(m)

    def add_field(self, f: FieldDef) -> FieldDef:
        if f.name in self.fields:
            raise VerifyError(f"{self.name}: duplicate field {f.name!r}")
        self.fields[f.name] = f
        return f

    def add_method(self, m: MethodDef) -> MethodDef:
        if m.name in self.methods:
            raise VerifyError(f"{self.name}: duplicate method {m.name!r}")
        m.class_name = self.name
        self.methods[m.name] = m
        return m

    def field(self, name: str) -> FieldDef:
        try:
            return self.fields[name]
        except KeyError:
            raise VerifyError(f"{self.name}: no field {name!r}") from None

    def method(self, name: str) -> MethodDef:
        try:
            return self.methods[name]
        except KeyError:
            raise VerifyError(f"{self.name}: no method {name!r}") from None

    def instance_fields(self) -> list[FieldDef]:
        return [f for f in self.fields.values() if not f.is_static]

    def static_fields(self) -> list[FieldDef]:
        return [f for f in self.fields.values() if f.is_static]

    def verify(self) -> None:
        for m in self.methods.values():
            m.verify()

    def copy(self) -> "ClassDef":
        """Independent deep-enough copy (see :meth:`MethodDef.copy`)."""
        c = ClassDef(self.name)
        for f in self.fields.values():
            c.add_field(f)  # FieldDefs are frozen; safe to share
        for m in self.methods.values():
            c.add_method(m.copy())
        return c

    def __repr__(self) -> str:
        return (
            f"ClassDef({self.name!r}, fields={list(self.fields)}, "
            f"methods={list(self.methods)})"
        )
