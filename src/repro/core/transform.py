"""The load-time bytecode transformer (paper §3.1.1).

The paper rewrites Java class files with BCEL before execution on the
modified VM; this module performs the same three rewrites on our IR:

1. **Synchronized-method wrapping** — every ``synchronized`` method is
   renamed to ``name$impl`` (made non-synchronized, marked for inlining)
   and replaced by a wrapper of identical signature whose body is a
   synchronized block (on the receiver, or on the ``Class`` object for
   static methods) invoking the original.  "This approach greatly
   simplifies the implementation ... we need only handle explicit
   monitorenter and monitorexit bytecodes."

2. **Rollback-scope injection** — each ``monitorenter``/``monitorexit``
   region is wrapped in an exception scope catching the rollback
   exception.  A ``SAVESTATE`` is injected immediately before the
   ``monitorenter`` ("inject bytecode to save the values on the operand
   stack just before each rollback-scope's monitorenter opcode"); the
   injected ``ROLLBACK_HANDLER`` releases the monitor and either restores
   the snapshot and re-executes or rethrows outward.

3. **Write-barrier insertion** — every ``putfield``/``putstatic``/array
   store is flagged to run the barrier ("the barrier records in the log
   every modification performed by a thread executing a synchronized
   section").  :func:`elide_barriers` is the paper's compiler optimization
   hook: a whole-program call-graph analysis clears the flag on stores
   that provably never execute inside a synchronized section.

All passes operate on a private copy of the class (a VM's program image
builds its classes from their pickled bytes), so the same program object
can be loaded into modified and unmodified VMs side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import TransformError
from repro.vm import bytecode as bc
from repro.vm.assembler import Asm
from repro.vm.bytecode import Instruction
from repro.vm.classfile import (
    ClassDef,
    ExceptionTableEntry,
    MethodDef,
    ROLLBACK_TYPE,
)

IMPL_SUFFIX = "$impl"


@dataclass(frozen=True)
class ScopeInfo:
    """Locations of one injected rollback scope within a method."""

    slot: int        # SAVESTATE state slot
    save_pc: int     # pc of the SAVESTATE (re-execution resumes here)
    handler_pc: int  # pc of the ROLLBACK_HANDLER


# --------------------------------------------------------------------- editing
def insert_instructions(
    method: MethodDef, at: int, new_code: list[Instruction]
) -> None:
    """Insert instructions at pc ``at``, relocating every pc-valued operand.

    Branch targets, exception-table ranges, rollback-scope records and
    ``ROLLBACK_HANDLER`` resume pcs that point at or past ``at`` are
    shifted; a branch that targeted ``at`` lands on the first inserted
    instruction (which is exactly right for ``SAVESTATE`` injection: any
    jump to the ``monitorenter`` must save state first).
    """
    n = len(new_code)
    if n == 0:
        return
    if not (0 <= at <= len(method.code)):
        raise TransformError(
            f"{method.qualified_name()}: insertion point {at} outside body"
        )
    for ins in method.code:
        op = ins.op
        if bc.is_branch(op) and isinstance(ins.a, int) and ins.a > at:
            ins.a += n
        elif op == bc.ROLLBACK_HANDLER and isinstance(ins.b, int) and ins.b > at:
            ins.b += n
    method.exc_table = [e.shifted(at, n) for e in method.exc_table]
    if method.rollback_scopes:
        method.rollback_scopes = {
            sid: ScopeInfo(
                s.slot,
                s.save_pc + n if s.save_pc > at else s.save_pc,
                s.handler_pc + n if s.handler_pc > at else s.handler_pc,
            )
            for sid, s in method.rollback_scopes.items()
        }
    method.code[at:at] = new_code


# ----------------------------------------------------- pass 1: sync methods
def wrap_synchronized_methods(classdef: ClassDef) -> int:
    """Rewrite each synchronized method into wrapper + ``$impl``.

    Returns the number of methods wrapped.
    """
    wrapped = 0
    for name in list(classdef.methods):
        method = classdef.methods[name]
        if not method.synchronized:
            continue
        if name.endswith(IMPL_SUFFIX):
            raise TransformError(
                f"{method.qualified_name()}: reserved name suffix"
            )
        if not method.is_static and method.argc < 1:
            raise TransformError(
                f"{method.qualified_name()}: synchronized instance method "
                "without a receiver argument"
            )
        impl_name = name + IMPL_SUFFIX
        if impl_name in classdef.methods:
            raise TransformError(
                f"{classdef.name}.{impl_name} already exists"
            )
        del classdef.methods[name]
        method.name = impl_name
        method.synchronized = False
        method.force_inline = True
        classdef.methods[impl_name] = method

        w = Asm(
            name,
            argc=method.argc,
            is_static=method.is_static,
            returns_value=method.returns_value,
        )
        ret_tmp = w.local() if method.returns_value else None
        if method.is_static:
            w.classref(classdef.name)
        else:
            w.load(0)
        with w.sync():
            for i in range(method.argc):
                w.load(i)
            w.invoke(classdef.name, impl_name, method.argc)
            if ret_tmp is not None:
                w.store(ret_tmp)
        if ret_tmp is not None:
            w.load(ret_tmp)
        w.ret()
        wrapper = w.build()
        wrapper.class_name = classdef.name
        classdef.methods[name] = wrapper
        wrapped += 1
    return wrapped


# -------------------------------------------------- pass 2: rollback scopes
def inject_rollback_scopes(method: MethodDef) -> int:
    """Wrap every synchronized section in a rollback exception scope.

    Returns the number of scopes injected.  Idempotent: a method with
    existing scopes is left untouched.
    """
    if method.rollback_scopes:
        return 0
    enter_pcs = [
        (pc, ins.a)
        for pc, ins in enumerate(method.code)
        if ins.op == bc.MONITORENTER
    ]
    if not enter_pcs:
        return 0
    seen_ids = [sid for _, sid in enter_pcs]
    if len(set(seen_ids)) != len(seen_ids):
        raise TransformError(
            f"{method.qualified_name()}: duplicate sync ids {seen_ids!r}"
        )
    # Insert SAVESTATE before each monitorenter, highest pc first so the
    # earlier insertion points stay valid.
    slot_by_id: dict[object, int] = {}
    next_slot = method.state_slots
    for pc, sync_id in sorted(enter_pcs, reverse=True):
        slot = next_slot
        next_slot += 1
        slot_by_id[sync_id] = slot
        insert_instructions(
            method, pc, [Instruction(bc.SAVESTATE, slot)]
        )
    method.state_slots = next_slot

    # Re-locate the (shifted) save/enter/exit pcs.
    save_pc_by_slot = {
        ins.a: pc
        for pc, ins in enumerate(method.code)
        if ins.op == bc.SAVESTATE and ins.a in slot_by_id.values()
    }
    exits_by_id: dict[object, list[int]] = {}
    for pc, ins in enumerate(method.code):
        if ins.op == bc.MONITOREXIT:
            exits_by_id.setdefault(ins.a, []).append(pc)

    # Append one handler per scope; appends do not shift existing pcs.
    injected = 0
    for pc, sync_id in sorted(enter_pcs):  # deterministic source order
        slot = slot_by_id[sync_id]
        save_pc = save_pc_by_slot[slot]
        exits = exits_by_id.get(sync_id)
        if not exits:
            raise TransformError(
                f"{method.qualified_name()}: sync id {sync_id!r} has no "
                "monitorexit"
            )
        handler_pc = len(method.code)
        method.code.append(Instruction(bc.ROLLBACK_HANDLER, slot, save_pc))
        method.exc_table.append(
            ExceptionTableEntry(
                save_pc + 1, max(exits) + 1, handler_pc, ROLLBACK_TYPE
            )
        )
        method.rollback_scopes[sync_id] = ScopeInfo(
            slot, save_pc, handler_pc
        )
        injected += 1
    return injected


# ---------------------------------------------------- pass 3: write barriers
def insert_write_barriers(method: MethodDef) -> int:
    """Flag every heap store to run the write barrier.

    Returns the number of stores flagged.
    """
    flagged = 0
    for ins in method.code:
        if bc.is_store(ins.op) and not ins.barrier:
            ins.barrier = True
            flagged += 1
    return flagged


def transform_class(classdef: ClassDef) -> ClassDef:
    """Run all three passes over a class (mutates and returns it)."""
    wrap_synchronized_methods(classdef)
    for method in classdef.methods.values():
        inject_rollback_scopes(method)
        insert_write_barriers(method)
        method.verify()
    return classdef


# ------------------------------------------------ optional: barrier elision
def _sync_ranges(method: MethodDef) -> list[tuple[int, int]]:
    """pc intervals ``[start, end)`` in which a section may be active."""
    enters: dict[object, int] = {}
    exits: dict[object, int] = {}
    for pc, ins in enumerate(method.code):
        if ins.op == bc.MONITORENTER:
            enters.setdefault(ins.a, pc)
        elif ins.op == bc.MONITOREXIT:
            exits[ins.a] = max(exits.get(ins.a, -1), pc)
    ranges = []
    for sync_id, start in enters.items():
        scope = method.rollback_scopes.get(sync_id)
        if scope is not None:
            start = min(start, scope.save_pc)
        end = exits.get(sync_id, -1) + 1
        if end > start:
            ranges.append((start, end))
    return ranges


def elide_barriers(classdefs: Iterable[ClassDef]) -> int:
    """Whole-program barrier elision (the optimization the paper sketches:
    "Compiler analyses and optimization may elide these run-time checks
    when the update can be shown statically never to occur within a
    synchronized section").

    A store keeps its barrier when (a) it sits inside one of its own
    method's synchronized regions, or (b) its method is transitively
    reachable from a call site inside *any* synchronized region (so the
    executing thread may hold a monitor).  Every other barrier flag is
    cleared.  Returns the number of barriers elided.

    The analysis is sound, not precise: unknown callees cannot occur (all
    classes are loaded before ``run()``), and handler code appended by the
    transformer contains no stores.
    """
    methods: dict[tuple[str, str], MethodDef] = {}
    for c in classdefs:
        for m in c.methods.values():
            methods[(c.name, m.name)] = m
    ranges = {key: _sync_ranges(m) for key, m in methods.items()}

    def inside(key: tuple[str, str], pc: int) -> bool:
        return any(s <= pc < e for s, e in ranges[key])

    may_hold: set[tuple[str, str]] = set()
    work: list[tuple[str, str]] = []
    for key, m in methods.items():
        for pc, ins in enumerate(m.code):
            if ins.op == bc.INVOKE and inside(key, pc):
                callee = (ins.a[0], ins.a[1])
                if callee not in may_hold:
                    may_hold.add(callee)
                    work.append(callee)
    while work:
        key = work.pop()
        m = methods.get(key)
        if m is None:
            continue  # dangling reference; resolution will fail at run time
        for ins in m.code:
            if ins.op == bc.INVOKE:
                callee = (ins.a[0], ins.a[1])
                if callee not in may_hold:
                    may_hold.add(callee)
                    work.append(callee)

    elided = 0
    for key, m in methods.items():
        if key in may_hold:
            continue
        for pc, ins in enumerate(m.code):
            if ins.barrier and not inside(key, pc):
                ins.barrier = False
                elided += 1
    return elided
