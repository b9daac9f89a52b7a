"""Predecode: translate linked bytecode into fused basic-block closures.

The interpreter's fallback chain (:class:`repro.vm.interpreter.Interpreter`)
spends almost all of its host time decoding guest instructions one at a
time through a long ``if/elif`` chain.  This module is the predecode tier
that removes that cost for straight-line code: at first execution of a
method it discovers *fusable runs* — maximal sequences of opcodes that
can never flush the virtual clock, park the thread, or emit a trace
event — and compiles each run into one Python function (a basic-block
superinstruction).  The block carries its summed
static cycle cost and instruction count, so the interpreter charges a
whole block with two additions instead of one dispatch per instruction
(*basic-block cost batching*).

The entire method — every basic block plus the superblocks the trace
compiler (:mod:`repro.vm.tracecomp`) forms over its loops — is generated
as one Python module source and compiled in a single ``compile``/``exec``
pass (*method-level translation*).  The compiled code is keyed to the
per-VM :class:`MethodDef` copy together with its inline-cache cells, and
``MethodDef.invalidate_decoded`` drops blocks, superblocks, caches and
constant pool as one unit — there is no path on which a stale closure can
outlive a mutation of ``method.code``.

Semantics preservation is the hard requirement: the interpreter with the
tier off (``interp="reference"``) is the oracle and the parity suite
(``tests/test_interp_parity.py``) asserts byte-identical virtual
clocks, trace streams, schedules and checker fingerprints.  The design
invariants that make this safe:

* Blocks contain only ops from :data:`repro.vm.bytecode.FUSABLE_OPS` and
  never include a yield point.  Every clock flush, preemption check,
  revocation delivery, fault-injection probe and trace event therefore
  happens at exactly the pcs the reference uses.
* Cost batching is exact, not approximate: the block's static cost equals
  the sum the reference would accrue into its ``acc`` local between the
  same two flush points, and dynamic (write/read barrier) cycles are
  accumulated into a side cell the interpreter folds into ``acc`` after
  the block returns — mirroring the reference's ``acc +=
  support.before_store(...)`` lines.
* Guest exceptions thrown mid-block are repaired precisely: before every
  op that can raise a :class:`~repro.errors.GuestRuntimeError` the block
  stores that op's pc into a fault cell, and the interpreter subtracts
  the pre-charged cost/count of the not-executed block suffix before
  dispatching the exception.  The operand stack needs no repair because
  JVM exception dispatch clears it (handlers in the same frame) or
  discards the frame.
* Heap ops go through the *same* seams as the reference — ``require_ref``,
  ``VMObject.get/put``, ``Heap.get_static/put_static``,
  ``support.after_load/before_store`` — with per-site monomorphic inline
  cache cells replacing the reference's ``ins.c`` caches.  When the
  support offers ``read_barrier_guard()``, each read barrier inlines
  ``after_load``'s fast path (bump the hit count, charge the cost) and
  calls it only when another thread holds a speculative write.
* Runs of consecutive barrier stores with no intervening raising op or
  read barrier are appended through one
  ``support.before_store_batch`` call (*batched write barriers*); the
  heap mutations themselves stay in place, only the logging/costing calls
  coalesce, and the batch is flushed before every point at which its
  effects could be observed (fault sites, read barriers, block exits).

Superinstruction patterns recognised during code generation:

* ``cmp+branch``: a comparison feeding a forward branch compiles to one
  conditional ``return`` with no intermediate 0/1 materialisation;
* ``const+div``/``const+mod``: division by a non-zero integer constant
  skips the zero-divisor test;
* ``alu+store``: a STORE whose value was computed in-block writes the
  local directly without touching the operand stack.

Predecoding is lazy (first execution of each method, after class loading,
transformation and barrier elision have settled) and cached on the
:class:`~repro.vm.classfile.MethodDef`, which is per-VM because
``JVM.load`` always copies class definitions.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import GuestRuntimeError, StarvationError
from repro.vm import bytecode as bc
from repro.vm.classfile import MethodDef
from repro.vm.heap import require_ref
from repro.vm.interpreter import Interpreter, _idiv, _imod


# --------------------------------------------------------------- helpers
# Runtime helpers referenced from generated code (short upper-case names
# keep the generated source readable in dumps and tracebacks).

def _mod_values(a, b):
    """MOD with an unknown divisor — replicates the reference arm."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise GuestRuntimeError(
                "integer remainder by zero",
                guest_class="ArithmeticException",
            )
        return _imod(a, b)
    return Interpreter._fmod(a, b)


def _div_values(a, b):
    """DIV with an unknown divisor — replicates the reference arm."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise GuestRuntimeError(
                "integer division by zero",
                guest_class="ArithmeticException",
            )
        return _idiv(a, b)
    return Interpreter._fdiv(a, b)


def _mod_const(a, b):
    """MOD by a known non-zero int constant: no zero test needed."""
    if isinstance(a, int):
        return _imod(a, b)
    return Interpreter._fmod(a, b)


def _div_const(a, b):
    """DIV by a known non-zero int constant: no zero test needed."""
    if isinstance(a, int):
        return _idiv(a, b)
    return Interpreter._fdiv(a, b)


def _mod_pos_const(a, k):
    """MOD by a known *positive* int constant, without the _idiv round trip.

    Java remainder takes the dividend's sign; Python ``%`` takes the
    divisor's, so correct the non-zero negative-dividend case.  Equivalent
    to ``_imod(a, k)`` for every int ``a`` when ``k > 0``.
    """
    if isinstance(a, int):
        r = a % k
        return r - k if r and a < 0 else r
    return Interpreter._fmod(a, k)


def _div_pos_const(a, k):
    """DIV by a known positive int constant (truncation toward zero)."""
    if isinstance(a, int):
        return a // k if a >= 0 else -((-a) // k)
    return Interpreter._fdiv(a, k)


_CMP_EXPR = {
    bc.LT: "<", bc.LE: "<=", bc.GT: ">", bc.GE: ">=",
}
_BIN_EXPR = {
    bc.ADD: "+", bc.SUB: "-", bc.MUL: "*", bc.AND: "&", bc.OR: "|",
    bc.XOR: "^", bc.SHL: "<<", bc.SHR: ">>",
}

#: Single-instruction runs of these ops are cheaper through the dispatch
#: chain than through a function call; only fuse them in company.
_SINGLETON_SKIP = bc.FUSABLE_PURE | bc.FUSABLE_BRANCH

_NOVAL = object()


class _Sym:
    """One symbolic operand-stack entry sitting above the real stack.

    ``expr`` is always a *pure, repeatable* Python expression (a literal,
    a constant-pool ref, a generated temp, or a ``locals_[i]`` read);
    ``deps`` lists the local slots the expression reads so STORE/IINC can
    materialise it first; ``val`` carries the Python value for literal
    constants (enables the const-divisor superinstruction).
    """

    __slots__ = ("expr", "deps", "val")

    def __init__(self, expr: str, deps: tuple = (), val: Any = _NOVAL):
        self.expr = expr
        self.deps = deps
        self.val = val


class BasicBlock:
    """A compiled fusable run ``[start, end)`` of one method's code."""

    __slots__ = (
        "start", "end", "cost", "count", "fn", "dynamic", "raising",
        "suffix_cost", "suffix_count", "source",
    )

    def __init__(self, start: int, end: int, cost: int, count: int,
                 fn, dynamic: bool, raising: bool,
                 suffix_cost: tuple, suffix_count: tuple, source: str):
        self.start = start
        self.end = end
        #: summed static cycle cost of all instructions in the run
        self.cost = cost
        #: number of guest instructions in the run
        self.count = count
        #: ``fn(stack, locals_, F, A, T) -> next pc`` (bound by the
        #: method-level compile after all sources are collected)
        self.fn = fn
        #: True when the block accrues dynamic barrier cycles into ``A[0]``
        self.dynamic = dynamic
        #: True when the block can raise a GuestRuntimeError (uses ``F[0]``)
        self.raising = raising
        #: ``suffix_cost[k]``: static cost of instructions *after* relative
        #: index ``k`` — subtracted when instruction ``start+k`` faults.
        self.suffix_cost = suffix_cost
        self.suffix_count = suffix_count
        #: generated Python source (shown by :func:`render_decoded`)
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BasicBlock [{self.start},{self.end}) cost={self.cost} "
            f"count={self.count} dynamic={self.dynamic} "
            f"raising={self.raising}>"
        )


class DecodedMethod:
    """Predecode result for one :class:`MethodDef`.

    ``blocks`` is indexed by pc: ``blocks[pc]`` is the :class:`BasicBlock`
    starting at ``pc`` or ``None`` when that pc executes through the
    interpreter's dispatch chain.  ``superblocks`` is likewise indexed by
    pc: ``superblocks[pc]`` is the :class:`~repro.vm.tracecomp.SuperBlock`
    anchored at the backward-GOTO yield point ``pc``, or ``None``.
    Missing blocks/superblocks are always safe — the interpreter's
    dispatch loop falls back to its instruction chain, so predecode
    coverage affects speed only, never behaviour.
    """

    __slots__ = ("method", "blocks", "block_list", "superinstructions",
                 "fused_instructions", "superblocks", "superblock_list")

    def __init__(self, method: MethodDef, blocks: list,
                 superinstructions: dict, superblocks: Optional[list] = None):
        self.method = method
        self.blocks = blocks
        self.block_list = [b for b in blocks if b is not None]
        #: pattern name -> number of fusions applied
        self.superinstructions = superinstructions
        self.fused_instructions = sum(b.count for b in self.block_list)
        if superblocks is None:
            superblocks = [None] * len(blocks)
        self.superblocks = superblocks
        self.superblock_list = [s for s in superblocks if s is not None]


def invalidate(method: MethodDef) -> None:
    """Drop a cached predecode (call after mutating ``method.code``)."""
    method.__dict__.pop("_decoded", None)


def predecode_method(vm, method: MethodDef) -> DecodedMethod:
    """Predecode ``method`` for ``vm``; cached on the MethodDef.

    Must run only after the method is linked into ``vm`` (costs and yield
    points assigned, transformer and barrier elision done) — the
    interpreter's predecode tier calls it lazily at first execution, which
    satisfies that.
    """
    cached = method.__dict__.get("_decoded")
    if cached is not None:
        return cached
    dm = _Predecoder(vm, method).build()
    method._decoded = dm
    return dm


# ------------------------------------------------------------ discovery
def find_leaders(method: MethodDef) -> set[int]:
    """Pcs where control can (re-)enter a method mid-body.

    Blocks must start at (or after) a leader and never span one: branch
    targets, exception/rollback handlers, rollback resume points, and the
    fall-through successor of every chain-executed instruction (the chain
    leaves ``frame.pc`` there on preemption, monitor re-entry, wait
    wake-up, invoke return, ...).
    """
    code = method.code
    leaders = {0}
    for pc, ins in enumerate(code):
        op = ins.op
        if bc.is_branch(op) and isinstance(ins.a, int):
            leaders.add(ins.a)
        if op == bc.ROLLBACK_HANDLER and isinstance(ins.b, int):
            leaders.add(ins.b)
        if op not in bc.FUSABLE_OPS or ins.ypoint:
            leaders.add(pc + 1)
    for entry in method.exc_table:
        leaders.add(entry.handler)
    return leaders


def find_runs(method: MethodDef, leaders: set[int]) -> list[tuple[int, int]]:
    """Maximal fusable runs ``[start, end)``; branches only as terminators."""
    code = method.code
    n = len(code)
    runs = []
    pc = 0
    while pc < n:
        if not _fusable(code[pc]):
            pc += 1
            continue
        start = pc
        end = pc
        while end < n:
            ins = code[end]
            if end > start and end in leaders:
                break
            if not _fusable(ins):
                break
            end += 1
            if ins.op in bc.FUSABLE_BRANCH:
                break  # branches terminate the run
        if end - start == 1 and code[start].op in _SINGLETON_SKIP:
            pc = end
            continue  # cheaper through the dispatch chain
        runs.append((start, end))
        pc = end
    return runs


def _fusable(ins) -> bool:
    op = ins.op
    if op not in bc.FUSABLE_OPS or ins.ypoint:
        return False
    if op in bc.FUSABLE_BRANCH and not isinstance(ins.a, int):
        return False  # unresolved label (never post-build, but be safe)
    return True


# -------------------------------------------------------------- code gen
class _Emitter:
    """Symbolic-stack code generator shared by the basic-block compiler
    and the superblock trace compiler (:mod:`repro.vm.tracecomp`).

    Two modes, differing only in cost accounting:

    ``"block"``
        Dynamic barrier/read-barrier cycles accrue into the ``A[0]`` side
        cell; static costs are *not* emitted — the interpreter charges
        the block's precomputed total up front and repairs faults through
        the suffix arrays.

    ``"super"``
        Static costs are charged lazily: accumulated at codegen time into
        ``pending_cost``/``pending_count`` and flushed into the generated
        ``acc``/``ic`` locals before any op that can raise (including
        that op's own cost, mirroring the reference's charge-before-
        execute order), at control-flow splits, and at iteration
        boundaries.  ``acc``/``ic`` therefore hold exactly the reference
        interpreter's unflushed accumulators at every point a guest
        exception can escape, with no repair table needed.  Dynamic
        cycles accrue into ``acc`` directly.

    In both modes consecutive barrier stores batch into one deferred
    ``before_store_batch`` call, flushed before any observation point.
    """

    def __init__(self, owner: "_Predecoder", mode: str):
        self.owner = owner
        self.mode = mode
        self.acc = "A[0]" if mode == "block" else "acc"
        self.lines: list[str] = []
        self.sym: list[_Sym] = []
        self.indent = 1
        self.tmp = 0
        self.raising = False
        self.dynamic = False
        self.pending_cost = 0
        self.pending_count = 0
        #: deferred (container, slot, old_value, volatile) expression
        #: 4-tuples for the batched write-barrier call
        self.batch: list[tuple[str, str, str, str]] = []

    # ------------------------------------------------------------ plumbing
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def newtmp(self) -> str:
        name = f"t{self.tmp}"
        self.tmp += 1
        return name

    def pop(self) -> _Sym:
        if self.sym:
            return self.sym.pop()
        t = self.newtmp()
        self.emit(f"{t} = stack.pop()")
        return _Sym(t)

    def push(self, entry: _Sym) -> None:
        self.sym.append(entry)

    def push_tmp(self, expr: str) -> str:
        """Evaluate ``expr`` into a temp now; push the temp."""
        t = self.newtmp()
        self.emit(f"{t} = {expr}")
        self.sym.append(_Sym(t))
        return t

    def spill(self, local: int) -> None:
        """Materialise symbolic entries that read local ``local``."""
        for e in self.sym:
            if local in e.deps:
                t = self.newtmp()
                self.emit(f"{t} = {e.expr}")
                e.expr = t
                e.deps = ()
                e.val = _NOVAL

    def flush_stack(self) -> None:
        if not self.sym:
            return
        if len(self.sym) == 1:
            self.emit(f"stack.append({self.sym[0].expr})")
        else:
            exprs = ", ".join(e.expr for e in self.sym)
            self.emit(f"stack.extend(({exprs}))")
        del self.sym[:]

    # ------------------------------------------------------------- costing
    def charge(self, ins) -> None:
        """Accumulate ``ins``'s static cost (superblock mode only; block
        costs are charged by the interpreter from the block totals)."""
        if self.mode == "super":
            self.pending_cost += ins.cost
            self.pending_count += 1

    def flush_charges(self) -> None:
        """Emit the pending static charges into ``acc``/``ic``."""
        if self.pending_cost or self.pending_count:
            if self.pending_cost:
                self.emit(f"acc += {self.pending_cost}")
            self.emit(f"ic += {self.pending_count}")
            self.pending_cost = 0
            self.pending_count = 0

    def flush_batch(self) -> None:
        """Emit the deferred write-barrier batch (one call, in order)."""
        batch = self.batch
        if not batch:
            return
        self.dynamic = True
        if len(batch) == 1:
            c, s, o, v = batch[0]
            self.emit(f"{self.acc} += BS(T, {c}, {s}, {o}, {v})")
        else:
            entries = ", ".join(
                f"({c}, {s}, {o}, {v})" for c, s, o, v in batch
            )
            self.emit(f"{self.acc} += BSB(T, ({entries}))")
        del batch[:]

    def barrier_store(self, container: str, slot: str, old: str,
                      volatile: str) -> None:
        self.batch.append((container, slot, old, volatile))

    def read_barrier(self, container: str, slot: str, volatile: str) -> None:
        self.flush_batch()  # keep jmm write/read ordering exact
        self.dynamic = True
        call = f"{self.acc} += AL(T, {container}, {slot}, {volatile})"
        cost = self.owner.read_barrier_cost
        if cost is None:
            self.emit(call)
            return
        # support.read_barrier_guard(): after_load's fast path, inline
        self.emit("if len(LV) > (T.tid in LV):")
        self.emit(f"    {call}")
        self.emit("else:")
        self.emit("    RM.read_barrier_hits += 1")
        self.emit(f"    {self.acc} += {cost}")

    def set_fault(self, pc: int) -> None:
        """Mark ``pc`` as the next possible guest-fault site.

        Flushes the barrier batch (the reference has already run those
        barriers when this op raises) and, in superblock mode, the
        pending static charges *including this op's own cost* — matching
        the reference's charge-before-execute order, so ``acc``/``ic``
        are exact at the raise."""
        self.flush_batch()
        if self.mode == "super":
            self.flush_charges()
        self.raising = True
        self.emit(f"F[0] = {pc}")

    # --------------------------------------------------------- cache cells
    def field_cache(self, obj_var: str, name_expr: str) -> str:
        """Monomorphic inline cache mirroring ``_field_def``."""
        j = self.owner._cell()
        cv = self.newtmp()
        self.emit(f"{cv} = C[{j}]")
        self.emit(
            f"if {cv} is None or {cv}[0] is not {obj_var}.classdef:"
        )
        self.emit(
            f"    {cv} = ({obj_var}.classdef, "
            f"{obj_var}.classdef.field({name_expr}))"
        )
        self.emit(f"    C[{j}] = {cv}")
        return cv

    def static_cache(self, key_ref: str) -> str:
        j = self.owner._cell()
        cv = self.newtmp()
        self.emit(f"{cv} = C[{j}]")
        self.emit(f"if {cv} is None:")
        self.emit(f"    {cv} = SD(*{key_ref})")
        self.emit(f"    C[{j}] = {cv}")
        return cv

    # -------------------------------------------------------------- opcodes
    def emit_op(self, pc: int, ins) -> None:
        """Generate code for one non-branch fusable op.

        Branches (and comparisons fused into them) are control flow and
        stay with the drivers: the block compiler turns them into
        ``return`` terminators, the superblock structurizer into nested
        ``if`` statements.
        """
        op = ins.op
        owner = self.owner

        if op == bc.CONST:
            expr, val = owner._const_expr(ins.a)
            self.push(_Sym(expr, (), val))
        elif op == bc.LOAD:
            self.push(_Sym(f"locals_[{ins.a}]", (ins.a,)))
        elif op == bc.STORE:
            fused = bool(self.sym)
            v = self.pop()
            self.spill(ins.a)
            self.emit(f"locals_[{ins.a}] = {v.expr}")
            if fused:
                owner._bump("alu+store")
        elif op == bc.IINC:
            self.spill(ins.a)
            self.emit(f"locals_[{ins.a}] += {ins.b}")
        elif op == bc.DUP:
            if self.sym:
                top = self.sym[-1]
                self.push(_Sym(top.expr, top.deps, top.val))
            else:
                t = self.newtmp()
                self.emit(f"{t} = stack[-1]")
                self.push(_Sym(t))
        elif op == bc.POP:
            if self.sym:
                self.sym.pop()
            else:
                self.emit("del stack[-1]")
        elif op == bc.SWAP:
            a = self.pop()
            b_ = self.pop()
            self.push(a)
            self.push(b_)
        elif op == bc.NOP:
            pass
        elif op in _BIN_EXPR:
            b_ = self.pop()
            a = self.pop()
            self.push_tmp(f"({a.expr}) {_BIN_EXPR[op]} ({b_.expr})")
        elif op == bc.NEG:
            v = self.pop()
            self.push_tmp(f"-({v.expr})")
        elif op == bc.NOT:
            v = self.pop()
            self.push_tmp(f"0 if ({v.expr}) else 1")
        elif op in _CMP_EXPR or op == bc.EQ or op == bc.NE:
            b_ = self.pop()
            a = self.pop()
            if op in _CMP_EXPR:
                cond = f"({a.expr}) {_CMP_EXPR[op]} ({b_.expr})"
                negated = False
            else:
                cond = f"GEQ({a.expr}, {b_.expr})"
                negated = op == bc.NE
            if negated:
                self.push_tmp(f"0 if {cond} else 1")
            else:
                self.push_tmp(f"1 if {cond} else 0")
        elif op == bc.DIV or op == bc.MOD:
            b_ = self.pop()
            a = self.pop()
            helper = "MOD" if op == bc.MOD else "DIV"
            if (b_.val is not _NOVAL and isinstance(b_.val, int)
                    and b_.val != 0):
                suffix = "P" if b_.val > 0 else "C"
                self.push_tmp(f"{helper}{suffix}({a.expr}, {b_.expr})")
                owner._bump("const+mod" if op == bc.MOD else "const+div")
            else:
                self.set_fault(pc)
                self.push_tmp(f"{helper}V({a.expr}, {b_.expr})")
        elif op == bc.TID:
            self.push(_Sym("T.tid"))

        # ---------------------------------------------------- heap ops
        elif op == bc.GETFIELD:
            o = self.pop()
            self.set_fault(pc)
            to = self.newtmp()
            self.emit(f"{to} = RR({o.expr}, 'object')")
            name_expr, _ = self.owner._const_expr(ins.a)
            cv = self.field_cache(to, name_expr)
            self.push_tmp(f"{to}.get({name_expr})")
            if owner.read_barriers:
                self.read_barrier(to, name_expr, f"{cv}[1].volatile")
        elif op == bc.PUTFIELD:
            v = self.pop()
            o = self.pop()
            self.set_fault(pc)
            to = self.newtmp()
            self.emit(f"{to} = RR({o.expr}, 'object')")
            name_expr, _ = self.owner._const_expr(ins.a)
            cv = self.field_cache(to, name_expr)
            if ins.barrier:
                told = self.newtmp()
                self.emit(f"{told} = {to}.put({name_expr}, {v.expr})")
                self.barrier_store(to, name_expr, told,
                                   f"{cv}[1].volatile")
            else:
                self.emit(f"{to}.put({name_expr}, {v.expr})")
        elif op == bc.ALOAD:
            idx = self.pop()
            arr = self.pop()
            self.set_fault(pc)
            ta = self.newtmp()
            self.emit(f"{ta} = RR({arr.expr}, 'array')")
            if owner.read_barriers:
                # the index expression is evaluated twice (get + AL);
                # pin it so both reads agree even for locals_ exprs
                ti = self.newtmp()
                self.emit(f"{ti} = {idx.expr}")
                self.push_tmp(f"{ta}.get({ti})")
                self.read_barrier(ta, ti, "False")
            else:
                self.push_tmp(f"{ta}.get({idx.expr})")
        elif op == bc.ASTORE:
            v = self.pop()
            idx = self.pop()
            arr = self.pop()
            self.set_fault(pc)
            ta = self.newtmp()
            self.emit(f"{ta} = RR({arr.expr}, 'array')")
            if ins.barrier:
                ti = self.newtmp()
                self.emit(f"{ti} = {idx.expr}")
                told = self.newtmp()
                self.emit(f"{told} = {ta}.put({ti}, {v.expr})")
                self.barrier_store(ta, ti, told, "False")
            else:
                self.emit(f"{ta}.put({idx.expr}, {v.expr})")
        elif op == bc.GETSTATIC:
            key_ref = owner._kref(ins.a)
            cv = self.static_cache(key_ref)
            self.push_tmp(f"GS({key_ref})")
            if owner.read_barriers:
                self.read_barrier(key_ref, f"{key_ref}[1]",
                                  f"{cv}.volatile")
        elif op == bc.PUTSTATIC:
            v = self.pop()
            key_ref = owner._kref(ins.a)
            cv = self.static_cache(key_ref)
            if ins.barrier:
                told = self.newtmp()
                self.emit(f"{told} = PS({key_ref}, {v.expr})")
                self.barrier_store(key_ref, f"{key_ref}[1]", told,
                                   f"{cv}.volatile")
            else:
                self.emit(f"PS({key_ref}, {v.expr})")
        elif op == bc.ARRAYLEN:
            arr = self.pop()
            self.set_fault(pc)
            ta = self.newtmp()
            self.emit(f"{ta} = RR({arr.expr}, 'array')")
            self.push_tmp(f"len({ta})")
        elif op == bc.NEW:
            j = owner._cell()
            cv = self.newtmp()
            name_expr, _ = owner._const_expr(ins.a)
            self.emit(f"{cv} = C[{j}]")
            self.emit(f"if {cv} is None:")
            self.emit(f"    {cv} = CDEF({name_expr})")
            self.emit(f"    C[{j}] = {cv}")
            self.push_tmp(f"ALLOC({cv})")
        elif op == bc.NEWARRAY:
            length = self.pop()
            self.set_fault(pc)
            fill_expr, _ = owner._const_expr(ins.a)
            self.push_tmp(f"NEWA({length.expr}, {fill_expr})")
        elif op == bc.CLASSREF:
            j = owner._cell()
            cv = self.newtmp()
            name_expr, _ = owner._const_expr(ins.a)
            self.emit(f"{cv} = C[{j}]")
            self.emit(f"if {cv} is None:")
            self.emit(f"    {cv} = CLSO({name_expr})")
            self.emit(f"    C[{j}] = {cv}")
            self.push(_Sym(cv))
        else:  # pragma: no cover - drivers filter non-fusable ops
            raise AssertionError(f"non-fusable op {op} in run")


# -------------------------------------------------------------- compiler
class _Predecoder:
    """Compiles one method's fusable runs into block closures and its
    eligible loops into superblocks, in one module-level compile."""

    def __init__(self, vm, method: MethodDef):
        self.vm = vm
        self.method = method
        self.read_barriers = vm.options.modified
        self.consts: list[Any] = []   # K: shared constant pool
        self.cells: list[Any] = []    # C: per-site inline-cache cells
        self.stats: dict[str, int] = {}
        heap = vm.heap
        support = vm.support

        def _newarray(length, fill):
            if not isinstance(length, int) or length < 0:
                raise GuestRuntimeError(
                    f"negative array size {length}",
                    guest_class="NegativeArraySizeException",
                )
            return heap.allocate_array(length, fill)

        self.ns = {
            "__builtins__": {},
            "len": len,
            "K": self.consts,
            "C": self.cells,
            "RR": require_ref,
            "GEQ": Interpreter._guest_eq,
            "MODV": _mod_values,
            "DIVV": _div_values,
            "MODC": _mod_const,
            "DIVC": _div_const,
            "MODP": _mod_pos_const,
            "DIVP": _div_pos_const,
            "GS": heap.get_static,
            "PS": heap.put_static,
            "SD": heap.static_def,
            "ALLOC": heap.allocate,
            "NEWA": _newarray,
            "CLSO": heap.class_object,
            "CDEF": vm.classdef,
            "AL": support.after_load,
            "BS": support.before_store,
            "BSB": support.before_store_batch,
            "CLK": vm.clock,
            "SERR": StarvationError,
            "GRE": GuestRuntimeError,
        }
        #: cycles of the inlined read-barrier fast path; None when every
        #: read barrier calls ``AL`` (see RuntimeSupport.read_barrier_guard)
        self.read_barrier_cost = None
        guard = support.read_barrier_guard() if self.read_barriers else None
        if guard is not None:
            self.ns["LV"], self.ns["RM"] = guard
            self.read_barrier_cost = vm.cost_model.read_barrier

    def build(self) -> DecodedMethod:
        from repro.vm.tracecomp import compile_superblocks

        method = self.method
        n = len(method.code)
        blocks: list[Optional[BasicBlock]] = [None] * n
        leaders = find_leaders(method)
        for start, end in find_runs(method, leaders):
            blocks[start] = self._compile(start, end)
        superblocks: list = [None] * n
        for sb in compile_superblocks(self):
            superblocks[sb.anchor] = sb
        # Method-level translation: every block and superblock compiles in
        # one module-sized pass, so the whole method's generated code
        # shares one constant pool + cache-cell array and is dropped as
        # one unit by MethodDef.invalidate_decoded.
        sources = [b.source for b in blocks if b is not None]
        sources.extend(s.source for s in superblocks if s is not None)
        if sources:
            module = "\n".join(sources)
            filename = f"<decoded {method.qualified_name()}>"
            exec(compile(module, filename, "exec"), self.ns)
            for b in blocks:
                if b is not None:
                    b.fn = self.ns.pop(f"_b{b.start}")
            for s in superblocks:
                if s is not None:
                    s.fn = self.ns.pop(f"_s{s.anchor}")
        return DecodedMethod(method, blocks, self.stats, superblocks)

    # ---------------------------------------------------------- plumbing
    def _kref(self, value: Any) -> str:
        self.consts.append(value)
        return f"K[{len(self.consts) - 1}]"

    def _cell(self) -> int:
        self.cells.append(None)
        return len(self.cells) - 1

    def _const_expr(self, value: Any):
        """A literal expression when safely round-trippable, else K[i]."""
        if value is None:
            return "None", value
        if type(value) is bool or type(value) is int:
            return repr(value), value
        if type(value) is str and len(value) < 200:
            return repr(value), value
        return self._kref(value), value

    def _bump(self, pattern: str) -> None:
        self.stats[pattern] = self.stats.get(pattern, 0) + 1

    # ------------------------------------------------------------- codegen
    def _compile(self, start: int, end: int) -> BasicBlock:
        code = self.method.code
        em = _Emitter(self, "block")

        exit_pc: Optional[str] = None  # set when a branch terminator returns
        pc = start
        while pc < end:
            ins = code[pc]
            op = ins.op

            if op in _CMP_EXPR or op == bc.EQ or op == bc.NE:
                nxt = code[pc + 1] if pc + 1 < end else None
                if nxt is not None and nxt.op in (bc.IF, bc.IFNOT):
                    # cmp+branch superinstruction: one conditional return,
                    # no 0/1 materialisation.  The branch is the block
                    # terminator by construction.
                    b_ = em.pop()
                    a = em.pop()
                    if op in _CMP_EXPR:
                        cond = f"({a.expr}) {_CMP_EXPR[op]} ({b_.expr})"
                        negated = False
                    else:
                        cond = f"GEQ({a.expr}, {b_.expr})"
                        negated = op == bc.NE
                    taken, fall = nxt.a, pc + 2
                    if negated:
                        cond = f"not {cond}"
                    em.flush_batch()
                    em.flush_stack()
                    if nxt.op == bc.IF:
                        em.emit(f"return {taken} if {cond} else {fall}")
                    else:
                        em.emit(f"return {fall} if {cond} else {taken}")
                    self._bump("cmp+branch")
                    exit_pc = "fused"
                    pc += 2
                    break
                em.emit_op(pc, ins)
            elif op == bc.GOTO:
                em.flush_batch()
                em.flush_stack()
                em.emit(f"return {ins.a}")
                exit_pc = "fused"
                pc += 1
                break
            elif op == bc.IF or op == bc.IFNOT:
                v = em.pop()
                em.flush_batch()
                em.flush_stack()
                taken, fall = ins.a, pc + 1
                if op == bc.IF:
                    em.emit(f"return {taken} if {v.expr} else {fall}")
                else:
                    em.emit(f"return {fall} if {v.expr} else {taken}")
                exit_pc = "fused"
                pc += 1
                break
            else:
                em.emit_op(pc, ins)
            pc += 1

        if exit_pc is None:
            em.flush_batch()
            em.flush_stack()
            em.emit(f"return {end}")
        run = code[start:end]
        return self._finish(start, end, run, em)

    def _finish(self, start: int, end: int, run, em: _Emitter) -> BasicBlock:
        lines = em.lines
        if em.dynamic:
            lines.insert(0, "    A[0] = 0")
        name = f"_b{start}"
        body = "\n".join(lines)
        source = f"def {name}(stack, locals_, F, A, T):\n{body}\n"

        cost = sum(ins.cost for ins in run)
        count = len(run)
        # suffix arrays for mid-block fault repair: entry k holds the
        # cost/count of the instructions strictly after relative index k.
        suffix_cost = []
        suffix_count = []
        tail_cost = 0
        tail_count = 0
        for ins in reversed(run):
            suffix_cost.append(tail_cost)
            suffix_count.append(tail_count)
            tail_cost += ins.cost
            tail_count += 1
        suffix_cost.reverse()
        suffix_count.reverse()
        return BasicBlock(
            start, end, cost, count, None, em.dynamic, em.raising,
            tuple(suffix_cost), tuple(suffix_count), source,
        )


def render_decoded(dm: DecodedMethod) -> str:
    """Human-readable dump of a predecoded method, for debugging."""
    out = [
        f"{dm.method.qualified_name()}: {len(dm.block_list)} blocks, "
        f"{dm.fused_instructions}/{len(dm.method.code)} instructions fused, "
        f"superinstructions={dm.superinstructions or {}}"
    ]
    for b in dm.block_list:
        out.append(
            f"-- block [{b.start},{b.end}) cost={b.cost} count={b.count}"
            f"{' dynamic' if b.dynamic else ''}"
            f"{' raising' if b.raising else ''}"
        )
        out.append(b.source.rstrip())
    for s in dm.superblock_list:
        out.append(
            f"-- superblock @{s.anchor} loop [{s.head},{s.anchor}]"
        )
        out.append(s.source.rstrip())
    return "\n".join(out)
