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
as one Python module source and exec'd in a single pass (*method-level
translation*).  The source holds no per-VM object: those sit in the
module's namespace.  So a method's :class:`MethodTemplate` — unbound
blocks and superblocks, the compiled code object and the ``K`` constant
pool — is built once per :class:`~repro.vm.vmcore.ProgramImage` and
kept there, and each VM, restored ones included, execs the code object
into its own namespace (:meth:`MethodTemplate.instantiate`) and keeps
the result in its interpreter.  Code objects are also shared across
images, keyed by the full source text and the ``<decoded Class.method>``
filename (:func:`_module_code`).  Linked code never changes under a
template: barrier elision runs while the image is built, and a VM loads
every class before its first thread, so no decoded method outlives the
code it was built from.

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
* Heap ops inline their common case behind a guard and keep the
  reference's seam as the slow branch, so every guest exception, message
  and fault pc is the reference's:

  - a reference operand is tested with ``type(x) is VMObject``
    (``VMArray`` for arrays); ``require_ref`` runs only on a miss;
  - array loads and stores touch ``storage`` directly when the array is a
    ``VMArray`` and ``0 <= i < len(storage)``; otherwise
    ``VMArray.get/put`` raise the AIOOBE (``storage[-1]`` would not);
  - statics are read and written in ``heap.statics`` directly when the
    image has the key (``ProgramImage.statics``, tested while the code
    is generated); a key it lacks compiles to ``Heap.get_static`` /
    ``put_static``, which raise the reference's ``LinkError``;
  - instance fields go through ``VMObject.get/put``.

  Neither tier resolves a field's definition: the barriers stay the
  reference's ``support.after_load/before_store`` calls on the location,
  and the support looks a field's ``volatile`` flag up itself, only when
  a read pins a section.  In a modified image each read barrier inlines
  ``after_load``'s fast path (bump the hit count, charge the cost) and
  calls it only when another thread holds a speculative write
  (``read_barrier_guard()``).  Nothing is cached per site: NEW looks its
  class up by name (``CDEF``) and CLASSREF the VM's own class object
  (``CLSO``) at every execution, so generated code writes nothing but
  guest state.
* In a block, runs of consecutive barrier stores with no intervening
  raising op or read barrier are appended through one
  ``support.before_store_batch`` call (*batched write barriers*); the
  heap mutations themselves stay in place, only the logging/costing calls
  coalesce, and the batch is flushed before every point at which its
  effects could be observed (fault sites, read barriers, block exits).
  A superblock goes further and passes all of one run's stores in one
  call at the run's exit (:mod:`repro.vm.tracecomp`).

Superinstruction patterns recognised during code generation:

* ``cmp+branch``: a comparison feeding a forward branch compiles to one
  conditional ``return`` with no intermediate 0/1 materialisation;
* ``const+div``/``const+mod``: division by a non-zero integer constant
  skips the zero-divisor test; remainder by a positive constant is an
  inline ``a % k`` for a non-negative int dividend (where Python and Java
  agree) and calls the helper for anything else, bools and floats
  included;
* ``alu+store``: a STORE whose value was computed in-block writes the
  local directly without touching the operand stack.

Predecoding is lazy (first execution of each method, after class
loading, transformation and barrier elision have settled): the image
builds the template at the first execution in any VM, and each VM
instantiates it at its own first execution.
"""

from __future__ import annotations

import functools
from typing import Any, Optional

from repro.errors import GuestRuntimeError, StarvationError
from repro.vm import bytecode as bc
from repro.vm.classfile import MethodDef
from repro.vm.heap import VMArray, VMObject, require_ref
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
    a constant-pool ref, a generated temp, or a guest-local read:
    ``locals_[i]`` in a block, ``L{i}`` in a superblock);
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

    def bound(self, fn) -> "BasicBlock":
        """This block with ``fn`` bound, for one VM."""
        return BasicBlock(
            self.start, self.end, self.cost, self.count, fn, self.dynamic,
            self.raising, self.suffix_cost, self.suffix_count, self.source,
        )

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


def predecode_method(vm, method: MethodDef) -> DecodedMethod:
    """Predecode ``method`` for ``vm``; cached in the VM's interpreter.

    The image builds the method's template once (source, code object,
    constant pool); each VM execs the code object into its own
    namespace.  Must run only after the method is linked into ``vm``'s
    image — the interpreter's predecode tier calls it lazily at first
    execution, which satisfies that.
    """
    decoded = vm.interpreter.decoded
    dm = decoded.get(id(method))
    if dm is not None:
        return dm
    dm = vm.image.template(method).instantiate(vm, method)
    decoded[id(method)] = dm
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

    Two modes:

    ``"block"``
        Guest locals are read and written through ``locals_[i]``.
        Dynamic barrier/read-barrier cycles accrue into the ``A[0]`` side
        cell; static costs are *not* emitted — the interpreter charges
        the block's precomputed total up front and repairs faults through
        the suffix arrays.  Consecutive barrier stores batch into one
        ``before_store_batch`` call, flushed before any observation point.

    ``"super"``
        State that cannot change during one superblock run lives in
        Python locals that :mod:`repro.vm.tracecomp` loads in the
        function's prologue and applies once, at the run's exit: guest
        local ``i`` is ``L{i}``; each barrier store appends its undo
        entry ``(container, slot, old)`` to the run-local list ``WB``.
        Nothing is charged in the generated code as it goes: the emitter
        sums the current path's static charge — cycles, instructions,
        logged stores (``SC`` each) and, in a *folded* body, read-barrier
        fast paths (their cycles added in, their hits counted apart) —
        and the trace compiler emits it once, where the path commits or
        leaves.  Every op that can raise registers its *site*: a key
        stored in ``F[0]`` whose table entry holds the pc and the path's
        charge up to and including that op, mirroring the reference's
        charge-before-execute order.  An unfolded body calls ``AL`` at
        every read barrier and adds its result to ``dy``.

        While ``hoist`` is set (the hoisted body,
        :class:`repro.vm.tracecomp._Hoist`), what the loop cannot change
        is read from prologue names: a static the body never stores is
        one load, an invariant array's ``storage`` and length are ``S``
        and ``N`` locals, and ``%`` of a non-negative counter needs no
        type or sign test.  An array access's site key moves into the
        slow arm of its inline guard, since its fast path cannot raise.
    """

    def __init__(self, owner: "_Predecoder", mode: str):
        self.owner = owner
        self.mode = mode
        self.lines: list[str] = []
        self.sym: list[_Sym] = []
        self.indent = 1
        self.tmp = 0
        self.raising = False
        self.dynamic = False
        #: super mode: the current path's charge since its iteration began
        self.pending_cost = 0
        self.pending_count = 0
        self.pending_stores = 0
        self.pending_reads = 0
        #: super mode: read barriers take the inlined fast path (charged
        #: into the path) rather than calling ``AL`` into ``dy``
        self.folded = True
        #: super mode: site key -> (pc, cycles, count, stores, reads) of
        #: every op that can raise, in every body (keys are pcs, plus a
        #: multiple of the method's length for a pc generated again)
        self.sites: dict[int, tuple] = {}
        #: guest local slots the generated code reads or writes / writes
        self.touched: set[int] = set()
        self.written: set[int] = set()
        #: super mode: the code appends to ``WB``
        self.uses_log = False
        #: super mode: the loop facts a hoisted body reads, or None
        self.hoist = None
        #: deferred (container, slot, old_value) expression triples for
        #: the batched write-barrier call
        self.batch: list[tuple[str, str, str]] = []

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

    def local(self, i: int, write: bool = False) -> str:
        """The expression naming guest local ``i``."""
        self.touched.add(i)
        if write:
            self.written.add(i)
        return f"L{i}" if self.mode == "super" else f"locals_[{i}]"

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
        """Add ``ins``'s static cost to the path (superblock mode only;
        block costs are charged by the interpreter from the block
        totals)."""
        if self.mode == "super":
            self.pending_cost += ins.cost
            self.pending_count += 1

    def path_charge(self) -> tuple[int, int, int, int]:
        """The path's ``(cycles, count, stores, reads)`` so far: static
        cycles (folded read barriers included), instructions, logged
        stores whose ``SC`` is still to add, and folded read-barrier
        hits."""
        return (self.pending_cost, self.pending_count, self.pending_stores,
                self.pending_reads)

    def set_path_charge(self, charge: tuple[int, int, int, int]) -> None:
        (self.pending_cost, self.pending_count, self.pending_stores,
         self.pending_reads) = charge

    def start_body(self, folded: bool) -> None:
        """Begin generating one superblock body from an empty path."""
        self.folded = folded
        self.lines = []
        self.indent = 1
        self.set_path_charge((0, 0, 0, 0))

    def flush_batch(self) -> None:
        """Emit the deferred write-barrier batch, in order: one
        ``before_store_batch`` call in a block, appends to the run's
        ``WB`` list (and ``SC`` charges on the path) in a superblock."""
        batch = self.batch
        if not batch:
            return
        records = [", ".join(entry) for entry in batch]
        del batch[:]
        tuples = ", ".join(f"({r})" for r in records)
        if self.mode == "super":
            self.uses_log = True
            self.pending_stores += len(records)
            if len(records) == 1:
                self.emit(f"WB.append({tuples})")
            else:
                self.emit(f"WB += ({tuples})")
            return
        self.dynamic = True
        if len(records) == 1:
            self.emit(f"A[0] += BS(T, {records[0]})")
        else:
            self.emit(f"A[0] += BSB(T, ({tuples}))")

    def barrier_store(self, container: str, slot: str, old: str) -> None:
        self.batch.append((container, slot, old))

    def read_barrier(self, container: str, slot: str) -> None:
        call = f"AL(T, {container}, {slot})"
        cost = self.owner.read_barrier_cost
        if self.mode == "super":
            # A superblock's stores wait in WB for the run's exit, which
            # no read barrier can tell: on_read reports only other
            # threads' records, never the reader's own.  Its guard RG is
            # read once per entry, which picks the body: a folded one
            # charges after_load's fast path to the path and counts its
            # hit there; the other calls AL.
            if self.folded:
                self.pending_cost += cost
                self.pending_reads += 1
            else:
                self.emit(f"dy += {call}")
            return
        # A block flushes its batch to keep jmm write/read ordering exact.
        self.flush_batch()
        self.dynamic = True
        # support.read_barrier_guard(): after_load's fast path, inline
        self.emit("if len(LV) > (T.tid in LV):")
        self.emit(f"    A[0] += {call}")
        self.emit("else:")
        self.emit("    RM.read_barrier_hits += 1")
        self.emit(f"    A[0] += {cost}")

    def set_fault(self, pc: int, defer: bool = False) -> Optional[int]:
        """Mark ``pc`` as the next possible guest-fault site.

        Flushes the barrier batch (the reference has already run those
        barriers when this op raises).  A block stores the pc in
        ``F[0]``; a superblock stores a key of the site, whose charge is
        the path's so far *including this op's own cost* — matching the
        reference's charge-before-execute order.  With ``defer`` the key
        is returned for the caller to store in its slow arm
        (:meth:`slow_fault`)."""
        self.flush_batch()
        self.raising = True
        key = pc
        if self.mode == "super":
            stride = len(self.owner.method.code)
            while key in self.sites:
                key += stride
            self.sites[key] = (pc, *self.path_charge())
        if defer:
            return key
        self.emit(f"F[0] = {key}")
        return None

    # --------------------------------------------------------- fast paths
    def pin(self, e: _Sym, literal_ok: bool = True) -> str:
        """A name (or, with ``literal_ok``, a constant) holding ``e``'s
        value, so an inline guard, its fast path and its slow branch all
        read one evaluation.  Attribute targets must be names:
        ``3.storage`` does not parse."""
        if e.expr.isidentifier() or (literal_ok and e.val is not _NOVAL):
            return e.expr
        t = self.newtmp()
        self.emit(f"{t} = {e.expr}")
        return t

    def ref(self, e: _Sym, cls: str, what: str) -> str:
        """``require_ref`` behind an inline exact-type test: ``RR``
        returns its argument or raises, so it only runs on a miss."""
        t = self.pin(e, literal_ok=False)
        self.emit(f"if type({t}) is not {cls}:")
        self.emit(f"    RR({t}, '{what}')")
        return t

    def array_slot(self, e: _Sym, i: _Sym) -> tuple[str, str, str]:
        """Pin an array and an index and open the inline in-bounds test
        whose ``else`` arm the caller fills with ``.get``/``.put``, which
        raise the guest exception (``storage[-1]`` would not).  Returns
        the array, the index and the expression naming its storage."""
        ta = self.pin(e, literal_ok=False)
        ti = self.pin(i)
        hoisted = self.hoist and self.hoist.array(e)
        if hoisted:
            storage, length = hoisted
            self.emit(f"if 0 <= {ti} < {length}:")
            return ta, ti, storage
        self.emit(f"if type({ta}) is VMA and 0 <= {ti} < len({ta}.storage):")
        return ta, ti, f"{ta}.storage"

    def slow_fault(self, key: Optional[int]) -> None:
        """Store a deferred site key (a hoisted body's) in a slow arm."""
        if key is not None:
            self.emit(f"    F[0] = {key}")

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
            self.push(_Sym(self.local(ins.a), (ins.a,)))
        elif op == bc.STORE:
            fused = bool(self.sym)
            v = self.pop()
            self.spill(ins.a)
            self.emit(f"{self.local(ins.a, write=True)} = {v.expr}")
            if fused:
                owner._bump("alu+store")
        elif op == bc.IINC:
            self.spill(ins.a)
            self.emit(f"{self.local(ins.a, write=True)} += {ins.b}")
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
                if (op == bc.MOD and b_.val > 0 and self.hoist is not None
                        and self.hoist.nonneg(a)):
                    # the entry guard tested the counter's type and sign
                    self.push_tmp(f"{a.expr} % {b_.expr}")
                elif op == bc.MOD and b_.val > 0:
                    # Python and Java agree on a non-negative int dividend
                    ta = self.pin(a)
                    self.push_tmp(
                        f"{ta} % {b_.expr} if type({ta}) is int and "
                        f"{ta} >= 0 else MODP({ta}, {b_.expr})"
                    )
                else:
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
            to = self.ref(o, "VMO", "object")
            name_expr, _ = self.owner._const_expr(ins.a)
            self.push_tmp(f"{to}.get({name_expr})")
            if owner.read_barriers:
                self.read_barrier(to, name_expr)
        elif op == bc.PUTFIELD:
            v = self.pop()
            o = self.pop()
            self.set_fault(pc)
            to = self.ref(o, "VMO", "object")
            name_expr, _ = self.owner._const_expr(ins.a)
            if ins.barrier:
                told = self.newtmp()
                self.emit(f"{told} = {to}.put({name_expr}, {v.expr})")
                self.barrier_store(to, name_expr, told)
            else:
                self.emit(f"{to}.put({name_expr}, {v.expr})")
        elif op == bc.ALOAD:
            idx = self.pop()
            arr = self.pop()
            key = self.set_fault(pc, defer=self.hoist is not None)
            ta, ti, storage = self.array_slot(arr, idx)
            tv = self.newtmp()
            self.emit(f"    {tv} = {storage}[{ti}]")
            self.emit("else:")
            self.slow_fault(key)
            self.emit(f"    {tv} = RR({ta}, 'array').get({ti})")
            self.push(_Sym(tv))
            if owner.read_barriers:
                self.read_barrier(ta, ti)
        elif op == bc.ASTORE:
            v = self.pop()
            idx = self.pop()
            arr = self.pop()
            key = self.set_fault(pc, defer=self.hoist is not None)
            ta, ti, storage = self.array_slot(arr, idx)
            if ins.barrier:
                told = self.newtmp()
                self.emit(f"    {told} = {storage}[{ti}]")
                self.emit(f"    {storage}[{ti}] = {v.expr}")
                self.emit("else:")
                self.slow_fault(key)
                self.emit(
                    f"    {told} = RR({ta}, 'array').put({ti}, {v.expr})"
                )
                self.barrier_store(ta, ti, told)
            else:
                self.emit(f"    {storage}[{ti}] = {v.expr}")
                self.emit("else:")
                self.slow_fault(key)
                self.emit(f"    RR({ta}, 'array').put({ti}, {v.expr})")
        elif op == bc.GETSTATIC:
            hoisted = self.hoist and self.hoist.load(ins.a)
            if hoisted:
                # loaded once per entry, before the entry guard
                name, key_ref = hoisted
                self.push(_Sym(name))
            elif ins.a in owner.statics:
                key_ref = owner._kref(ins.a)
                self.push_tmp(f"ST[{key_ref}]")
            else:
                # the heap's own read raises the reference's LinkError,
                # after the stores the reference has logged by then
                key_ref = owner._kref(ins.a)
                self.flush_batch()
                self.push_tmp(f"GS({key_ref})")
            if owner.read_barriers:
                self.read_barrier(key_ref, f"{key_ref}[1]")
        elif op == bc.PUTSTATIC:
            v = self.pop()
            key_ref = owner._kref(ins.a)
            if ins.a not in owner.statics:
                # as GETSTATIC: the heap's own store raises
                self.flush_batch()
                self.emit(f"PS({key_ref}, {v.expr})")
            elif ins.barrier:
                told = self.newtmp()
                self.emit(f"{told} = ST[{key_ref}]")
                self.emit(f"ST[{key_ref}] = {v.expr}")
                self.barrier_store(key_ref, f"{key_ref}[1]", told)
            else:
                self.emit(f"ST[{key_ref}] = {v.expr}")
        elif op == bc.ARRAYLEN:
            arr = self.pop()
            hoisted = self.hoist and self.hoist.array(arr)
            if hoisted:
                self.push(_Sym(hoisted[1]))  # the length the guard bound
                return
            self.set_fault(pc)
            ta = self.ref(arr, "VMA", "array")
            self.push_tmp(f"len({ta})")
        elif op == bc.NEW:
            name_expr, _ = owner._const_expr(ins.a)
            self.push_tmp(f"ALLOC(CDEF({name_expr}))")
        elif op == bc.NEWARRAY:
            length = self.pop()
            self.set_fault(pc)
            fill_expr, _ = owner._const_expr(ins.a)
            self.push_tmp(f"NEWA({length.expr}, {fill_expr})")
        elif op == bc.CLASSREF:
            name_expr, _ = owner._const_expr(ins.a)
            self.push_tmp(f"CLSO({name_expr})")
        else:  # pragma: no cover - drivers filter non-fusable ops
            raise AssertionError(f"non-fusable op {op} in run")


# -------------------------------------------------------------- compiler
@functools.lru_cache(maxsize=512)
def _module_code(module: str, filename: str):
    """One code object per generated module per process.

    Keyed by the full source text, so any change that reaches the source
    (the method's code, a baked-in literal such as the quantum or the
    read-barrier cost, or whether the VM has a cycle cap at all)
    compiles afresh, and by the filename, so a traceback names the
    method that ran.  The cap's value is not in the source: superblocks
    read it from the namespace (``MAXC``).  Code objects are immutable
    and carry no per-VM state: every VM's objects live in its namespace.
    """
    return compile(module, filename, "exec")


class MethodTemplate:
    """The VM-independent predecode result of one method.

    Blocks and superblocks with their functions unbound, the superinstruction
    counts, the code object of the generated module (None when nothing
    fused) and its constant pool ``K`` (read-only at run time).  Kept by
    the :class:`~repro.vm.vmcore.ProgramImage`.
    """

    __slots__ = ("blocks", "superblocks", "stats", "code", "consts")

    def __init__(self, blocks, superblocks, stats, code, consts):
        self.blocks = blocks
        self.superblocks = superblocks
        self.stats = stats
        self.code = code
        self.consts = consts

    def instantiate(self, vm, method: MethodDef) -> DecodedMethod:
        """Exec the code into a fresh namespace bound to ``vm``; the
        result shares only immutable parts with the template."""
        ns: dict = {}
        if self.code is not None:
            interp = vm.interpreter
            if interp.namespace is None:
                interp.namespace = vm_namespace(vm)
            ns = dict(interp.namespace, K=self.consts)
            exec(self.code, ns)
        blocks = [b if b is None else b.bound(ns[f"_b{b.start}"])
                  for b in self.blocks]
        supers = [s if s is None else s.bound(ns[f"_s{s.anchor}"])
                  for s in self.superblocks]
        return DecodedMethod(method, blocks, dict(self.stats), supers)


def vm_namespace(vm) -> dict:
    """The globals generated code reads, bound to ``vm``'s heap, support,
    clock, profiler and cycle cap (each method adds its own ``K``)."""
    heap = vm.heap
    support = vm.support

    def _newarray(length, fill):
        if not isinstance(length, int) or length < 0:
            raise GuestRuntimeError(
                f"negative array size {length}",
                guest_class="NegativeArraySizeException",
            )
        return heap.allocate_array(length, fill)

    ns = {
        "__builtins__": {},
        "len": len,
        "type": type,
        "int": int,
        "VMO": VMObject,
        "VMA": VMArray,
        "ST": heap.statics,
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
        "ALLOC": heap.allocate,
        "NEWA": _newarray,
        "CLSO": heap.class_object,
        "CDEF": vm.classdef,
        "AL": support.after_load,
        "BS": support.before_store,
        "BSB": support.before_store_batch,
        "SBC": support.store_barrier_cost,
        "CLK": vm.clock,
        "PROF": vm.profiler,
        "MAXC": vm.options.max_cycles,
        "min": min,
        "max": max,
        "range": range,
        "SERR": StarvationError,
        "GRE": GuestRuntimeError,
    }
    if vm.image.modified:
        ns["LV"], ns["RM"] = support.read_barrier_guard()
    return ns


def build_template(method: MethodDef, image) -> MethodTemplate:
    """Generate and compile ``method``'s template under ``image``'s
    inputs."""
    return _Predecoder(method, image).build()


class _Predecoder:
    """Compiles one method's fusable runs into block functions and its
    eligible loops into superblocks, in one module-level compile."""

    def __init__(self, method: MethodDef, image):
        self.method = method
        #: a modified image: every heap load runs a read barrier, whose
        #: fast path (``read_barrier_cost`` cycles) is inlined
        self.read_barriers = image.modified
        cm = image.cost_model
        self.read_barrier_cost = cm.read_barrier
        #: the quantum the superblock guards bake in as a literal, and
        #: whether they test a cycle cap (its value is the VM's ``MAXC``)
        self.quantum = cm.quantum
        self.capped = image.capped
        #: static keys generated code may index ``ST`` with directly
        self.statics = image.statics
        self.consts: list[Any] = []   # K: constant pool (a tuple once built)
        self.stats: dict[str, int] = {}

    def build(self) -> MethodTemplate:
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
        # shares one constant pool.  The code object is shared
        # process-wide (_module_code); each VM execs it into its own
        # namespace (MethodTemplate.instantiate).
        sources = [b.source for b in blocks if b is not None]
        sources.extend(s.source for s in superblocks if s is not None)
        code = None
        if sources:
            module = "\n".join(sources)
            filename = f"<decoded {method.qualified_name()}>"
            code = _module_code(module, filename)
        return MethodTemplate(blocks, superblocks, self.stats, code,
                              tuple(self.consts))

    # ---------------------------------------------------------- plumbing
    def _kref(self, value: Any) -> str:
        self.consts.append(value)
        return f"K[{len(self.consts) - 1}]"

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
