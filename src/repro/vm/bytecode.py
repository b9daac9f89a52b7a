"""The instruction set of the simulated VM.

A deliberately JVM-flavoured, stack-based bytecode.  Instructions are small
records (``op`` plus up to three generic operands ``a``/``b``/``c``); the
interpreter dispatches on the integer ``op``.  Two extra slots are resolved
at link time for speed and for the paper's mechanisms:

``cost``
    virtual cycles charged when the instruction executes (from the active
    :class:`repro.vm.clock.CostModel`);

``ypoint``
    True when the instruction is a *yield point*.  Jikes RVM inserts yield
    points on loop back-edges and method prologues; our linker marks
    backward branches and ``INVOKE`` the same way.  Context switches and
    revocation delivery happen **only** at yield points (paper §3.1, §4).

``barrier``
    on store instructions: True when the transformer decided this store
    needs a write barrier (paper §1: "all compiled code needs at least a
    fast-path test on every non-local update").  Untransformed code has no
    barriers, matching the unmodified VM.

Operand conventions are documented per opcode in :data:`SPEC`.
"""

from __future__ import annotations

from typing import Any

# --- opcode numbering -------------------------------------------------------
# Hot opcodes get low numbers; the interpreter's dispatch chain tests them
# roughly in this order.

NOP = 0
CONST = 1
LOAD = 2
STORE = 3
IINC = 4
DUP = 5
POP = 6
SWAP = 7

ADD = 10
SUB = 11
MUL = 12
DIV = 13
MOD = 14
NEG = 15
AND = 16
OR = 17
XOR = 18
SHL = 19
SHR = 20
NOT = 21

EQ = 25
NE = 26
LT = 27
LE = 28
GT = 29
GE = 30

GOTO = 35
IF = 36
IFNOT = 37

NEW = 40
NEWARRAY = 41
GETFIELD = 42
PUTFIELD = 43
GETSTATIC = 44
PUTSTATIC = 45
ALOAD = 46
ASTORE = 47
ARRAYLEN = 48
CLASSREF = 49

MONITORENTER = 50
MONITOREXIT = 51

INVOKE = 55
NATIVE = 56
RETURN = 57
ATHROW = 58

WAIT = 60
TIMED_WAIT = 61
NOTIFY = 62
NOTIFYALL = 63
SLEEP = 64
YIELD = 65
PAUSE = 66

TIME = 70
TID = 71
RAND = 72
DEBUG = 73

SAVESTATE = 80
RESTORESTATE = 81
ROLLBACK_HANDLER = 82

_MAX_OP = 90


# (mnemonic, stack_pops, stack_pushes, operand docs)
SPEC: dict[int, tuple[str, int, int, str]] = {
    NOP: ("nop", 0, 0, ""),
    CONST: ("const", 0, 1, "a=value"),
    LOAD: ("load", 0, 1, "a=local index"),
    STORE: ("store", 1, 0, "a=local index"),
    IINC: ("iinc", 0, 0, "a=local index, b=delta"),
    DUP: ("dup", 1, 2, ""),
    POP: ("pop", 1, 0, ""),
    SWAP: ("swap", 2, 2, ""),
    ADD: ("add", 2, 1, ""),
    SUB: ("sub", 2, 1, ""),
    MUL: ("mul", 2, 1, ""),
    DIV: ("div", 2, 1, "guest ArithmeticException on zero divisor"),
    MOD: ("mod", 2, 1, "guest ArithmeticException on zero divisor"),
    NEG: ("neg", 1, 1, ""),
    AND: ("and", 2, 1, ""),
    OR: ("or", 2, 1, ""),
    XOR: ("xor", 2, 1, ""),
    SHL: ("shl", 2, 1, ""),
    SHR: ("shr", 2, 1, ""),
    NOT: ("not", 1, 1, "logical: pushes 1 if popped value is falsy"),
    EQ: ("eq", 2, 1, ""),
    NE: ("ne", 2, 1, ""),
    LT: ("lt", 2, 1, ""),
    LE: ("le", 2, 1, ""),
    GT: ("gt", 2, 1, ""),
    GE: ("ge", 2, 1, ""),
    GOTO: ("goto", 0, 0, "a=target pc"),
    IF: ("if", 1, 0, "a=target pc; jump when popped value is truthy"),
    IFNOT: ("ifnot", 1, 0, "a=target pc; jump when popped value is falsy"),
    NEW: ("new", 0, 1, "a=class name (c=resolved ClassDef)"),
    NEWARRAY: ("newarray", 1, 1, "pop length; a=fill value"),
    GETFIELD: ("getfield", 1, 1, "pop ref; a=field name (c=resolved FieldDef)"),
    PUTFIELD: ("putfield", 2, 0, "pop value, ref; a=field name"),
    GETSTATIC: ("getstatic", 0, 1, "a=(class, field) (c=resolved slot)"),
    PUTSTATIC: ("putstatic", 1, 0, "pop value; a=(class, field)"),
    ALOAD: ("aload", 2, 1, "pop index, arrayref"),
    ASTORE: ("astore", 3, 0, "pop value, index, arrayref"),
    ARRAYLEN: ("arraylen", 1, 1, "pop arrayref"),
    CLASSREF: ("classref", 0, 1, "a=class name; push the Class object"),
    MONITORENTER: ("monitorenter", 1, 0, "pop ref; a=sync id"),
    MONITOREXIT: ("monitorexit", 1, 0, "pop ref; a=sync id"),
    INVOKE: ("invoke", -1, -1, "a=(class, method), b=argc (c=resolved MethodDef)"),
    NATIVE: ("native", -1, -1, "a=native name, b=argc (c=resolved fn)"),
    RETURN: ("return", -1, 0, "a=1 when returning a value"),
    ATHROW: ("athrow", 1, 0, "pop guest exception ref"),
    WAIT: ("wait", 1, 0, "pop ref (must own its monitor)"),
    TIMED_WAIT: ("timed_wait", 2, 0, "pop timeout cycles, ref"),
    NOTIFY: ("notify", 1, 0, "pop ref"),
    NOTIFYALL: ("notifyall", 1, 0, "pop ref"),
    SLEEP: ("sleep", 1, 0, "pop cycles"),
    YIELD: ("yield", 0, 0, "voluntary yield point"),
    PAUSE: ("pause", 0, 0, "a=mean cycles; sleep uniform [0, 2*mean]"),
    TIME: ("time", 0, 1, "push current virtual time"),
    TID: ("tid", 0, 1, "push current guest thread id"),
    RAND: ("rand", 0, 1, "a=bound; push uniform int in [0, bound)"),
    DEBUG: ("debug", 0, 0, "a=tag; emits a trace event, zero cost"),
    SAVESTATE: ("savestate", 0, 0, "a=state slot; snapshot stack+locals"),
    RESTORESTATE: ("restorestate", 0, 0, "a=state slot"),
    ROLLBACK_HANDLER: (
        "rollback_handler",
        0,
        0,
        "a=state slot, b=resume pc; injected by the transformer",
    ),
}


def mnemonic(op: int) -> str:
    """Human-readable name of an opcode."""
    try:
        return SPEC[op][0]
    except KeyError:
        raise ValueError(f"unknown opcode {op}") from None


_BRANCH_OPS = frozenset({GOTO, IF, IFNOT})
_STORE_OPS = frozenset({PUTFIELD, PUTSTATIC, ASTORE})


def is_branch(op: int) -> bool:
    """True for instructions whose ``a`` operand is a pc target."""
    return op in _BRANCH_OPS


def is_store(op: int) -> bool:
    """True for heap-mutating stores (write-barrier candidates)."""
    return op in _STORE_OPS


def is_backward_branch(ins: "Instruction", pc: int) -> bool:
    """True when ``ins`` at ``pc`` is a resolved branch to ``pc`` or
    earlier.  The linker marks exactly these as yield points (loop
    back-edges), and the trace compiler anchors superblocks on the
    unconditional ones."""
    return ins.op in _BRANCH_OPS and isinstance(ins.a, int) and ins.a <= pc


# --- predecode classification ------------------------------------------------
# The interpreter's predecode tier (repro.vm.predecode) fuses
# straight-line runs of these opcodes into compiled basic-block
# superinstructions.  An opcode is fusable only when executing it can never
# flush the virtual clock, park or switch the thread, or emit a trace event:
# those interactions must keep happening at the exact program points the
# reference interpreter uses, or clock/trace parity breaks.

#: Pure operand-stack/local ops: no VM interaction, cannot raise guest errors.
FUSABLE_PURE = frozenset({
    NOP, CONST, LOAD, STORE, IINC, DUP, POP, SWAP,
    ADD, SUB, MUL, NEG, AND, OR, XOR, SHL, SHR, NOT,
    EQ, NE, LT, LE, GT, GE, TID,
})

#: Fusable but may raise a guest ArithmeticException (zero divisor).
FUSABLE_ARITH_RAISING = frozenset({DIV, MOD})

#: Heap ops: fusable via the same heap/support seams the fallback chain
#: uses.  Fused heap ops emit no ``mem_read``/``mem_write`` events, which
#: is why ``trace_memory`` turns the whole predecode tier off.
FUSABLE_HEAP = frozenset({
    NEW, NEWARRAY, GETFIELD, PUTFIELD, GETSTATIC, PUTSTATIC,
    ALOAD, ASTORE, ARRAYLEN, CLASSREF,
})

#: Branches terminate a block; only *forward* branches (non-yield-points)
#: may be fused — backward branches are yield points by construction.
FUSABLE_BRANCH = _BRANCH_OPS

FUSABLE_OPS = (
    FUSABLE_PURE | FUSABLE_ARITH_RAISING | FUSABLE_HEAP | FUSABLE_BRANCH
)


class Instruction:
    """One bytecode instruction.

    ``a``/``b`` are assembly-time operands; ``c`` holds the link-time
    resolution (a :class:`~repro.vm.classfile.FieldDef`, ``(class, field)``
    static key, :class:`~repro.vm.classfile.MethodDef`, or native callable).
    """

    __slots__ = ("op", "a", "b", "c", "cost", "ypoint", "barrier")

    def __init__(self, op: int, a: Any = None, b: Any = None):
        if op not in SPEC:
            raise ValueError(f"unknown opcode {op}")
        self.op = op
        self.a = a
        self.b = b
        self.c: Any = None
        self.cost = 1
        self.ypoint = False
        self.barrier = False

    def copy(self) -> "Instruction":
        """Deep-enough copy for the transformer (``c`` is re-resolved)."""
        ins = Instruction(self.op, self.a, self.b)
        ins.c = self.c
        ins.cost = self.cost
        ins.ypoint = self.ypoint
        ins.barrier = self.barrier
        return ins

    def __repr__(self) -> str:
        name = mnemonic(self.op)
        parts = [name]
        if self.a is not None:
            parts.append(repr(self.a))
        if self.b is not None:
            parts.append(repr(self.b))
        if self.barrier:
            parts.append("[barrier]")
        if self.ypoint:
            parts.append("[yp]")
        return " ".join(parts)


def disassemble(code: list[Instruction]) -> str:
    """Pretty-print a method body, one instruction per line with pcs."""
    width = len(str(max(len(code) - 1, 0)))
    return "\n".join(f"{pc:>{width}}: {ins!r}" for pc, ins in enumerate(code))
