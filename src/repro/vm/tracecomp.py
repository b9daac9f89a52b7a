"""Superblock trace compilation: whole loop iterations per Python call.

Predecoded basic blocks (:mod:`repro.vm.predecode`) stop at every yield
point, so a hot guest loop still pays one trip through the interpreter's
yield-point machinery — clock flush, starvation check, revocation poll,
fault probe, preemption test — per iteration, plus one Python call per
basic block of the body.  This module compiles eligible loops into
*superblocks*: one generated function that runs iterations back to back,
hoisting the yield-point checks into a guard-and-commit protocol.

Eligibility and anchoring
-------------------------

A superblock is anchored at a backward unconditional ``GOTO`` yield point
``t -> h`` (a loop back-edge; see
:func:`repro.vm.bytecode.is_backward_branch`) whose whole body ``[h, t)``
is fusable (:func:`repro.vm.predecode._fusable`): no yield points, no
parking/trace-emitting ops.
Backward branches are yield points by construction, so the body contains
only *forward* control flow, which the structurizer lowers to nested
``if`` statements; anything it cannot prove structured
(:class:`_Unstructured`) simply stays un-fused — superblock coverage,
like block coverage, can only affect speed, never behaviour.

The guard-and-commit protocol
-----------------------------

The interpreter enters a superblock from the anchor's yield point
*after* the inlined flush and checks have all passed (so the unflushed
accumulators are zero), and only when every hoisted check is provably
constant for the duration of the run:

* ``thread.revocation_request is None`` — revocation requests are posted
  by other threads, which cannot run during this thread's slice
  (deterministic uniprocessor), so "no request now" means "no request
  until we return";
* the fault plane is absent or :meth:`~repro.faults.plane.FaultPlane.
  yield_quiet` — its yield-point probe is a pure no-op (no RNG draw, no
  injection), so skipping it is unobservable;
* preemption inputs are constants: ``preempt_requested`` can only be set
  by code this thread runs (none inside a loop body), and the sleeper
  queue cannot change (no parking ops in the body), so the pending wake
  time ``PW`` is read once at entry.

The cycle profiler needs no guard: it books clock time at context
changes, which a run never makes, and a run's one ``on_flush`` of its
completed iterations equals their per-iteration flushes because a run
never leaves its frame.

Three more things are constant for a run, and the generated function
reads them once, in its prologue:

* the read-barrier guard ``RG = len(LV) > (T.tid in LV)`` ("does another
  thread hold live speculative records?").  Only the thread's own
  barrier stores could change ``LV``, and those are deferred to the exit
  (below); ``JmmTracker.on_read`` reports only *other* threads' records
  anyway, so the deferral cannot change what a read barrier sees;
* the per-store barrier charge ``SC = support.store_barrier_cost(T)``,
  which depends only on whether the thread is inside a synchronized
  section — and the body has no monitor op, so ``T.sections`` is fixed.
* the cycles left before the VM's cap, ``ML = MAXC - n0``, when the
  program has one.  ``MAXC`` is the VM's own ``max_cycles``, bound in
  its namespace, not a literal: the source says only whether a cap
  exists, so VMs with different caps share one image and one code
  object.

The prologue also loads every guest local the body touches into a Python
local ``L{i}``.  The body then keeps three kinds of state in locals and
applies each once, at the exit: the guest locals it writes; the
read-barrier fast-path hit count ``rh``; and its logged stores, each
appended as its undo entry ``(container, slot, old)`` to the list ``WB``
and charged ``SC`` on the spot.  Nothing observes the deferred state before
the exit: no other thread runs, and the tracer, undo logs, metrics and
clock are read only after the run returns.

Inside the generated function each iteration charges the back-edge and
the executed body exactly as the reference interpreter would, then
*commits* the iteration — ``dn += acc; de += 1`` — and re-evaluates the
hoisted checks: the cap as ``dn > ML``, the quantum against a literal
baked at compile time.  Every exit leaves through one ``finally`` arm,
which writes the guest locals back to the frame in one tuple assignment,
passes ``WB`` to ``support.before_store_batch`` in one call, adds ``rh``
to ``metrics.read_barrier_hits``, flushes the completed iterations to
the profiler ``PROF`` (bound to None when profiling is off, so profiled
and unprofiled VMs share one generated source), and folds the
accumulated cycles and flush-event count into the clock in one
:meth:`Clock.commit_batch` call plus the three thread mirrors —
byte-identical (clock value *and* event count, profile tables too) to
the per-iteration flushes the reference performs.

Exits:

* **preemption / due wake-up** — ``return -1``; the dispatcher parks the
  frame at the anchor pc exactly like the inline check;
* **starvation** — raise :class:`~repro.errors.StarvationError` (not a
  guest error: it passes through every guest handler, as in the
  reference);
* **branch out of the loop** — the *completed* iterations commit; the
  partial iteration's unflushed ``acc``/``ic`` go back through the
  ``A`` cells and the function returns the target pc, where normal
  dispatch continues accumulating;
* **guest exception** — completed iterations commit; the partial
  accumulators (cost model: charge-before-execute, so the faulting op is
  included) go back through ``A`` and the faulting pc through ``F[0]``;
  the dispatcher re-raises into the reference's exception path.

Static costs are charged lazily at code-generation time: a pending
(cost, count) pair, plus the ``SC`` charges of pending stores, accrues
per emitted instruction and is flushed into the ``acc``/``ic`` locals
before any op that can raise, at control-flow splits, and at iteration
boundaries — so the locals equal the reference's unflushed accumulators
at every observable escape point without per-instruction arithmetic in
the common case.  An iteration's first flush assigns ``acc``/``ic``
instead of zeroing and then adding.
"""

from __future__ import annotations

from typing import Optional

from repro.vm import bytecode as bc
from repro.vm.predecode import _CMP_EXPR, _Emitter, _fusable


def _assign(targets: list[str], values: list[str]) -> str:
    """One assignment statement, a tuple assignment for several names."""
    return f"{', '.join(targets)} = {', '.join(values)}"


class _Unstructured(Exception):
    """Loop body control flow the structurizer cannot lower; not an
    error — the loop just stays block-at-a-time."""


class SuperBlock:
    """A compiled loop trace anchored at one backward-GOTO yield point."""

    __slots__ = ("anchor", "head", "fn", "source")

    def __init__(self, anchor: int, head: int, fn, source: str):
        #: pc of the backward GOTO the trace is entered from
        self.anchor = anchor
        #: loop header (the GOTO's target); iterations run [head, anchor)
        self.head = head
        #: ``fn(stack, locals_, F, A, T, PW) -> exit pc | -1`` (bound by
        #: the method-level compile)
        self.fn = fn
        self.source = source

    def bound(self, fn) -> "SuperBlock":
        """This superblock with ``fn`` bound, for one VM."""
        return SuperBlock(self.anchor, self.head, fn, self.source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SuperBlock @{self.anchor} loop [{self.head},{self.anchor})>"


def find_regions(pre) -> list[tuple[int, int]]:
    """Candidate loops ``(head, anchor)``: a backward-GOTO yield point
    whose whole body is fusable."""
    code = pre.method.code
    out = []
    for t, ins in enumerate(code):
        if ins.op != bc.GOTO or not ins.ypoint:
            continue
        if not isinstance(ins.a, int) or ins.a >= t:
            continue  # unresolved or degenerate (empty) self-loop
        head = ins.a
        if all(_fusable(code[pc]) for pc in range(head, t)):
            out.append((head, t))
    return out


def compile_superblocks(pre) -> list[SuperBlock]:
    """Compile every structurizable candidate loop of ``pre.method``."""
    out = []
    for head, anchor in find_regions(pre):
        try:
            out.append(_SuperCompiler(pre, head, anchor).compile())
        except _Unstructured:
            continue
    return out


class _SuperCompiler:
    """Lower one loop body to a generated iteration-batching function."""

    def __init__(self, pre, head: int, anchor: int):
        self.pre = pre
        self.code = pre.method.code
        self.head = head
        self.anchor = anchor
        self.em = _Emitter(pre, "super")
        self.quantum = pre.quantum
        self.capped = pre.capped

    # ------------------------------------------------------------ framework
    def compile(self) -> SuperBlock:
        em = self.em
        em.indent = 3  # def > try > while
        em.fresh = True
        # every iteration charges the back-edge GOTO first (the reference
        # charges it when dispatching the anchor, before the body runs)
        em.charge(self.code[self.anchor])
        self._gen(self.head, self.anchor)
        em.flush_batch()
        em.flush_charges()
        em.flush_stack()
        em.emit("dn += acc")
        em.emit("de += 1")
        em.emit("di += ic")
        if self.capped:
            em.emit("if dn > ML:")
            em.emit("    raise SERR(MAXC)")
        em.emit(f"if qu + dn >= {self.quantum} or PW <= n0 + dn:")
        em.emit("    return -1")

        # The prologue loads the run's invariants; the ``finally`` arm is
        # the one exit path every return and raise leaves through.
        touched = sorted(em.touched)
        written = sorted(em.written)
        head = []
        if touched:
            head.append(_assign([f"L{i}" for i in touched],
                                [f"locals_[{i}]" for i in touched]))
        head += ["n0 = CLK.now", "qu = T.quantum_used", "dn = de = di = 0"]
        if self.capped:
            head.append("ML = MAXC - n0")
        if em.uses_guard:
            head += ["RG = len(LV) > (T.tid in LV)", "rh = 0"]
        if em.uses_log:
            head += ["WB = []", "SC = SBC(T)"]
        tail = []
        if written:
            tail.append(_assign([f"locals_[{i}]" for i in written],
                                [f"L{i}" for i in written]))
        if em.uses_log:
            tail += ["if WB:", "    BSB(T, WB)"]
        if em.uses_guard:
            tail.append("RM.read_barrier_hits += rh")
        # PROF is the VM's profiler or None: every VM, profiled or not,
        # runs this same source (one _module_code entry).  A run never
        # leaves its frame, so one flush of the completed iterations
        # equals their per-iteration flushes.
        tail += [
            "if PROF is not None and (dn or di):",
            "    PROF.on_flush(T, T.frames[-1], dn, di)",
            "CLK.commit_batch(dn, de)",
            "T.cycles_executed += dn",
            "T.quantum_used += dn",
            "T.instructions_executed += di",
        ]
        lines = [f"    {line}" for line in head]
        lines += ["    try:", "        while True:"]
        lines += em.lines
        lines += ["    except GRE:", "        A[0] = acc", "        A[1] = ic",
                  "        raise", "    finally:"]
        lines += [f"        {line}" for line in tail]

        name = f"_s{self.anchor}"
        body = "\n".join(lines)
        source = f"def {name}(stack, locals_, F, A, T, PW):\n{body}\n"
        return SuperBlock(self.anchor, self.head, None, source)

    def _exit(self, target: int) -> None:
        """Leave the trace mid-iteration for ``target`` (outside the
        loop): hand the partial iteration's accumulators to the
        dispatcher; the ``finally`` arm commits completed iterations."""
        em = self.em
        em.flush_batch()
        em.flush_charges()
        em.flush_stack()
        em.emit("A[0] = acc")
        em.emit("A[1] = ic")
        em.emit(f"return {target}")

    def _arm(self, header: str, body) -> None:
        """Emit ``header``, generate ``body`` indented under it, and close
        the arm with the batch/charge/stack flushes a join requires."""
        em = self.em
        em.flush_batch()
        em.flush_charges()
        em.flush_stack()
        em.emit(header)
        em.indent += 1
        before = len(em.lines)
        body()
        em.flush_batch()
        em.flush_charges()
        em.flush_stack()
        if len(em.lines) == before:
            em.emit("pass")  # e.g. an arm of only zero-pending charges
        em.indent -= 1

    def _outside(self, target: int) -> bool:
        """True when ``target`` leaves the loop region entirely."""
        return target < self.head or target > self.anchor

    # ------------------------------------------------------------- lowering
    def _gen(self, lo: int, hi: int) -> None:
        """Lower ``[lo, hi)``; control falls off the end into the caller's
        continuation (the loop back-edge when ``hi == anchor``)."""
        em = self.em
        code = self.code
        pc = lo
        while pc < hi:
            ins = code[pc]
            op = ins.op

            if op in _CMP_EXPR or op == bc.EQ or op == bc.NE:
                nxt = code[pc + 1] if pc + 1 < hi else None
                if nxt is not None and nxt.op in (bc.IF, bc.IFNOT):
                    em.charge(ins)
                    em.charge(nxt)
                    b_ = em.pop()
                    a = em.pop()
                    if op in _CMP_EXPR:
                        cond = f"({a.expr}) {_CMP_EXPR[op]} ({b_.expr})"
                        negated = False
                    else:
                        cond = f"GEQ({a.expr}, {b_.expr})"
                        negated = op == bc.NE
                    if negated:
                        cond = f"not {cond}"
                    self.pre._bump("cmp+branch")
                    self._branch(pc + 1, nxt, cond, hi)
                    return
                em.charge(ins)
                em.emit_op(pc, ins)
            elif op == bc.IF or op == bc.IFNOT:
                em.charge(ins)
                v = em.pop()
                self._branch(pc, ins, v.expr, hi)
                return
            elif op == bc.GOTO:
                g = ins.a
                if g == hi and pc + 1 == hi:
                    em.charge(ins)
                    return  # jump to the join the caller generates next
                if self._outside(g) and pc + 1 == hi:
                    em.charge(ins)
                    self._exit(g)
                    return
                # a join-skipping GOTO with trailing code, or a forward
                # jump into the middle of the region: the trailing code
                # may be a branch target this linear lowering cannot
                # represent — leave the loop un-fused.
                raise _Unstructured
            else:
                em.charge(ins)
                em.emit_op(pc, ins)
            pc += 1

    def _branch(self, bpc: int, ins, cond: str, hi: int) -> None:
        """Lower a forward IF/IFNOT at ``bpc`` (condition already popped;
        its cost already charged)."""
        code = self.code
        L = ins.a
        f = bpc + 1
        taken = cond if ins.op == bc.IF else f"not ({cond})"
        nottaken = f"not ({cond})" if ins.op == bc.IF else cond

        if L == f:
            # degenerate branch to its own fall-through: no split
            self._gen(f, hi)
            return
        if L == hi:
            # if_then: the taken path jumps straight to the join
            self._arm(f"if {nottaken}:", lambda: self._gen(f, hi))
            return
        if self._outside(L):
            # loop exit on the taken path; fall-through stays in the body
            self._arm(f"if {taken}:", lambda: self._exit(L))
            self._gen(f, hi)
            return
        if f < L < hi:
            prev = code[L - 1]
            if (prev.op == bc.GOTO and isinstance(prev.a, int)
                    and L < prev.a <= hi):
                # diamond: else-arm [f, L-1) ends in GOTO join; then-arm
                # [L, J); both meet at J
                J = prev.a

                def else_arm() -> None:
                    self._gen(f, L - 1)
                    self.em.charge(prev)  # the join-skipping GOTO

                self._arm(f"if {taken}:", lambda: self._gen(L, J))
                self._arm("else:", else_arm)
                self._gen(J, hi)
                return
            # one-armed skip: taken jumps over [f, L)
            self._arm(f"if {nottaken}:", lambda: self._gen(f, L))
            self._gen(L, hi)
            return
        raise _Unstructured
