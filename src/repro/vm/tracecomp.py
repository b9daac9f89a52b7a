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
  time ``PW`` is read once, by the interpreter's yield point, and passed
  in.

The cycle profiler needs no guard: it books clock time at context
changes, which a run never makes, and a run's one ``on_flush`` of its
completed iterations equals their per-iteration flushes because a run
never leaves its frame.

More is constant for a run, and the generated function reads it once,
in its prologue:

* the read-barrier guard ``len(LV) > (T.tid in LV)`` ("does another
  thread hold live speculative records?").  Only the thread's own
  barrier stores could change ``LV``, and those are deferred to the exit
  (below); ``JmmTracker.on_read`` reports only *other* threads' records
  anyway, so the deferral cannot change what a read barrier sees.  When
  it holds, the entry declines (below): the body assumes every read
  barrier takes ``after_load``'s fast path;
* the per-store barrier charge ``SC = support.store_barrier_cost(T)``,
  which depends only on whether the thread is inside a synchronized
  section — and the body has no monitor op, so ``T.sections`` is fixed;
* the exit bound ``B``: the cycles this run may commit before an
  iteration end must stop it — ``min(quantum - T.quantum_used, PW - n0)``
  and, when the program has a cycle cap, ``ML + 1`` with
  ``ML = MAXC - n0``.  ``MAXC`` is the VM's own ``max_cycles``, bound in
  its namespace, not a literal: the source says only whether a cap
  exists, so VMs with different caps share one image and one code
  object.

The prologue also loads every guest local the body touches into a Python
local ``L{i}``.  The body keeps three kinds of state in locals and
applies each once, at the exit: the guest locals it writes; the
read-barrier fast-path hit count ``rh``; and its logged stores, each
appended as its undo entry ``(container, slot, old)`` to the list
``WB``.  Nothing observes the deferred state before the exit: no other
thread runs, and the tracer, undo logs, metrics and clock are read only
after the run returns.

Hoisting
--------

No other thread runs until the back-edge's yield point returns control
(the paper's yield-point model), so much of what an iteration checks is
fixed for the whole run.  A per-loop analysis (:class:`_Hoist`) finds:

* *counters*: locals the body writes only by a positive int step —
  ``IINC``, or ``L = L + c`` (``LOAD L; CONST c; ADD; STORE L``, the form
  :mod:`repro.lang` compiles ``i = i + step`` to) — and locals it never
  writes.  One that enters as a non-negative int stays one;
* statics the body reads and never ``PUTSTATIC``s;
* array references loaded from such statics or held in locals the body
  never writes.

The body relies on them: each such static is loaded once (``G{n}``),
each invariant array's ``storage`` and length bound once (``S{n}``,
``N{n}``), and ``%`` of a counter by a positive constant is a bare
``%``.  One entry guard tests what the body relies on — ``type(L) is
int and L >= 0`` per counter, ``type(a) is VMA`` per array, and
``type(B) is int`` for ``range``.  An array access's fast path cannot
raise, so its ``F[0]`` store moves into the slow arm.

Declining an entry
------------------

The body is generated once, and an entry it cannot run exactly
*declines*: when the read-barrier guard holds, or when the entry guard
fails.  A declined entry touches no state.  Before its ``try`` it
returns the loop head with ``A[0]`` set to the back-edge ``GOTO``'s cost
and ``A[1] = 1`` — what the chain has charged at the anchor — so the
dispatcher's branch-out arm carries on through the blocks, which never
span a yield point and so call ``after_load`` with the clock exactly
where the reference has it.

Charging: one constant per path, strip-mined
--------------------------------------------

Every cost an iteration pays is fixed by the path it takes through the
body.  The structurizer therefore lowers each path separately: code
after a join is generated again inside every arm that reaches it (tail
duplication), so each ``if`` arm runs to its own iteration end, and the
static charge of a path — read-barrier fast paths included — is summed
while the code is generated: ``c`` cycles, a literal, or a prologue
local ``P{c}_{s} = c + s * SC`` when the path logs ``s`` stores; ``i``
instructions; ``r`` read-barrier hits.  A body whose paths would exceed
:data:`MAX_PATHS` stays un-fused.

The body is *strip-mined*.  A stretch runs ``k = (B - dn) // CM or 1``
iterations in ``for _ in range(k)``, where ``CM`` is the largest path
charge (``SC`` included; a ``max`` when no path out-charges the others
in both cycles and stores).  Each iteration ends in one ``q{p} += 1``
for its path, with no bound test: after ``j < k`` iterations ``dn`` has
grown by at most ``j * CM <= B - dn0 - CM``, so only a stretch's last
iteration can reach ``B``.  After the stretch one commit adds ``dn +=
Σ c_p·q_p`` (``di`` and ``rh`` alike) and ``de += k``, zeroes the
counters, and makes one comparison, ``dn >= B``.  Only when that trips
does the run tell starvation (``dn > ML``: raise ``SERR``) from
preemption (``return -1``), in the reference's order.  ``B > 0`` at
every entry (the yield point has just found the quantum, the wake-up
and the cap all ahead), so a stretch runs at least one iteration.  A
loop whose largest path charges no static cycle cannot size a stretch
and stays un-fused.

Every exit but a decline leaves through one ``finally`` arm, which
writes the guest locals back to the frame in one tuple assignment,
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
* **branch out of the loop** — the stretch's completed iterations commit
  (``de += Σ q_p``); the partial iteration's unflushed cycles and
  instructions, constants of the exit site, go back through the ``A``
  cells, its fast-path hits into ``rh``, and the function returns the
  target pc, where normal dispatch continues accumulating;
* **guest exception** — every op that can raise first stores its *site
  key* in ``F[0]``: its pc, or the pc plus a multiple of the method's
  length where the same pc is generated on several paths.  The
  ``except`` arm commits the stretch's completed iterations, then looks
  the key up in the superblock's site table (a ``K`` constant built at
  code generation), which holds the pc and the partial iteration's
  charge up to and including the faulting op (cost model:
  charge-before-execute), rebuilds ``A`` and ``rh`` from it, and puts
  the pc in ``F[0]``; the dispatcher re-raises into the reference's
  exception path.

So every exit, cap and preemption lands on the same virtual cycle and
clock event count as in the reference.
"""

from __future__ import annotations

from repro.vm import bytecode as bc
from repro.vm.predecode import _CMP_EXPR, _Emitter, _fusable

#: Paths (iteration ends plus loop exits) one generated body may have;
#: a body with more stays un-fused rather than grow without bound under
#: tail duplication.
MAX_PATHS = 64

#: The ops whose code carries a read barrier in a modified VM
#: (:meth:`repro.vm.predecode._Emitter.emit_op`).
_READ_OPS = frozenset((bc.GETFIELD, bc.ALOAD, bc.GETSTATIC))


#: Where a branch out of the body commits its stretch's
#: counters; replaced once every counter is known.
_EXIT_COMMIT = "<commit the stretch>"


def _assign(targets: list[str], values: list[str]) -> str:
    """One assignment statement, a tuple assignment for several names."""
    return f"{', '.join(targets)} = {', '.join(values)}"


def _step(code, pc: int, head: int, targets: set) -> object:
    """The constant ``c`` when the STORE at ``pc`` ends ``L = L + c``
    (``LOAD L; CONST c; ADD; STORE L``, no branch into its middle), as
    :mod:`repro.lang` compiles ``i = i + step``; else None."""
    if pc - 3 < head or targets & {pc - 2, pc - 1, pc}:
        return None
    load, const, add = code[pc - 3:pc]
    if (load.op == bc.LOAD and load.a == code[pc].a
            and const.op == bc.CONST and add.op == bc.ADD):
        return const.a
    return None


class _Hoist:
    """What one loop body cannot change, and which of it the body
    relies on (:class:`repro.vm.predecode._Emitter` asks while it
    generates the body).

    * *counters*: locals the body writes only by a positive int step
      (``IINC``, or ``L = L + c``), and locals it never writes.  One that
      enters as a non-negative int stays one for the whole run;
    * *loads*: statics the body reads and never ``PUTSTATIC``s, loaded
      once per entry;
    * *arrays*: array references from such loads or from locals the
      body never writes; their ``storage`` and length bind once.

    The entry guard tests exactly the facts the body used: a counter's
    type and sign, an array's type (and ``B``'s, for ``range``).
    """

    def __init__(self, pre, head: int, anchor: int):
        self.pre = pre
        code = pre.method.code
        body = range(head, anchor)
        targets = {code[pc].a for pc in range(head, anchor + 1)
                   if bc.is_branch(code[pc].op)}
        steps: dict[int, bool] = {}
        for pc in body:
            ins = code[pc]
            if ins.op == bc.IINC:
                step = ins.b
            elif ins.op == bc.STORE:
                step = _step(code, pc, head, targets)
            else:
                continue
            steps[ins.a] = (steps.get(ins.a, True) and type(step) is int
                            and step > 0)
        #: locals the body writes / writes only by positive steps
        self.written = set(steps)
        self.stepped = {i for i, ok in steps.items() if ok}
        stored = {code[pc].a for pc in body if code[pc].op == bc.PUTSTATIC}
        #: static keys the body never stores (and the image holds)
        self.fixed = {code[pc].a for pc in body
                      if code[pc].op == bc.GETSTATIC
                      and code[pc].a in pre.statics
                      and code[pc].a not in stored}
        #: used: static key -> (prologue name, its K ref)
        self.loads: dict = {}
        #: used: counter slots whose type and sign the guard tests
        self.signs: list[int] = []
        #: used: array expression -> (storage name, length name)
        self.arrays: dict[str, tuple[str, str]] = {}

    def load(self, key):
        """``(name, K ref)`` of a fixed static's one load, or None."""
        if key not in self.fixed:
            return None
        if key not in self.loads:
            self.loads[key] = (f"G{len(self.loads)}", self.pre._kref(key))
        return self.loads[key]

    def _local(self, e) -> int | None:
        """The slot ``e`` reads when it is a plain guest-local read."""
        if len(e.deps) == 1 and e.expr == f"L{e.deps[0]}":
            return e.deps[0]
        return None

    def nonneg(self, e) -> bool:
        """True (and guarded) when ``e`` is a counter."""
        i = self._local(e)
        if i is None or (i in self.written and i not in self.stepped):
            return False
        if i not in self.signs:
            self.signs.append(i)
        return True

    def array(self, e):
        """``(storage, length)`` names for an invariant array reference
        (and its type guarded), or None."""
        name = e.expr
        if name not in self.arrays:
            i = self._local(e)
            loaded = any(n == name for n, _ in self.loads.values())
            if not loaded and (i is None or i in self.written):
                return None
            n = len(self.arrays)
            self.arrays[name] = (f"S{n}", f"N{n}")
        return self.arrays[name]

    def prologue(self) -> tuple[list[str], str, list[str]]:
        """The loads before the guard, the guard, the bindings after."""
        loads = [f"{name} = ST[{ref}]" for name, ref in self.loads.values()]
        facts = ["type(B) is int"]
        facts += [f"type(L{i}) is int and L{i} >= 0" for i in self.signs]
        facts += [f"type({a}) is VMA" for a in self.arrays]
        binds = []
        for a, (storage, length) in self.arrays.items():
            binds += [f"{storage} = {a}.storage", f"{length} = len({storage})"]
        return loads, " and ".join(facts), binds


class _Unstructured(Exception):
    """A loop the trace compiler cannot lower: control flow the
    structurizer cannot represent, too many paths, or no static charge
    to size a stretch by.  Not an error — the loop just stays
    block-at-a-time."""


class SuperBlock:
    """A compiled loop trace anchored at one backward-GOTO yield point."""

    __slots__ = ("anchor", "head", "fn", "source")

    def __init__(self, anchor: int, head: int, fn, source: str):
        #: pc of the backward GOTO the trace is entered from
        self.anchor = anchor
        #: loop header (the GOTO's target); iterations run [head, anchor)
        self.head = head
        #: ``fn(stack, locals_, F, A, T, PW) -> exit pc | -1`` (bound by
        #: the method-level compile); a declined entry returns ``head``
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
        self.hoist = _Hoist(pre, head, anchor)
        self.em = _Emitter(pre, "super", self.hoist)
        self.quantum = pre.quantum
        self.capped = pre.capped
        #: prologue locals naming path constants that include ``SC``
        self.path_consts: dict[str, str] = {}
        #: paths lowered so far
        self.paths = 0
        #: the commit paths: (cycles, count, reads, (static cycles,
        #: stores)) per counter ``q{n}``
        self.strip: list = []

    # ------------------------------------------------------------ framework
    def compile(self) -> SuperBlock:
        em, pre = self.em, self.pre
        reads = pre.read_barriers and any(
            self.code[pc].op in _READ_OPS
            for pc in range(self.head, self.anchor)
        )
        # every iteration charges the back-edge GOTO first (the reference
        # charges it when dispatching the anchor, before the body runs)
        goto = self.code[self.anchor]
        em.charge(goto)
        self._gen(self.head, self.anchor, self._commit)
        loop = self._stretches()
        loads, guard, binds = self.hoist.prologue()

        # The prologue loads the run's invariants and declines an entry
        # it cannot run exactly as the chain would at the anchor; the
        # ``finally`` arm is the one exit path every other return and
        # raise leaves through.
        touched = sorted(em.touched)
        written = sorted(em.written)
        head = []
        if touched:
            head.append(_assign([f"L{i}" for i in touched],
                                [f"locals_[{i}]" for i in touched]))
        head.append("n0 = CLK.now")
        bound = f"min({self.quantum} - T.quantum_used, PW - n0"
        if self.capped:
            head += ["ML = MAXC - n0", f"B = {bound}, ML + 1)"]
        else:
            head.append(f"B = {bound})")
        head += loads
        decline = f"not ({guard})"
        if reads:
            decline = f"len(LV) > (T.tid in LV) or {decline}"
        head += [f"if {decline}:", f"    A[0] = {goto.cost}", "    A[1] = 1",
                 f"    return {self.head}"]
        head += binds
        head.append("dn = de = di = 0")
        if reads:
            head.append("rh = 0")
        if em.uses_log:
            head += ["WB = []", "SC = SBC(T)"]
        head += [f"{name} = {expr}"
                 for name, expr in self.path_consts.items()]
        head.append(self._zero())
        tail = []
        if written:
            tail.append(_assign([f"locals_[{i}]" for i in written],
                                [f"L{i}" for i in written]))
        if em.uses_log:
            tail += ["if WB:", "    BSB(T, WB)"]
        if reads:
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
        lines.append("    try:")
        lines += [f"        {line}" for line in loop]
        if em.sites:
            # commit the completed iterations, then rebuild the partial
            # one from the faulting site's constants; F[0] goes back to
            # the plain pc.  The table is a tuple indexed by site key: K
            # is shared by every VM of the image, so it holds nothing
            # mutable.
            table = [None] * (max(em.sites) + 1)
            for key, site in em.sites.items():
                table[key] = site
            partial = "c + s * SC" if em.uses_log else "c"
            handler = self._stretch_commit() + [
                f"pc, c, n, s, r = {pre._kref(tuple(table))}[F[0]]",
                "F[0] = pc",
                f"A[0] = {partial}",
                "A[1] = n",
            ]
            if reads:
                handler.append("rh += r")
            lines.append("    except GRE:")
            lines += [f"        {line}" for line in handler + ["raise"]]
        lines.append("    finally:")
        lines += [f"        {line}" for line in tail]

        name = f"_s{self.anchor}"
        body = "\n".join(lines)
        source = f"def {name}(stack, locals_, F, A, T, PW):\n{body}\n"
        return SuperBlock(self.anchor, self.head, None, source)

    def _bound_test(self) -> list[str]:
        """The exit test after committed iterations, in the reference's
        order: starvation before preemption."""
        lines = ["if dn >= B:"]
        if self.capped:
            lines += ["    if dn > ML:", "        raise SERR(MAXC)"]
        return lines + ["    return -1"]

    def _stretches(self) -> list[str]:
        """The lowered body as one ``while True:`` loop of stretches.

        A stretch runs ``k = (B - dn) // CM or 1`` iterations with no
        bound test (``CM``: the largest path charge), each counting its
        path in a counter ``q{n}``; one commit follows, then the bound
        test.  No iteration but a stretch's last can reach ``B``, so
        every exit lands where the reference's per-iteration test puts
        it.  A loop whose largest path charges no static cycle could not
        size a stretch and stays un-fused."""
        # CM: the paths no other path out-charges in both static cycles
        # and stores (SC, the per-store charge, is known only at entry)
        charges = {c for *_, c in self.strip}
        top = sorted(c for c in charges
                     if not any(o != c and o[0] >= c[0] and o[1] >= c[1]
                                for o in charges))
        if not top or top[-1][0] <= 0:
            raise _Unstructured
        named = {c: cycles for cycles, _, _, c in self.strip}
        cm = [named[c] for c in top]
        cm = cm[0] if len(cm) == 1 else f"max({', '.join(cm)})"
        lines = ["while True:", f"    k = (B - dn) // {cm} or 1",
                 "    for _ in range(k):"]
        for line in self.em.lines:
            if line.strip() == _EXIT_COMMIT:
                # a branch out commits the stretch's completed iterations
                pad = line[:len(line) - len(line.lstrip())]
                lines += [f"    {pad}{c}" for c in self._stretch_commit()]
            else:
                lines.append(f"    {line}")
        lines += [f"    {c}" for c in self._stretch_commit("k")]
        lines.append(f"    {self._zero()}")
        return lines + [f"    {line}" for line in self._bound_test()]

    def _stretch_commit(self, done: str | None = None) -> list[str]:
        """Commit the counted iterations: ``done`` names their number
        (``k`` after a whole stretch), else it is the counters' sum."""
        q = [f"q{n}" for n in range(len(self.strip))]

        def total(coefs) -> str:
            terms = [q[n] if c == "1" else f"{c} * {q[n]}"
                     for n, c in enumerate(coefs) if c != "0"]
            return " + ".join(terms)

        lines = []
        for acc, coefs in (("dn", [p[0] for p in self.strip]),
                           ("di", [str(p[1]) for p in self.strip]),
                           ("rh", [str(p[2]) for p in self.strip])):
            sum_ = total(coefs)
            if sum_:
                lines.append(f"{acc} += {sum_}")
        return lines + [f"de += {done or ' + '.join(q)}"]

    def _zero(self) -> str:
        return " = ".join(f"q{n}" for n in range(len(self.strip))) + " = 0"

    def _charge(self, hot: bool) -> tuple[str, int, int]:
        """The current path's cycles as an expression (``hot``: a commit,
        which names an ``SC`` product by a prologue local), its
        instruction count and its read-barrier fast-path hits."""
        cycles, count, stores, reads = self.em.path_charge()
        if stores:
            sc = "SC" if stores == 1 else f"{stores} * SC"
            expr = f"{cycles} + {sc}" if cycles else sc
            if hot and cycles:
                name = f"P{cycles}_{stores}"
                self.path_consts[name] = expr
                expr = name
        else:
            expr = str(cycles)
        return expr, count, reads

    def _leaf(self) -> None:
        """Count one more path; a body with too many stays un-fused."""
        self.paths += 1
        if self.paths > MAX_PATHS:
            raise _Unstructured

    def _commit(self) -> None:
        """End a path at the back-edge: count the iteration in the
        path's counter."""
        em = self.em
        self._leaf()
        em.flush_batch()
        em.flush_stack()
        cycles, count, reads = self._charge(hot=True)
        em.emit(f"q{len(self.strip)} += 1")
        static, _, stores, _ = em.path_charge()
        self.strip.append((cycles, count, reads, (static, stores)))

    def _exit(self, target: int) -> None:
        """Leave the trace mid-iteration for ``target`` (outside the
        loop): commit the stretch's completed iterations and hand the
        partial iteration's charge to the dispatcher; the ``finally`` arm
        commits the rest."""
        em = self.em
        self._leaf()
        em.flush_batch()
        em.flush_stack()
        cycles, count, reads = self._charge(hot=False)
        em.emit(_EXIT_COMMIT)
        em.emit(f"A[0] = {cycles}")
        em.emit(f"A[1] = {count}")
        if reads:
            em.emit(f"rh += {reads}")
        em.emit(f"return {target}")

    def _arms(self, arms) -> None:
        """Emit ``(header, body)`` arms of one split.  Each body runs its
        path to the end, so each starts from the split's path charge."""
        em = self.em
        em.flush_batch()
        em.flush_stack()
        split = em.path_charge()
        for header, body in arms:
            em.set_path_charge(split)
            em.emit(header)
            em.indent += 1
            body()
            em.indent -= 1

    def _outside(self, target: int) -> bool:
        """True when ``target`` leaves the loop region entirely."""
        return target < self.head or target > self.anchor

    # ------------------------------------------------------------- lowering
    def _gen(self, lo: int, hi: int, then) -> None:
        """Lower ``[lo, hi)`` and then the rest of the path, ``then()``
        (the loop back-edge's commit when ``hi == anchor``)."""
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
                    self.pre._bump("cmp+branch", pc)
                    self._branch(pc + 1, nxt, cond, hi, then)
                    return
                em.charge(ins)
                em.emit_op(pc, ins)
            elif op == bc.IF or op == bc.IFNOT:
                em.charge(ins)
                v = em.pop()
                self._branch(pc, ins, v.expr, hi, then)
                return
            elif op == bc.GOTO:
                g = ins.a
                if g == hi and pc + 1 == hi:
                    em.charge(ins)
                    break  # jump to the join: the path continues there
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
        then()

    def _branch(self, bpc: int, ins, cond: str, hi: int, then) -> None:
        """Lower a forward IF/IFNOT at ``bpc`` (condition already popped;
        its cost already charged) and each path through it to its end."""
        code = self.code
        L = ins.a
        f = bpc + 1
        taken = cond if ins.op == bc.IF else f"not ({cond})"
        nottaken = f"not ({cond})" if ins.op == bc.IF else cond

        if L == f:
            # degenerate branch to its own fall-through: no split
            self._gen(f, hi, then)
            return
        if L == hi:
            # if_then: the taken path jumps straight to the join
            self._arms([(f"if {nottaken}:", lambda: self._gen(f, hi, then)),
                        ("else:", then)])
            return
        if self._outside(L):
            # loop exit on the taken path; fall-through stays in the body
            self._arms([(f"if {taken}:", lambda: self._exit(L)),
                        ("else:", lambda: self._gen(f, hi, then))])
            return
        if f < L < hi:
            prev = code[L - 1]
            if (prev.op == bc.GOTO and isinstance(prev.a, int)
                    and L < prev.a <= hi):
                # diamond: else-arm [f, L-1) ends in GOTO join; then-arm
                # [L, J); both meet at J
                J = prev.a

                def join() -> None:
                    self._gen(J, hi, then)

                def skip_join() -> None:
                    self.em.charge(prev)  # the join-skipping GOTO
                    join()

                def else_arm() -> None:
                    self._gen(f, L - 1, skip_join)

                self._arms([(f"if {taken}:", lambda: self._gen(L, J, join)),
                            ("else:", else_arm)])
                return
            # one-armed skip: taken jumps over [f, L)
            self._arms([
                (f"if {nottaken}:",
                 lambda: self._gen(f, L, lambda: self._gen(L, hi, then))),
                ("else:", lambda: self._gen(L, hi, then)),
            ])
            return
        raise _Unstructured
