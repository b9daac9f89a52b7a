"""The bytecode interpreter.

Executes one thread at a time (the platform is a uniprocessor running green
threads, as in the paper's Jikes RVM setup).  The scheduler calls
:meth:`Interpreter.run_slice`, which executes until the thread blocks,
sleeps, terminates, or reaches a *yield point* with its quantum expired or a
pending preemption/revocation — the only places a context switch can happen
(pseudo-preemption, paper footnote 4).

Revocation protocol (paper §3.1): at a yield point, if the runtime support
hands back a :class:`~repro.vm.threads.RollbackSignal`, the interpreter
unwinds to the innermost active synchronized section's injected handler
(``ROLLBACK_HANDLER``).  The handler releases that section's monitor and
either restores the saved operand stack/locals and jumps back to the
``SAVESTATE`` before the ``monitorenter`` (when the section is the
revocation target) or rethrows the signal outward.  Normal guest exception
dispatch never matches rollback scopes, and rollback dispatch never runs
default handlers or finally blocks.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.errors import GuestRuntimeError, ReproError, StarvationError
from repro.vm import bytecode as bc
from repro.vm.classfile import MethodDef, ROLLBACK_TYPE, THROWABLE
from repro.vm.heap import VMArray, VMObject, location_of, require_ref
from repro.vm.monitors import Monitor, monitor_of
from repro.vm.threads import (
    Frame,
    RollbackSignal,
    SavedState,
    ThreadState,
    VMThread,
)
from repro.vm.values import NULL

MAX_FRAME_DEPTH = 2_000

# run_slice outcome reasons
PREEMPTED = "preempted"
YIELDED = "yielded"
BLOCKED = "blocked"
WAITING = "waiting"
SLEEPING = "sleeping"
TERMINATED = "terminated"


def _idiv(a: int, b: int) -> int:
    """Java integer division: truncation toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _imod(a: int, b: int) -> int:
    """Java integer remainder: sign follows the dividend."""
    return a - _idiv(a, b) * b


@functools.lru_cache(maxsize=None)
def _no_tier(n: int) -> tuple:
    """The tier-off block/superblock table for ``n`` instructions."""
    return (None,) * n


class Interpreter:
    """Executes guest bytecode for one :class:`repro.vm.vmcore.JVM`.

    One dispatch loop with three tiers:

    * **superblock** — checked at a loop back-edge yield point, after the
      yield-point checks: a compiled loop trace runs whole iterations
      (:mod:`repro.vm.tracecomp`);
    * **block** — checked at every pc before the chain: a predecoded
      basic block runs a fused straight-line run in one call, charging
      its summed cost and count up front (:mod:`repro.vm.predecode`);
    * **fallback chain** — the ``if/elif`` chain executes one instruction.

    The superblock and block tiers form the *predecode tier*.  It is on
    for ``VMOptions(interp="fast")`` unless ``trace_memory`` needs the
    per-access ``mem_read``/``mem_write`` events that only the chain
    emits.  With it off every pc runs through the chain, and that
    configuration is the parity oracle (``tests/test_interp_parity.py``):
    virtual clocks and advance-event counts, traces, schedules and
    checker fingerprints must be byte-identical with the tier on.  The
    invariants that guarantee it:

    * blocks never contain yield points or clock-flushing ops, so flushes
      happen at exactly the chain's program points;
    * a block's static cost equals the sum the chain would accumulate into
      ``acc`` across the same instructions, and dynamic barrier cycles
      come back through the ``A[0]`` cell;
    * when a block raises a guest exception mid-run, the fault cell
      ``F[0]`` holds the faulting pc and the pre-charged cost/count of the
      unexecuted suffix is subtracted before exception dispatch.
    """

    def __init__(self, vm) -> None:
        self.vm = vm
        self.clock = vm.clock
        self.cost_model = vm.cost_model
        self.support = vm.support
        #: modified VM: read barriers active on every heap load
        self.read_barriers = vm.options.modified
        self._prioritized = vm.options.prioritized_queues
        self._handoff = vm.options.direct_handoff
        #: stream mem_read/mem_write trace events (lockset analysis)
        self._trace_mem = vm.options.trace and vm.options.trace_memory
        #: predecode tier entry point, or None when the tier is off
        self._predecode = None
        if vm.options.interp == "fast" and not self._trace_mem:
            # Imported here: predecode imports this module.
            from repro.vm.predecode import predecode_method

            self._predecode = predecode_method

    # ------------------------------------------------------------------ API
    def run_slice(self, thread: VMThread) -> str:
        """Run ``thread`` until it can no longer continue; return a reason."""
        thread.state = ThreadState.RUNNING
        thread.quantum_used = 0
        if thread.start_time is None:
            thread.start_time = self.clock.now
        # A revocation may have been posted while the thread was off-CPU
        # (deadlock victim woken from a monitor queue, sleeper revoked).
        if thread.revocation_request is not None:
            sig = self.support.check_yield(thread)
            if sig is not None:
                thread.active_rollback = sig  # type: ignore[attr-defined]
                self._relinquish_pending_handoff(thread)
                self._unwind_to_handler(thread)
        return self._execute(thread)

    # ----------------------------------------------------------- main loop
    def _execute(self, thread: VMThread) -> str:
        vm = self.vm
        clock = self.clock
        support = self.support
        pending_wake = vm.scheduler.pending_wake_time
        quantum = self.cost_model.quantum
        cm = self.cost_model
        read_barriers = self.read_barriers
        trace_mem = self._trace_mem
        max_cycles = vm.options.max_cycles
        faults = vm.fault_plane
        profiler = vm.profiler
        predecode = self._predecode
        F = [0]  # fault cell: pc of the op a block was executing when it raised
        # dynamic-cost cells: A[0] carries barrier cycles accrued inside a
        # block; superblocks use both cells to hand back the partial
        # iteration's unflushed (cycles, instructions) on a trace exit.
        A = [0, 0]

        while True:  # outer loop: re-entered on frame switch / exceptions
            frame = thread.frames[-1]
            code = frame.code
            if predecode is None:
                blocks = supers = _no_tier(len(code))
            else:
                dm = predecode(vm, frame.method)
                blocks = dm.blocks
                supers = dm.superblocks
            pc = frame.pc
            stack = frame.stack
            locals_ = frame.locals
            acc = 0      # unflushed cycles
            icount = 0   # unflushed instruction count

            def flush() -> None:
                nonlocal acc, icount
                if profiler is not None and (acc or icount):
                    profiler.on_flush(thread, frame, acc, icount)
                clock.advance(acc)
                thread.cycles_executed += acc
                thread.quantum_used += acc
                thread.instructions_executed += icount
                acc = 0
                icount = 0

            try:
                while True:
                    # ------------------------- predecoded block dispatch
                    b = blocks[pc]
                    if b is not None:
                        acc += b.cost
                        icount += b.count
                        try:
                            pc = b.fn(stack, locals_, F, A, thread)
                        except GuestRuntimeError:
                            # repair the pre-charge: drop the cost/count of
                            # the instructions after the faulting one, keep
                            # any barrier cycles accrued before the fault,
                            # and resume exception dispatch at its pc.
                            fpc = F[0] if b.raising else b.start
                            k = fpc - b.start
                            acc -= b.suffix_cost[k]
                            icount -= b.suffix_count[k]
                            if b.dynamic:
                                acc += A[0]
                            pc = fpc
                            raise
                        if b.dynamic:
                            acc += A[0]
                        continue

                    ins = code[pc]
                    op = ins.op

                    if ins.ypoint:
                        # inlined flush(): this is the hottest flush site
                        # (every loop back-edge) and closure/nonlocal
                        # overhead is measurable here
                        if profiler is not None and (acc or icount):
                            profiler.on_flush(thread, frame, acc, icount)
                        clock.advance(acc)
                        thread.cycles_executed += acc
                        thread.quantum_used += acc
                        thread.instructions_executed += icount
                        acc = 0
                        icount = 0
                        if max_cycles and clock.now > max_cycles:
                            raise StarvationError(max_cycles)
                        if thread.revocation_request is not None:
                            sig = support.check_yield(thread)
                            if sig is not None:
                                thread.active_rollback = sig  # type: ignore[attr-defined]
                                frame.pc = pc
                                self._relinquish_pending_handoff(thread)
                                self._unwind_to_handler(thread)
                                break  # re-enter outer loop on new frame/pc
                        if faults is not None and thread.active_rollback is None:
                            injected = faults.on_yield_point(thread)
                            if injected is not None:
                                # Dispatched exactly like any guest fault:
                                # through the exception tables, never
                                # through rollback scopes.
                                raise GuestRuntimeError(
                                    "injected fault", guest_class=injected
                                )
                        if (
                            thread.quantum_used >= quantum
                            or thread.preempt_requested
                            or pending_wake() <= clock.now
                        ):
                            frame.pc = pc
                            thread.preempt_requested = False
                            return PREEMPTED

                        # -------------------- superblock trace dispatch
                        # Entered only once every hoisted yield-point
                        # check is provably constant for the whole run
                        # (see repro.vm.tracecomp); the accumulators are
                        # zero here (just flushed), so the trace owns all
                        # charging until it hands back through A/F.
                        sb = supers[pc]
                        if (
                            sb is not None
                            and thread.revocation_request is None
                            and profiler is None
                            and clock.listener is None
                            and (faults is None or faults.yield_quiet())
                        ):
                            try:
                                r = sb.fn(stack, locals_, F, A, thread,
                                          pending_wake())
                            except GuestRuntimeError:
                                # completed iterations are committed; the
                                # partial one continues as if the chain
                                # had been accumulating it all along.
                                acc = A[0]
                                icount = A[1]
                                pc = F[0]
                                raise
                            if r >= 0:
                                # branch out of the loop: resume normal
                                # dispatch at the exit target with the
                                # partial iteration's unflushed charges.
                                acc = A[0]
                                icount = A[1]
                                pc = r
                                continue
                            # preemption or due wake-up at the back edge
                            frame.pc = pc
                            thread.preempt_requested = False
                            return PREEMPTED

                    acc += ins.cost
                    icount += 1

                    # ---------------------------------------- hot opcodes
                    if op == bc.LOAD:
                        stack.append(locals_[ins.a])
                        pc += 1
                    elif op == bc.CONST:
                        stack.append(ins.a)
                        pc += 1
                    elif op == bc.STORE:
                        locals_[ins.a] = stack.pop()
                        pc += 1
                    elif op == bc.IINC:
                        locals_[ins.a] += ins.b
                        pc += 1
                    elif op == bc.GOTO:
                        pc = ins.a
                    elif op == bc.IF:
                        v = stack.pop()
                        pc = ins.a if v else pc + 1
                    elif op == bc.IFNOT:
                        v = stack.pop()
                        pc = pc + 1 if v else ins.a
                    elif op == bc.ADD:
                        b_ = stack.pop()
                        stack[-1] = stack[-1] + b_
                        pc += 1
                    elif op == bc.SUB:
                        b_ = stack.pop()
                        stack[-1] = stack[-1] - b_
                        pc += 1
                    elif op == bc.MUL:
                        b_ = stack.pop()
                        stack[-1] = stack[-1] * b_
                        pc += 1
                    elif op == bc.LT:
                        b_ = stack.pop()
                        stack[-1] = 1 if stack[-1] < b_ else 0
                        pc += 1
                    elif op == bc.GE:
                        b_ = stack.pop()
                        stack[-1] = 1 if stack[-1] >= b_ else 0
                        pc += 1
                    elif op == bc.MOD:
                        b_ = stack.pop()
                        a_ = stack.pop()
                        if isinstance(a_, int) and isinstance(b_, int):
                            if b_ == 0:
                                raise GuestRuntimeError(
                                    "integer remainder by zero",
                                    guest_class="ArithmeticException",
                                )
                            stack.append(_imod(a_, b_))
                        else:
                            stack.append(self._fmod(a_, b_))
                        pc += 1

                    # ------------------------------------------ heap access
                    elif op == bc.GETFIELD:
                        obj = require_ref(stack.pop(), "object")
                        fd = self._field_def(ins, obj)
                        stack.append(obj.get(ins.a))
                        if read_barriers:
                            acc += support.after_load(
                                thread, obj, ins.a, fd.volatile
                            )
                        if trace_mem:
                            vm.trace(
                                "mem_read", thread,
                                loc=location_of(obj, ins.a),
                            )
                        pc += 1
                    elif op == bc.PUTFIELD:
                        val = stack.pop()
                        obj = require_ref(stack.pop(), "object")
                        fd = self._field_def(ins, obj)
                        old = obj.put(ins.a, val)
                        if ins.barrier:
                            acc += support.before_store(
                                thread, obj, ins.a, old, fd.volatile
                            )
                        if trace_mem:
                            vm.trace(
                                "mem_write", thread,
                                loc=location_of(obj, ins.a),
                            )
                        pc += 1
                    elif op == bc.ALOAD:
                        idx = stack.pop()
                        arr = require_ref(stack.pop(), "array")
                        stack.append(arr.get(idx))
                        if read_barriers:
                            acc += support.after_load(thread, arr, idx, False)
                        if trace_mem:
                            vm.trace(
                                "mem_read", thread,
                                loc=location_of(arr, idx),
                            )
                        pc += 1
                    elif op == bc.ASTORE:
                        val = stack.pop()
                        idx = stack.pop()
                        arr = require_ref(stack.pop(), "array")
                        old = arr.put(idx, val)
                        if ins.barrier:
                            acc += support.before_store(
                                thread, arr, idx, old, False
                            )
                        if trace_mem:
                            vm.trace(
                                "mem_write", thread,
                                loc=location_of(arr, idx),
                            )
                        pc += 1
                    elif op == bc.GETSTATIC:
                        fd = ins.c or self._static_def(ins)
                        stack.append(vm.heap.get_static(ins.a))
                        if read_barriers:
                            acc += support.after_load(
                                thread, ins.a, ins.a[1], fd.volatile
                            )
                        if trace_mem:
                            vm.trace(
                                "mem_read", thread,
                                loc=location_of(ins.a, ins.a[1]),
                            )
                        pc += 1
                    elif op == bc.PUTSTATIC:
                        fd = ins.c or self._static_def(ins)
                        old = vm.heap.put_static(ins.a, stack.pop())
                        if ins.barrier:
                            acc += support.before_store(
                                thread, ins.a, ins.a[1], old, fd.volatile
                            )
                        if trace_mem:
                            vm.trace(
                                "mem_write", thread,
                                loc=location_of(ins.a, ins.a[1]),
                            )
                        pc += 1
                    elif op == bc.ARRAYLEN:
                        arr = require_ref(stack.pop(), "array")
                        stack.append(len(arr))
                        pc += 1
                    elif op == bc.NEW:
                        classdef = ins.c or self._classdef(ins)
                        stack.append(vm.heap.allocate(classdef))
                        pc += 1
                    elif op == bc.CLASSREF:
                        obj = ins.c
                        if obj is None:
                            obj = vm.heap.class_object(ins.a)
                            ins.c = obj
                        stack.append(obj)
                        pc += 1
                    elif op == bc.NEWARRAY:
                        length = stack.pop()
                        if not isinstance(length, int) or length < 0:
                            raise GuestRuntimeError(
                                f"negative array size {length}",
                                guest_class="NegativeArraySizeException",
                            )
                        stack.append(vm.heap.allocate_array(length, ins.a))
                        pc += 1

                    # -------------------------------------------- monitors
                    elif op == bc.MONITORENTER:
                        mon = monitor_of(require_ref(stack[-1], "monitor"))
                        if thread.pending_handoff is mon:
                            thread.pending_handoff = None
                            thread.blocked_on = None
                            stack.pop()
                            acc += support.on_monitor_entered(
                                thread, mon, frame, ins.a, False
                            )
                            vm.trace("acquire", thread, mon=mon, handoff=True)
                            pc += 1
                        elif mon.try_acquire(thread):
                            recursive = mon.count > 1
                            if not recursive and mon.is_queued(thread):
                                # woken waiter winning the retry race
                                mon.count = mon.queued_count(thread)
                                mon.remove_from_queue(thread)
                            thread.blocked_on = None
                            stack.pop()
                            acc += support.on_monitor_entered(
                                thread, mon, frame, ins.a, recursive
                            )
                            vm.trace("acquire", thread, mon=mon,
                                     recursive=recursive)
                            pc += 1
                        else:
                            acc += cm.monitor_slow
                            acc += support.on_contended_acquire(thread, mon)
                            if not mon.is_queued(thread):
                                mon.enqueue(thread)
                            thread.blocked_on = mon
                            thread.state = ThreadState.BLOCKED
                            thread.blocked_since = clock.now + acc
                            frame.pc = pc
                            flush()
                            vm.trace("block", thread, mon=mon)
                            return BLOCKED
                    elif op == bc.MONITOREXIT:
                        mon = monitor_of(require_ref(stack.pop(), "monitor"))
                        acc += support.on_monitor_exited(
                            thread, mon, frame, ins.a
                        )
                        successor = mon.release(
                            thread, prioritized=self._prioritized,
                            handoff=self._handoff,
                        )
                        if successor is not None:
                            acc += cm.monitor_slow
                            self._post_release(mon, successor)
                        acc += support.on_handoff(thread, mon, successor)
                        vm.trace("release", thread, mon=mon,
                                 successor=successor)
                        pc += 1

                    # ----------------------------------------------- calls
                    elif op == bc.INVOKE:
                        mdef = ins.c or self._method_def(ins)
                        argc = ins.b
                        if argc:
                            args = stack[-argc:]
                            del stack[-argc:]
                        else:
                            args = []
                        if len(thread.frames) >= MAX_FRAME_DEPTH:
                            raise GuestRuntimeError(
                                "call stack exhausted",
                                guest_class="StackOverflowError",
                            )
                        # The caller parks ON the invoke (the JVM attributes
                        # in-callee exceptions to the call site's pc, so
                        # exception ranges ending at the invoke still cover
                        # it); RETURN advances past it.
                        frame.pc = pc
                        thread.frames.append(
                            Frame(mdef, args, frame.depth + 1)
                        )
                        flush()
                        break  # outer loop re-reads the new frame
                    elif op == bc.RETURN:
                        retval = stack.pop() if ins.a else None
                        thread.frames.pop()
                        if not thread.frames:
                            flush()
                            self._terminate(thread, result=retval)
                            return TERMINATED
                        caller = thread.frames[-1]
                        caller.pc += 1  # step past the parked INVOKE
                        if ins.a:
                            caller.stack.append(retval)
                        flush()
                        break
                    elif op == bc.NATIVE:
                        fn = ins.c or self._native_fn(ins)
                        argc = ins.b
                        if argc:
                            args = stack[-argc:]
                            del stack[-argc:]
                        else:
                            args = []
                        acc += support.on_native_call(thread, ins.a)
                        frame.pc = pc  # natives may inspect the thread
                        result = fn(vm, thread, args)
                        if result is not None:
                            stack.append(result)
                        pc += 1
                    elif op == bc.ATHROW:
                        exc = require_ref(stack.pop(), "throwable")
                        frame.pc = pc
                        flush()
                        if not self._dispatch_guest_exception(thread, exc):
                            return TERMINATED
                        break

                    # --------------------------------------------- threading
                    elif op == bc.WAIT or op == bc.TIMED_WAIT:
                        timed = op == bc.TIMED_WAIT
                        ref_slot = -2 if timed else -1
                        mon = monitor_of(
                            require_ref(stack[ref_slot], "monitor")
                        )
                        reacquired = False
                        if thread.pending_handoff is mon:
                            # direct handoff after notify/timeout
                            thread.pending_handoff = None
                            reacquired = True
                        elif (
                            mon.is_queued(thread)
                            and mon.owner is not thread
                        ):
                            # woken (no-handoff mode): retry acquisition
                            saved_count = mon.queued_count(thread)
                            if mon.try_acquire(thread):
                                mon.count = saved_count
                                mon.remove_from_queue(thread)
                                reacquired = True
                            else:
                                acc += cm.monitor_slow
                                acc += support.on_contended_acquire(
                                    thread, mon
                                )
                                thread.blocked_on = mon
                                thread.state = ThreadState.BLOCKED
                                thread.blocked_since = clock.now + acc
                                frame.pc = pc
                                flush()
                                vm.trace("block", thread, mon=mon)
                                return BLOCKED
                        if reacquired:
                            thread.blocked_on = None
                            if timed:
                                stack.pop()
                            stack.pop()
                            thread.waiting_on = None
                            acc += support.on_wait_reacquired(thread, mon)
                            vm.trace("wait_return", thread, mon=mon)
                            pc += 1
                        else:
                            if mon.owner is not thread:
                                raise GuestRuntimeError(
                                    "wait() without monitor ownership",
                                    guest_class="IllegalMonitorStateException",
                                )
                            acc += support.on_wait(thread, mon)
                            timeout = stack[-1] if timed else 0
                            saved, successor = mon.wait_release(
                                thread, prioritized=self._prioritized,
                                handoff=self._handoff,
                            )
                            mon.add_waiter(thread, saved)
                            thread.waiting_on = mon
                            thread.state = ThreadState.WAITING
                            frame.pc = pc
                            flush()
                            if successor is not None:
                                self._post_release(mon, successor)
                            acc2 = support.on_handoff(thread, mon, successor)
                            if profiler is not None and acc2:
                                profiler.on_flush(thread, frame, acc2, 0)
                            clock.advance(acc2)
                            if timed and timeout > 0:
                                vm.scheduler.add_sleeper(
                                    thread, clock.now + timeout
                                )
                            vm.trace("wait", thread, mon=mon,
                                     timeout=timeout if timed else None,
                                     successor=successor)
                            return WAITING
                    elif op == bc.NOTIFY or op == bc.NOTIFYALL:
                        mon = monitor_of(require_ref(stack.pop(), "monitor"))
                        if mon.owner is not thread:
                            raise GuestRuntimeError(
                                "notify() without monitor ownership",
                                guest_class="IllegalMonitorStateException",
                            )
                        if op == bc.NOTIFY:
                            moved = mon.notify_one()
                            targets = [moved] if moved else []
                        else:
                            targets = mon.notify_all()
                        for waiter, saved_count in targets:
                            vm.scheduler.remove_sleeper(waiter)
                            mon.enqueue(waiter, saved_count)
                            waiter.waiting_on = None
                            waiter.blocked_on = mon
                            waiter.state = ThreadState.BLOCKED
                            vm.trace("notify", thread, mon=mon,
                                     woken=waiter)
                        pc += 1
                    elif op == bc.SLEEP or op == bc.PAUSE:
                        if op == bc.SLEEP:
                            duration = stack.pop()
                        else:
                            duration = thread.rng.randint(0, 2 * ins.a)
                        frame.pc = pc + 1
                        flush()
                        if duration <= 0:
                            thread.state = ThreadState.READY
                            return YIELDED
                        thread.state = ThreadState.SLEEPING
                        vm.scheduler.add_sleeper(
                            thread, clock.now + duration
                        )
                        return SLEEPING
                    elif op == bc.YIELD:
                        frame.pc = pc + 1
                        flush()
                        return YIELDED

                    # ------------------------------------------- misc/state
                    elif op == bc.TIME:
                        flush()
                        stack.append(clock.now)
                        pc += 1
                    elif op == bc.TID:
                        stack.append(thread.tid)
                        pc += 1
                    elif op == bc.RAND:
                        stack.append(thread.rng.randint(0, ins.a - 1))
                        pc += 1
                    elif op == bc.DEBUG:
                        vm.trace("debug", thread, tag=ins.a)
                        pc += 1
                    elif op == bc.SAVESTATE:
                        state = SavedState(stack, locals_)
                        frame.saved_states[ins.a] = state
                        acc += cm.savestate_word * (
                            len(state.stack) + len(state.locals)
                        )
                        pc += 1
                    elif op == bc.RESTORESTATE:
                        frame.saved_states[ins.a].restore_into(frame)
                        pc += 1
                    elif op == bc.ROLLBACK_HANDLER:
                        frame.pc = pc
                        flush()
                        resumed = self._run_rollback_handler(thread, ins)
                        if not resumed:
                            self._unwind_to_handler(thread)
                        break

                    # ------------------------------------------ cold opcodes
                    elif op == bc.DIV:
                        b_ = stack.pop()
                        a_ = stack.pop()
                        if isinstance(a_, int) and isinstance(b_, int):
                            if b_ == 0:
                                raise GuestRuntimeError(
                                    "integer division by zero",
                                    guest_class="ArithmeticException",
                                )
                            stack.append(_idiv(a_, b_))
                        else:
                            stack.append(self._fdiv(a_, b_))
                        pc += 1
                    elif op == bc.NEG:
                        stack[-1] = -stack[-1]
                        pc += 1
                    elif op == bc.AND:
                        b_ = stack.pop()
                        stack[-1] = stack[-1] & b_
                        pc += 1
                    elif op == bc.OR:
                        b_ = stack.pop()
                        stack[-1] = stack[-1] | b_
                        pc += 1
                    elif op == bc.XOR:
                        b_ = stack.pop()
                        stack[-1] = stack[-1] ^ b_
                        pc += 1
                    elif op == bc.SHL:
                        b_ = stack.pop()
                        stack[-1] = stack[-1] << b_
                        pc += 1
                    elif op == bc.SHR:
                        b_ = stack.pop()
                        stack[-1] = stack[-1] >> b_
                        pc += 1
                    elif op == bc.NOT:
                        stack[-1] = 0 if stack[-1] else 1
                        pc += 1
                    elif op == bc.EQ:
                        b_ = stack.pop()
                        a_ = stack.pop()
                        stack.append(1 if self._guest_eq(a_, b_) else 0)
                        pc += 1
                    elif op == bc.NE:
                        b_ = stack.pop()
                        a_ = stack.pop()
                        stack.append(0 if self._guest_eq(a_, b_) else 1)
                        pc += 1
                    elif op == bc.LE:
                        b_ = stack.pop()
                        stack[-1] = 1 if stack[-1] <= b_ else 0
                        pc += 1
                    elif op == bc.GT:
                        b_ = stack.pop()
                        stack[-1] = 1 if stack[-1] > b_ else 0
                        pc += 1
                    elif op == bc.DUP:
                        stack.append(stack[-1])
                        pc += 1
                    elif op == bc.POP:
                        stack.pop()
                        pc += 1
                    elif op == bc.SWAP:
                        stack[-1], stack[-2] = stack[-2], stack[-1]
                        pc += 1
                    elif op == bc.NOP:
                        pc += 1
                    else:  # pragma: no cover - verifier rejects unknown ops
                        raise ReproError(f"unimplemented opcode {op}")
            except GuestRuntimeError as exc:
                frame.pc = pc
                flush()
                guest_exc = vm.make_guest_exception(
                    exc.guest_class, str(exc)
                )
                if not self._dispatch_guest_exception(thread, guest_exc):
                    return TERMINATED
                # loop around; frame/pc were updated by the dispatcher

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _fdiv(a, b):
        import math

        if b == 0:
            if a == 0:
                return math.nan
            return math.inf if a > 0 else -math.inf
        return a / b

    @staticmethod
    def _fmod(a, b):
        import math

        if b == 0:
            return math.nan
        return math.fmod(a, b)

    @staticmethod
    def _guest_eq(a, b) -> bool:
        # References compare by identity; numbers by value.
        if isinstance(a, (VMObject, VMArray)) or isinstance(
            b, (VMObject, VMArray)
        ):
            return a is b
        if a is NULL or b is NULL:
            return a is b
        return a == b

    def _field_def(self, ins, obj: VMObject):
        """Monomorphic inline cache for instance field resolution."""
        cached = ins.c
        if cached is not None and cached[0] is obj.classdef:
            return cached[1]
        fd = obj.classdef.field(ins.a)
        ins.c = (obj.classdef, fd)
        return fd

    def _static_def(self, ins):
        fd = self.vm.heap.static_def(*ins.a)
        ins.c = fd
        return fd

    def _classdef(self, ins):
        classdef = self.vm.classdef(ins.a)
        ins.c = classdef
        return classdef

    def _method_def(self, ins) -> MethodDef:
        mdef = self.vm.resolve_method(*ins.a)
        ins.c = mdef
        if mdef.force_inline:
            ins.cost = 0  # the paper inlines the renamed $impl method
        return mdef

    def _native_fn(self, ins):
        fn = self.vm.resolve_native(ins.a)
        ins.c = fn
        return fn

    def _relinquish_pending_handoff(self, thread: VMThread) -> None:
        """Return a monitor granted by direct handoff but never entered.

        A blocked thread can be handed a monitor and then be revoked before
        it re-executes the ``monitorenter`` that would consume the grant
        (deadlock victims; inversion targets woken off a queue).  The
        rollback resumes *before* that enter, so the ownership must be
        surrendered — otherwise the re-executed enter would look recursive
        and leak a recursion level on exit.
        """
        mon = thread.pending_handoff
        if mon is None:
            return
        thread.pending_handoff = None
        if mon.owner is thread:
            mon.count = 1  # drop any wait-restored recursion in one go
            # handoff=True: releases on behalf of a revocation always
            # transfer ownership (see _run_rollback_handler).
            successor = mon.release(
                thread, prioritized=self._prioritized, handoff=True,
            )
            if successor is not None:
                self._post_release(mon, successor)
            self.support.on_handoff(thread, mon, successor)
            self.vm.trace(
                "handoff_returned", thread, mon=mon, successor=successor
            )

    def _post_release(self, mon: Monitor, successor: VMThread) -> None:
        """Route a release's successor per the active queue policy."""
        if mon.owner is successor:
            self._grant_handoff(mon, successor)
        else:
            self._wake_waiter(successor)

    def _grant_handoff(self, mon: Monitor, new_owner: VMThread) -> None:
        """Ownership was transferred to a queued waiter; make it runnable."""
        new_owner.blocked_on = None
        new_owner.pending_handoff = mon
        self.vm.credit_blocked(new_owner)
        self._ready_or_delay(new_owner, mon)

    def _wake_waiter(self, waiter: VMThread) -> None:
        """No-handoff mode: the selected waiter retries its acquisition
        when scheduled (it stays on the entry queue; arrivals may barge)."""
        if waiter.state is not ThreadState.BLOCKED:
            return  # already runnable from an earlier wake
        self.vm.credit_blocked(waiter)
        self._ready_or_delay(waiter, waiter.blocked_on)
        self.vm.trace("wakeup", waiter)

    def _ready_or_delay(self, thread: VMThread, mon: Optional[Monitor]) -> None:
        """Make a released monitor's successor runnable — or, under fault
        injection, let the plane postpone the wake-up (a delayed monitor
        handoff), widening the window in which other threads can barge,
        detect inversions, or form cycles."""
        faults = self.vm.fault_plane
        if faults is not None:
            delay = faults.handoff_delay(thread, mon)
            if delay > 0:
                thread.state = ThreadState.SLEEPING
                self.vm.scheduler.add_sleeper(thread, self.clock.now + delay)
                self.vm.trace(
                    "handoff_delayed", thread,
                    mon=mon if mon is not None else "?", delay=delay,
                )
                return
        self.vm.scheduler.make_ready(thread)

    def _terminate(self, thread: VMThread, result=None) -> None:
        thread.result = result
        thread.state = ThreadState.TERMINATED
        thread.end_time = self.clock.now
        if thread.held_monitors:
            raise ReproError(
                f"thread {thread.name!r} terminated holding monitors "
                f"{thread.held_monitors!r} (unbalanced bytecode)"
            )
        self.support.on_thread_exit(thread)
        self.vm.trace("exit", thread)

    # -------------------------------------------------- exception dispatch
    def _dispatch_guest_exception(self, thread: VMThread, exc) -> bool:
        """Normal guest exception dispatch (JVM semantics).

        Walks the call stack looking for a matching exception-table entry;
        rollback scopes (:data:`ROLLBACK_TYPE`) never match.  Returns False
        when the exception escaped ``run()`` and the thread died.
        """
        exc_name = exc.classdef.name
        while thread.frames:
            frame = thread.frames[-1]
            pc = frame.pc
            for entry in frame.method.exc_table:
                if not entry.covers(pc):
                    continue
                t = entry.type
                if t == ROLLBACK_TYPE:
                    continue
                if t is None or t == THROWABLE or t == exc_name:
                    frame.stack.clear()
                    frame.stack.append(exc)
                    frame.pc = entry.handler
                    self.vm.trace("catch", thread, exc=exc_name,
                                  handler=entry.handler)
                    return True
            self._pop_frame_discarding(thread)
        thread.uncaught = exc
        thread.state = ThreadState.TERMINATED
        thread.end_time = self.clock.now
        self.support.on_thread_exit(thread)
        self.vm.record_uncaught(thread, exc)
        return False

    def _pop_frame_discarding(self, thread: VMThread) -> None:
        """Pop a frame during unwinding.

        Well-formed (javac-shaped) code never abandons a frame with live
        sections — the catch-all release handlers run first.  If hand-written
        bytecode does, force-release so the VM stays consistent and flag it.
        """
        frame = thread.frames.pop()
        leaked = [s for s in thread.sections if s.frame is frame]
        for section in reversed(leaked):
            thread.sections.remove(section)
            self.support.on_section_abandoned(thread, section)
            mon = section.monitor
            successor = None
            if mon.owner is thread:
                successor = mon.release(
                    thread, prioritized=self._prioritized,
                    handoff=self._handoff,
                )
                if successor is not None:
                    self._post_release(mon, successor)
            self.vm.trace(
                "leaked_monitor", thread, mon=mon, successor=successor
            )

    # ------------------------------------------------------------ rollback
    def _unwind_to_handler(self, thread: VMThread) -> None:
        """Transfer control to the innermost active section's rollback
        handler, discarding any frames above it (no default handlers or
        finally blocks run — paper §3.1.2)."""
        if not thread.sections:
            raise ReproError(
                f"rollback unwind in {thread.name!r} with no active sections"
            )
        section = thread.sections[-1]
        while thread.frames and thread.frames[-1] is not section.frame:
            thread.frames.pop()
        if not thread.frames:
            raise ReproError(
                f"rollback target frame vanished in {thread.name!r}"
            )
        section.frame.pc = section.handler_pc
        self.vm.trace("unwind", thread, to=section.handler_pc)

    def _run_rollback_handler(self, thread: VMThread, ins) -> bool:
        """Execute a ``ROLLBACK_HANDLER`` instruction.

        Releases the innermost section's monitor; if that section is the
        revocation target, restores the ``SAVESTATE`` snapshot and resumes
        at the ``monitorenter`` (returns True).  Otherwise the caller
        rethrows by unwinding to the next outer handler (returns False).
        """
        signal = getattr(thread, "active_rollback", None)
        if signal is None:
            raise ReproError(
                f"ROLLBACK_HANDLER reached outside a rollback in "
                f"{thread.name!r}"
            )
        if not thread.sections:
            raise ReproError("rollback handler with no active section")
        section = thread.sections[-1]
        frame = thread.frames[-1]
        if section.frame is not frame:
            raise ReproError("rollback handler frame mismatch")
        is_target = section is signal.target
        self.support.on_rollback_handler(thread, section, is_target)
        mon = section.monitor
        successor = None
        if mon.owner is thread:
            # Rollback releases ALWAYS hand ownership to the chosen waiter
            # (paper §4: "after the low-priority thread rolls back its
            # changes and releases the monitor, the high-priority thread
            # acquires control").  Without the transfer, the revoked
            # thread's immediate re-execution could barge back in before
            # the waiter runs — for deadlock revocations that recreates
            # the cycle forever (the livelock the paper warns about in §1).
            successor = mon.release(
                thread, prioritized=self._prioritized, handoff=True,
            )
            if successor is not None:
                self._post_release(mon, successor)
            self.support.on_handoff(thread, mon, successor)
        self.vm.trace(
            "rollback_release", thread, mon=mon, target=is_target,
            successor=successor,
        )
        if is_target:
            saved = frame.saved_states.get(ins.a)
            if saved is None:
                raise ReproError(
                    f"no saved state in slot {ins.a!r} of {frame!r}"
                )
            saved.restore_into(frame)
            frame.pc = ins.b
            thread.active_rollback = None  # type: ignore[attr-defined]
            thread.revocations += 1
            self.vm.trace("rollback_done", thread, mon=mon)
            return True
        return False
