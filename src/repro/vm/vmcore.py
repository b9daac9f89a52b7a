"""The virtual machine facade.

A :class:`JVM` bundles the heap, clock, scheduler, interpreter, native
registry and runtime support into one runnable machine.  The ``mode``
option selects which system from the paper's evaluation you get:

``"unmodified"``
    the paper's baseline: stock VM, untransformed bytecode, blocking
    monitors with prioritized entry queues, no barriers, no revocation.

``"rollback"``
    the paper's contribution: classes pass through the bytecode
    transformer at load time (write barriers, rollback scopes, sync-method
    wrapping) and the revocation runtime is installed.

``"inheritance"`` / ``"ceiling"``
    the classical avoidance protocols the paper compares against
    conceptually (§5), implemented in :mod:`repro.core.policies` as
    further baselines for the extension benchmarks.

Typical use::

    vm = JVM(VMOptions(mode="rollback", seed=7))
    vm.load(my_classdef)
    vm.spawn("Bench", "run", args=[0], priority=10, name="high-0")
    vm.run()
    print(vm.clock.now, vm.metrics())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.errors import (
    LinkError,
    UncaughtGuestException,
    VMStateError,
)
from repro.util.rng import DeterministicRng
from repro.vm import bytecode as bc
from repro.vm.classfile import ClassDef, FieldDef, MethodDef
from repro.vm.clock import CostModel, VirtualClock
from repro.vm.heap import Heap, VMObject
from repro.vm.interpreter import Interpreter
from repro.vm.monitors import Monitor
from repro.vm.native import NativeRegistry
from repro.vm.scheduler import (
    BaseScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
)
from repro.vm.support import NullSupport, RuntimeSupport
from repro.vm.threads import ThreadState, VMThread
from repro.vm.tracing import Tracer

MODES = ("unmodified", "rollback", "inheritance", "ceiling")

#: Guest exception classes available on every VM.
BUILTIN_EXCEPTIONS = (
    "Throwable",
    "Exception",
    "Error",
    "RuntimeException",
    "ArithmeticException",
    "NullPointerException",
    "ArrayIndexOutOfBoundsException",
    "NegativeArraySizeException",
    "IllegalMonitorStateException",
    "StackOverflowError",
    "InterruptedException",
)


@dataclass
class VMOptions:
    """Configuration of one virtual machine instance."""

    mode: str = "unmodified"
    scheduler: str = "round-robin"  # or "priority"
    prioritized_queues: bool = True
    #: False (default, faithful to the paper's Jikes platform): a release
    #: wakes the preferred waiter but leaves the monitor free, so runnable
    #: threads reaching monitorenter first can barge in.  True: direct
    #: ownership handoff (stronger blocking baseline; abl-handoff bench).
    direct_handoff: bool = False
    cost_model: CostModel = field(default_factory=CostModel)
    seed: int = 0x5EED
    #: inversion detection: "acquire", "periodic", or "both" (§1: "either at
    #: lock acquisition, or periodically in the background")
    detection: str = "acquire"
    periodic_interval: int = 20_000
    #: cost-aware revocation (extension; paper §4.2 observes that "if the
    #: number of write operations within a synchronized section is
    #: sufficiently large, the overhead of logging and rollbacks may start
    #: outweighing potential benefit"): deny revocation when more than
    #: this many undo-log entries would have to be restored.  0 = always
    #: revoke (the paper's behaviour).
    max_rollback_entries: int = 0
    #: livelock guard: after this many consecutive revocations of one
    #: thread's section, grant it a revocation-free grace window
    livelock_threshold: int = 3
    livelock_grace: int = 20_000
    #: robustness plane (extension): after this many revocations of one
    #: *section site* — a (thread, sync_id) pair — without an intervening
    #: commit, the site is demoted one rung on the degradation ladder
    #: (revocable -> priority-inheritance -> non-revocable).  0 disables.
    revocation_retry_budget: int = 8
    #: per-site exponential backoff: after a site's n-th consecutive
    #: revocation, further revocations of it are denied for
    #: ``revocation_backoff << (n-1)`` cycles.  0 disables (the
    #: thread-level livelock grace above stays the only damper).
    revocation_backoff: int = 0
    #: starvation watchdog: every N scheduler slices, flag threads whose
    #: revocation count grew by ``watchdog_revocations`` or more with no
    #: committed section since the previous scan.  0 disables the scan.
    watchdog_interval: int = 128
    watchdog_revocations: int = 6
    #: verify heap/log/section invariants after every rollback (slow;
    #: fault-injection campaigns run with this on)
    audit_rollbacks: bool = False
    #: deterministic fault-injection plan (:class:`repro.faults.FaultPlan`)
    faults: Any = None
    #: 0 = unlimited; otherwise StarvationError past this many cycles
    max_cycles: int = 0
    barrier_elision: bool = True
    trace: bool = False
    #: also trace every guest heap read/write as ``mem_read``/``mem_write``
    #: events (location tuples from :func:`repro.vm.heap.location_of`).
    #: High volume — meant for streaming consumers such as the lockset
    #: pass (:mod:`repro.check.lockset`); requires ``trace=True``.
    trace_memory: bool = False
    raise_on_uncaught: bool = True
    #: raise DeadlockError instead of revoking when a wait-for cycle forms
    #: (forces rollback mode to behave like the baseline for deadlocks)
    resolve_deadlocks: bool = True
    #: "fast" turns on the interpreter's predecode tier (basic blocks and
    #: superblocks, :mod:`repro.vm.predecode`); "reference" runs every
    #: instruction through the fallback chain, the differential oracle.
    #: Both produce byte-identical virtual clocks, traces, schedules and
    #: fingerprints.  ``trace_memory`` turns the tier off regardless
    #: (see :class:`~repro.vm.interpreter.Interpreter`).
    interp: str = "fast"
    #: attach the virtual-cycle profiler (:mod:`repro.obs.profile`):
    #: per-track/per-method cycle attribution whose totals equal the final
    #: virtual clock exactly.  Purely observational — a profiled run's
    #: schedule, trace and fingerprint are byte-identical to an
    #: unprofiled one.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scheduler not in ("round-robin", "priority"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.detection not in ("acquire", "periodic", "both"):
            raise ValueError(f"unknown detection mode {self.detection!r}")
        if self.interp not in ("fast", "reference"):
            raise ValueError(f"unknown interpreter {self.interp!r}")

    @property
    def modified(self) -> bool:
        """True when the load-time transformer and revocation runtime run."""
        return self.mode == "rollback"

    def with_(self, **changes) -> "VMOptions":
        return replace(self, **changes)


def _build_support(options: VMOptions) -> RuntimeSupport:
    if options.mode == "unmodified":
        return NullSupport()
    # Imported here: repro.core depends on repro.vm, not vice versa.
    from repro.core.policies import make_support

    return make_support(options.mode)


class JVM:
    """One virtual machine: load classes, spawn threads, run to quiescence."""

    def __init__(self, options: Optional[VMOptions] = None, **kwargs):
        if options is None:
            options = VMOptions(**kwargs)
        elif kwargs:
            options = options.with_(**kwargs)
        self.options = options
        self.cost_model = options.cost_model
        self.clock = VirtualClock()
        self.heap = Heap()
        self.natives = NativeRegistry()
        self.tracer = Tracer(enabled=options.trace)
        self.rng = DeterministicRng(options.seed)
        self.classes: dict[str, ClassDef] = {}
        self.threads: list[VMThread] = []
        self.current_thread: Optional[VMThread] = None
        self.uncaught: list[tuple[VMThread, Any]] = []
        self.support: RuntimeSupport = _build_support(options)
        self.support.attach(self)
        self.profiler = None
        if options.profile:
            # Imported here: repro.obs depends on repro.vm, not vice versa.
            from repro.obs.profile import CycleProfiler, ProfilingSupport

            self.profiler = CycleProfiler()
            self.clock.listener = self.profiler
            # Installed before the interpreter is constructed: it captures
            # vm.support once, and the proxy must be what it sees.
            self.support = ProfilingSupport(self.support, self.profiler)
        #: post-slice observers called as ``hook(vm)`` after every slice
        #: (counter-track samplers live here)
        self.slice_hooks: list = []
        self.fault_plane = None
        if options.faults is not None:
            from repro.faults.plane import FaultPlane

            self.fault_plane = FaultPlane(self, options.faults)
        self.interpreter = Interpreter(self)
        self.scheduler: BaseScheduler = (
            PriorityScheduler(self)
            if options.scheduler == "priority"
            else RoundRobinScheduler(self)
        )
        self._next_tid = 0
        self._ran = False
        self._next_periodic_scan = options.periodic_interval
        self._elision_done = False
        for name in BUILTIN_EXCEPTIONS:
            self._load_linked(
                ClassDef(name, fields=[FieldDef("message", "str")])
            )

    # ------------------------------------------------------------- loading
    def load(self, classdef: ClassDef) -> ClassDef:
        """Load a class: transform (modified VM), verify, link, register."""
        if classdef.name in self.classes:
            raise LinkError(f"class {classdef.name!r} already loaded")
        # Always copy: the same ClassDef is routinely loaded into several
        # VMs (modified vs unmodified comparison runs) and both the
        # transformer and the linker mutate instructions.
        classdef = classdef.copy()
        if self.options.modified:
            from repro.core.transform import transform_class

            classdef = transform_class(classdef)
        return self._load_linked(classdef)

    def _load_linked(self, classdef: ClassDef) -> ClassDef:
        classdef.verify()
        for method in classdef.methods.values():
            self._link_method(method)
        self.classes[classdef.name] = classdef
        self.heap.register_class(classdef)
        return classdef

    def _link_method(self, method: MethodDef) -> None:
        """Assign instruction costs and mark yield points.

        Yield points go on loop back-edges and method invocations,
        mirroring where the Jikes RVM compilers insert them (footnote 4).
        """
        cm = self.cost_model
        method.invalidate_decoded()  # linking invalidates any predecode
        for pc, ins in enumerate(method.code):
            ins.cost = cm.instruction_cost(ins.op)
            if ins.op == bc.INVOKE:
                callee = ins.a[1] if isinstance(ins.a, tuple) else ""
                if callee.endswith("$impl"):
                    # The paper inlines the renamed original method into its
                    # wrapper; no invoke cost, no prologue yield point.
                    ins.cost = 0
                    ins.ypoint = False
                else:
                    ins.ypoint = True
            elif bc.is_branch(ins.op) and isinstance(ins.a, int):
                ins.ypoint = bc.is_backward_branch(ins, pc)

    # ------------------------------------------------------------ resolution
    def classdef(self, name: str) -> ClassDef:
        try:
            return self.classes[name]
        except KeyError:
            raise LinkError(f"class {name!r} not loaded") from None

    def resolve_method(self, class_name: str, method_name: str) -> MethodDef:
        return self.classdef(class_name).method(method_name)

    def resolve_native(self, name: str):
        return self.natives.resolve(name)

    def register_native(self, name: str, fn) -> None:
        self.natives.register(name, fn)

    @property
    def console(self) -> list[str]:
        return self.natives.console

    # -------------------------------------------------------------- threads
    def spawn(
        self,
        class_name: str,
        method_name: str,
        args: list | tuple = (),
        *,
        priority: int = 5,
        name: Optional[str] = None,
    ) -> VMThread:
        """Create and start a guest thread running ``class.method(args)``."""
        if self._ran:
            raise VMStateError("cannot spawn threads after run() completed")
        method = self.resolve_method(class_name, method_name)
        if method.argc != len(args):
            raise LinkError(
                f"{method.qualified_name()} takes {method.argc} args, "
                f"got {len(args)}"
            )
        tid = self._next_tid
        self._next_tid += 1
        thread = VMThread(
            tid,
            name or f"thread-{tid}",
            method,
            list(args),
            priority=priority,
            rng=self.rng.spawn("thread", tid),
        )
        self.threads.append(thread)
        thread.start()
        self.scheduler.make_ready(thread)
        self.trace("spawn", thread, priority=priority)
        return thread

    # ------------------------------------------------------------------ run
    def run(self) -> "JVM":
        """Drive every spawned thread to termination."""
        if self._ran:
            raise VMStateError("run() already completed for this VM")
        self.begin_run()
        self.scheduler.run()
        return self.finish_run()

    def begin_run(self) -> None:
        """One-time pre-run work (load-time barrier elision); idempotent.

        Split out of :meth:`run` so checkpoint-driven steppers
        (:mod:`repro.check.dpor`) can own the ``scheduler.step()`` loop
        while keeping the exact semantics of a plain ``run()``.
        """
        if self.options.modified and self.options.barrier_elision:
            self._run_barrier_elision()

    def finish_run(self) -> "JVM":
        """Mark the run complete and surface the first uncaught guest
        exception (honouring ``options.raise_on_uncaught``)."""
        self._ran = True
        if self.uncaught and self.options.raise_on_uncaught:
            thread, exc = self.uncaught[0]
            raise UncaughtGuestException(
                thread.name,
                exc.classdef.name,
                str(exc.fields.get("message", "")),
            )
        return self

    def _run_barrier_elision(self) -> None:
        if self._elision_done:
            return
        from repro.core.transform import elide_barriers

        elide_barriers(self.classes.values())
        self._elision_done = True

    def after_slice(self) -> None:
        """Scheduler callback after every execution slice."""
        if self.options.detection in ("periodic", "both"):
            if self.clock.now >= self._next_periodic_scan:
                self.support.periodic_scan()
                self._next_periodic_scan = (
                    self.clock.now + self.options.periodic_interval
                )
        if self.fault_plane is not None:
            self.fault_plane.on_slice_end()
        for hook in self.slice_hooks:
            hook(self)

    # ------------------------------------------------------------- services
    def charge(
        self,
        thread: Optional[VMThread],
        cycles: int,
        kind: Optional[str] = None,
    ) -> None:
        """Advance virtual time for runtime work done on a thread's behalf.

        ``kind`` labels the cycles for the profiler (e.g. ``"rollback"``
        for undo-log restores); unlabeled charges inherit the current
        scheduling context's category.
        """
        prof = self.profiler
        if prof is not None and kind is not None:
            prev = prof.push_category(kind)
            self.clock.advance(cycles)
            prof.pop_category(prev)
            prof.note_mechanism(thread, kind, cycles)
        else:
            self.clock.advance(cycles)
        if thread is not None:
            thread.cycles_executed += cycles
            thread.quantum_used += cycles

    def make_guest_exception(self, class_name: str, message: str) -> VMObject:
        try:
            classdef = self.classdef(class_name)
        except LinkError:
            classdef = self.classdef("RuntimeException")
        obj = self.heap.allocate(classdef)
        if "message" in obj.fields:
            obj.fields["message"] = message
        return obj

    def credit_blocked(self, thread: VMThread) -> int:
        """Close ``thread``'s open blocked interval at the current clock
        and mirror the credit into the profiler's blocked attribution.
        The single funnel for every un-block path (grants, wakes,
        revocation wakes) — spans, metrics and the profiler all agree
        because they all read this one moment."""
        cycles = thread.credit_blocked(self.clock.now)
        if cycles and self.profiler is not None:
            self.profiler.note_blocked(thread.name, cycles)
        return cycles

    def record_uncaught(self, thread: VMThread, exc: VMObject) -> None:
        self.uncaught.append((thread, exc))
        self.trace("uncaught", thread, exc=exc.classdef.name)

    def trace(self, kind: str, thread: Optional[VMThread], **details) -> None:
        if not self.tracer.enabled:
            return
        clean = {}
        for k, v in details.items():
            if isinstance(v, VMThread):
                clean[k] = v.name
            elif isinstance(v, Monitor):
                clean[k] = repr(v.obj)
            else:
                clean[k] = v
        self.tracer.record(
            self.clock.now, kind, thread.name if thread else None, **clean
        )

    # ------------------------------------------------------------ host access
    def new_object(self, class_name: str) -> VMObject:
        """Host-side allocation (for wiring up thread arguments)."""
        return self.heap.allocate(self.classdef(class_name))

    def new_array(self, length: int, fill: Any = 0):
        return self.heap.allocate_array(length, fill)

    def get_static(self, class_name: str, field_name: str) -> Any:
        return self.heap.get_static((class_name, field_name))

    def set_static(self, class_name: str, field_name: str, value: Any) -> None:
        self.heap.put_static((class_name, field_name), value)

    def thread_named(self, name: str) -> VMThread:
        for t in self.threads:
            if t.name == name:
                return t
        raise VMStateError(f"no thread named {name!r}")

    # -------------------------------------------------------------- metrics
    def metrics(self) -> dict[str, Any]:
        """Aggregate execution metrics (both VMs report the same schema)."""
        per_thread = {}
        for t in self.threads:
            per_thread[t.name] = {
                "priority": t.priority,
                "state": t.state.value,
                "start_time": t.start_time,
                "end_time": t.end_time,
                "cycles_executed": t.cycles_executed,
                "instructions": t.instructions_executed,
                "blocked_cycles": t.blocked_cycles,
                "revocations": t.revocations,
            }
        support_metrics = {}
        collect = getattr(self.support, "collect_metrics", None)
        if callable(collect):
            support_metrics = collect()
        return {
            "mode": self.options.mode,
            "elapsed_cycles": self.clock.now,
            "context_switches": self.scheduler.context_switches,
            "slices": self.scheduler.slices,
            "watchdog_trips": self.scheduler.watchdog_trips,
            "threads": per_thread,
            "support": support_metrics,
            "trace": {
                "events": len(self.tracer.events),
                "dropped": self.tracer.dropped,
                "sink_errors": self.tracer.sink_errors,
            },
        }

    def all_terminated(self) -> bool:
        return all(
            t.state is ThreadState.TERMINATED for t in self.threads
        )
