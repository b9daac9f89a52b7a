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

import functools
import hashlib
import pickle
from collections import OrderedDict
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


# ------------------------------------------------------------ program image
#: program images kept per process, the least recently used evicted
#: first.  Reuse comes from VMs of one program (a checker scenario's
#: cells, a panel's repetitions, the server cells of one preset at
#: every seed); campaigns whose cells are distinct programs (~0.3 MB an
#: image with its templates) only pay memory for a larger bound.
IMAGE_CACHE_SIZE = 64

_images: "OrderedDict[str, ProgramImage]" = OrderedDict()


def _fetch_image(inputs: tuple, blobs: tuple, digest: str) -> "ProgramImage":
    image = _images.get(digest)
    if image is not None:
        _images.move_to_end(digest)
        return image
    image = _images[digest] = ProgramImage(inputs, blobs, digest)
    if len(_images) > IMAGE_CACHE_SIZE:
        _images.popitem(last=False)
    return image


@functools.lru_cache(maxsize=64)
def _root_digest(inputs: tuple) -> str:
    return hashlib.sha256(
        pickle.dumps(("program-image", inputs), pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def _chain_digest(parent: str, blob: bytes) -> str:
    return hashlib.sha256(parent.encode() + blob).hexdigest()


def _load_image(inputs: tuple, blobs: tuple) -> "ProgramImage":
    """Unpickle target of :meth:`ProgramImage.__reduce__`: the cached
    image of that recipe, built here if this process has none."""
    digest = _root_digest(inputs)
    for blob in blobs:
        digest = _chain_digest(digest, blob)
    return _fetch_image(inputs, blobs, digest)


def _link(method: MethodDef, classes: dict[str, ClassDef],
          cm: CostModel) -> None:
    """Link ``method`` against the program's ``classes``: assign
    instruction costs, mark yield points, and store each INVOKE's callee
    and each NEW's class in ``Instruction.c`` (None when the program
    lacks it: executing the instruction then raises, as resolving the
    name by hand would).

    Yield points go on loop back-edges and method invocations,
    mirroring where the Jikes RVM compilers insert them (footnote 4).
    A call to a ``force_inline`` method has neither an invoke cost nor
    a prologue yield point: the paper inlines the transformer's renamed
    method into its wrapper.
    """
    for pc, ins in enumerate(method.code):
        ins.cost = cm.instruction_cost(ins.op)
        ins.ypoint = bc.is_backward_branch(ins, pc)
        if ins.op == bc.INVOKE:
            owner = classes.get(ins.a[0])
            ins.c = None if owner is None else owner.methods.get(ins.a[1])
            if ins.c is not None and ins.c.force_inline:
                ins.cost = 0
            else:
                ins.ypoint = True
        elif ins.op == bc.NEW:
            ins.c = classes.get(ins.a)


def _program_objects(classes) -> list:
    """Every program object a VM's state can reference, in a fixed
    order: the heap's ``Class`` classdef, then each class with its
    methods, instructions, handlers and rollback scopes (no state
    references a field's definition but through its class)."""
    objects = [Heap._CLASS_CLASSDEF]
    for classdef in classes:
        objects.append(classdef)
        for method in classdef.methods.values():
            objects.append(method)
            objects.extend(method.code)
            objects.extend(method.exc_table)
            objects.extend(method.rollback_scopes.values())
    return objects


class ProgramImage:
    """One program, built once per process and shared by every VM that
    runs it.

    The image is keyed by :attr:`digest`, a digest of every input the
    load path reads: whether the transformer runs (``modified``),
    whether barriers are elided, the cost model (quantum and
    read-barrier cost included), whether the VM has a cycle cap
    (``capped``; the cap's value is each VM's own, read by generated
    code from its namespace), and the pickled bytes of each loaded
    :class:`ClassDef` in load order.  It holds the
    builtin exception classes plus the loaded ones, transformed,
    verified, linked and barrier-elided over the whole class set (the
    link stores each INVOKE's callee and each NEW's class in
    ``Instruction.c``), and, filled at first execution, each method's
    predecode template (generated source, code object, constant pool).
    A :class:`JVM` keeps only mutable state on top: heap, class objects
    and statics, threads, scheduler, support, fault plane, and its own
    decoded functions.

    Nothing writes an image after it is built: per-VM objects such as
    class objects and natives are looked up per execution, and a VM
    loads every class before it spawns its first thread, so a loaded
    program never changes under a frame or a decoded method.

    :attr:`objects` lists every program object in a deterministic
    order, so a VM checkpoint can name them by index instead of
    pickling them (:mod:`repro.vm.snapshot`).  An image pickles as its
    recipe and unpickles through the cache of the receiving process.
    """

    def __init__(self, inputs: tuple, blobs: tuple, digest: str) -> None:
        modified, elide, cost_model, capped = inputs
        self.inputs = inputs
        self.blobs = blobs
        self.digest = digest
        self.modified = modified
        self.cost_model = cost_model
        self.capped = capped
        classes: dict[str, ClassDef] = {}
        for name in BUILTIN_EXCEPTIONS:
            classes[name] = ClassDef(name, fields=[FieldDef("message", "str")])
        for blob in blobs:
            classdef = pickle.loads(blob)
            if modified:
                # Imported here: repro.core depends on repro.vm.
                from repro.core.transform import transform_class

                classdef = transform_class(classdef)
            classes[classdef.name] = classdef
        for classdef in classes.values():
            classdef.verify()
            for method in classdef.methods.values():
                _link(method, classes, cost_model)
        if elide:
            from repro.core.transform import elide_barriers

            elide_barriers(classes.values())
        self.classes = classes
        #: every static's ``(class, field)`` key, for predecode to test
        self.statics = frozenset(
            (classdef.name, f.name)
            for classdef in classes.values()
            for f in classdef.static_fields()
        )
        self.objects = [self] + _program_objects(classes.values())
        #: ``id`` of each program object -> its index in :attr:`objects`
        self.index = {id(obj): i for i, obj in enumerate(self.objects)}
        #: object index -> predecode template
        self.templates: dict = {}

    @classmethod
    def root(cls, options: VMOptions) -> "ProgramImage":
        """The image of the builtin classes under ``options``."""
        inputs = (
            options.modified,
            options.modified and options.barrier_elision,
            options.cost_model,
            bool(options.max_cycles),
        )
        return _load_image(inputs, ())

    def extend(self, classdef: ClassDef) -> "ProgramImage":
        """The image of this program plus ``classdef``."""
        blob = pickle.dumps(classdef, pickle.HIGHEST_PROTOCOL)
        return _fetch_image(self.inputs, self.blobs + (blob,),
                            _chain_digest(self.digest, blob))

    def template(self, method: MethodDef):
        """The predecode template of ``method``, built at first use."""
        i = self.index[id(method)]
        template = self.templates.get(i)
        if template is None:
            from repro.vm.predecode import build_template

            template = self.templates[i] = build_template(method, self)
        return template

    def __reduce__(self):
        return _load_image, (self.inputs, self.blobs)


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
        self.image = ProgramImage.root(options)
        self.threads: list[VMThread] = []
        #: how many of ``threads`` are in each state, kept by the
        #: ``VMThread.state`` setter of every spawned thread
        self.census: dict[ThreadState, int] = dict.fromkeys(ThreadState, 0)
        self.current_thread: Optional[VMThread] = None
        self.uncaught: list[tuple[VMThread, Any]] = []
        self.support: RuntimeSupport = _build_support(options)
        self.support.attach(self)
        self.profiler = None
        if options.profile:
            # Imported here: repro.obs depends on repro.vm, not vice versa.
            from repro.obs.profile import CycleProfiler

            self.profiler = CycleProfiler(self.clock)
            # Barrier and undo-log cycles are attributed from the hit
            # counters the support's read-barrier guard exposes.
            guard = self.support.read_barrier_guard()
            if guard is not None:
                self.profiler.watch_barriers(guard[1], self.cost_model)
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
        for classdef in self.image.classes.values():
            self.heap.register_class(classdef)

    # ------------------------------------------------------------- loading
    @property
    def classes(self) -> dict[str, ClassDef]:
        """Loaded classes by name, builtins first (the image's table)."""
        return self.image.classes

    def load(self, classdef: ClassDef) -> ClassDef:
        """Load a class: transform (modified VM), verify, link, register.

        The VM moves onto the :class:`ProgramImage` of its program plus
        ``classdef``, fetched from the process cache or built there;
        ``classdef`` itself is only read.  Every class is loaded before
        the first :meth:`spawn`, so a loaded program never changes under
        a thread.  Returns the loaded class."""
        if self.threads:
            raise VMStateError("cannot load classes after spawning threads")
        if classdef.name in self.image.classes:
            raise LinkError(f"class {classdef.name!r} already loaded")
        self.image = self.image.extend(classdef)
        loaded = self.image.classes[classdef.name]
        self.heap.register_class(loaded)
        return loaded

    # ------------------------------------------------------------ resolution
    def classdef(self, name: str) -> ClassDef:
        try:
            return self.image.classes[name]
        except KeyError:
            raise LinkError(f"class {name!r} not loaded") from None

    def resolve_method(self, class_name: str, method_name: str) -> MethodDef:
        method = self.classdef(class_name).methods.get(method_name)
        if method is None:
            raise LinkError(f"no method {class_name}.{method_name}")
        return method

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
        thread.census = self.census
        self.census[ThreadState.NEW] += 1
        thread.start()
        self.scheduler.make_ready(thread)
        self.trace("spawn", thread, priority=priority)
        return thread

    # ------------------------------------------------------------------ run
    def run(self) -> "JVM":
        """Drive every spawned thread to termination."""
        if self._ran:
            raise VMStateError("run() already completed for this VM")
        self.scheduler.run()
        return self.finish_run()

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
    def charge(self, thread: Optional[VMThread], cycles: int) -> None:
        """Advance virtual time for runtime work done on a thread's behalf."""
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
        """Record one event.  Threads and monitors in ``details`` become
        their names and labels in place: ``details`` is this call's own
        dict, handed to the tracer without a copy."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        for k, v in details.items():
            cls = type(v)
            if cls is VMThread:
                details[k] = v.name
            elif cls is Monitor:
                details[k] = v.label
        tracer.record(
            self.clock.now, kind,
            None if thread is None else thread.name, details,
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
        return self.census[ThreadState.TERMINATED] == len(self.threads)
