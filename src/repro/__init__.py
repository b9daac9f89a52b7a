"""repro — reproduction of *Preemption-Based Avoidance of Priority
Inversion for Java* (Welc, Hosking, Jagannathan; ICPP 2004).

The package provides:

* a deterministic virtual-time JVM substrate (:mod:`repro.vm`),
* the paper's revocable-synchronized-sections runtime and bytecode
  transformer (:mod:`repro.core`),
* the evaluation harness regenerating the paper's Figures 5–8
  (:mod:`repro.bench`),
* a deterministic observability plane — causal spans, an exact
  virtual-cycle profiler and Perfetto-openable trace export
  (:mod:`repro.obs`, CLI ``python -m repro.obs``).

Quickstart::

    from repro import JVM, VMOptions, Asm, ClassDef, FieldDef

    counter = ClassDef("Counter", fields=[
        FieldDef("value", "int", is_static=True),
        FieldDef("lock", "ref", is_static=True),
    ])
    run = Asm("run", argc=0)
    run.getstatic("Counter", "lock")
    with run.sync():
        loop = run.local()
        run.for_range(loop, lambda: run.const(1000), lambda: (
            run.getstatic("Counter", "value"),
            run.const(1), run.add(),
            run.putstatic("Counter", "value"),
        ))
    run.ret()
    counter.add_method(run.build())

    vm = JVM(VMOptions(mode="rollback"))
    vm.load(counter)
    vm.set_static("Counter", "lock", vm.new_object("Counter"))
    for i in range(4):
        vm.spawn("Counter", "run", priority=1 + i, name=f"t{i}")
    vm.run()
    assert vm.get_static("Counter", "value") == 4000
"""

from repro.errors import (
    DeadlockError,
    GuestRuntimeError,
    InvariantViolation,
    LinkError,
    ReproError,
    StarvationError,
    TransformError,
    UncaughtGuestException,
    VerifyError,
    VMStateError,
)
from repro.faults import FaultPlan
from repro.vm import (
    Asm,
    ClassDef,
    CostModel,
    ExceptionTableEntry,
    FieldDef,
    Instruction,
    JVM,
    Label,
    MethodDef,
    Monitor,
    NULL,
    PriorityScheduler,
    RoundRobinScheduler,
    ThreadState,
    VMArray,
    VMObject,
    VMOptions,
    VMThread,
    VirtualClock,
    render_timeline,
)
from repro.lang import CompileError, LexError, ParseError, compile_source
from repro.core import (
    JmmTracker,
    RollbackSupport,
    Section,
    SupportMetrics,
    UndoLog,
    elide_barriers,
    make_support,
    set_ceiling,
    transform_class,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "DeadlockError",
    "GuestRuntimeError",
    "InvariantViolation",
    "LinkError",
    "ReproError",
    "StarvationError",
    "TransformError",
    "UncaughtGuestException",
    "VerifyError",
    "VMStateError",
    # faults
    "FaultPlan",
    # vm
    "Asm",
    "ClassDef",
    "CostModel",
    "ExceptionTableEntry",
    "FieldDef",
    "Instruction",
    "JVM",
    "Label",
    "MethodDef",
    "Monitor",
    "NULL",
    "PriorityScheduler",
    "RoundRobinScheduler",
    "ThreadState",
    "VMArray",
    "VMObject",
    "VMOptions",
    "VMThread",
    "VirtualClock",
    "render_timeline",
    # lang
    "CompileError",
    "LexError",
    "ParseError",
    "compile_source",
    # core
    "JmmTracker",
    "RollbackSupport",
    "Section",
    "SupportMetrics",
    "UndoLog",
    "elide_barriers",
    "make_support",
    "set_ceiling",
    "transform_class",
    "__version__",
]
