"""The VM substrate: a deterministic, virtual-time mini-JVM.

This package implements everything the paper's evaluation platform (Jikes
RVM 2.2.1) provided to the authors: a heap of objects with fields and
monitors, green threads scheduled round-robin with pseudo-preemption at
compiler-inserted yield points, a bytecode interpreter, and per-method
exception tables.  The paper's contribution itself lives in
:mod:`repro.core` and is layered on top of this substrate.

Public entry points:

* :class:`repro.vm.vmcore.JVM` — the virtual machine facade.
* :class:`repro.vm.assembler.Asm` — structured bytecode builder.
* :class:`repro.vm.classfile.ClassDef` and friends — the class model.
* :class:`repro.vm.clock.CostModel` — the virtual-time cost model.
"""

from repro.vm.values import NULL, default_value, is_reference, truthy
from repro.vm.classfile import (
    ClassDef,
    ExceptionTableEntry,
    FieldDef,
    MethodDef,
    ROLLBACK_TYPE,
    THROWABLE,
)
from repro.vm.bytecode import Instruction, mnemonic
from repro.vm.assembler import Asm, Label
from repro.vm.heap import Heap, VMArray, VMObject
from repro.vm.clock import CostModel, VirtualClock
from repro.vm.monitors import Monitor
from repro.vm.threads import Frame, ThreadState, VMThread
from repro.vm.scheduler import PriorityScheduler, RoundRobinScheduler
from repro.vm.timeline import render_timeline
from repro.vm.vmcore import JVM, VMOptions

__all__ = [
    "NULL",
    "default_value",
    "is_reference",
    "truthy",
    "ClassDef",
    "ExceptionTableEntry",
    "FieldDef",
    "MethodDef",
    "ROLLBACK_TYPE",
    "THROWABLE",
    "Instruction",
    "mnemonic",
    "Asm",
    "Label",
    "Heap",
    "VMArray",
    "VMObject",
    "CostModel",
    "VirtualClock",
    "Monitor",
    "Frame",
    "ThreadState",
    "VMThread",
    "PriorityScheduler",
    "RoundRobinScheduler",
    "JVM",
    "VMOptions",
    "render_timeline",
]
