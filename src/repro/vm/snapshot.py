"""Serialized deterministic VM checkpoints (snapshot / restore).

A snapshot captures *everything the guest can observe*: heap objects,
arrays and statics, thread stacks (frames, operand stacks, saved-state
slots), monitors (owners, entry queues, wait sets), scheduler queues and
sleepers, the virtual clock, per-thread and global RNG state, the runtime
support layer (undo logs, section records, JMM dependency runs, site
degradation ladders), the fault plane, and the stored trace.  Restoring a
snapshot yields an *independent* VM positioned at exactly the captured
point: driving it forward produces byte-identical clocks, traces, metrics
and final-state fingerprints to a from-zero replay of the same schedule
(pinned by ``tests/test_vm_snapshot.py`` under both interpreters).

The schedule checker's DPOR engine (:mod:`repro.check.dpor`) checkpoints
at scheduler decision points so explored prefixes resume from snapshots
instead of replaying from cycle zero; the time-travel debugger
(:mod:`repro.obs.debug`) seeks over a stream of them.

The scheduler's decision hook *is* captured.  It decides which schedule
the run takes — a checker controller's prefix position and last-run
thread, a DPOR stepper's committed choices — so it is part of the state
a continuation depends on, exactly like the ready queue.  A restored VM
resumes under its own copy of the hook and needs nothing re-armed; a
hook that cannot be pickled fails loudly like any other unpicklable
state.

What a snapshot deliberately does **not** capture:

* **External observers** — tracer sinks and post-slice hooks.  They
  only watch the run: they reference host-side analyses whose state is
  not part of the VM, and callers reinstall what they need on the
  restored VM.  (The cycle profiler *is* VM state: it is carried across
  with its mark on the clock, and books on the restored VM's own clock.)
* **The program image** — the VM's :class:`~repro.vm.vmcore.ProgramImage`
  (classes, methods, fields, instructions) is shared and never changes,
  so the blob names each program object by its index in the image's
  object table; the :class:`VMSnapshot` holds the image, and
  :func:`restore_vm` resolves the indices through it.  The stream holds
  no ``id()``, so equal VMs pickle to equal bytes.  A pickled snapshot
  carries its image as a recipe (its inputs), which the receiving
  process turns back into the same image through its own cache.
* **Decoded methods** — the predecode tier's blocks and superblocks are
  functions bound to one VM's runtime, kept in its interpreter and left
  out of the serialized state.  A restored VM instantiates them again
  from the image's templates on next execution, which is observably
  free (virtual costs were assigned at link time).

A checkpoint is one ``pickle`` blob: the master inside a
:class:`VMSnapshot` is bytes, so it can never be executed, and every
:func:`restore_vm` call unpickles a fresh independent VM, so one
checkpoint can seed any number of divergent continuations.  VM state must
therefore be picklable — native methods, for instance, must be
module-level functions, not closures — and :func:`snapshot_vm` raises
``ValueError`` naming the offending type otherwise.  Stored trace events
are immutable and kept outside the blob, shared structurally between the
original VM, the snapshot, and every restore — checkpointing stays
O(live state), not O(execution history).
"""

from __future__ import annotations

import io
import pickle
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM

#: what ``pickle`` raises on state it cannot serialize (a lambda, a
#: nested function, a lock, an open file)
_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


class VMSnapshot:
    """One frozen checkpoint of a :class:`~repro.vm.vmcore.JVM`.

    Treat instances as opaque: the master is a serialized VM that only
    :func:`restore_vm` turns back into a runnable one, through the
    program image the snapshot holds.
    """

    __slots__ = ("_master", "_image", "_events", "clock_now", "slices",
                 "decisions")

    def __init__(self, vm: "JVM", master: bytes, events: tuple) -> None:
        self._master = master
        self._image = vm.image
        self._events = events
        #: capture-time identity, handy for assertions and debug output
        self.clock_now = vm.clock.now
        self.slices = vm.scheduler.slices
        self.decisions = vm.scheduler.decisions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VMSnapshot(clock={self.clock_now}, slices={self.slices}, "
            f"decisions={self.decisions}, events={len(self._events)}, "
            f"bytes={len(self._master)})"
        )


def _image_object(index: int):
    """Stand-in the blob names for a program object; :func:`restore_vm`
    resolves it through the snapshot's image instead."""
    raise pickle.UnpicklingError(
        "a VM checkpoint unpickles only through restore_vm"
    )


class _Pickler(pickle.Pickler):
    """Pickles a VM, writing its image's objects as indices."""

    def __init__(self, file, image) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._index = image.index

    def reducer_override(self, obj):
        i = self._index.get(id(obj))
        if i is None:
            return NotImplemented
        return _image_object, (i,)


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, image) -> None:
        super().__init__(file)
        self._resolve = image.objects.__getitem__

    def find_class(self, module: str, name: str):
        if module == __name__ and name == "_image_object":
            return self._resolve
        return super().find_class(module, name)


class _LastObject(_Pickler):
    """Snapshot pickler that remembers the last object it was asked to
    save."""

    last = None

    def reducer_override(self, obj):
        self.last = obj
        return super().reducer_override(obj)


def _unpicklable(vm: "JVM") -> str:
    """Describe the object that stops ``vm`` from pickling."""
    probe = _LastObject(io.BytesIO(), vm.image)
    try:
        probe.dump(vm)
    except _UNPICKLABLE:
        pass
    obj = probe.last
    kind = type(obj)
    name = kind.__qualname__
    if kind.__module__ != "builtins":
        name = f"{kind.__module__}.{name}"
    qualname = getattr(obj, "__qualname__", None)
    return f"{name} {qualname!r}" if isinstance(qualname, str) else name


def snapshot_vm(vm: "JVM") -> VMSnapshot:
    """Capture a deterministic checkpoint of ``vm`` as one pickle blob.

    The VM must be at a quiescent point between scheduler steps (no slice
    in flight): ``vm.current_thread`` is None there and every mutation is
    parked in heap/thread/scheduler state.  The original VM is returned to
    service untouched (observers reattached, trace log back in place),
    also when its state cannot be serialized.
    """
    if vm.current_thread is not None:
        raise ValueError(
            "snapshot_vm requires a quiescent VM (between scheduler "
            "steps); a slice is currently executing"
        )
    tracer = vm.tracer
    # Detach the observers a snapshot must not capture. Trace events are
    # swapped out and shared structurally: a TraceEvent is a slotted
    # record that is never mutated once recorded, so the checkpoint and
    # every VM restored from it hold the same event objects.
    sinks, tracer._sinks = tracer._sinks, []
    slice_hooks, vm.slice_hooks = vm.slice_hooks, []
    events, tracer.events = tracer.events, []
    buf = io.BytesIO()
    try:
        _Pickler(buf, vm.image).dump(vm)
    except _UNPICKLABLE as exc:
        raise ValueError(
            f"snapshot_vm cannot serialize VM state: {_unpicklable(vm)} "
            "is not picklable (register natives and decision hooks as "
            "module-level functions or objects, not closures)"
        ) from exc
    finally:
        tracer._sinks = sinks
        vm.slice_hooks = slice_hooks
        tracer.events = events
    return VMSnapshot(vm, buf.getvalue(), tuple(events))


def restore_vm(snapshot: VMSnapshot) -> "JVM":
    """Materialize an independent runnable VM from ``snapshot``.

    Each call unpickles the master afresh, so restoring the same
    checkpoint twice yields two fully isolated continuations, each under
    its own copy of the decision hook, on the snapshot's program image.
    Observers (tracer sinks, slice hooks) come back empty.
    """
    vm = _Unpickler(io.BytesIO(snapshot._master), snapshot._image).load()
    vm.tracer.events = list(snapshot._events)
    return vm
