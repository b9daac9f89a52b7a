"""Program images: one transformed, linked, barrier-elided program per
process per input digest, shared by every VM that runs it.

These tests pin what sharing must never cost: two VMs of one image share
no mutable object and cannot perturb each other's runs; every input the
load path reads is in the key, a cycle cap only as set or unset, so VMs
with different caps (server cells of one preset) share an image yet
each stops at its own cap; runs leave cached images as they were built;
a VM loads no class once it has a thread, so its program never changes;
and a checkpoint names program objects instead of pickling them, yet
still restores in another process.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import io
import pickle
import subprocess
import sys
import types
from enum import Enum
from pathlib import Path

import pytest

from conftest import build_class, drain, probe_superblocks
from repro.bench.figures import FigurePanel
from repro.bench.microbench import setup_microbench_vm
from repro.check.explorer import ScheduleController, check_vm
from repro.check.oracle import final_fingerprint, fingerprint_digest
from repro.check.scenarios import get_scenario
from repro.errors import StarvationError, VMStateError
from repro.obs.capture import ObsSpec, build_capture_vm, run_capture
from repro.vm import bytecode as bc
from repro.vm import snapshot as snapshot_mod
from repro.vm import vmcore
from repro.vm.assembler import Asm
from repro.vm.bytecode import Instruction
from repro.vm.classfile import ClassDef, FieldDef, MethodDef
from repro.vm.clock import CostModel
from repro.vm.predecode import _module_code
from repro.vm.snapshot import restore_vm, snapshot_vm
from repro.vm.vmcore import JVM, VMOptions

SRC = Path(__file__).resolve().parents[1] / "src"

MODES = ("unmodified", "rollback", "inheritance", "ceiling")


def _trio(mode: str = "rollback", **overrides) -> JVM:
    return check_vm(get_scenario("handoff-trio"), mode, trace=True,
                    **overrides)


def _observe(vm: JVM, outcome: str) -> tuple:
    return (outcome, vm.clock.now, vm.clock.events, vm.tracer.render(),
            vm.metrics(),
            fingerprint_digest(final_fingerprint(vm, outcome)))


def _run(vm: JVM) -> tuple:
    return _observe(vm, drain(vm))


# ------------------------------------------------------------- isolation
_SHARED_OK = (int, float, complex, str, bytes, bool, type(None), tuple,
              frozenset, range, types.CodeType)


def _reachable(root, image) -> dict[int, object]:
    """Objects reachable from ``root`` through ``gc.get_referents``,
    stopping at the image's objects, modules and classes.  A bound
    method is followed to its receiver; a function to its closure
    cells, and to its globals only when those are a generated
    namespace (no ``__name__``) rather than a module's."""
    stop = image.index
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in stop:
            continue
        if isinstance(obj, (types.ModuleType, type)):
            continue
        if isinstance(obj, types.BuiltinFunctionType) and isinstance(
                getattr(obj, "__self__", None), (types.ModuleType,
                                                 type(None))):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (types.MethodType, types.BuiltinMethodType)):
            stack.append(obj.__self__)
        elif isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
            if "__name__" not in obj.__globals__:
                stack.append(obj.__globals__)
        else:
            stack.extend(gc.get_referents(obj))
    return seen


def _immutable(obj) -> bool:
    if isinstance(obj, (Enum, types.FunctionType, types.CellType)):
        # shared code (module-level natives, helpers), never state; a
        # function's cells are walked like any other referent
        return True
    if isinstance(obj, _SHARED_OK):
        return not isinstance(obj, tuple) or all(
            _immutable(x) or isinstance(x, type) for x in obj)
    return type(obj).__name__ == "_Null"


def test_two_vms_of_one_image_share_no_mutable_object():
    one, two = _trio(interp="fast"), _trio(interp="fast")
    assert one.image is two.image
    drain(one)  # decoded functions, cache cells, heap all populated
    drain(two)
    a = _reachable(one, one.image)
    b = _reachable(two, two.image)
    shared = [a[i] for i in a.keys() & b.keys()]
    mutable = [type(o).__qualname__ for o in shared if not _immutable(o)]
    assert mutable == []


@pytest.mark.parametrize("interp", ["fast", "reference"])
def test_one_vm_running_leaves_the_others_run_unchanged(interp):
    first, second = _trio(interp=interp), _trio(interp=interp)
    _run(first)
    observed = _run(second)
    vmcore._images.clear()
    cold = _trio(interp=interp)
    assert cold.image is not second.image
    assert _run(cold) == observed


# -------------------------------------------------------------- the key
def test_building_handoff_trio_twice_hits_per_mode():
    for mode in MODES:
        assert _trio(mode).image is _trio(mode).image


def _image(mode="rollback", classdef=None, **options) -> vmcore.ProgramImage:
    vm = JVM(VMOptions(mode=mode, **options))
    if classdef is None:
        classdef = get_scenario("handoff-trio").build().classdef
    vm.load(classdef)
    return vm.image


def test_every_key_input_misses():
    base = _image()
    cm = CostModel()
    other_class = get_scenario("mini-handoff").build().classdef
    changed = {
        "classdef": _image(classdef=other_class),
        "modified": _image(mode="unmodified"),
        "barrier_elision": _image(barrier_elision=False),
        "cost model": _image(
            cost_model=dataclasses.replace(cm, heap_access=5)),
        "quantum": _image(cost_model=dataclasses.replace(cm, quantum=7)),
        "read-barrier cost": _image(
            cost_model=dataclasses.replace(cm, read_barrier=2)),
        # whether a cap exists, not its value (see the test below)
        "a cycle cap": _image(max_cycles=123_456),
    }
    assert _image() is base
    for name, image in changed.items():
        assert image is not base, name
        assert image.digest != base.digest, name


def test_different_cycle_caps_hit_one_image():
    assert _image(max_cycles=123_456) is _image(max_cycles=654_321)


def test_an_edited_source_class_misses():
    edited = get_scenario("handoff-trio").build().classdef
    edited.add_field(FieldDef("extra", "int", is_static=True))
    assert _image(classdef=edited) is not _image()


def test_the_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(vmcore, "IMAGE_CACHE_SIZE", 3)
    vmcore._images.clear()
    for quantum in range(1, 6):
        JVM(VMOptions(cost_model=CostModel(quantum=quantum)))
    assert len(vmcore._images) == 3


# ----------------------------------------------------------- cycle caps
def _counting_loop(vm: JVM) -> None:
    loop = Asm("run")
    i = loop.local("i")
    loop.for_range(i, lambda: loop.const(1_000_000), lambda: (
        loop.getstatic("L", "n").const(1).add().putstatic("L", "n")))
    loop.ret()
    vm.load(build_class("L", ["n"], [loop]))
    vm.spawn("L", "run", name="t0")


def _capped(cap: int, interp: str = "fast") -> JVM:
    vm = JVM(VMOptions(interp=interp, max_cycles=cap))
    _counting_loop(vm)
    return vm


def _starve(vm: JVM) -> tuple:
    """Step ``vm`` until its cap stops it: (cap, clock, flush events,
    loop count)."""
    with pytest.raises(StarvationError) as caught:
        while vm.scheduler.step():
            pass
    return (caught.value.cycles, vm.clock.now, vm.clock.events,
            vm.get_static("L", "n"))


def test_vms_of_one_image_starve_at_their_own_caps(monkeypatch):
    runs = probe_superblocks(monkeypatch)
    caps = (20_000, 45_000)
    fast = [_capped(cap) for cap in caps]
    assert fast[0].image is fast[1].image
    for cap, vm in zip(caps, fast):
        got = _starve(vm)
        assert runs[-1][0] == "starved"  # raised inside a fused loop
        assert got[0] == cap < got[1]
        assert got == _starve(_capped(cap, "reference"))


def test_a_restored_checkpoint_keeps_its_cap():
    vm = _capped(40_000)
    for _ in range(3):
        assert vm.scheduler.step()
    snap = snapshot_vm(vm)
    want = _starve(vm)
    _starve(_capped(90_000))  # a VM of the same image with another cap
    restored = restore_vm(snap)
    assert restored.image is vm.image
    assert _starve(restored) == want


def test_server_cells_of_one_preset_share_one_image(monkeypatch):
    from repro.server import plane

    vms: list[JVM] = []
    audited_run = plane.audited_run

    def spy(vm, check):
        vms.append(vm)
        return audited_run(vm, check)

    monkeypatch.setattr(plane, "audited_run", spy)
    specs = [plane.ServerSpec("soak", requests=60, seed_index=i, chaos=True)
             for i in (1, 2, 3)]
    reports = [plane.run_server_cell(specs[0])]
    misses = _module_code.cache_info().misses
    reports += [plane.run_server_cell(spec) for spec in specs[1:]]
    assert _module_code.cache_info().misses == misses
    assert len({vm.options.max_cycles for vm in vms}) == 3
    assert all(vm.image is vms[0].image for vm in vms)
    cold = []
    for spec in specs:
        vmcore._images.clear()
        cold.append(plane.run_server_cell(spec))
    assert cold == reports


# ------------------------------------------------------ runs leave images
def _content(image: vmcore.ProgramImage) -> str:
    """Digest of the built classes (``Instruction`` pickles without its
    link-time resolution ``c``)."""
    blob = pickle.dumps(list(image.classes.values()))
    return hashlib.sha256(blob).hexdigest()


def _instructions(image: vmcore.ProgramImage) -> list:
    return [ins for classdef in image.classes.values()
            for method in classdef.methods.values() for ins in method.code]


def _static_sync_program() -> ClassDef:
    """A synchronized static method (the transformer's wrapper locks the
    class object through CLASSREF) that calls a native."""
    work = Asm("work", synchronized=True)
    work.getstatic("S", "n").const(1).add().putstatic("S", "n")
    work.const(1).native("identityHashCode", 1).pop()
    work.ret()
    run = Asm("run")
    run.invoke("S", "work", 0)
    run.ret()
    return build_class("S", ["n"], [work, run])


def _static_sync_vm(mode: str, interp: str) -> JVM:
    vm = JVM(VMOptions(mode=mode, interp=interp))
    vm.load(_static_sync_program())
    for name in ("a", "b"):
        vm.spawn("S", "run", name=name)
    return vm


def test_runs_leave_every_cached_image_as_built():
    vmcore._images.clear()
    runs = []
    for interp in ("fast", "reference"):
        for mode in MODES:
            runs.append(_trio(mode, interp=interp))
            runs.append(_static_sync_vm(mode, interp))
        config = FigurePanel(5, "a").base_config().scaled(0.02)
        for mode in ("unmodified", "rollback"):
            vm = JVM(VMOptions(mode=mode, seed=config.seed, interp=interp))
            setup_microbench_vm(vm, config)
            runs.append(vm)
        runs.append(build_capture_vm(ObsSpec(
            scenario="server-storm", interp=interp, profile=False)))
    built = {digest: (_content(image),
                      [(ins, ins.c) for ins in _instructions(image)])
             for digest, image in vmcore._images.items()}
    assert len(built) > len(MODES)
    # the build links every call whose target the program has
    invokes = 0
    for image in vmcore._images.values():
        for ins in _instructions(image):
            if ins.op != bc.INVOKE:
                continue
            owner = image.classes.get(ins.a[0])
            callee = owner.methods.get(ins.a[1]) if owner else None
            if callee is not None:
                invokes += 1
                assert ins.c is callee, ins
    assert invokes
    for run in runs:
        if isinstance(run, JVM):
            drain(run)
        else:
            run_capture(run)
    assert set(vmcore._images) == set(built)
    for digest, image in list(vmcore._images.items()):
        assert image.digest == digest
        assert vmcore._load_image(image.inputs, image.blobs) is image
        content, links = built[digest]
        assert _content(image) == content
        assert all(ins.c is c for ins, c in links)


@pytest.mark.parametrize("program", ["handoff-trio", "static-sync"])
def test_instructions_hold_no_per_vm_object_after_a_run(program):
    if program == "handoff-trio":
        vm = _trio(interp="reference")
    else:
        vm = _static_sync_vm("rollback", "reference")
    _run(vm)
    for ins in _instructions(vm.image):
        assert isinstance(ins.c, (type(None), ClassDef, MethodDef)), ins


def test_method_defs_carry_no_decode_state():
    assert "__getstate__" not in vars(MethodDef)
    assert not hasattr(MethodDef, "invalidate_decoded")
    vm = _trio(interp="fast")
    _run(vm)
    assert vm.interpreter.decoded
    for classdef in vm.classes.values():
        for method in classdef.methods.values():
            assert set(method.__dict__) == {
                f.name for f in dataclasses.fields(MethodDef)}


# ---------------------------------------------------------- checkpoints
def _checkpoint(interp: str = "fast"):
    vm = _trio(interp=interp)
    vm.scheduler.decision_hook = ScheduleController()
    while vm.scheduler.decisions < 5:
        assert vm.scheduler.step()
    return vm, snapshot_vm(vm)


class _Spy(snapshot_mod._Unpickler):
    def __init__(self, file, image) -> None:
        super().__init__(file, image)
        self.loaded: list[tuple[str, str]] = []

    def find_class(self, module, name):
        self.loaded.append((module, name))
        return super().find_class(module, name)


def test_a_checkpoint_loads_no_program_object():
    vm, snap = _checkpoint()
    spy = _Spy(io.BytesIO(snap._master), snap._image)
    restored = spy.load()
    names = {name for _, name in spy.loaded}
    assert not names & {"ClassDef", "MethodDef", "FieldDef", "Instruction"}
    assert ("repro.vm.snapshot", "_image_object") in spy.loaded
    # program objects come back as the image's own
    assert restored.image is vm.image
    live = [i for i, t in enumerate(vm.threads) if t.frames]
    assert live
    for i in live:
        frame, twin = vm.threads[i].frames[-1], restored.threads[i].frames[-1]
        assert twin.method is frame.method
        assert twin.code is frame.method.code


def test_a_checkpoint_blob_does_not_unpickle_on_its_own():
    _, snap = _checkpoint()
    with pytest.raises(pickle.UnpicklingError, match="restore_vm"):
        pickle.loads(snap._master)


def test_equal_vms_pickle_to_equal_bytes():
    _, first = _checkpoint()
    _, second = _checkpoint()
    assert first._master == second._master
    assert pickle.dumps(first) == pickle.dumps(second)


_CHILD = """
import pickle, sys
sys.path.insert(0, {tests!r})
from conftest import build_class, drain
from repro.check.oracle import final_fingerprint, fingerprint_digest
from repro.vm.snapshot import restore_vm
snap = pickle.load(open({path!r}, "rb"))
vm = restore_vm(snap)
outcome = drain(vm)
print(repr((outcome, vm.clock.now, vm.clock.events, vm.tracer.render(),
            vm.metrics(),
            fingerprint_digest(final_fingerprint(vm, outcome)))))
"""


@pytest.mark.parametrize("interp", ["fast", "reference"])
def test_a_pickled_snapshot_continues_in_a_fresh_process(tmp_path, interp):
    _, snap = _checkpoint(interp)
    path = tmp_path / "snap.pkl"
    path.write_bytes(pickle.dumps(snap))
    here = repr(_observe(*(lambda vm: (vm, drain(vm)))(restore_vm(snap))))
    child = subprocess.run(
        [sys.executable, "-c",
         _CHILD.format(tests=str(Path(__file__).parent), path=str(path))],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
    )
    assert child.stdout.strip() == here


def test_load_after_spawn_raises_and_keeps_the_image():
    vm = _trio()
    image = vm.image
    with pytest.raises(VMStateError, match="after spawning"):
        vm.load(build_class("Late", ["x"], []))
    assert vm.image is image
    assert "Late" not in vm.classes


# ------------------------------------------------------------ cost model
def test_equal_cost_models_share_one_table():
    a, b = CostModel(quantum=3), CostModel(quantum=3)
    assert a == b and hash(a) == hash(b)
    assert a._cost_table is b._cost_table
    assert dataclasses.replace(a)._cost_table is a._cost_table
    assert a.scaled(2.0)._cost_table is not a._cost_table


def test_a_pickled_cost_model_round_trips_without_its_table():
    model = CostModel(heap_access=7)
    blob = pickle.dumps(model)
    assert b"_cost_table" not in blob
    back = pickle.loads(blob)
    assert back == model and hash(back) == hash(model)
    assert back._cost_table is model._cost_table
    assert back.instruction_cost(Instruction(42).op) == 7
