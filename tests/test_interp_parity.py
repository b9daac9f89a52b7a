"""Differential parity: the predecode tier on vs off.

The interpreter's predecode tier (:mod:`repro.vm.predecode` blocks and
:mod:`repro.vm.tracecomp` superblocks, ``interp="fast"``) must be
*observationally indistinguishable* from its fallback chain alone
(``interp="reference"``, the oracle): identical virtual clock totals
**and** clock event counts (every ``advance()`` call, even
``advance(0)``, is part of the determinism fingerprint), identical trace
event streams, identical metrics, and identical checker fingerprints.
These tests run the same guest program once per setting and compare all
of it.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_microbench
from repro.bench.microbench import MicrobenchConfig
from repro.bench.workloads import (
    build_bank,
    build_bounded_buffer,
    build_deadlock_pair,
    build_medium_inversion,
    build_philosophers,
)
from repro.check.oracle import final_fingerprint, fingerprint_digest
from repro.bench.workloads import TOOL_SCENARIOS
from repro.errors import DeadlockError, UncaughtGuestException
from repro.vm import bytecode as bc
from repro.vm.assembler import Asm
from repro.vm.vmcore import JVM, VMOptions

from conftest import probe_superblocks

MODES = ("unmodified", "rollback", "inheritance", "ceiling")
INTERPS = ("reference", "fast")


def _snap(vm: JVM, outcome: str) -> dict:
    """Everything an interpreter can observably influence, in one dict."""
    import hashlib

    from repro.obs.export import chrome_trace_bytes, spans_jsonl_bytes
    from repro.obs.spans import build_spans

    # observability artifacts are derived from the trace + clock, so
    # they too must be byte-identical across interpreters
    spans = build_spans(vm.tracer.events, vm.clock.now)
    jsonl = spans_jsonl_bytes(spans)
    chrome = chrome_trace_bytes(
        spans,
        thread_names=[t.name for t in vm.threads],
        clock_now=vm.clock.now,
    )
    return {
        "outcome": outcome,
        "clock_now": vm.clock.now,
        "clock_events": vm.clock.events,
        "fingerprint": fingerprint_digest(final_fingerprint(vm, outcome)),
        "metrics": vm.metrics(),
        "trace": list(vm.tracer.events),
        "spans_sha": hashlib.sha256(jsonl).hexdigest(),
        "chrome_sha": hashlib.sha256(chrome).hexdigest(),
    }


def _run_workload(build, mode: str, interp: str, **overrides) -> dict:
    workload = build()
    opts = dict(
        mode=mode, interp=interp, trace=True, seed=7,
        max_cycles=50_000_000,
    )
    opts.update(overrides)
    vm = JVM(VMOptions(**opts))
    workload.install(vm)
    outcome = "ok"
    try:
        vm.run()
    except DeadlockError:
        outcome = "deadlock"
    except UncaughtGuestException as exc:
        outcome = f"uncaught:{exc}"
    return _snap(vm, outcome)


def _assert_identical(build, mode: str, **overrides) -> None:
    ref = _run_workload(build, mode, "reference", **overrides)
    fast = _run_workload(build, mode, "fast", **overrides)
    # Compare field by field so a failure names the diverging channel.
    for key in ref:
        assert fast[key] == ref[key], f"{mode}: {key} diverged"


# ------------------------------------------------------- checker scenarios
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(TOOL_SCENARIOS["check"]))
def test_checker_scenario_parity(name: str, mode: str) -> None:
    scenario = TOOL_SCENARIOS["check"][name]
    _assert_identical(scenario.build, mode, **scenario.options)


# ------------------------------------------- one figure workload per policy
# Pair each policy mode with a different workload so the suite covers
# the product cheaply: revocation (rollback), priority donation
# (inheritance), eager boosting (ceiling), plain scheduling (unmodified),
# each over a distinct synchronization shape.
POLICY_WORKLOADS = [
    ("unmodified", lambda: build_bounded_buffer(
        capacity=2, items_per_producer=6, producers=2, consumers=2)),
    ("rollback", lambda: build_medium_inversion(
        medium_threads=2, low_section_iters=300, medium_work_iters=500,
        high_section_iters=60)),
    ("inheritance", lambda: build_bank(
        accounts=4, transfers=10, hold_cycles=120)),
    ("ceiling", lambda: build_philosophers(3, rounds=3, think_cycles=300,
                                           eat_iters=15)),
]


@pytest.mark.parametrize(
    "mode,build", POLICY_WORKLOADS, ids=[m for m, _ in POLICY_WORKLOADS]
)
def test_policy_workload_parity(mode: str, build) -> None:
    _assert_identical(build, mode)


def test_deadlock_outcome_parity() -> None:
    """Both interpreters must deadlock identically (or revoke out of it)."""
    for mode in ("unmodified", "rollback"):
        _assert_identical(
            lambda: build_deadlock_pair(hold_cycles=800, work=20), mode
        )


# ------------------------------------------------------ figure micro-bench
@pytest.mark.parametrize("mode", MODES)
def test_microbench_parity(mode: str, monkeypatch) -> None:
    """One scaled-down figure point per policy through the real harness."""
    config = MicrobenchConfig(
        high_threads=2, low_threads=2, iters_high=25, iters_low=50,
        sections=4, write_pct=60, pause_mean=2_000, seed=42,
    )
    runs = probe_superblocks(monkeypatch)
    results = {}
    for interp in INTERPS:
        results[interp] = run_microbench(
            config, mode, options=VMOptions(interp=interp)
        )
    assert results["fast"] == results["reference"]
    if mode == "rollback":
        # the fast side ran its stores through superblock write batches
        assert any(logged for _, logged in runs)


# --------------------------------------------------- exception-path parity
# Faults raised from *inside* a fused block exercise the cost-repair path
# (suffix subtraction + fault-pc rewind); the outcomes, handler-relative
# clock values and traces must match the reference exactly.
def _exception_workloads():
    from conftest import build_class

    def guest(emit) -> object:
        def build():
            a = Asm("main")
            emit(a)
            a.ret()
            cls = build_class("Exc", ["out", "err"], [a])

            from repro.bench.workloads import Workload

            return Workload(
                name="exc", classdef=cls, setup=lambda vm: None,
                spawns=[("main", [], 5, "t0")],
            )
        return build

    def div_zero(a: Asm) -> None:
        # caught ArithmeticException after fused arithmetic ran
        def body():
            a.const(7).const(21).const(3).div().add()
            a.const(5).const(0).div()          # faults mid-block
            a.putstatic("Exc", "out")
        def on_arith():
            a.pop()
            a.const(-1).putstatic("Exc", "err")
        a.try_(body, catches=[("ArithmeticException", on_arith)])
        a.getstatic("Exc", "err").putstatic("Exc", "out")

    def array_oob(a: Asm) -> None:
        def body():
            a.const(4).newarray(0)
            a.const(9).const(2).astore()        # index 9 > length: faults
        def on_oob():
            a.pop()
            a.const(13).putstatic("Exc", "err")
        a.try_(body, catches=[("ArrayIndexOutOfBoundsException", on_oob)])

    def npe(a: Asm) -> None:
        def body():
            a.const(None).getfield("x")         # NPE inside a fused block
            a.putstatic("Exc", "out")
        def on_npe():
            a.pop()
            a.const(99).putstatic("Exc", "err")
        a.try_(body, catches=[("NullPointerException", on_npe)])

    def uncaught(a: Asm) -> None:
        a.const(3).const(1).sub()
        a.const(1).const(0).mod()               # uncaught: kills the thread

    return [
        ("div-zero", guest(div_zero)),
        ("array-oob", guest(array_oob)),
        ("npe", guest(npe)),
        ("uncaught", guest(uncaught)),
    ] + _slow_branch_workloads()


# Generated code inlines the hot heap and remainder ops behind exact-type
# and bounds guards, keeping the general helper as the slow branch.  Each
# case below sends iteration ``i == last`` down a slow branch, and runs
# twice: straight-line with ``i = last`` (one basic block) and as the body
# of a loop over ``0..last`` (a superblock, entered at the first back-edge).
SLOW_BRANCH_LAST = 3


def _slow_branch_workloads():
    from repro.bench.workloads import Workload
    from repro.vm.classfile import ClassDef, FieldDef
    from repro.vm.values import NULL

    from conftest import static_fields

    last = SLOW_BRANCH_LAST
    aioobe = "ArrayIndexOutOfBoundsException"
    npe = "NullPointerException"

    def setup(a: Asm) -> None:
        # arr: int[4]; arrs/objs: last refs to arr/obj, then a null
        a.const(4).newarray(0).putstatic("Exc", "arr")
        a.new("Exc").putstatic("Exc", "obj")
        for refs, target in (("arrs", "arr"), ("objs", "obj")):
            a.const(last + 1).newarray(NULL).putstatic("Exc", refs)
            for k in range(last):
                a.getstatic("Exc", refs).const(k)
                a.getstatic("Exc", target).astore()
        a.const(True).putstatic("Exc", "flag")

    def shaped(body, catch, loop: bool):
        def build() -> Workload:
            a = Asm("main")
            i = a.local("i")
            setup(a)

            def run() -> None:
                if loop:
                    a.for_range(i, lambda: a.const(last + 1),
                                lambda: body(a, i))
                else:
                    a.const(last).store(i)
                    body(a, i)

            def on_catch() -> None:
                a.pop()
                a.load(i).putstatic("Exc", "err")

            if catch is None:
                run()
            else:
                a.try_(run, catches=[(catch, on_catch)])
            a.ret()
            cls = ClassDef("Exc", fields=static_fields(
                "out", "err", "flag", "arr:ref", "alias:ref", "arrs:ref",
                "objs:ref", "obj:ref",
            ) + [FieldDef("x", "int")])
            cls.add_method(a.build())
            return Workload(
                name="exc", classdef=cls, setup=lambda vm: None,
                spawns=[("main", [], 5, "t0")],
            )
        return build

    def accumulate(a: Asm) -> None:
        a.getstatic("Exc", "out").add().putstatic("Exc", "out")

    def aload_neg(a: Asm, i: int) -> None:      # arr[last - 1 - i]
        a.getstatic("Exc", "arr").const(last - 1).load(i).sub().aload()
        accumulate(a)

    def aload_len(a: Asm, i: int) -> None:      # arr[i + 4 - last]
        a.getstatic("Exc", "arr").load(i).const(4 - last).add().aload()
        accumulate(a)

    def astore_neg(a: Asm, i: int) -> None:
        a.getstatic("Exc", "arr").const(last - 1).load(i).sub()
        a.load(i).astore()

    def astore_len(a: Asm, i: int) -> None:
        a.getstatic("Exc", "arr").load(i).const(4 - last).add()
        a.load(i).astore()

    def null_array(a: Asm, i: int) -> None:
        a.getstatic("Exc", "arrs").load(i).aload().const(0).aload()
        accumulate(a)

    def null_arraylen(a: Asm, i: int) -> None:
        a.getstatic("Exc", "arrs").load(i).aload().arraylen()
        accumulate(a)

    def null_object(a: Asm, i: int) -> None:
        a.getstatic("Exc", "objs").load(i).aload().getfield("x")
        accumulate(a)

    def null_object_store(a: Asm, i: int) -> None:
        a.getstatic("Exc", "objs").load(i).aload().load(i).putfield("x")

    def mod_negative(a: Asm, i: int) -> None:   # (i - 10) % 64
        a.load(i).const(10).sub().const(64).mod()
        accumulate(a)

    def mod_bool(a: Asm, i: int) -> None:       # True % 64
        a.getstatic("Exc", "flag").const(64).mod()
        accumulate(a)

    def mod_float(a: Asm, i: int) -> None:      # (i - 2.5) % 64
        a.load(i).const(-2.5).add().const(64).mod()
        accumulate(a)

    def static_array(a: Asm, i: int) -> None:
        # alias = arr; alias[i] = i; out += alias[i]
        a.getstatic("Exc", "arr").putstatic("Exc", "alias")
        a.getstatic("Exc", "alias").load(i).load(i).astore()
        a.getstatic("Exc", "alias").load(i).aload()
        accumulate(a)

    cases = [
        ("aload-neg", aload_neg, aioobe),
        ("aload-len", aload_len, aioobe),
        ("astore-neg", astore_neg, aioobe),
        ("astore-len", astore_len, aioobe),
        ("null-array", null_array, npe),
        ("null-arraylen", null_arraylen, npe),
        ("null-object", null_object, npe),
        ("null-object-store", null_object_store, npe),
        ("mod-negative", mod_negative, None),
        ("mod-bool", mod_bool, None),
        ("mod-float", mod_float, None),
        ("static-array", static_array, None),
    ]
    return [
        (f"{name}-{shape}", shaped(body, catch, shape == "loop"))
        for name, body, catch in cases
        for shape in ("block", "loop")
    ]


@pytest.mark.parametrize(
    "name,build_factory", _exception_workloads(),
    ids=[n for n, _ in _exception_workloads()],
)
@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
def test_exception_path_parity(name, build_factory, mode) -> None:
    _assert_identical(build_factory, mode)


@pytest.mark.parametrize(
    "name,build_factory", _slow_branch_workloads(),
    ids=[n for n, _ in _slow_branch_workloads()],
)
def test_slow_branch_cases_run_on_the_tier_they_name(name, build_factory,
                                                    monkeypatch):
    """A ``-block`` case fuses every heap and remainder op into blocks
    and forms no superblock; a ``-loop`` case forms one over its body,
    and the slow branch fires inside it (a fault at ``i == last`` or,
    for the non-faulting cases, a loop run to its end)."""
    from repro.vm.predecode import predecode_method
    runs = probe_superblocks(monkeypatch)
    vm = JVM(VMOptions(mode="rollback", seed=7, max_cycles=50_000_000))
    build_factory().install(vm)
    method = vm.classes["Exc"].method("main")
    dm = predecode_method(vm, method)
    vm.run()
    if name.endswith("-loop"):
        assert len(dm.superblock_list) == 1
        assert runs, "the superblock never ran"
    else:
        assert dm.superblock_list == []
        slow = {bc.ALOAD, bc.ASTORE, bc.ARRAYLEN, bc.GETFIELD, bc.PUTFIELD,
                bc.GETSTATIC, bc.PUTSTATIC, bc.MOD}
        fused = {pc for b in dm.block_list for pc in range(b.start, b.end)}
        ops = [pc for pc, ins in enumerate(method.code) if ins.op in slow]
        assert ops and set(ops) <= fused
    if vm.get_static("Exc", "err"):
        assert vm.get_static("Exc", "err") == SLOW_BRANCH_LAST


@pytest.mark.parametrize("interp", INTERPS)
def test_float_remainder_keeps_the_reference_helper(interp) -> None:
    """Python's ``%`` and the reference's ``math.fmod`` agree on finite
    non-negative floats but not on infinity, where the reference raises;
    the inline ``% 64`` must leave floats to the helper."""
    from conftest import run_single

    def emit(a: Asm) -> None:
        a.const(float("inf")).const(64).mod().putstatic("T", "out")
    with pytest.raises(ValueError, match="math domain error"):
        run_single(emit, fields=["out"], interp=interp)


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
@pytest.mark.parametrize("interp", INTERPS)
def test_store_to_unknown_static_raises(interp, mode) -> None:
    """``classfile.verify`` checks no field references, and generated
    code stores a static with a plain dict store that would create it, so
    its probe of the static's definition is what raises; both tiers must
    fail the same way and leave no such static behind."""
    from conftest import build_class, make_vm

    from repro.errors import LinkError
    main = Asm("main", argc=0)
    main.const(1).putstatic("T", "nope").ret()
    vm = make_vm(mode, interp=interp)
    vm.load(build_class("T", ["out"], [main]))
    vm.spawn("T", "main", name="main")
    with pytest.raises(LinkError, match=r"^no static field T\.nope$"):
        vm.run()
    assert ("T", "nope") not in vm.heap.statics


@pytest.mark.parametrize("target, message", [
    (("T", "nope"), r"^no method T\.nope$"),
    (("Nope", "run"), r"^class 'Nope' not loaded$"),
], ids=["missing-method", "missing-class"])
@pytest.mark.parametrize("interp", INTERPS)
def test_an_unresolvable_call_raises_link_error(interp, target,
                                                message) -> None:
    """The link leaves an INVOKE of a missing method or class unresolved;
    executing it, or spawning its target, raises the same
    :class:`LinkError` on both tiers."""
    from conftest import build_class, make_vm

    from repro.errors import LinkError
    main = Asm("main", argc=0)
    main.invoke(*target, 0).ret()
    vm = make_vm("unmodified", interp=interp)
    vm.load(build_class("T", [], [main]))
    with pytest.raises(LinkError, match=message):
        vm.spawn(*target)
    vm.spawn("T", "main", name="main")
    with pytest.raises(LinkError, match=message):
        vm.run()


# ----------------------------------------------------- reference forcing
def _decoded_methods(vm: JVM) -> list[str]:
    return [dm.method.qualified_name()
            for dm in vm.interpreter.decoded.values()]


def _run_bank(**options) -> JVM:
    workload = build_bank(accounts=4, transfers=10, hold_cycles=120)
    vm = JVM(VMOptions(mode="rollback", seed=7, max_cycles=50_000_000,
                       **options))
    workload.install(vm)
    vm.run()
    return vm


def test_trace_memory_forces_reference() -> None:
    """The lockset pass needs per-access events, which fused heap ops do
    not emit, so ``trace_memory`` turns the predecode tier off: nothing is
    predecoded and every access is traced as the reference run traces
    it."""
    def mem_counts(vm: JVM) -> tuple[int, int]:
        return (len(vm.tracer.of_kind("mem_read")),
                len(vm.tracer.of_kind("mem_write")))

    mem = _run_bank(trace=True, trace_memory=True)
    ref = _run_bank(interp="reference", trace=True, trace_memory=True)
    assert _decoded_methods(mem) == []
    assert _decoded_methods(ref) == []
    assert mem_counts(mem) == mem_counts(ref)
    assert min(mem_counts(ref)) > 0

    assert _decoded_methods(_run_bank(interp="reference")) == []
    assert _decoded_methods(_run_bank(trace=True)) != []


# --------------------------------------------- JMM read-barrier slow branch
# Generated code inlines after_load's fast path and calls it only when a
# thread other than the reader holds a speculative write.  These
# workloads make that slow branch fire (reads of another thread's
# uncommitted writes pin sections), so the inline guard is compared
# against the reference's after_load call on every load.
def _jmm_example(builder_name: str, lock_fields: tuple[str, ...]):
    import importlib.util
    import pathlib

    from repro.bench.workloads import Workload

    path = (pathlib.Path(__file__).resolve().parent.parent / "examples"
            / "jmm_nonrevocable.py")
    spec = importlib.util.spec_from_file_location("jmm_nonrevocable", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)

    def build() -> Workload:
        cls = getattr(example, builder_name)()

        def setup(vm: JVM) -> None:
            for name in lock_fields:
                vm.set_static(cls.name, name, vm.new_object(cls.name))

        return Workload(
            name=cls.name, classdef=cls, setup=setup,
            spawns=[("writer", [], 1, "T"), ("reader", [], 5, "T'"),
                    ("contender", [], 10, "Th")],
        )
    return build


def _build_shared_writers():
    """Two equal-priority threads, each inside its own monitor, keep
    writing and reading one static, one array element and one instance
    field; time slicing interleaves them, so both hold speculative writes
    to the same locations at once.  A high-priority contender then asks
    to revoke the first writer's section."""
    from repro.bench.workloads import Workload
    from repro.vm.classfile import ClassDef, FieldDef

    cls = ClassDef("Share", fields=[
        FieldDef("lockA", "ref", is_static=True),
        FieldDef("lockB", "ref", is_static=True),
        FieldDef("arr", "ref", is_static=True),
        FieldDef("box", "ref", is_static=True),
        FieldDef("s", "int", is_static=True),
        FieldDef("x", "int"),
    ])

    def writer(name: str, lock: str) -> None:
        a = Asm(name, argc=0)
        a.getstatic("Share", lock)
        with a.sync():
            def step() -> None:
                a.getstatic("Share", "s").const(1).add()
                a.putstatic("Share", "s")
                a.getstatic("Share", "arr").const(0)
                a.getstatic("Share", "s").astore()
                a.getstatic("Share", "box").getstatic("Share", "s")
                a.putfield("x")
                a.getstatic("Share", "arr").const(0).aload().pop()
                a.getstatic("Share", "box").getfield("x").pop()
            a.for_range(a.local(), lambda: a.const(600), step)
        a.ret()
        cls.add_method(a.build())

    writer("writerA", "lockA")
    writer("writerB", "lockB")
    th = Asm("contender", argc=0)
    th.pause(6_000)
    th.getstatic("Share", "lockA")
    with th.sync():
        th.getstatic("Share", "s").pop()
    th.ret()
    cls.add_method(th.build())

    def setup(vm: JVM) -> None:
        vm.set_static("Share", "lockA", vm.new_object("Share"))
        vm.set_static("Share", "lockB", vm.new_object("Share"))
        vm.set_static("Share", "arr", vm.new_array(1))
        vm.set_static("Share", "box", vm.new_object("Share"))

    return Workload(
        name="shared-writers", classdef=cls, setup=setup,
        spawns=[("writerA", [], 3, "A"), ("writerB", [], 3, "B"),
                ("contender", [], 10, "Th")],
    )


JMM_WORKLOADS = [
    ("figure2", _jmm_example("build_figure2", ("outer", "inner"))),
    ("figure3", _jmm_example("build_figure3", ("m",))),
    ("shared-writers", _build_shared_writers),
]


@pytest.mark.parametrize(
    "name,build", JMM_WORKLOADS, ids=[n for n, _ in JMM_WORKLOADS]
)
def test_jmm_slow_branch_parity(name: str, build, monkeypatch) -> None:
    runs = probe_superblocks(monkeypatch)
    ref = _run_workload(build, "rollback", "reference")
    fast = _run_workload(build, "rollback", "fast")
    for key in ref:
        assert fast[key] == ref[key], f"{name}: {key} diverged"
    # the slow branch really ran: a read observed a speculative write
    marks = [e for e in ref["trace"] if e.kind == "nonrevocable"]
    assert marks
    assert ref["metrics"]["support"]["nonrevocable_dependency"] > 0
    if name == "shared-writers":
        # ...and the writers' loops ran as superblocks logging stores
        assert any(logged for _, logged in runs)
