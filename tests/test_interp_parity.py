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

Two process-global counters would otherwise poison the comparison — they
are build/run ordinal counters, not interpreter state:

* ``Asm._sync_counter`` numbers monitor sync ids at *assembly* time, so
  building the same workload twice in one process yields different sync
  ids baked into the bytecode;
* ``repro.core.sections._section_ids`` numbers critical sections at *run*
  time across all VMs in the process.

``_fresh()`` resets both before every build+run so the two interpreters
see byte-identical programs and emit byte-identical section names.
"""

from __future__ import annotations

import itertools

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
from repro.check.scenarios import scenarios
from repro.core import sections
from repro.errors import DeadlockError, UncaughtGuestException
from repro.vm.assembler import Asm
from repro.vm.vmcore import JVM, VMOptions

MODES = ("unmodified", "rollback", "inheritance", "ceiling")
INTERPS = ("reference", "fast")


def _fresh() -> None:
    """Reset the process-global build/run counters (see module docstring)."""
    Asm._sync_counter = 0
    sections._section_ids = itertools.count(1)


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
    _fresh()
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
@pytest.mark.parametrize("name", sorted(scenarios()))
def test_checker_scenario_parity(name: str, mode: str) -> None:
    scenario = scenarios()[name]
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
def test_microbench_parity(mode: str) -> None:
    """One scaled-down figure point per policy through the real harness."""
    config = MicrobenchConfig(
        high_threads=2, low_threads=2, iters_high=25, iters_low=50,
        sections=4, write_pct=60, pause_mean=2_000, seed=42,
    )
    results = {}
    for interp in INTERPS:
        _fresh()
        results[interp] = run_microbench(
            config, mode, options=VMOptions(interp=interp)
        )
    assert results["fast"] == results["reference"]


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
    ]


@pytest.mark.parametrize(
    "name,build_factory", _exception_workloads(),
    ids=[n for n, _ in _exception_workloads()],
)
@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
def test_exception_path_parity(name, build_factory, mode) -> None:
    _assert_identical(build_factory, mode)


# ----------------------------------------------------- reference forcing
def _decoded_methods(vm: JVM) -> list[str]:
    return [
        m.qualified_name()
        for cls in vm.classes.values()
        for m in cls.methods.values()
        if "_decoded" in m.__dict__
    ]


def _run_bank(**options) -> JVM:
    _fresh()
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
def test_jmm_slow_branch_parity(name: str, build) -> None:
    ref = _run_workload(build, "rollback", "reference")
    fast = _run_workload(build, "rollback", "fast")
    for key in ref:
        assert fast[key] == ref[key], f"{name}: {key} diverged"
    # the slow branch really ran: a read observed a speculative write
    marks = [e for e in ref["trace"] if e.kind == "nonrevocable"]
    assert marks
    assert ref["metrics"]["support"]["nonrevocable_dependency"] > 0
