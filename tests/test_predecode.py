"""Unit tests for the predecoder (:mod:`repro.vm.predecode`).

The parity suite (``test_interp_parity.py``) proves the fast interpreter
is observationally identical to the reference; these tests pin the
*structure* the predecoder produces — where blocks start and end, that
cost batching is the exact sum of per-instruction link costs, that the
fault-repair suffix arrays are right, which superinstructions fire, and
that each VM builds a method's decoded form once and keeps it, and
that generated modules compile once per process: every VM, restored
ones included, execs the shared code object into its own namespace.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import build_class, drain, make_vm, run_single
from repro.bench.figures import FigurePanel
from repro.bench.microbench import MicrobenchConfig, setup_microbench_vm
from repro.check.explorer import ScheduleController, check_vm
from repro.check.scenarios import get_scenario
from repro.vm import bytecode as bc
from repro.vm.assembler import Asm
from repro.vm.clock import CostModel
from repro.vm.predecode import (
    _module_code,
    find_leaders,
    find_runs,
    predecode_method,
    render_decoded,
)
from repro.vm.snapshot import restore_vm, snapshot_vm
from repro.vm import vmcore
from repro.vm.vmcore import JVM, VMOptions


def _linked(emit, mode: str = "unmodified", fields=(), **options):
    """Build one method, load it into a VM, return (vm, linked method)."""
    a = Asm("main")
    emit(a)
    a.ret()
    cls = build_class("T", fields, [a])
    vm = make_vm(mode, **options)
    loaded = vm.load(cls)
    return vm, loaded.method("main")


# ----------------------------------------------------------- leaders/runs
def test_leaders_split_at_branch_targets_and_nonfusable() -> None:
    def emit(a: Asm) -> None:
        skip = a.label("skip")
        a.const(1).if_(skip)     # 0 1: forward branch to 4
        a.const(2).pop()         # 2 3
        a.place(skip)
        a.time()                 # 4: non-fusable (flushes the clock)
        a.pop()                  # 5

    vm, m = _linked(emit)
    leaders = find_leaders(m)
    assert 0 in leaders
    assert 4 in leaders            # branch target
    assert 5 in leaders            # successor of the non-fusable TIME
    runs = dict.fromkeys(r[0] for r in find_runs(m, leaders))
    # [0,2) terminated by the branch; [2,4) cut at the leader; TIME and
    # the lone POP at 5 stay in the dispatch chain (singleton skip).
    assert find_runs(m, leaders)[:2] == [(0, 2), (2, 4)]
    assert 4 not in runs and 5 not in runs


def test_backward_branch_is_yield_point_and_never_fused() -> None:
    def emit(a: Asm) -> None:
        i = a.local("i")
        a.const(0).store(i)
        top = a.label("top")
        a.place(top)
        a.iinc(i, 1)
        a.load(i).const(3).lt().if_(top)   # backward => ypoint at link

    vm, m = _linked(emit)
    back = next(
        ins for ins in m.code if bc.is_branch(ins.op) and ins.ypoint
    )
    assert back.op == bc.IF
    dm = predecode_method(vm, m)
    for b in dm.block_list:
        for pc in range(b.start, b.end):
            assert not m.code[pc].ypoint, "yield point fused into a block"


# ------------------------------------------------------- block accounting
def test_block_cost_is_exact_sum_and_suffixes_match() -> None:
    def emit(a: Asm) -> None:
        a.const(2).const(3).add().const(4).mul().pop()

    vm, m = _linked(emit)
    dm = predecode_method(vm, m)
    (b,) = dm.block_list
    assert (b.start, b.end) == (0, 6)
    run = m.code[0:6]
    assert b.cost == sum(ins.cost for ins in run)
    assert b.count == 6
    # suffix_cost[k] = static cost strictly after relative index k
    for k in range(6):
        assert b.suffix_cost[k] == sum(ins.cost for ins in run[k + 1:])
        assert b.suffix_count[k] == 6 - (k + 1)


def test_heap_ops_fused_with_their_link_costs() -> None:
    def emit(a: Asm) -> None:
        a.getstatic("T", "x").const(1).add().putstatic("T", "x")

    vm, m = _linked(emit, fields=["x"])
    dm = predecode_method(vm, m)
    (b,) = dm.block_list
    assert b.count == 4
    costs = vm.options.cost_model
    assert b.cost == 2 * costs.heap_access + 2 * costs.simple


# -------------------------------------------------------- superinstructions
def test_cmp_branch_and_const_div_superinstructions() -> None:
    def emit(a: Asm) -> None:
        done = a.label("done")
        a.const(7).const(3).div()      # const+div (positive divisor)
        a.const(5).lt().if_(done)      # cmp+branch
        a.const(1).pop()
        a.place(done)

    vm, m = _linked(emit)
    dm = predecode_method(vm, m)
    assert dm.superinstructions.get("cmp+branch", 0) >= 1
    assert dm.superinstructions.get("const+div", 0) >= 1


def test_alu_store_superinstruction() -> None:
    def emit(a: Asm) -> None:
        t = a.local("t")
        a.const(2).const(3).add().store(t)
        a.load(t).pop()

    vm, m = _linked(emit)
    dm = predecode_method(vm, m)
    assert dm.superinstructions.get("alu+store", 0) >= 1


def _pattern_sites(code) -> dict[str, int]:
    """How many bytecode pcs each fusion pattern can start at."""
    compares = (bc.LT, bc.LE, bc.GT, bc.GE, bc.EQ, bc.NE)
    sites = {"alu+store": 0, "cmp+branch": 0, "const+mod": 0}
    for pc, ins in enumerate(code):
        if ins.op == bc.STORE:
            sites["alu+store"] += 1
        elif (ins.op in compares and pc + 1 < len(code)
              and code[pc + 1].op in (bc.IF, bc.IFNOT)):
            sites["cmp+branch"] += 1
        elif ins.op == bc.MOD and pc and code[pc - 1].op == bc.CONST:
            sites["const+mod"] += 1
    return sites


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
def test_bench_run_counts_each_fused_site_once(mode: str) -> None:
    """Panel 5a's loop body compiles into a block, a fallback, a hoisted
    and a guarded superblock copy; each (pattern, pc) counts once."""
    vm = JVM(VMOptions(mode=mode, seed=3))
    config = FigurePanel(5, "a").base_config(3)
    setup_microbench_vm(vm, config)
    method = vm.classes["Bench"].method("run")
    counts = predecode_method(vm, method).superinstructions
    assert counts == {"alu+store": 6, "cmp+branch": 3, "const+mod": 3}
    sites = _pattern_sites(method.code)
    for pattern, count in counts.items():
        assert count <= sites[pattern], pattern


def test_div_by_zero_constant_keeps_the_checked_path() -> None:
    """CONST 0 as divisor must not take the unchecked const+div fast path."""
    def emit(a: Asm) -> None:
        a.const(5).const(0).div().pop()

    vm, m = _linked(emit)
    dm = predecode_method(vm, m)
    assert dm.superinstructions.get("const+div", 0) == 0
    (b,) = dm.block_list
    assert b.raising


# ------------------------------------------------------------ cache lifecycle
def test_predecode_is_cached_per_vm() -> None:
    def emit(a: Asm) -> None:
        a.const(1).const(2).add().pop()

    vm, m = _linked(emit)
    dm = predecode_method(vm, m)
    assert predecode_method(vm, m) is dm
    assert vm.interpreter.decoded[id(m)] is dm


# ------------------------------------------------------------------ dumps
def test_render_decoded_mentions_blocks_and_source() -> None:
    def emit(a: Asm) -> None:
        a.const(2).const(3).add().pop()

    vm, m = _linked(emit)
    dump = render_decoded(predecode_method(vm, m))
    assert "T.main" in dump
    assert "block [0," in dump
    assert "def _b0(" in dump


# ------------------------------------------------------------ code cache
def _codes(dm) -> list:
    """The code object behind every block and superblock function."""
    fns = [b.fn for b in dm.block_list] + [s.fn for s in dm.superblock_list]
    return [fn.__code__ for fn in fns]


def _misses() -> int:
    return _module_code.cache_info().misses


def _decoded(vm: JVM, class_name: str, method_name: str):
    """The VM's decoded form of one loaded method."""
    method = vm.classes[class_name].method(method_name)
    return vm.interpreter.decoded[id(method)]


def _bench_run(vm: JVM):
    config = MicrobenchConfig(high_threads=1, low_threads=1, iters_high=5,
                              iters_low=5, sections=2, write_pct=60)
    setup_microbench_vm(vm, config)
    vm.run()
    return _decoded(vm, "Bench", "run")


def test_two_vms_compile_bench_run_once() -> None:
    vmcore._images.clear()
    _module_code.cache_clear()
    one = JVM(VMOptions(mode="rollback", seed=3))
    first = _bench_run(one)
    info = _module_code.cache_info()
    assert info.misses > 0
    two = JVM(VMOptions(mode="rollback", seed=3))
    second = _bench_run(two)
    assert _module_code.cache_info().misses == info.misses
    # the second VM runs the first one's image and its templates
    assert two.image is one.image
    assert first.superblock_list, "Bench.run should form a superblock"
    assert len(_codes(second)) == len(_codes(first))
    assert all(a is b for a, b in zip(_codes(second), _codes(first)))
    # the shared code runs against each VM's own namespace
    f1, f2 = first.block_list[0].fn, second.block_list[0].fn
    assert f1 is not f2 and f1.__globals__ is not f2.__globals__


def test_bench_run_superblock_keeps_loop_state_in_locals() -> None:
    """In the rollback-mode superblock of ``Bench.run`` guest locals are
    touched only by the prologue load and the one writeback in the exit
    path, stores reach the support only through the run's batch, and the
    read-barrier guard is evaluated once per entry.  (The prologue names
    per-VM state only through the namespace, so two VMs still share the
    code object: ``test_two_vms_compile_bench_run_once``.)"""
    dm = _bench_run(JVM(VMOptions(mode="rollback", seed=3)))
    (sb,) = dm.superblock_list
    lines = sb.source.splitlines()
    uses = [k for k, line in enumerate(lines) if "locals_[" in line]
    assert uses == [1, lines.index("    finally:") + 1]
    assert "BS(" not in sb.source
    assert sb.source.count("len(LV)") == 1
    assert "BSB(T, WB)" in sb.source


def test_pooled_float_constant_reuses_code_but_runs_its_value() -> None:
    def program(value):
        def emit(a: Asm) -> None:
            a.const(value).const(2).mul().putstatic("T", "out")
        return emit

    # A K-pool constant is not in the source, so a changed float reuses
    # the code object; a changed int literal compiles a new one.
    for x, y, shared in ((1.25, 2.5, True), (2047, 4093, False)):
        one = run_single(program(x), fields=["out"])
        before = _misses()
        two = run_single(program(y), fields=["out"])
        assert _misses() == before + (not shared)
        decoded = [_decoded(vm, "T", "main") for vm in (one, two)]
        assert (_codes(decoded[1])[0] is _codes(decoded[0])[0]) == shared
        assert one.get_static("T", "out") == x * 2
        assert two.get_static("T", "out") == y * 2


def test_identical_bodies_keep_their_own_filename() -> None:
    methods = []
    for name in ("left", "right"):
        a = Asm(name)
        a.const(2).const(3).add().putstatic("T", "out")
        a.ret()
        methods.append(a)
    vm = make_vm()
    cls = vm.load(build_class("T", ["out"], methods))
    left, right = (_codes(predecode_method(vm, cls.method(n)))[0]
                   for n in ("left", "right"))
    assert left.co_filename == "<decoded T.left>"
    assert right.co_filename == "<decoded T.right>"
    assert left is not right


def _loop(a: Asm) -> None:
    i = a.local("i")
    a.for_range(i, lambda: a.const(50), lambda: (
        a.getstatic("T", "out").const(1).add().putstatic("T", "out"),
    ))


def _decoded_with(cost_model: CostModel, mode: str):
    vm, m = _linked(_loop, mode, fields=["out"], cost_model=cost_model)
    dm = predecode_method(vm, m)
    assert dm.superblock_list
    return dm


def test_baked_in_literals_miss_the_cache() -> None:
    """The quantum (superblock guard) and the read-barrier cost (inline
    fast path) are literals in the source, so changing either compiles
    afresh; the same cost model again hits."""
    base = CostModel()
    changes = (("unmodified", {"quantum": base.quantum + 1}),
               ("rollback", {"read_barrier": base.read_barrier + 1}))
    for mode, change in changes:
        codes = _codes(_decoded_with(base, mode))
        before = _misses()
        assert _codes(_decoded_with(base, mode)) == codes
        assert _misses() == before
        changed = _codes(_decoded_with(
            dataclasses.replace(base, **change), mode))
        assert _misses() > before
        assert changed[-1] is not codes[-1]


def test_restored_vm_reuses_cached_code_and_stays_identical() -> None:
    def observe(vm: JVM, outcome: str) -> tuple:
        return (outcome, vm.clock.now, vm.clock.events,
                vm.tracer.render(), vm.metrics())

    # no memory tracing, which would force the reference interpreter
    vm = check_vm(get_scenario("mini-handoff"), "rollback",
                  trace=True, interp="fast")
    vm.scheduler.decision_hook = ScheduleController()
    while vm.scheduler.decisions < 3:
        assert vm.scheduler.step(), "the run ended before decision 3"
    checkpoint = snapshot_vm(vm)
    original = observe(vm, drain(vm))
    before = _module_code.cache_info()
    resumed = restore_vm(checkpoint)
    outcome = drain(resumed)
    after = _module_code.cache_info()
    assert after.misses == before.misses
    # the restored VM execs the image's code objects: nothing compiles
    assert resumed.image is vm.image
    assert after.hits == before.hits
    shared = [(_codes(dm), _codes(vm.interpreter.decoded[key]))
              for key, dm in resumed.interpreter.decoded.items()]
    assert shared and all(a == b for a, b in shared)
    assert observe(resumed, outcome) == original
