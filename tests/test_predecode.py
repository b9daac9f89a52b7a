"""Unit tests for the predecoder (:mod:`repro.vm.predecode`).

The parity suite (``test_interp_parity.py``) proves the fast interpreter
is observationally identical to the reference; these tests pin the
*structure* the predecoder produces — where blocks start and end, that
cost batching is the exact sum of per-instruction link costs, that the
fault-repair suffix arrays are right, which superinstructions fire, and
that the cache lifecycle (lazy build, invalidation, no leak through
``MethodDef.copy``) behaves.
"""

from __future__ import annotations

from conftest import build_class, make_vm
from repro.vm import bytecode as bc
from repro.vm.assembler import Asm
from repro.vm.predecode import (
    find_leaders,
    find_runs,
    predecode_method,
    render_decoded,
)


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
def test_predecode_is_cached_and_invalidation_drops_it() -> None:
    def emit(a: Asm) -> None:
        a.const(1).const(2).add().pop()

    vm, m = _linked(emit)
    dm = predecode_method(vm, m)
    assert predecode_method(vm, m) is dm
    m.invalidate_decoded()
    assert predecode_method(vm, m) is not dm


def test_copy_never_carries_predecode_state() -> None:
    def emit(a: Asm) -> None:
        a.const(1).const(2).add().pop()

    vm, m = _linked(emit)
    predecode_method(vm, m)
    assert "_decoded" in m.__dict__
    assert "_decoded" not in m.copy().__dict__


# ------------------------------------------------------------------ dumps
def test_render_decoded_mentions_blocks_and_source() -> None:
    def emit(a: Asm) -> None:
        a.const(2).const(3).add().pop()

    vm, m = _linked(emit)
    dump = render_decoded(predecode_method(vm, m))
    assert "T.main" in dump
    assert "block [0," in dump
    assert "def _b0(" in dump
