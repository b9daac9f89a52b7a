"""Cycle profiler: exactness by construction.

The profiler books the clock time since its mark to one (track,
category) cell at every context change, so every advanced cycle lands
in exactly one cell — the grand total *must* equal the final virtual
clock with zero residue, in every policy mode, under either
interpreter.  Per-method totals come from the
interpreters' flush points, which the parity suite already pins as
identical, so the per-track guest total must equal the per-method sum.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import pytest

from repro.bench.workloads import (
    build_deadlock_pair,
    build_medium_inversion,
    build_philosophers,
)
from repro.errors import run_outcome
from repro.vm import vmcore
from repro.vm.vmcore import JVM, VMOptions

MODES = ("unmodified", "rollback", "inheritance", "ceiling")


def _run(build, mode="rollback", interp="fast", **overrides):
    opts = dict(mode=mode, interp=interp, trace=True, profile=True,
                seed=7, max_cycles=50_000_000)
    opts.update(overrides)
    vm = JVM(VMOptions(**opts))
    build().install(vm)
    # a run that crashed part-way must not feed the exactness checks:
    # every caller asserts the outcome it expects
    return vm, run_outcome(vm.run)


def _medium():
    return build_medium_inversion(
        medium_threads=2, low_section_iters=300,
        medium_work_iters=500, high_section_iters=60,
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("interp", ("fast", "reference"))
def test_total_equals_final_clock_exactly(mode, interp):
    vm, outcome = _run(_medium, mode=mode, interp=interp)
    assert outcome == "completed"
    assert vm.profiler.total_cycles() == vm.clock.now


@pytest.mark.parametrize("mode", MODES)
def test_guest_track_equals_per_method_sum(mode):
    vm, outcome = _run(_medium, mode=mode)
    assert outcome == "completed"
    per_method: dict = {}
    for (track, _method), (cycles, _insns) in vm.profiler.methods.items():
        per_method[track] = per_method.get(track, 0) + cycles
    for track, cats in vm.profiler.tracks.items():
        if track == "(vm)":
            continue
        assert cats.get("guest", 0) == per_method.get(track, 0), track


def test_rollback_cycles_attributed():
    vm, outcome = _run(lambda: build_deadlock_pair(hold_cycles=800, work=20))
    assert outcome == "completed"
    rollback = sum(
        cats.get("rollback", 0) for cats in vm.profiler.tracks.values()
    )
    assert rollback > 0
    assert rollback == vm.metrics()["support"]["rollback_cycles"]


def test_mechanism_split_present_under_rollback():
    vm, outcome = _run(_medium, mode="rollback")
    assert outcome == "completed"
    rows = vm.profiler.method_table()
    assert rows
    top = rows[0]
    # rollback mode runs write barriers + undo logging on guest stores
    assert sum(r["barrier"] for r in rows) > 0
    assert sum(r["undo_log"] for r in rows) > 0
    for r in rows:
        assert r["work"] >= 0
        # in-flush mechanisms never exceed the method's flushed cycles
        inflush = (r["barrier"] + r["undo_log"] + r["monitor"]
                   + r["native"])
        assert inflush <= r["cycles"]
    assert top["cycles"] >= rows[-1]["cycles"]


def test_switch_cycles_match_context_switch_cost():
    vm, outcome = _run(_medium, mode="unmodified")
    assert outcome == "completed"
    switch = sum(
        cats.get("switch", 0) for cats in vm.profiler.tracks.values()
    )
    m = vm.metrics()
    assert switch == m["context_switches"] * vm.cost_model.context_switch


@pytest.mark.parametrize("interp", ("fast", "reference"))
def test_idle_cycles_match_the_clock_jumps(interp, monkeypatch):
    """``idle`` on ``(vm)`` is exactly the time the clock jumped while
    every thread slept: the sum of the ``advance_to`` deltas."""
    from repro.obs.capture import ObsSpec, build_capture_vm
    from repro.vm.clock import VirtualClock

    jumps = []
    advance_to = VirtualClock.advance_to

    def counted(clock, time):
        jumps.append(max(0, time - clock.now))
        return advance_to(clock, time)

    monkeypatch.setattr(VirtualClock, "advance_to", counted)
    _, vm, _, _ = build_capture_vm(
        ObsSpec("fig6b", mode="rollback", interp=interp)
    )
    assert run_outcome(vm.run) == "completed"
    assert sum(jumps) > 0
    assert vm.profiler.tracks["(vm)"]["idle"] == sum(jumps)


def test_profiler_absent_by_default():
    vm = JVM(VMOptions(mode="rollback", trace=True))
    assert vm.profiler is None
    build_deadlock_pair(hold_cycles=800, work=20).install(vm)
    vm.run()  # no profiling machinery in the way


def test_profile_identical_across_interpreters():
    a, outcome_a = _run(_medium, interp="fast")
    b, outcome_b = _run(_medium, interp="reference")
    assert outcome_a == outcome_b == "completed"
    assert a.profiler.tracks == b.profiler.tracks
    assert a.profiler.methods == b.profiler.methods
    assert a.profiler.stacks == b.profiler.stacks
    assert a.profiler.mech == b.profiler.mech


def test_folded_stacks_cover_guest_cycles():
    vm, outcome = _run(lambda: build_philosophers(
        3, rounds=3, think_cycles=300, eat_iters=15
    ))
    assert outcome == "completed"
    by_track: dict = {}
    for (track, _stack), cycles in vm.profiler.stacks.items():
        by_track[track] = by_track.get(track, 0) + cycles
    for track, cats in vm.profiler.tracks.items():
        if track == "(vm)":
            continue
        assert by_track.get(track, 0) == cats.get("guest", 0)


def test_profiling_does_not_change_the_run():
    plain, plain_outcome = _run(_medium, profile=False)
    profiled, profiled_outcome = _run(_medium, profile=True)
    assert plain_outcome == profiled_outcome == "completed"
    assert plain.clock.now == profiled.clock.now
    assert plain.clock.events == profiled.clock.events
    assert [str(e) for e in plain.tracer.events] == [
        str(e) for e in profiled.tracer.events
    ]
    pm, qm = plain.metrics(), profiled.metrics()
    assert pm["support"] == qm["support"]


@pytest.mark.parametrize("interp", ("fast", "reference"))
def test_rollback_mechanism_split_pinned(interp):
    """The barrier / undo_log split of a profiled medium-inversion cell
    (pinned from before the read barrier had an inline fast path)."""
    vm, outcome = _run(_medium, mode="rollback", interp=interp)
    assert outcome == "completed"
    rows = vm.profiler.method_table()
    assert sum(r["barrier"] for r in rows) == 1722
    assert sum(r["undo_log"] for r in rows) == 1080
    assert sum(r["cycles"] for r in rows) == 25538


#: sha256 of ``json.dumps(profiler.method_table(), sort_keys=True)`` for
#: rollback-mode obs captures, pinned before barrier attribution moved
#: to the support's hit counters: every row's barrier / undo_log /
#: rollback split, not just the sums.
METHOD_TABLE_DIGESTS = {
    "medium-inversion":
        "4fa5361aeeae6408b6739c1f7e7b1752d1f63337d6800623f7c5435ed5c4c116",
    "fig6b":
        "69f2b50537fc6754c2c0f2324761e6e5932e13293330d70f7e01821a5fcb7009",
    "server-storm":
        "17bae14d97bc6bdc46f4a54a0b0888d003ef79d2793595af18b9c32f8d96de22",
    "deadlock-pair":
        "2d0c1e46ab7626dcdf39f282d2c2584f7043d54d75e4e3ed848057d4f7d64bcb",
}

#: sha256 of ``json.dumps({"tracks", "blocked", "total"}, sort_keys=True)``
#: for the same captures, pinned while every clock advance still went
#: through a listener: the per-track, per-category split, which fast and
#: reference would share if a booking slip moved cycles between cells.
TRACK_DIGESTS = {
    "medium-inversion":
        "4af762cea41ed587f330f12c8f3d1cf252bd6922c8eca7f3a700af3180e09f4e",
    "fig6b":
        "61d8036304c0c8b0c5d22176cb51ca0cd1c2843bb7116de10a3d896a89865471",
    "server-storm":
        "a48e0ff56df2513213528d7e6e80b61f5ac8a406d9ea5316817a92fa18c82d9d",
    "deadlock-pair":
        "48853438b1e61f027d2027d3f3c82395d79dc95d8b65189ce912f7fa644fd09a",
}


@pytest.mark.parametrize("interp", ("fast", "reference"))
@pytest.mark.parametrize("scenario", sorted(METHOD_TABLE_DIGESTS))
def test_method_tables_pinned(scenario, interp):
    """A barrier cost charged to the wrong method leaves the sums of
    ``test_rollback_mechanism_split_pinned`` intact; the per-method
    table catches it.  The per-track split is pinned beside it."""
    from repro.obs.capture import ObsSpec, build_capture_vm

    _, vm, _, _ = build_capture_vm(
        ObsSpec(scenario, mode="rollback", interp=interp)
    )
    assert run_outcome(vm.run) == "completed"
    rows = vm.profiler.method_table()
    assert any(r["barrier"] for r in rows)
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()
    assert digest == METHOD_TABLE_DIGESTS[scenario]
    prof = vm.profiler
    split = {"tracks": prof.tracks, "blocked": prof.blocked,
             "total": prof.total_cycles()}
    digest = hashlib.sha256(
        json.dumps(split, sort_keys=True).encode()
    ).hexdigest()
    assert digest == TRACK_DIGESTS[scenario]


# ------------------------------------------------- profiles under fusion
# Superblocks and the inlined read barrier run under the profiler: a run
# flushes its completed iterations once, at its exit, and barriers are
# attributed from the support's hit counters at each flush.  After every slice the
# fast tier's tables must equal the reference interpreter's, whichever
# way the last superblock run ended.
def _tables(vm: JVM) -> dict:
    prof = vm.profiler
    assert prof.total_cycles() == vm.clock.now
    return {
        "tracks": {t: dict(cats) for t, cats in prof.tracks.items()},
        "methods": {k: list(v) for k, v in prof.methods.items()},
        "stacks": dict(prof.stacks),
        "mech": dict(prof.mech),
    }


def _fig_cell(panel: str):
    def install(vm: JVM) -> None:
        from dataclasses import replace

        from repro.bench.figures import FigurePanel
        from repro.bench.microbench import setup_microbench_vm

        config = FigurePanel(int(panel[0]), panel[1]).base_config(7)
        setup_microbench_vm(vm, replace(config.scaled(0.1), write_pct=60))
    return install


def _workload(build):
    def install(vm: JVM) -> None:
        build().install(vm)
    return install


def _fusion_cases() -> list:
    from test_tracecomp import (
        _break_at_37,
        _fault_at_50,
        _install_loop,
        _shared_writers,
    )

    return [
        # (name, install, options, the superblock exit the case must reach)
        ("fig5a-rollback", _fig_cell("5a"), {}, "preempt"),
        ("fig6c-rollback", _fig_cell("6c"), {}, "preempt"),
        ("medium-inversion", _workload(_medium), {}, "preempt"),
        ("branch-out", _install_loop(1_000, tail=_break_at_37), {},
         "branch"),
        ("guest-exception", _install_loop(
            1_000, tail=_fault_at_50, catch="ArithmeticException"), {},
         "guest"),
        ("starvation", _install_loop(1_000_000),
         {"max_cycles": 20_000}, "starved"),
        ("shared-writers", _shared_writers, {}, "preempt"),
    ]


@pytest.mark.parametrize(
    "install,opts,exit", [c[1:] for c in _fusion_cases()],
    ids=[c[0] for c in _fusion_cases()],
)
def test_profile_parity_under_fusion(install, opts, exit, monkeypatch):
    """``tracks``, ``methods``, ``stacks`` and ``mech`` after every slice
    equal the reference's, and superblocks really ran under
    ``profile=True``, leaving by the named exit."""
    from conftest import probe_superblocks
    from test_tracecomp import _slices

    runs = probe_superblocks(monkeypatch)
    ref = _slices(install, "reference", _tables, profile=True, **opts)
    assert not runs
    fast = _slices(install, "fast", _tables, profile=True, **opts)
    assert len(fast) == len(ref)
    for k, (got, want) in enumerate(zip(fast, ref)):
        assert got == want, f"slice {k} diverged"
    assert exit in {e for e, _ in runs}
    final = ref[-1][1] if exit == "starved" else ref[-1]
    assert any(m == "barrier" for _, _, m in final["mech"])


def test_restored_profiled_vm_matches_the_straight_run(monkeypatch):
    """Checkpoint a profiled fast-tier VM mid-run, restore it and finish
    it: the profile equals the uninterrupted run's.  The barrier cursor
    round-trips with the support metrics it reads, and the restored VM's
    generated code binds its own profiler as ``PROF``."""
    from conftest import probe_superblocks

    from repro.vm.snapshot import restore_vm, snapshot_vm

    straight, outcome = _run(_medium)
    assert outcome == "completed"
    runs = probe_superblocks(monkeypatch)

    donor = JVM(VMOptions(mode="rollback", trace=True, profile=True,
                          seed=7, max_cycles=50_000_000))
    _medium().install(donor)
    for _ in range(straight.scheduler.slices // 2):
        assert donor.scheduler.step()
    metrics = donor.support.metrics
    assert metrics.read_barrier_hits > 0
    assert metrics.barrier_slow_hits > 0
    assert runs, "no superblock ran before the checkpoint"
    cursor = donor.profiler._seen
    assert cursor == (metrics.read_barrier_hits, metrics.barrier_fast_hits,
                      metrics.barrier_slow_hits)

    vm = restore_vm(snapshot_vm(donor))
    assert vm.profiler is not donor.profiler
    assert vm.profiler.clock is vm.clock
    assert vm.profiler._seen == cursor
    assert vm.profiler._watched is vm.support.metrics
    del runs[:]
    while vm.scheduler.step():
        pass
    vm.finish_run()
    assert runs, "no superblock ran after the restore"

    assert vm.clock.now == straight.clock.now
    assert vm.profiler.snapshot() == straight.profiler.snapshot()
    assert vm.profiler.stacks == straight.profiler.stacks
    assert vm.profiler.mech == straight.profiler.mech
    bound = {
        inspect.unwrap(sb.fn).__globals__["PROF"]
        for dm in vm.interpreter.decoded.values()
        for sb in dm.superblock_list
    }
    assert bound == {vm.profiler}


def test_profiled_and_plain_vms_share_generated_modules():
    """Profiled and unprofiled VMs run one generated source: after a
    profiled run, an unprofiled run of the same program compiles no
    module of its own."""
    from repro.vm import predecode

    vmcore._images.clear()
    predecode._module_code.cache_clear()
    profiled, profiled_outcome = _run(_medium, profile=True)
    assert profiled_outcome == "completed"
    compiled = predecode._module_code.cache_info()
    assert compiled.misses > 0
    plain, plain_outcome = _run(_medium, profile=False)
    assert plain_outcome == "completed"
    assert plain.clock.now == profiled.clock.now
    after = predecode._module_code.cache_info()
    assert after.misses == compiled.misses
    # the plain VM runs the profiled VM's image and its templates
    assert plain.image is profiled.image
