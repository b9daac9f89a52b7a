"""Superblock trace compilation: formation, eligibility bail-outs, and
guard-failure parity (PR 7 tentpole).

Superblocks may only change speed, never behaviour, so every behavioural
test here runs the same guest program once per interpreter and compares
the full observable surface — clock value, clock event count, checker
fingerprint, metrics, trace stream.  The scenarios target the escape
hatches of the guard-and-commit protocol specifically: a revocation
arriving at the anchor, a fault plane going quiet mid-run, a guest
exception unwinding out of a fused iteration, quantum preemption, and
starvation detection firing from inside the generated function.  The
state a run defers to its exit (guest locals, logged stores, read-barrier
hits) is compared after every slice, once per exit.
"""

from __future__ import annotations

import pytest

from repro import FaultPlan
from repro.check.oracle import final_fingerprint, fingerprint_digest
from repro.errors import StarvationError, UncaughtGuestException
from repro.vm.assembler import Asm
from repro.vm.heap import VMArray, VMObject, location_of
from repro.vm.predecode import predecode_method, render_decoded
from repro.vm.tracecomp import SuperBlock
from repro.vm.vmcore import JVM, VMOptions

from conftest import build_class, make_vm, probe_superblocks


def _snap(vm: JVM, outcome: str) -> dict:
    return {
        "outcome": outcome,
        "clock_now": vm.clock.now,
        "clock_events": vm.clock.events,
        "fingerprint": fingerprint_digest(final_fingerprint(vm, outcome)),
        "metrics": vm.metrics(),
        "trace": list(vm.tracer.events),
    }


def _run(install, mode: str, interp: str, **opts) -> dict:
    vm = make_vm(mode, interp=interp, seed=7, **opts)
    install(vm)
    outcome = "ok"
    try:
        vm.run()
    except StarvationError:
        outcome = "starved"
    except UncaughtGuestException as exc:
        outcome = f"uncaught:{exc}"
    return _snap(vm, outcome)


def _assert_parity(install, mode: str = "rollback", **opts) -> dict:
    """Run fast and reference; everything must match.  Returns the fast
    snapshot so callers can additionally assert the scenario engaged."""
    ref = _run(install, mode, "reference", **opts)
    fast = _run(install, mode, "fast", **opts)
    for key in ref:
        assert fast[key] == ref[key], f"{mode}: {key} diverged"
    return fast


# ------------------------------------------------------------- formation
def _hot_loop(count: int = 100) -> Asm:
    a = Asm("run", argc=0)
    i = a.local()
    a.for_range(i, lambda: a.const(count), lambda: (
        a.getstatic("C", "value"), a.const(1), a.add(),
        a.putstatic("C", "value"),
    ))
    a.ret()
    return a


def _decode(asm: Asm, mode: str = "unmodified"):
    vm = make_vm(mode, interp="fast")
    vm.load(build_class("C", ["lock:ref", "value"], [asm]))
    method = vm.classes["C"].method("run")
    return predecode_method(vm, method)


class TestFormation:
    def test_hot_loop_forms_a_superblock(self):
        dm = _decode(_hot_loop())
        assert dm.superblock_list, "for_range back-edge must fuse"
        sb = dm.superblock_list[0]
        assert isinstance(sb, SuperBlock)
        assert sb.head < sb.anchor
        assert callable(sb.fn)
        # the dispatch table points the anchor pc at the superblock
        assert dm.superblocks[sb.anchor] is sb
        # non-anchor pcs carry no superblock
        others = [s for pc, s in enumerate(dm.superblocks)
                  if s is not None and pc != sb.anchor]
        assert others == []

    def test_superblock_forms_inside_sync_section(self):
        """Barriered stores are batchable, so a loop inside a rollback
        section still fuses (the bench's dominant shape)."""
        a = Asm("run", argc=0)
        a.getstatic("C", "lock")
        with a.sync():
            i = a.local()
            a.for_range(i, lambda: a.const(50), lambda: (
                a.getstatic("C", "value"), a.const(1), a.add(),
                a.putstatic("C", "value"),
            ))
        a.ret()
        dm = _decode(a, mode="rollback")
        assert dm.superblock_list

    def test_render_decoded_shows_superblock_section(self):
        dm = _decode(_hot_loop())
        text = render_decoded(dm)
        sb = dm.superblock_list[0]
        assert f"-- superblock @{sb.anchor}" in text
        assert f"def _s{sb.anchor}(" in sb.source

    def test_loop_with_yield_point_in_body_not_fused(self):
        """A body op that is itself a yield point (here a call) keeps
        the loop block-at-a-time."""
        callee = Asm("leaf", argc=0)
        callee.const(1).putstatic("C", "value")
        callee.ret()
        a = Asm("run", argc=0)
        i = a.local()
        a.for_range(i, lambda: a.const(10), lambda: (
            a.invoke("C", "leaf", 0),
        ))
        a.ret()
        vm = make_vm("unmodified", interp="fast")
        vm.load(build_class("C", ["lock:ref", "value"], [a, callee]))
        dm = predecode_method(vm, vm.classes["C"].method("run"))
        assert dm.superblock_list == []


# ------------------------------------------------- guard-failure parity
def _install_inversion(vm: JVM) -> None:
    """Priority inversion over a fused loop inside a section: the high
    thread's revocation lands at the low thread's anchor yield point."""
    run = Asm("run", argc=2)  # (iters, delay)
    run.load(1).sleep()
    run.getstatic("T", "lock")
    with run.sync():
        i = run.local()
        run.for_range(i, lambda: run.load(0), lambda: (
            run.getstatic("T", "counter"), run.const(1), run.add(),
            run.putstatic("T", "counter"),
        ))
    run.ret()
    vm.load(build_class("T", ["lock:ref", "counter:int"], [run]))
    vm.set_static("T", "lock", vm.new_object("T"))
    vm.spawn("T", "run", args=[2_000, 1], priority=1, name="low")
    vm.spawn("T", "run", args=[60, 6_000], priority=10, name="high")


class TestGuardParity:
    def test_revocation_arriving_mid_loop(self):
        """A pending revocation must refuse superblock entry and take
        the inline rollback path, byte-identical to the reference."""
        fast = _assert_parity(_install_inversion, "rollback")
        assert fast["metrics"]["support"]["revocations_completed"] >= 1

    @pytest.mark.parametrize("mode", ("inheritance", "ceiling"))
    def test_inversion_parity_other_policies(self, mode):
        _assert_parity(_install_inversion, mode)

    def test_fault_plane_quieting_mid_run(self):
        """With guest-exception faults armed the anchor probe must run
        every iteration (no fusion); once the injection budget is spent
        ``yield_quiet`` flips and fusion resumes — both phases must stay
        byte-identical to the reference."""
        def install(vm: JVM) -> None:
            run = Asm("run", argc=0)
            i = run.local()
            run.for_range(i, lambda: run.const(500), lambda: (
                run.getstatic("C", "value"), run.const(1), run.add(),
                run.putstatic("C", "value"),
            ))
            run.ret()
            vm.load(build_class("C", ["lock:ref", "value"], [run]))
            for n in range(4):
                vm.spawn("C", "run", priority=5, name=f"t{n}")

        fast = _assert_parity(
            install, "rollback",
            faults=FaultPlan(guest_exception_rate=0.01, max_injections=2),
            raise_on_uncaught=False,
        )
        # the scenario engaged: the budget was actually spent, so the
        # run crossed from probing to fused execution
        injected = sum(
            e.details.get("count", 1)
            for e in fast["trace"] if e.kind == "fault_inject"
        )
        assert injected == 2

    def test_guest_exception_unwinding_from_fused_run(self):
        """A divide fault on iteration 50 of a fused loop, caught by a
        handler *outside* the loop: the superblock's partial-iteration
        accumulators and faulting pc must reproduce the reference's
        charge-before-execute accounting exactly."""
        def install(vm: JVM) -> None:
            a = Asm("run", argc=0)
            i = a.local()

            def body():
                a.for_range(i, lambda: a.const(200), lambda: (
                    a.getstatic("C", "value"), a.const(1), a.add(),
                    a.putstatic("C", "value"),
                    a.const(100), a.const(50),
                    a.getstatic("C", "value"), a.sub(), a.div(),
                    a.putstatic("C", "out"),
                ))

            def on_arith():
                a.pop()
                a.const(-1).putstatic("C", "err")

            a.try_(body, catches=[("ArithmeticException", on_arith)])
            a.ret()
            vm.load(build_class(
                "C", ["lock:ref", "value", "out", "err"], [a]
            ))
            vm.spawn("C", "run", priority=5, name="t0")

        for mode in ("unmodified", "rollback"):
            fast = _assert_parity(install, mode)
            assert fast["outcome"] == "ok"

    def test_quantum_preemption_inside_superblock(self):
        """Two competing threads force the in-trace preemption exit
        (commit + return -1) many times; slice boundaries, context
        switches and the clock must match the reference."""
        def install(vm: JVM) -> None:
            run = Asm("run", argc=0)
            i = run.local()
            run.for_range(i, lambda: run.const(5_000), lambda: (
                run.getstatic("C", "value"), run.const(1), run.add(),
                run.putstatic("C", "value"),
            ))
            run.ret()
            vm.load(build_class("C", ["lock:ref", "value"], [run]))
            vm.spawn("C", "run", priority=5, name="a")
            vm.spawn("C", "run", priority=5, name="b")

        fast = _assert_parity(install, "unmodified")
        assert fast["metrics"]["context_switches"] >= 2

    def test_starvation_raised_from_superblock(self):
        """The in-trace max-cycles check must starve at the same virtual
        cycle as the reference's per-yield-point check."""
        def install(vm: JVM) -> None:
            run = Asm("run", argc=0)
            i = run.local()
            run.for_range(i, lambda: run.const(1_000_000), lambda: (
                run.getstatic("C", "value"), run.const(1), run.add(),
                run.putstatic("C", "value"),
            ))
            run.ret()
            vm.load(build_class("C", ["lock:ref", "value"], [run]))
            vm.spawn("C", "run", priority=5, name="t0")

        fast = _assert_parity(install, "unmodified", max_cycles=20_000)
        assert fast["outcome"] == "starved"


# ---------------------------------------------- deferred state at slices
# A superblock holds guest locals, the read-barrier hit count and its
# logged stores in Python locals and applies them once, at the run's
# exit.  Slice hooks are the first observers after any exit, so the
# state they see must be the reference's after every slice, for each way
# a run can end with logged stores still pending.
def _plain(value):
    if isinstance(value, (VMObject, VMArray)):
        return ("ref", value.oid)
    return value


def _slice_state(vm: JVM) -> tuple:
    support = vm.support
    logs = [
        [(location_of(c, s), _plain(old)) for c, s, old in t.undo_log.entries]
        if t.undo_log is not None else []
        for t in vm.threads
    ]
    top_locals = [
        [_plain(v) for v in t.frames[-1].locals] if t.frames else None
        for t in vm.threads
    ]
    return (logs, dict(support.jmm.live), support.metrics.as_dict(),
            top_locals)


def _slices(install, interp: str, state=_slice_state, **opts) -> list:
    """``state(vm)`` after every slice (and after a starvation) of one
    rollback-mode run."""
    vm = make_vm("rollback", interp=interp, seed=7, **opts)
    install(vm)
    states: list = []
    vm.slice_hooks.append(lambda v: states.append(state(v)))
    try:
        vm.run()
    except StarvationError:
        states.append(("starved", state(vm)))
    return states


def _section_loop(count: int, tail=None, catch: str = "") -> Asm:
    """``count`` iterations inside a section on ``C.lock``; each stores
    ``i * 3`` into a local, logs a store of it to ``C.value`` and reads
    ``C.value`` back, then runs ``tail(a, i, done)`` (``done`` is placed
    after the loop).  The section ends with a yield point, so a slice
    ends while its undo log is still open."""
    a = Asm("run", argc=0)
    a.getstatic("C", "lock")
    with a.sync():
        i = a.local("i")
        j = a.local("j")
        done = a.label("done")

        def body() -> None:
            a.load(i).const(3).mul().store(j)
            a.load(j).putstatic("C", "value")
            a.getstatic("C", "value").pop()
            if tail is not None:
                tail(a, i, done)

        def loop() -> None:
            a.for_range(i, lambda: a.const(count), body)

        if catch:
            a.try_(loop, catches=[(catch, lambda: a.pop())])
        else:
            loop()
        a.place(done)
        a.yield_()
    a.ret()
    return a


def _install_loop(*args, **kwargs):
    def install(vm: JVM) -> None:
        asm = _section_loop(*args, **kwargs)
        vm.load(build_class("C", ["lock:ref", "value", "out"], [asm]))
        vm.set_static("C", "lock", vm.new_object("C"))
        vm.spawn("C", "run", priority=5, name="t0")
    return install


def _break_at_37(a: Asm, i: int, done) -> None:
    a.load(i).const(37).eq().if_(done)
    a.load(i).putstatic("C", "out")


def _fault_at_50(a: Asm, i: int, done) -> None:
    # after this iteration's logged store and local store
    a.const(100).const(50).load(i).sub().div().pop()


def _shared_writers(vm: JVM) -> None:
    from test_interp_parity import _build_shared_writers

    _build_shared_writers().install(vm)


SLICE_CASES = [
    # (name, install, options, the superblock exit the case must reach)
    ("quantum-preemption", _install_loop(3_000), {}, "preempt"),
    ("branch-out", _install_loop(1_000, tail=_break_at_37), {}, "branch"),
    ("guest-exception", _install_loop(
        1_000, tail=_fault_at_50, catch="ArithmeticException"), {}, "guest"),
    ("starvation", _install_loop(1_000_000), {"max_cycles": 20_000},
     "starved"),
    ("shared-writers", _shared_writers, {}, "preempt"),
]


@pytest.mark.parametrize(
    "install,opts,exit", [c[1:] for c in SLICE_CASES],
    ids=[c[0] for c in SLICE_CASES],
)
def test_deferred_state_matches_reference_at_every_slice(
        install, opts, exit, monkeypatch):
    """Undo logs (as locations and old values), the JMM live counts, the
    support metrics and every thread's top-frame locals, recorded after
    each slice, equal the reference's; the case really left a
    superblock by its exit with logged stores pending."""
    runs = probe_superblocks(monkeypatch)
    ref = _slices(install, "reference", **opts)
    fast = _slices(install, "fast", **opts)
    assert len(fast) == len(ref)
    for k, (got, want) in enumerate(zip(fast, ref)):
        assert got == want, f"slice {k} diverged"
    assert (exit, True) in {(e, logged > 0) for e, logged in runs}
