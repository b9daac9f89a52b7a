"""Superblock charging: one constant per path, rebuilt at every escape.

A superblock commits each completed iteration as the static charge of
the path it took (``dn += c; di += i``) and stops a run with one
comparison against a bound computed in its prologue.  A run that leaves
mid-iteration — a branch out of the loop or a guest exception — rebuilds
the partial iteration's cycles, instructions and read-barrier hits from
constants of the exit site.  These tests pin that protocol from three
sides:

* escape points: a loop whose body is a diamond, with a read, a logged
  store, a raising op and a branch-out in each arm and a raising op
  after the join, leaves from each site at a drawn iteration — with the
  read-barrier guard ``RG`` false (one thread) and true (a second
  thread preempted inside a section that holds undo entries), in both
  VM modes, profiled and plain — and every slice's state equals the
  reference interpreter's;
* exit ordering: a cycle cap just below, at and just above the cycle at
  which a quantum or a due wake-up ends the same iteration starves or
  preempts at the reference's clock and event count;
* structure: the ``RG``-false body of panel 5a's ``Bench.run`` does no
  per-instruction cycle arithmetic, commits once per path and tests one
  bound per iteration.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.bench.figures import FigurePanel
from repro.bench.microbench import setup_microbench_vm
from repro.errors import StarvationError
from repro.vm import bytecode as bc
from repro.vm.assembler import Asm
from repro.vm.heap import location_of
from repro.vm.predecode import predecode_method
from repro.vm.vmcore import JVM, VMOptions

from conftest import build_class, make_vm, probe_superblocks
from test_obs_profile import _tables
from test_tracecomp import _plain, _snap

ITERATIONS = 60
NEVER = -1


# ------------------------------------------------------------ the guest
def _diamond_loop() -> Asm:
    """``run(kA, kB, kT, bA, bB)``: inside a section on ``C.lock``,
    ``ITERATIONS`` iterations of a diamond.  Even iterations take arm A,
    odd ones arm B; each arm reads a static (A ``C.value``, B
    ``C.other``), logs a store to ``C.value``,
    divides by ``i - k`` (raising at iteration ``kA``/``kB``) and leaves
    the loop at iteration ``bA``/``bB``.  After the join every path
    divides by ``i - kT``.  A handler outside the loop catches the
    ``ArithmeticException``; the section ends with a yield point, so a
    slice ends with its undo log still open."""
    a = Asm("run", argc=5)
    k_a, k_b, k_t, b_a, b_b = (a.arg(n) for n in range(5))
    i = a.local("i")
    tmp = a.local("tmp")
    done = a.label("done")

    def arm_a() -> None:
        a.getstatic("C", "value").pop()
        a.load(i).putstatic("C", "value")
        a.const(100).load(i).load(k_a).sub().div().pop()
        a.load(i).load(b_a).eq().if_(done)

    def arm_b() -> None:
        a.getstatic("C", "other").const(1).add().store(tmp)
        a.load(i).const(2).mul().putstatic("C", "value")
        a.const(7).load(i).load(k_b).sub().mod().pop()
        a.load(i).load(b_b).eq().if_(done)

    def body() -> None:
        a.if_then(lambda: a.load(i).const(2).mod().const(1).lt(),
                  arm_a, arm_b)
        a.const(100).load(i).load(k_t).sub().div().pop()

    def on_arith() -> None:
        a.pop()
        a.const(-1).putstatic("C", "err")

    a.getstatic("C", "lock")
    with a.sync():
        a.try_(lambda: a.for_range(i, lambda: a.const(ITERATIONS), body),
               catches=[("ArithmeticException", on_arith)])
        a.place(done)
        a.yield_()
    a.ret()
    return a


def _writer(name: str, lock: str, field: str) -> Asm:
    """Logs a store to ``C.<field>`` inside a section on ``C.<lock>`` and
    then computes for several quanta, so it is preempted holding that
    undo entry: while it is off-CPU, another thread's ``RG`` is true."""
    a = Asm(name, argc=0)
    j = a.local("j")
    a.getstatic("C", lock)
    with a.sync():
        a.const(5).putstatic("C", field)
        a.for_range(j, lambda: a.const(3_000), lambda: (
            a.load(j).const(3).mul().putstatic("C", "out"),
        ))
    a.ret()
    return a


def _install(args: list, contended: bool):
    """``contended`` adds two writers, one per static ``run`` reads.
    Iteration 0 runs on blocks (a superblock is entered at the loop's
    back-edge) and reads only ``C.value``, so the read that pins the
    second writer's section runs inside the superblock."""
    def install(vm: JVM) -> None:
        vm.load(build_class(
            "C", ["lock:ref", "lock2:ref", "lock3:ref", "value", "other",
                  "out", "err"],
            [_diamond_loop(), _writer("write", "lock2", "value"),
             _writer("write2", "lock3", "other")],
        ))
        for lock in ("lock", "lock2", "lock3"):
            vm.set_static("C", lock, vm.new_object("C"))
        if contended:
            vm.spawn("C", "write", priority=5, name="writer")
            vm.spawn("C", "write2", priority=5, name="writer2")
        vm.spawn("C", "run", args=args, priority=5, name="t0")
    return install


def _escape_cases() -> list:
    """(name, args, exit) for each site, at an iteration drawn from a
    fixed seed: even iterations run arm A, odd ones arm B."""
    rng = random.Random(38)

    def even() -> int:
        return 2 * rng.randrange(3, ITERATIONS // 2 - 1)

    def odd() -> int:
        return even() + 1

    def args(**drawn) -> list:
        names = ("kA", "kB", "kT", "bA", "bB")
        return [drawn.get(n, NEVER) for n in names]

    return [
        ("raise-arm-A", args(kA=even()), "guest"),
        ("raise-arm-B", args(kB=odd()), "guest"),
        ("raise-after-A", args(kT=even()), "guest"),
        ("raise-after-B", args(kT=odd()), "guest"),
        ("branch-arm-A", args(bA=even()), "branch"),
        ("branch-arm-B", args(bB=odd()), "branch"),
    ]


# ------------------------------------------------------------ the runs
def _state(vm: JVM, profiled: bool) -> tuple:
    """What a slice hook can observe of the state a run defers to its
    exit, plus the clock and, when profiled, the profile tables."""
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
    jmm = getattr(support, "jmm", None)
    metrics = getattr(support, "metrics", None)
    return (
        vm.clock.now, vm.clock.events, logs, top_locals,
        dict(jmm.live) if jmm is not None else None,
        metrics.as_dict() if metrics is not None else None,
        _tables(vm) if profiled else None,
    )


def _run(install, mode: str, interp: str, profiled: bool, **opts):
    """The state after every slice and the final snapshot of one run."""
    vm = make_vm(mode, interp=interp, seed=7, profile=profiled, **opts)
    install(vm)
    states: list = []
    vm.slice_hooks.append(lambda v: states.append(_state(v, profiled)))
    outcome = "ok"
    try:
        vm.run()
    except StarvationError:
        outcome = "starved"
    states.append(_state(vm, profiled))
    return states, _snap(vm, outcome)


def _assert_parity(install, mode: str, profiled: bool = False, **opts):
    ref_states, ref = _run(install, mode, "reference", profiled, **opts)
    states, fast = _run(install, mode, "fast", profiled, **opts)
    assert len(states) == len(ref_states)
    for k, (got, want) in enumerate(zip(states, ref_states)):
        assert got == want, f"slice {k} diverged"
    for key in ref:
        assert fast[key] == ref[key], f"{key} diverged"
    return fast


CASES = _escape_cases()


@pytest.mark.parametrize("profiled", (False, True), ids=("plain", "profiled"))
@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
@pytest.mark.parametrize("contended", (False, True),
                         ids=("one-thread", "writer-preempted"))
@pytest.mark.parametrize("args,exit", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_escape_point_parity(args, exit, contended, mode, profiled,
                             monkeypatch):
    """Each escape site, on each arm and after the join, leaves the
    superblock at the reference's clock, event count, undo logs, JMM
    state, metrics and profile, after every slice.  In rollback mode
    the run left through that exit with the guard the setting means:
    ``RG`` false alone, true while the writer's section is live."""
    runs = probe_superblocks(monkeypatch, guard=True)
    fast = _assert_parity(_install(args, contended), mode, profiled)
    assert fast["outcome"] == "ok"
    rg = contended and mode == "rollback"
    assert exit in {e for e, _, g in runs if g == rg}, runs
    if rg:
        # the read barriers' slow path ran: each writer's section was
        # pinned by a read of its speculative store
        support = fast["metrics"]["support"]
        assert support["nonrevocable_dependency"] == 2


# ------------------------------------------------------- exit ordering
def _spin(count: int) -> Asm:
    a = Asm("spin", argc=0)
    i = a.local("i")
    a.for_range(i, lambda: a.const(count), lambda: (
        a.getstatic("C", "value"), a.const(1), a.add(),
        a.putstatic("C", "value"),
    ))
    a.ret()
    return a


def _doze() -> Asm:
    a = Asm("doze", argc=1)
    a.load(0).sleep()
    a.ret()
    return a


WAKE_AT = 3_000


def _install_spin(wake: bool):
    """One thread spinning for many quanta; with ``wake``, a second
    thread that is asleep until ``WAKE_AT`` ends the first slice."""
    def install(vm: JVM) -> None:
        vm.load(build_class("C", ["lock:ref", "value"],
                            [_spin(1_000_000), _doze()]))
        if wake:
            vm.spawn("C", "doze", args=[WAKE_AT], priority=5, name="doze")
        vm.spawn("C", "spin", priority=5, name="t0")
    return install


def _slice_ends(install, mode: str) -> list[int]:
    vm = make_vm(mode, interp="reference", seed=7, max_cycles=200_000)
    install(vm)
    ends: list[int] = []
    vm.slice_hooks.append(lambda v: ends.append(v.clock.now))
    with pytest.raises(StarvationError):
        vm.run()
    return ends


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
@pytest.mark.parametrize("wake", (False, True), ids=("quantum", "wake-up"))
def test_cap_against_the_iteration_that_ends_a_slice(wake, mode,
                                                      monkeypatch):
    """``C`` is the cycle at which a quantum (or a due wake-up) ends an
    iteration and the spinning thread's slice.  A cap of ``C - 1``
    falls in that same iteration and must starve at ``C``; caps of ``C``
    and ``C + 1`` must preempt there and starve later.  A cap in the
    middle of a slice checks the bound includes the cap at all.  Every
    run matches the reference's clock, event count and slices."""
    install = _install_spin(wake)
    ends = _slice_ends(install, mode)
    end = next(c for c in ends if c > (WAKE_AT if wake else 0))
    start = max([0] + [c for c in ends if c < end])
    runs = probe_superblocks(monkeypatch)
    for cap in (end - 1, end, end + 1, (start + end) // 2):
        del runs[:]
        fast = _assert_parity(install, mode, max_cycles=cap)
        assert fast["outcome"] == "starved"
        assert runs, "no superblock ran"
        if cap < end:
            assert fast["clock_now"] <= end
            assert runs[-1][0] == "starved"
        else:
            assert ("preempt", 0) in runs
            assert fast["clock_now"] > end


# --------------------------------------------------------- structure
def _bench_superblock(mode: str, capped: bool):
    options = VMOptions(mode=mode, seed=7,
                        max_cycles=10**9 if capped else None)
    vm = JVM(options)
    config = FigurePanel(5, "a").base_config()
    setup_microbench_vm(vm, config)
    method = vm.classes["Bench"].method("run")
    (sb,) = predecode_method(vm, method).superblock_list
    return method.code, sb


def _paths(code, head: int, anchor: int) -> tuple[int, int]:
    """Paths through the loop body ``[head, anchor)``: (to the
    back-edge, out of the loop), by walking the bytecode."""
    def walk(pc: int) -> tuple[int, int]:
        if pc == anchor:
            return 1, 0
        if not head <= pc < anchor:
            return 0, 1
        ins = code[pc]
        if ins.op == bc.GOTO:
            return walk(ins.a)
        if ins.op in (bc.IF, bc.IFNOT):
            taken, fall = walk(ins.a), walk(pc + 1)
            return taken[0] + fall[0], taken[1] + fall[1]
        return walk(pc + 1)
    return walk(head)


def _folded_body(source: str) -> list[str]:
    """The lines of the body a run with ``RG`` false executes."""
    lines = source.splitlines()
    if "        if not RG:" in lines:
        start = lines.index("        if not RG:") + 1
        return lines[start:lines.index("        else:", start)]
    start = lines.index("        while True:")
    end = next(k for k, line in enumerate(lines)
               if line.startswith("    except") or line == "    finally:")
    return lines[start:end]


@pytest.mark.parametrize("capped", (False, True), ids=("uncapped", "capped"))
@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
def test_bench_run_commits_once_per_path(mode, capped):
    """Panel 5a's ``Bench.run`` superblock, ``RG``-false body: no
    ``acc``/``ic`` arithmetic, exactly one ``dn +=`` and one ``di +=``
    per path to the back-edge (each pair adjacent), read-barrier fast
    paths neither tested nor charged one by one, and one comparison at
    the iteration end, with the cap tested only under it."""
    code, sb = _bench_superblock(mode, capped)
    body = _folded_body(sb.source)
    text = "\n".join(body)
    to_edge, out = _paths(code, sb.head, sb.anchor)
    assert (to_edge, out) == (2, 1)  # the read arm, the write arm; i < n

    assert not re.search(r"\b(acc|ic)\b", text)
    assert "AL(" not in text and "RG" not in text
    commits = [k for k, line in enumerate(body) if "dn += " in line]
    assert len(commits) == to_edge
    assert len(re.findall(r"\bdi \+= ", text)) == to_edge
    for k in commits:
        assert re.fullmatch(r"\s*di \+= \d+", body[k + 1])
    assert len(re.findall(r"\brh \+= ", text)) == (
        to_edge if mode == "rollback" else 0)
    assert len(re.findall(r"\bde \+= 1\b", text)) == 1
    # partial iterations leave with constants, not accumulators
    assert len(re.findall(r"A\[0\] = \d+$", text, re.M)) == out

    tests = [line.strip() for line in body if re.search(r"\bdn\b.*[<>]", line)]
    assert tests == (["if dn >= B:", "if dn > ML:"] if capped
                     else ["if dn >= B:"])
    if capped:
        bound = next(k for k, line in enumerate(body)
                     if line.strip() == "if dn >= B:")
        assert body[bound + 1].strip() == "if dn > ML:"
    assert "PW" not in text and "quantum_used" not in text


def _branchy_loop(branches: int) -> Asm:
    """A loop whose body is ``branches`` one-armed ifs in a row, so
    ``2 ** branches`` paths run to the back-edge."""
    a = Asm("run", argc=0)
    i = a.local("i")

    def body() -> None:
        for bit in range(branches):
            a.if_then(lambda: a.load(i).const(1 << bit).and_(),
                      lambda: a.getstatic("C", "value").const(1).add()
                      .putstatic("C", "value"))

    a.for_range(i, lambda: a.const(300), body)
    a.ret()
    return a


@pytest.mark.parametrize("branches", (5, 6))
def test_tail_duplication_is_bounded(branches, monkeypatch):
    """Up to ``MAX_PATHS`` paths a body fuses, one commit per path;
    beyond it the loop stays block-at-a-time.  Both run like the
    reference."""
    from repro.vm.tracecomp import MAX_PATHS

    def install(vm: JVM) -> None:
        vm.load(build_class("C", ["lock:ref", "value"],
                            [_branchy_loop(branches)]))
        vm.spawn("C", "run", priority=5, name="t0")

    vm = make_vm("unmodified", interp="fast")
    install(vm)
    dm = predecode_method(vm, vm.classes["C"].method("run"))
    fused = 2 ** branches + 1 <= MAX_PATHS  # + the loop test's exit
    assert [len(re.findall(r"\bdn \+= ", sb.source))
            for sb in dm.superblock_list] == ([2 ** branches] if fused
                                              else [])
    runs = probe_superblocks(monkeypatch)
    _assert_parity(install, "unmodified")
    assert bool(runs) == fused
