"""Superblock charging: one constant per path, rebuilt at every escape.

A superblock commits each completed iteration as the static charge of
the path it took (``dn += c; di += i``) and stops a run with one
comparison against a bound computed in its prologue.  A run that leaves
mid-iteration — a branch out of the loop or a guest exception — rebuilds
the partial iteration's cycles, instructions and read-barrier hits from
constants of the exit site.  When a loop has anything to hoist, the
``RG``-false body runs a hoisted, strip-mined copy behind an entry
guard.  These tests pin that protocol from four sides:

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
* structure: panel 5a's ``Bench.run`` guards its counter and array
  once per entry; its hoisted body counts one path per iteration and
  commits and tests the bound once per stretch, and the guard's
  fallback is the body that commits once per path and tests the bound
  every iteration;
* hoisting: a static the loop stores stays loaded in the body; a
  counter entering negative fails the guard; exits inside a stretch,
  stretch ends at ``B - dn`` of ``CM - 1``, ``CM`` and ``CM + 1`` under
  a wake-up or a cap, a ``CM`` known only at entry, and drawn loops
  (start, step in both increment forms, array length against the
  ``%`` constant, a stored static) all run as on the reference.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    ``RG`` false alone, true while the writer's section is live.  With
    ``RG`` false it left the hoisted body, mid-stretch."""
    runs = probe_superblocks(monkeypatch, guard=True, hoisted=True)
    fast = _assert_parity(_install(args, contended), mode, profiled)
    assert fast["outcome"] == "ok"
    rg = contended and mode == "rollback"
    # with RG false the run left from inside the hoisted body
    assert exit in {e for e, _, g, h in runs if g == rg and h != rg}, runs
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


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _block(lines: list[str], k: int) -> list[str]:
    """The lines nested under the header ``lines[k]``."""
    end = k + 1
    while end < len(lines) and _indent(lines[end]) > _indent(lines[k]):
        end += 1
    return lines[k + 1:end]


def _rg_false_entry(source: str) -> tuple[list[str], str, list, list]:
    """What a run with ``RG`` false executes: the loads before its entry
    guard, the guard, the hoisted body and today's body (the guard's
    ``else`` arm)."""
    lines = source.splitlines()
    g = next(k for k, line in enumerate(lines)
             if line.lstrip().startswith("if type(B) is int"))
    hoisted = _block(lines, g)
    fallback = _block(lines, g + 1 + len(hoisted))
    assert lines[g + 1 + len(hoisted)].strip() == "else:"
    loads = []
    k = g - 1
    while lines[k].lstrip().startswith("G"):
        loads.insert(0, lines[k].strip())
        k -= 1
    return loads, lines[g].strip(), hoisted, fallback


def _check_fallback(body: list[str], to_edge: int, out: int, mode: str,
                    capped: bool) -> None:
    """Today's body: no ``acc``/``ic`` arithmetic, exactly one ``dn +=``
    and one ``di +=`` per path to the back-edge (each pair adjacent),
    read-barrier fast paths neither tested nor charged one by one, and
    one comparison at the iteration end, with the cap tested only under
    it."""
    text = "\n".join(body)
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


@pytest.mark.parametrize("capped", (False, True), ids=("uncapped", "capped"))
@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
def test_bench_run_commits_once_per_path(mode, capped):
    """Panel 5a's ``Bench.run`` superblock, ``RG`` false.  Its entry
    guard tests the loop counter's type and sign and the shared array's
    type once, after one load of the static.  The hoisted body runs
    stretches: inside one, no static load, no type or sign test, no
    bound test, a site key only in a slow arm, and one ``q += 1`` per
    path to the back-edge, each its own counter; after it, one commit
    of every counter, counters zeroed, and the bound test with the cap
    tested only under it.  A branch out commits the counters before it
    leaves.  The guard's ``else`` arm is today's body, unchanged."""
    code, sb = _bench_superblock(mode, capped)
    to_edge, out = _paths(code, sb.head, sb.anchor)
    assert (to_edge, out) == (2, 1)  # the read arm, the write arm; i < n
    loads, guard, hoisted, fallback = _rg_false_entry(sb.source)
    _check_fallback(fallback, to_edge, out, mode, capped)

    assert len(loads) == 1 and re.fullmatch(r"G0 = ST\[K\[\d+\]\]", loads[0])
    assert re.search(r"type\((L\d+)\) is int and \1 >= 0", guard)
    assert "type(G0) is VMA" in guard

    (w,) = [k for k, line in enumerate(hoisted)
            if line.strip() == "while True:"]
    loop = _block(hoisted, w)
    assert loop[0].strip().startswith("k = (B - dn) // ")
    assert loop[0].strip().endswith(" or 1")
    assert loop[1].strip() == "for _ in range(k):"
    stretch = _block(loop, 1)
    after = loop[2 + len(stretch):]
    text = "\n".join(stretch)
    for absent in ("ST[", "type(", "MODP", "dn >= B", "dn > ML", "VMA"):
        assert absent not in text, absent
    counts = re.findall(r"^\s*(q\d+) \+= 1$", text, re.M)
    assert len(counts) == len(set(counts)) == to_edge
    for k, line in enumerate(stretch):
        if line.strip().startswith("F[0] = "):
            assert stretch[k - 1].strip() == "else:"
    # a branch out commits the completed iterations, then leaves
    assert len(re.findall(r"^\s*dn \+= ", text, re.M)) == out
    assert len(re.findall(r"^\s*de \+= q\d+ \+ q\d+$", text, re.M)) == out

    stmts = [line.strip() for line in after]
    bound = stmts.index("if dn >= B:")
    commit, tests = stmts[:bound], stmts[bound:]
    assert [c.split(" += ")[0] for c in commit[:-1]] == (
        ["dn", "di", "rh", "de"] if mode == "rollback" else ["dn", "di", "de"])
    assert commit[-2] == "de += k"
    assert commit[-1] == " = ".join(sorted(counts)) + " = 0"
    for c in commit[:-2]:
        assert sorted(re.findall(r"q\d+", c)) == sorted(counts)
    assert tests == (["if dn >= B:", "if dn > ML:", "raise SERR(MAXC)",
                      "return -1"] if capped
                     else ["if dn >= B:", "return -1"])


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


# ---------------------------------------------- hoisting and strip-mining
def _array_loop(start: int, count: int, step: int = 1, form: str = "iinc",
                modulus: int = 8, offset=None, swap_at=None,
                exits: tuple = (NEVER, NEVER)) -> Asm:
    """``run()``: ``i`` from ``start`` by ``step`` (``IINC``, or
    ``i = i + step`` with ``form="add"``) while ``i < start + count *
    step``, dividing by ``i * i + 1`` and reading ``C.arr[i % modulus +
    offset(i)]`` into a local.
    ``swap_at``: at that ``i`` the body stores ``C.alt`` into ``C.arr``.
    ``exits = (oob, out)``: at ``i == oob`` the index gains 64 (out of
    bounds), at ``i == out`` the loop breaks.  A handler outside the
    loop stores the clock of an ``ArrayIndexOutOfBoundsException`` in
    ``C.err``."""
    a = Asm("run", argc=0)
    i = a.local("i")
    j = a.local("j")
    done = a.label("done")
    oob, out = exits

    def body() -> None:
        # a raising op ahead of the array read: its site key is the one
        # F[0] holds when the read's slow arm is entered
        a.const(100).load(i).load(i).mul().const(1).add().div().pop()
        a.getstatic("C", "arr").load(i).const(modulus).mod()
        if offset is not None:
            offset(a, i)
        a.load(i).const(oob).eq().const(64).mul().add()
        a.aload().store(j)
        if swap_at is not None:
            a.if_then(lambda: a.load(i).const(swap_at).eq(),
                      lambda: a.getstatic("C", "alt").putstatic("C", "arr"))
        a.load(i).const(out).eq().if_(done)
        if form == "iinc":
            a.iinc(i, step)
        else:
            a.load(i).const(step).add().store(i)

    def loop() -> None:
        a.const(start).store(i)
        a.while_(lambda: a.load(i).const(start + count * step).lt(), body)

    def on_oob() -> None:
        a.pop()
        a.time().putstatic("C", "err")

    a.try_(loop, catches=[("ArrayIndexOutOfBoundsException", on_oob)])
    a.place(done)
    a.ret()
    return a


def _install_array_loop(loop: dict, length: int = 8, alt: int = 16,
                        doze=None):
    """``C.arr`` has ``length`` slots, ``C.alt`` ``alt``; ``loop`` holds
    :func:`_array_loop`'s arguments.  With ``doze``, a thread spawned
    first sleeps that long."""
    def install(vm: JVM) -> None:
        vm.load(build_class("C", ["arr:ref", "alt:ref", "err"],
                            [_array_loop(**loop), _doze()]))
        vm.set_static("C", "arr", vm.new_array(length, 3))
        vm.set_static("C", "alt", vm.new_array(alt, 5))
        if doze is not None:
            vm.spawn("C", "doze", args=[doze], priority=5, name="doze")
        vm.spawn("C", "run", priority=5, name="t0")
    return install


def _stretch(source: str) -> str:
    """The hoisted body's stretch, as text."""
    _, _, hoisted, _ = _rg_false_entry(source)
    loop = _block(hoisted, hoisted.index(next(
        line for line in hoisted if line.strip() == "while True:")))
    return "\n".join(_block(loop, 1))


def _superblock(install, mode: str = "unmodified"):
    vm = make_vm(mode, interp="fast")
    install(vm)
    (sb,) = predecode_method(vm, vm.classes["C"].method("run")).superblock_list
    return sb, sb.fn.__globals__["K"]


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
def test_a_static_the_loop_stores_stays_loaded_in_the_body(mode,
                                                            monkeypatch):
    """The body stores ``C.alt`` into ``C.arr`` at iteration 40, so the
    hoisted body reads ``C.arr`` again every iteration (and guards no
    array), while ``C.alt``, never stored, loads once before the guard.
    Reads after the swap see the longer array, as in the reference."""
    install = _install_array_loop(dict(start=0, count=300, swap_at=40,
                                               modulus=12), length=12)
    sb, K = _superblock(install, mode)
    loads, guard, _, _ = _rg_false_entry(sb.source)
    assert [K[int(r)] for r in re.findall(r"K\[(\d+)\]", " ".join(loads))] \
        == [("C", "alt")]
    reads = re.findall(r"= ST\[K\[(\d+)\]\]$", _stretch(sb.source), re.M)
    assert [K[int(r)] for r in reads] == [("C", "arr")]
    assert "VMA" not in guard
    runs = probe_superblocks(monkeypatch, hoisted=True)
    fast = _assert_parity(install, mode)
    assert fast["outcome"] == "ok"
    assert ("branch", 0, True) in runs  # the loop test's exit


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
def test_a_negative_counter_runs_todays_body(mode, monkeypatch):
    """``i`` starts at -5 and indexes ``arr[i % 8 + 8]`` of a 12-slot
    array: slots 3..7 while ``i`` is negative, out of bounds at
    ``i == 4``.  The loop is entered at ``i == -4``, so its entry guard
    fails, today's body runs, and the out-of-bounds error leaves it at
    the reference's pc and cycle (the handler's clock in ``C.err``)."""
    def plus8(a: Asm, i: int) -> None:
        a.const(8).add()

    install = _install_array_loop(
        dict(start=-5, count=40, offset=plus8), length=12)
    runs = probe_superblocks(monkeypatch, hoisted=True)
    fast = _assert_parity(install, mode)
    assert fast["outcome"] == "ok"
    assert runs == [("guest", 0, False)]


def _exit_cases() -> list:
    rng = random.Random(41)
    return [("oob", (rng.randrange(20, 200), NEVER), "guest"),
            ("branch", (NEVER, rng.randrange(20, 200)), "branch")]


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
@pytest.mark.parametrize("exits,exit", [c[1:] for c in _exit_cases()],
                         ids=[c[0] for c in _exit_cases()])
def test_exits_inside_a_stretch(exits, exit, mode, monkeypatch):
    """An out-of-bounds index and a branch out of the loop, each at an
    iteration drawn well inside the first stretch of a quantum (about
    300 iterations long), commit the stretch's completed iterations and
    rebuild the partial one: clock, event count and state equal the
    reference's after every slice."""
    install = _install_array_loop(dict(start=0, count=1_000, exits=exits))
    runs = probe_superblocks(monkeypatch, hoisted=True)
    fast = _assert_parity(install, mode)
    assert fast["outcome"] == "ok"
    assert runs == [(exit, 0, True)]


def _entries(monkeypatch) -> list[tuple[int, int]]:
    """``(clock, pending wake time)`` at every superblock entry of VMs
    predecoded from now on."""
    from repro.vm import predecode

    seen: list[tuple[int, int]] = []
    instantiate = predecode.MethodTemplate.instantiate

    def probed(self, vm, method):
        dm = instantiate(self, vm, method)
        for sb in dm.superblock_list:
            def run(stack, locals_, F, A, T, PW, fn=sb.fn, clock=vm.clock):
                seen.append((clock.now, PW))
                return fn(stack, locals_, F, A, T, PW)
            sb.fn = run
        return dm

    monkeypatch.setattr(predecode.MethodTemplate, "instantiate", probed)
    return seen


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
@pytest.mark.parametrize("capped", (False, True), ids=("wake-up", "capped"))
@pytest.mark.parametrize("gap", (-1, 0, 1), ids=("CM-1", "CM", "CM+1"))
def test_stretch_ends_around_the_bound(gap, capped, mode, monkeypatch):
    """The first stretch of a run starts with ``B - dn`` at ``CM - 1``
    (no whole stretch fits: one iteration runs), ``CM`` (one iteration
    ends exactly at ``B``) and ``CM + 1`` (one iteration, then a second
    stretch): ``B`` set by a due wake-up, or by a cycle cap.  Every run
    preempts or starves at the reference's clock and event count."""
    loop = dict(start=0, count=2_000)
    sb, _ = _superblock(_install_array_loop(loop), mode)
    cm = int(re.search(r"k = \(B - dn\) // (\d+) or 1", sb.source)[1])
    runs = probe_superblocks(monkeypatch, hoisted=True)
    entries = _entries(monkeypatch)
    # the first entry's clock (and when the doze thread fell asleep),
    # from a run that neither wakes nor caps in its first stretch
    far = 10**6
    vm = make_vm(mode, interp="fast", seed=7, max_cycles=0)
    _install_array_loop(loop, doze=None if capped else far)(vm)
    vm.run()
    n0, wake = entries[0]
    asleep = wake - far
    del entries[:], runs[:]
    if capped:  # B = ML + 1 = MAXC - n0 + 1
        install = _install_array_loop(loop)
        opts = {"max_cycles": n0 + cm + gap - 1}
    else:  # B = PW - n0
        install = _install_array_loop(loop, doze=n0 + cm + gap - asleep)
        opts = {"max_cycles": 0}
    fast = _assert_parity(install, mode, **opts)
    n0_, wake_ = entries[0]
    bound = opts["max_cycles"] + 1 if capped else wake_
    assert (n0_, bound - n0_) == (n0, cm + gap)
    assert runs[0] == ("starved" if capped else "preempt", 0, True)
    assert fast["outcome"] == ("starved" if capped else "ok")


@settings(derandomize=True, database=None, max_examples=24, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(start=st.integers(-30, 30), step=st.integers(1, 4),
       form=st.sampled_from(("iinc", "add")), length=st.integers(1, 12),
       modulus=st.integers(1, 12), swap=st.booleans())
def test_hoisted_loops_match_the_reference(start, step, form, length,
                                           modulus, swap):
    """Drawn loops: a start value (negatives fail the entry guard), a
    step in both increment forms, an array length against the ``%``
    constant (short arrays go out of bounds), and whether the body
    stores the array's static.  Each runs on the fast tier exactly as
    on the reference, in both VM modes; the loop is entered at its
    second iteration, through the hoisted body exactly when ``i`` is
    non-negative there."""
    loop = dict(start=start, count=400, step=step, form=form,
                modulus=modulus, swap_at=start + 100 * step if swap else None)
    install = _install_array_loop(loop, length=length)
    first = abs(start) % modulus * (1 if start >= 0 else -1)
    for mode in ("unmodified", "rollback"):
        with pytest.MonkeyPatch.context() as patch:
            runs = probe_superblocks(patch, hoisted=True)
            _assert_parity(install, mode)
        if 0 <= first < length:
            assert runs[0][-1] == (start + step >= 0)
        else:
            assert runs == []  # out of bounds before the loop's back-edge


def _two_charges() -> Asm:
    """Inside a section on ``C.lock``: odd iterations log a store to
    ``C.value``, even ones read ``C.arr`` and do more arithmetic with
    no store, so neither path out-charges the other in both static
    cycles and stores."""
    a = Asm("run", argc=0)
    i = a.local("i")
    j = a.local("j")
    a.getstatic("C", "lock")
    with a.sync():
        a.for_range(i, lambda: a.const(2_000), lambda: a.if_then(
            lambda: a.load(i).const(2).mod(),
            lambda: a.load(i).putstatic("C", "value"),
            lambda: (a.getstatic("C", "arr").load(i).const(8).mod().aload()
                     .const(3).mul().const(1).add().const(5).mul()
                     .const(7).add().store(j)),
        ))
    a.ret()
    return a


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
def test_cm_is_the_larger_charge_known_at_entry(mode, monkeypatch):
    """With a logged store on one path and more cycles on the other,
    ``CM`` is their ``max`` taken at entry, once ``SC`` is known; the
    stretches still end where the reference's iterations do."""
    def install(vm: JVM) -> None:
        vm.load(build_class("C", ["lock:ref", "arr:ref", "value"],
                            [_two_charges()]))
        vm.set_static("C", "lock", vm.new_object("C"))
        vm.set_static("C", "arr", vm.new_array(8, 2))
        vm.spawn("C", "run", priority=5, name="t0")

    sb, _ = _superblock(install, mode)
    sized = re.search(r"k = \(B - dn\) // (.*) or 1$", sb.source, re.M)[1]
    assert sized.startswith("max(") == (mode == "rollback"), sized
    runs = probe_superblocks(monkeypatch, hoisted=True)
    fast = _assert_parity(install, mode)
    assert fast["outcome"] == "ok"
    assert ("preempt", True) in {(e, h) for e, _, h in runs}
