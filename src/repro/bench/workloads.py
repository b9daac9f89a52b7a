"""Additional guest workloads beyond the paper's micro-benchmark.

These exercise the claims the paper makes but does not benchmark:

* :func:`build_deadlock_pair` — the classic two-lock deadlock from §1
  ("T1 first acquires lock L1 while T2 acquires L2, then T1 tries to
  acquire L2 while T2 tries to acquire L1"), resolvable by revocation.
* :func:`build_deadlock_ring` — an N-thread circular deadlock.
* :func:`build_medium_inversion` — the unbounded-inversion scenario from
  the introduction: a low-priority lock holder starved by runnable
  medium-priority threads while a high-priority thread blocks.  Under the
  strict priority scheduler the baseline high-priority thread waits for
  *all* medium work; revocation (or inheritance) bounds the wait.
* :func:`build_bank` — random transfers over per-account locks acquired
  in (deliberately) unordered fashion: a deadlock stress test.
* :func:`build_bounded_buffer` — producer/consumer over ``wait``/``notify``:
  exercises the wait-induced non-revocability rules under load.

It also holds the one scenario registry, :data:`SCENARIOS`: every named
guest program of ``repro.check``, ``repro.obs`` and the fault campaign,
declared once.  Each tool runs the rows :data:`TOOL_SCENARIOS` selects
for it by a field of the row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from importlib import import_module
from typing import Callable, Optional, TYPE_CHECKING

from repro.faults.plane import CHAOS_PLAN, FaultPlan
from repro.vm.assembler import Asm
from repro.vm.classfile import ClassDef, FieldDef

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM


@dataclass(frozen=True)
class Workload:
    """A guest program plus its host-side wiring."""

    name: str
    classdef: ClassDef
    #: called after load to initialize statics (lock objects, arrays, ...)
    setup: Callable[["JVM"], None]
    #: (method, args, priority, name) spawn plan
    spawns: list[tuple[str, list, int, str]] = field(default_factory=list)

    def install(self, vm: "JVM") -> None:
        vm.load(self.classdef)
        self.setup(vm)
        for method, args, priority, name in self.spawns:
            vm.spawn(
                self.classdef.name, method, args=args,
                priority=priority, name=name,
            )


# ------------------------------------------------------------- deadlock pair
def build_deadlock_pair(
    *, hold_cycles: int = 3_000, work: int = 50
) -> Workload:
    """Two threads acquiring two locks in opposite orders.

    ``run(first, second)`` takes the *indices* of the locks to take, so one
    generated method serves both threads.  The sleep inside the first
    section makes the interleaving deterministic: both threads hold their
    first lock before either requests its second.
    """
    cls = ClassDef(
        "DeadlockPair",
        fields=[
            FieldDef("locks", "ref", is_static=True),
            FieldDef("counter", "int", is_static=True),
        ],
    )
    run = Asm("run", argc=2)
    first, second = run.arg(0), run.arg(1)
    i = run.local()
    run.getstatic("DeadlockPair", "locks").load(first).aload()
    with run.sync():
        run.const(hold_cycles).sleep()
        run.getstatic("DeadlockPair", "locks").load(second).aload()
        with run.sync():
            run.for_range(i, lambda: run.const(work), lambda: (
                run.getstatic("DeadlockPair", "counter"),
                run.const(1), run.add(),
                run.putstatic("DeadlockPair", "counter"),
            ))
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        locks = vm.new_array(2)
        locks.put(0, vm.new_object("DeadlockPair"))
        locks.put(1, vm.new_object("DeadlockPair"))
        vm.set_static("DeadlockPair", "locks", locks)

    return Workload(
        name="deadlock-pair",
        classdef=cls,
        setup=setup,
        spawns=[
            ("run", [0, 1], 5, "t1"),
            ("run", [1, 0], 5, "t2"),
        ],
    )


def build_deadlock_ring(
    n: int = 4, *, hold_cycles: int = 3_000, work: int = 50
) -> Workload:
    """N threads, each locking lock[i] then lock[(i+1) % n]."""
    if n < 2:
        raise ValueError("a deadlock ring needs at least 2 threads")
    cls = ClassDef(
        "DeadlockRing",
        fields=[
            FieldDef("locks", "ref", is_static=True),
            FieldDef("counter", "int", is_static=True),
        ],
    )
    run = Asm("run", argc=2)
    first, second = run.arg(0), run.arg(1)
    i = run.local()
    run.getstatic("DeadlockRing", "locks").load(first).aload()
    with run.sync():
        run.const(hold_cycles).sleep()
        run.getstatic("DeadlockRing", "locks").load(second).aload()
        with run.sync():
            run.for_range(i, lambda: run.const(work), lambda: (
                run.getstatic("DeadlockRing", "counter"),
                run.const(1), run.add(),
                run.putstatic("DeadlockRing", "counter"),
            ))
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        locks = vm.new_array(n)
        for k in range(n):
            locks.put(k, vm.new_object("DeadlockRing"))
        vm.set_static("DeadlockRing", "locks", locks)

    return Workload(
        name=f"deadlock-ring-{n}",
        classdef=cls,
        setup=setup,
        spawns=[
            ("run", [k, (k + 1) % n], 3 + (k % 3), f"ring-{k}")
            for k in range(n)
        ],
    )


# -------------------------------------------------------- medium inversion
def build_medium_inversion(
    *,
    medium_threads: int = 4,
    low_section_iters: int = 2_000,
    medium_work_iters: int = 4_000,
    high_section_iters: int = 200,
) -> Workload:
    """The §1 scenario: Tl holds the lock Th needs while runnable Tm starve
    Tl under strict priority scheduling, making Th's wait unbounded in the
    number of medium threads."""
    cls = ClassDef(
        "Inversion",
        fields=[
            FieldDef("lock", "ref", is_static=True),
            FieldDef("data", "ref", is_static=True),
            FieldDef("spin", "int", is_static=True),
        ],
    )

    locked = Asm("locked", argc=2)  # (inner iterations, start delay)
    i = locked.local()
    locked.load(1).sleep()
    locked.getstatic("Inversion", "lock")
    with locked.sync():
        locked.for_range(i, lambda: locked.load(0), lambda: (
            locked.getstatic("Inversion", "data"),
            locked.load(i).const(16).mod(),
            locked.load(i),
            locked.astore(),
        ))
    locked.ret()
    cls.add_method(locked.build())

    spin = Asm("spin", argc=2)  # (iterations, start delay)
    j = spin.local()
    spin.load(1).sleep()
    spin.for_range(j, lambda: spin.load(0), lambda: (
        spin.getstatic("Inversion", "spin"),
        spin.const(1), spin.add(),
        spin.putstatic("Inversion", "spin"),
    ))
    spin.ret()
    cls.add_method(spin.build())

    def setup(vm: "JVM") -> None:
        vm.set_static("Inversion", "lock", vm.new_object("Inversion"))
        vm.set_static("Inversion", "data", vm.new_array(16))

    # Staged arrivals create the classic §1 interleaving on ANY scheduler:
    # the low thread grabs the lock while everyone else sleeps; the medium
    # threads wake and (under strict priority) starve it; the high thread
    # wakes last and blocks on the lock.
    spawns: list[tuple[str, list, int, str]] = [
        ("locked", [low_section_iters, 1], 1, "low"),
    ]
    spawns += [
        ("spin", [medium_work_iters, 1_500], 5, f"medium-{k}")
        for k in range(medium_threads)
    ]
    spawns.append(("locked", [high_section_iters, 3_000], 10, "high"))
    return Workload(
        name="medium-inversion", classdef=cls, setup=setup, spawns=spawns
    )


# ------------------------------------------------------------------- banking
def build_bank(
    *,
    accounts: int = 8,
    transfers: int = 40,
    amount_bound: int = 25,
    hold_cycles: int = 400,
) -> Workload:
    """Random transfers locking source then destination account objects
    without global ordering — deadlock-prone by construction.  Total
    balance is conserved, which tests assert survives any revocations.

    ``hold_cycles`` models work done on the source account before locking
    the destination; it opens the window in which opposing transfers can
    each grab their first lock (without it, pseudo-preemption would make
    the two acquisitions effectively atomic and deadlock could not occur).
    """
    cls = ClassDef(
        "Bank",
        fields=[
            FieldDef("accounts", "ref", is_static=True),   # lock objects
            FieldDef("balances", "ref", is_static=True),
        ],
    )
    run = Asm("run", argc=1)  # arg: transfer count
    t = run.local()
    src = run.local()
    dst = run.local()
    amt = run.local()

    def one_transfer() -> None:
        run.rand(accounts).store(src)
        run.rand(accounts).store(dst)
        # avoid self-transfer (degenerate recursion is legal but dull)
        run.if_then(
            lambda: run.load(src).load(dst).eq(),
            lambda: (
                run.load(dst).const(1).add().const(accounts).mod()
                .store(dst),
            ),
        )
        run.rand(amount_bound).store(amt)
        run.getstatic("Bank", "accounts").load(src).aload()
        with run.sync():
            run.const(hold_cycles).sleep()
            run.getstatic("Bank", "accounts").load(dst).aload()
            with run.sync():
                run.getstatic("Bank", "balances").load(src)
                run.getstatic("Bank", "balances").load(src).aload()
                run.load(amt).sub()
                run.astore()
                run.getstatic("Bank", "balances").load(dst)
                run.getstatic("Bank", "balances").load(dst).aload()
                run.load(amt).add()
                run.astore()

    run.for_range(t, lambda: run.load(0), one_transfer)
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        locks = vm.new_array(accounts)
        for k in range(accounts):
            locks.put(k, vm.new_object("Bank"))
        vm.set_static("Bank", "accounts", locks)
        vm.set_static("Bank", "balances", vm.new_array(accounts, 100))

    return Workload(
        name="bank",
        classdef=cls,
        setup=setup,
        spawns=[
            ("run", [transfers], 1 + (k % 3) * 4, f"teller-{k}")
            for k in range(4)
        ],
    )


# ----------------------------------------------------------- bounded buffer
def build_bounded_buffer(
    *,
    capacity: int = 4,
    items_per_producer: int = 20,
    producers: int = 2,
    consumers: int = 2,
) -> Workload:
    """Producer/consumer over wait/notify.

    ``count`` tracks buffer occupancy; ``produced``/``consumed`` count
    totals.  Each consumer takes ``producers * items / consumers`` items so
    the program terminates.  The wait calls make the enclosing sections
    non-revocable, so this workload doubles as a JMM-rule stress test.
    """
    total = producers * items_per_producer
    if total % consumers:
        raise ValueError("consumers must evenly divide total items")
    per_consumer = total // consumers

    cls = ClassDef(
        "Buffer",
        fields=[
            FieldDef("lock", "ref", is_static=True),
            FieldDef("slots", "ref", is_static=True),
            FieldDef("count", "int", is_static=True),
            FieldDef("produced", "int", is_static=True),
            FieldDef("consumed", "int", is_static=True),
        ],
    )

    put = Asm("produce", argc=1)  # arg: item count
    n = put.local()
    put.for_range(n, lambda: put.load(0), lambda: _produce_one(put, capacity))
    put.ret()
    cls.add_method(put.build())

    take = Asm("consume", argc=1)
    m = take.local()
    take.for_range(m, lambda: take.load(0), lambda: _consume_one(take))
    take.ret()
    cls.add_method(take.build())

    def setup(vm: "JVM") -> None:
        vm.set_static("Buffer", "lock", vm.new_object("Buffer"))
        vm.set_static("Buffer", "slots", vm.new_array(capacity))

    spawns = [
        ("produce", [items_per_producer], 3, f"producer-{k}")
        for k in range(producers)
    ] + [
        ("consume", [per_consumer], 7, f"consumer-{k}")
        for k in range(consumers)
    ]
    return Workload(
        name="bounded-buffer", classdef=cls, setup=setup, spawns=spawns
    )


def _produce_one(a: Asm, capacity: int) -> None:
    a.getstatic("Buffer", "lock")
    with a.sync():
        # while (count == capacity) lock.wait();
        a.while_(
            lambda: a.getstatic("Buffer", "count").const(capacity).ge(),
            lambda: a.getstatic("Buffer", "lock").wait_(),
        )
        a.getstatic("Buffer", "slots")
        a.getstatic("Buffer", "count")
        a.getstatic("Buffer", "produced")
        a.astore()  # slots[count] = produced
        a.getstatic("Buffer", "count").const(1).add()
        a.putstatic("Buffer", "count")
        a.getstatic("Buffer", "produced").const(1).add()
        a.putstatic("Buffer", "produced")
        a.getstatic("Buffer", "lock").notifyall()


def _consume_one(a: Asm) -> None:
    a.getstatic("Buffer", "lock")
    with a.sync():
        # while (count == 0) lock.wait();
        a.while_(
            lambda: a.getstatic("Buffer", "count").const(0).le(),
            lambda: a.getstatic("Buffer", "lock").wait_(),
        )
        a.getstatic("Buffer", "count").const(1).sub()
        a.putstatic("Buffer", "count")
        a.getstatic("Buffer", "consumed").const(1).add()
        a.putstatic("Buffer", "consumed")
        a.getstatic("Buffer", "lock").notifyall()


# -------------------------------------------------------------- philosophers
def build_philosophers(
    n: int = 5, *, rounds: int = 6, think_cycles: int = 1_500,
    eat_iters: int = 60,
) -> Workload:
    """Dining philosophers, naive version: everyone picks the left fork
    then the right fork — the classic circular deadlock, resolvable by
    revocation on the rollback VM.

    ``meals`` counts completed eat phases; a run that completes must show
    exactly ``n * rounds`` meals regardless of how many revocations it
    took (transparency).
    """
    if n < 2:
        raise ValueError("need at least two philosophers")
    cls = ClassDef(
        "Philosophers",
        fields=[
            FieldDef("forks", "ref", is_static=True),
            FieldDef("meals", "int", is_static=True),
        ],
    )
    run = Asm("run", argc=2)  # (left index, right index)
    left, right = run.arg(0), run.arg(1)
    r = run.local()
    i = run.local()

    def dine() -> None:
        run.const(think_cycles).sleep()  # think
        run.getstatic("Philosophers", "forks").load(left).aload()
        with run.sync():
            run.const(think_cycles // 3).sleep()  # reach for the right fork
            run.getstatic("Philosophers", "forks").load(right).aload()
            with run.sync():
                run.for_range(i, lambda: run.const(eat_iters), lambda: (
                    run.getstatic("Philosophers", "meals"),
                    run.pop(),
                ))
                run.getstatic("Philosophers", "meals")
                run.const(1).add()
                run.putstatic("Philosophers", "meals")

    run.for_range(r, lambda: run.const(rounds), dine)
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        forks = vm.new_array(n)
        for k in range(n):
            forks.put(k, vm.new_object("Philosophers"))
        vm.set_static("Philosophers", "forks", forks)

    return Workload(
        name=f"philosophers-{n}",
        classdef=cls,
        setup=setup,
        spawns=[
            ("run", [k, (k + 1) % n], 2 + (k % 4), f"phil-{k}")
            for k in range(n)
        ],
    )


# ------------------------------------------------------ the scenario registry
@dataclass(frozen=True)
class Scenario:
    """One named guest program plus what each tool needs to run it."""

    name: str
    description: str
    #: ``program(seed, write_pct)`` builds the guest program; only the
    #: figure-panel and server rows read the two knobs
    program: Callable[[int, int], Workload]
    #: VMOptions overrides every tool applies when it runs the row
    options: dict = field(default_factory=dict)
    #: small enough for schedule exploration: the checker's rows
    explorable: bool = False
    #: expected final statics ``(class, field) -> value`` the checker
    #: asserts on every reference run (None = schedule-dependent)
    expected_statics: Optional[dict] = None
    #: the fault plan the campaign sweeps: the campaign's rows
    plan: Optional[FaultPlan] = None
    #: the campaign's guest-level invariant: violation descriptions
    check: Optional[Callable[["JVM"], list[str]]] = None

    def build(self, seed: int = 0x5EED, write_pct: int = 60) -> Workload:
        return self.program(seed, write_pct)


def _imported(target: str) -> Callable:
    module, name = target.split(":")
    return getattr(import_module(module), name)


def _fixed(builder, *args, **kwargs) -> Callable[[int, int], Workload]:
    """A program that reads neither knob: ``builder(*args, **kwargs)``.
    A ``"module:function"`` builder is imported when the row is built,
    so declaring the table loads no tool."""

    def program(seed: int, write_pct: int) -> Workload:
        target = _imported(builder) if isinstance(builder, str) else builder
        return target(*args, **kwargs)

    return program


def _invariant(target: str, *args) -> Callable[["JVM"], list[str]]:
    """``target(vm, *args)``, imported when a campaign cell runs."""
    return lambda vm: _imported(target)(vm, *args)


def _figure_panel(figure: int, panel: str) -> Callable[[int, int], Workload]:
    """The §4 micro-benchmark at one panel's thread mix."""

    def program(seed: int, write_pct: int) -> Workload:
        from repro.bench.figures import FigurePanel
        from repro.bench.microbench import microbench_workload

        config = FigurePanel(figure, panel).base_config(seed)
        return microbench_workload(replace(config, write_pct=write_pct))

    return program


def _server_capture(preset: str) -> Callable[[int, int], Workload]:
    """A server preset with the abort-storm detector attached, so
    ``abort_storm`` / ``storm_cleared`` (and the ladder's ``degrade``)
    events land in the trace.  Thread names carry the SLA-tier prefix, so
    per-tier behaviour reads straight off the span tracks."""

    def program(seed: int, write_pct: int) -> Workload:
        from repro.server.plane import AbortStormDetector
        from repro.server.presets import get_preset
        from repro.server.workload import build_server

        config = get_preset(preset)
        server = build_server(config, seed)

        def setup(vm: "JVM") -> None:
            server.setup(vm)
            vm.slice_hooks.append(AbortStormDetector(config))

        return replace(server, setup=setup)

    return program


_CHECK = "repro.check.scenarios:"
_CAMPAIGN = "repro.faults.campaign:"
_SERVER = {"scheduler": "priority", "raise_on_uncaught": False}

#: the one registry: every named guest program, in declaration order
#: (the campaign runs and reports its rows in this order)
SCENARIOS: tuple[Scenario, ...] = (
    # -- schedule-exploration programs (repro.check.scenarios builders)
    Scenario(
        "handoff",
        "low/high contention on one lock; revocation hand-off must "
        "preserve the counter total",
        _fixed(_CHECK + "build_locked_counter", "Handoff",
               [(1, "low"), (10, "high")], sections=2, iters=2),
        explorable=True,
        expected_statics={("Handoff", "counter"): 2 * 2 * 2},
    ),
    Scenario(
        "barge",
        "three priorities barging on one lock",
        _fixed(_CHECK + "build_locked_counter", "Barge",
               [(2, "t-lo"), (5, "t-mid"), (9, "t-hi")],
               sections=1, iters=2),
        explorable=True,
        expected_statics={("Barge", "counter"): 3 * 1 * 2},
    ),
    Scenario(
        "mini-handoff",
        "handoff shrunk to one section and one increment per thread: "
        "small enough for full (unbounded) exhaustive enumeration — the "
        "DPOR soundness battery's anchor",
        _fixed(_CHECK + "build_locked_counter", "MiniHandoff",
               [(1, "low"), (10, "high")], sections=1, iters=1),
        explorable=True,
        expected_statics={("MiniHandoff", "counter"): 2 * 1 * 1},
    ),
    Scenario(
        "mini-barge",
        "barge shrunk to one increment per section: three priorities, "
        "one lock, small enough for full exhaustive enumeration",
        _fixed(_CHECK + "build_locked_counter", "MiniBarge",
               [(2, "t-lo"), (5, "t-mid"), (9, "t-hi")],
               sections=1, iters=1),
        explorable=True,
        expected_statics={("MiniBarge", "counter"): 3 * 1 * 1},
    ),
    Scenario(
        "mini-racy",
        "one unprotected read-yield-write increment per thread: the "
        "smallest scenario with genuinely schedule-dependent final states",
        _fixed(_CHECK + "build_racy_counter", iters=1),
        explorable=True,
    ),
    Scenario(
        "pileup4",
        "four priorities piling onto one lock: the DPOR battery's largest "
        "fully-enumerable member",
        _fixed(_CHECK + "build_locked_counter", "Pileup4",
               [(1, "t1"), (4, "t2"), (7, "t3"), (10, "t4")],
               sections=1, iters=1),
        explorable=True,
        expected_statics={("Pileup4", "counter"): 4 * 1 * 1},
    ),
    Scenario(
        "handoff-trio",
        "three independent low/high handoff pairs on three locks (6 "
        "threads, monitors + revocation): the DPOR acceptance scenario — "
        "the product schedule space is far beyond exhaustive enumeration, "
        "but cross-pair slices commute",
        _fixed(_CHECK + "build_paired_handoffs", "HandoffTrio", 3,
               sections=1, iters=1),
        explorable=True,
    ),
    Scenario(
        "pileup6",
        "six priorities piling onto one lock with revocation in play: the "
        "DPOR acceptance scenario — exhaustive enumeration is infeasible",
        _fixed(_CHECK + "build_locked_counter", "Pileup6",
               [(1, "t1"), (2, "t2"), (4, "t3"),
                (6, "t4"), (8, "t5"), (10, "t6")],
               sections=1, iters=1),
        explorable=True,
        expected_statics={("Pileup6", "counter"): 6 * 1 * 1},
    ),
    Scenario(
        "racy-yield",
        "unprotected read-yield-write increments: lost updates across "
        "schedules, a data race for the lockset pass",
        _fixed(_CHECK + "build_racy_counter", iters=3),
        explorable=True,
    ),
    Scenario(
        "lock-order",
        "opposite-order nested locks: lock-order inversion, deadlock-prone "
        "under blocking policies",
        _fixed(_CHECK + "build_lock_order", iters=2),
        explorable=True,
    ),
    # -- figure cells: the paper's §4 micro-benchmark at each panel's mix
    *(
        Scenario(
            f"fig{figure}{panel}",
            f"figure {figure}({panel}) micro-benchmark cell "
            "(write ratio via --write-pct)",
            _figure_panel(figure, panel),
        )
        for figure in (5, 6, 7, 8)
        for panel in ("a", "b", "c")
    ),
    # -- standalone workloads
    Scenario(
        "deadlock-pair",
        "workload: two threads acquiring two locks in opposite orders",
        _fixed(build_deadlock_pair, hold_cycles=800, work=20),
    ),
    Scenario(
        "medium-inversion",
        "workload: the paper's three-priority inversion shape",
        _fixed(build_medium_inversion, medium_threads=2,
               low_section_iters=300, medium_work_iters=500,
               high_section_iters=60),
        # The §1 inversion only manifests under strict priority
        # scheduling: the woken mediums must starve the low-priority
        # lock holder while the high-priority thread sits blocked.
        options={"scheduler": "priority"},
    ),
    Scenario(
        "bank",
        "workload: random transfers between locked accounts",
        _fixed(build_bank, accounts=4, transfers=10, hold_cycles=120),
    ),
    Scenario(
        "bounded-buffer",
        "workload: producers/consumers on a wait/notify bounded buffer",
        _fixed(build_bounded_buffer, capacity=2, items_per_producer=6,
               producers=2, consumers=2),
    ),
    Scenario(
        "philosophers",
        "workload: dining philosophers over shared fork monitors",
        _fixed(build_philosophers, 3, rounds=3, think_cycles=300,
               eat_iters=15),
    ),
    # -- server-plane captures
    Scenario(
        "server-smoke",
        "server plane: chaos-smoke preset, overload protection on, "
        "faults off",
        _server_capture("chaos-smoke"),
        options=_SERVER,
    ),
    Scenario(
        "server-fleet",
        "server plane: the 12-tier, 1020-guest-thread fleet preset — the "
        "downsampling stress shape",
        _server_capture("fleet"),
        options=_SERVER,
    ),
    Scenario(
        "server-storm",
        "server plane: storm preset under the chaos fault plan — "
        "abort-storm -> ladder escalation -> recovery in-trace",
        _server_capture("storm"),
        options={**_SERVER, "faults": CHAOS_PLAN, "audit_rollbacks": True},
    ),
    # -- fault-campaign rows: a fault plan and a guest-level invariant
    Scenario(
        "storm-philosophers",
        "revocation storms over dining philosophers; every meal is eaten",
        _fixed(build_philosophers, 3, rounds=3, think_cycles=800,
               eat_iters=30),
        plan=FaultPlan(revocation_storm_rate=0.2),
        check=_invariant(_CAMPAIGN + "check_philosopher_meals", 3 * 3),
    ),
    Scenario(
        "exception-rain-bank",
        "injected guest exceptions over bank transfers; money is conserved",
        _fixed(build_bank, accounts=4, transfers=12, hold_cycles=300),
        options={"raise_on_uncaught": False},
        plan=FaultPlan(guest_exception_rate=0.02, max_injections=8),
        check=_invariant(_CAMPAIGN + "check_bank_balance", 4 * 100),
    ),
    Scenario(
        "exception-rain-inversion",
        "injected guest exceptions over the three-priority inversion",
        _fixed(build_medium_inversion, medium_threads=2,
               low_section_iters=300, medium_work_iters=400,
               high_section_iters=80),
        options={"raise_on_uncaught": False},
        plan=FaultPlan(guest_exception_rate=0.01, max_injections=6),
        check=_invariant(_CAMPAIGN + "check_nothing"),
    ),
    Scenario(
        "handoff-delay-buffer",
        "delayed monitor hand-offs over the bounded buffer; every item "
        "is produced and consumed",
        _fixed(build_bounded_buffer, capacity=3, items_per_producer=8,
               producers=2, consumers=2),
        plan=FaultPlan(handoff_delay_rate=0.25, handoff_delay_cycles=1_500),
        check=_invariant(_CAMPAIGN + "check_buffer_counts", 2 * 8),
    ),
    Scenario(
        # storms revoke the low/high threads mid-section, so rollbacks
        # replay non-empty log segments — the perturbation's target
        "undo-perturb-storm",
        "revocation storms plus benign undo-log perturbations over the "
        "inversion shape",
        _fixed(build_medium_inversion, medium_threads=2,
               low_section_iters=2_000, medium_work_iters=1_000,
               high_section_iters=500),
        plan=FaultPlan(revocation_storm_rate=0.5, undo_perturb_rate=0.9),
        check=_invariant(_CAMPAIGN + "check_spin_counter", 2 * 1_000),
    ),
    Scenario(
        "deadlock-ring",
        "delayed hand-offs over a four-thread deadlock ring",
        _fixed(build_deadlock_ring, 4, hold_cycles=3_000, work=30),
        plan=FaultPlan(handoff_delay_rate=0.2, handoff_delay_cycles=1_000),
        check=_invariant(_CAMPAIGN + "check_ring_counter", 4 * 30),
    ),
    Scenario(
        "server-chaos",
        "open-system server under a chaos plan: retries, shedding, abort "
        "storms and the degradation ladder under the auditor",
        _fixed(_CAMPAIGN + "build_server_chaos"),
        options=_SERVER,
        plan=FaultPlan(
            revocation_storm_rate=0.15,
            handoff_delay_rate=0.05,
            handoff_delay_cycles=1_200,
            undo_perturb_rate=0.5,
        ),
        check=_invariant(_CAMPAIGN + "check_server_chaos"),
    ),
)

#: each tool's rows, chosen by a field of the row: the checker explores
#: the small programs, the campaign sweeps the rows with a fault plan and
#: obs captures every row without one
TOOL_SCENARIOS: dict[str, dict[str, Scenario]] = {
    tool: {s.name: s for s in SCENARIOS if wanted(s)}
    for tool, wanted in (
        ("check", lambda s: s.explorable),
        ("campaign", lambda s: s.plan is not None),
        ("obs", lambda s: s.plan is None),
    )
}


def unknown_name(kind: str, name: str, known) -> ValueError:
    """The one unknown-name error of every registry lookup."""
    return ValueError(
        f"unknown {kind} {name!r}; known: {', '.join(sorted(known))}"
    )


def lookup_scenario(tool: str, name: str) -> Scenario:
    """``tool``'s row named ``name``; ValueError names the known rows."""
    rows = TOOL_SCENARIOS[tool]
    scenario = rows.get(name)
    if scenario is None:
        raise unknown_name(f"{tool} scenario", name, rows)
    return scenario
