"""Small guest programs for schedule exploration.

The builders here back the checker's rows of the one scenario registry,
:data:`repro.bench.workloads.SCENARIOS` (``explorable=True``).
Exploration cost is exponential in program length, so these programs are
deliberately tiny: a handful of threads, two or three yield points per
critical section.  What matters is that each one embodies a distinct
synchronization shape:

* ``handoff`` — the paper's core scenario: a low-priority and a
  high-priority thread contend on one lock around a shared counter.
  Preemptive schedules make the high thread arrive mid-section, which
  (on the rollback VM) triggers inversion detection and revocation; the
  counter's final value must nevertheless equal the fixed total under
  *every* policy — the serializability claim in miniature (§3).
* ``barge`` — three priorities on one lock: exercises the prioritized
  entry queue and multi-candidate scheduling decisions.
* ``racy-yield`` — increments with *no* lock and an explicit yield
  between read and write: the classic lost-update race.  Final states
  legitimately differ across schedules (but never across policies for
  one schedule); the lockset pass must flag the race.
* ``lock-order`` — two locks acquired in opposite orders by two threads:
  feeds the lock-order-inversion detector; some schedules deadlock under
  blocking policies while revocation resolves them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bench.workloads import Scenario, Workload, lookup_scenario
from repro.vm.assembler import Asm
from repro.vm.classfile import ClassDef, FieldDef

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM


def _counter_increments(run: Asm, cls: str, i: int, iters_arg: int,
                        *, yield_between: bool) -> None:
    """Emit ``for (i = 0; i < iters; i++) counter++`` with an optional
    explicit yield between the read and the write of the counter."""
    def increment() -> None:
        run.getstatic(cls, "counter")
        if yield_between:
            run.yield_()
        run.const(1).add()
        run.putstatic(cls, "counter")

    run.for_range(i, lambda: run.load(iters_arg), increment)


def build_locked_counter(
    cls_name: str,
    spawns: list[tuple[int, str]],
    *,
    sections: int = 2,
    iters: int = 2,
) -> Workload:
    """``spawns`` threads each run ``sections`` synchronized sections on one
    shared lock, incrementing a static counter ``iters`` times per section.
    Final counter = ``len(spawns) * sections * iters`` in any legal
    serialization."""
    cls = ClassDef(
        cls_name,
        fields=[
            FieldDef("lock", "ref", is_static=True),
            FieldDef("counter", "int", is_static=True),
        ],
    )
    run = Asm("run", argc=1)
    iters_arg = run.arg(0)
    s = run.local("s")
    i = run.local("i")

    def section_body() -> None:
        run.getstatic(cls_name, "lock")
        with run.sync():
            _counter_increments(run, cls_name, i, iters_arg,
                                yield_between=False)

    run.for_range(s, lambda: run.const(sections), section_body)
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        vm.set_static(cls_name, "lock", vm.new_object(cls_name))

    return Workload(
        name=cls_name.lower(),
        classdef=cls,
        setup=setup,
        spawns=[
            ("run", [iters], priority, name) for priority, name in spawns
        ],
    )


def build_paired_handoffs(
    cls_name: str,
    pairs: int,
    *,
    sections: int = 1,
    iters: int = 1,
) -> Workload:
    """``pairs`` low/high priority thread pairs, each contending on its
    *own* lock around its own counter slot.  Pairs are mutually
    independent, so the schedule space is the product of the per-pair
    spaces — exhaustive enumeration explodes combinatorially while a
    partial-order-reducing strategy collapses the cross-pair orderings.
    Every counter slot ends at ``sections * iters`` in any legal
    serialization."""
    cls = ClassDef(
        cls_name,
        fields=[
            FieldDef("locks", "ref", is_static=True),
            FieldDef("counters", "ref", is_static=True),
        ],
    )
    run = Asm("run", argc=2)
    pair = run.arg(0)
    iters_arg = run.arg(1)
    s = run.local("s")
    i = run.local("i")

    def increment() -> None:
        # counters[pair] = counters[pair] + 1
        run.getstatic(cls_name, "counters").load(pair)
        run.getstatic(cls_name, "counters").load(pair).aload()
        run.const(1).add()
        run.astore()

    def section_body() -> None:
        run.getstatic(cls_name, "locks").load(pair).aload()
        with run.sync():
            run.for_range(i, lambda: run.load(iters_arg), increment)

    run.for_range(s, lambda: run.const(sections), section_body)
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        locks = vm.new_array(pairs)
        counters = vm.new_array(pairs)
        for k in range(pairs):
            locks.put(k, vm.new_object(cls_name))
            counters.put(k, 0)
        vm.set_static(cls_name, "locks", locks)
        vm.set_static(cls_name, "counters", counters)

    spawns = []
    for k in range(pairs):
        spawns.append(("run", [k, iters], 1, f"low{k}"))
        spawns.append(("run", [k, iters], 10, f"high{k}"))
    return Workload(
        name=cls_name.lower(), classdef=cls, setup=setup, spawns=spawns
    )


def build_racy_counter(*, iters: int = 3) -> Workload:
    """Two threads increment an unprotected counter with a yield between
    the read and the write: lost updates under preemptive schedules."""
    cls = ClassDef(
        "Racy", fields=[FieldDef("counter", "int", is_static=True)]
    )
    run = Asm("run", argc=1)
    iters_arg = run.arg(0)
    i = run.local("i")
    _counter_increments(run, "Racy", i, iters_arg, yield_between=True)
    run.ret()
    cls.add_method(run.build())
    return Workload(
        name="racy",
        classdef=cls,
        setup=lambda vm: None,
        spawns=[("run", [iters], 5, "t1"), ("run", [iters], 5, "t2")],
    )


def build_lock_order(*, iters: int = 2) -> Workload:
    """Two threads nest two locks in opposite orders (deadlock-prone)."""
    cls = ClassDef(
        "LockOrder",
        fields=[
            FieldDef("locks", "ref", is_static=True),
            FieldDef("counter", "int", is_static=True),
        ],
    )
    run = Asm("run", argc=2)
    first, second = run.arg(0), run.arg(1)
    i = run.local("i")
    iters_local = run.local("n")
    run.const(iters).store(iters_local)
    run.getstatic("LockOrder", "locks").load(first).aload()
    with run.sync():
        run.getstatic("LockOrder", "locks").load(second).aload()
        with run.sync():
            _counter_increments(run, "LockOrder", i, iters_local,
                                yield_between=False)
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        locks = vm.new_array(2)
        locks.put(0, vm.new_object("LockOrder"))
        locks.put(1, vm.new_object("LockOrder"))
        vm.set_static("LockOrder", "locks", locks)

    return Workload(
        name="lock-order",
        classdef=cls,
        setup=setup,
        spawns=[("run", [0, 1], 5, "t1"), ("run", [1, 0], 5, "t2")],
    )


def get_scenario(name: str) -> Scenario:
    """The checker's row named ``name`` (kept for importers of this path)."""
    return lookup_scenario("check", name)
