"""The paper's micro-benchmark (§4.1), as a generated guest program.

    "The micro-benchmark executes several low and high-priority threads
    contending on the same lock. ... Every thread executes 100 synchronized
    sections.  Each synchronized section contains an inner loop executing
    an interleaved sequence of read and write operations. ... We fixed the
    number of iterations of the inner loop for low-priority threads at
    500K, and varied it for the high-priority threads (100K and 500K).
    ... Our benchmark also includes a short random pause time (on average
    equal to a single thread quantum ...) right before an entry to the
    synchronized section, to ensure random arrival of threads at the
    monitors guarding the sections."

Scaling: virtual-time simulation makes absolute counts meaningless; what
the figures depend on is (a) the 5:1 / 1:1 ratio between low- and
high-priority inner loops, (b) sections spanning several scheduling quanta
so inversions actually arise, and (c) the write-ratio sweep.  The defaults
(``iters_low=600`` standing in for 500K, ``iters_high`` 120 or 600 for
100K/500K, 12 sections for 100) preserve all three; every knob is a config
field so the ablation benches can push them around.

The generated ``run(iters)`` method is identical for all threads — "all
threads are compiled identically, with write barriers inserted to log
updates, and special exception handlers injected to restart synchronized
sections"; only the spawn priority and the iteration-count argument differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.bench.workloads import Workload
from repro.vm.assembler import Asm
from repro.vm.classfile import ClassDef, FieldDef

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM

HIGH_PRIORITY = 10
LOW_PRIORITY = 1

BENCH_CLASS = "Bench"


@dataclass(frozen=True)
class MicrobenchConfig:
    """One micro-benchmark configuration (one point on a figure's x axis)."""

    high_threads: int = 2
    low_threads: int = 8
    iters_high: int = 120
    iters_low: int = 600
    sections: int = 12
    write_pct: int = 50          # 0..100, paper's x axis
    array_size: int = 64         # shared data footprint
    #: The paper's pause averages one scheduling quantum, whose role is to
    #: "ensure random arrival of threads at the monitors".  Randomizing
    #: arrival *phase* requires the pause to be on the order of a section;
    #: the paper's quantum is (~1-2 sections) but ours is compressed, so
    #: the default tracks the 500K-scale section length instead.
    pause_mean: int = 20_000
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if not (0 <= self.write_pct <= 100):
            raise ValueError("write_pct must be within [0, 100]")
        if min(
            self.high_threads + self.low_threads,
            self.iters_high,
            self.iters_low,
            self.sections,
            self.array_size,
        ) <= 0:
            raise ValueError("all size parameters must be positive")

    def scaled(self, factor: float) -> "MicrobenchConfig":
        """Scale the work knobs (iterations, sections) by ``factor``."""
        return replace(
            self,
            iters_high=max(1, round(self.iters_high * factor)),
            iters_low=max(1, round(self.iters_low * factor)),
            sections=max(1, round(self.sections * factor)),
        )

    @property
    def total_threads(self) -> int:
        return self.high_threads + self.low_threads


def build_microbench_class(config: MicrobenchConfig) -> ClassDef:
    """Generate the benchmark class for one configuration.

    ``run(iters)``::

        for (s = 0; s < SECTIONS; s++) {
            pause(~quantum);                    // random arrival
            synchronized (lock) {
                for (i = 0; i < iters; i++) {
                    if (i % 100 < WRITE_PCT) shared[i % A] = i;   // write
                    else                     tmp = shared[i % A]; // read
                }
            }
        }
    """
    cls = ClassDef(
        BENCH_CLASS,
        fields=[
            FieldDef("lock", "ref", is_static=True),
            FieldDef("shared", "ref", is_static=True),
        ],
    )
    run = Asm("run", argc=1)
    iters_arg = run.arg(0)
    s = run.local("s")
    i = run.local("i")
    tmp = run.local("tmp")

    def write_op() -> None:
        run.getstatic(BENCH_CLASS, "shared")
        run.load(i).const(config.array_size).mod()
        run.load(i)
        run.astore()

    def read_op() -> None:
        run.getstatic(BENCH_CLASS, "shared")
        run.load(i).const(config.array_size).mod()
        run.aload()
        run.store(tmp)

    def op_body() -> None:
        # The interleaving test is emitted even for the 0% and 100%
        # endpoints so every sweep point pays an identical per-iteration
        # instruction budget — the figures' x axis must vary only the
        # read/write mix, not the amount of work per iteration.
        run.if_then(
            lambda: run.load(i).const(100).mod()
            .const(config.write_pct).lt(),
            write_op,
            read_op,
        )

    def section_body() -> None:
        run.pause(config.pause_mean)
        run.getstatic(BENCH_CLASS, "lock")
        with run.sync():
            run.for_range(i, lambda: run.load(iters_arg), op_body)

    run.for_range(s, lambda: run.const(config.sections), section_body)
    run.ret()
    cls.add_method(run.build())
    return cls


def microbench_workload(config: MicrobenchConfig) -> Workload:
    """The benchmark class, its shared state and its threads as one
    :class:`Workload`.

    High-priority threads are spawned first (spawn order does not matter:
    the random pre-section pause randomizes arrival, per the paper).
    """

    def setup(vm: "JVM") -> None:
        vm.set_static(BENCH_CLASS, "lock", vm.new_object(BENCH_CLASS))
        vm.set_static(
            BENCH_CLASS, "shared", vm.new_array(config.array_size, 0)
        )

    spawns = [
        ("run", [config.iters_high], HIGH_PRIORITY, f"high-{h}")
        for h in range(config.high_threads)
    ]
    spawns += [
        ("run", [config.iters_low], LOW_PRIORITY, f"low-{low}")
        for low in range(config.low_threads)
    ]
    return Workload(
        name=BENCH_CLASS.lower(),
        classdef=build_microbench_class(config),
        setup=setup,
        spawns=spawns,
    )


def setup_microbench_vm(vm: "JVM", config: MicrobenchConfig) -> None:
    """Load the benchmark class, wire the shared state, spawn the threads."""
    microbench_workload(config).install(vm)
