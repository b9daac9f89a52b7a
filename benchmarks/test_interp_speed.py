"""Host-speed microbenchmarks for the predecoded fast interpreter.

Opt-in: these measure **host wall clock**, which is meaningless noise on
a loaded CI box unless explicitly requested, so every test skips unless
``REPRO_BENCH_HOST=1`` is set.  Run with::

    REPRO_BENCH_HOST=1 PYTHONPATH=src python -m pytest benchmarks/test_interp_speed.py -s

Three paths are timed separately, fast vs reference interpreter on the
same guest program:

* **block batching** — long straight-line arithmetic: one predecoded
  block per loop body, clock charged twice per block instead of per
  instruction (and, since superblock trace compilation, the whole loop
  runs iterations back to back in one generated function);
* **superinstructions** — compare+branch and constant-divisor div/mod
  fusions inside a branchy loop;
* **dispatch** — the figure micro-benchmark (monitors, barriers,
  invokes): most time outside fused blocks, measuring that the block
  preamble does not slow the dispatch chain down.

The floors are *soft* regression thresholds, fixed constants derived
from the 4.12x full-suite speedup recorded when superblock trace
compilation landed: each path must retain a reasonable fraction of it
rather than match it exactly — microbenchmark mixes differ from the
suite mix, and wall clocks wobble.  The suite-level ratio itself is
measured by ``python3 perfbench/run.py --workload fig-sweep --trace 1``
(``ledger.interp_speedup``).
"""

from __future__ import annotations

import os
import time

import pytest

from repro import Asm, ClassDef, FieldDef, JVM, VMOptions
from repro.bench.harness import run_microbench
from repro.bench.microbench import MicrobenchConfig

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_HOST") != "1",
    reason="host wall-clock benchmarks are opt-in (REPRO_BENCH_HOST=1)",
)

REPEATS = 3

#: Soft floor for the fused paths: 50% of the 4.12x suite speedup.  They
#: run whole loop iterations per Python call, so they must clear a large
#: fraction of the suite-level speedup.
FUSED_FLOOR = 2.06
#: Looser floor for the figure microbench: 35% of the 4.12x suite speedup.
DISPATCH_FLOOR = 1.442


def _time_vm(install, interp: str) -> float:
    """Best-of-N wall clock of one single-threaded guest program."""
    best = float("inf")
    for _ in range(REPEATS):
        vm = JVM(VMOptions(interp=interp, max_cycles=500_000_000))
        install(vm)
        t0 = time.perf_counter()
        vm.run()
        best = min(best, time.perf_counter() - t0)
    return best


def _compare(name: str, install) -> float:
    ref = _time_vm(install, "reference")
    fast = _time_vm(install, "fast")
    speedup = ref / fast if fast else float("inf")
    print(
        f"\n[interp-speed] {name}: reference={ref:.3f}s fast={fast:.3f}s "
        f"speedup={speedup:.2f}x (soft floor {FUSED_FLOOR:.2f}x)"
    )
    return speedup


def _install(cls: ClassDef):
    def install(vm: JVM) -> None:
        vm.load(cls)
        vm.spawn(cls.name, "main", priority=5, name="t0")
    return install


def test_block_batching_speed() -> None:
    """Straight-line arithmetic: the best case for basic-block fusion."""
    def body() -> None:
        # 8 chained ALU ops + a store: one fused block per iteration
        a.const(3).const(4).add().const(2).mul()
        a.const(7).add().const(5).sub().const(1).or_()
        a.putstatic("Blk", "out")

    a = Asm("main")
    i = a.local("i")
    a.for_range(i, lambda: a.const(60_000), body)
    a.ret()
    cls = ClassDef("Blk", fields=[FieldDef("out", is_static=True)])
    cls.add_method(a.build())
    assert _compare("block-batching", _install(cls)) >= FUSED_FLOOR


def test_superinstruction_speed() -> None:
    """cmp+branch and const-divisor fusions on a branchy loop body."""
    def body() -> None:
        skip = a.label("skip")
        a.load(i).const(3).mod()          # const+mod superinstruction
        a.const(1).gt().ifnot(skip)       # cmp+branch superinstruction
        a.load(i).const(7).div()          # const+div superinstruction
        a.putstatic("Sup", "out")
        a.place(skip)

    a = Asm("main")
    i = a.local("i")
    a.for_range(i, lambda: a.const(60_000), body)
    a.ret()
    cls = ClassDef("Sup", fields=[FieldDef("out", is_static=True)])
    cls.add_method(a.build())
    assert _compare("superinstructions", _install(cls)) >= FUSED_FLOOR


def test_dispatch_speed_on_figure_microbench() -> None:
    """The real figure workload: fused blocks plus heavy chain traffic
    (monitors, invokes, barriers).  The floor is looser — much of this
    time is in the shared runtime support plane, not the interpreter."""
    config = MicrobenchConfig(
        high_threads=2, low_threads=2, iters_high=120, iters_low=240,
        sections=6, write_pct=60, seed=42,
    )

    def run(interp: str) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            run_microbench(
                config, "rollback", options=VMOptions(interp=interp)
            )
            best = min(best, time.perf_counter() - t0)
        return best

    ref, fast = run("reference"), run("fast")
    speedup = ref / fast if fast else float("inf")
    print(
        f"\n[interp-speed] dispatch(figure-microbench): reference={ref:.3f}s "
        f"fast={fast:.3f}s speedup={speedup:.2f}x"
    )
    assert speedup >= DISPATCH_FLOOR
