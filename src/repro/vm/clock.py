"""Virtual time and the cycle cost model.

The paper measures wall-clock elapsed time on an 800 MHz Pentium III; we
measure *virtual cycles* on a deterministic clock.  Every bytecode carries a
cost assigned at link time from a :class:`CostModel`; the running thread's
costs accumulate into the global :class:`VirtualClock`.  Because the
evaluation reports *normalized* elapsed times (each panel normalized to the
unmodified VM at 100% reads), only cost *ratios* matter for reproducing the
figures' shape — the model makes those ratios explicit and tunable
(benchmarks sweep them in the ablation suite).

Cost intuition (a ~1 GHz in-order machine running compiled Java):

* simple stack ops / arithmetic: ~1 cycle
* heap accesses: a few cycles (cache hit)
* monitor enter/exit: tens of cycles (CAS + queue bookkeeping)
* method invoke: call/prologue overhead
* write barrier: fast path = in-sync check (paper §1); slow path = log
  append of (ref, offset, old value) (paper §3.1.2)
* rollback: fixed dispatch cost + per-log-entry restore cost
* context switch: scheduler + register save/restore
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from repro.vm import bytecode as bc


@dataclass(frozen=True)
class CostModel:
    """Cycle costs charged by the interpreter and runtime."""

    simple: int = 1          # stack/arith/branch/local ops
    heap_access: int = 4     # field/array/static read or write
    allocation: int = 20     # NEW / NEWARRAY
    monitor_fast: int = 15   # uncontended monitorenter/monitorexit
    monitor_slow: int = 60   # enqueue/dequeue on contention
    invoke: int = 10         # call + frame setup (0 for force_inline)
    native: int = 30         # native trampoline
    thread_op: int = 30      # wait/notify/sleep bookkeeping
    barrier_fast: int = 1    # "am I inside a synchronized section?" test
    barrier_slow: int = 3    # undo-log append
    read_barrier: int = 1    # JMM dependency-map lookup (modified VM only)
    savestate_base: int = 4  # SAVESTATE fixed cost
    savestate_word: int = 1  # per saved stack/local word
    rollback_base: int = 80  # revocation dispatch + handler transfer
    rollback_entry: int = 3  # per undo-log entry restored
    context_switch: int = 120
    #: Calibrated so a 500K-scale benchmark section spans ~2 quanta, the
    #: geometry of the paper's platform (Jikes' ~10-20ms time slice vs
    #: ~6-12ms sections); larger quanta make sections effectively atomic
    #: on the uniprocessor and contention vanishes.
    quantum: int = 8_000

    def __post_init__(self) -> None:
        # Linking and predecoding look costs up per opcode, so the table
        # is derived once per distinct model (_cost_table_of caches it by
        # value: equal models share one table) rather than per
        # construction.  The dataclass is frozen, hence
        # object.__setattr__; the table is not a field, so equality,
        # hashing and cache keys see only the named costs, and
        # __getstate__ keeps it out of pickles.
        object.__setattr__(self, "_cost_table", _cost_table_of(self))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_cost_table"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def _static_cost(self, op: int) -> int:
        """Cost-class rules (evaluated once per opcode at table build)."""
        if op in (bc.GETFIELD, bc.PUTFIELD, bc.GETSTATIC, bc.PUTSTATIC,
                  bc.ALOAD, bc.ASTORE, bc.ARRAYLEN):
            return self.heap_access
        if op in (bc.NEW, bc.NEWARRAY):
            return self.allocation
        if op in (bc.MONITORENTER, bc.MONITOREXIT):
            return self.monitor_fast
        if op == bc.INVOKE:
            return self.invoke
        if op == bc.NATIVE:
            return self.native
        if op in (bc.WAIT, bc.TIMED_WAIT, bc.NOTIFY, bc.NOTIFYALL, bc.SLEEP):
            return self.thread_op
        if op == bc.SAVESTATE:
            return self.savestate_base
        if op in (bc.DEBUG, bc.NOP, bc.ROLLBACK_HANDLER, bc.RESTORESTATE):
            return 0
        return self.simple

    def instruction_cost(self, op: int) -> int:
        """Static per-opcode cost (barrier/rollback costs are dynamic)."""
        table = self._cost_table
        return table[op] if 0 <= op < len(table) else self.simple

    def scaled(self, factor: float) -> "CostModel":
        """Uniformly scale all costs except the quantum (ablation helper)."""
        fields = {
            name: max(0, round(getattr(self, name) * factor))
            for name in (
                "simple", "heap_access", "allocation", "monitor_fast",
                "monitor_slow", "invoke", "native", "thread_op",
                "barrier_fast", "barrier_slow", "read_barrier",
                "savestate_base", "savestate_word", "rollback_base",
                "rollback_entry", "context_switch",
            )
        }
        return replace(self, **fields)


@functools.lru_cache(maxsize=64)
def _cost_table_of(model: CostModel) -> tuple:
    """The per-opcode cost table of ``model``, built once per distinct
    model value."""
    return tuple(model._static_cost(op) for op in range(bc._MAX_OP))


@dataclass
class VirtualClock:
    """Monotonic virtual cycle counter."""

    now: int = 0
    _events: int = field(default=0, repr=False)

    def advance(self, cycles: int) -> int:
        if cycles < 0:
            raise ValueError("cannot advance the clock backwards")
        self.now += cycles
        self._events += 1
        return self.now

    def commit_batch(self, cycles: int, events: int) -> int:
        """Fold a superblock's accumulated flushes into the clock at once.

        Equivalent to the ``events`` separate :meth:`advance` calls a
        block-at-a-time execution would have made summing to ``cycles``
        (the trace compiler tracks both exactly).
        """
        if cycles < 0 or events < 0:
            raise ValueError("cannot commit a negative batch")
        self.now += cycles
        self._events += events
        return self.now

    def advance_to(self, time: int) -> int:
        """Jump forward to ``time`` (used when all threads are asleep)."""
        if time > self.now:
            self.now = time
            self._events += 1
        return self.now

    @property
    def events(self) -> int:
        """Number of advance operations (a determinism fingerprint)."""
        return self._events
