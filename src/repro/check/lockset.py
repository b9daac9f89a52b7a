"""Eraser-style dynamic lockset analysis over the VM trace stream.

Consumes trace events as a streaming :class:`repro.vm.tracing.Tracer`
sink — monitor events (``acquire``/``release``/``rollback_release``/
``wait``/``wait_return``/...) maintain each thread's held-lock multiset,
and memory events (``mem_read``/``mem_write``, emitted when
``VMOptions.trace_memory`` is on) drive the per-location state machine:

    Virgin -> Exclusive(first thread) -> Shared / Shared-Modified

with the *candidate lockset* of a location intersected with the accessing
thread's held locks on every access after the location becomes shared.  A
location in Shared-Modified with an empty candidate lockset is reported as
a data race (Savage et al., "Eraser", SOSP '97).  Unlike a happens-before
detector, the lockset discipline flags racy *access patterns* even on
schedules where the race did not strike.

The pass also records the lock-order graph — an edge ``a -> b`` whenever a
thread acquires ``b`` while holding ``a`` — and reports every antisymmetric
pair (both ``a -> b`` and ``b -> a`` observed) as a lock-order inversion:
the dynamic witness of deadlock potential.

Caveats (documented, deliberate): initialization writes by the *host*
(workload ``setup``) precede tracing and are invisible, matching Eraser's
virgin-state grace for initialization; a ``wait`` drops every recursion
level of the waited monitor and ``wait_return`` restores depth 1, so
locksets are approximate for threads that ``wait`` while holding a
monitor recursively (none of our guests do).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.tracing import TraceEvent

VIRGIN = "virgin"
EXCLUSIVE = "exclusive"
SHARED = "shared"
SHARED_MOD = "shared-modified"

#: monitor-event kinds that drop the monitor from the holder entirely
_FULL_RELEASE_KINDS = (
    "rollback_release",
    "leaked_monitor",
    "handoff_returned",
    "wait",
)


class _LocationState:
    __slots__ = ("state", "first_thread", "lockset", "threads")

    def __init__(self) -> None:
        self.state = VIRGIN
        self.first_thread: Optional[str] = None
        self.lockset: Optional[frozenset] = None
        self.threads: set[str] = set()


class LocksetAnalyzer:
    """Streaming lockset + lock-order analysis (register as a tracer sink)."""

    def __init__(self) -> None:
        #: thread name -> lock label -> recursion depth
        self._held: dict[str, dict[str, int]] = {}
        self._locations: dict[tuple, _LocationState] = {}
        #: (held lock, acquired lock) -> thread names that created the edge
        self._edges: dict[tuple[str, str], set[str]] = {}
        self._raced: set[tuple] = set()
        self.races: list[dict] = []

    # ------------------------------------------------------------- sink API
    def __call__(self, event: "TraceEvent") -> None:
        self.feed(event)

    def feed(self, event: "TraceEvent") -> None:
        kind = event.kind
        if kind == "mem_read":
            self._access(event.thread, event.details["loc"], write=False)
        elif kind == "mem_write":
            self._access(event.thread, event.details["loc"], write=True)
        elif kind == "acquire":
            self._acquire(event.thread, event.details["mon"])
        elif kind == "release":
            self._release(event.thread, event.details["mon"])
        elif kind == "wait_return":
            # the waiter owns the monitor again (depth approximated as 1)
            self._held.setdefault(event.thread, {})[
                event.details["mon"]
            ] = 1
        elif kind in _FULL_RELEASE_KINDS:
            self._held.get(event.thread, {}).pop(
                event.details["mon"], None
            )

    # ------------------------------------------------------------- tracking
    def _acquire(self, thread: str, mon: str) -> None:
        held = self._held.setdefault(thread, {})
        depth = held.get(mon, 0)
        if depth == 0:
            for other in held:
                if other != mon:
                    self._edges.setdefault((other, mon), set()).add(thread)
        held[mon] = depth + 1

    def _release(self, thread: str, mon: str) -> None:
        held = self._held.get(thread)
        if held is None or mon not in held:
            return
        held[mon] -= 1
        if held[mon] <= 0:
            del held[mon]

    def _access(self, thread: str, loc: tuple, *, write: bool) -> None:
        loc = tuple(loc)
        held = frozenset(self._held.get(thread, ()))
        st = self._locations.setdefault(loc, _LocationState())
        st.threads.add(thread)
        if st.state == VIRGIN:
            st.state = EXCLUSIVE
            st.first_thread = thread
            return
        if st.state == EXCLUSIVE:
            if thread == st.first_thread:
                return
            # second thread arrives: the candidate lockset starts here
            st.lockset = held
            st.state = SHARED_MOD if write else SHARED
        else:
            st.lockset &= held
            if write:
                st.state = SHARED_MOD
        if st.state == SHARED_MOD and not st.lockset:
            self._report_race(loc, st, write)

    def _report_race(
        self, loc: tuple, st: _LocationState, write: bool
    ) -> None:
        if loc in self._raced:
            return
        self._raced.add(loc)
        self.races.append(
            {
                "location": list(loc),
                "threads": sorted(st.threads),
                "access": "write" if write else "read",
            }
        )

    # --------------------------------------------------------------- report
    def lock_order_inversions(self) -> list[dict]:
        inversions = []
        for a, b in sorted(self._edges):
            if a < b and (b, a) in self._edges:
                inversions.append(
                    {
                        "locks": [a, b],
                        "threads": sorted(
                            self._edges[(a, b)] | self._edges[(b, a)]
                        ),
                    }
                )
        return inversions

    def report(self) -> dict:
        """Deterministic summary (sorted; safe to diff across runs)."""
        return {
            "locations": len(self._locations),
            "races": sorted(self.races, key=lambda r: str(r["location"])),
            "lock_order_inversions": self.lock_order_inversions(),
        }


# ------------------------------------------------------------ entry points
def _lockset_vm(options, build_and_install) -> dict:
    """Run a traced VM with the analyzer attached; return its report."""
    from repro.vm.vmcore import JVM

    vm = JVM(options)
    analyzer = LocksetAnalyzer()
    vm.tracer.add_sink(analyzer.feed)
    vm.tracer.store = False  # stream-only: memory stays flat
    build_and_install(vm)
    vm.run()
    return analyzer.report()


def run_lockset_scenario(name: str, *, mode: str = "rollback") -> dict:
    """Lockset pass over one check scenario's default-policy execution."""
    from repro.bench.workloads import lookup_scenario
    from repro.check.explorer import CHECK_CYCLE_CAP, CHECK_VM_SEED
    from repro.vm.vmcore import VMOptions

    scenario = lookup_scenario("check", name)
    options = VMOptions(
        mode=mode,
        seed=CHECK_VM_SEED,
        trace=True,
        trace_memory=True,
        max_cycles=CHECK_CYCLE_CAP,
        **scenario.options,
    )
    return _lockset_vm(options, lambda vm: scenario.build().install(vm))


def run_lockset_fig5(*, mode: str = "rollback") -> dict:
    """Lockset pass over a compact Fig. 5-shaped micro-benchmark run.

    Every shared-array access sits inside the one global lock, so the
    report must show zero races and zero inversions — the CI smoke
    contract."""
    from repro.bench.microbench import MicrobenchConfig, setup_microbench_vm
    from repro.vm.vmcore import VMOptions

    config = MicrobenchConfig(
        high_threads=1,
        low_threads=2,
        iters_high=30,
        iters_low=60,
        sections=3,
        write_pct=50,
        array_size=8,
        pause_mean=2_000,
    )
    options = VMOptions(
        mode=mode,
        seed=config.seed,
        trace=True,
        trace_memory=True,
        max_cycles=40_000_000,
    )
    return _lockset_vm(options, lambda vm: setup_microbench_vm(vm, config))
