"""Host-speed calibration, interleaved with the measured calls.

The hosts this runs on change speed by 2x within seconds, for minutes at
a time, mostly through neighbours contending for the core, its caches
and memory, so a raw wall clock says more about the neighbours than
about the program.  Right before and right after every measured call, in
the same process, :func:`probe` times three fixed pure-Python kernels
that run no ``repro`` code, so a change to the program under test cannot
move them: one compute-bound (dict, list, attribute and call traffic in
a few KB), one bound by random lookups in a 4 MB table, and one
allocation-bound (``copy.deepcopy`` of a small nested tree).  A call's
*reference-speed seconds* are its wall time divided by the host's
slowdown around it: each kernel's mean duration over its reference,
averaged over the three kernels and the two probes.

Measured on a shared 2-vCPU VM over 150 s, single cells of the four
workloads spread 27-49% (quartile distance over median) in raw wall time
and 7-16% in reference-speed seconds.
"""

from __future__ import annotations

import copy
import functools
import signal
import time

#: nominal kernel durations: probes this fast mean the host ran at
#: reference speed (about the medians on a 2-vCPU cloud VM, Python 3.11)
REFERENCE_COMPUTE_S = 0.0025
REFERENCE_MEMORY_S = 0.0020
REFERENCE_ALLOC_S = 0.0045
#: key range of the memory kernel's table (about 4 MB with its objects)
TABLE_SIZE = 100_000

#: repetitions of each kernel per probe: longer probes average out the
#: host's millisecond-scale jitter and keep its second-scale drift
PROBE_REPS = 4


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, n: int) -> int:
        self.value += n
        return self.value


def compute_kernel() -> int:
    table: dict[int, _Cell] = {}
    stack: list[_Cell] = []
    acc = 0
    for i in range(5_000):
        key = (i * 7) & 127
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, 0)
        acc += cell.bump(i & 15)
        stack.append(cell)
        if len(stack) > 24:
            acc ^= stack.pop(0).value
    return acc


@functools.cache
def _table() -> dict[int, _Cell]:
    """The memory kernel's table, built once per process (outside any
    measured interval: the first probe precedes the first call)."""
    return {i: _Cell(i, i) for i in range(0, TABLE_SIZE, 3)}


def memory_kernel() -> int:
    table = _table()
    acc = 0
    for i in range(0, 60_000, 7):
        cell = table.get(i * 2654435761 % TABLE_SIZE)
        if cell is not None:
            acc += cell.value
    return acc


_TREE = {
    "rows": [
        {"k": i, "v": [i, i + 1, (i, "x")], "s": {"n": str(i)}}
        for i in range(60)
    ],
    "tail": list(range(200)),
}


def alloc_kernel() -> int:
    acc = 0
    for _ in range(6):
        acc += len(copy.deepcopy(_TREE)["rows"])
    return acc


def _mean_duration(kernel, reps: int = PROBE_REPS) -> float:
    t0 = time.monotonic()
    for _ in range(reps):
        kernel()
    return (time.monotonic() - t0) / reps


KERNELS = (
    (compute_kernel, REFERENCE_COMPUTE_S),
    (memory_kernel, REFERENCE_MEMORY_S),
    (alloc_kernel, REFERENCE_ALLOC_S),
)


def probe(reps: int = PROBE_REPS) -> float:
    """The host's slowdown right now: 1.0 at reference speed."""
    _table()
    return sum(
        _mean_duration(kernel, reps) / reference
        for kernel, reference in KERNELS
    ) / len(KERNELS)


class Sampler:
    """Probes the host from a ``SIGALRM`` timer while a measured call
    runs, so a call of several seconds is calibrated throughout and not
    only at its ends.  The handler runs in the main thread between two
    bytecodes, touches nothing but its own kernels, and its time is not
    charged to the call.  Not for profiled runs: the profiler would see
    the kernels."""

    #: seconds between in-call probes
    INTERVAL_S = 0.15
    #: the one active sampler of this process (signals are per process)
    current: "Sampler | None" = None

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: seconds spent in the handler
        self.spent = 0.0
        #: probe only while a measured call runs
        self.armed = False

    def __enter__(self) -> "Sampler":
        _table()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        Sampler.current = self
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        Sampler.current = None

    def _tick(self, signum, frame) -> None:
        if not self.armed:
            return
        t0 = time.monotonic()
        self.samples.append(probe(reps=1))
        self.spent += time.monotonic() - t0


class Timed:
    """Context manager timing one call in reference-speed seconds.

    ``slowdown`` is the mean of the probes taken just before and just
    after the call and of any :class:`Sampler` probes during it;
    ``raw`` is the call's wall time, ``wall`` the same without the
    sampler's time; ``secs`` is ``wall / slowdown``.
    """

    def __enter__(self) -> "Timed":
        self.before = probe()
        self.sampler = Sampler.current
        if self.sampler is not None:
            self.mark = len(self.sampler.samples)
            self.spent = self.sampler.spent
            self.sampler.armed = True
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = time.monotonic()
        self.raw = self.wall = self.t1 - self.t0
        probes = [self.before]
        if self.sampler is not None:
            self.sampler.armed = False
            probes += self.sampler.samples[self.mark:]
            self.wall -= self.sampler.spent - self.spent
        probes.append(probe())
        self.slowdown = sum(probes) / len(probes)
        self.secs = self.wall / self.slowdown


if __name__ == "__main__":
    import statistics

    for kernel, ref in KERNELS:
        samples = [_mean_duration(kernel) for _ in range(200)]
        print(f"{kernel.__name__}: median "
              f"{statistics.median(samples) * 1000:.3f} ms, min "
              f"{min(samples) * 1000:.3f} ms, reference {ref * 1000:.3f} ms")
