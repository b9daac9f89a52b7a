"""Bounded deterministic latency reservoir with exact integer summaries.

The server plane records one integer latency per completed request; a
10^5-request soak must not hold 10^5 Python integers per tier on the
host just to compute five summary numbers.  This reservoir folds the
stream into at most ``capacity`` *(value, count)* bins:

* **Below capacity it is exact** — a counting multiset, so nearest-rank
  percentiles, mean, max and count are bit-identical to sorting the full
  sample (``tests/test_util_reservoir.py`` pins this parity against
  :func:`repro.server.report.latency_summary`).  Virtual-cycle latencies
  are heavily quantized, so real soaks stay in this regime: distinct
  values, not requests, bound the memory.
* **Above capacity** the two *closest* neighboring bins merge (count
  into the larger-count value, ties to the lower value), so a percentile
  is still always an actually-observed latency value and its error is
  bounded by the local gap between adjacent observed values.  ``count``,
  ``max`` and ``mean`` (via an exact running total) remain exact always.

Everything is integer arithmetic and a pure function of the sample
*sequence* — no randomness, no hashing, no floats — so reports built on
it stay byte-identical across hosts, interpreters and worker fan-outs.
Inserts are O(log n) (binary search + list insert); merges scan the
bounded gap table only when the reservoir is full.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

__all__ = ["DEFAULT_CAPACITY", "LatencyReservoir"]

#: bins per reservoir — far above the distinct-value count of any
#: in-repo workload, so the exact regime is the operating regime
DEFAULT_CAPACITY = 4096


class LatencyReservoir:
    """Streaming integer-latency summary in bounded memory."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 2:
            raise ValueError("reservoir capacity must be >= 2")
        self.capacity = capacity
        self._values: list[int] = []   # ascending distinct values
        self._counts: list[int] = []   # parallel occurrence counts
        self.count = 0                 # exact stream length
        self.total = 0                 # exact stream sum
        self.max_value = 0             # exact stream max (count > 0)
        self.merges = 0                # bins collapsed so far

    def __len__(self) -> int:
        return self.count

    @property
    def bins(self) -> int:
        return len(self._values)

    @property
    def exact(self) -> bool:
        """True while no merge has happened (summaries are bit-exact)."""
        return self.merges == 0

    def add(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.total += value
        if self.count == 1 or value > self.max_value:
            self.max_value = value
        i = bisect_left(self._values, value)
        if i < len(self._values) and self._values[i] == value:
            self._counts[i] += 1
            return
        self._values.insert(i, value)
        self._counts.insert(i, 1)
        if len(self._values) > self.capacity:
            self._merge_closest()

    def extend(self, values: Any) -> None:
        for value in values:
            self.add(value)

    def _merge_closest(self) -> None:
        values, counts = self._values, self._counts
        best = 0
        best_gap = values[1] - values[0]
        for i in range(1, len(values) - 1):
            gap = values[i + 1] - values[i]
            if gap < best_gap:
                best_gap = gap
                best = i
        lo, hi = best, best + 1
        # keep the value that represents more observations (ties to the
        # lower one) — except the top pair, which always keeps the
        # maximum so the tail of the distribution never erodes
        if hi == len(values) - 1:
            keep = hi
        else:
            keep = lo if counts[lo] >= counts[hi] else hi
        counts[keep] = counts[lo] + counts[hi]
        drop = hi if keep == lo else lo
        del values[drop]
        del counts[drop]
        self.merges += 1

    def percentile(self, numer: int, denom: int) -> int:
        """Nearest-rank percentile over the binned sample.

        Mirrors :func:`repro.util.stats.nearest_rank` on the expanded
        multiset — without expanding it — via cumulative counts.
        """
        if self.count == 0:
            raise ValueError("empty sample")
        if not (0 < numer <= denom):
            raise ValueError(f"percentile {numer}/{denom} outside (0, 1]")
        rank = (self.count * numer + denom - 1) // denom
        seen = 0
        for value, count in zip(self._values, self._counts):
            seen += count
            if seen >= rank:
                return value
        return self._values[-1]  # pragma: no cover - rank <= count

    def summary(self) -> dict[str, Any]:
        """The exact shape of :func:`repro.server.report.latency_summary`.

        Bit-identical to the unbounded path whenever :attr:`exact`
        holds, which is the operating regime (see the module docstring).
        """
        if self.count == 0:
            return {"count": 0, "p50": None, "p99": None, "p999": None,
                    "max": None, "mean": None}
        return {
            "count": self.count,
            "p50": self.percentile(50, 100),
            "p99": self.percentile(99, 100),
            "p999": self.percentile(999, 1000),
            "max": self.max_value,
            "mean": self.total // self.count,
        }

    def expand(self) -> list[int]:
        """The binned multiset as a sorted list (tests/debugging only —
        this defeats the boundedness the reservoir exists for)."""
        out: list[int] = []
        for value, count in zip(self._values, self._counts):
            out.extend([value] * count)
        return out
