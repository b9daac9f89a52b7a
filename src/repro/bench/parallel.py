"""Parallel benchmark execution engine with content-addressed run caching.

Every benchmark run is a pure deterministic function of its task and
its frozen cell — the VM replays the same virtual history no matter
which process executes it.  That makes the Figures 5–8 matrix
embarrassingly parallel: this module

1. enumerates the full run matrix for a figure/campaign up front,
2. fans the runs out to a loopback fleet of worker subprocesses
   (:class:`RunEngine`, on top of :mod:`repro.fleet`),
3. reduces the results back in deterministic matrix order, so every
   report and figure is byte-identical to the serial path, and
4. memoizes completed runs in a content-addressed on-disk cache
   (:class:`ResultCache`).  Every key comes from one function,
   :func:`run_key`: the task's ``module:qualname``, every field of the
   cell and a digest of the ``repro`` source tree.  A field added to a
   cell later is in its key without anyone touching a key function.

Environment knobs (all read by :meth:`RunEngine.from_env`; unset or
empty means the default, anything unparseable raises ``ValueError``
naming the variable):

* ``REPRO_BENCH_JOBS`` — worker processes, a whole number above zero
  (default ``os.cpu_count()``; ``1`` = the serial in-process path, no
  subprocess, no pickling).
* ``REPRO_BENCH_CACHE`` — ``0``/``off``/``no`` disables the result
  cache, ``1``/``on``/``yes`` keeps it.  A map is cached if and only if
  its engine has a cache.
* ``REPRO_BENCH_CACHE_DIR`` — cache location (default
  ``.repro-bench-cache`` under the current directory).

Determinism note: worker scheduling order never reaches the results —
:meth:`RunEngine.map` returns outputs in *input* order, and each worker
builds its own VM from the pickled spec.  There is one parallel backend:
``jobs>1`` and ``--fleet coordinator`` both dispatch through
:meth:`repro.fleet.coordinator.Coordinator.dispatch`, and the fleet
package is imported only when the first parallel map needs it.  Host
wall-clock and cache-hit counters live in :class:`EngineStats`,
deliberately *outside* the deterministic result objects, so callers can
print them on stderr while keeping stdout byte-stable across ``jobs``
settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math
import os
import pickle
import sys
import time
import weakref
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.bench.harness import RunResult, run_microbench
from repro.bench.microbench import MicrobenchConfig
from repro.vm.clock import CostModel
from repro.vm.vmcore import VMOptions

__all__ = [
    "EngineStats",
    "ResultCache",
    "RunEngine",
    "RunSpec",
    "cache_key",
    "execute_spec",
    "fn_reference",
    "guest_instructions",
    "payload_digest",
    "run_key",
    "source_digest",
    "spec_key",
]

DEFAULT_CACHE_DIR = ".repro-bench-cache"


# ------------------------------------------------------------ content keys
def _feed(h: "hashlib._Hash", obj: Any) -> None:
    """Feed a canonical, type-tagged encoding of ``obj`` into ``h``.

    Only value-like shapes are accepted (scalars, bytes, sequences,
    string-keyed mappings, dataclass instances); anything else — and in
    particular anything whose identity could leak into the encoding —
    raises ``TypeError`` so cache keys can never silently diverge
    between processes or Python versions.
    """
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, int):
        data = str(obj).encode()
        h.update(b"i" + len(data).to_bytes(4, "big") + data)
    elif isinstance(obj, float):
        data = obj.hex().encode()
        h.update(b"f" + len(data).to_bytes(4, "big") + data)
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s" + len(data).to_bytes(4, "big") + data)
    elif isinstance(obj, bytes):
        h.update(b"b" + len(obj).to_bytes(4, "big") + obj)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__qualname__.encode()
        h.update(b"D" + len(name).to_bytes(4, "big") + name)
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        h.update(b"l" + len(obj).to_bytes(4, "big"))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("cache keys support only str-keyed mappings")
        h.update(b"d" + len(obj).to_bytes(4, "big"))
        for k in sorted(obj):
            _feed(h, k)
            _feed(h, obj[k])
    else:
        raise TypeError(
            f"cannot build a stable cache key from {type(obj).__name__}"
        )


def cache_key(*parts: Any) -> str:
    """Hex digest of the canonical encoding of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


_SOURCE_DIGEST: Optional[str] = None


def source_digest() -> str:
    """Digest of every ``*.py`` file under the installed ``repro`` package.

    Folding this into each run's cache key invalidates the whole cache
    whenever the simulator's source changes — the coarse but safe answer
    to "is a cached RunResult still what this code would compute?".
    Memoized per process (the tree does not change mid-run).
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix().encode()
            h.update(len(rel).to_bytes(4, "big") + rel)
            data = path.read_bytes()
            h.update(len(data).to_bytes(8, "big") + data)
        _SOURCE_DIGEST = h.hexdigest()
    return _SOURCE_DIGEST


def fn_reference(fn: Any) -> str:
    """The importable ``module:qualname`` reference of a task function.

    It names the task in every cache key and on the fleet wire, where a
    worker imports the function by this reference instead of unpickling
    it — so only module-level callables qualify.  A function of a module
    run as ``python -m pkg.mod`` is referenced by its importable name,
    which keeps its keys equal to those of an imported run.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if module == "__main__":
        spec = getattr(sys.modules["__main__"], "__spec__", None)
        module = spec.name if spec is not None else module
    if not module or not qualname or "<locals>" in qualname:
        raise ValueError(
            f"cached and fleet tasks need a module-level callable, "
            f"got {fn!r}"
        )
    return f"{module}:{qualname}"


def run_keys(fn: Callable[[Any], Any], items: Sequence[Any]) -> list[str]:
    """:func:`run_key` of every item, resolving ``fn`` once."""
    ref, digest = fn_reference(fn), source_digest()
    return [cache_key(ref, item, digest) for item in items]


def run_key(fn: Callable[[Any], Any], item: Any) -> str:
    """The content address of one run: the task function's reference,
    the cell (its dataclass qualname and every field, see :func:`_feed`)
    and the source digest.  The only cache key in the repo."""
    return run_keys(fn, [item])[0]


# ------------------------------------------------------------- disk cache
_cache_log = logging.getLogger("repro.bench.cache")

#: entry header: magic + hex sha-256 of the pickled payload + newline
_CACHE_MAGIC = b"repro-cache/2 "
_DIGEST_LEN = 64


def payload_digest(payload: bytes) -> str:
    """Integrity digest of a serialized cache/store payload."""
    return hashlib.sha256(payload).hexdigest()


class ResultCache:
    """Content-addressed artifact store: one file per completed run.

    Every entry is written as ``magic + sha256(payload) + payload`` and
    the digest is verified again on **read**: a truncated, corrupted or
    foreign file logs loudly and reads as a miss, so a damaged store can
    slow a sweep down (recompute) but never poison a report.  The same
    ``(payload, digest)`` byte format travels over the fleet wire
    protocol (:mod:`repro.fleet`), which makes this cache the one
    artifact store of a distributed run: workers send digested payloads,
    the coordinator re-verifies them before storing them here.
    """

    def __init__(self, directory: os.PathLike | str = DEFAULT_CACHE_DIR):
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get_bytes(self, key: str) -> Optional[tuple[bytes, str]]:
        """The verified ``(payload, digest)`` of an entry, or None.

        A missing file is a silent miss; a file that exists but fails
        the magic/digest check is *corruption* — logged loudly, removed
        so the recompute can rewrite it, and reported as a miss.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        header = len(_CACHE_MAGIC) + _DIGEST_LEN
        reason = None
        if len(data) < header or not data.startswith(_CACHE_MAGIC):
            reason = "bad or missing header"
        else:
            digest = data[len(_CACHE_MAGIC):header].decode("ascii", "replace")
            payload = data[header:]
            if payload_digest(payload) != digest:
                reason = "sha-256 digest mismatch"
        if reason is not None:
            _cache_log.warning(
                "cache entry %s is corrupt (%s); discarding it and "
                "recomputing the run", path, reason,
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return payload, digest

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or None on a miss (or a corrupt entry)."""
        entry = self.get_bytes(key)
        if entry is None:
            return None
        payload, _ = entry
        try:
            return pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, TypeError):
            _cache_log.warning(
                "cache entry %s passed its integrity digest but failed to "
                "unpickle; discarding it and recomputing the run",
                self._path(key),
            )
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            return None

    def put_bytes(
        self, key: str, payload: bytes, digest: Optional[str] = None
    ) -> str:
        """Store an already-pickled payload; returns its digest.

        ``digest``, when given, must match the payload (the fleet
        coordinator passes the digest it verified on receipt).
        """
        actual = payload_digest(payload)
        if digest is not None and digest != actual:
            raise ValueError(
                f"refusing to store payload whose digest {actual[:12]}... "
                f"does not match the claimed {digest[:12]}..."
            )
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename: a crashed run can leave a stale temp file but
        # never a truncated cache entry.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(actual.encode("ascii"))
            fh.write(payload)
        os.replace(tmp, path)
        return actual

    def put(self, key: str, value: Any) -> None:
        self.put_bytes(
            key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )


# ------------------------------------------------------------------ stats
def guest_instructions(result: Any) -> int:
    """Total guest instructions retired in one :class:`RunResult`.

    Read from ``metrics["threads"][*]["instructions"]``; returns 0 for
    results that carry no metrics (the engine is generic over result
    types).  Because runs are deterministic, this total is identical for
    every interpreter (``VMOptions.interp``) — only the host wall clock
    differs, which is exactly what the instructions-per-second numbers
    in :class:`EngineStats` compare.
    """
    metrics = getattr(result, "metrics", None)
    if not isinstance(metrics, dict):
        return 0
    threads = metrics.get("threads")
    if not isinstance(threads, dict):
        return 0
    return sum(
        int(info.get("instructions", 0))
        for info in threads.values()
        if isinstance(info, dict)
    )


def trace_health(result: Any) -> tuple[int, int]:
    """``(dropped, sink_errors)`` of one run's tracer.

    Read from ``metrics["trace"]`` on capture artifacts and RunResults,
    falling back to a top-level ``trace`` block (server reports); (0, 0)
    for results that carry neither.  Nonzero values mean the run's
    observability was degraded — spans are missing from its artifacts —
    so the engine surfaces them loudly instead of folding them into a
    clean-looking report.
    """
    metrics = (
        result.get("metrics") if isinstance(result, dict)
        else getattr(result, "metrics", None)
    )
    block = metrics.get("trace") if isinstance(metrics, dict) else None
    if block is None and isinstance(result, dict):
        block = result.get("trace")
    if not isinstance(block, dict):
        return (0, 0)
    return (
        int(block.get("dropped", 0)),
        int(block.get("sink_errors", 0)),
    )


@dataclass
class EngineStats:
    """Host-side observability for one engine (or one :meth:`map` call).

    These numbers describe *how* the runs were executed — they never feed
    back into RunResults, so serial and parallel reports stay identical.
    """

    jobs: int = 1
    runs: int = 0
    executed: int = 0
    cache_hits: int = 0
    #: summed per-run wall-clock seconds (worker-side, executed runs only)
    run_wall: float = 0.0
    #: host wall-clock seconds spent inside map() calls
    host_wall: float = 0.0
    #: worker-side wall-clock seconds per run (0.0 for cache hits),
    #: in matrix order
    run_walls: list[float] = field(default_factory=list, repr=False)
    #: guest instructions retired, executed runs only (cache hits cost no
    #: host time, so they would inflate instructions-per-second)
    guest_instructions: int = 0
    #: guest instructions per run (0 for cache hits), in matrix order
    run_instructions: list[int] = field(default_factory=list, repr=False)
    #: tasks re-queued after a worker died or went silent mid-lease
    reassigned: int = 0
    #: result frames whose payload failed its integrity digest on receipt
    digest_failures: int = 0
    #: trace events dropped at the tracer ring, executed runs only —
    #: nonzero means artifacts are missing spans (degraded observability)
    trace_dropped: int = 0
    #: tracer sinks detached after raising, executed runs only
    trace_sink_errors: int = 0
    #: per-worker breakdown — worker name -> counters.  Cache hits served
    #: before dispatch are credited to the pseudo-worker "coordinator";
    #: the aggregate fields above are always the exact sums of these.
    workers: dict[str, dict[str, Any]] = field(
        default_factory=dict, repr=False
    )

    def worker(self, name: str) -> dict[str, Any]:
        """The (mutable) per-worker counter record for ``name``."""
        return self.workers.setdefault(name, {
            "tasks": 0,
            "cache_hits": 0,
            "run_wall": 0.0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "trace_dropped": 0,
            "trace_sink_errors": 0,
        })

    def credit(
        self,
        name: str,
        *,
        tasks: int = 0,
        cache_hits: int = 0,
        run_wall: float = 0.0,
        bytes_sent: int = 0,
        bytes_received: int = 0,
        trace_dropped: int = 0,
        trace_sink_errors: int = 0,
    ) -> None:
        """Add counters to one worker's record (creating it on demand)."""
        rec = self.worker(name)
        rec["tasks"] += tasks
        rec["cache_hits"] += cache_hits
        rec["run_wall"] += run_wall
        rec["bytes_sent"] += bytes_sent
        rec["bytes_received"] += bytes_received
        rec["trace_dropped"] += trace_dropped
        rec["trace_sink_errors"] += trace_sink_errors

    def merge(self, other: "EngineStats") -> None:
        self.runs += other.runs
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.run_wall += other.run_wall
        self.host_wall += other.host_wall
        self.run_walls.extend(other.run_walls)
        self.guest_instructions += other.guest_instructions
        self.run_instructions.extend(other.run_instructions)
        self.reassigned += other.reassigned
        self.digest_failures += other.digest_failures
        self.trace_dropped += other.trace_dropped
        self.trace_sink_errors += other.trace_sink_errors
        for name, rec in other.workers.items():
            self.credit(name, **rec)

    def ips(self) -> float:
        """Guest instructions per host second over the executed runs."""
        return (
            self.guest_instructions / self.run_wall if self.run_wall else 0.0
        )

    def render(self) -> str:
        """One human line: the speedup evidence the reports cite."""
        speedup = self.run_wall / self.host_wall if self.host_wall else 0.0
        line = (
            f"engine: {self.runs} runs in {self.host_wall:.2f}s host "
            f"wall (jobs={self.jobs}, {self.executed} executed, "
            f"{self.cache_hits} cache hits); cumulative run wall "
            f"{self.run_wall:.2f}s ({speedup:.2f}x vs host)"
        )
        if self.guest_instructions:
            line += (
                f"; {self.guest_instructions} guest instructions "
                f"({self.ips():,.0f}/s)"
            )
        if self.trace_dropped or self.trace_sink_errors:
            line += (
                f"; TRACE DEGRADED: {self.trace_dropped} event(s) "
                f"dropped, {self.trace_sink_errors} sink(s) detached"
            )
        return line

    def render_workers(self) -> list[str]:
        """One line per worker: the imbalance picture of a fleet.

        Empty when the breakdown is trivial (a single execution lane and
        no remote traffic), so serial stderr output stays unchanged.
        """
        lanes = [n for n in self.workers if n != "coordinator"]
        moved = any(
            rec["bytes_sent"] or rec["bytes_received"]
            for rec in self.workers.values()
        )
        degraded = self.trace_dropped or self.trace_sink_errors
        if len(lanes) <= 1 and not moved and not degraded:
            return []
        lines = []
        for name in sorted(self.workers):
            rec = self.workers[name]
            line = (
                f"  worker {name}: {rec['tasks']} tasks, "
                f"{rec['cache_hits']} cache hits, "
                f"{rec['run_wall']:.2f}s run wall"
            )
            if rec["bytes_sent"] or rec["bytes_received"]:
                line += (
                    f", {rec['bytes_sent']}B out / "
                    f"{rec['bytes_received']}B in"
                )
            if rec["trace_dropped"] or rec["trace_sink_errors"]:
                line += (
                    f", TRACE DEGRADED: {rec['trace_dropped']} "
                    f"dropped / {rec['trace_sink_errors']} sink errors"
                )
            lines.append(line)
        if self.reassigned:
            lines.append(
                f"  {self.reassigned} task(s) reassigned after worker "
                "death"
            )
        if self.digest_failures:
            lines.append(
                f"  {self.digest_failures} result(s) failed integrity "
                "verification and were re-executed"
            )
        return lines


# ----------------------------------------------------------------- engine
def _env_number(name: str, parse, default):
    """``parse(os.environ[name])``, or ``default`` when unset or empty.

    Anything that does not parse to a finite number above zero raises
    :class:`ValueError` naming the variable and its value.
    """
    text = os.environ.get(name, "").strip()
    if not text:
        return default
    try:
        value = parse(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value) or value <= 0:
        kind = "whole" if parse is int else "finite"
        raise ValueError(
            f"{name}={text!r}: expected a {kind} number above zero"
        )
    return value


def _env_jobs() -> int:
    return _env_number("REPRO_BENCH_JOBS", int, os.cpu_count() or 1)


_CACHE_SWITCH = {"0": False, "off": False, "no": False,
                 "1": True, "on": True, "yes": True}


def _env_cache() -> Optional[ResultCache]:
    text = os.environ.get("REPRO_BENCH_CACHE", "").strip()
    enabled = _CACHE_SWITCH.get(text.lower()) if text else True
    if enabled is None:
        raise ValueError(
            f"REPRO_BENCH_CACHE={text!r}: expected one of "
            f"{', '.join(_CACHE_SWITCH)}"
        )
    if not enabled:
        return None
    return ResultCache(
        os.environ.get("REPRO_BENCH_CACHE_DIR", DEFAULT_CACHE_DIR)
    )


class RunEngine:
    """Deterministic fan-out/fan-in executor for pure benchmark runs.

    ``jobs=1`` executes inline in this process (no subprocess, no
    pickling).  ``jobs>1`` runs on a loopback fleet: a
    :class:`~repro.fleet.coordinator.Coordinator` plus ``jobs``
    ``python -m repro.fleet worker`` subprocesses, spawned on the first
    parallel :meth:`map` and reused until :meth:`close` reaps them.  A
    map with at most one uncached item still runs inline.  An optional
    :class:`ResultCache`, the one caching switch, short-circuits runs
    whose :func:`run_key` was stored before.  ``stats`` accumulates over
    the engine's lifetime; ``last_stats`` describes only the most recent
    :meth:`map` call.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.stats = EngineStats(jobs=jobs)
        self.last_stats = EngineStats(jobs=jobs)
        #: the fleet's coordinator and owned worker processes, once
        #: attached (see :meth:`_attach`)
        self.coordinator: Any = None
        self.procs: list[Any] = []
        self._reaper: Optional[weakref.finalize] = None

    @classmethod
    def from_env(cls) -> "RunEngine":
        """Build an engine from the ``REPRO_BENCH_*`` environment knobs."""
        return cls(jobs=_env_jobs(), cache=_env_cache())

    def _attach(self, coordinator: Any, procs: Sequence[Any] = ()) -> None:
        """Take ownership of a coordinator and its worker processes; they
        are drained on :meth:`close`, or when the engine is collected."""
        from repro.fleet.engine import drain

        self.coordinator = coordinator
        self.procs = list(procs)
        self._reaper = weakref.finalize(self, drain, coordinator, self.procs)

    def _inline(self, pending: int) -> bool:
        return self.jobs == 1 or pending <= 1

    def close(self) -> None:
        """Drain the fleet, if one was started: shutdown frames, then
        reap the owned workers.  Idempotent."""
        if self._reaper is not None:
            self._reaper()

    def __enter__(self) -> "RunEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        key_fn: Optional[Callable[[Any], str]] = None,
    ) -> list[Any]:
        """Run ``fn`` over ``items``; results come back in input order.

        A map is cached if and only if the engine has a cache: each
        item's key is :func:`run_key` of ``fn`` and the item, cached
        items are served without executing, fresh results are stored
        back; an uncached map derives no key.  ``fn`` must then be a
        module-level callable and every item a value-like cell (see
        :func:`_feed`); on the fleet it must also pickle.  ``key_fn``
        overrides the derived key; only perfbench passes it, with that
        same key (ROADMAP item 5).
        """
        t0 = time.perf_counter()
        stats = EngineStats(jobs=self.jobs)
        stats.runs = len(items)
        stats.run_walls = [0.0] * len(items)
        stats.run_instructions = [0] * len(items)
        results: list[Any] = [None] * len(items)

        keys: list[str] = []
        pending = list(range(len(items)))
        if self.cache is not None:
            keys = (
                run_keys(fn, items) if key_fn is None
                else [key_fn(item) for item in items]
            )
            pending = []
            for i, key in enumerate(keys):
                hit = self.cache.get(key)
                if hit is not None:
                    results[i] = hit
                    stats.cache_hits += 1
                    stats.credit("coordinator", cache_hits=1)
                else:
                    pending.append(i)

        if self._inline(len(pending)):
            for i in pending:
                t1 = time.perf_counter()
                results[i] = fn(items[i])
                wall = time.perf_counter() - t1
                stats.run_walls[i] = wall
                stats.run_wall += wall
                dropped, sink_errors = trace_health(results[i])
                stats.trace_dropped += dropped
                stats.trace_sink_errors += sink_errors
                stats.credit(
                    "inline", tasks=1, run_wall=wall,
                    trace_dropped=dropped,
                    trace_sink_errors=sink_errors,
                )
                if self.cache is not None and results[i] is not None:
                    self.cache.put(keys[i], results[i])
        else:
            if self.coordinator is None:
                from repro.fleet.engine import spawn_local

                self._attach(*spawn_local(self.jobs))
            self.coordinator.dispatch(
                fn, items, pending, results, stats,
                cache=self.cache, keys=keys, procs=self.procs,
            )

        stats.executed = len(pending)
        for i in pending:
            gi = guest_instructions(results[i])
            stats.run_instructions[i] = gi
            stats.guest_instructions += gi
        stats.host_wall = time.perf_counter() - t0
        self.last_stats = stats
        self.stats.merge(stats)
        return results

# ----------------------------------------------------- micro-bench plumbing
@dataclass(frozen=True)
class RunSpec:
    """Picklable description of one VM invocation of the micro-benchmark."""

    config: MicrobenchConfig
    mode: str = "unmodified"
    options: Optional[VMOptions] = None
    cost_model: Optional[CostModel] = None


def execute_spec(spec: RunSpec) -> RunResult:
    """Worker-side entry: build the VM and run one spec (pure function)."""
    return run_microbench(
        spec.config,
        spec.mode,
        options=spec.options,
        cost_model=spec.cost_model,
    )


#: perfbench imports this name for its cache probe; ROADMAP item 5
#: deletes it
spec_key = partial(run_key, execute_spec)
