"""The fleet coordinator: shard a run matrix across TCP workers.

The coordinator owns the only mutable campaign state — the task queue
and the per-task leases — so determinism is structural: workers are
stateless executors of pure runs, results come back addressed by matrix
index, and the reduce happens in input order exactly like the engine's
inline path.  Scheduling, worker death and retries can therefore never
reach the report bytes.

Robustness model (the part that makes fleet speedups usable):

* **Leases.**  A dispatched task is leased to one worker.  The lease is
  released by a ``result``/``error`` frame or broken by worker death —
  connection EOF (fast path: a killed process closes its socket) or
  heartbeat silence beyond ``heartbeat_timeout`` (hung host).  Broken
  leases are re-queued at the front, so a killed worker mid-campaign
  loses no cell; the ``have[i]`` guard makes late duplicate deliveries
  harmless, so it duplicates none either.
* **Bounded retry.**  Each dispatch counts as an attempt; a task whose
  worker *reported* an execution error is re-dispatched after an
  exponential backoff delay until ``max_attempts``, then the whole map
  fails loudly with the worker's error.
* **Integrity.**  Every result payload travels with its SHA-256 digest
  and is re-hashed on receipt; a mismatch is treated like a transport
  fault (logged, counted, task re-queued) and the verified payload is
  stored into the engine's :class:`~repro.bench.parallel.ResultCache`
  byte-for-byte, so a later cache read verifies the same digest.
* **Graceful drain.**  ``shutdown()`` lets parked workers exit on a
  ``shutdown`` frame and in-flight work complete; it never aborts a
  worker mid-run.
"""

from __future__ import annotations

import logging
import pickle
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.bench.parallel import (
    EngineStats,
    ResultCache,
    payload_digest,
    trace_health,
)
from repro.fleet.protocol import FrameSocket, fn_reference

__all__ = ["Coordinator", "FleetError"]

_log = logging.getLogger("repro.fleet.coordinator")


class FleetError(RuntimeError):
    """A campaign failed permanently (task error past the retry budget)."""


@dataclass
class _Worker:
    """Coordinator-side view of one connected worker."""

    name: str
    frame: FrameSocket
    pid: int = 0
    last_seen: float = field(default_factory=time.monotonic)
    #: task indices currently leased to this worker
    leased: set[int] = field(default_factory=set)
    #: frame.bytes_received watermark for incremental stats crediting
    recv_mark: int = 0
    alive: bool = True


class _Batch:
    """One in-flight dispatch() call."""

    def __init__(self, fn_ref: str, items: Sequence[Any],
                 pending: Sequence[int], results: list[Any],
                 stats: EngineStats, cache: Optional[ResultCache],
                 keys: Sequence[str]):
        self.fn_ref = fn_ref
        self.items = items
        self.stats = stats
        self.results = results
        self.cache = cache
        self.keys = keys
        self.have = [True] * len(items)
        for task in pending:
            self.have[task] = False
        self.pending: deque[int] = deque(pending)
        #: (ready_time, task) pairs awaiting their retry backoff
        self.delayed: list[tuple[float, int]] = []
        self.attempts = [0] * len(items)
        self.leases: dict[int, str] = {}
        self.done = len(items) - len(pending)
        self.failure: Optional[BaseException] = None

    def dispatchable(self, now: float) -> bool:
        self.promote(now)
        return bool(self.pending)

    def promote(self, now: float) -> None:
        """Move retry-delayed tasks whose backoff has elapsed back into
        the pending queue."""
        if not self.delayed:
            return
        due = [t for ready, t in self.delayed if ready <= now]
        if due:
            self.delayed = [
                (ready, t) for ready, t in self.delayed if ready > now
            ]
            self.pending.extend(due)

    def complete(self) -> bool:
        return self.done == len(self.items) or self.failure is not None


class Coordinator:
    """Work-queue coordinator for one or many :mod:`repro.fleet` workers.

    Thread model: one acceptor thread, one thread per worker connection,
    one lease monitor.  ``dispatch()`` runs on the caller's thread and
    blocks until the batch completes; it is not reentrant (an engine
    issues one map at a time).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: float = 15.0,
        max_attempts: int = 4,
        retry_backoff: float = 0.25,
    ):
        self.heartbeat_timeout = heartbeat_timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: dict[str, _Worker] = {}
        self._batch: Optional[_Batch] = None
        self._shutdown = False
        self._listener = socket.create_server((host, port))
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor_thread.start()

    # ------------------------------------------------------------ topology
    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def worker_names(self) -> list[str]:
        with self._lock:
            return sorted(self._workers)

    def leases(self) -> dict[int, str]:
        """Snapshot of task -> worker leases (introspection/tests)."""
        with self._lock:
            return dict(self._batch.leases) if self._batch else {}

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers said hello (or raise)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{len(self._workers)}/{count} fleet workers "
                        f"connected within {timeout:.0f}s"
                    )
                self._cond.wait(min(remaining, 0.5))

    # ----------------------------------------------------------- accepting
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(FrameSocket(sock),),
                name="fleet-conn",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _register(self, frame: FrameSocket, hello: dict) -> _Worker:
        base = str(hello.get("worker") or "worker")
        with self._cond:
            name = base
            serial = 1
            while name in self._workers:
                serial += 1
                name = f"{base}#{serial}"
            worker = _Worker(
                name=name, frame=frame, pid=int(hello.get("pid") or 0)
            )
            self._workers[name] = worker
            self._cond.notify_all()
        _log.info("fleet worker %s connected (pid %d)", name, worker.pid)
        return worker

    def _serve_connection(self, frame: FrameSocket) -> None:
        try:
            hello, _ = frame.recv()
        except (ConnectionError, OSError):
            frame.close()
            return
        if hello is None or hello.get("type") != "hello":
            frame.close()
            return
        worker = self._register(frame, hello)
        try:
            while True:
                msg, payload = frame.recv()
                if msg is None:
                    break
                kind = msg.get("type")
                if kind == "heartbeat":
                    worker.last_seen = time.monotonic()
                elif kind == "ready":
                    if not self._handle_ready(worker):
                        break
                elif kind == "result":
                    worker.last_seen = time.monotonic()
                    self._handle_result(worker, msg, payload)
                elif kind == "error":
                    worker.last_seen = time.monotonic()
                    self._handle_error(worker, msg)
        except (ConnectionError, OSError) as exc:
            _log.warning("fleet worker %s connection lost: %s",
                         worker.name, exc)
        finally:
            self._drop_worker(worker)
            frame.close()

    # ---------------------------------------------------------- dispatching
    def _handle_ready(self, worker: _Worker) -> bool:
        """Park until a task is dispatchable, then lease + send it.

        Returns False when the worker should shut down instead.
        """
        with self._cond:
            while True:
                if self._shutdown or not worker.alive:
                    break
                batch = self._batch
                if batch is not None and batch.failure is None \
                        and batch.dispatchable(time.monotonic()):
                    task = batch.pending.popleft()
                    batch.attempts[task] += 1
                    batch.leases[task] = worker.name
                    worker.leased.add(task)
                    worker.last_seen = time.monotonic()
                    item = batch.items[task]
                    msg = {
                        "type": "task",
                        "task": task,
                        "fn": batch.fn_ref,
                    }
                    stats = batch.stats
                    break
                self._cond.wait(0.25)
            else:  # pragma: no cover - unreachable
                pass
            if self._shutdown or not worker.alive:
                try:
                    worker.frame.send({"type": "shutdown"})
                except (ConnectionError, OSError):
                    pass
                return False
        payload = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            sent = worker.frame.send(msg, payload)
        except (ConnectionError, OSError) as exc:
            # the parked worker died while we held its lease: re-queue
            _log.warning(
                "fleet worker %s died taking task %d (%s); re-queueing",
                worker.name, task, exc,
            )
            with self._cond:
                self._release_lease(worker, task, requeue=True)
                worker.alive = False
                self._cond.notify_all()
            return False
        with self._cond:
            stats.credit(worker.name, bytes_sent=sent)
        return True

    def _release_lease(
        self, worker: _Worker, task: int, *, requeue: bool
    ) -> None:
        """Caller must hold the lock."""
        worker.leased.discard(task)
        batch = self._batch
        if batch is None:
            return
        if batch.leases.get(task) == worker.name:
            del batch.leases[task]
        if requeue and not batch.have[task]:
            batch.pending.appendleft(task)

    def _handle_result(
        self, worker: _Worker, msg: dict, payload: bytes
    ) -> None:
        with self._cond:
            batch = self._batch
            task = msg.get("task")
            if batch is None or not isinstance(task, int) \
                    or not 0 <= task < len(batch.items):
                return
            self._release_lease(worker, task, requeue=False)
            stats = batch.stats
            received = worker.frame.bytes_received - worker.recv_mark
            worker.recv_mark = worker.frame.bytes_received
            stats.credit(worker.name, bytes_received=received)
            if payload_digest(payload) != msg.get("digest"):
                stats.digest_failures += 1
                _log.warning(
                    "result for task %d from worker %s failed its "
                    "integrity digest; re-queueing the task",
                    task, worker.name,
                )
                if batch.attempts[task] >= self.max_attempts:
                    batch.failure = FleetError(
                        f"task {task} failed integrity verification "
                        f"{batch.attempts[task]} times"
                    )
                elif not batch.have[task]:
                    batch.pending.appendleft(task)
                self._cond.notify_all()
                return
            if batch.have[task]:
                # late duplicate from a lease we already re-assigned:
                # results are pure functions of the spec, so dropping it
                # is sound — and required, to never double-count a cell
                self._cond.notify_all()
                return
            batch.results[task] = pickle.loads(payload)
            batch.have[task] = True
            batch.done += 1
            wall = float(msg.get("wall") or 0.0)
            stats.run_walls[task] = wall
            stats.run_wall += wall
            dropped, sink_errors = trace_health(batch.results[task])
            stats.trace_dropped += dropped
            stats.trace_sink_errors += sink_errors
            stats.credit(
                worker.name, tasks=1, run_wall=wall,
                trace_dropped=dropped,
                trace_sink_errors=sink_errors,
            )
            if dropped or sink_errors:
                # observability degraded on a remote run: say so on
                # the coordinator's stderr, not just in the lanes
                _log.warning(
                    "worker %s: task %d ran with degraded tracing "
                    "(%d event(s) dropped, %d sink(s) detached)",
                    worker.name, task, dropped, sink_errors,
                )
            if batch.cache is not None:
                batch.cache.put_bytes(
                    batch.keys[task], payload, msg.get("digest")
                )
            self._cond.notify_all()

    def _handle_error(self, worker: _Worker, msg: dict) -> None:
        with self._cond:
            batch = self._batch
            task = msg.get("task")
            if batch is None or not isinstance(task, int) \
                    or not 0 <= task < len(batch.items):
                return
            self._release_lease(worker, task, requeue=False)
            error = str(msg.get("error") or "unknown worker error")
            _log.warning(
                "task %d failed on worker %s (attempt %d/%d): %s",
                task, worker.name, batch.attempts[task],
                self.max_attempts, error,
            )
            if batch.have[task]:
                pass  # another worker already delivered this cell
            elif batch.attempts[task] >= self.max_attempts:
                batch.failure = FleetError(
                    f"task {task} failed after {batch.attempts[task]} "
                    f"attempts; last error: {error}"
                )
            else:
                delay = self.retry_backoff * (
                    2 ** (batch.attempts[task] - 1)
                )
                batch.delayed.append((time.monotonic() + delay, task))
            self._cond.notify_all()

    def _drop_worker(self, worker: _Worker) -> None:
        with self._cond:
            worker.alive = False
            if self._workers.get(worker.name) is worker:
                del self._workers[worker.name]
            batch = self._batch
            if batch is not None and worker.leased:
                for task in sorted(worker.leased, reverse=True):
                    if not batch.have[task]:
                        batch.pending.appendleft(task)
                        batch.stats.reassigned += 1
                        _log.warning(
                            "re-queueing task %d leased by dead worker %s",
                            task, worker.name,
                        )
                    batch.leases.pop(task, None)
                worker.leased.clear()
            self._cond.notify_all()

    def _monitor_loop(self) -> None:
        """Break leases of workers that went silent mid-task."""
        while not self._shutdown:
            time.sleep(0.5)
            stale: list[_Worker] = []
            now = time.monotonic()
            with self._cond:
                if self._batch is not None:
                    self._batch.promote(now)
                    if self._batch.dispatchable(now):
                        self._cond.notify_all()
                for worker in self._workers.values():
                    if worker.leased and worker.alive and (
                        now - worker.last_seen > self.heartbeat_timeout
                    ):
                        stale.append(worker)
            for worker in stale:
                _log.warning(
                    "fleet worker %s silent for %.0fs with %d leased "
                    "task(s); declaring it dead",
                    worker.name, self.heartbeat_timeout,
                    len(worker.leased),
                )
                # closing the socket makes its connection thread exit,
                # which re-queues the leases via _drop_worker
                worker.frame.close()

    # ------------------------------------------------------------- mapping
    def dispatch(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        pending: Sequence[int],
        results: list[Any],
        stats: EngineStats,
        *,
        cache: Optional[ResultCache] = None,
        keys: Sequence[str] = (),
        procs: Sequence[Any] = (),
    ) -> None:
        """Run ``fn`` over ``items[i]`` for every ``i`` in ``pending``.

        The fleet half of :meth:`repro.bench.parallel.RunEngine.map`,
        which serves cache hits before calling this: results land in
        ``results[i]`` (so the reduce is in input order), lanes and
        counters are credited to ``stats``, and with a ``cache`` each
        verified payload is stored under ``keys[i]``.  Blocks until
        every task delivered, under the lease/retry machinery documented
        on the class.  ``procs`` are the fleet's own worker processes,
        if it has any: once all of them have exited the dispatch fails
        instead of waiting for a worker that cannot come.
        """
        batch = _Batch(
            fn_reference(fn), items, pending, results, stats, cache, keys
        )
        with self._cond:
            if self._batch is not None:
                raise RuntimeError("coordinator dispatch is not reentrant")
            if self._shutdown:
                raise RuntimeError("coordinator is shut down")
            self._batch = batch
            self._cond.notify_all()
            try:
                while not batch.complete():
                    if procs and all(p.poll() is not None for p in procs):
                        raise FleetError(
                            "every worker process of the fleet exited"
                        )
                    self._cond.wait(0.5)
            finally:
                self._batch = None
        if batch.failure is not None:
            raise batch.failure

    # ------------------------------------------------------------ shutdown
    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful drain: workers get a ``shutdown`` frame, in-flight
        connection threads are joined, the listener closes."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            self._cond.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        with self._lock:
            leftovers = list(self._workers.values())
        for worker in leftovers:
            worker.frame.close()
