"""Loopback fleet spawning, and FleetEngine for external workers.

Every heavy path in the repo — the fig5–8 bench matrix, checker
schedule campaigns, server soak cells, observability captures and the
fault campaign — fans out through
:meth:`repro.bench.parallel.RunEngine.map`.  ``RunEngine(jobs=N)`` with
``N > 1`` runs on a loopback fleet: :func:`spawn_local` starts a
:class:`~repro.fleet.coordinator.Coordinator` and ``N`` worker
subprocesses, and :meth:`Coordinator.dispatch
<repro.fleet.coordinator.Coordinator.dispatch>` shards the uncached
runs across them.  That is the repo's one parallel backend.

:class:`FleetEngine` is the same engine with every map dispatched to the
fleet, never inline.  Two construction shapes:

* :meth:`FleetEngine.local` — ``N`` loopback workers through the same
  :func:`spawn_local` (the shape the tests and perfbench's fig-sweep
  fleet lane use).
* :meth:`FleetEngine.coordinate` — bind an address and wait for
  externally started workers (``--fleet coordinator`` + ``--fleet
  worker`` on other hosts).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Optional, Sequence

from repro.bench.parallel import ResultCache, RunEngine
from repro.fleet.coordinator import Coordinator

__all__ = ["FleetEngine", "drain", "spawn_local"]


def _worker_pythonpath() -> str:
    """PYTHONPATH that lets a worker import whatever this process can:
    ``repro`` itself and any module a task function lives in."""
    return os.pathsep.join(p for p in sys.path if p)


def spawn_local(
    workers: int,
    *,
    cache: Optional[ResultCache] = None,
    worker_env: Optional[dict[str, str]] = None,
    startup_timeout: float = 60.0,
    heartbeat_timeout: float = 15.0,
) -> tuple[Coordinator, list[subprocess.Popen]]:
    """A loopback coordinator plus ``workers`` worker subprocesses.

    Workers run with their local cache off: the coordinator already
    checks and fills ``cache``, the one store on this host, so a worker
    lane could only serve results the caller asked not to reuse.
    """
    if workers < 1:
        raise ValueError("a local fleet needs at least one worker")
    coordinator = Coordinator(
        cache=cache, heartbeat_timeout=heartbeat_timeout
    )
    host, port = coordinator.address
    env = dict(os.environ)
    env["PYTHONPATH"] = _worker_pythonpath()
    if worker_env:
        env.update(worker_env)
    procs = []
    try:
        for k in range(workers):
            procs.append(subprocess.Popen(
                [
                    sys.executable, "-m", "repro.fleet", "worker",
                    "--connect", f"{host}:{port}",
                    "--name", f"w{k + 1}",
                    "--no-cache",
                ],
                env=env,
            ))
        coordinator.wait_for_workers(workers, timeout=startup_timeout)
    except BaseException:
        for proc in procs:
            proc.kill()
        coordinator.shutdown()
        raise
    return coordinator, procs


def drain(
    coordinator: Coordinator, procs: Sequence[subprocess.Popen]
) -> None:
    """Shutdown frames to every worker, then reap the owned processes."""
    coordinator.shutdown()
    deadline = time.monotonic() + 10.0
    for proc in procs:
        try:
            proc.wait(max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class FleetEngine(RunEngine):
    """A RunEngine whose every map runs on fleet workers over TCP."""

    def __init__(
        self,
        coordinator: Coordinator,
        *,
        jobs: int = 1,
        procs: Sequence[subprocess.Popen] = (),
    ):
        super().__init__(jobs=max(1, jobs), cache=coordinator.cache)
        self._attach(coordinator, procs)

    def _inline(self, pending: int) -> bool:
        return False

    # ------------------------------------------------------- construction
    @classmethod
    def local(
        cls,
        workers: int,
        *,
        cache: Optional[ResultCache] = None,
        worker_env: Optional[dict[str, str]] = None,
        startup_timeout: float = 60.0,
        heartbeat_timeout: float = 15.0,
    ) -> "FleetEngine":
        """Coordinator + ``workers`` loopback worker subprocesses."""
        coordinator, procs = spawn_local(
            workers, cache=cache, worker_env=worker_env,
            startup_timeout=startup_timeout,
            heartbeat_timeout=heartbeat_timeout,
        )
        return cls(coordinator, jobs=workers, procs=procs)

    @classmethod
    def coordinate(
        cls,
        host: str = "0.0.0.0",
        port: int = 0,
        *,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        startup_timeout: float = 600.0,
    ) -> "FleetEngine":
        """Bind ``host:port`` and wait for ``workers`` external workers."""
        coordinator = Coordinator(host, port, cache=cache)
        bound_host, bound_port = coordinator.address
        print(
            f"fleet coordinator listening on {bound_host}:{bound_port}, "
            f"waiting for {workers} worker(s)",
            file=sys.stderr,
        )
        try:
            coordinator.wait_for_workers(workers, timeout=startup_timeout)
        except BaseException:
            coordinator.shutdown()
            raise
        return cls(coordinator, jobs=workers)
