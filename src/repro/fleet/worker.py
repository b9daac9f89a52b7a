"""The fleet worker: a stateless run executor with a local cache lane.

A worker dials the coordinator, introduces itself, and then loops on a
pull protocol — send ``ready``, block until a ``task`` frame arrives,
execute, reply ``result`` (or ``error``), repeat.  The pull shape means
the coordinator never has to model worker capacity: a slow or wedged
worker simply stops asking, and its leases fall to the heartbeat
monitor.

Workers are deliberately stateless between tasks.  All campaign state
lives on the coordinator; the only thing a worker may keep is its local
:class:`~repro.bench.parallel.ResultCache`, which is a pure
content-addressed accelerator — a warm worker cache changes transfer
and wall numbers, never report bytes, because cached results are served
as the exact payload bytes (with their digest) that a cold run would
have produced.

A background thread heartbeats every ``heartbeat_interval`` seconds so
the coordinator can tell "hung mid-task" from "still crunching".
"""

from __future__ import annotations

import logging
import os
import pickle
import socket
import threading
import time
from typing import Optional

from repro.bench.parallel import ResultCache, payload_digest
from repro.fleet.protocol import FrameSocket, connect, resolve_fn

__all__ = ["serve"]

_log = logging.getLogger("repro.fleet.worker")


def _heartbeat_loop(
    frame: FrameSocket, stop: threading.Event, interval: float
) -> None:
    while not stop.wait(interval):
        try:
            frame.send({"type": "heartbeat"})
        except (ConnectionError, OSError):
            return


def serve(
    host: str,
    port: int,
    *,
    name: Optional[str] = None,
    cache: Optional[ResultCache] = None,
    heartbeat_interval: float = 2.0,
    dial_timeout: float = 30.0,
) -> int:
    """Run the worker loop until the coordinator says ``shutdown``.

    Dialing retries for up to ``dial_timeout`` seconds so workers can be
    started before (or while) the coordinator binds.  Returns the number
    of tasks served (cache hits included).
    """
    deadline = time.monotonic() + dial_timeout
    while True:
        try:
            frame = connect(host, port)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.5)
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    frame.send({"type": "hello", "worker": worker_name, "pid": os.getpid()})
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(frame, stop, heartbeat_interval),
        name="fleet-heartbeat",
        daemon=True,
    )
    beat.start()
    fns: dict[str, object] = {}
    served = 0
    try:
        frame.send({"type": "ready"})
        while True:
            msg, payload = frame.recv()
            if msg is None or msg.get("type") == "shutdown":
                break
            if msg.get("type") != "task":
                continue
            task = msg["task"]
            key = msg.get("key")
            t0 = time.perf_counter()
            cached = False
            entry = cache.get_bytes(key) if cache and key else None
            if entry is not None:
                out_payload, digest = entry
                cached = True
            else:
                try:
                    fn = fns.get(msg["fn"])
                    if fn is None:
                        fn = fns[msg["fn"]] = resolve_fn(msg["fn"])
                    result = fn(pickle.loads(payload))
                except Exception as exc:
                    _log.warning(
                        "task %d (%s) failed: %s", task, msg["fn"], exc
                    )
                    frame.send({
                        "type": "error",
                        "task": task,
                        "error": f"{type(exc).__name__}: {exc}",
                        "wall": time.perf_counter() - t0,
                    })
                    frame.send({"type": "ready"})
                    continue
                out_payload = pickle.dumps(
                    result, protocol=pickle.HIGHEST_PROTOCOL
                )
                digest = payload_digest(out_payload)
                if cache and key:
                    cache.put_bytes(key, out_payload, digest)
            frame.send(
                {
                    "type": "result",
                    "task": task,
                    "key": key,
                    "digest": digest,
                    "cached": cached,
                    "wall": time.perf_counter() - t0,
                },
                out_payload,
            )
            served += 1
            frame.send({"type": "ready"})
    except (ConnectionError, OSError) as exc:
        _log.warning("worker %s lost the coordinator: %s", worker_name, exc)
    finally:
        stop.set()
        frame.close()
    return served
