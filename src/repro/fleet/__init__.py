"""Distributed run fleet: coordinator/worker work-queue over TCP.

The fleet shards the repo's embarrassingly-parallel campaigns — the
fig5–8 bench matrix, checker schedule spaces, server soak cells —
across worker processes on one or many hosts, behind the exact
``RunEngine.map`` contract every campaign already uses.  Reports stay
byte-identical from 1 local worker to N remote hosts because all
campaign state (queue, leases, the one artifact store, matrix-order
reduce) lives on the coordinator's host and workers are stateless
executors of pure runs.  See ``docs/fleet.md`` for the protocol, failure semantics
and the determinism argument.
"""

from repro.fleet.coordinator import Coordinator, FleetError
from repro.fleet.engine import FleetEngine
from repro.fleet.protocol import (
    FrameSocket,
    ProtocolError,
    connect,
    fn_reference,
    resolve_fn,
)
from repro.fleet.worker import serve

__all__ = [
    "Coordinator",
    "FleetEngine",
    "FleetError",
    "FrameSocket",
    "ProtocolError",
    "connect",
    "fn_reference",
    "resolve_fn",
    "serve",
]
