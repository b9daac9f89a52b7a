"""The guest-side thread-pool server.

:func:`build_server` compiles a :class:`ServerConfig` into one guest class
(``Server``) plus a spawn plan:

* per SLA tier, one **generator** thread replays that tier's precomputed
  arrival stream — sleep the next inter-arrival gap, then (under the
  tier's queue lock) either *admit* the request into a bounded ring
  buffer or *shed* it when the queue is over the tier's shed depth or the
  host-side storm detector has raised the ``overload`` flag;
* per tier, ``workers`` **worker** threads at the tier's priority block
  on the queue, dequeue a request id, and either *retry* it (deadline
  passed: exponential backoff ``backoff << attempt`` plus precomputed
  jitter, then re-enqueue with a fresh deadline — until the retry budget
  is spent and the request is *dropped*), or *service* it: a mixed
  read/write transaction over one of ``locks`` shared data locks.

Everything observable — latency samples, shed/timeout/retry/drop/complete
counters — lives in guest statics, written through ordinary barriered
bytecode, so the whole server is transparent to rollback: a revoked
enqueue, dequeue or transaction replays exactly once.

The data plane is where priority inversion lives: a low-tier worker
holding a hot data lock can block a high-tier worker while mid-tier
workers stay runnable.  The modified VMs bound that inversion; the
reports in :mod:`repro.server.report` make the per-tier cost visible.

Request attributes come from :mod:`repro.server.arrivals` streams keyed
only by ``(seed, tier name)`` — guest code draws no randomness — so the
workload is bit-identical across interpreters and worker fan-out.  A
cell builds them once (:func:`server_streams`) for its program, its
cycle cap and its invariant check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.server import arrivals
from repro.vm.assembler import Asm
from repro.vm.classfile import ClassDef, FieldDef, THROWABLE
from repro.vm.guestlib import (
    RingQueueFields,
    emit_await_item_or_close,
    emit_cache_queue,
    emit_close,
    emit_dequeue,
    emit_elem,
    emit_elem_inc,
    emit_enqueue,
)
from repro.bench.workloads import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM

#: the guest class every server program is compiled into
SERVER_CLASS = "Server"

#: per-tier counter statics (arrays indexed by tier id)
COUNTER_FIELDS = (
    "shed", "timeouts", "retries", "exhausted", "completed", "errors",
)

#: per-tier config statics (arrays indexed by tier id)
_CONFIG_FIELDS = ("shedd", "tmo", "maxr", "bk")

#: per-request statics (arrays of per-tier arrays indexed by request id)
_REQUEST_FIELDS = (
    "gaps", "arrtime", "deadline", "attempts", "lat", "lockidx",
    "iswrite", "svc", "jitter",
)


@dataclass(frozen=True)
class TierSpec:
    """One SLA class: an arrival process plus a worker pool."""

    name: str
    #: scheduler priority of this tier's workers (higher = more urgent SLA)
    priority: int
    #: open-system arrivals in this tier's stream
    requests: int
    #: mean inter-arrival gap in virtual cycles
    mean_gap: int
    #: arrival process kind — see :data:`repro.server.arrivals.ARRIVAL_KINDS`
    arrival: str = "poisson"
    #: worker threads serving this tier's queue
    workers: int = 2
    #: percent of requests that are read-modify-write transactions
    write_pct: int = 50
    #: mean critical-section loop iterations per request
    svc_iters: int = 24
    #: heavy-tailed service demands (elephant transactions)
    heavy_service: bool = False
    #: request deadline in virtual cycles from admission
    timeout: int = 60_000
    #: retry budget per request before it is dropped
    max_retries: int = 3
    #: base backoff in cycles; attempt ``a`` sleeps ``backoff << (a-1)``
    backoff: int = 2_000
    #: upper bound of the per-attempt seeded jitter added to the backoff
    jitter: int = 1_000
    #: admission control: shed arrivals once queue depth reaches this
    shed_depth: int = 64

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"tier {self.name}: needs at least 1 request")
        if self.workers < 1:
            raise ValueError(f"tier {self.name}: needs at least 1 worker")
        if self.mean_gap < 1 or self.timeout < 1:
            raise ValueError(f"tier {self.name}: gaps/timeouts must be >= 1")
        if self.max_retries < 0 or self.backoff < 1:
            raise ValueError(f"tier {self.name}: bad retry policy")
        if self.shed_depth < 1:
            raise ValueError(f"tier {self.name}: shed_depth must be >= 1")
        if self.arrival not in arrivals.ARRIVAL_KINDS:
            raise ValueError(
                f"tier {self.name}: unknown arrival kind {self.arrival!r}"
            )


@dataclass(frozen=True)
class ServerConfig:
    """A complete server shape: tiers plus the shared data plane."""

    name: str
    tiers: tuple[TierSpec, ...]
    #: shared data locks (the contention focus of the data plane)
    locks: int = 4
    #: cells per data lock's array
    cells: int = 16
    #: percent of requests targeting the hot lock (index 0)
    hot_lock_pct: int = 60
    #: priority of the arrival generators (must outrank every worker so
    #: admission decisions happen promptly under load)
    generator_priority: int = 12
    scheduler: str = "priority"
    #: abort-storm detector: window length in virtual cycles
    storm_window: int = 20_000
    #: revocations per window that open the overload gate
    storm_enter: int = 12
    #: revocations per window below which the gate closes again
    storm_exit: int = 2
    #: sites demoted down the degradation ladder per storm window
    storm_escalations: int = 1

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("server config needs at least one tier")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names in {names}")
        if self.locks < 1 or self.cells < 1:
            raise ValueError("need at least one data lock and one cell")
        if any(t.priority >= self.generator_priority for t in self.tiers):
            raise ValueError("generators must outrank every worker tier")
        if self.storm_exit > self.storm_enter:
            raise ValueError("storm_exit must not exceed storm_enter")

    @property
    def total_requests(self) -> int:
        return sum(t.requests for t in self.tiers)

    @property
    def total_threads(self) -> int:
        return sum(1 + t.workers for t in self.tiers)

    def scaled(self, requests: int) -> "ServerConfig":
        """This config with tier request counts rescaled proportionally
        so the total is (approximately) ``requests``."""
        if requests < len(self.tiers):
            raise ValueError("need at least one request per tier")
        total = self.total_requests
        tiers = tuple(
            TierSpec(**{
                **{f.name: getattr(t, f.name) for f in _tier_fields()},
                "requests": max(1, t.requests * requests // total),
            })
            for t in self.tiers
        )
        return ServerConfig(**{
            **{f.name: getattr(self, f.name) for f in _config_fields()},
            "tiers": tiers,
        })


def _tier_fields():
    from dataclasses import fields as dc_fields

    return dc_fields(TierSpec)


def _config_fields():
    from dataclasses import fields as dc_fields

    return dc_fields(ServerConfig)


@dataclass(frozen=True)
class TierStreams:
    """The host-precomputed request streams of one tier.  Tuples, so a
    stream shared through :func:`server_streams` cannot be mutated."""

    gaps: tuple[int, ...] = ()
    svc: tuple[int, ...] = ()
    lockidx: tuple[int, ...] = ()
    iswrite: tuple[int, ...] = ()
    jitter: tuple[int, ...] = ()


def tier_streams(config: ServerConfig, tier: TierSpec,
                 seed: int) -> TierStreams:
    """All request streams for one tier — a pure function of
    ``(seed, tier.name)`` plus the static config, independent of thread
    counts, worker fan-out and interpreter choice."""
    return TierStreams(
        gaps=tuple(arrivals.arrival_gaps(
            tier.arrival, arrivals.stream_rng(seed, "gaps", tier.name),
            tier.requests, tier.mean_gap,
        )),
        svc=tuple(arrivals.service_demands(
            arrivals.stream_rng(seed, "svc", tier.name),
            tier.requests, tier.svc_iters, heavy=tier.heavy_service,
        )),
        lockidx=tuple(arrivals.lock_targets(
            arrivals.stream_rng(seed, "lock", tier.name),
            tier.requests, config.locks, config.hot_lock_pct,
        )),
        iswrite=tuple(arrivals.write_flags(
            arrivals.stream_rng(seed, "write", tier.name),
            tier.requests, tier.write_pct,
        )),
        jitter=tuple(arrivals.retry_jitter(
            arrivals.stream_rng(seed, "jitter", tier.name),
            tier.requests, tier.max_retries, tier.jitter,
        )),
    )


@functools.lru_cache(maxsize=4)
def server_streams(config: ServerConfig,
                   seed: int) -> tuple[TierStreams, ...]:
    """Every tier's streams, built once per ``(config, seed)``: a cell's
    program, cycle cap and invariant check all read this one copy."""
    return tuple(tier_streams(config, t, seed) for t in config.tiers)


_QUEUES = RingQueueFields(SERVER_CLASS)


def _emit_generate(config: ServerConfig) -> Asm:
    """``generate(tier)`` — replay one tier's arrival stream."""
    cls = SERVER_CLASS
    g = Asm("generate", argc=1)
    tier = g.arg(0)
    lock, buf, cap = emit_cache_queue(g, _QUEUES, tier)
    gaps = g.local()
    arrt = g.local()
    dl = g.local()
    g.getstatic(cls, "gaps").load(tier).aload().store(gaps)
    g.getstatic(cls, "arrtime").load(tier).aload().store(arrt)
    g.getstatic(cls, "deadline").load(tier).aload().store(dl)
    tmo = g.local()
    shedd = g.local()
    emit_elem(g, cls, "tmo", tier).store(tmo)
    emit_elem(g, cls, "shedd", tier).store(shedd)
    i = g.local()
    now = g.local()

    def over_capacity() -> None:
        # count >= shed_depth  ||  overload gate raised
        emit_elem(g, cls, _QUEUES.count, tier)
        g.load(shedd).ge()
        g.getstatic(cls, "overload").const(0).ne()
        g.or_()

    def admit() -> None:
        g.time().store(now)
        g.load(arrt).load(i).load(now).astore()
        g.load(dl).load(i).load(now).load(tmo).add().astore()
        emit_enqueue(g, _QUEUES, tier, buf, cap, i)
        g.load(lock).notifyall()

    def arrival() -> None:
        g.load(gaps).load(i).aload().sleep()
        g.load(lock)
        with g.sync():
            g.if_then(
                over_capacity,
                lambda: emit_elem_inc(g, cls, "shed", tier),
                admit,
            )

    def stream() -> None:
        g.for_range(i, lambda: g.load(gaps).arraylen(), arrival)

    def close_queue() -> None:
        # even if the generator dies, workers must be released
        g.load(lock)
        with g.sync():
            emit_close(g, _QUEUES, tier, lock)

    g.try_(stream, finally_=close_queue)
    g.ret()
    return g


def _emit_work(config: ServerConfig) -> Asm:
    """``work(tier)`` — one worker: dequeue, retry-or-serve, repeat."""
    cls = SERVER_CLASS
    w = Asm("work", argc=1)
    tier = w.arg(0)
    lock, buf, cap = emit_cache_queue(w, _QUEUES, tier)
    arrt = w.local()
    dl = w.local()
    atts = w.local()
    lat = w.local()
    lx = w.local()
    isw = w.local()
    svc = w.local()
    jit = w.local()
    for slot, name in (
        (arrt, "arrtime"), (dl, "deadline"), (atts, "attempts"),
        (lat, "lat"), (lx, "lockidx"), (isw, "iswrite"), (svc, "svc"),
        (jit, "jitter"),
    ):
        w.getstatic(cls, name).load(tier).aload().store(slot)
    tmo = w.local()
    maxr = w.local()
    bk = w.local()
    emit_elem(w, cls, "tmo", tier).store(tmo)
    emit_elem(w, cls, "maxr", tier).store(maxr)
    emit_elem(w, cls, "bk", tier).store(bk)
    rid = w.local()
    now = w.local()
    att = w.local()
    idx = w.local()
    m = w.local()
    k = w.local()
    acc = w.local()
    cellarr = w.local()
    stop = w.local()
    w.const(0).store(stop)
    w.const(0).store(acc)

    def fetch() -> None:
        w.const(-1).store(rid)
        w.load(lock)
        with w.sync():
            emit_await_item_or_close(w, _QUEUES, tier, lock)
            w.if_then(
                lambda: (
                    emit_elem(w, cls, _QUEUES.count, tier),
                    w.const(0).gt(),
                ),
                lambda: emit_dequeue(w, _QUEUES, tier, buf, cap, rid),
                lambda: w.const(1).store(stop),
            )

    def requeue() -> None:
        w.load(lock)
        with w.sync():
            w.time().store(now)
            w.load(dl).load(rid).load(now).load(tmo).add().astore()
            emit_enqueue(w, _QUEUES, tier, buf, cap, rid)
            w.load(lock).notifyall()

    def backoff_sleep() -> None:
        # backoff << (attempt - 1), plus the request's seeded jitter
        w.load(bk).load(att).const(1).sub().shl()
        w.load(jit)
        w.load(rid).load(maxr).mul().load(att).const(1).sub().add()
        w.aload().add().sleep()

    def timed_out() -> None:
        emit_elem_inc(w, cls, "timeouts", tier)
        w.load(atts).load(rid).aload().const(1).add().store(att)
        w.load(atts).load(rid).load(att).astore()
        w.if_then(
            lambda: w.load(att).load(maxr).gt(),
            lambda: emit_elem_inc(w, cls, "exhausted", tier),
            lambda: (
                emit_elem_inc(w, cls, "retries", tier),
                backoff_sleep(),
                requeue(),
            ),
        )

    def write_txn() -> None:
        w.load(cellarr).load(k).const(config.cells).mod()
        w.load(cellarr).load(k).const(config.cells).mod().aload()
        w.const(1).add().astore()

    def read_txn() -> None:
        w.load(acc)
        w.load(cellarr).load(k).const(config.cells).mod().aload()
        w.add().store(acc)

    def serve() -> None:
        w.load(lx).load(rid).aload().store(idx)
        w.load(svc).load(rid).aload().store(m)
        w.getstatic(cls, "dlocks").load(idx).aload()
        with w.sync():
            w.getstatic(cls, "cells").load(idx).aload().store(cellarr)
            w.if_then(
                lambda: (w.load(isw).load(rid).aload(), w.const(0).ne()),
                lambda: w.for_range(k, lambda: w.load(m), write_txn),
                lambda: w.for_range(k, lambda: w.load(m), read_txn),
            )
        # commit point: latency sample + completion (atomic straight-line)
        w.load(lat).load(rid)
        w.time().load(arrt).load(rid).aload().sub()
        w.astore()
        emit_elem_inc(w, cls, "completed", tier)

    def handle() -> None:
        w.time().store(now)
        w.if_then(
            lambda: w.load(now).load(dl).load(rid).aload().gt(),
            timed_out,
            serve,
        )

    def iteration() -> None:
        fetch()
        w.if_then(lambda: w.load(rid).const(0).ge(), handle)

    def armored() -> None:
        # a poisoned request must not kill the worker; the errors counter
        # tells the report to relax conservation invariants
        w.try_(
            iteration,
            catches=[(
                THROWABLE,
                lambda: (w.pop(), emit_elem_inc(w, cls, "errors", tier)),
            )],
        )

    w.while_(lambda: w.load(stop).const(0).eq(), armored)
    w.ret()
    return w


def build_server(config: ServerConfig, seed: int) -> Workload:
    """Compile ``config`` into a guest program + spawn plan.

    ``seed`` keys the arrival/service/jitter streams (use the run's VM
    seed).  The returned :class:`~repro.bench.workloads.Workload` installs
    like any other: ``workload.install(vm)``.
    """
    streams = server_streams(config, seed)
    classdef = ClassDef(
        SERVER_CLASS,
        fields=(
            _QUEUES.field_defs()
            + [
                FieldDef(name, "ref", is_static=True)
                for name in _REQUEST_FIELDS + COUNTER_FIELDS + _CONFIG_FIELDS
            ]
            + [
                FieldDef("dlocks", "ref", is_static=True),
                FieldDef("cells", "ref", is_static=True),
                FieldDef("overload", "int", is_static=True),
            ]
        ),
    )
    classdef.add_method(_emit_generate(config).build())
    classdef.add_method(_emit_work(config).build())

    def setup(vm: "JVM") -> None:
        ntiers = len(config.tiers)
        # bounded rings: occupancy can never exceed the tier's request
        # count (a request is re-enqueued only after being dequeued)
        _QUEUES.setup(vm, [t.requests + 1 for t in config.tiers])

        def put_tier_arrays(name: str, per_tier: list[list[int]]) -> None:
            outer = vm.new_array(ntiers)
            for ti, vals in enumerate(per_tier):
                inner = vm.new_array(len(vals), 0)
                for j, v in enumerate(vals):
                    inner.put(j, v)
                outer.put(ti, inner)
            vm.set_static(SERVER_CLASS, name, outer)

        put_tier_arrays("gaps", [s.gaps for s in streams])
        put_tier_arrays("svc", [s.svc for s in streams])
        put_tier_arrays("lockidx", [s.lockidx for s in streams])
        put_tier_arrays("iswrite", [s.iswrite for s in streams])
        put_tier_arrays("jitter", [s.jitter for s in streams])
        zeros = [[0] * t.requests for t in config.tiers]
        put_tier_arrays("arrtime", zeros)
        put_tier_arrays("deadline", zeros)
        put_tier_arrays("attempts", zeros)
        put_tier_arrays("lat", [[-1] * t.requests for t in config.tiers])
        for name in COUNTER_FIELDS:
            vm.set_static(SERVER_CLASS, name, vm.new_array(ntiers, 0))
        for name, values in (
            ("shedd", [t.shed_depth for t in config.tiers]),
            ("tmo", [t.timeout for t in config.tiers]),
            ("maxr", [t.max_retries for t in config.tiers]),
            ("bk", [t.backoff for t in config.tiers]),
        ):
            arr = vm.new_array(ntiers, 0)
            for ti, v in enumerate(values):
                arr.put(ti, v)
            vm.set_static(SERVER_CLASS, name, arr)
        dlocks = vm.new_array(config.locks)
        cells = vm.new_array(config.locks)
        for li in range(config.locks):
            dlocks.put(li, vm.new_object(SERVER_CLASS))
            cells.put(li, vm.new_array(config.cells, 0))
        vm.set_static(SERVER_CLASS, "dlocks", dlocks)
        vm.set_static(SERVER_CLASS, "cells", cells)
        vm.set_static(SERVER_CLASS, "overload", 0)

    spawns: list[tuple[str, list, int, str]] = []
    for ti, t in enumerate(config.tiers):
        spawns.append(
            ("generate", [ti], config.generator_priority, f"{t.name}-gen")
        )
        spawns.extend(
            ("work", [ti], t.priority, f"{t.name}-w{k}")
            for k in range(t.workers)
        )
    return Workload(
        name=f"server-{config.name}",
        classdef=classdef,
        setup=setup,
        spawns=spawns,
    )


def expected_cycle_cap(config: ServerConfig, seed: int) -> int:
    """A generous deterministic ``max_cycles`` bound for one run: the
    arrival span plus every request's worst-case service and retry cost,
    tripled.  Hitting it means the run livelocked, not that the budget
    was tight."""
    streams = server_streams(config, seed)
    span = max(sum(s.gaps) for s in streams)
    work = 0
    for t, s in zip(config.tiers, streams):
        per_req = 400 + 12 * (sum(s.svc) // max(1, len(s.svc)))
        retry_cost = sum(
            (t.backoff << a) + t.jitter for a in range(t.max_retries)
        )
        work += t.requests * (per_req + retry_cost)
    return 3 * (span + work) + 1_000_000
