"""Shared engine CLI plumbing for every campaign CLI.

bench, check, obs, server and the fault campaign take the same flags
(:func:`add_engine_args`), build their engine in one place
(:func:`engine_from_args`) and print a failed cell's one-command
reproduction through :func:`replay_line`::

    --jobs N              1 = serial in-process; N > 1 = a loopback
                          fleet of N worker subprocesses
    --no-cache            skip the on-disk result cache
    --cache-dir DIR       result cache location
    --fleet coordinator   bind --fleet-bind, wait for --fleet-workers
                          external workers, then run the campaign
    --fleet worker        connect to --fleet-connect and serve tasks
                          (the campaign arguments are ignored)

Each flag overrides its ``REPRO_BENCH_*`` environment knob
(:meth:`~repro.bench.parallel.RunEngine.from_env`).  A multi-host run is
"start the coordinator command on one box, start the same command with
``--fleet worker --fleet-connect host:port`` on the others".  Campaign
stdout stays byte-identical to the serial run in every mode — the
engine only changes where the pure runs execute.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Optional

from repro.bench.parallel import (
    ResultCache,
    RunEngine,
    _env_cache,
    _env_jobs,
)

__all__ = [
    "add_engine_args",
    "engine_from_args",
    "parse_hostport",
    "replay_line",
    "run_fleet_worker",
]


def _positive_int(text: str) -> int:
    """argparse type for counts such as ``--jobs``: a whole number >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def add_engine_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine")
    group.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="parallel workers (default REPRO_BENCH_JOBS or cpu count; "
             "1 = serial in-process, N > 1 = a loopback fleet of N "
             "worker subprocesses)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result cache for this invocation",
    )
    group.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result cache location (default REPRO_BENCH_CACHE_DIR or "
             ".repro-bench-cache)",
    )
    group.add_argument(
        "--fleet", default=None, choices=["coordinator", "worker"],
        help="distributed execution: 'coordinator' (bind --fleet-bind, "
             "wait for --fleet-workers external workers) or 'worker' "
             "(serve --fleet-connect; campaign arguments are ignored)",
    )
    group.add_argument(
        "--fleet-bind", default="0.0.0.0:0", metavar="HOST:PORT",
        help="coordinator listen address (default 0.0.0.0:0 — an "
             "ephemeral port, printed on stderr)",
    )
    group.add_argument(
        "--fleet-connect", default=None, metavar="HOST:PORT",
        help="coordinator address a worker should dial",
    )
    group.add_argument(
        "--fleet-workers", type=_positive_int, default=2, metavar="N",
        help="workers a coordinator waits for before starting "
             "(default 2)",
    )


def parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def run_fleet_worker(args: argparse.Namespace) -> int:
    """The ``--fleet worker`` path, shared by every campaign CLI."""
    from repro.fleet.worker import serve

    if not args.fleet_connect:
        print(
            "--fleet worker needs --fleet-connect HOST:PORT",
            file=sys.stderr,
        )
        return 2
    host, port = parse_hostport(args.fleet_connect)
    served = serve(host, port, cache=_cache_from_args(args))
    print(f"fleet worker served {served} task(s)", file=sys.stderr)
    return 0


def _from_env(read):
    """``read()`` of a ``REPRO_BENCH_*`` knob; a bad value exits 2 with
    the :class:`ValueError` naming the variable, like a bad flag."""
    try:
        return read()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cache_from_args(args: argparse.Namespace) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return ResultCache(args.cache_dir)
    return _from_env(_env_cache)


def engine_from_args(args: argparse.Namespace) -> RunEngine:
    """The campaign engine: the ``REPRO_BENCH_*`` knobs, overridden by
    the :func:`add_engine_args` flags.  ``--fleet worker`` is not an
    engine — route it through :func:`run_fleet_worker` first.  The
    caller closes the engine."""
    cache = _cache_from_args(args)
    if args.fleet == "coordinator":
        from repro.fleet.engine import FleetEngine

        host, port = parse_hostport(args.fleet_bind)
        return FleetEngine.coordinate(
            host, port, workers=args.fleet_workers, cache=cache
        )
    jobs = _from_env(_env_jobs) if args.jobs is None else args.jobs
    return RunEngine(jobs=jobs, cache=cache)


def replay_line(prog: str, cell: Any, note: str) -> str:
    """The ``REPLAY:`` line that re-runs ``cell`` through ``prog``.

    ``cell`` is a frozen dataclass whose fields are the CLI's flags:
    each field ``name`` is written as ``--name`` (underscores become
    dashes), except ``seed_index``, which is ``--replay``.  A true bool
    is a bare flag; a false, empty or zero value is left out, so it
    falls back to the flag's default.  Generating the line from the
    cell means a field added later cannot be dropped from it."""
    parts = [f"REPLAY: PYTHONPATH=src {prog}"]
    for f in dataclasses.fields(cell):
        value = getattr(cell, f.name)
        if not value:
            continue
        flag = (
            "--replay" if f.name == "seed_index"
            else "--" + f.name.replace("_", "-")
        )
        parts.append(flag if value is True else f"{flag} {value}")
    return " ".join(parts) + f"  # {note}"
