"""Fleet CLI: ``python -m repro.fleet``.

Subcommands::

    worker --connect HOST:PORT [--name NAME] [--no-cache]
        Serve tasks for a coordinator until it says shutdown.  This is
        what ``RunEngine(jobs=N)`` spawns (with ``--no-cache``) and
        what a multi-host run starts on each worker box.

    perf [--workers 1,2,4] [--output BENCH_fleet.json] [--reps N]
        Measure fleet scaling of the fig5–8 bench matrix and a DPOR
        campaign across loopback worker counts and write the
        ``repro.bench.fleet-perf/1`` report (see repro.fleet.perf).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fleet.cli import parse_hostport


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="distributed run fleet: workers and scaling perf",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser("worker", help="serve tasks for a coordinator")
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address to dial",
    )
    worker.add_argument(
        "--name", default=None,
        help="worker name in coordinator stats (default host-pid)",
    )
    worker.add_argument(
        "--no-cache", action="store_true",
        help="disable the worker-local result cache",
    )

    perf = sub.add_parser(
        "perf", help="measure fleet scaling (BENCH_fleet.json)"
    )
    perf.add_argument(
        "--workers", default="1,2,4", metavar="N,N,...",
        help="loopback worker counts to sweep (default 1,2,4)",
    )
    perf.add_argument(
        "--output", default="BENCH_fleet.json", metavar="PATH",
        help="report path (default BENCH_fleet.json)",
    )
    perf.add_argument(
        "--reps", type=int, default=2,
        help="bench panel repetitions (default 2)",
    )
    perf.add_argument(
        "--panels", default=None, metavar="5a,6b,...",
        help="bench panels to run (default: the full fig5-8 suite)",
    )
    perf.add_argument(
        "--skip-dpor", action="store_true",
        help="skip the DPOR campaign section",
    )

    args = parser.parse_args(argv)

    if args.command == "worker":
        from repro.bench.parallel import _env_cache
        from repro.fleet.worker import serve

        host, port = parse_hostport(args.connect)
        cache = None if args.no_cache else _env_cache()
        served = serve(host, port, name=args.name, cache=cache)
        print(f"fleet worker served {served} task(s)", file=sys.stderr)
        return 0

    if args.command == "perf":
        from repro.fleet.perf import measure_fleet_perf, write_fleet_perf

        counts = [
            int(n) for n in args.workers.split(",") if n.strip()
        ]
        report = measure_fleet_perf(
            worker_counts=counts,
            repetitions=args.reps,
            panels=args.panels,
            include_dpor=not args.skip_dpor,
            progress=lambda line: print(line, file=sys.stderr),
        )
        write_fleet_perf(report, args.output)
        print(json.dumps(report, indent=2))
        print(f"fleet-perf report written to {args.output}",
              file=sys.stderr)
        return 0

    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":
    raise SystemExit(main())
