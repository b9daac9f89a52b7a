"""Fleet CLI: ``python -m repro.fleet``.

Subcommand::

    worker --connect HOST:PORT [--name NAME]
        Serve tasks for a coordinator until it says shutdown.  This is
        the one worker entry point: what ``RunEngine(jobs=N)`` spawns,
        and what serves a ``--fleet coordinator`` campaign.  A worker
        keeps no result store; the coordinator's engine owns the cache.

Fleet scaling (serial vs a 2-worker loopback fleet on panel 5a) is
measured by ``python3 perfbench/run.py --workload fig-sweep --trace 1``.
"""

from __future__ import annotations

import argparse
import sys

from repro.fleet.cli import parse_hostport


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="distributed run fleet: serve tasks as a worker",
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

    args = parser.parse_args(argv)

    from repro.fleet.worker import serve

    host, port = parse_hostport(args.connect)
    served = serve(host, port, name=args.name)
    print(f"fleet worker served {served} task(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
