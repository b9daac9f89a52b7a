"""Fleet CLI: ``python -m repro.fleet``.

Subcommand::

    worker --connect HOST:PORT [--name NAME] [--no-cache]
        Serve tasks for a coordinator until it says shutdown.  This is
        what ``RunEngine(jobs=N)`` spawns (with ``--no-cache``) and
        what a multi-host run starts on each worker box.

Fleet scaling (serial vs a 2-worker loopback fleet on panel 5a) is
measured by ``python3 perfbench/run.py --workload fig-sweep --trace 1``.
"""

from __future__ import annotations

import argparse
import sys

from repro.fleet.cli import _from_env, parse_hostport


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
    worker.add_argument(
        "--no-cache", action="store_true",
        help="disable the worker-local result cache",
    )

    args = parser.parse_args(argv)

    from repro.bench.parallel import _env_cache
    from repro.fleet.worker import serve

    host, port = parse_hostport(args.connect)
    cache = None if args.no_cache else _from_env(_env_cache)
    served = serve(host, port, name=args.name, cache=cache)
    print(f"fleet worker served {served} task(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
