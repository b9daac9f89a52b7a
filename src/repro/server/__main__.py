"""Command-line server plane: ``python -m repro.server``.

Examples::

    python -m repro.server --list
    python -m repro.server --preset baseline
    python -m repro.server --preset storm --seeds 3 --json
    python -m repro.server --preset soak --requests 100000 --chaos
    python -m repro.server --preset chaos-smoke --chaos --jobs 4
    python -m repro.server --preset baseline --compare
    python -m repro.server --preset chaos-smoke --inject-bug undo-drop
    python -m repro.server --preset storm --chaos --replay 2

When a sweep fails, one ``REPLAY:`` line per offending cell goes to
stderr — a copy-pastable command generated from the cell's
:class:`~repro.server.plane.ServerSpec` (every field is a flag; the
sweep index is ``--replay INDEX``), which re-runs exactly that cell
serially and uncached with the same per-cell exit semantics.
``--jobs``/``--seeds``/``--no-cache`` are absent by design: each cell
is a pure function of its spec.

Cells fan out through the bench :class:`~repro.bench.parallel.RunEngine`
(``--jobs`` / ``REPRO_BENCH_JOBS``; ``N > 1`` is a loopback fleet of
``N`` workers) with content-addressed caching.
Stdout is a pure function of the arguments — byte-identical across
``--interp``, worker counts and cache state; engine statistics go to
stderr.  Exit status is 0 when every run held its invariants — except
under ``--inject-bug``, the negative control, where a *detected*
violation is the passing outcome.

``--compare`` adds an unmodified-VM baseline run per seed and reports
the paper's normalized elapsed-time metric (mode cycles / unmodified
cycles) per seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fleet.cli import (
    add_engine_args,
    engine_from_args,
    replay_line,
)
from repro.server.plane import ServerSpec, run_server_cell
from repro.server.presets import PRESETS, get_preset
from repro.server.report import render_report


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="open-system server workload plane: seeded arrivals, "
                    "SLA tiers, overload protection, chaos soak",
    )
    parser.add_argument(
        "--preset", default="baseline",
        help="server shape (see --list; default baseline)",
    )
    parser.add_argument(
        "--requests", type=int, default=0,
        help="rescale tier request counts to this total (0 = preset)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1,
        help="sweep indices 1..N (default 1)",
    )
    parser.add_argument(
        "--mode", default="rollback",
        choices=["unmodified", "rollback", "inheritance", "ceiling"],
        help="VM policy mode (default rollback)",
    )
    parser.add_argument(
        "--interp", default="fast", choices=["fast", "reference"],
        help="interpreter engine (reports are identical either way)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="arm the chaos fault plan with the invariant auditor",
    )
    parser.add_argument(
        "--inject-bug", default="", choices=["", "undo-drop"],
        help="negative control: arm a genuine seeded defect; exit 0 "
             "only if the run DETECTS it",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="add an unmodified baseline per seed and report the "
             "paper's normalized elapsed-time metric",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attach the cycle profiler to every run",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable report instead of tables",
    )
    parser.add_argument(
        "--replay", type=int, default=None, metavar="INDEX",
        help="re-run exactly one sweep-index cell serially, no cache, "
             "no fan-out, and print its report (the reproduction path "
             "printed on stderr when a sweep fails)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list preset names and exit",
    )
    add_engine_args(parser)
    return parser


def _cmd_list() -> int:
    for name in sorted(PRESETS):
        config = get_preset(name)
        print(
            f"{name}: {len(config.tiers)} tiers, "
            f"{config.total_requests} requests, "
            f"{config.total_threads} threads"
        )
    return 0


def _spec(args, index: int) -> ServerSpec:
    """The ServerSpec of sweep cell ``index`` under these arguments."""
    return ServerSpec(
        preset=args.preset,
        requests=args.requests,
        seed_index=index,
        mode=args.mode,
        interp=args.interp,
        chaos=args.chaos,
        inject_bug=args.inject_bug,
        profile=args.profile,
    )


def run_sweep(args) -> dict:
    """Run the sweep and assemble the aggregate report (pure function of
    the arguments; fan-out and caching are invisible in the output)."""
    specs = [_spec(args, index) for index in range(1, args.seeds + 1)]
    if args.compare:
        specs += [
            ServerSpec(
                preset=args.preset,
                requests=args.requests,
                seed_index=index,
                mode="unmodified",
                interp=args.interp,
                profile=args.profile,
            )
            for index in range(1, args.seeds + 1)
        ]
    with engine_from_args(args) as engine:
        cells = engine.map(run_server_cell, specs)
    print(engine.stats.render(), file=sys.stderr)
    for line in engine.stats.render_workers():
        print(line, file=sys.stderr)
    runs = cells[: args.seeds]
    report = {
        "preset": args.preset,
        "requests": args.requests or None,
        "seeds": args.seeds,
        "mode": args.mode,
        "chaos": args.chaos,
        "inject_bug": args.inject_bug,
        "runs": runs,
        "violations": sum(len(r["violations"]) for r in runs),
    }
    if args.compare:
        baselines = cells[args.seeds:]
        report["normalized_elapsed"] = {
            run["seed"]: (
                f"{run['elapsed_cycles'] / base['elapsed_cycles']:.4f}"
                if base["elapsed_cycles"]
                else "inf"
            )
            for run, base in zip(runs, baselines)
        }
        report["baseline_runs"] = baselines
    return report


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list:
        return _cmd_list()
    try:
        config = get_preset(args.preset)
    except ValueError as exc:
        parser.error(str(exc))
    if args.requests and args.requests < len(config.tiers):
        parser.error("--requests must cover at least one per tier")
    if args.replay is not None:
        # serial, uncached, single-cell reproduction path: same spec
        # fields as the sweep, same per-cell pass/fail semantics
        run = run_server_cell(_spec(args, args.replay))
        print(json.dumps(run, indent=2, sort_keys=True))
        detected = bool(run["violations"])
        if args.inject_bug:
            return 0 if detected else 1
        return 1 if detected else 0
    report = run_sweep(args)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for run in report["runs"]:
            print(render_report(run))
            print()
        if "normalized_elapsed" in report:
            print("normalized elapsed time vs unmodified baseline:")
            for seed, ratio in report["normalized_elapsed"].items():
                print(f"  {seed}: {ratio}")
        print(
            f"{report['seeds']} run(s), "
            f"{report['violations']} violation(s)"
        )
    # one copy-pastable reproduction command per offending cell: runs
    # that violated invariants — or, under the negative control, runs
    # that failed to detect the seeded defect
    for index, run in enumerate(report["runs"], start=1):
        failed = (
            not run["violations"] if args.inject_bug
            else bool(run["violations"])
        )
        if failed:
            print(
                replay_line(
                    parser.prog, _spec(args, index), f"vm seed {run['seed']}"
                ),
                file=sys.stderr,
            )
    detected = report["violations"] > 0
    if args.inject_bug:
        # negative control: the seeded defect MUST be caught
        if detected:
            print(
                "OK: seeded defect detected by the auditor/invariants",
                file=sys.stderr,
            )
            return 0
        print(
            "FAIL: seeded undo-drop defect went undetected",
            file=sys.stderr,
        )
        return 1
    if detected:
        print(
            f"FAIL: {report['violations']} invariant violation(s)",
            file=sys.stderr,
        )
        return 1
    print("OK: zero invariant violations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
