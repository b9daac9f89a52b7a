"""Command-line schedule checker.

Usage::

    PYTHONPATH=src python -m repro.check --scenario handoff --bound 2
    PYTHONPATH=src python -m repro.check --scenario barge --bound 2 --jobs 4
    PYTHONPATH=src python -m repro.check --scenario handoff --bound 1 \\
        --inject-bug undo-drop --out counterexample.json
    PYTHONPATH=src python -m repro.check --replay counterexample.json
    PYTHONPATH=src python -m repro.check --lockset fig5
    PYTHONPATH=src python -m repro.check --lockset racy-yield

Exit status 0 when the oracle saw no divergence (or the lockset pass saw
no race/inversion), 1 otherwise.  Everything on stdout is a pure function
of the arguments — byte-identical across ``REPRO_BENCH_JOBS`` settings and
cache state; engine statistics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.check.explorer import DEFAULT_MODES, INJECTABLE_BUGS, explore
from repro.check.minimize import minimize_counterexample
from repro.check.oracle import (
    counterexample_payload,
    replay_counterexample,
)
from repro.check.scenarios import scenarios


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="schedule exploration with a cross-policy "
                    "differential oracle",
    )
    parser.add_argument(
        "--scenario", default="handoff",
        help="check scenario to explore (see --list; default handoff)",
    )
    parser.add_argument(
        "--strategy", default="exhaustive",
        choices=("exhaustive", "dpor", "random"),
        help="search strategy: exhaustive bounded-preemption BFS, "
             "dynamic partial-order reduction with sleep sets, or "
             "seeded random walks only (default exhaustive)",
    )
    parser.add_argument(
        "--bound", type=int, default=2,
        help="preemption bound for exhaustive exploration (default 2; "
             "ignored by --strategy dpor)",
    )
    parser.add_argument(
        "--walks", type=int, default=0,
        help="additional seeded random-walk schedules (default 0)",
    )
    parser.add_argument(
        "--walk-bound", type=int, default=None,
        help="preemption budget for walks (default: same as --bound)",
    )
    parser.add_argument(
        "--modes", default=",".join(DEFAULT_MODES),
        help="comma-separated policies; the first is the reference "
             f"(default {','.join(DEFAULT_MODES)})",
    )
    parser.add_argument(
        "--inject-bug", default=None, choices=INJECTABLE_BUGS,
        help="enable a seeded defect so the oracle has something to find",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="skip ddmin minimization of the first divergence",
    )
    parser.add_argument(
        "--out", default="check-counterexample.json",
        help="where to write the counterexample on divergence",
    )
    parser.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay a serialized counterexample instead of exploring",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with --replay: also re-run the minimized schedule with "
             "tracing/profiling on and write a Perfetto-openable Chrome "
             "trace to PATH (see repro.obs)",
    )
    parser.add_argument(
        "--trace-mode", default=None, metavar="MODE",
        help="policy to trace with --trace-out (default: the "
             "counterexample's reference mode)",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="with --replay: open the counterexample in the time-travel "
             "debugger (repro.obs.debug) after replaying",
    )
    parser.add_argument(
        "--debug-seek", type=int, default=None, metavar="CYCLE",
        help="with --replay --debug: position at virtual cycle CYCLE "
             "instead of the start",
    )
    parser.add_argument(
        "--debug-state", action="store_true",
        help="with --replay --debug: print the inspector state and exit "
             "(headless; no REPL)",
    )
    parser.add_argument(
        "--lockset", default=None, metavar="TARGET",
        help="run the Eraser-style lockset pass over TARGET (a scenario "
             "name, or 'fig5' for the micro-benchmark) instead of "
             "exploring",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    from repro.fleet.cli import add_engine_args

    add_engine_args(parser)
    return parser


def _cmd_list() -> int:
    for name, scenario in sorted(scenarios().items()):
        print(f"{name}: {scenario.description}")
    return 0


def _cmd_replay(
    path: str,
    trace_out: str | None = None,
    trace_mode: str | None = None,
    debug: bool = False,
    debug_seek: int | None = None,
    debug_state: bool = False,
) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    verdict = replay_counterexample(payload)
    result = verdict["result"]
    print(f"replay: scenario={payload['scenario']} "
          f"schedule={payload['minimized_schedule']}")
    for mode in payload["modes"]:
        print(f"  {mode}: outcome={result['outcomes'][mode]} "
              f"digest={result['digests'][mode]}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    recording = None
    if debug:
        from repro.obs.debug import record_replay

        recording = record_replay(payload, mode=trace_mode)
    if trace_out is not None:
        # a recording's artifact is byte-identical to a capture's, so
        # --debug reuses it instead of replaying a second time
        if recording is not None:
            artifact = recording.artifact
        else:
            from repro.obs.capture import capture_replay

            artifact = capture_replay(payload, mode=trace_mode)
        with open(trace_out, "w", encoding="utf-8") as fh:
            fh.write(artifact["chrome_json"])
        print(
            f"chrome trace of the {artifact['mode']} replay written to "
            f"{trace_out} (open at https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    if recording is not None:
        from repro.obs.debug import DebugSession, render_state, repl

        session = DebugSession(recording)
        if debug_seek is not None:
            session.seek(debug_seek)
        if debug_state:
            print(render_state(session.state()))
        else:
            repl(session)
    if verdict["reproduced"]:
        print("divergence reproduced")
        return 0
    print("divergence did NOT reproduce")
    return 1


def _cmd_lockset(target: str) -> int:
    if target == "fig5":
        from repro.check.lockset import run_lockset_fig5

        report = run_lockset_fig5()
    else:
        from repro.check.lockset import run_lockset_scenario

        report = run_lockset_scenario(target)
    print(json.dumps(report, indent=2, sort_keys=True))
    bad = len(report["races"]) + len(report["lock_order_inversions"])
    if bad:
        print(f"FAIL: {len(report['races'])} race(s), "
              f"{len(report['lock_order_inversions'])} lock-order "
              "inversion(s)", file=sys.stderr)
        return 1
    print("OK: no races, no lock-order inversions", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        return _cmd_list()
    if args.replay is not None:
        return _cmd_replay(
            args.replay, args.trace_out, args.trace_mode,
            debug=args.debug, debug_seek=args.debug_seek,
            debug_state=args.debug_state,
        )
    if args.lockset is not None:
        return _cmd_lockset(args.lockset)

    from repro.fleet.cli import engine_from_args

    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    with engine_from_args(args) as engine:
        if args.strategy == "dpor":
            from repro.check.dpor import explore_dpor

            report = explore_dpor(
                args.scenario,
                modes=modes,
                inject=args.inject_bug,
                engine=engine,
            )
        else:
            report = explore(
                args.scenario,
                args.bound,
                modes=modes,
                inject=args.inject_bug,
                walks=args.walks if args.strategy == "exhaustive"
                else (args.walks or 64),
                walk_bound=args.walk_bound,
                engine=engine,
                exhaustive=args.strategy == "exhaustive",
            )
    bound_part = "" if report.bound < 0 else f" bound={report.bound}"
    print(f"repro.check scenario={report.scenario} "
          f"strategy={report.strategy}{bound_part} "
          f"modes={','.join(report.modes)}"
          + (f" inject={args.inject_bug}" if args.inject_bug else ""))
    print(f"schedules: {report.schedules} searched + {report.walks} "
          f"walks ({report.distinct_schedules} distinct), "
          f"max {report.max_decisions} decisions")
    print(f"reduction: {report.reduction_line()}")
    print(f"states: {report.distinct_states} distinct final state(s) "
          f"under {report.modes[0]}")
    for mode in report.modes:
        summary = ", ".join(
            f"{outcome}={count}"
            for outcome, count in report.policy_outcomes[mode].items()
        )
        print(f"  {mode}: {summary}")
    print(f"divergences: {len(report.divergences)}")
    print(f"repro.check {report.reduction_line()}", file=sys.stderr)
    print(engine.stats.render(), file=sys.stderr)
    for line in engine.stats.render_workers():
        print(line, file=sys.stderr)
    if not report.divergences:
        print("OK: all explored schedules are policy-equivalent")
        return 0

    first = report.divergences[0]
    for problem in first["problems"]:
        print(f"  problem: {problem}")
    schedule = list(first["schedule"])
    minimized = schedule
    if not args.no_minimize:
        minimized = minimize_counterexample(
            args.scenario, schedule, modes=modes, inject=args.inject_bug,
        )
    payload = counterexample_payload(
        scenario=args.scenario,
        bound=args.bound,
        modes=modes,
        inject=args.inject_bug,
        result=first,
        minimized=minimized,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"counterexample: schedule of {len(schedule)} choices "
          f"minimized to {len(minimized)}, written to {args.out}")
    print(f"FAIL: {len(report.divergences)} divergent schedule(s)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
