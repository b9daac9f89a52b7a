"""Command-line observability: ``python -m repro.obs``.

Examples::

    python -m repro.obs --list                         # scenario names
    python -m repro.obs spans   --scenario handoff
    python -m repro.obs profile --scenario fig6b --top 15
    python -m repro.obs profile --scenario server-storm --sites
    python -m repro.obs export  --scenario fig5a --fmt chrome -o t.json
    python -m repro.obs export  --scenario fig6b --fmt folded -o t.folded
    python -m repro.obs summary --scenario medium-inversion
    python -m repro.obs episodes --scenario medium-inversion --compare
    python -m repro.obs debug --scenario server-storm --episode 1 \
        --print-state

Every subcommand runs its scenario through the same capture pipeline
(:mod:`repro.obs.capture`), fanned through the bench
:class:`~repro.bench.parallel.RunEngine` — captures are cached on disk
by content address, so re-rendering a different view of the same run is
a cache hit, not a re-execution.  ``--jobs N`` runs the work on a
loopback fleet of ``N`` workers, and ``--fleet coordinator`` routes it
over a distributed run fleet; every artifact (episodes reports,
checkpoint streams) is byte-identical whichever engine produced it.
Stdout is a pure function of the arguments; engine statistics go to
stderr.

Exported Chrome traces open directly in https://ui.perfetto.dev or
chrome://tracing; virtual cycles appear as microseconds — and
priority-inversion episodes appear as an async ``inversion`` overlay
above the thread tracks.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.workloads import TOOL_SCENARIOS, lookup_scenario
from repro.fleet.cli import (
    add_engine_args,
    engine_from_args,
)
from repro.obs.capture import ObsSpec, capture_with_engine


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="deterministic observability: spans, cycle profiles "
                    "and Perfetto-openable trace exports",
    )
    parser.add_argument(
        "command", nargs="?", default=None,
        choices=["spans", "profile", "export", "summary", "episodes",
                 "debug"],
        help="what to render from the captured run",
    )
    parser.add_argument(
        "--scenario", default=None,
        help="scenario / figure cell / workload name (see --list)",
    )
    parser.add_argument(
        "--mode", default="rollback",
        choices=["unmodified", "rollback", "inheritance", "ceiling"],
        help="VM policy mode (default rollback)",
    )
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument(
        "--interp", default="fast", choices=["fast", "reference"],
        help="interpreter engine (artifacts are identical either way)",
    )
    parser.add_argument(
        "--write-pct", type=int, default=60,
        help="write ratio for figure-cell scenarios (default 60)",
    )
    parser.add_argument(
        "--no-profile", action="store_true",
        help="skip the cycle profiler (spans/exports only)",
    )
    parser.add_argument(
        "--fmt", default="chrome", choices=["chrome", "jsonl", "folded"],
        help="export format (export subcommand; default chrome)",
    )
    parser.add_argument(
        "-o", "--out", default=None, metavar="PATH",
        help="output path (export subcommand; default derived)",
    )
    parser.add_argument(
        "--top", type=int, default=20,
        help="rows in the profile table (default 20)",
    )
    parser.add_argument(
        "--limit", type=int, default=0,
        help="max spans to print (spans subcommand; 0 = all)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print machine-readable JSON instead of tables",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list scenario names and exit",
    )
    parser.add_argument(
        "--sites", action="store_true",
        help="per-site abort/commit statistics table "
             "(profile subcommand)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="episodes subcommand: run all three policies and print the "
             "per-policy inversion table",
    )
    parser.add_argument(
        "--seek", type=int, default=None, metavar="CYCLE",
        help="debug subcommand: position at virtual cycle CYCLE",
    )
    parser.add_argument(
        "--episode", type=int, default=None, metavar="N",
        help="debug subcommand: position at the start of "
             "priority-inversion episode N (1-based)",
    )
    parser.add_argument(
        "--print-state", action="store_true",
        help="debug subcommand: print the inspector state and exit "
             "(headless; no REPL)",
    )
    parser.add_argument(
        "--interval", type=int, default=None, metavar="SLICES",
        help="debug subcommand: scheduler slices between checkpoints",
    )
    add_engine_args(parser)
    return parser


def _cmd_list() -> int:
    for name, scenario in sorted(TOOL_SCENARIOS["obs"].items()):
        kind = "checker scenario: " if scenario.explorable else ""
        print(f"{name}: {kind}{scenario.description}")
    return 0


def _warn_truncation(artifact: dict) -> None:
    """A truncated trace silently lies — make it loud."""
    from repro.core.metrics import metrics_health

    for warning in metrics_health(artifact["metrics"]):
        print(
            "=" * 72 + f"\nWARNING: {warning}\n" + "=" * 72,
            file=sys.stderr,
        )
    summary = artifact["summary"]
    if summary.get("counter_samples_dropped"):
        print(
            f"note: {summary['counter_samples_dropped']} counter "
            "sample(s) beyond the per-track budget were dropped.",
            file=sys.stderr,
        )


def _spec(args, mode: str | None = None) -> ObsSpec:
    """The capture this invocation names, under ``mode`` when given."""
    return ObsSpec(
        scenario=args.scenario,
        mode=mode or args.mode,
        seed=args.seed,
        interp=args.interp,
        profile=not args.no_profile,
        write_pct=args.write_pct,
    )


def _capture(args) -> dict:
    with engine_from_args(args) as engine:
        artifact = capture_with_engine(_spec(args), engine=engine)
    print(engine.stats.render(), file=sys.stderr)
    _warn_truncation(artifact)
    return artifact


def _cmd_spans(args, artifact: dict) -> int:
    if args.json:
        sys.stdout.write(artifact["spans_jsonl"])
        return 0
    from repro.obs.export import render_spans, spans_from_jsonl

    spans = spans_from_jsonl(artifact["spans_jsonl"])
    print(render_spans(spans, limit=args.limit))
    return 0


def _cmd_profile(args, artifact: dict) -> int:
    if args.sites:
        return _cmd_profile_sites(args, artifact)
    profile = artifact["profile"]
    if profile is None:
        print("profile disabled (--no-profile); nothing to show",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(profile, indent=2))
        return 0
    from repro.obs.export import render_profile_dict

    print(render_profile_dict(profile, artifact["clock"], top=args.top))
    return 0


def _cmd_profile_sites(args, artifact: dict) -> int:
    from repro.obs.export import render_sites, site_table, spans_from_jsonl

    rows = site_table(spans_from_jsonl(artifact["spans_jsonl"]))
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(render_sites(rows))
    return 0


def _cmd_episodes(args) -> int:
    from repro.obs.capture import capture_run
    from repro.obs.episodes import (
        build_report,
        policy_table,
        render_report,
        report_bytes,
    )

    modes = (
        ["unmodified", "rollback", "inheritance"]
        if args.compare else [args.mode]
    )
    specs = [_spec(args, mode) for mode in modes]
    with engine_from_args(args) as engine:
        artifacts = engine.map(capture_run, specs)
    print(engine.stats.render(), file=sys.stderr)
    reports = {}
    for spec, artifact in zip(specs, artifacts):
        _warn_truncation(artifact)
        reports[spec.mode] = build_report(artifact)
    if args.compare:
        if args.json:
            doc = {mode: reports[mode] for mode in sorted(reports)}
            sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
            return 0
        print(policy_table(reports))
        return 0
    report = reports[args.mode]
    if args.json:
        sys.stdout.buffer.write(report_bytes(report))
        return 0
    print(render_report(report, top=args.top))
    return 0


def _cmd_debug(args) -> int:
    from repro.obs.debug import (
        DEFAULT_INTERVAL,
        DebugSession,
        record_with_engine,
        render_state,
    )

    with engine_from_args(args) as engine:
        recording = record_with_engine(
            _spec(args), interval=args.interval or DEFAULT_INTERVAL,
            engine=engine,
        )
    print(engine.stats.render(), file=sys.stderr)
    session = DebugSession(recording)
    if args.episode is not None:
        episode = session.seek_episode(args.episode)
        print(
            f"episode {episode['index']}: {episode['thread']} "
            f"(prio {episode['priority']}) blocked on {episode['mon']} "
            f"held by {episode['holder']} "
            f"(prio {episode['holder_priority']}), "
            f"[{episode['start']}, {episode['end']}] "
            f"{episode['cycles']} cycles, "
            f"resolution {episode['resolution']}",
            file=sys.stderr,
        )
    elif args.seek is not None:
        session.seek(args.seek)
    if args.print_state:
        state = session.state()
        if args.json:
            print(json.dumps(state, sort_keys=True))
        else:
            print(render_state(state))
        return 0
    from repro.obs.debug import repl

    return repl(session)


def _cmd_export(args, artifact: dict) -> int:
    fmt = args.fmt
    content = {
        "chrome": artifact["chrome_json"],
        "jsonl": artifact["spans_jsonl"],
        "folded": artifact["folded"],
    }[fmt]
    if fmt == "folded" and not content:
        print("no folded stacks: run without --no-profile",
              file=sys.stderr)
        return 1
    suffix = {"chrome": "trace.json", "jsonl": "spans.jsonl",
              "folded": "folded"}[fmt]
    out = args.out or f"{args.scenario}-{args.mode}.{suffix}"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(content)
    print(f"{fmt} artifact written to {out}", file=sys.stderr)
    if fmt == "chrome":
        print(
            "open it at https://ui.perfetto.dev (or chrome://tracing); "
            "virtual cycles display as microseconds",
            file=sys.stderr,
        )
    print(out)
    return 0


def _cmd_summary(args, artifact: dict) -> int:
    summary = artifact["summary"]
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"scenario {summary['scenario']} mode={summary['mode']} "
          f"interp={summary['interp']} seed={summary['seed']}")
    print(f"outcome {summary['outcome']} after {summary['clock']} "
          f"virtual cycles, {summary['threads']} threads, "
          f"{summary['context_switches']} context switches, "
          f"{summary['revocations']} revocations")
    robustness = summary["robustness"]
    print("robustness: "
          + " ".join(f"{k}={robustness[k]}" for k in sorted(robustness)))
    kinds = ", ".join(
        f"{kind}={count}"
        for kind, count in summary["spans_by_kind"].items()
    )
    print(f"spans: {summary['spans']} ({kinds})")
    trace = summary["trace"]
    print(f"trace: {trace['events']} events, {trace['dropped']} dropped, "
          f"{trace['sink_errors']} sink errors")
    if summary["cycles_by_track"] is not None:
        print("cycles by track:")
        for track, cats in summary["cycles_by_track"].items():
            detail = ", ".join(f"{k}={v}" for k, v in cats.items())
            print(f"  {track:<14} {sum(cats.values()):>12}  ({detail})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        return _cmd_list()
    if args.command is None:
        _parser().error("a subcommand (spans/profile/export/summary/"
                        "episodes/debug) or --list is required")
    if args.scenario is None:
        _parser().error("--scenario is required")
    try:
        lookup_scenario("obs", args.scenario)
    except ValueError as exc:
        _parser().error(str(exc))
    if args.command == "episodes":
        return _cmd_episodes(args)
    if args.command == "debug":
        return _cmd_debug(args)
    artifact = _capture(args)
    return {
        "spans": _cmd_spans,
        "profile": _cmd_profile,
        "export": _cmd_export,
        "summary": _cmd_summary,
    }[args.command](args, artifact)


if __name__ == "__main__":
    raise SystemExit(main())
