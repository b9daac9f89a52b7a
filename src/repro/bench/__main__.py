"""Command-line figure regeneration: ``python -m repro.bench``.

Examples::

    python -m repro.bench 5a                 # Figure 5, panel (a)
    python -m repro.bench 6b --reps 5        # more repetitions
    python -m repro.bench 7c --csv out.csv   # export the series
    python -m repro.bench all                # every panel (slow)
    python -m repro.bench all --jobs 4       # loopback fleet, 4 workers

Runs execute through :mod:`repro.bench.parallel`: ``--jobs`` (or
``REPRO_BENCH_JOBS``) sets the worker count — ``N > 1`` runs on a
loopback fleet of ``N`` worker subprocesses — and results are memoized
in a content-addressed on-disk cache unless ``--no-cache`` (or
``REPRO_BENCH_CACHE=0``) is given.  The measured report on **stdout** is
byte-identical for every jobs/cache setting; host-side execution stats
(wall clock, cache hits) print on **stderr**.

Host speed (fast vs reference interpreter, serial vs fleet) is measured
by ``python3 perfbench/run.py --workload fig-sweep --trace 1``, not here.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figures import (
    FigurePanel,
    all_panels,
    bench_reps,
    bench_scale,
    run_panel,
)
from repro.bench.parallel import RunEngine
from repro.fleet.cli import (
    _positive_int,
    add_engine_args,
    engine_from_args,
)
from repro.bench.report import (
    panel_json,
    render_engine_stats,
    render_panel,
    write_csv,
)


def _parse_panel(text: str) -> FigurePanel:
    text = text.strip().lower()
    if len(text) != 2 or text[0] not in "5678" or text[1] not in "abc":
        raise argparse.ArgumentTypeError(
            f"expected a figure panel like '5a' or '8c', got {text!r}"
        )
    return FigurePanel(int(text[0]), text[1])


def _observe_panel(panel: FigurePanel, args, engine: RunEngine) -> None:
    """``--profile``/``--trace-out``: observability capture of the
    panel's rollback cell, cached through the same run engine."""
    from repro.obs.capture import ObsSpec, capture_with_engine
    from repro.obs.export import render_profile_dict

    spec = ObsSpec(
        scenario=f"fig{panel.figure}{panel.panel}",
        mode="rollback",
        seed=args.seed,
    )
    artifact = capture_with_engine(spec, engine=engine)
    tag = f"[{panel.figure}{panel.panel}]"
    if args.profile:
        profile = render_profile_dict(
            artifact["profile"], artifact["clock"]
        )
        print(f"{tag} cycle profile (mode=rollback):", file=sys.stderr)
        print(profile, file=sys.stderr)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(artifact["chrome_json"])
        print(
            f"{tag} chrome trace written to {args.trace_out} "
            "(open at https://ui.perfetto.dev)",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figure panels.",
    )
    parser.add_argument(
        "panel",
        help="figure panel (e.g. 5a, 6b, 8c) or 'all'",
    )
    parser.add_argument(
        "--reps", type=_positive_int, default=None,
        help="paired-seed repetitions (default REPRO_BENCH_REPS or 2)",
    )
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--csv", metavar="PATH",
                        help="also write the series to a CSV file")
    parser.add_argument("--json", action="store_true",
                        help="print JSON instead of the table/chart")
    parser.add_argument(
        "--profile", action="store_true",
        help="after the panel report, print a cycle profile of the "
             "panel's rollback cell (see repro.obs) to stderr",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="export a Perfetto-openable Chrome trace of the panel's "
             "rollback cell to PATH (implies an obs capture; cached "
             "through the same engine as the benchmark runs)",
    )
    add_engine_args(parser)
    args = parser.parse_args(argv)

    try:
        bench_scale()  # reject a bad value before any run starts
        if args.reps is None:
            args.reps = bench_reps()
    except ValueError as exc:
        parser.error(str(exc))

    panels = (
        all_panels() if args.panel == "all"
        else [_parse_panel(args.panel)]
    )
    if (args.profile or args.trace_out) and len(panels) > 1:
        parser.error("--profile/--trace-out need a single panel, not 'all'")
    with engine_from_args(args) as engine:
        for panel in panels:
            result = run_panel(
                panel, repetitions=args.reps, seed=args.seed, engine=engine
            )
            if args.json:
                print(panel_json(result))
            else:
                print(render_panel(result))
            # Execution stats go to stderr: stdout must stay
            # byte-identical across jobs/cache/fleet settings (the
            # determinism contract).
            if result.stats is not None:
                stats = render_engine_stats(result.stats)
                print(f"[{panel.figure}{panel.panel}] {stats}",
                      file=sys.stderr)
            if args.csv:
                write_csv(result, args.csv)
                print(f"series written to {args.csv}", file=sys.stderr)
            if args.profile or args.trace_out:
                _observe_panel(panel, args, engine)
        if len(panels) > 1:
            print(f"[total] {engine.stats.render()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
