"""Seed-sweep fault-injection campaign.

Runs every scenario under a sweep of VM seeds with the post-rollback
invariant auditor enabled, and asserts that **no run ever violates the
rollback contract** — the heap always returns to its pre-section state,
and each workload's guest-level invariant (conserved balances, exact
counters) holds no matter what the fault plane injected.

The report is a pure function of ``(scenario set, seed range)``: two
invocations with the same arguments must print byte-identical output.

Cells fan out across worker processes via :mod:`repro.bench.parallel`
(``--jobs`` / ``REPRO_BENCH_JOBS``); each cell is a pure function of
``(scenario, seed)``, so the report stays byte-identical for any worker
count and completed cells are served from the shared result cache.

Usage::

    PYTHONPATH=src python -m repro.faults.campaign --seeds 25
    PYTHONPATH=src python -m repro.faults.campaign --seeds 25 --jobs 4
    PYTHONPATH=src python -m repro.faults.campaign --seeds 5 --scenario storm-philosophers

Exit status 0 when every run completed with zero violations, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from repro.bench.workloads import (
    TOOL_SCENARIOS,
    Scenario,
    Workload,
    lookup_scenario,
)
from repro.errors import audited_run
from repro.util.rng import sweep_seed
from repro.vm.vmcore import JVM, VMOptions

#: host-time safety valve per run (virtual cycles)
CYCLE_CAP = 40_000_000

#: metrics aggregated into the report (summed over a scenario's seed sweep)
REPORTED_METRICS = (
    "revocation_requests",
    "revocations_completed",
    "revocations_denied_degraded",
    "backoff_windows_granted",
    "degradations_to_inheritance",
    "degradations_to_nonrevocable",
    "starvations_detected",
    "deadlocks_resolved",
    "invariant_checks",
    "invariant_violations",
)


# ------------------------------------------------------- invariant checks
# Each returns a list of violation descriptions (empty = invariant held);
# the campaign rows of :data:`repro.bench.workloads.SCENARIOS` name them.
def check_philosopher_meals(vm: JVM, expected: int) -> list[str]:
    meals = vm.get_static("Philosophers", "meals")
    if meals != expected:
        return [f"meals counter {meals} != expected {expected}"]
    return []


def check_bank_balance(vm: JVM, expected_total: int) -> list[str]:
    balances = vm.get_static("Bank", "balances")
    total = sum(balances.get(i) for i in range(len(balances)))
    if total != expected_total:
        return [f"total balance {total} != expected {expected_total}"]
    return []


def check_buffer_counts(vm: JVM, total: int) -> list[str]:
    produced = vm.get_static("Buffer", "produced")
    consumed = vm.get_static("Buffer", "consumed")
    problems = []
    if produced != total:
        problems.append(f"produced {produced} != expected {total}")
    if consumed != total:
        problems.append(f"consumed {consumed} != expected {total}")
    return problems


def check_spin_counter(vm: JVM, expected: int) -> list[str]:
    spin = vm.get_static("Inversion", "spin")
    if spin != expected:
        return [f"spin counter {spin} != expected {expected}"]
    return []


def check_ring_counter(vm: JVM, expected: int) -> list[str]:
    counter = vm.get_static("DeadlockRing", "counter")
    if counter != expected:
        return [f"ring counter {counter} != expected {expected}"]
    return []


def check_nothing(vm: JVM) -> list[str]:
    return []


# --------------------------------------------------------- server chaos
#: the server-chaos row's arrival-stream seed.  Fixed (not the VM sweep
#: seed) so the invariant check can recompute the expected service
#: demand of every completed write transaction from the config alone.
SERVER_STREAM_SEED = 0x5EED


def server_chaos_config():
    """The open-system server the server-chaos row runs under its chaos
    plan: retries, shedding, abort storms and the degradation ladder all
    engage while the auditor and
    :func:`repro.server.plane.check_server_invariants` watch."""
    from repro.server.workload import ServerConfig, TierSpec

    return ServerConfig(
        name="campaign-server",
        tiers=(
            TierSpec(
                "gold", priority=8, requests=40, mean_gap=1_000,
                arrival="bursty", workers=2, write_pct=80, svc_iters=30,
                timeout=12_000, max_retries=2, backoff=800, jitter=400,
                shed_depth=10,
            ),
            TierSpec(
                "bronze", priority=3, requests=30, mean_gap=1_400,
                arrival="heavy", workers=2, write_pct=80, svc_iters=40,
                heavy_service=True, timeout=16_000, max_retries=2,
                backoff=1_000, jitter=500, shed_depth=8,
            ),
        ),
        locks=2, cells=8, hot_lock_pct=80,
        storm_window=12_000, storm_enter=5, storm_exit=1,
    )


def build_server_chaos() -> Workload:
    from repro.server.workload import build_server

    return build_server(server_chaos_config(), SERVER_STREAM_SEED)


def check_server_chaos(vm: JVM) -> list[str]:
    from repro.server.plane import check_server_invariants

    return check_server_invariants(
        vm, server_chaos_config(), SERVER_STREAM_SEED
    )


# ---------------------------------------------------------------- running
@dataclass(frozen=True)
class CampaignCell:
    """Pure, picklable identity of one campaign cell.

    Scenarios carry closures, so a cell names its scenario and every
    process looks it up in :data:`repro.bench.workloads.SCENARIOS` — the
    registry is source code, hence identical in every process.  The
    fields are also the cell's ``REPLAY:`` flags
    (:func:`repro.fleet.cli.replay_line`) and its cache key — ``interp`` too, so a cached fast-engine fragment
    never answers a reference-engine repro."""

    scenario: str
    #: sweep index: the VM seed is ``sweep_seed("campaign", scenario, i)``
    seed_index: int
    interp: str = "fast"


def _campaign_cell(cell: CampaignCell) -> dict:
    """Worker entry for one cell; ``--replay`` runs it too, serially."""
    return run_one(
        lookup_scenario("campaign", cell.scenario), cell.seed_index,
        interp=cell.interp,
    )


def run_one(scenario: Scenario, index: int, *, interp: str = "fast") -> dict:
    """Run one (scenario, sweep-index) cell; returns its report fragment.

    The VM seed follows the repo-wide seed-namespace convention
    (:func:`repro.util.rng.sweep_seed`): cell ``index`` of scenario ``s``
    always runs under ``sweep_seed("campaign", s, index)``, independent
    of scenario ordering or any other tool's sweeps.
    """
    options = VMOptions(
        mode="rollback",
        seed=sweep_seed("campaign", scenario.name, index),
        interp=interp,
        trace=False,
        audit_rollbacks=True,
        max_cycles=CYCLE_CAP,
        faults=scenario.plan,
        **scenario.options,
    )
    vm = JVM(options)
    scenario.build().install(vm)
    outcome, violations = audited_run(vm, scenario.check)
    metrics = vm.metrics()["support"]
    fragment = {
        "outcome": outcome,
        "violations": violations,
        "injected": vm.fault_plane.report() if vm.fault_plane else {},
        "metrics": {k: metrics.get(k, 0) for k in REPORTED_METRICS},
    }
    return fragment


def run_campaign(
    seeds: int, scenario_filter: str | None = None, *, engine=None,
    interp: str = "fast",
) -> dict:
    """Sweep seeds x scenarios; returns the aggregated (and deterministic)
    campaign report.

    The (scenario x seed) matrix is enumerated up front and fanned out
    through a :class:`repro.bench.parallel.RunEngine`; cells reduce back
    in matrix order, so the report is byte-identical for any worker
    count.  The default engine is serial and uncached.
    """
    from repro.bench.parallel import RunEngine

    if engine is None:
        engine = RunEngine(jobs=1)
    scenarios = (
        list(TOOL_SCENARIOS["campaign"].values()) if scenario_filter is None
        else [lookup_scenario("campaign", scenario_filter)]
    )
    matrix = [
        CampaignCell(scenario.name, seed, interp)
        for scenario in scenarios
        for seed in range(1, seeds + 1)
    ]
    cells = engine.map(_campaign_cell, matrix)
    report: dict = {
        "seeds": seeds, "scenarios": {}, "violations": 0, "failures": [],
    }
    for index, scenario in enumerate(scenarios):
        totals = {k: 0 for k in REPORTED_METRICS}
        injected: dict[str, int] = {}
        outcomes: dict[str, int] = {}
        violations: list[str] = []
        for offset in range(seeds):
            seed = offset + 1
            cell = cells[index * seeds + offset]
            outcomes[cell["outcome"]] = outcomes.get(cell["outcome"], 0) + 1
            for key, value in cell["metrics"].items():
                totals[key] += value
            for key, value in cell["injected"].items():
                injected[key] = injected.get(key, 0) + value
            for violation in cell["violations"]:
                violations.append(f"seed {seed}: {violation}")
            if cell["violations"]:
                report["failures"].append({
                    "scenario": scenario.name,
                    "seed_index": seed,
                    "vm_seed": hex(
                        sweep_seed("campaign", scenario.name, seed)
                    ),
                    "outcome": cell["outcome"],
                    "violations": cell["violations"],
                })
        report["scenarios"][scenario.name] = {
            "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
            "injected": {k: injected[k] for k in sorted(injected)},
            "metrics": totals,
            "violations": violations,
        }
        report["violations"] += len(violations)
    return report


def _parser() -> argparse.ArgumentParser:
    from repro.fleet.cli import add_engine_args

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.campaign",
        description="deterministic fault-injection campaign",
    )
    parser.add_argument(
        "--seeds", type=int, default=25,
        help="number of VM seeds per scenario (default 25)",
    )
    parser.add_argument(
        "--scenario", default=None,
        help="run only the named scenario",
    )
    parser.add_argument(
        "--interp", default="fast", choices=["fast", "reference"],
        help="interpreter engine (fragments are identical either way)",
    )
    parser.add_argument(
        "--replay", type=int, default=None, metavar="INDEX",
        help="re-run exactly one (--scenario, seed INDEX) cell serially "
             "and print its fragment (the reproduction path printed on "
             "stderr when a campaign run fails)",
    )
    add_engine_args(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.fleet.cli import engine_from_args, replay_line

    parser = _parser()
    args = parser.parse_args(argv)
    if args.scenario is not None:
        try:
            lookup_scenario("campaign", args.scenario)
        except ValueError as exc:
            parser.error(str(exc))
    if args.replay is not None:
        # serial, uncached, single-cell reproduction path
        if args.scenario is None:
            parser.error("--replay requires --scenario")
        fragment = _campaign_cell(
            CampaignCell(args.scenario, args.replay, args.interp)
        )
        print(json.dumps(fragment, indent=2, sort_keys=True))
        return 1 if fragment["violations"] else 0
    with engine_from_args(args) as engine:
        report = run_campaign(args.seeds, args.scenario, engine=engine,
                              interp=args.interp)
    print(json.dumps(report, indent=2, sort_keys=True))
    # stderr only: the stdout report must stay byte-identical across
    # jobs/cache settings (the campaign's determinism contract).
    print(engine.stats.render(), file=sys.stderr)
    for failure in report["failures"]:
        # one copy-pastable reproduction command per failed cell, with
        # the exact VM seed it will run under; --jobs/--seeds are absent
        # because the replay is serial and the cell a pure function of
        # its fields
        cell = CampaignCell(
            failure["scenario"], failure["seed_index"], args.interp
        )
        print(
            replay_line(parser.prog, cell, f"vm seed {failure['vm_seed']}"),
            file=sys.stderr,
        )
    if report["violations"]:
        print(
            f"FAIL: {report['violations']} invariant violation(s)",
            file=sys.stderr,
        )
        return 1
    print("OK: zero invariant violations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    # Run the importable module, not this ``__main__`` copy: cells sent
    # to fleet workers must pickle as ``repro.faults.campaign.CampaignCell``.
    from repro.faults.campaign import main as _main

    sys.exit(_main())
