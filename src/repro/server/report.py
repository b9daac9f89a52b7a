"""Per-tier latency/goodput reports for server runs.

Every number here is produced by **integer arithmetic** over guest
statics and VM metrics — no floats anywhere — so a report is a pure
function of the run and serializes byte-identically across hosts,
interpreters (``interp`` is deliberately absent from the report) and
worker fan-outs.

Latency percentiles use the nearest-rank method
(:func:`repro.util.stats.nearest_rank`) over the per-request latency
samples the guest program records in ``Server.lat``; the guest array
already holds every sample, so the report sorts them exactly once
(:func:`latency_summary`).  Goodput is completions per million virtual
cycles.  The normalized elapsed-time
metric from the paper (§4.1) is added by the CLI's ``--compare`` mode,
which pairs each run with its unmodified-VM baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.server.workload import COUNTER_FIELDS, SERVER_CLASS, ServerConfig
from repro.util.stats import nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM

#: report schema version
REPORT_FORMAT = "repro.server/1"

#: robustness counters lifted from support metrics into every report
ROBUSTNESS_KEYS = (
    "retry_budget_exhausted",
    "degradations_to_inheritance",
    "degradations_to_nonrevocable",
    "starvations_detected",
)


def latency_summary(samples: list[int]) -> dict[str, Any]:
    """p50/p99/p999/max/mean of an (unsorted) integer latency sample.

    An empty sample — a fully-shed or fully-dropped tier completed no
    request, so there is no latency to report — yields the explicit
    ``None`` sentinel (``null`` in JSON, ``-`` in rendered tables) for
    every percentile.  A ``0`` here would read as "instant responses",
    the exact opposite of a tier that served nothing.
    """
    if not samples:
        return {"count": 0, "p50": None, "p99": None, "p999": None,
                "max": None, "mean": None}
    s = sorted(samples)
    return {
        "count": len(s),
        "p50": nearest_rank(s, 50, 100),
        "p99": nearest_rank(s, 99, 100),
        "p999": nearest_rank(s, 999, 1000),
        "max": s[-1],
        "mean": sum(s) // len(s),
    }


def robustness_block(metrics: dict[str, Any]) -> dict[str, int]:
    """The overload-protection counters of one run (any mode: missing
    support counters read as zero on the unmodified VM)."""
    support = metrics.get("support", {}) or {}
    block = {key: support.get(key, 0) for key in ROBUSTNESS_KEYS}
    block["watchdog_trips"] = metrics.get("watchdog_trips", 0)
    return block


def _tier_latencies(vm: "JVM", tier_index: int) -> list[int]:
    """Every recorded latency sample of one tier (unused slots of the
    guest's ``Server.lat`` row hold -1 and are skipped)."""
    lat = vm.get_static(SERVER_CLASS, "lat").get(tier_index)
    return [
        lat.get(i) for i in range(len(lat)) if lat.get(i) >= 0
    ]


def tier_counters(vm: "JVM", tier_index: int) -> dict[str, int]:
    """The guest-side per-tier counters of one run."""
    return {
        name: vm.get_static(SERVER_CLASS, name).get(tier_index)
        for name in COUNTER_FIELDS
    }


def build_report(
    vm: "JVM",
    config: ServerConfig,
    *,
    seed: int,
    mode: str,
    outcome: str,
    violations: list[str],
    storm_events: list[dict],
    injected: dict[str, int],
    episodes: list[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Assemble the full deterministic report of one quiesced run.

    ``episodes`` is the priority-inversion episode list that
    :func:`repro.obs.episodes.detect_episodes` finds over the spans of
    an online :class:`repro.obs.spans.SpanBuilder` (None = tracing was
    off);
    each episode is attributed to the SLA tier of its *blocked* thread.
    """
    metrics = vm.metrics()
    elapsed = metrics["elapsed_cycles"]
    episodes = episodes or []
    tiers: dict[str, Any] = {}
    for ti, tier in enumerate(config.tiers):
        counters = tier_counters(vm, ti)
        cycles = blocked = revocations = 0
        prefix = f"{tier.name}-"
        for name, tm in metrics["threads"].items():
            if name.startswith(prefix):
                cycles += tm["cycles_executed"]
                blocked += tm["blocked_cycles"]
                revocations += tm["revocations"]
        completed = counters["completed"]
        tiers[tier.name] = {
            "priority": tier.priority,
            "requests": tier.requests,
            "completed": completed,
            "shed": counters["shed"],
            "timeouts": counters["timeouts"],
            "retries": counters["retries"],
            "dropped": counters["exhausted"],
            "errors": counters["errors"],
            "goodput_per_mcycle": (
                completed * 1_000_000 // elapsed if elapsed else 0
            ),
            "latency": latency_summary(_tier_latencies(vm, ti)),
            "cycles": cycles,
            "blocked_cycles": blocked,
            "revocations": revocations,
            "episodes": sum(
                1 for e in episodes if e["tier"] == tier.name
            ),
            "inversion_cycles": sum(
                e["cycles"] for e in episodes if e["tier"] == tier.name
            ),
        }
    by_resolution: dict[str, int] = {}
    for e in episodes:
        by_resolution[e["resolution"]] = (
            by_resolution.get(e["resolution"], 0) + 1
        )
    return {
        "format": REPORT_FORMAT,
        "config": config.name,
        "seed": f"0x{seed:x}",
        "mode": mode,
        "scheduler": config.scheduler,
        "outcome": outcome,
        "violations": violations,
        "elapsed_cycles": elapsed,
        "requests": config.total_requests,
        "threads": len(vm.threads),
        "context_switches": metrics["context_switches"],
        "injected": injected,
        "storm": {
            "events": storm_events,
            "entries": sum(
                1 for e in storm_events if e["kind"] == "enter"
            ),
        },
        "robustness": robustness_block(metrics),
        "episodes": {
            "total": len(episodes),
            "inversion_cycles": sum(e["cycles"] for e in episodes),
            "by_resolution": dict(sorted(by_resolution.items())),
        },
        "trace": {
            "dropped": metrics["trace"]["dropped"],
            "sink_errors": metrics["trace"]["sink_errors"],
        },
        "tiers": tiers,
    }


def _cell(value: Any) -> Any:
    """Table cell for a possibly-absent statistic (``None`` -> ``-``)."""
    return "-" if value is None else value


def render_report(report: dict[str, Any]) -> str:
    """Human-readable per-tier table of one run's report."""
    lines = [
        f"server {report['config']} mode={report['mode']} "
        f"seed={report['seed']} outcome={report['outcome']}",
        f"{report['requests']} requests over {report['threads']} threads "
        f"in {report['elapsed_cycles']} cycles "
        f"({report['context_switches']} context switches)",
    ]
    header = (
        f"{'tier':<10} {'prio':>4} {'req':>7} {'done':>7} {'shed':>6} "
        f"{'tmo':>6} {'retry':>6} {'drop':>6} {'err':>4} "
        f"{'p50':>8} {'p99':>8} {'p999':>8} {'goodput':>8} "
        f"{'episd':>6} {'inv-cyc':>9}"
    )
    lines.append(header)
    for name, t in report["tiers"].items():
        lat = t["latency"]
        lines.append(
            f"{name:<10} {t['priority']:>4} {t['requests']:>7} "
            f"{t['completed']:>7} {t['shed']:>6} {t['timeouts']:>6} "
            f"{t['retries']:>6} {t['dropped']:>6} {t['errors']:>4} "
            f"{_cell(lat['p50']):>8} {_cell(lat['p99']):>8} "
            f"{_cell(lat['p999']):>8} "
            f"{t['goodput_per_mcycle']:>8} "
            f"{t.get('episodes', 0):>6} {t.get('inversion_cycles', 0):>9}"
        )
    ep = report.get("episodes")
    if ep:
        resolutions = " ".join(
            f"{k}={v}" for k, v in ep["by_resolution"].items()
        ) or "none"
        lines.append(
            f"inversion episodes: {ep['total']} "
            f"({ep['inversion_cycles']} blocked cycles) "
            f"resolutions: {resolutions}"
        )
    rb = report["robustness"]
    lines.append(
        "robustness: "
        + " ".join(f"{k}={rb[k]}" for k in sorted(rb))
    )
    storm = report["storm"]
    lines.append(f"abort storms: {storm['entries']}")
    for event in storm["events"]:
        if event["kind"] == "enter":
            escalated = ",".join(event["escalated"]) or "none"
            lines.append(
                f"  storm @ {event['cycle']}: {event['revocations']} "
                f"revocations/window, escalated: {escalated}"
            )
        else:
            lines.append(
                f"  clear @ {event['cycle']}: {event['revocations']} "
                "revocations/window"
            )
    if report["injected"]:
        inj = ", ".join(
            f"{k}={v}" for k, v in report["injected"].items()
        )
        lines.append(f"faults injected: {inj}")
    if report["violations"]:
        lines.append(f"VIOLATIONS ({len(report['violations'])}):")
        lines.extend(f"  {v}" for v in report["violations"])
    else:
        lines.append("violations: none")
    return "\n".join(lines)
