"""Priority-inversion episode detection over the span stream.

The paper's subject is the *priority-inversion episode*: a window in
which a higher-priority thread sits parked on a monitor entry queue
while a lower-priority thread holds the monitor.  The span stream
(:mod:`repro.obs.spans`) already records both sides — ``blocked`` spans
for the park and ``section`` spans for the tenure — so an episode is an
overlap join: for every blocked span of thread *T* on monitor *M*,
every ``section`` span on *M* by a lower-(base-)priority holder that
overlaps it contributes one episode.

Each episode is classified by how it was *resolved*:

``revocation``
    the holder's section ended in a rollback (the paper's scheme: the
    low-priority holder is preempted, undoes its work and releases).
``inheritance``
    a priority donation (``inherit`` instant) landed on the holder
    during the episode and the section then committed — the classical
    priority-inheritance cure.
``degradation``
    the degradation ladder demoted the holder's site during the episode
    (revocable → inheritance → non-revocable); the episode outlived the
    site's revocability.
``natural-release``
    the holder finished on its own: committed (or wait-released) with
    no cure in flight — exactly what an unmodified VM does.
``unresolved``
    the blocked span never closed (deadlocked or truncated run).
``other``
    everything else (leaked/abandoned sections; the blocked thread
    itself revoked or exited).

Cycle attribution is exact: blocked spans close at the very clock value
``VMThread.blocked_cycles`` is credited (see ``SpanBuilder``), so the
sum of closed blocked-span durations per thread equals the metrics
value equals the CycleProfiler's blocked attribution, with zero
residue — the report carries the three-way reconciliation to prove it.

Everything here is a pure function of the capture artifact, so the
``repro.obs.episodes/1`` report is byte-identical across interpreters,
worker counts, cache states and fleet topologies.  :func:`build_report`
reads the artifact's spans with
:func:`repro.obs.export.spans_from_jsonl`, the format's one reader, or
takes spans a caller has parsed already (the debugger's session does,
so it parses once).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any, Iterable, Optional

from repro.obs.export import spans_from_jsonl
from repro.obs.spans import Span

EPISODES_FORMAT = "repro.obs.episodes/1"

#: resolution classes, display order
RESOLUTIONS = (
    "revocation", "degradation", "inheritance", "natural-release",
    "unresolved", "other",
)


def thread_tier(name: str) -> str:
    """SLA tier of a thread name: the first dash segment.

    Matches the server plane's ``f"{tier.name}-"`` naming ("gold-w0"
    -> "gold"); an undashed name is its own tier ("low" -> "low").
    """
    return name.split("-", 1)[0]


def detect_episodes(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """The offline pass: every priority-inversion episode in ``spans``.

    Returns dicts ordered by (start, end, thread, mon), indexed from 1.
    Base (spawn-time) priorities define inversion — inheritance may
    boost a holder's *effective* priority, but that is a cure for the
    episode, not its absence.
    """
    spans = list(spans)
    priorities: dict[str, int] = {}
    sections_by_mon: dict[Any, list[Span]] = {}
    inherits: list[Span] = []
    degrades: list[Span] = []
    blocked: list[Span] = []
    for span in spans:
        if span.kind == "thread":
            priorities[span.thread] = span.attrs.get("priority", 0)
        elif span.kind == "section":
            sections_by_mon.setdefault(
                span.attrs.get("mon"), []
            ).append(span)
        elif span.kind == "inherit":
            inherits.append(span)
        elif span.kind == "degrade":
            degrades.append(span)
        elif span.kind == "blocked":
            blocked.append(span)
    # Per monitor: sections by (start, sid), their starts, and the
    # running maximum of their ends.  A section overlaps blocked span b
    # only if it starts before b ends and ends after b starts, so the
    # candidates are a window of the sorted list: bisect the starts for
    # its right edge and the running maximum for its left edge (before
    # that edge every section ended by b.start).
    windows: dict[Any, tuple[list[Span], list[int], list[int]]] = {}
    for mon, stack in sections_by_mon.items():
        stack.sort(key=lambda s: (s.start, s.sid))
        windows[mon] = (
            stack,
            [s.start for s in stack],
            list(accumulate((s.end for s in stack), max)),
        )

    episodes: list[dict[str, Any]] = []
    for b in blocked:
        mon = b.attrs.get("mon")
        window = windows.get(mon)
        if window is None:
            continue
        stack, starts, reach = window
        hi = bisect_left(starts, b.end)
        lo = bisect_right(reach, b.start, 0, hi)
        thread = b.thread
        prio = priorities.get(thread, 0)
        b_open = bool(b.attrs.get("open"))
        for s in stack[lo:hi]:
            if s.thread == thread:
                continue
            start = max(b.start, s.start)
            end = min(b.end, s.end)
            if end <= start:
                continue
            holder_prio = priorities.get(s.thread, 0)
            if holder_prio >= prio:
                continue  # not an inversion: holder outranks or ties
            resolution = _classify(
                b, s, start, end, b_open, inherits, degrades
            )
            episodes.append({
                "thread": thread,
                "priority": prio,
                "tier": thread_tier(thread),
                "holder": s.thread,
                "holder_priority": holder_prio,
                "mon": mon,
                "start": start,
                "end": end,
                "cycles": end - start,
                "resolution": resolution,
                "blocked_outcome": (
                    "open" if b_open else b.attrs.get("outcome")
                ),
                "section_outcome": (
                    "open" if s.attrs.get("open")
                    else s.attrs.get("outcome")
                ),
            })
    episodes.sort(key=lambda e: (
        e["start"], e["end"], e["thread"], str(e["mon"])
    ))
    for index, episode in enumerate(episodes, start=1):
        episode["index"] = index
    return episodes


def _classify(
    b: Span,
    s: Span,
    start: int,
    end: int,
    b_open: bool,
    inherits: list[Span],
    degrades: list[Span],
) -> str:
    """Resolution of the episode of ``b`` against holder section ``s``.

    Precedence: revocation (the holder rolled back) over degradation
    (the ladder demoted the site mid-episode) over inheritance (a
    donation landed and the holder committed) over natural release.
    """
    section_outcome = s.attrs.get("outcome")
    if b_open and end == b.end:
        return "unresolved"  # the park outlived the run
    if section_outcome == "rollback" and s.end == end:
        return "revocation"
    for d in degrades:
        if d.thread == s.thread and start <= d.start <= end:
            return "degradation"
    for i in inherits:
        # The donation lands at contended-acquire time, a few cycles
        # *before* the blocked span opens (the contention path advances
        # the clock between the two traces), so anchor on the section:
        # the holder received priority from this episode's blocked
        # thread while it held the monitor.
        if (
            i.thread == s.thread
            and i.attrs.get("from") == b.thread
            and s.start <= i.start <= end
        ):
            return "inheritance"
    if s.end == end and section_outcome == "commit":
        return "natural-release"
    if (
        not b_open
        and b.end == end
        and b.attrs.get("outcome") == "granted"
        and section_outcome in ("commit", None)
    ):
        # wait-release (section stays open across Object.wait) or a
        # holder that commits later on a re-entry: voluntary release
        return "natural-release"
    return "other"


def _aggregate(
    episodes: list[dict[str, Any]], key: str
) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for e in episodes:
        bucket = out.setdefault(
            str(e[key]), {"episodes": 0, "cycles": 0}
        )
        bucket["episodes"] += 1
        bucket["cycles"] += e["cycles"]
    return dict(sorted(out.items()))


def reconcile(
    spans: Iterable[Span],
    metrics: dict[str, Any],
    profile: Optional[dict[str, Any]],
) -> dict[str, Any]:
    """Three-way zero-residue check: closed blocked-span cycles per
    thread vs the ``blocked_cycles`` metric vs the CycleProfiler's
    blocked attribution.  ``residue`` is the summed absolute
    disagreement — 0 on every deterministic run (pinned by tests).

    Open blocked spans (deadlocked/truncated parks) are never credited
    to metrics; they are reported separately as ``unresolved_cycles``.
    """
    span_cycles: dict[str, int] = {}
    unresolved = 0
    for span in spans:
        if span.kind != "blocked":
            continue
        if span.attrs.get("open"):
            unresolved += span.end - span.start
        else:
            span_cycles[span.thread] = (
                span_cycles.get(span.thread, 0)
                + (span.end - span.start)
            )
    metric_cycles = {
        name: tm["blocked_cycles"]
        for name, tm in metrics.get("threads", {}).items()
        if tm["blocked_cycles"] or name in span_cycles
    }
    profiler_cycles = (profile or {}).get("blocked")
    threads = sorted(set(span_cycles) | set(metric_cycles))
    residue = 0
    table = {}
    for name in threads:
        spans_v = span_cycles.get(name, 0)
        metric_v = metric_cycles.get(name, 0)
        row = {"spans": spans_v, "metrics": metric_v}
        residue += abs(spans_v - metric_v)
        if profiler_cycles is not None:
            prof_v = profiler_cycles.get(name, 0)
            row["profiler"] = prof_v
            residue += abs(prof_v - metric_v)
        table[name] = row
    return {
        "threads": table,
        "residue": residue,
        "unresolved_cycles": unresolved,
    }


def build_report(
    artifact: dict[str, Any], spans: Optional[list[Span]] = None
) -> dict[str, Any]:
    """The ``repro.obs.episodes/1`` report for one capture artifact.

    ``spans`` are the artifact's own spans when the caller has parsed
    them already; otherwise they are read from its JSONL."""
    if spans is None:
        spans = spans_from_jsonl(artifact["spans_jsonl"])
    episodes = detect_episodes(spans)
    return {
        "format": EPISODES_FORMAT,
        "scenario": artifact.get("scenario"),
        "mode": artifact.get("mode"),
        "seed": artifact.get("seed"),
        "outcome": artifact.get("outcome"),
        "clock": artifact.get("clock"),
        "episodes": episodes,
        "totals": {
            "episodes": len(episodes),
            "inversion_cycles": sum(e["cycles"] for e in episodes),
        },
        "by_site": _aggregate(episodes, "mon"),
        "by_tier": _aggregate(episodes, "tier"),
        "by_resolution": _aggregate(episodes, "resolution"),
        "reconciliation": reconcile(
            spans, artifact.get("metrics", {}), artifact.get("profile")
        ),
    }


def report_bytes(report: dict[str, Any]) -> bytes:
    """Canonical byte-stable encoding (sorted keys, compact, one LF)."""
    return (
        json.dumps(
            report, sort_keys=True, separators=(",", ":"),
            ensure_ascii=True,
        ) + "\n"
    ).encode("ascii")


def render_report(report: dict[str, Any], *, top: int = 20) -> str:
    """Human-readable episode table (stderr/stdout display form)."""
    lines = [
        f"priority-inversion episodes — {report['scenario']} "
        f"[{report['mode']}] seed={report['seed']} "
        f"outcome={report['outcome']} clock={report['clock']}",
        f"  episodes: {report['totals']['episodes']}   "
        f"inversion cycles: {report['totals']['inversion_cycles']}",
    ]
    if report["episodes"]:
        lines.append(
            "  idx  blocked(prio)     holder(prio)      site"
            "                 cycles      window               resolution"
        )
        for e in report["episodes"][:top]:
            lines.append(
                f"  {e['index']:>3}  "
                + f"{e['thread']}({e['priority']})".ljust(18)
                + f"{e['holder']}({e['holder_priority']})".ljust(18)
                + f"{str(e['mon'])}".ljust(21)
                + f"{e['cycles']:>8}  "
                + f"[{e['start']},{e['end']})".ljust(21)
                + e["resolution"]
            )
        if len(report["episodes"]) > top:
            lines.append(
                f"  ... {len(report['episodes']) - top} more"
            )
    for title, key in (
        ("by resolution", "by_resolution"),
        ("by tier", "by_tier"),
        ("by site", "by_site"),
    ):
        if report[key]:
            lines.append(f"  {title}:")
            for name, agg in report[key].items():
                lines.append(
                    f"    {name}: {agg['episodes']} episode(s), "
                    f"{agg['cycles']} cycles"
                )
    rec = report["reconciliation"]
    lines.append(
        f"  reconciliation residue: {rec['residue']} "
        f"(unresolved parked cycles: {rec['unresolved_cycles']})"
    )
    return "\n".join(lines)


def policy_table(reports: dict[str, dict[str, Any]]) -> str:
    """Per-policy comparison table — the figure the paper never had.

    ``reports`` maps mode name -> episodes report (same scenario/seed).
    Inversion cycles are normalized against the ``unmodified`` row when
    present.
    """
    base = reports.get("unmodified")
    base_cycles = (
        base["totals"]["inversion_cycles"] if base else None
    )
    lines = [
        "policy            episodes   inversion-cycles   vs-unmodified"
        "   resolutions"
    ]
    for mode, report in reports.items():
        cycles = report["totals"]["inversion_cycles"]
        if base_cycles:
            ratio = f"{cycles / base_cycles:.4f}"
        elif mode == "unmodified":
            ratio = "1.0000"
        else:
            ratio = "n/a"
        resolutions = ",".join(
            f"{name}={agg['episodes']}"
            for name, agg in report["by_resolution"].items()
        ) or "-"
        lines.append(
            f"{mode:<16}  {report['totals']['episodes']:>8}   "
            f"{cycles:>16}   {ratio:>13}   {resolutions}"
        )
    return "\n".join(lines)

