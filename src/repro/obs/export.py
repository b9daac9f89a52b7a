"""Byte-stable artifact exporters.

Three formats, all deterministic — identical runs produce *byte-identical*
files, so observability artifacts can be diffed across commits, cached by
content, and asserted on in tests:

``repro.obs/1`` JSONL (:func:`spans_jsonl_bytes`)
    One JSON object per line: a header line identifying the run, then
    every span in ``sid`` order with a fixed field order
    (``sid, kind, thread, start, end, parent, attrs``).
    :func:`spans_from_jsonl` is its one reader: it parses the artifact
    back into :class:`~repro.obs.spans.Span` objects, and every analysis
    of a stored capture (episodes, site tables, the debugger's active
    spans, ``python -m repro.obs spans``) starts from it.

Chrome trace-event JSON (:func:`chrome_trace_bytes`)
    Loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
    One track per VM thread (plus the ``"(vm)"`` pseudo-track), ``X``
    duration events for interval spans, ``i`` instant events for point
    spans, and ``C`` counter tracks for the READY-thread count
    (``ready_queue``) and undo-log size.  Virtual cycles map 1:1 onto
    the format's microsecond timestamps.  When a profiler is attached,
    ``otherData`` carries the exact per-track cycle attribution
    (summing to the final clock).

Folded stacks (:func:`folded_stacks`)
    ``thread;caller;...;callee cycles`` lines, the flamegraph.pl /
    speedscope interchange format.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.obs.spans import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profile import CycleProfiler

#: schema identifier stamped into the JSONL header line
SPAN_FORMAT = "repro.obs/1"


#: Canonical single-line JSON: compact separators, insertion order.  One
#: encoder serves every record (``json.dumps`` with any non-default
#: argument builds a new encoder per call).
_dumps = json.JSONEncoder(separators=(",", ":")).encode


# --------------------------------------------------------------- JSONL spans
def spans_jsonl_bytes(
    spans: Iterable["Span"], header: Optional[dict] = None
) -> bytes:
    """Serialize spans as ``repro.obs/1`` JSONL (header line + one
    span per line, stable field order)."""
    head = {"format": SPAN_FORMAT}
    if header:
        head.update(header)
    lines = [_dumps(head)]
    lines.extend(map(_dumps, (span.as_dict() for span in spans)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def spans_from_jsonl(spans_jsonl: Union[str, bytes]) -> list[Span]:
    """Parse a ``repro.obs/1`` JSONL artifact back into spans (the
    header line is skipped): the inverse of :func:`spans_jsonl_bytes`."""
    text = (
        spans_jsonl.decode("utf-8")
        if isinstance(spans_jsonl, bytes) else spans_jsonl
    )
    spans = []
    for line in text.splitlines():
        if not line:
            continue
        rec = json.loads(line)
        if "format" in rec:
            continue  # header line
        spans.append(Span(**rec))
    return spans


# ----------------------------------------------------------- chrome tracing
def chrome_trace_bytes(
    spans: Iterable["Span"],
    *,
    thread_names: list[str],
    clock_now: int,
    profiler: Optional["CycleProfiler"] = None,
    counters: Optional[dict[str, list[tuple[int, int]]]] = None,
    meta: Optional[dict] = None,
    episodes: Optional[list[dict]] = None,
) -> bytes:
    """Serialize a run as Chrome trace-event JSON.

    ``thread_names`` fixes the track order (spawn order); the ``"(vm)"``
    pseudo-track is always tid 0.  ``counters`` maps a counter-track name
    to ``(time, value)`` samples.  One virtual cycle = one microsecond of
    trace time, so Perfetto's duration readouts are cycle counts.
    ``episodes`` (records from :mod:`repro.obs.episodes`) render as an
    async-track overlay: each priority-inversion episode is a ``b``/``e``
    pair spanning blocker and holder, so inversions read as one lane
    above the per-thread tracks.
    """
    pid = 1
    tids: dict[str, int] = {"(vm)": 0}
    for name in thread_names:
        tids.setdefault(name, len(tids))

    events: list[dict] = [
        {
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": "repro-vm (virtual cycles)"},
        }
    ]
    for name, tid in tids.items():
        events.append(
            {
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": name},
            }
        )
        events.append(
            {
                "ph": "M", "pid": pid, "tid": tid,
                "name": "thread_sort_index", "args": {"sort_index": tid},
            }
        )

    for span in spans:
        track = span.thread if span.thread is not None else "(vm)"
        tid = tids.get(track)
        if tid is None:  # a thread that never hit the spawn event
            tid = tids[track] = len(tids)
            events.append(
                {
                    "ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_name", "args": {"name": track},
                }
            )
        end = span.end if span.end is not None else span.start
        args = {"sid": span.sid, "parent": span.parent}
        args.update(span.attrs)
        if end > span.start:
            events.append(
                {
                    "ph": "X", "pid": pid, "tid": tid, "ts": span.start,
                    "dur": end - span.start, "name": span.kind,
                    "cat": span.kind, "args": args,
                }
            )
        else:
            events.append(
                {
                    "ph": "i", "pid": pid, "tid": tid, "ts": span.start,
                    "s": "t", "name": span.kind, "cat": span.kind,
                    "args": args,
                }
            )

    if episodes:
        for ep in episodes:
            name = f"inversion {ep['mon']}"
            args = {
                "index": ep["index"],
                "blocked": ep["thread"],
                "holder": ep["holder"],
                "priority": ep["priority"],
                "holder_priority": ep["holder_priority"],
                "resolution": ep["resolution"],
                "cycles": ep["cycles"],
                "tier": ep["tier"],
            }
            common = {
                "pid": pid, "cat": "inversion", "name": name,
                "id": ep["index"],
            }
            events.append(
                {"ph": "b", "ts": ep["start"], "args": args, **common}
            )
            events.append(
                {"ph": "e", "ts": ep["end"], "args": {}, **common}
            )

    if counters:
        for counter_name, samples in counters.items():
            for ts, value in samples:
                events.append(
                    {
                        "ph": "C", "pid": pid, "ts": ts,
                        "name": counter_name,
                        "args": {"value": value},
                    }
                )

    other: dict = {"clock": clock_now}
    if meta:
        other.update(meta)
    if profiler is not None:
        by_track = {
            track: dict(sorted(cats.items()))
            for track, cats in sorted(profiler.tracks.items())
        }
        other["cycles_by_track"] = by_track
        other["cycles_total"] = profiler.total_cycles()

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    return (_dumps(doc) + "\n").encode("utf-8")


# ------------------------------------------------------------ folded stacks
def folded_stacks(profiler: "CycleProfiler") -> str:
    """Flamegraph interchange text: ``thread;stack;frames cycles``."""
    lines = [
        f"{track};{folded} {cycles}"
        for (track, folded), cycles in sorted(profiler.stacks.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------- text rendering
def render_profile_dict(
    profile: dict, clock: int, top: int = 20
) -> str:
    """Format the ``profile`` dict of a capture artifact as the top-N
    cycle table plus the per-track footer (which sums to ``clock``)."""
    rows = profile["methods"][:top]
    header = (
        f"{'thread':<14} {'method':<28} {'cycles':>12} {'insns':>10} "
        f"{'work':>12} {'barrier':>9} {'undo_log':>9} {'monitor':>9} "
        f"{'rollback':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['thread']:<14} {r['method']:<28} {r['cycles']:>12} "
            f"{r['insns']:>10} {r['work']:>12} {r['barrier']:>9} "
            f"{r['undo_log']:>9} {r['monitor']:>9} {r['rollback']:>9}"
        )
    lines.append("-" * len(header))
    lines.append("cycles by track:")
    for track, cats in profile["tracks"].items():
        detail = ", ".join(f"{k}={v}" for k, v in cats.items())
        lines.append(
            f"  {track:<14} {sum(cats.values()):>12}  ({detail})"
        )
    lines.append(
        f"  {'total':<14} {profile['total']:>12}  (final clock {clock})"
    )
    return "\n".join(lines)


def site_table(spans: Iterable["Span"]) -> list[dict]:
    """Per-site abort/commit statistics, derived purely from the span
    stream (so the table is cacheable and fleet-shippable with the
    artifact).  A *site* is a synchronization target — the monitor a
    section guards; rows aggregate every dynamic execution against it:
    commits, rollbacks (aborts), abandons/leaks, cycles spent holding,
    cycles other threads spent blocked on it, and the contender set
    size.  Sorted by blocked cycles (the pain), then held cycles."""
    stats: dict[str, dict] = {}

    def row(mon) -> dict:
        key = str(mon)
        if key not in stats:
            stats[key] = {
                "site": key, "sections": 0, "commit": 0, "rollback": 0,
                "abandoned": 0, "leaked": 0, "held_cycles": 0,
                "blocked_cycles": 0, "contenders": set(),
            }
        return stats[key]

    for s in spans:
        if s.kind == "section":
            r = row(s.attrs.get("mon"))
            r["sections"] += 1
            outcome = s.attrs.get("outcome")
            if outcome in ("commit", "rollback", "abandoned", "leaked"):
                r[outcome] += 1
            if s.end is not None:
                r["held_cycles"] += s.end - s.start
        elif s.kind == "blocked":
            r = row(s.attrs.get("mon"))
            if s.end is not None:
                r["blocked_cycles"] += s.end - s.start
            r["contenders"].add(s.thread)
    out = []
    for r in stats.values():
        r["contenders"] = len(r["contenders"])
        attempts = r["commit"] + r["rollback"]
        r["abort_pct"] = (
            round(100.0 * r["rollback"] / attempts, 1) if attempts else 0.0
        )
        out.append(r)
    out.sort(
        key=lambda r: (-r["blocked_cycles"], -r["held_cycles"], r["site"])
    )
    return out


def render_sites(rows: list[dict]) -> str:
    """Text table for :func:`site_table`."""
    header = (
        f"{'site':<26} {'sections':>8} {'commit':>7} {'abort':>6} "
        f"{'abort%':>7} {'abandon':>8} {'leak':>5} {'held-cycles':>12} "
        f"{'blocked-cycles':>15} {'contenders':>11}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['site']:<26} {r['sections']:>8} {r['commit']:>7} "
            f"{r['rollback']:>6} {r['abort_pct']:>7} {r['abandoned']:>8} "
            f"{r['leaked']:>5} {r['held_cycles']:>12} "
            f"{r['blocked_cycles']:>15} {r['contenders']:>11}"
        )
    if not rows:
        lines.append("(no synchronized sections in this run)")
    return "\n".join(lines)


def render_spans(spans: Iterable["Span"], limit: int = 0) -> str:
    """Human-readable span listing (indented by parent depth)."""
    spans = list(spans)
    depth: dict[int, int] = {}
    by_sid = {s.sid: s for s in spans}
    for s in spans:
        d = 0
        p = s.parent
        while p is not None and p in by_sid:
            d += 1
            p = by_sid[p].parent
        depth[s.sid] = d
    lines = []
    shown = spans[:limit] if limit else spans
    for s in shown:
        indent = "  " * depth[s.sid]
        dur = "?" if s.duration is None else str(s.duration)
        attrs = " ".join(f"{k}={v}" for k, v in s.attrs.items())
        thread = s.thread if s.thread is not None else "(vm)"
        lines.append(
            f"[{s.start:>10} +{dur:>9}] {thread:<14} "
            f"{indent}{s.kind} {attrs}".rstrip()
        )
    if limit and len(spans) > limit:
        lines.append(f"... ({len(spans) - limit} more spans)")
    return "\n".join(lines)
