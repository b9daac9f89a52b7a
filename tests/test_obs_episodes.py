"""Priority-inversion episode analyzer: detection over the span stream,
resolution classification, exact blocked-cycle attribution (zero
residue), the byte-stable ``repro.obs.episodes/1`` report, and the
per-policy comparison table — the figure the paper never had."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.capture import ObsSpec, capture_run
from repro.obs.episodes import (
    EPISODES_FORMAT,
    _classify,
    _spans_from_jsonl,
    build_report,
    detect_episodes,
    policy_table,
    render_report,
    report_bytes,
    thread_tier,
)
from repro.obs.spans import Span

MODES = ("unmodified", "rollback", "inheritance")


@pytest.fixture(scope="module")
def reports():
    return {
        mode: build_report(
            capture_run(ObsSpec(scenario="medium-inversion", mode=mode))
        )
        for mode in MODES
    }


# ------------------------------------------------------ pinned goldens
def test_paper_shape_inversion_cycles_pinned(reports):
    """ISSUE acceptance: unmodified >> inheritance >> rollback.

    These totals are pure functions of (scenario, mode, seed); any
    drift means the scheduler, the cost model or the revocation
    promptness changed and must be re-derived deliberately.
    """
    assert reports["unmodified"]["totals"] == {
        "episodes": 1, "inversion_cycles": 19491,
    }
    assert reports["rollback"]["totals"] == {
        "episodes": 1, "inversion_cycles": 353,
    }
    assert reports["inheritance"]["totals"] == {
        "episodes": 1, "inversion_cycles": 4332,
    }


def test_resolution_classification_matches_policy(reports):
    assert list(reports["unmodified"]["by_resolution"]) == [
        "natural-release"
    ]
    assert list(reports["rollback"]["by_resolution"]) == ["revocation"]
    assert list(reports["inheritance"]["by_resolution"]) == [
        "inheritance"
    ]


def test_policy_table_pinned(reports):
    table = policy_table(reports)
    lines = table.splitlines()
    assert "vs-unmodified" in lines[0]
    assert "unmodified" in lines[1] and "1.0000" in lines[1]
    assert "rollback" in lines[2] and "0.0181" in lines[2]
    assert "inheritance" in lines[3] and "0.2223" in lines[3]
    assert "revocation=1" in lines[2]


def test_episode_record_shape(reports):
    (episode,) = reports["rollback"]["episodes"]
    assert episode["index"] == 1
    assert episode["thread"] == "high"
    assert episode["priority"] > episode["holder_priority"]
    assert episode["holder"] == "low"
    assert episode["cycles"] == episode["end"] - episode["start"] == 353
    assert episode["section_outcome"] == "rollback"
    assert episode["blocked_outcome"] == "granted"


# ------------------------------------------ exact cycle reconciliation
def test_reconciliation_zero_residue_every_mode(reports):
    """Blocked-span cycles == thread metrics == profiler attribution,
    with zero residue — the ISSUE's exact-attribution acceptance."""
    for mode in MODES:
        rec = reports[mode]["reconciliation"]
        assert rec["residue"] == 0, mode
        assert rec["unresolved_cycles"] == 0, mode
        assert "high" in rec["threads"], mode
        row = rec["threads"]["high"]
        assert row["spans"] == row["metrics"] == row["profiler"]


# ----------------------------------------------------- report encoding
def test_report_bytes_canonical(reports):
    blob = report_bytes(reports["rollback"])
    assert blob.endswith(b"\n")
    doc = json.loads(blob)
    assert doc["format"] == EPISODES_FORMAT
    assert blob == report_bytes(reports["rollback"])  # stable re-encode


def test_report_byte_identical_across_interpreters():
    fast = build_report(capture_run(
        ObsSpec(scenario="medium-inversion", interp="fast")
    ))
    ref = build_report(capture_run(
        ObsSpec(scenario="medium-inversion", interp="reference")
    ))
    assert report_bytes(fast) == report_bytes(ref)


def test_render_report_mentions_everything(reports):
    text = render_report(reports["rollback"])
    assert "episodes: 1" in text
    assert "revocation" in text
    assert "reconciliation residue: 0" in text
    assert "high(10)" in text and "low(1)" in text


# --------------------------------------------------- online == offline
def test_online_sink_matches_offline_pass():
    """A SpanBuilder attached as a tracer sink (the server plane's
    streaming shape) folds the same event stream the offline pass reads
    back from the stored events, so it must be attached before the
    scenario installs (the spawn events carry the base priorities)."""
    from repro.obs.scenarios import get_scenario
    from repro.obs.spans import SpanBuilder, build_spans
    from repro.vm.vmcore import JVM, VMOptions

    spec = ObsSpec(scenario="medium-inversion")
    scenario = get_scenario(spec.scenario)
    vm = JVM(VMOptions(
        mode=spec.mode, seed=spec.seed, trace=True, **scenario.options
    ))
    builder = SpanBuilder()
    vm.tracer.add_sink(builder)
    scenario.install(vm, spec.seed, spec.write_pct)
    vm.run()
    offline = detect_episodes(build_spans(vm.tracer.events, vm.clock.now))
    online = detect_episodes(builder.finish(vm.clock.now))
    assert online == offline
    assert len(online) == 1


# --------------------------------------------------- tier attribution
def test_thread_tier_naming():
    assert thread_tier("gold-w0") == "gold"
    assert thread_tier("t07-gen-3") == "t07"
    assert thread_tier("high") == "high"


def test_server_storm_tier_attribution():
    """The server-plane capture attributes episodes to SLA tiers."""
    artifact = capture_run(ObsSpec(scenario="server-storm"))
    report = build_report(artifact)
    assert report["totals"]["episodes"] >= 1
    assert set(report["by_tier"]) == {"gold"}
    assert set(report["by_site"]) == {"<Server#73>"}
    assert sum(
        agg["episodes"] for agg in report["by_resolution"].values()
    ) == report["totals"]["episodes"]
    # the capture summary carries the same counts
    assert artifact["summary"]["episodes"] == (
        report["totals"]["episodes"]
    )
    assert artifact["summary"]["inversion_cycles"] == (
        report["totals"]["inversion_cycles"]
    )


def test_spans_roundtrip_through_jsonl(reports):
    """Parsing the artifact JSONL back yields the same episodes."""
    artifact = capture_run(ObsSpec(scenario="medium-inversion"))
    direct = detect_episodes(_spans_from_jsonl(artifact["spans_jsonl"]))
    assert direct == reports["rollback"]["episodes"]


# ------------------------------------------- join equivalence (oracle)
def _all_pairs_episodes(spans):
    """The all-pairs overlap join, kept as the test oracle: every blocked
    span against every section on its monitor, in (start, sid) order."""
    spans = list(spans)
    priorities, sections_by_mon = {}, {}
    inherits, degrades, blocked = [], [], []
    for span in spans:
        if span.kind == "thread":
            priorities[span.thread] = span.attrs.get("priority", 0)
        elif span.kind == "section":
            sections_by_mon.setdefault(span.attrs.get("mon"), []).append(
                span
            )
        elif span.kind == "inherit":
            inherits.append(span)
        elif span.kind == "degrade":
            degrades.append(span)
        elif span.kind == "blocked":
            blocked.append(span)
    for stack in sections_by_mon.values():
        stack.sort(key=lambda s: (s.start, s.sid))
    episodes = []
    for b in blocked:
        prio = priorities.get(b.thread, 0)
        mon = b.attrs.get("mon")
        b_open = bool(b.attrs.get("open"))
        for s in sections_by_mon.get(mon, ()):
            if s.thread == b.thread:
                continue
            start = max(b.start, s.start)
            end = min(b.end, s.end)
            if end <= start:
                continue
            holder_prio = priorities.get(s.thread, 0)
            if holder_prio >= prio:
                continue
            episodes.append({
                "thread": b.thread,
                "priority": prio,
                "tier": thread_tier(b.thread),
                "holder": s.thread,
                "holder_priority": holder_prio,
                "mon": mon,
                "start": start,
                "end": end,
                "cycles": end - start,
                "resolution": _classify(
                    b, s, start, end, b_open, inherits, degrades
                ),
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


settings.register_profile(
    "episode-join", derandomize=True, max_examples=80, deadline=None,
)

#: the run's end: open sections and open blocked spans close here
_NOW = 60
_THREADS = ("gold-w0", "gold-w1", "silver-w0", "bronze-w0", "bronze-w1")
_MONS = ("<M#1>", "<M#2>")


@st.composite
def _span_sets(draw):
    """Section and blocked spans on few monitors and a narrow time range
    (equal starts tie often), by several holders of mixed priorities.
    Sections on one monitor may overlap, as under wait-release; open
    spans end at ``_NOW``; blocked spans may have zero length."""
    sids = iter(range(10_000))
    spans = [
        Span(next(sids), "thread", name, 0, _NOW,
             attrs={"priority": draw(st.integers(1, 4))})
        for name in _THREADS
    ]
    thread = st.sampled_from(_THREADS)
    mon = st.sampled_from(_MONS)
    start = st.integers(0, _NOW)
    for _ in range(draw(st.integers(0, 14))):
        s0, is_open = draw(start), draw(st.booleans())
        end = _NOW if is_open else draw(st.integers(s0, _NOW))
        attrs = {"mon": draw(mon)}
        if is_open:
            attrs["open"] = True
        else:
            attrs["outcome"] = draw(st.sampled_from(
                ("commit", "rollback", "abandoned", "leaked")))
        spans.append(Span(next(sids), "section", draw(thread), s0, end,
                          attrs=attrs))
    for _ in range(draw(st.integers(0, 10))):
        s0, is_open = draw(start), draw(st.booleans())
        end = _NOW if is_open else draw(st.integers(s0, _NOW))
        attrs = {"mon": draw(mon)}
        if is_open:
            attrs["open"] = True
        else:
            attrs["outcome"] = draw(st.sampled_from(
                ("granted", "acquired", "wakeup", "revocation-wake")))
        spans.append(Span(next(sids), "blocked", draw(thread), s0, end,
                          attrs=attrs))
    for _ in range(draw(st.integers(0, 3))):
        t0 = draw(start)
        spans.append(Span(next(sids), "inherit", draw(thread), t0, t0,
                          attrs={"from": draw(thread)}))
    for _ in range(draw(st.integers(0, 2))):
        t0 = draw(start)
        spans.append(Span(next(sids), "degrade", draw(thread), t0, t0))
    order = draw(st.permutations(range(len(spans))))
    return [spans[i] for i in order]


@settings(settings.get_profile("episode-join"))
@given(_span_sets())
def test_sweep_join_equals_all_pairs_join(spans):
    """The sorted-sweep join finds exactly the all-pairs join's
    episodes, in the same order with the same indices."""
    assert detect_episodes(spans) == _all_pairs_episodes(spans)


def test_all_pairs_oracle_agrees_on_a_server_capture():
    """The oracle reproduces a real capture's episode list (so the
    generated cases test the join the analyzer actually runs)."""
    artifact = capture_run(ObsSpec(scenario="server-storm"))
    spans = _spans_from_jsonl(artifact["spans_jsonl"])
    assert detect_episodes(spans) == _all_pairs_episodes(spans)
    assert detect_episodes(spans)

