"""The 1020-guest-thread ``fleet`` server preset through the span
pipeline: pinned artifact shape, output-size budgets (the downsampling
stress test), terminal rendering at scale, and byte-identity across
worker counts."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.obs.capture import ObsSpec, capture_run

#: hard output-size budgets for the fleet capture — the artifacts must
#: stay shippable over the fleet wire however many guest threads run
SPANS_JSONL_BUDGET = 1_000_000
CHROME_JSON_BUDGET = 2_500_000

SPEC = ObsSpec(scenario="server-fleet")


@pytest.fixture(scope="module")
def artifact():
    return capture_run(SPEC)


def test_fleet_summary_pinned(artifact):
    s = artifact["summary"]
    assert s["outcome"] == "completed"
    assert s["threads"] == 1020
    assert s["clock"] == 4010588
    assert s["spans"] == 5767
    assert s["episodes"] == 1430
    assert s["inversion_cycles"] == 285264


def test_fleet_counter_tracks_pinned(artifact):
    """The ``ready_queue`` and ``undo_log`` Chrome counter tracks, pinned
    to the values the full per-slice thread scans produced: the O(1)
    census and undo count must reproduce them sample for sample."""
    counters = [
        e for e in json.loads(artifact["chrome_json"])["traceEvents"]
        if e["ph"] == "C"
    ]
    ready = [e["args"]["value"] for e in counters
             if e["name"] == "ready_queue"]
    undo = [e["args"]["value"] for e in counters if e["name"] == "undo_log"]
    assert len(ready) == 1520
    assert len(undo) == 41
    assert max(ready) == 1019
    digest = hashlib.sha256(
        json.dumps(counters, sort_keys=True).encode()
    ).hexdigest()[:16]
    assert digest == "68bbfba2312c2242"


def test_fleet_observability_not_degraded(artifact):
    """1020 threads must not overflow the tracer or the samplers."""
    s = artifact["summary"]
    assert s["trace"]["dropped"] == 0
    assert s["trace"]["sink_errors"] == 0
    assert s["counter_samples_dropped"] == 0


def test_fleet_output_size_budgets(artifact):
    spans_bytes = len(artifact["spans_jsonl"].encode("utf-8"))
    chrome_bytes = len(artifact["chrome_json"].encode("utf-8"))
    assert spans_bytes <= SPANS_JSONL_BUDGET, spans_bytes
    assert chrome_bytes <= CHROME_JSON_BUDGET, chrome_bytes
    # and they are real documents, not truncation artifacts
    doc = json.loads(artifact["chrome_json"])
    assert doc["traceEvents"]
    lines = artifact["spans_jsonl"].strip().splitlines()
    assert all(json.loads(line) for line in lines)


def test_fleet_every_tier_on_the_wire(artifact):
    """All 12 SLA tiers appear in the span stream by name prefix."""
    threads = set()
    for line in artifact["spans_jsonl"].strip().splitlines():
        doc = json.loads(line)
        if "thread" in doc:
            threads.add(doc["thread"].split("-", 1)[0])
    for i in range(12):
        assert f"t{i:02d}" in threads, f"tier t{i:02d} missing"


def test_fleet_timeline_renders_within_terminal_budget():
    """render_timeline downsamples 1020 rows into a bounded-width
    terminal view instead of emitting megabyte lines."""
    from repro.server.plane import AbortStormDetector
    from repro.server.presets import get_preset
    from repro.server.workload import build_server, expected_cycle_cap
    from repro.vm.timeline import render_timeline
    from repro.vm.vmcore import JVM, VMOptions

    config = get_preset("fleet")
    vm = JVM(VMOptions(
        mode="rollback", scheduler="priority", seed=SPEC.seed,
        raise_on_uncaught=False, trace=True,
        max_cycles=expected_cycle_cap(config, SPEC.seed),
    ))
    build_server(config, SPEC.seed).install(vm)
    vm.slice_hooks.append(AbortStormDetector(config))
    vm.run()
    text = render_timeline(vm, max_width=120)
    lines = text.splitlines()
    assert len(lines) >= 1020  # one row per guest thread, at least
    assert max(len(line) for line in lines) <= 120


def test_fleet_capture_byte_identical_across_jobs(artifact):
    """The fleet capture travels the engine like any artifact: parallel
    execution returns byte-identical spans/chrome output."""
    from repro.bench.parallel import RunEngine

    specs = [SPEC, ObsSpec(scenario="server-fleet", seed=SPEC.seed + 1)]
    with RunEngine(jobs=2) as engine:
        pooled = engine.map(capture_run, specs)
    assert pooled[0]["spans_jsonl"] == artifact["spans_jsonl"]
    assert pooled[0]["chrome_json"] == artifact["chrome_json"]
    # the sibling seed is a genuinely different run, same budgets
    assert pooled[1]["spans_jsonl"] != artifact["spans_jsonl"]
    assert len(pooled[1]["chrome_json"].encode()) <= CHROME_JSON_BUDGET
