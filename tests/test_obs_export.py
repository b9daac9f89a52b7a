"""Exporters: valid Chrome trace JSON, the ``repro.obs/1`` schema, and
byte-identical artifacts across interpreters, repetitions and worker
counts (the determinism satellite)."""

from __future__ import annotations

import json

import pytest

from repro.obs.capture import ObsSpec, capture_run
from repro.obs.export import SPAN_FORMAT

MODES = ("unmodified", "rollback", "inheritance", "ceiling")


@pytest.fixture(scope="module")
def artifact():
    return capture_run(ObsSpec(scenario="medium-inversion"))


def test_jsonl_schema(artifact):
    lines = artifact["spans_jsonl"].splitlines()
    head = json.loads(lines[0])
    assert head["format"] == SPAN_FORMAT
    assert head["scenario"] == "medium-inversion"
    assert head["clock"] == artifact["clock"]
    for line in lines[1:]:
        span = json.loads(line)
        # stable field order is part of the schema
        assert list(span) == [
            "sid", "kind", "thread", "start", "end", "parent", "attrs"
        ]
        assert span["end"] >= span["start"]
    sids = [json.loads(line)["sid"] for line in lines[1:]]
    assert sids == sorted(sids)


def test_chrome_trace_is_valid_and_exact(artifact):
    doc = json.loads(artifact["chrome_json"])
    events = doc["traceEvents"]
    assert all(e["ph"] in ("M", "X", "i", "C", "b", "e") for e in events)
    # the priority-inversion overlay: async b/e pairs on their own track
    begins = [e for e in events if e["ph"] == "b"]
    ends = [e for e in events if e["ph"] == "e"]
    assert len(begins) == len(ends)
    for b in begins:
        assert b["cat"] == "inversion"
        assert b["args"]["resolution"]
    # one named track per thread plus the VM pseudo-track
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert "(vm)" in names
    assert any(n != "(vm)" for n in names)
    # counter tracks are present
    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert counters == {"ready_queue", "undo_log"}
    # ISSUE acceptance: per-thread attribution sums to the final clock
    other = doc["otherData"]
    total = sum(
        sum(cats.values()) for cats in other["cycles_by_track"].values()
    )
    assert total == other["clock"] == other["cycles_total"]
    assert other["clock"] == artifact["clock"]


def test_duration_events_fit_the_run(artifact):
    doc = json.loads(artifact["chrome_json"])
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            assert e["ts"] >= 0
            assert e["ts"] + e["dur"] <= artifact["clock"]


@pytest.mark.parametrize("mode", MODES)
def test_byte_identical_across_interpreters(mode):
    fast = capture_run(ObsSpec(
        scenario="deadlock-pair", mode=mode, interp="fast"
    ))
    ref = capture_run(ObsSpec(
        scenario="deadlock-pair", mode=mode, interp="reference"
    ))
    assert fast["spans_jsonl"] == ref["spans_jsonl"]
    assert fast["chrome_json"] == ref["chrome_json"]
    assert fast["folded"] == ref["folded"]
    assert fast["profile"] == ref["profile"]


def test_byte_identical_across_repetitions():
    spec = ObsSpec(scenario="philosophers")
    a = capture_run(spec)
    b = capture_run(spec)
    assert a["spans_jsonl"] == b["spans_jsonl"]
    assert a["chrome_json"] == b["chrome_json"]
    assert a["folded"] == b["folded"]


def test_byte_identical_across_worker_counts(tmp_path):
    """Same artifact whether captured serially or on a loopback fleet."""
    from repro.bench.parallel import ResultCache, RunEngine
    from repro.obs.capture import capture_with_engine

    spec = ObsSpec(scenario="deadlock-pair")
    serial = capture_with_engine(
        spec, engine=RunEngine(jobs=1, cache=None)
    )
    with RunEngine(jobs=2, cache=None) as engine:
        pooled = capture_with_engine(spec, engine=engine)
    cached_engine = RunEngine(
        jobs=1, cache=ResultCache(str(tmp_path / "cache"))
    )
    cached_miss = capture_with_engine(spec, engine=cached_engine)
    cached_hit = capture_with_engine(spec, engine=cached_engine)
    for other in (pooled, cached_miss, cached_hit):
        assert serial["spans_jsonl"] == other["spans_jsonl"]
        assert serial["chrome_json"] == other["chrome_json"]
        assert serial["folded"] == other["folded"]


def test_folded_stack_lines_sum_to_guest_cycles(artifact):
    total = 0
    for line in artifact["folded"].splitlines():
        stack, cycles = line.rsplit(" ", 1)
        assert ";" in stack
        total += int(cycles)
    guest = sum(
        cats.get("guest", 0)
        for cats in artifact["profile"]["tracks"].values()
    )
    assert total == guest


def test_summary_reports_trace_health(artifact):
    trace = artifact["summary"]["trace"]
    assert trace["dropped"] == 0
    assert trace["sink_errors"] == 0
    assert trace["events"] > 0


def test_replay_capture_matches_checker_semantics(tmp_path):
    """A checker counterexample replays into a coherent artifact."""
    from repro.check.explorer import CheckItem, run_check_cell
    from repro.check.oracle import counterexample_payload
    from repro.obs.capture import capture_replay

    item = CheckItem(scenario="handoff", prefix=(0, 1),
                     inject="undo-drop")
    result = run_check_cell(item)
    payload = counterexample_payload(
        scenario="handoff", bound=1, modes=item.modes,
        inject="undo-drop", result=result,
        minimized=list(item.prefix),
    )
    artifact = capture_replay(payload)
    assert artifact["mode"] == item.modes[0]
    doc = json.loads(artifact["chrome_json"])
    other = doc["otherData"]
    total = sum(
        sum(cats.values()) for cats in other["cycles_by_track"].values()
    )
    assert total == other["clock"]
    # replays are deterministic too
    again = capture_replay(payload)
    assert artifact["chrome_json"] == again["chrome_json"]


@pytest.mark.parametrize("scenario", ["handoff", "server-storm", "fig6b"])
def test_spans_from_jsonl_inverts_the_writer(scenario):
    """``spans_from_jsonl`` is the one reader of the format
    ``spans_jsonl_bytes`` writes: a capture's own spans round-trip
    through it unchanged, attributes and open markers included."""
    from repro.obs.capture import build_capture_vm
    from repro.obs.export import spans_from_jsonl, spans_jsonl_bytes

    spec, vm, builder, _ = build_capture_vm(ObsSpec(scenario=scenario))
    vm.run()
    spans = builder.finish(vm.clock.now)
    assert spans
    header = {"scenario": spec.scenario, "clock": vm.clock.now}
    data = spans_jsonl_bytes(spans, header)
    assert spans_from_jsonl(data) == spans
    assert spans_from_jsonl(data.decode("utf-8")) == spans
