"""Time-travel debugger: checkpoint streams, restore + deterministic
re-execution, seek fidelity (the ISSUE's byte-identity acceptance),
the inspector, and the artifact-store / engine lanes."""

from __future__ import annotations

import pickle

import pytest

from repro.check.oracle import final_fingerprint, fingerprint_digest
from repro.obs.capture import ObsSpec, capture_run
from repro.obs.debug import (
    DebugRecording,
    DebugSession,
    inspect_vm,
    record,
    record_with_engine,
    render_state,
)

SPEC = ObsSpec(scenario="medium-inversion")


@pytest.fixture(scope="module")
def recording():
    return record(SPEC, interval=4)


@pytest.fixture(scope="module")
def straight():
    """The same spec run straight to the end, no checkpoints — the
    reference timeline every seek must land back on."""
    from repro.obs.capture import build_capture_vm

    _, vm, _, _ = build_capture_vm(SPEC)
    vm.begin_run()
    while vm.scheduler.step():
        pass
    return vm


# ------------------------------------------------------------- recording
def test_recording_artifact_matches_capture(recording):
    """Recording a run must not perturb it: the embedded artifact is
    byte-identical to a plain capture of the same spec."""
    artifact = capture_run(SPEC)
    for key in ("spans_jsonl", "chrome_json", "folded", "clock",
                "outcome", "metrics", "summary"):
        assert recording.artifact[key] == artifact[key], key
    assert recording.clock == artifact["clock"]
    assert recording.outcome == artifact["outcome"]


def test_checkpoint_stream_shape(recording):
    clocks = [c.clock_now for c in recording.checkpoints]
    assert clocks == sorted(clocks)
    assert len(recording.checkpoints) > 2  # interval=4 → several snaps
    b = recording.boundaries
    assert b == sorted(set(b))
    assert b[-1] == recording.clock


def test_interval_validation():
    with pytest.raises(ValueError):
        record(SPEC, interval=0)


# ---------------------------------------------------------- seek fidelity
@pytest.mark.parametrize("interp", ["fast", "reference"])
def test_seek_then_run_to_end_matches_straight_run(interp, straight):
    """ISSUE acceptance: seek to cycle T, run to the end — clock, trace,
    metrics and final fingerprint byte-identical to the straight run."""
    spec = ObsSpec(scenario="medium-inversion", interp=interp)
    rec = record(spec, interval=4)
    session = DebugSession(rec)
    session.seek(rec.clock // 2)
    assert 0 < session.now < rec.clock
    while session._step_once():
        pass
    vm = session.vm
    assert vm.clock.now == straight.clock.now == rec.clock
    assert vm.metrics() == straight.metrics()
    assert vm.tracer.render() == straight.tracer.render()
    fp = final_fingerprint(vm, rec.outcome)
    ref = final_fingerprint(straight, rec.outcome)
    assert fp == ref
    assert fingerprint_digest(fp) == fingerprint_digest(ref)


def test_seek_into_rollback_episode_then_drain(straight):
    """The mid-rollback seek target: land inside the inversion window,
    observe the blocked chain, then drain to the same end state."""
    rec = record(ObsSpec(scenario="medium-inversion"), interval=4)
    session = DebugSession(rec)
    episode = session.seek_episode(1)
    assert episode["resolution"] == "revocation"
    assert episode["start"] <= session.now <= episode["end"]
    state = session.state()
    high = next(t for t in state["threads"] if t["name"] == "high")
    assert high["state"] == "blocked"
    assert high["blocked_on"] == episode["mon"]
    (chain,) = [
        c for c in state["blocking_chains"] if c["chain"][0] == "high"
    ]
    assert chain["chain"][-1] == "low"
    assert not chain["cyclic"]
    # an active blocked span covers this cycle
    assert any(
        s["kind"] == "blocked" and s["thread"] == "high"
        for s in state["active_spans"]
    )
    while session._step_once():
        pass
    assert session.now == rec.clock
    assert session.vm.metrics() == straight.metrics()


# --------------------------------------------------------------- movement
def test_step_until_back_semantics(recording):
    session = DebugSession(recording)
    assert session.now == recording.boundaries[0]
    t1 = session.step()
    assert t1 >= recording.boundaries[0]
    mid = recording.clock // 2
    t2 = session.until(mid)
    assert t2 >= mid or t2 == recording.clock
    t3 = session.back()
    assert t3 < t2
    # until backwards is a seek
    t4 = session.until(recording.boundaries[0])
    assert t4 <= t3
    # seek past the end clamps to the end of the recorded timeline
    assert session.seek(recording.clock + 10_000) == recording.clock


def test_sessions_are_isolated(recording):
    a = DebugSession(recording)
    b = DebugSession(recording)
    a.seek(recording.clock)
    assert b.now == recording.boundaries[0]
    assert a.now == recording.clock
    b.step(3)
    assert a.now == recording.clock  # untouched


def test_seek_episode_out_of_range(recording):
    session = DebugSession(recording)
    with pytest.raises(IndexError):
        session.seek_episode(2)
    with pytest.raises(IndexError):
        session.seek_episode(0)


def test_render_state_one_screen(recording):
    session = DebugSession(recording)
    session.seek_episode(1)
    text = render_state(session.state())
    assert "clock" in text and "monitors:" in text
    assert "high" in text and "low" in text


def test_waiting_threads_and_their_monitors_are_reported():
    """A thread in ``wait()`` holds nothing and is not blocked: the
    inspector must still name its monitor and list it in the wait set,
    even when no thread owns that monitor."""
    rec = record(ObsSpec(scenario="bounded-buffer"), interval=4)
    session = DebugSession(rec)
    assert session.seek(382) == 382
    state = session.state()
    producer = next(
        t for t in state["threads"] if t["name"] == "producer-0"
    )
    assert producer["state"] == "waiting"
    assert producer["waiting_on"] == "<Buffer#13>"
    assert producer["blocked_on"] is None and producer["held"] == []
    buffer = state["monitors"]["<Buffer#13>"]
    assert buffer["owner"] is None
    assert "producer-0" in buffer["wait_set"]
    assert "waits on <Buffer#13>" in render_state(state)


@pytest.mark.parametrize(
    "scenario", ["server-storm", "bounded-buffer", "fig5a"]
)
def test_frames_identical_across_interps(scenario):
    """Frames (pc, instruction, locals, operand stack) at every sampled
    quiescent point are the same under the predecode tier and the
    reference loop: the ``--print-state --json`` contract."""
    fast = record(ObsSpec(scenario=scenario, interp="fast"), interval=16)
    ref = record(
        ObsSpec(scenario=scenario, interp="reference"), interval=16
    )
    assert fast.boundaries == ref.boundaries
    targets = fast.boundaries[:: max(1, len(fast.boundaries) // 8)]
    a, b = DebugSession(fast), DebugSession(ref)
    for target in targets + [fast.clock]:
        assert a.seek(target) == b.seek(target)
        assert inspect_vm(a.vm) == inspect_vm(b.vm), target


# --------------------------------------------------- store / engine lanes
def test_record_with_engine_cache_roundtrip(tmp_path):
    """A warm engine serves the stored checkpoint stream as a
    DebugRecording that positions exactly like the cold one."""
    from repro.bench.parallel import ResultCache, RunEngine

    cache = ResultCache(tmp_path)
    cold_engine = RunEngine(jobs=1, cache=cache)
    first = record_with_engine(SPEC, 32, engine=cold_engine)
    assert cold_engine.stats.cache_hits == 0
    warm_engine = RunEngine(jobs=1, cache=cache)
    second = record_with_engine(SPEC, 32, engine=warm_engine)
    assert warm_engine.stats.cache_hits == 1
    assert isinstance(second, DebugRecording)
    assert second.artifact == first.artifact
    assert second.boundaries == first.boundaries
    assert len(second.checkpoints) == len(first.checkpoints)
    cold, warm = DebugSession(first), DebugSession(second)
    cold.seek_episode(1)
    warm.seek_episode(1)
    assert render_state(warm.state()) == render_state(cold.state())
    assert warm.seek(second.clock) == second.clock


def test_pickled_recording_seeks_to_the_same_state(recording):
    """The result cache and the fleet move recordings as pickles: a
    round-tripped recording must position at exactly the original's
    states, with the same ``--print-state`` text, at every target."""
    copy = pickle.loads(pickle.dumps(recording, pickle.HIGHEST_PROTOCOL))
    assert [c.clock_now for c in copy.checkpoints] == [
        c.clock_now for c in recording.checkpoints
    ]
    targets = recording.boundaries[:: max(1, len(recording.boundaries) // 6)]
    for target in targets + [recording.clock]:
        original, restored = DebugSession(recording), DebugSession(copy)
        assert restored.seek(target) == original.seek(target)
        assert restored.state() == original.state()
        assert render_state(restored.state()) == render_state(
            original.state()
        )
    original, restored = DebugSession(recording), DebugSession(copy)
    original.seek_episode(1)
    restored.seek_episode(1)
    assert render_state(restored.state()) == render_state(original.state())


def test_record_with_engine_pool_matches_serial():
    from repro.bench.parallel import RunEngine

    serial = record_with_engine(SPEC, 32, engine=RunEngine(jobs=1))
    with RunEngine(jobs=2) as engine:
        pooled = record_with_engine(SPEC, 32, engine=engine)
    assert serial.artifact == pooled.artifact
    assert serial.boundaries == pooled.boundaries


# ------------------------------------------------------------ replay lane
@pytest.fixture(scope="module")
def counterexample():
    from repro.check.explorer import CheckItem, run_check_cell
    from repro.check.oracle import counterexample_payload

    item = CheckItem(scenario="handoff", prefix=(0, 1),
                     inject="undo-drop")
    result = run_check_cell(item)
    return counterexample_payload(
        scenario="handoff", bound=1, modes=item.modes,
        inject="undo-drop", result=result,
        minimized=list(item.prefix),
    )


def test_record_replay_matches_capture_replay(counterexample):
    from repro.obs.capture import capture_replay
    from repro.obs.debug import record_replay

    rec = record_replay(counterexample, interval=8)
    artifact = capture_replay(counterexample)
    for key in ("spans_jsonl", "chrome_json", "clock", "outcome"):
        assert rec.artifact[key] == artifact[key], key
    assert rec.schedule == tuple(counterexample["minimized_schedule"])


def test_replay_session_seek_reproduces_schedule(counterexample):
    """Restoring mid-replay re-arms the decision hook with the rest of
    the recorded prefix, so the drained timeline is the counterexample's."""
    from repro.obs.debug import record_replay

    from repro.obs.capture import build_replay_vm

    rec = record_replay(counterexample, interval=8)
    session = DebugSession(rec)
    session.seek(rec.clock // 2)
    while session._step_once():
        pass
    assert session.now == rec.clock
    _, vm, _, _ = build_replay_vm(counterexample)
    vm.begin_run()
    straight = DebugSession.__new__(DebugSession)
    straight.vm = vm  # reuse the exception-absorbing drain helper
    while straight._step_once():
        pass
    assert vm.clock.now == rec.clock
    assert session.vm.tracer.render() == vm.tracer.render()
