"""The ``python -m repro.obs`` CLI, the bench/check observability flags,
the tracer sink-hardening satellite, and the timeline width budget."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.core import sections
from repro.obs.__main__ import main as obs_main
from repro.vm.assembler import Asm
from repro.vm.vmcore import JVM, VMOptions

SERIAL = ["--jobs", "1", "--no-cache"]


def _obs(capsys, *argv):
    rc = obs_main(list(argv) + SERIAL)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_list_names_scenarios(capsys):
    rc = obs_main(["--list"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("fig5a", "fig8c", "handoff", "deadlock-pair",
                 "philosophers"):
        assert name in out


def test_summary_subcommand(capsys):
    rc, out, err = _obs(capsys, "summary", "--scenario", "deadlock-pair")
    assert rc == 0
    assert "outcome completed" in out
    assert "cycles by track" in out
    assert "0 dropped, 0 sink errors" in out
    assert "WARNING" not in err


def test_spans_subcommand_json(capsys):
    rc, out, _ = _obs(capsys, "spans", "--scenario", "deadlock-pair",
                      "--json")
    assert rc == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["format"] == "repro.obs/1"
    kinds = {json.loads(line)["kind"] for line in lines[1:]}
    assert "thread" in kinds and "section" in kinds


def test_profile_subcommand(capsys):
    rc, out, _ = _obs(capsys, "profile", "--scenario", "deadlock-pair")
    assert rc == 0
    assert "undo_log" in out and "rollback" in out
    assert "final clock" in out


def test_export_chrome(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    rc, out, err = _obs(capsys, "export", "--scenario", "handoff",
                        "--fmt", "chrome", "-o", str(out_file))
    assert rc == 0
    assert str(out_file) in out
    doc = json.loads(out_file.read_text())
    other = doc["otherData"]
    total = sum(
        sum(cats.values()) for cats in other["cycles_by_track"].values()
    )
    assert total == other["clock"] == other["cycles_total"]
    assert "perfetto" in err


def test_export_folded(tmp_path, capsys):
    out_file = tmp_path / "stacks.folded"
    rc, _, _ = _obs(capsys, "export", "--scenario", "deadlock-pair",
                    "--fmt", "folded", "-o", str(out_file))
    assert rc == 0
    for line in out_file.read_text().splitlines():
        stack, cycles = line.rsplit(" ", 1)
        int(cycles)


def test_summary_warns_loudly_on_truncation(monkeypatch, capsys):
    """Satellite: a truncated trace must shout, not whisper."""
    from repro.vm import tracing

    real_init = tracing.Tracer.__init__

    def tiny_init(self, enabled=False, capacity=1_000_000):
        real_init(self, enabled=enabled, capacity=8)

    monkeypatch.setattr(tracing.Tracer, "__init__", tiny_init)
    rc, _, err = _obs(capsys, "summary", "--scenario", "deadlock-pair")
    assert rc == 0
    assert "WARNING" in err
    assert "TRUNCATED" in err


def test_unknown_scenario_is_a_helpful_error(capsys):
    with pytest.raises(KeyError, match="known:"):
        _obs(capsys, "summary", "--scenario", "no-such-thing")


# ------------------------------------------------ tracer sink hardening
def test_raising_sink_is_detached_not_fatal():
    """Satellite: an observability sink must never take down the run."""
    from repro.bench.workloads import build_deadlock_pair

    Asm._sync_counter = 0
    sections._section_ids = itertools.count(1)
    vm = JVM(VMOptions(mode="rollback", trace=True))
    calls = []

    def bad_sink(event):
        calls.append(event)
        raise RuntimeError("observer crashed")

    good = []
    vm.tracer.add_sink(bad_sink)
    vm.tracer.add_sink(good.append)
    build_deadlock_pair(hold_cycles=800, work=20).install(vm)
    vm.run()  # must complete despite the raising sink
    metrics = vm.metrics()
    assert metrics["trace"]["sink_errors"] == 1
    assert len(calls) == 1, "raising sink is detached after first error"
    # the healthy sink kept receiving events
    assert len(good) == len(vm.tracer.events)
    from repro.core.metrics import metrics_health

    assert any("sink" in w for w in metrics_health(metrics))


# -------------------------------------------------- timeline width budget
def _timeline_vm():
    from repro.bench.workloads import build_deadlock_pair

    Asm._sync_counter = 0
    sections._section_ids = itertools.count(1)
    vm = JVM(VMOptions(mode="rollback", trace=True))
    build_deadlock_pair(hold_cycles=800, work=20).install(vm)
    vm.run()
    return vm


def test_timeline_max_width_budget():
    from repro.vm.timeline import render_timeline

    vm = _timeline_vm()
    out = render_timeline(vm, max_width=50)
    rows = [l for l in out.splitlines() if "|" in l]
    assert rows
    assert all(len(l) <= 50 for l in rows)


def test_timeline_legacy_behaviour_pinned():
    from repro.vm.timeline import render_timeline

    vm = _timeline_vm()
    # explicit width: exactly that many cells (pre-budget behaviour)
    out = render_timeline(vm, width=30)
    for line in out.splitlines():
        if "|" in line:
            assert len(line.split("|")[1]) == 30
    # max_width=None: the legacy fixed 80 cells
    legacy = render_timeline(vm, max_width=None)
    for line in legacy.splitlines():
        if "|" in line:
            assert len(line.split("|")[1]) == 80


def test_timeline_auto_respects_terminal(monkeypatch):
    import os

    from repro.vm import timeline

    monkeypatch.setattr(
        timeline.shutil, "get_terminal_size",
        lambda fallback=(80, 24): os.terminal_size((44, 24)),
    )
    vm = _timeline_vm()
    out = timeline.render_timeline(vm)
    rows = [l for l in out.splitlines() if "|" in l]
    assert rows
    assert all(len(l) <= 44 for l in rows)


# ------------------------------------------------------- bench/check flags
def test_bench_profile_and_trace_flags(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    from repro.bench.__main__ import main as bench_main

    trace = tmp_path / "bench.json"
    rc = bench_main(["6b", "--reps", "1", "--profile",
                     "--trace-out", str(trace),
                     "--jobs", "1", "--no-cache"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "cycle profile" in captured.err
    doc = json.loads(trace.read_text())
    other = doc["otherData"]
    total = sum(
        sum(cats.values()) for cats in other["cycles_by_track"].values()
    )
    assert total == other["clock"]


def test_check_replay_trace_out(tmp_path, capsys, monkeypatch):
    from repro.check.__main__ import main as check_main
    from repro.obs import capture, debug

    cex = tmp_path / "cex.json"
    rc = check_main(["--scenario", "handoff", "--bound", "1",
                     "--inject-bug", "undo-drop", "--out", str(cex),
                     "--jobs", "1"])
    assert rc == 1  # divergence found
    capsys.readouterr()
    trace = tmp_path / "replay.json"
    rc = check_main(["--replay", str(cex), "--trace-out", str(trace)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "divergence reproduced" in captured.out
    doc = json.loads(trace.read_text())
    other = doc["otherData"]
    assert other["scenario"] == "replay:handoff"
    total = sum(
        sum(cats.values()) for cats in other["cycles_by_track"].values()
    )
    assert total == other["clock"]
    # with --debug too, the replay runs once: the debugger's recording
    # writes the same trace bytes
    builds = []
    build = capture.build_replay_vm

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(debug, "build_replay_vm", counted)
    monkeypatch.setattr(capture, "build_replay_vm", counted)
    both = tmp_path / "replay-debug.json"
    rc = check_main(["--replay", str(cex), "--trace-out", str(both),
                     "--debug", "--debug-state"])
    capsys.readouterr()
    assert rc == 0
    assert len(builds) == 1
    assert both.read_bytes() == trace.read_bytes()


# ------------------------------------------- episodes & time-travel CLI
def test_episodes_subcommand_renders(capsys):
    rc, out, _ = _obs(capsys, "episodes", "--scenario",
                      "medium-inversion")
    assert rc == 0
    assert "revocation" in out
    assert "reconciliation residue: 0" in out
    assert "high(10)" in out


def test_episodes_json_identical_across_jobs(capsys):
    outs = []
    for jobs in ("1", "4"):
        rc = obs_main(["episodes", "--scenario", "medium-inversion",
                       "--json", "--jobs", jobs, "--no-cache"])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    json.loads(outs[0])  # canonical single-document output


def test_episodes_compare_policy_table(capsys):
    """The per-policy inversion table: unmodified >> the fixes."""
    rc, out, _ = _obs(capsys, "episodes", "--scenario",
                      "medium-inversion", "--compare")
    assert rc == 0
    assert "vs-unmodified" in out
    assert "1.0000" in out    # unmodified baseline
    assert "0.0181" in out    # rollback (preemptible sections)
    assert "0.2223" in out    # classical inheritance
    assert "revocation=1" in out


def test_profile_sites_table(capsys):
    """Satellite: per-site abort/commit table with a pinned golden."""
    rc, out, _ = _obs(capsys, "profile", "--scenario",
                      "medium-inversion", "--sites", "--json")
    assert rc == 0
    (row,) = json.loads(out)
    assert row == {
        "site": "<Inversion#13>", "sections": 3, "commit": 2,
        "rollback": 1, "abandoned": 0, "leaked": 0,
        "held_cycles": 11436, "blocked_cycles": 1871,
        "contenders": 2, "abort_pct": 33.3,
    }


def test_profile_sites_renders(capsys):
    rc, out, _ = _obs(capsys, "profile", "--scenario",
                      "medium-inversion", "--sites")
    assert rc == 0
    assert "<Inversion#13>" in out
    assert "abort" in out


def test_debug_print_state_headless(capsys):
    rc, out, err = _obs(capsys, "debug", "--scenario",
                        "medium-inversion", "--episode", "1",
                        "--print-state")
    assert rc == 0
    assert "episode 1: high" in err
    assert "resolution revocation" in err
    assert "monitors:" in out
    assert "high" in out and "low" in out


def test_debug_print_state_deterministic(capsys):
    outs = []
    for _ in range(2):
        rc = obs_main(["debug", "--scenario", "medium-inversion",
                       "--episode", "1", "--print-state", "--json"]
                      + SERIAL)
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    state = json.loads(outs[0])
    assert any(
        c["chain"][0] == "high" and c["chain"][-1] == "low"
        for c in state["blocking_chains"]
    )


def test_check_replay_opens_in_debugger(tmp_path, capsys):
    """--replay --debug: the counterexample opens positioned in the
    time-travel debugger, headless via --debug-state."""
    from repro.check.__main__ import main as check_main

    cex = tmp_path / "cex.json"
    rc = check_main(["--scenario", "handoff", "--bound", "1",
                     "--inject-bug", "undo-drop", "--out", str(cex),
                     "--jobs", "1"])
    assert rc == 1
    capsys.readouterr()
    rc = check_main(["--replay", str(cex), "--debug",
                     "--debug-seek", "0", "--debug-state"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "clock" in captured.out
    assert "monitors:" in captured.out or "thread" in captured.out
