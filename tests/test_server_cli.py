"""The ``python -m repro.server`` CLI, its byte-identity contract, the
obs-plane robustness summary, and the new server scenarios in the obs
registry."""

from __future__ import annotations

import json
import os
import subprocess

import pytest

from repro.bench.workloads import TOOL_SCENARIOS
from repro.obs.__main__ import main as obs_main
from repro.server.__main__ import main as server_main
from repro.server.plane import ServerSpec

SERIAL = ["--jobs", "1", "--no-cache"]


def _server(capsys, *argv):
    rc = server_main(list(argv) + SERIAL)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestServerCli:
    def test_list(self, capsys):
        rc = server_main(["--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("baseline", "storm", "chaos-smoke", "soak", "fleet"):
            assert name in out

    def test_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as exc:
            server_main(["--preset", "nope"] + SERIAL)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unknown server preset 'nope'; known:" in captured.err

    def test_chaos_smoke_human(self, capsys):
        rc, out, err = _server(
            capsys, "--preset", "chaos-smoke", "--chaos"
        )
        assert rc == 0
        assert "outcome=completed" in out
        assert "violations: none" in out
        assert "robustness:" in out
        assert "faults injected:" in out
        assert "OK: zero invariant violations" in err

    def test_json_is_machine_readable(self, capsys):
        rc, out, _ = _server(
            capsys, "--preset", "chaos-smoke", "--chaos", "--json"
        )
        assert rc == 0
        report = json.loads(out)
        assert report["preset"] == "chaos-smoke"
        assert report["violations"] == 0
        run = report["runs"][0]
        assert run["format"] == "repro.server/1"
        assert run["chaos"] is True

    def test_stdout_ignores_worker_count(self, capsys):
        """Satellite 2 at the CLI layer: the report is byte-identical
        for any ``--jobs`` value."""
        outputs = []
        for jobs in ("1", "3"):
            rc = server_main([
                "--preset", "chaos-smoke", "--chaos", "--json",
                "--jobs", jobs, "--no-cache",
            ])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_stdout_ignores_interp(self, capsys):
        outputs = []
        for interp in ("fast", "reference"):
            rc, out, _ = _server(
                capsys, "--preset", "chaos-smoke", "--json",
                "--interp", interp,
            )
            assert rc == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_inject_bug_inverts_exit_code(self, capsys):
        rc, _, err = _server(
            capsys, "--preset", "chaos-smoke",
            "--inject-bug", "undo-drop",
        )
        assert rc == 0
        assert "seeded defect detected" in err

    def test_requests_rescales(self, capsys):
        rc, out, _ = _server(
            capsys, "--preset", "chaos-smoke", "--requests", "60",
            "--json",
        )
        assert rc == 0
        report = json.loads(out)
        assert report["requests"] == 60
        total = sum(
            t["requests"] for t in report["runs"][0]["tiers"].values()
        )
        assert 50 <= total <= 60

    def test_compare_reports_normalized_elapsed(self, capsys):
        rc, out, _ = _server(
            capsys, "--preset", "chaos-smoke", "--compare", "--json"
        )
        assert rc == 0
        report = json.loads(out)
        ratios = report["normalized_elapsed"]
        assert len(ratios) == 1
        assert float(next(iter(ratios.values()))) > 0


class TestReplayCommand:
    """REPLAY fidelity: when a sweep fails, one stderr line per
    offending cell must round-trip every flag shaping that cell, and
    executing the emitted command verbatim reproduces the failure."""

    REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def _cli(self, command: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            command, shell=True, cwd=self.REPO,
            capture_output=True, text=True,
        )

    def test_replay_flag_runs_one_cell(self, capsys):
        rc = server_main(
            ["--preset", "chaos-smoke", "--chaos", "--replay", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        run = json.loads(out)
        assert run["format"] == "repro.server/1"
        assert run["violations"] == []

    def test_replay_matches_sweep_cell(self, capsys):
        rc, out, _ = _server(
            capsys, "--preset", "chaos-smoke", "--chaos", "--json"
        )
        assert rc == 0
        sweep_run = json.loads(out)["runs"][0]
        rc = server_main(
            ["--preset", "chaos-smoke", "--chaos", "--replay", "1"]
        )
        replay_run = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert replay_run == sweep_run

    def test_replay_command_roundtrips_all_cell_flags(self):
        from repro.fleet.cli import replay_line
        from repro.server.__main__ import _parser, _spec

        args = _parser().parse_args([
            "--preset", "storm", "--requests", "120",
            "--mode", "inheritance", "--interp", "reference",
            "--chaos", "--profile",
        ])
        line = replay_line(_parser().prog, _spec(args, 4), "vm seed 0x1")
        assert line.startswith(
            "REPLAY: PYTHONPATH=src python -m repro.server "
        )
        argv = line.split("#")[0].split("python -m repro.server")[1].split()
        back = _parser().parse_args(argv)
        assert back.replay == 4
        assert _spec(back, back.replay) == _spec(args, 4)

    def test_replay_line_reproduces_failure_verbatim(self):
        # Force a deterministic failure: in unmodified mode no rollback
        # ever runs, so the seeded undo-drop defect cannot fire and the
        # negative control reports it undetected (exit 1).
        probe = self._cli(
            "PYTHONPATH=src python -m repro.server --preset chaos-smoke "
            "--mode unmodified --inject-bug undo-drop --jobs 1 --no-cache"
        )
        assert probe.returncode == 1
        assert "undetected" in probe.stderr
        replays = [
            line for line in probe.stderr.splitlines()
            if line.startswith("REPLAY: ")
        ]
        assert len(replays) == 1
        line = replays[0]
        for flag in (
            "--preset chaos-smoke", "--mode unmodified",
            "--interp fast", "--inject-bug undo-drop", "--replay 1",
        ):
            assert flag in line, flag
        command = line[len("REPLAY: "):].split("  #")[0]
        replay = self._cli(command)
        assert replay.returncode == 1  # the failure reproduces
        run = json.loads(replay.stdout)
        assert run["violations"] == []  # still undetected, same cell
        assert run["mode"] == "unmodified"
        assert run["inject_bug"] == "undo-drop"


class TestObsIntegration:
    def test_server_scenarios_registered(self):
        table = TOOL_SCENARIOS["obs"]
        assert "server-smoke" in table
        assert "server-storm" in table
        assert "faults" in table["server-storm"].options

    def test_obs_list_includes_server(self, capsys):
        rc = obs_main(["--list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "server-smoke" in out and "server-storm" in out

    def test_summary_prints_robustness(self, capsys):
        """Satellite 1: the robustness counters appear in every obs
        summary, not just server runs."""
        rc = obs_main(
            ["summary", "--scenario", "deadlock-pair"] + SERIAL
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "robustness:" in out
        for key in (
            "retry_budget_exhausted", "degradations_to_inheritance",
            "watchdog_trips",
        ):
            assert key in out

    def test_server_smoke_capture(self, capsys):
        rc = obs_main(
            ["summary", "--scenario", "server-smoke", "--json"] + SERIAL
        )
        out = capsys.readouterr().out
        assert rc == 0
        summary = json.loads(out)
        assert summary["outcome"] == "completed"
        assert summary["robustness"]["watchdog_trips"] == 0
