"""One cell, one replay: every reproduction path runs the cell that failed.

* ``REPLAY:`` lines are generated from the cell
  (:func:`repro.fleet.cli.replay_line`), so each field of a
  :class:`~repro.server.plane.ServerSpec` and a
  :class:`~repro.faults.campaign.CampaignCell` must survive the trip
  through the CLI's own parser — a field added without a flag fails here;
* a counterexample replay VM (:func:`repro.obs.capture.build_replay_vm`)
  is the checker VM (:func:`repro.check.explorer.check_vm`), so it ends
  in the same final state as the checker's own cell;
* :func:`repro.check.oracle.counterexample_cell` is the one reader of the
  counterexample format;
* :func:`repro.errors.audited_run` names every way an audited run ends.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.bench.workloads import TOOL_SCENARIOS
from repro.check.explorer import DEFAULT_MODES, CheckItem, run_check_cell
from repro.check.oracle import (
    counterexample_cell,
    final_fingerprint,
    fingerprint_digest,
)
from repro.errors import (
    DeadlockError,
    InvariantViolation,
    StarvationError,
    VerifyError,
    audited_run,
    run_outcome,
)
from repro.faults import campaign
from repro.fleet.cli import replay_line
from repro.obs.capture import build_replay_vm, capture_replay
from repro.server import __main__ as server_cli
from repro.server.plane import ServerSpec

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _argv(line: str, prog: str) -> list[str]:
    assert line.startswith(f"REPLAY: PYTHONPATH=src {prog} ")
    return line.split("  # ")[0].split(prog)[1].split()


# ------------------------------------------------------ REPLAY round-trip
#: one non-default value per field; a new field needs an entry here
SERVER_VARIANTS = {
    "preset": "storm",
    "requests": 120,
    "seed_index": 4,
    "mode": "inheritance",
    "interp": "reference",
    "chaos": True,
    "inject_bug": "undo-drop",
    "profile": True,
}

CAMPAIGN_VARIANTS = {
    "scenario": "deadlock-ring",
    "seed_index": 7,
    "interp": "reference",
}


def _server_roundtrip(spec: ServerSpec) -> ServerSpec:
    parser = server_cli._parser()
    line = replay_line(parser.prog, spec, "vm seed 0x1")
    args = parser.parse_args(_argv(line, parser.prog))
    return server_cli._spec(args, args.replay)


def _campaign_roundtrip(cell: campaign.CampaignCell) -> campaign.CampaignCell:
    parser = campaign._parser()
    line = replay_line(parser.prog, cell, "vm seed 0x1")
    args = parser.parse_args(_argv(line, parser.prog))
    return campaign.CampaignCell(args.scenario, args.replay, args.interp)


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(ServerSpec)]
)
def test_server_replay_line_roundtrips_each_field(name):
    spec = dataclasses.replace(
        ServerSpec("chaos-smoke"), **{name: SERVER_VARIANTS[name]}
    )
    assert _server_roundtrip(spec) == spec


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(campaign.CampaignCell)]
)
def test_campaign_replay_line_roundtrips_each_field(name):
    base = campaign.CampaignCell("storm-philosophers", 1)
    cell = dataclasses.replace(base, **{name: CAMPAIGN_VARIANTS[name]})
    assert _campaign_roundtrip(cell) == cell


def test_replay_line_format():
    cell = campaign.CampaignCell("unit-fails", 3, "reference")
    assert replay_line("python -m x", cell, "vm seed 0xabc") == (
        "REPLAY: PYTHONPATH=src python -m x --scenario unit-fails "
        "--replay 3 --interp reference  # vm seed 0xabc"
    )
    spec = ServerSpec("baseline", chaos=False, inject_bug="", requests=0)
    line = replay_line("python -m y", spec, "n")
    # false, empty and zero fields fall back to the flag defaults
    assert "--chaos" not in line
    assert "--inject-bug" not in line
    assert "--requests" not in line


def test_campaign_fleet_matches_serial():
    """Cells cross the fleet wire as pickles: the CLI run as ``python -m``
    must still ship importable ``CampaignCell`` instances."""
    env = dict(os.environ, PYTHONPATH="src", REPRO_BENCH_CACHE="0")
    outs = [
        subprocess.run(
            [sys.executable, "-m", "repro.faults.campaign", "--seeds", "2",
             "--scenario", "storm-philosophers", "--jobs", jobs],
            cwd=REPO, env=env, capture_output=True, text=True,
        )
        for jobs in ("1", "2")
    ]
    for proc in outs:
        assert proc.returncode == 0, proc.stderr
    assert outs[0].stdout == outs[1].stdout


# --------------------------------------------------- counterexample cells
@pytest.fixture(scope="module")
def undo_drop_payload(tmp_path_factory):
    from repro.check.__main__ import main as check_main

    path = tmp_path_factory.mktemp("ce") / "ce.json"
    rc = check_main([
        "--scenario", "handoff", "--bound", "1",
        "--inject-bug", "undo-drop", "--out", str(path),
        "--jobs", "1", "--no-cache",
    ])
    assert rc == 1
    return json.loads(path.read_text())


def test_counterexample_cell_maps_minimized_schedule(undo_drop_payload):
    cell = counterexample_cell(undo_drop_payload)
    assert cell == CheckItem(
        scenario="handoff",
        prefix=tuple(undo_drop_payload["minimized_schedule"]),
        modes=tuple(undo_drop_payload["modes"]),
        inject="undo-drop",
    )


def test_foreign_payload_is_a_value_error():
    foreign = {"format": "something-else", "scenario": "handoff"}
    with pytest.raises(ValueError, match="repro-check-counterexample"):
        counterexample_cell(foreign)
    with pytest.raises(ValueError, match="repro-check-counterexample"):
        capture_replay(foreign)


def _replay_digest(cell: CheckItem, mode: str) -> str:
    _, vm, _, _ = build_replay_vm(cell, mode)
    return fingerprint_digest(final_fingerprint(vm, run_outcome(vm.run)))


@pytest.mark.parametrize("name", sorted(TOOL_SCENARIOS["check"]))
def test_replay_vm_matches_check_cell(name):
    cell = CheckItem(name)
    digests = run_check_cell(cell)["digests"]
    for mode in DEFAULT_MODES:
        assert _replay_digest(cell, mode) == digests[mode], mode


def test_replay_vm_matches_counterexample_cell(undo_drop_payload):
    cell = counterexample_cell(undo_drop_payload)
    digests = run_check_cell(cell)["digests"]
    for mode in cell.modes:
        assert _replay_digest(cell, mode) == digests[mode], mode


# ------------------------------------------------------------ audited run
class _FakeVM:
    def __init__(self, error=None) -> None:
        self.error = error

    def run(self) -> None:
        if self.error is not None:
            raise self.error


@pytest.mark.parametrize("error, outcome, violation", [
    (None, "completed", "checked"),
    (InvariantViolation("t", "bad"), "invariant-violation",
     "rollback invariant violated in thread 't': bad"),
    (DeadlockError(["a", "b"]), "DeadlockError",
     "run did not complete: DeadlockError"),
    (StarvationError(5), "StarvationError",
     "run did not complete: StarvationError"),
    (VerifyError("oops"), "VerifyError", "VerifyError: oops"),
])
def test_audited_run_outcomes(error, outcome, violation):
    assert audited_run(_FakeVM(error), lambda vm: ["checked"]) == (
        outcome, [violation]
    )


def test_audited_run_passes_clean_check():
    assert audited_run(_FakeVM(), lambda vm: []) == ("completed", [])
