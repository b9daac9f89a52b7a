"""The one scenario registry: every named guest program is declared once
in :data:`repro.bench.workloads.SCENARIOS`, and each tool runs the rows
a field of the row selects for it."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.bench.workloads import SCENARIOS, TOOL_SCENARIOS, lookup_scenario
from repro.check.__main__ import main as check_main
from repro.faults import campaign
from repro.obs.__main__ import main as obs_main
from repro.server.__main__ import main as server_main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

CHECK_NAMES = [
    "barge", "handoff", "handoff-trio", "lock-order", "mini-barge",
    "mini-handoff", "mini-racy", "pileup4", "pileup6", "racy-yield",
]
OBS_NAMES = [
    "bank", "barge", "bounded-buffer", "deadlock-pair",
    "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c",
    "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c",
    "handoff", "handoff-trio", "lock-order", "medium-inversion",
    "mini-barge", "mini-handoff", "mini-racy", "philosophers",
    "pileup4", "pileup6", "racy-yield",
    "server-fleet", "server-smoke", "server-storm",
]
CAMPAIGN_NAMES = [
    "storm-philosophers", "exception-rain-bank", "exception-rain-inversion",
    "handoff-delay-buffer", "undo-perturb-storm", "deadlock-ring",
    "server-chaos",
]
SERVER_NAMES = ["baseline", "chaos-smoke", "fleet", "soak", "storm"]


def _listed(main, capsys) -> list[str]:
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    return [line.split(":", 1)[0] for line in out.splitlines()]


# ------------------------------------------------------------ each tool's rows
def test_check_list_names(capsys):
    assert _listed(check_main, capsys) == CHECK_NAMES


def test_obs_list_names(capsys):
    assert _listed(obs_main, capsys) == OBS_NAMES


def test_server_list_names(capsys):
    assert _listed(server_main, capsys) == SERVER_NAMES


class _RecordingEngine:
    """Stands in for a RunEngine: records the cell matrix and answers
    every cell with an empty fragment, so no VM runs."""

    def __init__(self) -> None:
        self.cells: list = []

    def map(self, fn, items):
        self.cells = list(items)
        return [
            {"outcome": "completed", "violations": [], "injected": {},
             "metrics": {k: 0 for k in campaign.REPORTED_METRICS}}
            for _ in self.cells
        ]


def test_campaign_report_order():
    engine = _RecordingEngine()
    report = campaign.run_campaign(2, engine=engine)
    assert list(report["scenarios"]) == CAMPAIGN_NAMES
    assert [c.scenario for c in engine.cells[::2]] == CAMPAIGN_NAMES


# -------------------------------------------------------------- the one table
def test_every_name_is_declared_once():
    counts = Counter(s.name for s in SCENARIOS)
    assert [name for name, n in counts.items() if n > 1] == []
    assert set(counts) == set(OBS_NAMES) | set(CAMPAIGN_NAMES)


def test_tools_select_rows_by_a_field():
    rows = {s.name: s for s in SCENARIOS}
    assert TOOL_SCENARIOS["check"] == {
        n: s for n, s in rows.items() if s.explorable
    }
    assert all(
        s.plan is not None and s.check is not None
        for s in TOOL_SCENARIOS["campaign"].values()
    )
    assert all(s.plan is None for s in TOOL_SCENARIOS["obs"].values())


def test_lookup_is_the_table_row():
    assert lookup_scenario("check", "handoff") is TOOL_SCENARIOS["check"][
        "handoff"
    ]
    assert lookup_scenario("obs", "handoff") is lookup_scenario(
        "check", "handoff"
    )


@pytest.mark.parametrize("tool", ("check", "obs", "campaign"))
def test_unknown_name_names_the_known_rows(tool):
    known = ", ".join(sorted(TOOL_SCENARIOS[tool]))
    with pytest.raises(ValueError) as exc:
        lookup_scenario(tool, "nope")
    assert str(exc.value) == (
        f"unknown {tool} scenario 'nope'; known: {known}"
    )


# -------------------------------------------------- one error for each CLI
@pytest.mark.parametrize("main, argv, kind", [
    (check_main, ["--scenario", "nope"], "check scenario"),
    (obs_main, ["summary", "--scenario", "nope"], "obs scenario"),
    (server_main, ["--preset", "nope"], "server preset"),
    (campaign.main, ["--scenario", "nope"], "campaign scenario"),
], ids=["check", "obs", "server", "campaign"])
def test_cli_rejects_unknown_name(main, argv, kind, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"error: unknown {kind} 'nope'; known: " in captured.err


# -------------------------------------------------------- lazy builders
def test_checker_lookup_loads_no_other_tool():
    """Looking up and building a checker row imports no server, obs or
    campaign module: the only ``repro.faults`` modules loaded are the
    ones the package root loads for ``repro.FaultPlan``."""
    code = (
        "import sys, repro\n"
        "root = set(sys.modules)\n"
        "from repro.check.scenarios import get_scenario\n"
        "get_scenario('handoff-trio').build()\n"
        "print(' '.join(sorted(set(sys.modules) - root)))\n"
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith('repro.faults'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.splitlines()
    added = out[0].split()
    other_tools = ("repro.server", "repro.faults", "repro.obs")
    assert [m for m in added if m.startswith(other_tools)] == []
    assert "repro.check.scenarios" in added
    assert out[1].split() == ["repro.faults", "repro.faults.plane"]
