"""Byte pins for the seeded undo-log defects.

``undo-drop`` is the one path that leaves a JMM dependency record with no
undo entry behind it (a stale record), and ``undo_perturb`` the one that
adds an entry no barrier logged.  Both run only in these negative controls
and in the fault campaign, so their outputs are pinned here as SHA-256
digests of the artifacts the CLIs write:

* the ``repro.check`` counterexample for ``handoff`` at bound 1 under
  ``--inject-bug undo-drop`` (the CI check-smoke command);
* the ``repro.server --preset chaos-smoke --inject-bug undo-drop`` report;
* ``repro.faults.campaign --seeds 3`` stdout, which runs ``undo_perturb``.

The digests were taken before the JMM tracker derived its records from the
undo logs; every CLI runs serially and uncached, which its byte-identity
contract says cannot change stdout.
"""

from __future__ import annotations

import hashlib

from repro.check.__main__ import main as check_main
from repro.faults.campaign import main as campaign_main
from repro.server.__main__ import main as server_main

SERIAL = ["--jobs", "1", "--no-cache"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_check_undo_drop_counterexample_pinned(tmp_path, capsys):
    out = tmp_path / "ce.json"
    rc = check_main([
        "--scenario", "handoff", "--bound", "1",
        "--inject-bug", "undo-drop", "--out", str(out),
    ] + SERIAL)
    stdout = capsys.readouterr().out.replace(str(out), "ce.json")
    assert rc == 1  # the seeded defect is found
    assert "divergences: 2" in stdout
    assert _sha(out.read_bytes()) == (
        "d4d50e489a13ba4f6f076894534d05944b332d74049c8ecccf53cec9eff015b8"
    )
    assert _sha(stdout.encode()) == (
        "3255e38eb3d3c92c0b0c9d486f86c823ddba614b75f16a3131ff7599ea0fa292"
    )


def test_server_undo_drop_report_pinned(capsys):
    rc = server_main(
        ["--preset", "chaos-smoke", "--inject-bug", "undo-drop"] + SERIAL
    )
    captured = capsys.readouterr()
    assert rc == 0  # detected, so the negative control passes
    assert "seeded defect detected" in captured.err
    assert _sha(captured.out.encode()) == (
        "afb83558e9a34873cb0c46eded405d0544c49aecab89b09a74fd697b675c8e6f"
    )


def test_fault_campaign_stdout_pinned(capsys):
    rc = campaign_main(["--seeds", "3"] + SERIAL)
    captured = capsys.readouterr()
    assert rc == 0
    assert '"undo_perturb"' in captured.out
    assert _sha(captured.out.encode()) == (
        "cc7f563b7342e725ad7e8bff8ba5f09aac5c8281afa1b87b6b4c8dab93ae405c"
    )
