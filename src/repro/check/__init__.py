"""Schedule-exploration checking: systematic interleaving coverage.

The deterministic VM makes every schedule a pure function of its choice
list; this package turns that determinism into a verification engine:

* :mod:`repro.check.explorer` — CHESS-style bounded-preemption
  enumeration of scheduler decisions, plus seeded random walks;
* :mod:`repro.check.oracle` — the cross-policy differential oracle
  (rollback vs. inheritance vs. unmodified must agree on final state);
* :mod:`repro.check.lockset` — Eraser-style dynamic data-race and
  lock-order-inversion detection over the trace stream;
* :mod:`repro.check.minimize` — ddmin schedule minimization;
* ``python -m repro.check`` — the command-line front end.

See ``docs/checking.md`` for the algorithm and the counterexample format.
"""

from repro.check.explorer import (
    DEFAULT_MODES,
    CheckItem,
    ExplorationReport,
    ScheduleController,
    check_vm,
    explore,
    run_check_cell,
    run_schedule,
)
from repro.check.lockset import (
    LocksetAnalyzer,
    run_lockset_fig5,
    run_lockset_scenario,
)
from repro.check.minimize import ddmin, minimize_counterexample
from repro.check.oracle import (
    COUNTEREXAMPLE_FORMAT,
    counterexample_cell,
    counterexample_payload,
    final_fingerprint,
    fingerprint_digest,
    replay_counterexample,
)
from repro.check.scenarios import get_scenario

__all__ = [
    "DEFAULT_MODES",
    "COUNTEREXAMPLE_FORMAT",
    "CheckItem",
    "ExplorationReport",
    "LocksetAnalyzer",
    "ScheduleController",
    "check_vm",
    "counterexample_cell",
    "counterexample_payload",
    "ddmin",
    "explore",
    "final_fingerprint",
    "fingerprint_digest",
    "get_scenario",
    "minimize_counterexample",
    "replay_counterexample",
    "run_check_cell",
    "run_lockset_fig5",
    "run_lockset_scenario",
    "run_schedule",
]
