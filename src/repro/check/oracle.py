"""The cross-policy differential oracle.

The paper's correctness claim (§3) is *serializability*: an execution in
which synchronized sections are preempted and rolled back must be
equivalent to some legal execution in which each section ran under plain
mutual exclusion.  The oracle operationalizes that claim: run one explored
schedule under every policy — ``rollback`` (the paper), ``inheritance``
(classical avoidance) and ``unmodified`` (plain blocking monitors) — and
require that every run that *completes* quiesces in the same
guest-observable final state.

What "same final state" means here:

* the **structural render of all static roots** — every static field,
  with reachable objects and arrays rendered by shape (class name, field
  names, element values) and *never* by object id: allocation order
  differs across interleavings, so oids are not guest-observable;
* the set of **uncaught guest exceptions** (per thread, by class);
* **quiescence violations**: any monitor still held or queued after the
  VM drained, and the policy support's own residual state
  (:meth:`repro.vm.support.RuntimeSupport.state_fingerprint` —
  undrained undo logs, uncommitted sections, unreturned priority
  boosts).  A clean run contributes empty lists, so this term only
  perturbs the digest when a policy actually corrupted something.

Runs that end in ``DeadlockError`` under a blocking policy while the
rollback VM revokes its way out are a *legal* policy difference (breaking
deadlocks is the paper's §1 selling point); outcomes are therefore
reported per mode but only completed runs join the digest comparison.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.vm.heap import VMArray, VMObject
from repro.vm.values import NULL

#: bump when the fingerprint schema changes (part of cache keys)
FINGERPRINT_VERSION = 1

COUNTEREXAMPLE_FORMAT = "repro-check-counterexample/1"


# ------------------------------------------------------------ fingerprints
def _render(value: Any, on_path: set) -> Any:
    """Structural, oid-free render of one guest value (JSON-serializable)."""
    if value is NULL or value is None:
        return None
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, VMArray):
        if value.oid in on_path:
            return ["cycle"]
        on_path.add(value.oid)
        try:
            return ["array", [_render(v, on_path) for v in value.storage]]
        finally:
            on_path.discard(value.oid)
    if isinstance(value, VMObject):
        if value.oid in on_path:
            return ["cycle"]
        on_path.add(value.oid)
        try:
            return [
                "object",
                value.classdef.name,
                [
                    [name, _render(value.fields[name], on_path)]
                    for name in sorted(value.fields)
                ],
            ]
        finally:
            on_path.discard(value.oid)
    return ["opaque", type(value).__name__]


def _monitor_violations(vm) -> list[str]:
    """Monitors still held/contended at quiescence, found from the static
    roots and class objects (sorted, path-labelled, oid-free)."""
    violations: list[str] = []
    seen: set[int] = set()

    def visit(value: Any, path: str) -> None:
        if isinstance(value, (VMObject, VMArray)):
            if value.oid in seen:
                return
            seen.add(value.oid)
            mon = value.monitor
            if mon is not None and (
                mon.is_locked() or mon.entry_queue or mon.wait_set
            ):
                owner = mon.owner.name if mon.owner is not None else None
                violations.append(
                    f"{path}: owner={owner} queued={len(mon.entry_queue)} "
                    f"waiting={len(mon.wait_set)}"
                )
            if isinstance(value, VMArray):
                for idx, v in enumerate(value.storage):
                    visit(v, f"{path}[{idx}]")
            else:
                for name in sorted(value.fields):
                    visit(value.fields[name], f"{path}.{name}")

    for (cls, fname) in sorted(vm.heap.statics):
        visit(vm.heap.statics[(cls, fname)], f"{cls}.{fname}")
    for cls in sorted(vm.heap.class_objects):
        visit(vm.heap.class_objects[cls], f"class:{cls}")
    return sorted(violations)


def final_fingerprint(vm, outcome: str) -> dict:
    """The guest-observable final state of a quiesced VM (plain data)."""
    statics = {
        f"{cls}.{fname}": _render(value, set())
        for (cls, fname), value in sorted(vm.heap.iter_statics())
    }
    uncaught = sorted(
        f"{thread.name}:{exc.classdef.name}" for thread, exc in vm.uncaught
    )
    support_fp = vm.support.state_fingerprint()
    return {
        "version": FINGERPRINT_VERSION,
        "outcome": outcome,
        "statics": statics,
        "uncaught": uncaught,
        "monitor_violations": _monitor_violations(vm),
        "support_violations": sorted(support_fp.get("violations", [])),
    }


def fingerprint_digest(fingerprint: dict) -> str:
    """Short stable digest of a fingerprint (canonical-JSON sha256)."""
    blob = json.dumps(
        fingerprint, sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -------------------------------------------------------------- divergence
def check_expectations(scenario, vm) -> list[str]:
    """Compare a completed reference run against the scenario's declared
    final statics (when it declares any)."""
    expected = scenario.expected_statics
    if not expected:
        return []
    problems = []
    for (cls, fname), want in sorted(expected.items()):
        got = vm.get_static(cls, fname)
        if got != want:
            problems.append(
                f"expected {cls}.{fname} == {want!r}, got {got!r}"
            )
    return problems


def divergence_problems(
    modes: tuple[str, ...],
    outcomes: dict[str, str],
    digests: dict[str, str],
    expectation_problems: list[str],
) -> list[str]:
    """The oracle verdict for one schedule: a (possibly empty) list of
    human-readable divergence descriptions."""
    problems = list(expectation_problems)
    completed = [m for m in modes if outcomes.get(m) == "completed"]
    if len({digests[m] for m in completed}) > 1:
        detail = ", ".join(f"{m}={digests[m]}" for m in completed)
        problems.append(f"final-state divergence: {detail}")
    reference = modes[0]
    if outcomes.get(reference) not in ("completed",):
        problems.append(
            f"reference policy {reference!r} did not complete: "
            f"{outcomes.get(reference)}"
        )
    return problems


# --------------------------------------------------------- counterexamples
def counterexample_payload(
    *,
    scenario: str,
    bound: int,
    modes: tuple[str, ...],
    inject: str | None,
    result: dict,
    minimized: list[int],
) -> dict:
    """Serializable, replayable record of one divergent schedule."""
    return {
        "format": COUNTEREXAMPLE_FORMAT,
        "scenario": scenario,
        "bound": bound,
        "modes": list(modes),
        "inject": inject,
        "schedule": list(result["schedule"]),
        "minimized_schedule": list(minimized),
        "problems": list(result["problems"]),
        "outcomes": dict(result["outcomes"]),
        "digests": dict(result["digests"]),
    }


def counterexample_cell(payload: dict):
    """The :class:`~repro.check.explorer.CheckItem` a serialized
    counterexample names: its minimized schedule as the choice prefix.

    The one reader of the payload format — every replay (oracle, trace
    capture, debugger) runs this cell.  Raises :class:`ValueError` for a
    payload of any other format."""
    if payload.get("format") != COUNTEREXAMPLE_FORMAT:
        raise ValueError(
            f"not a {COUNTEREXAMPLE_FORMAT} payload: "
            f"{payload.get('format')!r}"
        )
    from repro.check.explorer import CheckItem

    return CheckItem(
        scenario=payload["scenario"],
        prefix=tuple(payload["minimized_schedule"]),
        modes=tuple(payload["modes"]),
        inject=payload.get("inject"),
    )


def replay_counterexample(payload: dict) -> dict:
    """Re-run a serialized counterexample's minimized schedule.

    Returns ``{"result": <fresh cell result>, "reproduced": bool}`` where
    ``reproduced`` means the replay still exhibits a divergence."""
    from repro.check.explorer import run_check_cell

    result = run_check_cell(counterexample_cell(payload))
    return {"result": result, "reproduced": bool(result["problems"])}
