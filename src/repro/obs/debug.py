"""Time-travel debugging over the deterministic VM.

The VM is a pure function of (scenario, mode, seed): re-executing any
prefix reproduces it byte-for-byte.  That turns debugging inside-out —
instead of logging forward and guessing backward, :func:`record` runs
the scenario once through the capture pipeline while taking a
content-addressed *checkpoint stream* (a :class:`~repro.vm.snapshot`
snapshot every ``interval`` scheduler slices), and a
:class:`DebugSession` then positions an independent VM at **any**
virtual cycle by restoring the nearest checkpoint at-or-before the
target and deterministically re-executing the gap.  ``step`` / ``until``
move forward; ``back`` restores and re-executes to the previous
quiescent point — time travel without ever running the clock backwards.

A recording is a capture plus checkpoints, not a second way to run:
:func:`record` hands the VM that
:func:`repro.obs.capture.build_capture_vm` builds, :func:`record_replay`
the one :func:`repro.obs.capture.build_replay_vm` builds, and
:func:`record_vm` any hand-built, un-run VM to
:func:`repro.obs.capture.run_capture`, the one loop that drives an obs
VM, with a checkpoint interval.  A recording's artifact bundle is
therefore byte-identical to a plain capture of the same spec; the
seek-fidelity tests pin that a seek-then-run-to-end reproduces the
straight run's clock, trace, metrics and fingerprint exactly.  A
:class:`DebugSession` parses the recording's spans and builds its
episodes report at most once, on first use.

:func:`record_with_engine` stores checkpoint streams in the
content-addressed artifact store (:class:`repro.bench.parallel.ResultCache`)
under a key derived from the spec, the interval and the source digest,
so repeat debug sessions restore instead of re-recording — and the same
entries travel over the fleet wire protocol like any other cached
artifact.

The inspector (:func:`inspect_vm`) reads the positioned VM directly:
thread states and priorities, each thread's frames (method, pc,
instruction, locals, operand stack) and open sections, monitor owners
with their entry queues and wait sets, undo-log depths, the spans
active at the positioned cycle, and the blocking chain (who waits on
whom, walked to its root).  :func:`render_frames` adds the stack trace
and the disassembly around the pc.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from repro.errors import (
    DeadlockError,
    StarvationError,
    UncaughtGuestException,
    VMStateError,
)
from repro.obs.capture import (
    Capture,
    ObsSpec,
    attach_sinks,
    build_capture_vm,
    build_replay_vm,
    run_capture,
)
from repro.obs.episodes import build_report
from repro.obs.export import spans_from_jsonl
from repro.obs.spans import Span
from repro.vm.snapshot import VMSnapshot, restore_vm
from repro.vm.threads import ThreadState, VMThread
from repro.vm.vmcore import JVM

#: default scheduler slices between checkpoints: small enough that a
#: seek re-executes a bounded gap, large enough that the stream stays
#: O(run length / interval) snapshots
DEFAULT_INTERVAL = 64


@dataclass
class DebugRecording:
    """One recorded run: capture artifact + checkpoint stream.

    Plain picklable state — the whole recording is one artifact-store
    payload.  ``boundaries`` holds the clock value at every quiescent
    point (sorted, deduplicated): the debugger's valid stopping points.
    """

    spec: ObsSpec
    interval: int
    outcome: str
    clock: int
    artifact: dict[str, Any]
    checkpoints: list[VMSnapshot] = field(repr=False, default_factory=list)
    boundaries: list[int] = field(repr=False, default_factory=list)


def _recording(capture: Capture, interval: int) -> DebugRecording:
    artifact, checkpoints, boundaries = run_capture(capture, interval)
    return DebugRecording(
        spec=capture[0],
        interval=interval,
        outcome=artifact["outcome"],
        clock=artifact["clock"],
        artifact=artifact,
        checkpoints=checkpoints,
        boundaries=boundaries,
    )


def record(
    spec: ObsSpec, interval: int = DEFAULT_INTERVAL
) -> DebugRecording:
    """Run ``spec`` to quiescence, checkpointing every ``interval``
    slices; returns the recording (artifact byte-identical to
    :func:`repro.obs.capture.capture_run` of the same spec)."""
    return _recording(build_capture_vm(spec), interval)


def record_vm(vm: JVM, interval: int = DEFAULT_INTERVAL) -> DebugRecording:
    """Record a hand-built VM that has not run yet, so the debugger
    opens over any program, not only registered scenarios.

    The VM gets the capture's span builder and counter sampler; the
    recording's spec names it ``"<vm>"`` with the VM's own mode, seed
    and interpreter.  Raises :class:`VMStateError` for a VM that has
    already run."""
    if vm._ran or vm.scheduler.slices:
        raise VMStateError("record_vm needs a VM that has not run yet")
    spec = ObsSpec(
        scenario="<vm>",
        mode=vm.options.mode,
        seed=vm.options.seed,
        interp=vm.options.interp,
        profile=vm.profiler is not None,
    )
    return _recording((spec, vm, *attach_sinks(vm)), interval)


def record_replay(
    payload: dict[str, Any],
    mode: Optional[str] = None,
    interval: int = DEFAULT_INTERVAL,
) -> DebugRecording:
    """Record a ``repro.check`` counterexample replay with checkpoints,
    so the divergence opens in the time-travel debugger.  Every
    checkpoint carries the schedule controller armed with the minimized
    decision prefix, so seeks reproduce the counterexample schedule
    exactly.  Its artifact is byte-identical to
    :func:`repro.obs.capture.capture_replay`'s."""
    from repro.check.oracle import counterexample_cell

    cell = counterexample_cell(payload)
    return _recording(build_replay_vm(cell, mode), interval)


# --------------------------------------------------- artifact-store lane
def execute_debug_record(item: tuple[ObsSpec, int]) -> DebugRecording:
    """Worker-side entry point for :meth:`RunEngine.map` — checkpoint
    streams fan out and travel the fleet wire like any artifact."""
    spec, interval = item
    return record(spec, interval)


def record_with_engine(
    spec: ObsSpec, interval: int = DEFAULT_INTERVAL, engine=None
) -> DebugRecording:
    """Record through a RunEngine, inline or on a fleet — the
    checkpoint stream lands in (and is served from) the shared
    content-addressed store either way."""
    if engine is None:
        from repro.bench.parallel import RunEngine

        engine = RunEngine.from_env()
    return engine.map(execute_debug_record, [(spec, interval)])[0]


# ------------------------------------------------------------ the session
class DebugSession:
    """An independent VM positioned anywhere on the recorded timeline.

    Every positioning operation is restore-then-re-execute: the session
    never mutates the recording, and two sessions over one recording are
    fully isolated (every restore unpickles a fresh VM).  A restored VM
    continues under its recorded decision hook, so re-execution follows
    the recorded schedule.
    """

    def __init__(self, recording: DebugRecording) -> None:
        self.recording = recording
        self._clocks = [c.clock_now for c in recording.checkpoints]
        self.vm = restore_vm(recording.checkpoints[0])

    @cached_property
    def spans(self) -> list[Span]:
        """The recording's spans, parsed from its JSONL on first use."""
        return spans_from_jsonl(self.recording.artifact["spans_jsonl"])

    @cached_property
    def episodes_report(self) -> dict[str, Any]:
        """The recording's ``repro.obs.episodes/1`` report, built on
        first use from :attr:`spans`."""
        return build_report(self.recording.artifact, self.spans)

    # ------------------------------------------------------------ movement
    @property
    def now(self) -> int:
        return self.vm.clock.now

    def seek(self, cycle: int) -> int:
        """Position at the first quiescent point with clock >= ``cycle``
        (or the end of the run, whichever comes first); returns the
        clock actually reached."""
        base = bisect.bisect_right(self._clocks, cycle) - 1
        if base < 0:
            base = 0
        self.vm = restore_vm(self.recording.checkpoints[base])
        return self._run_to(cycle)

    def _run_to(self, cycle: int) -> int:
        vm = self.vm
        while vm.clock.now < cycle:
            if not self._step_once():
                break
        return vm.clock.now

    def _step_once(self) -> bool:
        """One scheduler step on the session VM; run-terminating
        conditions (deadlock, starvation, uncaught) end the timeline
        rather than escaping the debugger."""
        try:
            return self.vm.scheduler.step() is not None
        except (DeadlockError, StarvationError, UncaughtGuestException):
            return False

    def step(self, count: int = 1) -> int:
        """Advance ``count`` scheduler slices; returns the new clock."""
        for _ in range(max(0, count)):
            if not self._step_once():
                break
        return self.now

    def until(self, cycle: int) -> int:
        """Move to ``cycle`` in either direction."""
        if cycle < self.now:
            return self.seek(cycle)
        return self._run_to(cycle)

    def back(self, cycles: int = 0) -> int:
        """Step backwards: to the previous quiescent boundary, or by at
        least ``cycles`` virtual cycles when given."""
        target = self.now - cycles if cycles > 0 else self.now - 1
        boundaries = self.recording.boundaries
        i = bisect.bisect_right(boundaries, max(0, target)) - 1
        if i < 0:
            i = 0
        return self.seek(boundaries[i])

    def seek_episode(self, index: int) -> dict[str, Any]:
        """Position at the start of priority-inversion episode
        ``index`` (1-based, as numbered in the episodes report);
        returns the episode record."""
        episodes = self.episodes_report["episodes"]
        if not 1 <= index <= len(episodes):
            raise IndexError(
                f"episode {index} out of range: the recording has "
                f"{len(episodes)} episode(s)"
            )
        episode = episodes[index - 1]
        self.seek(episode["start"])
        return episode

    # ----------------------------------------------------------- inspector
    def state(self) -> dict[str, Any]:
        return inspect_vm(self.vm, self.spans)


# ------------------------------------------------------------- inspection
def _monitor_name(mon) -> Optional[str]:
    return None if mon is None else repr(mon.obj)


def _value(v: Any) -> Any:
    """A guest value as plain JSON: numbers and strings as they are,
    references (and ``null``) by their deterministic repr."""
    return v if type(v) in (int, float, str) else repr(v)


def _thread_state(t: VMThread) -> dict[str, Any]:
    frames = []
    for frame in reversed(t.frames):  # innermost first
        frames.append({
            "method": frame.method.qualified_name(),
            "pc": frame.pc,
            "instruction": (
                repr(frame.code[frame.pc])
                if frame.pc < len(frame.code) else None
            ),
            "locals": [_value(v) for v in frame.locals],
            "stack": [_value(v) for v in frame.stack],
        })
    return {
        "name": t.name,
        "tid": t.tid,
        "state": t.state.value,
        "priority": t.priority,
        "effective_priority": t.effective_priority,
        "inherited_priority": t.inherited_priority,
        "blocked_on": _monitor_name(t.blocked_on),
        "waiting_on": _monitor_name(t.waiting_on),
        "held": sorted(_monitor_name(m) for m in t.held_monitors),
        "sections": [repr(s) for s in t.sections],
        "frames": frames,
        "undo_depth": (
            len(t.undo_log) if t.undo_log is not None else 0
        ),
        "blocked_cycles": t.blocked_cycles,
        "revocations": t.revocations,
    }


def inspect_vm(
    vm: JVM, spans: Optional[list[Span]] = None
) -> dict[str, Any]:
    """Deterministic structured state of a positioned VM: threads with
    their frames and sections, monitors (owner / entry queue / wait
    set), undo logs, blocking chains, and — when the recorded ``spans``
    are at hand — the spans active at this cycle."""
    threads = [_thread_state(t) for t in vm.threads]
    seen = {}
    for t in vm.threads:
        for mon in (*t.held_monitors, t.blocked_on, t.waiting_on):
            if mon is not None:
                seen[id(mon)] = mon
    monitors: dict[str, dict[str, Any]] = {}
    for mon in seen.values():
        monitors[_monitor_name(mon)] = {
            "owner": mon.owner.name if mon.owner is not None else None,
            "count": mon.count,
            "ceiling": mon.ceiling,
            "entry_queue": [th.name for th in mon.entry_queue],
            "wait_set": [th.name for th in mon.wait_set],
        }
    chains = []
    for t in vm.threads:
        if t.state is not ThreadState.BLOCKED or t.blocked_on is None:
            continue
        chain = [t.name]
        walked = {t.tid}
        cur = t
        cyclic = False
        while cur.blocked_on is not None and cur.blocked_on.owner:
            nxt = cur.blocked_on.owner
            chain.append(_monitor_name(cur.blocked_on))
            chain.append(nxt.name)
            if nxt.tid in walked:
                cyclic = True
                break
            walked.add(nxt.tid)
            cur = nxt
        chains.append({"chain": chain, "cyclic": cyclic})
    state: dict[str, Any] = {
        "clock": vm.clock.now,
        "slices": vm.scheduler.slices,
        "decisions": vm.scheduler.decisions,
        "threads": threads,
        "monitors": dict(sorted(monitors.items())),
        "blocking_chains": sorted(
            chains, key=lambda c: c["chain"]
        ),
    }
    if spans is not None:
        state["active_spans"] = _active_spans(spans, vm.clock.now)
    return state


def _active_spans(spans: list[Span], cycle: int) -> list[dict[str, Any]]:
    """Recorded spans that cover ``cycle``."""
    out = []
    for s in spans:
        if s.start == s.end:
            continue  # instants never "cover" a cycle
        if s.start <= cycle and (s.attrs.get("open") or s.end > cycle):
            out.append({
                "kind": s.kind,
                "thread": s.thread,
                "start": s.start,
                "end": s.end,
                "attrs": dict(sorted(s.attrs.items())),
            })
    out.sort(key=lambda d: (d["start"], d["thread"], d["kind"]))
    return out


def repl(session: DebugSession) -> int:
    """The interactive loop: line commands against a DebugSession.
    Shared by ``python -m repro.obs debug`` and ``python -m repro.check
    --replay ... --debug``."""
    import sys

    print(
        f"recorded {session.recording.spec.scenario} "
        f"mode={session.recording.spec.mode} to cycle "
        f"{session.recording.clock} "
        f"({len(session.recording.checkpoints)} checkpoint(s)); "
        "commands: state, frame NAME, step [n], until CYCLE, "
        "back [cycles], seek CYCLE, episode N, episodes, quit",
        file=sys.stderr,
    )
    while True:
        print(f"(ttd @ {session.now}) ", end="", file=sys.stderr,
              flush=True)
        line = sys.stdin.readline()
        if not line:
            return 0
        words = line.split()
        if not words:
            continue
        cmd, rest = words[0], words[1:]
        try:
            if cmd in ("q", "quit", "exit"):
                return 0
            elif cmd in ("s", "state"):
                print(render_state(session.state()))
            elif cmd in ("f", "frame"):
                print(render_frames(session.vm, rest[0]))
            elif cmd == "step":
                session.step(int(rest[0]) if rest else 1)
                print(f"clock {session.now}")
            elif cmd == "until":
                session.until(int(rest[0]))
                print(f"clock {session.now}")
            elif cmd == "back":
                session.back(int(rest[0]) if rest else 0)
                print(f"clock {session.now}")
            elif cmd == "seek":
                session.seek(int(rest[0]))
                print(f"clock {session.now}")
            elif cmd == "episode":
                episode = session.seek_episode(int(rest[0]))
                print(
                    f"at episode {episode['index']} "
                    f"[{episode['start']}, {episode['end']}] "
                    f"resolution {episode['resolution']}; clock "
                    f"{session.now}"
                )
            elif cmd == "episodes":
                report = session.episodes_report
                for e in report["episodes"]:
                    print(
                        f"  {e['index']}: {e['thread']} blocked "
                        f"[{e['start']}, {e['end']}] on {e['mon']} "
                        f"held by {e['holder']} -> {e['resolution']}"
                    )
                if not report["episodes"]:
                    print("  (no priority-inversion episodes)")
            else:
                print(f"unknown command {cmd!r}", file=sys.stderr)
        except (ValueError, IndexError, VMStateError) as exc:
            print(f"error: {exc}", file=sys.stderr)


def render_state(state: dict[str, Any]) -> str:
    """One-screen deterministic rendering of :func:`inspect_vm`."""
    lines = [
        f"clock {state['clock']}  slices {state['slices']}  "
        f"decisions {state['decisions']}",
        "",
        f"{'thread':<16} {'state':<10} {'prio':>4} {'eff':>4} "
        f"{'undo':>5} {'blocked-cycles':>14}  blocked-on / held",
    ]
    for t in state["threads"]:
        extra = []
        if t["blocked_on"]:
            extra.append(f"on {t['blocked_on']}")
        if t["waiting_on"]:
            extra.append(f"waits on {t['waiting_on']}")
        if t["held"]:
            extra.append("holds " + ",".join(t["held"]))
        lines.append(
            f"{t['name']:<16} {t['state']:<10} {t['priority']:>4} "
            f"{t['effective_priority']:>4} {t['undo_depth']:>5} "
            f"{t['blocked_cycles']:>14}  {' '.join(extra)}"
        )
    if state["monitors"]:
        lines.append("")
        lines.append("monitors:")
        for name, m in state["monitors"].items():
            queue = ",".join(m["entry_queue"]) or "-"
            waits = ",".join(m["wait_set"]) or "-"
            lines.append(
                f"  {name:<24} owner={m['owner'] or '-':<14} "
                f"count={m['count']} queue=[{queue}] wait=[{waits}]"
            )
    for c in state["blocking_chains"]:
        arrow = " -> ".join(c["chain"])
        suffix = "  (cycle!)" if c["cyclic"] else ""
        lines.append(f"blocked: {arrow}{suffix}")
    spans = state.get("active_spans")
    if spans is not None:
        lines.append("")
        lines.append(f"active spans ({len(spans)}):")
        for s in spans:
            end = "open" if s["attrs"].get("open") else s["end"]
            detail = s["attrs"].get("mon") or s["attrs"].get("site") or ""
            lines.append(
                f"  {s['kind']:<10} {s['thread']:<16} "
                f"[{s['start']}, {end}] {detail}"
            )
    return "\n".join(lines)


def render_frames(vm: JVM, name: str, *, window: int = 4) -> str:
    """Stack trace of thread ``name`` (innermost frame first) and the
    disassembly of its current frame around the pc — the REPL's
    ``frame NAME`` view.  Raises :class:`VMStateError` for an unknown
    thread."""
    thread = vm.thread_named(name)
    t = _thread_state(thread)
    eff = t["effective_priority"]
    lines = [
        f"{t['name']} [{t['state']}] prio={t['priority']}"
        + (f" (eff {eff})" if eff != t["priority"] else "")
    ]
    for f in t["frames"]:
        lines.append(
            f"  at {f['method']} pc={f['pc']}: {f['instruction'] or '?'}"
        )
    if t["sections"]:
        lines.append("  sections: " + " > ".join(t["sections"]))
    if t["blocked_on"]:
        lines.append(f"  blocked on {t['blocked_on']}")
    if t["waiting_on"]:
        lines.append(f"  waiting on {t['waiting_on']}")
    if thread.frames:
        frame = thread.frames[-1]
        lo = max(0, frame.pc - window)
        hi = min(len(frame.code), frame.pc + window + 1)
        lines.append("")
        for pc in range(lo, hi):
            marker = "->" if pc == frame.pc else "  "
            lines.append(f"{marker} {pc:>4}: {frame.code[pc]!r}")
    return "\n".join(lines)
