"""ASCII timelines from execution traces.

Renders one row per thread over virtual time, showing when each thread held
a monitor, sat blocked, waited, and — on the modified VM — when it was
revoked.  Built entirely from the structured trace (``VMOptions(trace=True)``
required), so it works post-mortem on any finished run::

    vm = JVM(VMOptions(mode="rollback", trace=True))
    ...
    vm.run()
    print(render_timeline(vm))

Legend::

    #   inside a synchronized section (holding its monitor)
    -   blocked on a monitor entry queue
    w   in a wait set (Object.wait)
    R   revocation: the section was rolled back here
    D   deadlock resolved by revoking this thread
    G   degradation: a section site dropped a ladder rung here
    !   injected fault delivered to this thread
    .   otherwise live (running, ready or sleeping)
    (space) not yet started / already terminated
"""

from __future__ import annotations

import shutil
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM

#: never downsample below this many timeline columns
MIN_COLUMNS = 10
#: legacy column count, used when no budget applies
LEGACY_WIDTH = 80


def _resolve_width(
    width: Optional[int],
    max_width: Union[int, str, None],
    name_width: int,
    span: int,
) -> int:
    """Pick the timeline column count.

    An explicit ``width`` wins and is used verbatim (legacy behaviour).
    Otherwise ``max_width`` is a budget for the *whole* rendered line —
    the name gutter, the two ``|`` rails and the cells — so output fits
    a terminal: ``"auto"`` reads the current terminal width, an int is
    used as-is, and ``None`` falls back to the legacy 80 columns.
    Budgeted timelines are additionally capped at one column per cycle;
    downsampling never goes below :data:`MIN_COLUMNS`.
    """
    if width is not None:
        return width
    if max_width is None:
        return LEGACY_WIDTH
    if max_width == "auto":
        budget = shutil.get_terminal_size(fallback=(80, 24)).columns
    else:
        budget = int(max_width)
    cells = budget - (name_width + 3)  # "name |cells|"
    cells = min(cells, LEGACY_WIDTH, max(span, 1))
    return max(MIN_COLUMNS, cells)


def render_timeline(
    vm: "JVM",
    *,
    width: Optional[int] = None,
    max_width: Union[int, str, None] = "auto",
    start: Optional[int] = None,
    end: Optional[int] = None,
) -> str:
    """Render the run as one timeline row per thread.

    ``width`` pins the exact number of timeline cells (the pre-budget
    behaviour).  When it is omitted, the row is downsampled to fit
    ``max_width`` total columns — ``"auto"`` (the default) uses the
    terminal width, an int sets the budget explicitly, and ``None``
    restores the legacy fixed 80 cells.
    """
    events = vm.tracer.events
    if not events:
        return "(no trace events — run the VM with VMOptions(trace=True))"
    now = max(vm.clock.now, events[-1].time)
    t0 = start if start is not None else events[0].time
    t1 = end if end is not None else now
    if t1 <= t0:
        t1 = t0 + 1
    span = t1 - t0
    name_budget = max(
        (len(t.name) for t in vm.threads), default=4
    )
    width = _resolve_width(width, max_width, name_budget, span)

    def col(time: int) -> int:
        # Integer (floor) division keeps the cell mapping exact: float
        # rounding at large cycle counts could nudge a boundary event
        # one cell left/right, breaking cross-host determinism and the
        # first/last-event guarantees.
        c = (time - t0) * width // span
        return max(0, min(width - 1, c))

    names = [t.name for t in vm.threads]
    rows = {name: [" "] * width for name in names}

    # life span: first event .. exit (or run end)
    first_seen: dict[str, int] = {}
    exit_at: dict[str, int] = {}
    for e in events:
        if e.thread in rows and e.thread not in first_seen:
            first_seen[e.thread] = e.time
        if e.kind == "exit" and e.thread in rows:
            exit_at[e.thread] = e.time
    for name in names:
        born = first_seen.get(name)
        if born is None:
            continue
        died = exit_at.get(name, t1)
        for c in range(col(born), col(died) + 1):
            rows[name][c] = "."

    # interval glyphs come from the causal spans, so they nest like the
    # sections do and blocked intervals close exactly where the VM
    # credits blocked cycles; sections paint last and win
    from repro.obs.spans import build_spans

    glyphs = {"blocked": "-", "wait": "w", "section": "#"}
    spans = build_spans(events, now)
    for kind, glyph in glyphs.items():
        for s in spans:
            if s.kind == kind and s.thread in rows:
                row = rows[s.thread]
                for c in range(col(s.start), col(s.end) + 1):
                    row[c] = glyph

    # point markers win over intervals
    for e in events:
        if e.thread not in rows:
            continue
        if e.kind == "rollback_done":
            rows[e.thread][col(e.time)] = "R"
        elif e.kind == "deadlock_resolve":
            rows[e.thread][col(e.time)] = "D"
        elif e.kind == "degrade":
            rows[e.thread][col(e.time)] = "G"
        elif e.kind == "fault_inject":
            rows[e.thread][col(e.time)] = "!"

    name_width = max((len(n) for n in names), default=4)
    lines = [
        f"virtual time {t0} .. {t1} "
        f"({span} cycles, {span // width}/column)",
        "legend: # in section   - blocked   w waiting   R rollback   "
        "D deadlock victim   G degrade   ! fault   . live",
        "",
    ]
    for name in names:
        lines.append(f"{name:>{name_width}} |{''.join(rows[name])}|")
    return "\n".join(lines)
