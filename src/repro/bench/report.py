"""Text rendering of benchmark results — the paper's plots, in a terminal.

Each reproduced panel prints as a table (write ratio vs normalized elapsed
time for both VMs, with 90% CI half-widths) followed by an ASCII chart
whose shape can be compared against the paper's gnuplot panels directly.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.figures import PanelResult
from repro.util.fmt import ascii_chart, format_table


def render_series(
    write_ratios: Sequence[int],
    series: dict[str, Sequence[float]],
    *,
    title: str = "",
) -> str:
    headers = ["write%"] + list(series)
    rows = [
        [pct] + [series[name][i] for name in series]
        for i, pct in enumerate(write_ratios)
    ]
    table = format_table(headers, rows)
    chart = ascii_chart(
        [float(p) for p in write_ratios],
        series,
        title=title,
        y_label="normalized elapsed time (unmodified @ 0% writes = 1.0)",
    )
    return f"{table}\n\n{chart}"


def render_panel(result: PanelResult, *, with_ci: bool = True) -> str:
    """Render one panel the way the paper plots it."""
    panel = result.panel
    modified = result.series("rollback")
    unmodified = result.series("unmodified")
    headers = ["write%", "MODIFIED", "UNMODIFIED"]
    if with_ci:
        headers += ["±mod(90%)", "±unmod(90%)"]
        ci_mod = result.ci_series("rollback")
        ci_unmod = result.ci_series("unmodified")
    rows = []
    for i, pct in enumerate(result.write_ratios):
        row: list[object] = [pct, modified[i], unmodified[i]]
        if with_ci:
            row += [ci_mod[i], ci_unmod[i]]
        rows.append(row)
    table = format_table(headers, rows)
    chart = ascii_chart(
        [float(p) for p in result.write_ratios],
        {"MODIFIED": modified, "UNMODIFIED": unmodified},
        title=panel.title,
        y_label="normalized elapsed time",
    )
    gain = result.mean_speedup()
    summary = (
        f"mean speedup of the modified VM across the sweep: {gain:.2f}x "
        f"({(gain - 1) * 100:+.0f}% {'gain' if gain >= 1 else 'loss'})"
    )
    return f"{panel.title}\n\n{table}\n\n{chart}\n\n{summary}\n"


def render_engine_stats(stats) -> str:
    """Host-side execution summary: totals plus the per-run wall spread.

    Rendered separately from :func:`render_panel` (callers print it on
    stderr) so the measured report stays byte-identical no matter how the
    runs were scheduled or cached.
    """
    lines = [stats.render()]
    executed = [w for w in stats.run_walls if w > 0.0]
    if executed:
        mean = sum(executed) / len(executed)
        lines.append(
            f"per-run wall: min {min(executed):.3f}s / mean {mean:.3f}s / "
            f"max {max(executed):.3f}s over {len(executed)} executed run(s)"
        )
    # Per-worker breakdown (fleet imbalance); empty for plain
    # serial runs so historical stderr output is unchanged.
    lines.extend(stats.render_workers())
    return "\n".join(lines)


def panel_rows(result: PanelResult) -> list[dict]:
    """The panel's data as records (one per write ratio), ready for CSV or
    JSON export — both metrics, both VMs, with CI half-widths."""
    rows = []
    for i, pct in enumerate(result.write_ratios):
        row: dict = {"figure": result.panel.figure,
                     "panel": result.panel.panel,
                     "write_pct": pct}
        for metric in ("high_elapsed", "overall_elapsed"):
            for mode in ("rollback", "unmodified"):
                label = ("modified" if mode == "rollback" else "unmodified")
                key = f"{label}_{metric}"
                row[key] = result.series(mode, metric)[i]
                row[key + "_ci90"] = result.ci_series(mode, metric)[i]
        rows.append(row)
    return rows


def write_csv(result: PanelResult, path) -> None:
    """Write the panel's normalized series to a CSV file."""
    import csv

    rows = panel_rows(result)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def panel_json(result: PanelResult) -> str:
    """The panel as a JSON document (metadata + records)."""
    import json

    return json.dumps(
        {
            "title": result.panel.title,
            "figure": result.panel.figure,
            "panel": result.panel.panel,
            "metric": result.panel.metric,
            "mean_speedup": result.mean_speedup(),
            "rows": panel_rows(result),
        },
        indent=2,
    )
