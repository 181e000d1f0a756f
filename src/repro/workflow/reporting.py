"""Text-table and CSV reporting of experiment results."""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

from ..sim.stats import ProcessStats, SimStats
from ..util.atomic_io import atomic_write
from .validation import FaultSweepSeries, ValidationSeries

__all__ = [
    "format_table",
    "format_validation",
    "format_bytes",
    "write_validation_csv",
    "format_resilience",
    "format_fault_sweep",
    "write_fault_sweep_csv",
    "write_stats_csv",
]


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Render a plain-text table with right-aligned numeric columns."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_validation(series: ValidationSeries) -> str:
    """The paper's validation-figure table: measured / DE / AM / errors."""
    headers = ["procs", "measured(s)", "MPI-SIM-DE(s)", "MPI-SIM-AM(s)", "%err DE", "%err AM"]
    rows = []
    for p in series.points:
        rows.append([p.label, p.measured, p.de, p.am, p.err_de, p.err_am])
    table = format_table(headers, rows, title=f"Validation: {series.name}")
    footer = (
        f"max AM error {series.max_err_am:.1f}%  "
        f"mean AM error {series.mean_err_am:.1f}%"
    )
    return table + "\n" + footer


def write_validation_csv(series: ValidationSeries, path: str | Path) -> None:
    """Write a validation series as CSV (for external plotting tools)."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "nprocs", "measured_s", "de_s", "am_s", "err_de_pct", "err_am_pct"])
        for p in series.points:
            writer.writerow(
                [p.label, p.nprocs, p.measured, p.de, p.am, p.err_de, p.err_am]
            )


def format_resilience(stats: dict, title: str = "Resilience report") -> str:
    """Human-readable resilience report of one fault-injected run, from
    its :meth:`~repro.sim.stats.SimStats.to_dict` form (a run record's
    ``stats``)."""
    s = stats
    lines = [title]
    lines.append(f"  elapsed           : {s['elapsed']:.6f}s")
    lines.append(f"  messages          : {s['total_messages']} sent / {s['total_bytes']} bytes")
    lines.append(f"  retries           : {s['total_retries']}")
    lines.append(f"  timeouts          : {s['total_timeouts']}")
    lines.append(f"  messages lost     : {s['total_messages_lost']}")
    lines.append(f"  duplicates        : {s['total_duplicates']}")
    lines.append(f"  failed sends      : {s['total_send_failures']}")
    crashed = s["crashed_ranks"]
    lines.append(
        f"  crashed ranks     : {', '.join(str(r) for r in crashed) if crashed else 'none'}"
    )
    return "\n".join(lines)


def format_fault_sweep(series: FaultSweepSeries) -> str:
    """The fault-sweep table: elapsed / slowdown / counters per loss rate."""
    headers = [
        "loss rate", "elapsed (s)", "slowdown %", "retries", "timeouts",
        "lost", "failed sends",
    ]
    base = series.baseline
    rows = []
    for p in series.points:
        if p.deadlocked:
            rows.append([p.loss_rate, "DEADLOCK", None, None, None, None, None])
        else:
            rows.append([
                p.loss_rate, p.elapsed, p.slowdown_pct(base), p.retries,
                p.timeouts, p.messages_lost, p.send_failures,
            ])
    return format_table(
        headers, rows,
        title=f"Fault sweep: {series.name} ({series.mode}, {series.nprocs} procs)",
    )


def write_fault_sweep_csv(series: FaultSweepSeries, path: str | Path) -> None:
    """Write a fault-sweep series as CSV (for external plotting tools)."""
    base = series.baseline
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "loss_rate", "elapsed_s", "slowdown_pct", "retries", "timeouts",
            "messages_lost", "send_failures", "deadlocked",
        ])
        for p in series.points:
            writer.writerow([
                p.loss_rate, p.elapsed, p.slowdown_pct(base), p.retries,
                p.timeouts, p.messages_lost, p.send_failures, int(p.deadlocked),
            ])


def write_stats_csv(stats: SimStats, path: str | Path) -> None:
    """Write one run's per-rank statistics as CSV, one row per rank.

    Every :class:`ProcessStats` field is a column — including the
    fault/resilience counters (retries, timeouts, losses, duplicates,
    send failures, crashes), which previously never reached any report.
    """
    fieldnames = [f.name for f in dataclasses.fields(ProcessStats)]
    with atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for p in stats.procs:
            writer.writerow(p.to_dict())


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (KB/MB/GB, decimal as in the paper)."""
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(nbytes) >= scale:
            return f"{nbytes / scale:.1f}{unit}"
    return f"{nbytes:.0f}B"
