"""Critical-path analysis over the event-dependency graph.

Which events actually determine ``SimStats.elapsed``?  Starting from
the event that finishes last, the analyzer walks backwards through the
gating structure of the trace — same-process program order, message
dependencies (``deps``) and collective membership — always stepping to
the predecessor that completed latest (the one that gated the current
event).  Each step's contribution is the virtual time between the two
completions, so the contributions **telescope to the elapsed time
exactly**; aggregated per rank and per event kind they show where the
critical path spends the run (the ScalAna-style "which chain limits
scaling" question, answered on one trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..sim.trace import Trace, TraceEvent

__all__ = ["PathStep", "CriticalPathReport", "critical_path", "format_critical_path"]


@dataclass(frozen=True)
class PathStep:
    """One event on the critical path with its telescoped contribution."""

    eid: int
    proc: int
    kind: str
    start: float
    end: float
    contribution: float  # this event's completion minus its gate's completion


@dataclass(frozen=True)
class CriticalPathReport:
    """The critical path and its per-rank / per-kind decomposition."""

    steps: tuple[PathStep, ...]  # finishing event first
    total: float  # == elapsed (the last event's completion time)
    by_kind: dict[str, float]
    by_proc: dict[int, float]

    @property
    def length(self) -> int:
        return len(self.steps)


def critical_path(trace: Trace) -> CriticalPathReport:
    """Walk the gating chain back from the last event to finish.

    The per-step contributions sum to the final completion time exactly
    (floating-point associativity aside, they telescope), which equals
    ``SimStats.elapsed`` whenever the run's last clock advance is a
    traced event (always true for DE/AM runs of the bundled apps).
    """
    if not trace.events:
        return CriticalPathReport(steps=(), total=0.0, by_kind={}, by_proc={})
    pred = trace.program_predecessors()
    coll_members = trace.collectives()

    def candidates(ev: TraceEvent):
        p = pred[ev.eid]
        if p is not None:
            yield trace.events[p]
        for dep in ev.deps:
            yield trace.events[dep]
        if ev.coll_id is not None:
            # a collective completes when its last member arrives: the
            # gate is some member's own preceding event
            for member in coll_members[ev.coll_id]:
                mp = pred[member.eid]
                if mp is not None:
                    yield trace.events[mp]

    current = max(trace.events, key=lambda e: (e.end, e.eid))
    total = current.end
    steps: list[PathStep] = []
    by_kind: dict[str, float] = {}
    by_proc: dict[int, float] = {}
    while True:
        key = (current.end, current.eid)
        gate = None
        gate_key = None
        for cand in candidates(current):
            ck = (cand.end, cand.eid)
            if ck < key and (gate_key is None or ck > gate_key):
                gate, gate_key = cand, ck
        contribution = current.end - (gate.end if gate is not None else 0.0)
        steps.append(
            PathStep(
                eid=current.eid, proc=current.proc, kind=current.kind,
                start=current.start, end=current.end, contribution=contribution,
            )
        )
        by_kind[current.kind] = by_kind.get(current.kind, 0.0) + contribution
        by_proc[current.proc] = by_proc.get(current.proc, 0.0) + contribution
        if gate is None:
            break
        current = gate
    return CriticalPathReport(
        steps=tuple(steps), total=total, by_kind=by_kind, by_proc=by_proc
    )


def format_critical_path(report: CriticalPathReport, top: int = 10) -> str:
    """Human-readable critical-path breakdown."""
    lines = [
        f"Critical path: {report.total:.6f}s over {report.length} event(s)"
    ]
    if not report.steps:
        return lines[0]

    def pct(x: float) -> str:
        return f"{100.0 * x / report.total:5.1f}%" if report.total > 0 else "  -  "

    lines.append("  by kind:")
    for kind, t in sorted(report.by_kind.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {kind:12s} {t:.6f}s  {pct(t)}")
    lines.append("  by rank:")
    ranked = sorted(report.by_proc.items(), key=lambda kv: -kv[1])
    for proc, t in ranked[:top]:
        lines.append(f"    rank {proc:<7d} {t:.6f}s  {pct(t)}")
    if len(ranked) > top:
        rest = sum(t for _, t in ranked[top:])
        lines.append(f"    {len(ranked) - top} more ranks {rest:.6f}s  {pct(rest)}")
    lines.append(f"  top step(s) of {report.length}:")
    for step in sorted(report.steps, key=lambda s: -s.contribution)[:top]:
        lines.append(
            f"    eid {step.eid:<8d} rank {step.proc:<5d} {step.kind:12s} "
            f"[{step.start:.6f}, {step.end:.6f}]  +{step.contribution:.6f}s  "
            f"{pct(step.contribution)}"
        )
    return "\n".join(lines)
