"""Validation runner: measured vs MPI-SIM-DE vs MPI-SIM-AM.

Produces the data behind the paper's validation figures (Figs. 3–9):
for each configuration, the three estimators' predicted execution times
and the percentage errors of the simulators against direct measurement.

Also home of the fault-sweep series: elapsed-time / resilience-counter
curves versus message-loss rate for one application under a
:class:`repro.sim.FaultPlan`, which ``repro faults --sweep`` fills with
one campaign-runner request per rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pipeline import ModelingWorkflow

__all__ = [
    "ValidationPoint",
    "ValidationSeries",
    "validate",
    "FaultSweepPoint",
    "FaultSweepSeries",
]


@dataclass(frozen=True)
class ValidationPoint:
    """One configuration's comparison of the three estimators."""

    label: str
    nprocs: int
    measured: float
    de: float | None
    am: float

    @property
    def err_de(self) -> float | None:
        """Percentage error of MPI-SIM-DE vs measurement."""
        if self.de is None:
            return None
        return 100.0 * abs(self.de - self.measured) / self.measured

    @property
    def err_am(self) -> float:
        """Percentage error of MPI-SIM-AM vs measurement."""
        return 100.0 * abs(self.am - self.measured) / self.measured


@dataclass
class ValidationSeries:
    """A named sweep of validation points (one figure's data)."""

    name: str
    points: list[ValidationPoint] = field(default_factory=list)

    @property
    def max_err_am(self) -> float:
        return max(p.err_am for p in self.points)

    @property
    def mean_err_am(self) -> float:
        return sum(p.err_am for p in self.points) / len(self.points)

    @property
    def max_err_de(self) -> float:
        errs = [p.err_de for p in self.points if p.err_de is not None]
        return max(errs) if errs else float("nan")


def _run_point(
    workflow: ModelingWorkflow,
    i: int,
    inputs: dict,
    nprocs: int,
    include_de: bool,
    label: str,
) -> ValidationPoint:
    """One configuration through all three estimators.

    The measured run's seed derives from the point *index*, never from
    execution order — this is what lets ``repro validate --jobs N`` run
    the points as campaign cells across worker processes and still
    reproduce the sequential series exactly.
    """
    measured = workflow.run_measured(inputs, nprocs, seed=workflow.seed + 101 + i)
    de = workflow.run_de(inputs, nprocs) if include_de else None
    am = workflow.run_am(inputs, nprocs)
    return ValidationPoint(
        label=label,
        nprocs=nprocs,
        measured=measured.elapsed,
        de=de.elapsed if de else None,
        am=am.elapsed,
    )


def validate(
    workflow: ModelingWorkflow,
    configs: list[tuple[dict, int]],
    name: str = "",
    include_de: bool = True,
    labels: list[str] | None = None,
) -> ValidationSeries:
    """Run all three estimators over *configs* ``[(inputs, nprocs), ...]``.

    ``include_de=False`` skips the direct-execution simulator (used when
    its memory demand would be infeasible, as in the paper's largest
    configurations).
    """
    series = ValidationSeries(name or workflow.program.name)
    for i, (inputs, nprocs) in enumerate(configs):
        series.points.append(
            _run_point(
                workflow, i, inputs, nprocs, include_de,
                labels[i] if labels else str(nprocs),
            )
        )
    return series


@dataclass(frozen=True)
class FaultSweepPoint:
    """One fault-rate configuration's outcome."""

    loss_rate: float
    elapsed: float | None  # None when the run deadlocked
    retries: int
    timeouts: int
    messages_lost: int
    send_failures: int
    deadlocked: bool = False

    def slowdown_pct(self, baseline: float | None) -> float | None:
        """Percentage slowdown versus the fault-free elapsed time."""
        if self.elapsed is None or not baseline:
            return None
        return 100.0 * (self.elapsed - baseline) / baseline


@dataclass
class FaultSweepSeries:
    """Elapsed time and resilience counters versus message-loss rate."""

    name: str
    mode: str
    nprocs: int
    points: list[FaultSweepPoint] = field(default_factory=list)

    @property
    def baseline(self) -> float | None:
        """The fault-free (or lowest-loss completed) elapsed time."""
        for p in self.points:
            if p.elapsed is not None:
                return p.elapsed
        return None
