"""Task-time measurement: run the timer-instrumented program (Fig. 2).

"The simplest approach, and the one we use in this paper, is to measure
task times (specifically, the w_i) for one or a few selected problem
sizes and number of processors, and then use the symbolic scaling
functions derived by the compiler to estimate the delay values for
other problem sizes and number of processors." (Sec. 3.3)

The measurement run executes on the *ground-truth* machine model (the
paper runs it on the real parallel system), so the extracted ``w_i``
absorb that configuration's cache behaviour, noise, and the timer
overhead — faithfully reproducing the approximation sources the paper
analyzes in Sec. 4.2.  The same run collects the branch profile used to
eliminate data-dependent branches statistically.

Like every other run, it executes on the backend the caller picks: the
compiled backend runs the timer-instrumented program through its
kernel's measure variant (:mod:`repro.kernel.lower`), which feeds the
collector and the profile in the interpreter's order, so the measured
``w_i``, rate statistics and branch profile are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen.timers import generate_instrumented
from ..ir.interp import BranchProfile, MeasurementCollector, make_factory
from ..ir.nodes import Program
from ..machine import MachineParams
from ..obs.logging import get_logger
from ..obs.spans import TRACER
from ..sim.engine import ExecMode, Simulator

__all__ = ["Calibration", "measure_wparams"]

_log = get_logger("measure")


@dataclass
class Calibration:
    """Result of one measurement run."""

    program: str
    inputs: dict[str, float]
    nprocs: int
    machine: str
    wparams: dict[str, float] = field(default_factory=dict)
    profile: BranchProfile = field(default_factory=BranchProfile)
    elapsed: float = 0.0  # instrumented run's (simulated) wall time

    def to_json(self) -> dict:
        """JSON form, as a warm start stores it (a BranchProfile does not
        pickle, so a supervised worker ships this back too)."""
        return {**vars(self), "profile": self.profile.to_dict()}

    @classmethod
    def from_json(cls, doc: dict) -> Calibration:
        """Inverse of :meth:`to_json`; ``ValueError`` on a malformed document."""
        try:
            return cls(
                program=doc["program"],
                inputs={str(k): float(v) for k, v in doc["inputs"].items()},
                nprocs=int(doc["nprocs"]),
                machine=doc["machine"],
                wparams={str(k): float(v) for k, v in doc["wparams"].items()},
                profile=BranchProfile.from_dict(doc.get("profile", {})),
                elapsed=float(doc.get("elapsed", 0.0)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed calibration: {exc!r}") from None

    def __str__(self):
        ws = ", ".join(f"{k}={v:.3e}" for k, v in sorted(self.wparams.items()))
        return (
            f"calibration of {self.program} at {self.inputs} on {self.nprocs} procs "
            f"({self.machine}): {ws}"
        )


def measure_wparams(
    program: Program,
    inputs: dict[str, float],
    nprocs: int,
    machine: MachineParams,
    seed: int = 0,
    backend: str | None = None,
) -> Calibration:
    """Measure the per-iteration task-time coefficients of *program*.

    Runs the timer-instrumented version on the ground-truth machine at
    the given calibration configuration and returns the pooled
    ``w_<task>`` coefficients plus the observed branch profile.
    *backend* is the :class:`~repro.sim.engine.Simulator` backend
    (``None`` reads ``REPRO_BACKEND``); the result does not depend on it.
    """
    _log.info(
        "calibration run: program=%s machine=%s nprocs=%d seed=%d inputs=%s",
        program.name, machine.name, nprocs, seed, dict(inputs),
    )
    with TRACER.span(
        "measure.calibrate", program=program.name, nprocs=nprocs, seed=seed
    ) as span:
        instrumented = generate_instrumented(program)
        collector = MeasurementCollector()
        profile = BranchProfile()
        factory = make_factory(instrumented, inputs, collector=collector, profile=profile)
        result = Simulator(
            nprocs, factory, machine, mode=ExecMode.MEASURED, seed=seed, backend=backend,
        ).run()
        span.set_virtual(0.0, result.elapsed)
        span.set(wparams=len(collector.params()))
    return Calibration(
        program=program.name,
        inputs=dict(inputs),
        nprocs=nprocs,
        machine=machine.name,
        wparams=collector.params(),
        profile=profile,
        elapsed=result.elapsed,
    )
