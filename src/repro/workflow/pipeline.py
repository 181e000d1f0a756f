"""The Fig. 2 modeling workflow: compile → measure → simulate.

One :class:`ModelingWorkflow` object owns an application, a target
machine and a calibration configuration, and exposes the three
estimators the paper compares:

* :meth:`run_measured` — "direct program measurement" (ground truth);
* :meth:`run_de` — MPI-SIM-DE, the original direct-execution simulator;
* :meth:`run_am` — MPI-SIM-AM, the compiler-optimized simulator running
  the simplified program with the calibrated w_i.

Each estimator forwards its keywords to :class:`~repro.sim.Simulator`:
budgets, and for a resilience what-if a fault plan (``faults=``), a
retry policy (``retry=``) and a default timeout (``default_timeout=``).
A run stalled by injected faults raises :class:`repro.sim.DeadlockError`
carrying a :class:`repro.sim.DeadlockReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codegen import CompiledProgram, compile_program
from ..ir.interp import make_factory
from ..ir.nodes import Program
from ..machine import MachineParams
from ..measure import Calibration, measure_wparams
from ..obs.spans import TRACER
from ..sim.engine import ExecMode, SimResult, Simulator

__all__ = ["ModelingWorkflow"]


@dataclass
class ModelingWorkflow:
    """End-to-end modeling of one application on one machine."""

    program: Program
    machine: MachineParams
    calib_inputs: dict[str, float]
    calib_nprocs: int
    directives: dict[int, float] | None = None
    seed: int = 0
    #: simulation kernel for the calibration run and the estimators:
    #: "interpreted", "compiled" or "auto" (None = Simulator's default).
    #: Results are byte-identical across backends; this only picks the
    #: execution strategy.
    backend: str | None = None

    def __post_init__(self):
        self._calibration: Calibration | None = None

    # -- calibration ---------------------------------------------------------
    def calibrate(self) -> Calibration:
        """Run the timer-instrumented program at the calibration
        configuration (once; cached)."""
        if self._calibration is None:
            with TRACER.span(
                "workflow.calibrate", program=self.program.name, nprocs=self.calib_nprocs
            ):
                self._calibration = measure_wparams(
                    self.program, self.calib_inputs, self.calib_nprocs, self.machine,
                    self.seed, backend=self.backend,
                )
        return self._calibration

    @property
    def calibration(self) -> Calibration | None:
        """The cached calibration, or ``None`` if none has run yet."""
        return self._calibration

    def prime(self, calibration: Calibration) -> None:
        """Inject a precomputed calibration (warm start).

        A primed calibration skips the measurement run — the expensive
        front half of the Fig. 2 pipeline — entirely.  The caller vouches
        that it was measured for this exact (program, machine,
        calibration configuration, seed); the serving layer keys its
        warm cache by precisely that tuple.  The compiled program needs
        no priming: the program keeps it (:func:`~repro.codegen.
        compile_program`).
        """
        self._calibration = calibration

    @property
    def compiled(self) -> CompiledProgram:
        """The compiled application (branch profile from calibration),
        kept on the program (:func:`~repro.codegen.compile_program`)."""
        cal = self.calibrate()
        with TRACER.span("workflow.compile", program=self.program.name):
            return compile_program(
                self.program, profile=cal.profile, directives=self.directives
            )

    @property
    def wparams(self) -> dict[str, float]:
        return self.calibrate().wparams

    # -- the three estimators ---------------------------------------------------
    def run_measured(
        self, inputs: dict[str, float], nprocs: int, seed: int | None = None, **kw
    ) -> SimResult:
        """Ground truth: the application on the (modelled) real machine."""
        kw.setdefault("backend", self.backend)
        factory = make_factory(self.program, inputs)
        with TRACER.span("workflow.simulate", mode="measured", nprocs=nprocs) as sp:
            result = Simulator(
                nprocs, factory, self.machine, mode=ExecMode.MEASURED,
                seed=self.seed + 1 if seed is None else seed, **kw
            ).run()
            sp.set_virtual(0.0, result.elapsed)
        return result

    def run_de(self, inputs: dict[str, float], nprocs: int, **kw) -> SimResult:
        """MPI-SIM-DE: direct execution + nominal communication model."""
        kw.setdefault("backend", self.backend)
        factory = make_factory(self.program, inputs)
        with TRACER.span("workflow.simulate", mode="de", nprocs=nprocs) as sp:
            result = Simulator(nprocs, factory, self.machine, mode=ExecMode.DE, **kw).run()
            sp.set_virtual(0.0, result.elapsed)
        return result

    def run_am(self, inputs: dict[str, float], nprocs: int, **kw) -> SimResult:
        """MPI-SIM-AM: the simplified program with calibrated w_i."""
        kw.setdefault("backend", self.backend)
        factory = make_factory(self.compiled.simplified, inputs, wparams=self.wparams)
        with TRACER.span("workflow.simulate", mode="am", nprocs=nprocs) as sp:
            result = Simulator(nprocs, factory, self.machine, mode=ExecMode.AM, **kw).run()
            sp.set_virtual(0.0, result.elapsed)
        return result
