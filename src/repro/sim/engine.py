"""The MPI-Sim kernel: a discrete-event simulator of MPI programs.

Target processes are generators of :mod:`repro.sim.requests` objects.
Local computation advances a process's private clock inline (direct
execution); communication requests serialize through a global event
queue so that message matching happens in virtual-timestamp order —
the sequential analogue of MPI-Sim's "the simulation kernel [...]
ensures that events on host processors are executed in their correct
timestamp order".

Three execution modes share this kernel (see DESIGN.md §5):

* ``MEASURED`` — ground truth: noisy CPU, perturbed network.  Standing
  in for running the real application on the real machine.
* ``DE`` — the original MPI-Sim: deterministic CPU (direct execution of
  the computation), nominal analytic network model.
* ``AM`` — the compiler-optimized simulator: the program itself is the
  *simplified* program (delays instead of computation), nominal network.

Orthogonally to the mode, a :class:`repro.sim.faults.FaultPlan` may be
injected: rank crashes, message loss/duplication, transient send
failures and link degradation, with an optional
:class:`repro.sim.faults.RetryPolicy` modeling retransmission.  Without
a plan the fault layer is bypassed entirely and predictions are
bit-identical to a fault-free build.  When the event queue drains with
live-but-blocked processes, the deadlock watchdog raises
:class:`DeadlockError` carrying a :class:`DeadlockReport` — the
per-rank wait-chain diagnosis — instead of a bare error.

:class:`Simulator` sets a run up and picks each rank's driver: the
compiled ``fast_gen`` of every program that lowers, traced runs
included, or the Request driver over the generators of one that does
not (NAS SP's materialized arrays, raw :mod:`repro.mpi.api` programs).
Every run then drains through the one event loop,
:func:`repro.sim.loop.run`.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..machine import CpuModel, MachineParams, NetworkModel
from ..obs.logging import get_logger
from ..obs.metrics import METRICS
from ..obs.spans import TRACER
from . import loop
from .budget import BudgetExceededError, BudgetGuard
from .faults import FaultPlan, FaultState, RetryPolicy
from .loop import CollectiveMismatchError, DeadlockError
from .memory import MemoryReport, MemoryTracker
from .requests import Request
from .stats import SimStats
from .trace import Trace

__all__ = [
    "ExecMode",
    "Simulator",
    "SimResult",
    "DeadlockError",
    "CollectiveMismatchError",
    "BudgetExceededError",
]

ProgramFactory = Callable[[int, int], Iterator[Request]]

_log = get_logger("sim.engine")


class ExecMode(enum.Enum):
    """Which estimator this run represents (see module docstring)."""

    MEASURED = "measured"
    DE = "mpi-sim-de"
    AM = "mpi-sim-am"


@dataclass
class SimResult:
    """Everything a simulation run produces."""

    mode: ExecMode
    stats: SimStats
    memory: MemoryReport
    trace: Trace | None

    @property
    def elapsed(self) -> float:
        """Predicted (or, in MEASURED mode, actual) target execution time."""
        return self.stats.elapsed


class Simulator:
    """Simulate *nprocs* target processes of *program_factory* on *machine*.

    Parameters
    ----------
    nprocs:
        Number of target processes.
    program_factory:
        ``factory(rank, nprocs)`` returning the process generator.
    machine:
        Target machine parameters (e.g. ``repro.machine.IBM_SP``).
    mode:
        Which estimator to run (ground truth / DE / AM).
    seed:
        Ground-truth noise seed (ignored by DE/AM, which are exact).
    collect_trace:
        Record a dependency-annotated event trace for the host model.
    faults:
        Optional :class:`FaultPlan` to inject; an empty plan is treated
        as no plan (zero-cost).
    retry:
        Optional :class:`RetryPolicy` for retransmission of transiently
        failed / lost messages (only consulted under a fault plan).
    default_timeout:
        When set, blocking and non-blocking sends/receives without their
        own ``timeout`` complete with :class:`TimedOut` after this many
        virtual seconds unmatched (the kernel-level watchdog timeout).
    max_events / max_virtual_time / max_wall_seconds:
        Watchdog budgets (see :mod:`repro.sim.budget`).  The first limit
        a run exceeds raises :class:`BudgetExceededError` carrying the
        partial :class:`SimStats`, so a livelocked or pathological
        configuration terminates cleanly instead of hanging the caller.
    backend:
        ``"auto"`` (default) lowers the program once via
        :mod:`repro.kernel` and falls back to the interpreter for a
        program that does not lower, with a logged reason
        (``backend_fallback_reason``); ``"compiled"`` errors instead of
        falling back; ``"interpreted"`` walks the IR per rank per run,
        the reference the compiled kernel is tested against.  A
        calibration run, whose factory carries a ``MeasurementCollector``
        or ``BranchProfile``, lowers to the kernel's measure variant, and
        a run with ``collect_trace`` to its traced variant.  ``None``
        reads ``REPRO_BACKEND`` from the environment.  Results and traces
        are byte-identical across backends.
    """

    def __init__(
        self,
        nprocs: int,
        program_factory: ProgramFactory,
        machine: MachineParams,
        mode: ExecMode = ExecMode.DE,
        seed: int = 0,
        collect_trace: bool = False,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        default_timeout: float | None = None,
        max_events: int | None = None,
        max_virtual_time: float | None = None,
        max_wall_seconds: float | None = None,
        backend: str | None = None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if default_timeout is not None and (
            not math.isfinite(default_timeout) or default_timeout <= 0
        ):
            raise ValueError(f"default_timeout must be finite and > 0, got {default_timeout!r}")
        self.nprocs = nprocs
        self.machine = machine
        self.mode = mode
        self.seed = seed
        if mode is ExecMode.MEASURED:
            rng = np.random.default_rng(seed)
            self.cpu = CpuModel(machine.cpu, machine.truth.cpu_noise_sigma, rng)
            self.net = NetworkModel(machine.net, machine.truth, rng)
        else:
            self.cpu = CpuModel(machine.cpu)
            self.net = NetworkModel(machine.net)
        self.memory = MemoryTracker(nprocs, machine.host.thread_overhead_bytes)
        self.trace: Trace | None = Trace(nprocs) if collect_trace else None

        if faults is not None and faults.is_empty():
            faults = None  # the zero-cost guarantee: empty plan == no plan
        self._fault_state = FaultState(faults, retry) if faults is not None else None
        self._default_timeout = default_timeout
        self._crash_times = (
            self._fault_state.crash_times(nprocs) if self._fault_state is not None else {}
        )
        guard = BudgetGuard(max_events, max_virtual_time, max_wall_seconds)
        self._budget = guard if guard.active else None

        if backend is None:
            backend = os.environ.get("REPRO_BACKEND") or "auto"
        if backend not in ("interpreted", "compiled", "auto"):
            raise ValueError(
                f"backend must be 'interpreted', 'compiled' or 'auto', got {backend!r}"
            )
        self._kernel = None
        self.backend = "interpreted"
        self.backend_fallback_reason: str | None = None
        if backend != "interpreted":
            self._resolve_backend(program_factory, backend)
        self._ran = False
        if self._kernel is None:
            self._programs = [program_factory(r, nprocs) for r in range(nprocs)]

    def _resolve_backend(self, program_factory, requested: str) -> None:
        """Bind the compiled kernel of *program_factory* if it can serve this run.

        ``requested`` is ``"compiled"`` (a program that does not lower
        raises) or ``"auto"`` (it falls back with a logged reason).  A
        factory with a ``MeasurementCollector`` or a ``BranchProfile``
        attached binds the kernel's measure variant, which feeds them as
        the interpreter does; a run that collects a trace binds the
        traced variant, which records its compute and delay events.
        """
        from ..kernel import lower as _lower

        program = getattr(program_factory, "_repro_program", None)
        collector = getattr(program_factory, "_repro_collector", None)
        profile = getattr(program_factory, "_repro_profile", None)
        measure = collector is not None or profile is not None
        reason = None
        if program is None:
            reason = "factory is not an IR program factory (raw generator function)"
        else:
            try:
                kernel = _lower.kernel_for(program, measure=measure,
                                           trace=self.trace is not None)
            except _lower.UnsupportedConstructError as exc:
                reason = str(exc)
        if reason is not None:
            if requested == "compiled":
                raise ValueError(f"backend='compiled' cannot run this program: {reason}")
            _lower.record_fallback(
                program.name if program is not None else "<raw factory>", reason
            )
            self.backend_fallback_reason = reason
            return
        self._kernel = kernel
        self._kernel_args = (program_factory._repro_inputs, program_factory._repro_wparams or {})
        if measure:
            from ..ir.interp import BranchProfile, MeasurementCollector

            # the variant feeds both; the one not attached is discarded
            self._kernel_args += (
                MeasurementCollector() if collector is None else collector,
                BranchProfile() if profile is None else profile,
            )
        if self.trace is not None:
            self._kernel_args += (self.trace.add,)
        self.backend = "compiled"

    # -- public API ----------------------------------------------------------
    def run(self) -> SimResult:
        """Execute the simulation to completion and return its results.

        Raises :class:`DeadlockError` (with a :class:`DeadlockReport`)
        if the event queue drains while unfinished, uncrashed processes
        remain blocked.
        """
        if self._ran:
            raise RuntimeError("a Simulator instance is single-use; build a new one")
        self._ran = True
        if self.mode is ExecMode.MEASURED:
            # reproducibility breadcrumb: everything needed to replay
            # this ground-truth run (MEASURED is the only noisy mode)
            _log.info(
                "measured run: machine=%s nprocs=%d seed=%d faults=%s timeout=%s",
                self.machine.name, self.nprocs, self.seed,
                "yes" if self._fault_state is not None else "no", self._default_timeout,
            )
        # span and metrics dispatch, decided once per run: with both off
        # (the default) not even a no-op span object is built
        if not (TRACER.enabled or METRICS.enabled):
            return self._execute()
        with TRACER.span("sim.run", mode=self.mode.value, nprocs=self.nprocs,
                         backend=self.backend) as span:
            if self.backend_fallback_reason is not None:
                span.set(fallback=self.backend_fallback_reason)
            result = self._execute()
            span.set_virtual(0.0, result.stats.elapsed)
            span.set(
                events=result.stats.total_events,
                messages=result.stats.total_messages,
                host_cost=result.stats.total_host_cost,
            )
        if METRICS.enabled:
            METRICS.record_run(self.mode.value, result.stats)
        return result

    def _execute(self) -> SimResult:
        stats = loop.run(self)
        return SimResult(self.mode, stats, self.memory.report(), self.trace)
