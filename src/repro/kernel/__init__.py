"""Compiled per-program kernel backend: the lowering pass.

``repro.kernel.lower`` turns a validated IR program into a generated
Python module, kept on the program object that it was lowered from, with
one entry point, ``fast_gen``: a flat per-rank driver for the
simulator's one event loop, :func:`repro.sim.loop.run`, which runs it
bare or armed, with or without faults and timeouts.  A calibration
run binds the module's measure variant, which also feeds the run's
``MeasurementCollector`` and ``BranchProfile``; a run that collects an
event trace binds its traced variant, which records the compute and
delay events the interpreter records.

Every :class:`~repro.sim.engine.Simulator` run uses it by default
(``backend="auto"``, which falls back per program on unsupported
constructs); ``backend="interpreted"`` or ``REPRO_BACKEND=interpreted``
selects the interpreter, the reference it is tested against.
"""

from .lower import (
    CompiledKernel,
    UnsupportedConstructError,
    cache_stats,
    clear_cache,
    kernel_for,
    lower_program,
    record_fallback,
)

__all__ = [
    "CompiledKernel",
    "UnsupportedConstructError",
    "cache_stats",
    "clear_cache",
    "kernel_for",
    "lower_program",
    "record_fallback",
]
