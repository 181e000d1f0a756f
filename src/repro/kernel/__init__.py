"""Compiled per-program kernel backend: the lowering pass.

``repro.kernel.lower`` turns a validated IR program into a generated
Python module (content-addressed by the SHA-256 of its printed IR and
of its comp blocks' kernel identities) with
one entry point, ``fast_gen``: a flat per-rank driver for the
simulator's one event loop, :func:`repro.sim.loop.run`, which runs it
bare or armed, with or without faults and timeouts.  A calibration
run binds the module's measure variant, which also feeds the run's
``MeasurementCollector`` and ``BranchProfile``.

Select it per run with ``Simulator(..., backend="compiled")`` (or
``"auto"``, which falls back per-program on unsupported constructs).
Runs that collect a trace interpret the program under either.
"""

from .lower import (
    CompiledKernel,
    UnsupportedConstructError,
    cache_stats,
    cached_kernels,
    clear_cache,
    kernel_for,
    lower_program,
    program_fingerprint,
    record_fallback,
)

__all__ = [
    "CompiledKernel",
    "UnsupportedConstructError",
    "cache_stats",
    "cached_kernels",
    "clear_cache",
    "kernel_for",
    "lower_program",
    "program_fingerprint",
    "record_fallback",
]
