"""Compiled per-program kernel backend.

``repro.kernel.lower`` turns a validated IR program into a generated
Python module (content-addressed by the SHA-256 of its printed IR) with
one entry point, ``fast_gen``: a flat per-rank state machine that
``repro.kernel.runtime``'s bucket-queue event loop drives, bare or with
the heartbeat, checkpoint, budget and flight-recorder hooks armed.
``repro.kernel.vectorize`` batch-evaluates AM ``delay()`` amounts in
NumPy — per loop entry, or across all ranks at once for SPMD sites
fixed at program start.

Select it per run with ``Simulator(..., backend="compiled")`` (or
``"auto"``, which falls back per-program on unsupported constructs).
Runs with a fault plan, a timeout or trace collection interpret the
program on the engine under either.
"""

from .lower import (
    KERNEL_FORMAT,
    CompiledKernel,
    UnsupportedConstructError,
    cache_stats,
    cached_kernels,
    clear_cache,
    kernel_for,
    load_kernel_source,
    lower_program,
    program_fingerprint,
    record_fallback,
    set_warm_dir,
)
from .runtime import run_fast

__all__ = [
    "KERNEL_FORMAT",
    "CompiledKernel",
    "UnsupportedConstructError",
    "cache_stats",
    "cached_kernels",
    "clear_cache",
    "kernel_for",
    "load_kernel_source",
    "lower_program",
    "program_fingerprint",
    "record_fallback",
    "run_fast",
    "set_warm_dir",
]
