"""Fitting machine-model parameters from measurements.

MPI-Sim's communication model and the w_i task times are parameterized
"by direct measurement" (Sec. 1).  This module closes that loop for the
*machine* models: given ping-pong samples (message size, round-trip
time) and kernel timings (op count, working set, time), least-squares
fits recover the latency/bandwidth/overhead and CPU parameters of a
:class:`MachineParams` — so a user can calibrate the simulator against
their own cluster benchmarks instead of using the built-in presets.

scipy is used for the bounded least-squares CPU fit; it is imported
inside :func:`fit_cpu_params`, so importing this module stays cheap.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .cpu import CpuModel
from .network import NetworkModel
from .params import CpuParams, MachineParams, NetworkParams

__all__ = [
    "fit_network_params",
    "fit_cpu_params",
    "fit_machine",
    "pingpong_samples",
    "kernel_samples",
]


def fit_network_params(
    sizes: np.ndarray, round_trips: np.ndarray, base: NetworkParams | None = None
) -> NetworkParams:
    """Fit (latency, per_byte, cpu_overhead) to ping-pong measurements.

    A ping-pong of *n* bytes costs ``2*(latency + n*per_byte) +
    4*cpu_overhead + 0.2*n*per_byte`` under the model (send + receive
    overheads on both ends); we fit the aggregate affine form
    ``rtt = a + b*n`` and attribute the intercept/slope back to the
    parameters using the model's fixed overhead-to-latency ratio.
    """
    sizes = np.asarray(sizes, dtype=float)
    round_trips = np.asarray(round_trips, dtype=float)
    if sizes.size < 2:
        raise ValueError("need at least two ping-pong samples")
    if np.any(sizes < 0) or np.any(round_trips <= 0):
        raise ValueError("sizes must be >= 0 and times > 0")
    A = np.vstack([np.ones_like(sizes), sizes]).T
    (a, b), *_ = np.linalg.lstsq(A, round_trips, rcond=None)
    a = max(a, 1e-9)
    b = max(b, 1e-15)
    base = base or NetworkParams()
    # model: rtt = 2*latency + 4*cpu_overhead + n*(2*per_byte + 0.2*per_byte)
    # keep the preset's overhead:latency proportion to split the intercept
    ratio = base.cpu_overhead / (base.latency + 2 * base.cpu_overhead)
    cpu_overhead = (a / 2) * ratio * 2 / 2  # overhead share of half the RTT intercept
    latency = a / 2 - 2 * cpu_overhead
    per_byte = b / 2.2
    return replace(
        base,
        latency=float(max(latency, 1e-9)),
        per_byte=float(per_byte),
        cpu_overhead=float(max(cpu_overhead, 0.0)),
    )


def fit_cpu_params(
    ops: np.ndarray,
    working_sets: np.ndarray,
    times: np.ndarray,
    base: CpuParams | None = None,
) -> CpuParams:
    """Fit (time_per_op, l2_factor, mem_factor) to kernel timings.

    The cache capacities are taken from *base* (they come from hardware
    documentation, not fitting); the per-op time and the two slowdown
    factors are found by bounded least squares on the model's predicted
    times.
    """
    ops = np.asarray(ops, dtype=float)
    working_sets = np.asarray(working_sets, dtype=float)
    times = np.asarray(times, dtype=float)
    if not (ops.size == working_sets.size == times.size):
        raise ValueError("ops, working_sets and times must have equal lengths")
    if ops.size < 3:
        raise ValueError("need at least three kernel samples")
    base = base or CpuParams()

    def predict(theta):
        t_op, l2f, memf = theta
        cpu = CpuModel(replace(base, time_per_op=t_op, l2_factor=l2f, mem_factor=memf))
        return np.array([cpu.task_time(o, w) for o, w in zip(ops, working_sets)])

    def resid(theta):
        return predict(theta) - times

    from scipy import optimize

    x0 = np.array([base.time_per_op, base.l2_factor, base.mem_factor])
    result = optimize.least_squares(
        resid,
        x0,
        bounds=([1e-12, 1.0, 1.0], [1e-5, 4.0, 8.0]),
    )
    t_op, l2f, memf = result.x
    if memf < l2f:  # enforce monotone hierarchy
        memf = l2f
    return replace(base, time_per_op=float(t_op), l2_factor=float(l2f), mem_factor=float(memf))


def fit_machine(
    name: str,
    pingpong: tuple[np.ndarray, np.ndarray],
    kernels: tuple[np.ndarray, np.ndarray, np.ndarray],
    base: MachineParams,
) -> MachineParams:
    """Fit a full machine preset from benchmark data (network + CPU)."""
    net = fit_network_params(*pingpong, base=base.net)
    cpu = fit_cpu_params(*kernels, base=base.cpu)
    return replace(base, name=name, net=net, cpu=cpu)


# ---------------------------------------------------------------------------
# synthetic benchmark generators (stand-ins for running on real hardware)
# ---------------------------------------------------------------------------


def pingpong_samples(
    machine: MachineParams, sizes=None, seed: int = 0, noisy: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Ping-pong benchmark data from a machine's *ground-truth* model —
    what running the microbenchmark on the real system would yield."""
    if sizes is None:
        sizes = np.array([0, 256, 1024, 4096, 16384, 65536, 262144])
    sizes = np.asarray(sizes)
    rng = np.random.default_rng(seed)
    net = NetworkModel(machine.net, machine.truth if noisy else None,
                       rng=rng if noisy else None)
    rtts = []
    for n in sizes:
        one_way = net.transit_time(int(n)) + net.send_overhead(int(n)) + net.recv_overhead(int(n))
        back = net.transit_time(int(n)) + net.send_overhead(int(n)) + net.recv_overhead(int(n))
        rtts.append(one_way + back)
    return sizes, np.array(rtts)


def kernel_samples(
    machine: MachineParams, configs=None, seed: int = 0, noisy: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel-timing benchmark data from the ground-truth CPU model."""
    if configs is None:
        configs = [
            (10**5, 16 * 1024), (10**6, 16 * 1024),
            (10**6, 2 * 2**20), (10**7, 2 * 2**20),
            (10**6, 64 * 2**20), (10**7, 64 * 2**20), (10**8, 256 * 2**20),
        ]
    rng = np.random.default_rng(seed)
    cpu = CpuModel(
        machine.cpu,
        machine.truth.cpu_noise_sigma if noisy else 0.0,
        rng if noisy else None,
    )
    ops = np.array([o for o, _ in configs], dtype=float)
    ws = np.array([w for _, w in configs], dtype=float)
    times = np.array([cpu.task_time(o, w) for o, w in configs])
    return ops, ws, times
