"""Parameter records describing target machines and simulation hosts.

The paper validates on two platforms: the distributed-memory IBM SP (up
to 128 processors) and the shared-memory SGI Origin 2000 (up to 8
processors, with MPI communication simulated rather than shared-memory
traffic).  We model a machine as

* a CPU (time per abstract operation, a two-level cache hierarchy whose
  working-set factor slows large tasks down, and a timer-call cost), and
* an interconnect (LogGP-flavoured: per-message latency, per-byte time,
  per-message CPU overhead, an eager/rendezvous threshold).

The *nominal* parameters are what MPI-Sim's communication model uses.
The *ground-truth* perturbation factors describe how the real machine
deviates from the nominal model (contention, OS noise, measured-versus-
modelled latency), which is what gives MPI-SIM-DE and MPI-SIM-AM their
non-zero validation errors — see DESIGN.md §5.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CpuParams",
    "NetworkParams",
    "PerturbationParams",
    "HostParams",
    "MachineParams",
    "IBM_SP",
    "ORIGIN_2000",
    "TESTING_MACHINE",
    "get_machine",
]

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class CpuParams:
    """Processor timing parameters.

    ``time_per_op`` is the cost of one abstract operation — roughly one
    floating-point update including its share of loads/stores — when the
    working set fits in L1.  ``l2_factor`` / ``mem_factor`` multiply task
    time when the per-process working set falls out of L1 / L2; the
    factor is interpolated log-linearly between levels so that shrinking
    a working set (e.g. by adding processors) speeds tasks up smoothly,
    which is precisely the effect the paper's linear scaling functions do
    *not* model (Sec. 3.3).
    """

    time_per_op: float = 1.0e-8  # ~100 Mflop/s effective, a 1999-era CPU
    l1_bytes: int = 64 * KiB
    l2_bytes: int = 4 * MiB
    l2_factor: float = 1.12
    mem_factor: float = 1.30
    timer_overhead: float = 2.0e-6  # one timer read (start *or* stop)


@dataclass(frozen=True)
class NetworkParams:
    """Interconnect timing parameters (LogGP-flavoured).

    ``latency``: end-to-end time for a zero-byte message.
    ``per_byte``: inverse bandwidth.
    ``cpu_overhead``: CPU time charged to sender and receiver per message.
    ``eager_limit``: messages up to this size are buffered eagerly; larger
    messages rendezvous (the sender blocks until the receive is posted),
    as in MPI-Sim's communication model.
    """

    latency: float = 30.0e-6
    per_byte: float = 1.0 / (100 * MiB)  # ~100 MB/s
    cpu_overhead: float = 5.0e-6
    eager_limit: int = 16 * KiB
    rendezvous_latency: float = 15.0e-6  # extra handshake for large messages
    #: interconnect topology for hop-dependent latency; "crossbar" keeps
    #: the classic uniform model (see repro.machine.topology)
    topology: str = "crossbar"
    per_hop: float = 0.0  # extra latency per router hop beyond the first


@dataclass(frozen=True)
class PerturbationParams:
    """How the *real* machine deviates from the nominal network/CPU model.

    These feed only the ground-truth ("measured") runner: contention and
    protocol effects make real latency/bandwidth slightly worse than the
    simulator's analytic model, and both computation and communication
    carry multiplicative lognormal noise.
    """

    latency_factor: float = 1.10
    bandwidth_factor: float = 0.93  # effective bandwidth fraction under contention
    comm_noise_sigma: float = 0.05
    cpu_noise_sigma: float = 0.015
    collective_factor: float = 1.08


@dataclass(frozen=True)
class HostParams:
    """The machine the simulator itself runs on (host machine, Sec. 2.1).

    ``mem_bytes`` bounds what can be simulated: MPI-Sim's direct execution
    "implies that the memory [...] of the simulator is at least as large
    as that of the target application".  The per-event/per-message costs
    parameterize the simulator performance model of ``repro.parallel``.
    """

    mem_bytes: int = 16 * GiB  # aggregate host memory available to the simulator
    thread_overhead_bytes: int = 24 * KiB  # simulator kernel state per target thread
    event_overhead: float = 2.0e-6  # host cost of scheduling one event
    message_overhead: float = 6.0e-6  # host cost of simulating one message
    message_per_byte: float = 1.0e-8  # host cost of copying simulated payload (~100 MB/s)
    delay_call_overhead: float = 1.0e-6  # host cost of one delay() call
    direct_exec_factor: float = 2.0  # host slowdown re-executing target code (f2c, instrumentation)
    null_message_overhead: float = 4.0e-6  # conservative-protocol bookkeeping per cross-host message
    host_latency: float = 25.0e-6  # host interconnect latency (protocol messages)


@dataclass(frozen=True)
class MachineParams:
    """A complete named machine: CPU + network + truth perturbations + host."""

    name: str
    cpu: CpuParams
    net: NetworkParams
    truth: PerturbationParams
    host: HostParams


#: Distributed-memory IBM SP (the paper's main validation platform).
IBM_SP = MachineParams(
    name="IBM-SP",
    cpu=CpuParams(
        time_per_op=1.0e-8,
        l1_bytes=64 * KiB,
        l2_bytes=4 * MiB,
        l2_factor=1.12,
        mem_factor=1.30,
        timer_overhead=2.0e-6,
    ),
    net=NetworkParams(
        latency=30.0e-6,
        per_byte=1.0 / (100 * MiB),
        cpu_overhead=5.0e-6,
        eager_limit=16 * KiB,
        rendezvous_latency=15.0e-6,
    ),
    truth=PerturbationParams(),
    host=HostParams(),
)

#: Shared-memory SGI Origin 2000 (SAMPLE experiments; MPI traffic simulated).
ORIGIN_2000 = MachineParams(
    name="SGI-Origin-2000",
    cpu=CpuParams(
        time_per_op=8.0e-9,
        l1_bytes=32 * KiB,
        l2_bytes=8 * MiB,
        l2_factor=1.10,
        mem_factor=1.25,
        timer_overhead=1.5e-6,
    ),
    net=NetworkParams(
        latency=12.0e-6,
        per_byte=1.0 / (160 * MiB),
        cpu_overhead=3.0e-6,
        eager_limit=16 * KiB,
        rendezvous_latency=8.0e-6,
    ),
    truth=PerturbationParams(
        latency_factor=1.12,
        bandwidth_factor=0.90,
        comm_noise_sigma=0.06,
        cpu_noise_sigma=0.015,
        collective_factor=1.10,
    ),
    host=HostParams(host_latency=15.0e-6),
)

#: A small, fast machine for unit tests: exact (noise-free) ground truth.
TESTING_MACHINE = MachineParams(
    name="testing",
    cpu=CpuParams(time_per_op=1.0e-6, l2_factor=1.0, mem_factor=1.0, timer_overhead=0.0),
    net=NetworkParams(latency=1.0e-3, per_byte=1.0e-6, cpu_overhead=1.0e-4, eager_limit=1024),
    truth=PerturbationParams(
        latency_factor=1.0,
        bandwidth_factor=1.0,
        comm_noise_sigma=0.0,
        cpu_noise_sigma=0.0,
        collective_factor=1.0,
    ),
    host=HostParams(mem_bytes=1 * GiB),
)

_REGISTRY = {m.name: m for m in (IBM_SP, ORIGIN_2000, TESTING_MACHINE)}


def get_machine(name: str) -> MachineParams:
    """Look up a machine preset by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown machine {name!r}; known machines: {known}") from None
