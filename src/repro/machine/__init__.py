"""Target-machine and host-machine models (IBM SP, SGI Origin 2000).

Substitutes for the physical machines of the paper's evaluation: a CPU
timing model with cache-working-set effects, a LogGP-style interconnect
model with an eager/rendezvous protocol switch, perturbation parameters
that distinguish the *real* machine from the simulator's nominal model,
and host-machine parameters (memory, per-event costs) that bound and
price the simulator's own execution.
"""

from .. import _lazy_package

__all__, __getattr__, __dir__ = _lazy_package(__name__, names={
    ".cpu": ("CpuModel",),
    ".network": ("NetworkModel", "COLLECTIVE_OPS"),
    ".params": ("CpuParams", "NetworkParams", "PerturbationParams", "HostParams",
                "MachineParams", "IBM_SP", "ORIGIN_2000", "TESTING_MACHINE",
                "get_machine", "KiB", "MiB", "GiB"),
    ".fitting": ("fit_network_params", "fit_cpu_params", "fit_machine"),
    ".topology": ("hops", "mean_hops", "TOPOLOGIES"),
})
