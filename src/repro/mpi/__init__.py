"""Virtual MPI runtime: the target-program API.

This package plays the role of the MPI library in MPI-Sim's
architecture: target programs issue MPI-like operations, the simulation
kernel (:mod:`repro.sim.loop`, which also does the message matching)
traps them and advances virtual time using the machine's communication
model.
"""

from . import api
from .api import (
    ANY_SOURCE,
    ANY_TAG,
    isend,
    irecv,
    waitall,
    allgather,
    alloc,
    allreduce,
    alltoall,
    barrier,
    bcast,
    compute,
    delay,
    free,
    gather,
    recv,
    reduce,
    scatter,
    send,
    wtime,
)

__all__ = [
    "api",
    "send",
    "recv",
    "isend",
    "irecv",
    "waitall",
    "compute",
    "delay",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "allgather",
    "scatter",
    "alltoall",
    "alloc",
    "free",
    "wtime",
    "ANY_SOURCE",
    "ANY_TAG",
]
