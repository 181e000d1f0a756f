"""Pure-analytic performance prediction from the compiled model.

The POEMS goal the paper closes with: "we aim to support any
combination of analytical modeling, simulation modeling and measurement
for the sequential tasks and the communication code."  This module is
the fully-analytical corner of that matrix — no discrete-event
simulation at all, in the spirit of the "abstract simulation" systems
([9, 10]) the introduction contrasts against, but built *from the
compiler's model*, so control flow is still honoured:

each rank's simplified program is executed locally (control flow and
sliced scalar code run for real), while every operation is priced by a
closed-form model — delays by their scaling functions, point-to-point
by latency+bandwidth with no partner synchronization, collectives by
the tree model.  The estimate is the slowest rank's total.

Because inter-process blocking is ignored, the estimate is
near-exact for bulk-synchronous codes and a *lower bound* for
pipelined ones — quantifying exactly what detailed communication
simulation buys (see the abstract-communication ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.interp import make_factory
from ..ir.nodes import Program
from ..machine import CpuModel, MachineParams, NetworkModel
from ..sim.requests import (
    Alloc,
    Collective,
    CollectiveResult,
    Compute,
    Delay,
    Free,
    Irecv,
    Isend,
    Now,
    Recv,
    RequestHandle,
    Send,
    Wait,
)

__all__ = ["AnalyticPrediction", "analytic_predict"]


@dataclass(frozen=True)
class AnalyticPrediction:
    """Per-rank analytic cost totals and the resulting estimate."""

    per_rank: tuple[float, ...]
    compute: tuple[float, ...]
    comm: tuple[float, ...]

    @property
    def elapsed(self) -> float:
        """The estimate: the slowest rank's total (no blocking modelled)."""
        return max(self.per_rank)

    @property
    def imbalance(self) -> float:
        """max/mean per-rank cost — the analytic load-balance indicator."""
        mean = sum(self.per_rank) / len(self.per_rank)
        return self.elapsed / mean if mean > 0 else 1.0


def isolated_requests(
    program: Program,
    inputs: dict,
    nprocs: int,
    wparams: dict[str, float] | None = None,
):
    """Every rank's requests, rank after rank, each rank run on its own.

    Yields ``(rank, request, hid)``, where *hid* numbers the handle of a
    non-blocking send or receive as the event loop would (from 1 on each
    rank) and is ``None`` for any other request.  No partner answers, so
    the walk hands the interpreter the replies it reads: each handle, the
    parameter dict for the parameter broadcast (a non-root rank never
    sees root's payload), no data for other collectives and a zero
    clock.  Both analytic predictors price this walk.
    """
    factory = make_factory(program, inputs, wparams=wparams)
    for rank in range(nprocs):
        gen = factory(rank, nprocs)
        value = None
        hid = 0
        while True:
            try:
                req = gen.send(value)
            except StopIteration:
                break
            value = None
            ty = type(req)
            if ty is Isend or ty is Irecv:
                hid += 1
                value = RequestHandle(hid, "send" if ty is Isend else "recv")
                yield rank, req, hid
                continue
            yield rank, req, None
            if ty is Collective:
                data = None
                if req.op == "bcast":
                    data = req.data if req.data is not None else dict(wparams or {})
                value = CollectiveResult(data, 0.0)
            elif ty is Now:
                value = 0.0


def analytic_predict(
    program: Program,
    inputs: dict,
    nprocs: int,
    machine: MachineParams,
    wparams: dict[str, float] | None = None,
) -> AnalyticPrediction:
    """Price *program* rank by rank with closed-form models only."""
    cpu = CpuModel(machine.cpu)
    net = NetworkModel(machine.net)
    computes = [0.0] * nprocs
    comms = [0.0] * nprocs
    for rank, req, _ in isolated_requests(program, inputs, nprocs, wparams):
        ty = type(req)
        if ty is Compute:
            computes[rank] += cpu.task_time(req.ops, req.working_set_bytes)
        elif ty is Delay:
            computes[rank] += req.seconds
        elif ty is Send or ty is Isend:
            comms[rank] += net.send_overhead(req.nbytes)
        elif ty is Recv or ty is Irecv:
            # the message cost is charged here; Wait is then free
            n = req.nbytes_hint
            comms[rank] += net.transit_time(n) + net.recv_overhead(n)
        elif ty is Collective:
            comms[rank] += net.collective_time(req.op, req.nbytes, nprocs)
        elif ty not in (Wait, Alloc, Free, Now):
            raise TypeError(f"analytic predictor cannot price {req!r}")
    totals = tuple(comp + comm for comp, comm in zip(computes, comms))
    return AnalyticPrediction(totals, tuple(computes), tuple(comms))
