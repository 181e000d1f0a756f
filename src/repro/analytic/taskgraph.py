"""Task-graph analytical prediction: longest path through the dynamic DAG.

The second analytical corner of the POEMS modeling matrix (after the
per-rank summation of :mod:`repro.analytic.predictor`): expand the
program into its *dynamic task graph* for a concrete configuration —
per-rank operation chains, message edges matched send-to-receive, and
collective joins — and predict execution time as the longest weighted
path.  No discrete-event simulation: ordering effects that depend on
*resources* (rendezvous hand-shakes, unexpected-message queueing) are
ignored, but precedence-driven pipelines (Sweep3D's wavefronts) are
captured exactly, unlike the per-rank summation.

This is the representation-level analysis the static-task-graph papers
([2, 3]) build toward: "The static task graph provides a convenient
program representation to support such a flexible modeling
environment."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.nodes import Program
from ..machine import CpuModel, MachineParams, NetworkModel
from ..sim.requests import (
    ANY_SOURCE,
    ANY_TAG,
    Alloc,
    Collective,
    Compute,
    Delay,
    Free,
    Irecv,
    Isend,
    Now,
    Recv,
    Send,
    Wait,
)
from .predictor import isolated_requests

__all__ = ["TaskGraphPrediction", "taskgraph_predict"]


@dataclass(frozen=True)
class TaskGraphPrediction:
    """Longest-path estimate plus graph statistics."""

    elapsed: float
    nodes: int
    messages: int
    critical_rank: int  # rank on which the longest path terminates


class _Node:
    __slots__ = ("cost", "deps", "finish")

    def __init__(self, cost: float):
        self.cost = cost
        self.deps: list[tuple[int, float]] = []  # (node id, edge weight)
        self.finish = 0.0


def taskgraph_predict(
    program: Program,
    inputs: dict,
    nprocs: int,
    machine: MachineParams,
    wparams: dict[str, float] | None = None,
) -> TaskGraphPrediction:
    """Expand *program*'s dynamic task graph and take its longest path."""
    cpu = CpuModel(machine.cpu)
    net = NetworkModel(machine.net)

    nodes: list[_Node] = []
    last_of_rank: list[int | None] = [None] * nprocs
    # FIFO matching state per (src, dst, tag): unmatched send node ids /
    # unmatched recv node ids
    pending_sends: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    pending_recvs: dict[tuple[int, int, int], list[int]] = {}
    colls: dict[int, list[int]] = {}  # collective index -> member node ids
    coll_meta: dict[int, tuple[str, int]] = {}
    messages = 0

    def new_node(rank: int, cost: float, chain: bool = True) -> int:
        nid = len(nodes)
        node = _Node(cost)
        if chain and last_of_rank[rank] is not None:
            node.deps.append((last_of_rank[rank], 0.0))
        nodes.append(node)
        if chain:
            last_of_rank[rank] = nid
        return nid

    def match_send(rank: int, dest: int, tag: int, nbytes: int, nid: int) -> None:
        nonlocal messages
        messages += 1
        key = (rank, dest, tag)
        if pending_recvs.get(key):
            rnid = pending_recvs[key].pop(0)
            nodes[rnid].deps.append((nid, net.transit_time(nbytes)))
        else:
            pending_sends.setdefault(key, []).append((nid, nbytes))

    def match_recv(rank: int, source: int, tag: int, nid: int) -> None:
        if source == ANY_SOURCE or tag == ANY_TAG:
            raise ValueError(
                "the task-graph predictor requires fully-specified receives "
                "(wildcard matching is resource-dependent)"
            )
        key = (source, rank, tag)
        if pending_sends.get(key):
            snid, nbytes = pending_sends[key].pop(0)
            nodes[nid].deps.append((snid, net.transit_time(nbytes)))
        else:
            pending_recvs.setdefault(key, []).append(nid)

    handle_nodes: dict[tuple[int, int], int] = {}  # (rank, hid) -> node id
    coll_count = [0] * nprocs  # collectives each rank has issued
    for rank, req, hid in isolated_requests(program, inputs, nprocs, wparams):
        ty = type(req)
        if ty is Compute:
            new_node(rank, cpu.task_time(req.ops, req.working_set_bytes))
        elif ty is Delay:
            new_node(rank, req.seconds)
        elif ty is Send or ty is Isend:
            nid = new_node(rank, net.send_overhead(req.nbytes))
            match_send(rank, req.dest, req.tag, req.nbytes, nid)
            if hid is not None:
                handle_nodes[rank, hid] = nid
        elif ty is Recv:
            nid = new_node(rank, net.recv_overhead(req.nbytes_hint))
            match_recv(rank, req.source, req.tag, nid)
        elif ty is Irecv:
            # off-chain node: the completion joins at the Wait
            nid = new_node(rank, net.recv_overhead(req.nbytes_hint), chain=False)
            if last_of_rank[rank] is not None:
                nodes[nid].deps.append((last_of_rank[rank], 0.0))
            match_recv(rank, req.source, req.tag, nid)
            handle_nodes[rank, hid] = nid
        elif ty is Wait:
            nid = new_node(rank, 0.0)
            for h in req.handles:
                nodes[nid].deps.append((handle_nodes.pop((rank, h.hid)), 0.0))
        elif ty is Collective:
            idx = coll_count[rank]
            coll_count[rank] += 1
            nid = new_node(rank, 0.0)
            colls.setdefault(idx, []).append(nid)
            coll_meta[idx] = (req.op, max(req.nbytes, coll_meta.get(idx, ("", 0))[1]))
        elif ty not in (Alloc, Free, Now):
            raise TypeError(f"task-graph predictor cannot expand {req!r}")

    unmatched = sum(len(v) for v in pending_sends.values()) + sum(
        len(v) for v in pending_recvs.values()
    )
    if unmatched:
        raise ValueError(f"{unmatched} unmatched point-to-point operation(s) in the expansion")

    # collective joins: all members depend on all members' predecessors,
    # and each member's cost is the collective's model time
    for idx, members in colls.items():
        op, nbytes = coll_meta[idx]
        duration = net.collective_time(op, nbytes, nprocs)
        preds = []
        for m in members:
            preds.extend(nodes[m].deps)
            nodes[m].cost = duration
        for m in members:
            nodes[m].deps = list(preds)

    # longest path (node ids are already topological: deps precede uses
    # except cross-rank message edges, handled by iterating until stable)
    changed = True
    rounds = 0
    max_rounds = max(64, 8 * nprocs)
    while changed:
        changed = False
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("task-graph longest path did not converge (cyclic matching?)")
        for node in nodes:
            start = 0.0
            for dep, w in node.deps:
                t = nodes[dep].finish + w
                if t > start:
                    start = t
            finish = start + node.cost
            if finish > node.finish + 1e-18:
                node.finish = finish
                changed = True

    elapsed = 0.0
    critical_rank = 0
    for rank in range(nprocs):
        nid = last_of_rank[rank]
        if nid is not None and nodes[nid].finish > elapsed:
            elapsed = nodes[nid].finish
            critical_rank = rank
    return TaskGraphPrediction(
        elapsed=elapsed, nodes=len(nodes), messages=messages, critical_rank=critical_rank
    )
