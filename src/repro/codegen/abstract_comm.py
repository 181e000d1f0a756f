"""Abstract communication modeling — the paper's proposed alternative.

From the conclusions (Sec. 5): "An obvious alternative is to extend the
MPI-Sim simulator to take as input an abstract model of the
communication (based on message size, message destination, etc.) and
use it to predict communication performance."  This module implements
that alternative as a further program transformation: every
point-to-point operation in a simplified program is replaced by a
``delay`` priced from the machine's analytic network model, removing
message matching and inter-process blocking entirely.

The trade-off this exposes (and the ablation bench measures): with no
messages there is no synchronization, so *pipeline coupling disappears*.
Loosely-coupled codes (Tomcatv) lose little accuracy; wavefront codes
(Sweep3D), whose execution time is shaped by the pipeline fill the
messages enforce, lose a lot — which is precisely why the paper keeps
detailed communication simulation while abstracting computation.

Collectives are kept (they already use an analytic model inside the
kernel and provide the barrier semantics even fully-abstract models
need to stay causal).
"""

from __future__ import annotations

from dataclasses import replace

from ..ir.nodes import (
    AllocStmt,
    ArrayAssign,
    Assign,
    CollectiveStmt,
    CompBlock,
    DelayStmt,
    For,
    If,
    IrecvStmt,
    IsendStmt,
    Program,
    ReadParams,
    RecvStmt,
    SendStmt,
    Stmt,
    WaitAllStmt,
)
from ..machine import MachineParams
from ..symbolic import Const

__all__ = ["generate_abstract_comm"]


def generate_abstract_comm(program: Program, machine: MachineParams) -> Program:
    """Replace point-to-point communication in *program* with delays.

    Send: charged the sender-side injection overhead.  Recv: charged the
    end-to-end analytic message time (latency + size/bandwidth + receive
    overhead) — the expected completion of a perfectly-pipelined
    message, with no waiting for the partner.
    """
    net = machine.net
    per_byte = Const(net.per_byte)

    def xform(stmts: list[Stmt]) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            origin = s.profile_key
            if isinstance(s, (SendStmt, IsendStmt)):
                cost = Const(net.cpu_overhead) + 0.1 * s.nbytes * per_byte
                out.append(DelayStmt(cost, task=f"abstract_send@{origin}", origin=origin))
            elif isinstance(s, (RecvStmt, IrecvStmt)):
                cost = (
                    Const(net.latency)
                    + s.nbytes * per_byte
                    + Const(net.cpu_overhead)
                    + 0.1 * s.nbytes * per_byte
                )
                out.append(DelayStmt(cost, task=f"abstract_recv@{origin}", origin=origin))
            elif isinstance(s, For):
                out.append(replace(s, body=xform(s.body), origin=origin))
            elif isinstance(s, If):
                out.append(replace(s, then=xform(s.then), orelse=xform(s.orelse), origin=origin))
            elif isinstance(s, (Assign, ArrayAssign, CompBlock, CollectiveStmt,
                                DelayStmt, ReadParams)):
                out.append(replace(s, origin=origin))
            elif not isinstance(s, (WaitAllStmt, AllocStmt)):
                raise TypeError(f"cannot abstract statement of kind {type(s).__name__}")
            # a wait has nothing left to wait for, and the dummy
            # communication buffer is no longer referenced
        return out

    abstract = replace(
        program, body=xform(program.body),
        meta={**program.meta, "abstract_comm": machine.name},
    )
    abstract.validate()
    return abstract
