"""Timer-instrumented program generation (Fig. 2, measurement branch).

"The modified dhpf compiler automatically generates two versions of the
MPI program.  One is the simplified MPI code with delay calls [...].
The second is the full MPI code with timer calls inserted to perform
the measurements of the w_i parameters."  This module generates that
second version: the original program with a timer pair around every
computational task.
"""

from __future__ import annotations

from dataclasses import replace

from ..ir.nodes import (
    ArrayAssign,
    Assign,
    CollectiveStmt,
    CompBlock,
    For,
    If,
    IrecvStmt,
    IsendStmt,
    Program,
    RecvStmt,
    SendStmt,
    StartTimer,
    Stmt,
    StopTimer,
    WaitAllStmt,
)

__all__ = ["generate_instrumented"]

#: the statement kinds of a source program (generated ones do not instrument)
_LEAVES = (
    Assign, ArrayAssign, CompBlock, SendStmt, RecvStmt, IsendStmt, IrecvStmt,
    WaitAllStmt, CollectiveStmt,
)


def generate_instrumented(program: Program) -> Program:
    """The full program with ``timer_start``/``timer_stop`` around every
    computational task; measurements pool across call sites by task name."""
    instr = replace(
        program, body=_instrument(program.body),
        meta={**program.meta, "instrumented_from": program.name},
    )
    instr.validate()
    return instr


def _instrument(stmts: tuple[Stmt, ...]) -> list[Stmt]:
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, For):
            out.append(replace(s, body=_instrument(s.body), origin=s.profile_key))
        elif isinstance(s, If):
            out.append(replace(
                s, then=_instrument(s.then), orelse=_instrument(s.orelse),
                origin=s.profile_key,
            ))
        elif not isinstance(s, _LEAVES):
            raise TypeError(f"cannot instrument statement of kind {type(s).__name__}")
        elif isinstance(s, CompBlock):
            out.extend([StartTimer(s.name), replace(s, origin=s.profile_key), StopTimer(s.name)])
        else:
            out.append(replace(s, origin=s.profile_key))
    return out
