"""Simplified-program generation: emit the code MPI-Sim actually runs.

Produces the paper's Fig. 1(c) from Fig. 1(a):

* retained control flow and *all* communication calls are kept verbatim;
* condensed regions become ``delay(<scaling function>)`` calls, preceded
  by the sliced-in statements that compute retained values;
* communication buffers whose arrays are otherwise unused are replaced
  by a single ``dummy_buf`` sized to the largest message;
* a ``read_and_broadcast`` of the measured ``w_i`` parameters is
  prepended;
* every data array the slice does not need is eliminated from the
  declarations — the memory reduction of Table 1.
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
from ..slicing.slicer import SliceResult
from ..stg.condense import CondensePlan, PlanRegion
from ..symbolic import Const, Max
from ..symbolic.expr import Expr

__all__ = ["generate_simplified", "DUMMY_BUF"]

#: Name of the shared dummy communication buffer in simplified programs.
DUMMY_BUF = "dummy_buf"


def generate_simplified(
    program: Program,
    plan: CondensePlan,
    sl: SliceResult,
    eliminate_dead_data: bool = True,
) -> Program:
    """Emit the simplified program for *program* under *plan* and *sl*.

    ``eliminate_dead_data=False`` keeps every array declaration and real
    communication buffer (no dummy-buffer substitution) — the ablation
    that isolates how much of the paper's memory win comes from slicing-
    driven data elimination versus computation abstraction alone.
    """
    if eliminate_dead_data:
        kept_arrays = _kept_arrays(program, plan, sl)
    else:
        kept_arrays = set(program.arrays)
    body = _emit_items(plan.root, sl, kept_arrays)
    body = _insert_dummy_alloc(body, program, kept_arrays)
    wnames = plan.w_params()
    if wnames:
        body.insert(0, ReadParams(wnames))
    simplified = replace(
        program, body=body,
        arrays={name: decl for name, decl in program.arrays.items() if name in kept_arrays},
        meta={
            **program.meta,
            "simplified_from": program.name,
            "regions": {r.name: str(r.cost) for r in plan.regions},
        },
    )
    simplified.validate()
    return simplified


# ---------------------------------------------------------------------------
# array liveness
# ---------------------------------------------------------------------------


def _kept_arrays(program: Program, plan: CondensePlan, sl: SliceResult) -> set[str]:
    """Arrays that must survive: referenced by the slice (scaling-function
    Index references, retained ArrayAssign targets/inputs) or touched by
    pinned, directly-executed computational tasks."""
    kept: set[str] = set()
    for s in program.statements():
        if isinstance(s, ArrayAssign) and s.sid in sl.retained_sids:
            kept.add(s.array)
            kept.update(a for a in s.reads_ if a in program.arrays)
        elif isinstance(s, CompBlock) and s.sid in sl.pinned_blocks:
            kept.update(s.arrays)
    kept.update(n for n in sl.needed if n in program.arrays)
    return kept


# ---------------------------------------------------------------------------
# statement emission
# ---------------------------------------------------------------------------


def _copy_comm(s: Stmt, kept_arrays: set[str]) -> Stmt:
    """Fresh copy of a communication statement, with dead buffers
    redirected to the dummy buffer."""
    if isinstance(s, WaitAllStmt):
        return replace(s, origin=s.profile_key)
    if not isinstance(s, (SendStmt, RecvStmt, IsendStmt, IrecvStmt, CollectiveStmt)):
        raise TypeError(f"not a communication statement: {s!r}")
    array = s.array if (s.array is None or s.array in kept_arrays) else DUMMY_BUF
    return replace(s, array=array, origin=s.profile_key)


def _strip_dead_payload(s: CollectiveStmt, sl: SliceResult) -> CollectiveStmt:
    """Drop reduction payloads whose results nothing retained consumes —
    their producers have been abstracted away, so the values no longer
    exist; the collective's *timing* is unchanged."""
    if s.result_var is not None and s.result_var not in sl.needed:
        return CollectiveStmt(s.op, s.nbytes, s.root, s.array, None, None, s.reduce_kind)
    return s


def _copy_leaf(s: Stmt) -> Stmt:
    if not isinstance(s, (Assign, ArrayAssign, CompBlock)):
        raise TypeError(f"cannot copy {type(s).__name__}")
    return replace(s, origin=s.profile_key)


def _emit_items(items: list, sl: SliceResult, kept_arrays: set[str]) -> list[Stmt]:
    out: list[Stmt] = []
    for item in items:
        if isinstance(item, PlanRegion):
            out.extend(_extract_exec_slice(item.stmts, sl))
            if item.region.cost != Const(0):
                out.append(DelayStmt(item.region.cost, task=item.region.name))
            continue
        s = item.stmt
        if isinstance(s, For):
            out.append(replace(
                s, body=_emit_items(item.body_plans[0], sl, kept_arrays), origin=s.profile_key,
            ))
        elif isinstance(s, If):
            out.append(replace(
                s,
                then=_emit_items(item.body_plans[0], sl, kept_arrays),
                orelse=_emit_items(item.body_plans[1], sl, kept_arrays),
                origin=s.profile_key,
            ))
        elif isinstance(s, CollectiveStmt):
            out.append(_copy_comm(_strip_dead_payload(s, sl), kept_arrays))
        elif s.is_comm():
            out.append(_copy_comm(s, kept_arrays))
        elif isinstance(s, CompBlock):
            # pinned: stays directly executed
            out.append(_copy_leaf(s))
        elif isinstance(s, (Assign, ArrayAssign)):
            if s.sid in sl.retained_sids:
                out.append(_copy_leaf(s))
        else:
            raise TypeError(
                f"unexpected statement kind in source program: {type(s).__name__}"
            )
    return out


def _extract_exec_slice(stmts: list[Stmt], sl: SliceResult) -> list[Stmt]:
    """From a condensed region, keep just the sliced-in executable code
    (and the control structure guarding it, built afresh: its copies
    carry no origin)."""
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, For):
            body = _extract_exec_slice(s.body, sl)
            if body:
                out.append(For(s.var, s.lo, s.hi, body))
        elif isinstance(s, If):
            then = _extract_exec_slice(s.then, sl)
            orelse = _extract_exec_slice(s.orelse, sl)
            if then or orelse:
                out.append(If(s.cond, then, orelse, s.data_dependent))
        elif isinstance(s, (Assign, ArrayAssign)) and s.sid in sl.retained_sids:
            out.append(_copy_leaf(s))
        # CompBlocks inside regions are never sliced-in (a sliced block
        # pins the region open), so everything else is dropped
    return out


# ---------------------------------------------------------------------------
# dummy buffer
# ---------------------------------------------------------------------------


def _contains_comm(s: Stmt) -> bool:
    if s.is_comm():
        return True
    return any(any(_contains_comm(c) for c in block) for block in s.children())


def _dummy_sizes(stmts: list[Stmt]) -> list[Expr]:
    sizes = []
    for s in stmts:
        if (
            isinstance(s, (SendStmt, RecvStmt, IsendStmt, IrecvStmt, CollectiveStmt))
            and getattr(s, "array", None) == DUMMY_BUF
        ):
            sizes.append(s.nbytes)
        for block in s.children():
            sizes.extend(_dummy_sizes(block))
    return sizes


def _insert_dummy_alloc(body: list[Stmt], program: Program, kept_arrays: set[str]) -> list[Stmt]:
    """Allocate the dummy buffer (max of all message sizes that use it)
    just before the first communication, i.e. once its size variables are
    available (the paper allocates "statically or dynamically, depending
    on when the required message sizes are known")."""
    sizes = _dummy_sizes(body)
    if not sizes:
        return body
    size = Max.make(*sizes) if len(sizes) > 1 else sizes[0]
    alloc = AllocStmt(DUMMY_BUF, size)
    for i, s in enumerate(body):
        if _contains_comm(s):
            return body[:i] + [alloc] + body[i:]
    return body + [alloc]
