"""Shared building blocks for the benchmark applications.

Helpers for 2-D process grids (rank ↔ (ip, jp) coordinates expressed
symbolically over ``myid``), block-distribution extents (the
``min/max``-clipped per-rank block sizes of Fig. 1), deadlock-free
nearest-neighbour exchanges (non-blocking post/post/wait as dhpf
emits), and numeric grid factorization for the experiment harnesses.
"""

from __future__ import annotations

import math

from ..ir.builder import ProgramBuilder, myid
from ..symbolic import And, Eq, FloorDiv, Gt, Lt, Max, Min, Mod, Or, Var, ceil_div
from ..symbolic.expr import Expr, ExprLike

__all__ = [
    "grid_coords",
    "block_extent",
    "neighbor_exchange_1d",
    "sweep_guards",
    "factor2d",
    "square_side",
]


def grid_coords(b: ProgramBuilder, px: ExprLike = Var("px")) -> tuple[Var, Var]:
    """Emit ``ip = myid mod px``, ``jp = myid / px`` and return the vars."""
    b.assign("ip", Mod.make(myid, px))
    b.assign("jp", FloorDiv.make(myid, px))
    return Var("ip"), Var("jp")


def block_extent(
    b: ProgramBuilder, var: str, total: ExprLike, nparts: ExprLike, coord: ExprLike
) -> Var:
    """Emit the per-rank block extent of a BLOCK distribution.

    ``bsz = ceil(total/nparts); var = max(0, min(total, (coord+1)*bsz) - coord*bsz)``
    — rank-dependent, exactly the clipped bounds of the paper's example.
    """
    bsz_name = f"{var}_bsz"
    b.assign(bsz_name, ceil_div(total, nparts))
    bsz = Var(bsz_name)
    b.assign(var, Max.make(0, Min.make(total, (coord + 1) * bsz) - coord * bsz))
    return Var(var)


def neighbor_exchange_1d(
    b: ProgramBuilder,
    coord: Expr,
    extent: Expr,
    stride: ExprLike,
    nbytes: ExprLike,
    tag: int,
    array: str | None = None,
) -> None:
    """Bidirectional boundary exchange along one grid axis.

    Non-blocking form, as dhpf-generated exchange code uses: post both
    receives, issue both sends, wait on all four requests.  Inherently
    deadlock-free regardless of the eager/rendezvous protocol switch.
    Handle names are derived from the tag so nested exchanges on
    different axes don't collide.
    """
    from ..symbolic import as_expr

    stride = as_expr(stride)
    left_guard = Gt(coord, 0)
    right_guard = Lt(coord, extent - 1)
    rl, rr, sl, sr = (f"rq{tag}_rl", f"rq{tag}_rr", f"rq{tag}_sl", f"rq{tag}_sr")
    with b.if_(left_guard):
        b.irecv(source=myid - stride, nbytes=nbytes, tag=tag, array=array, handle=rl)
    with b.if_(right_guard):
        b.irecv(source=myid + stride, nbytes=nbytes, tag=tag, array=array, handle=rr)
    with b.if_(left_guard):
        b.isend(dest=myid - stride, nbytes=nbytes, tag=tag, array=array, handle=sl)
    with b.if_(right_guard):
        b.isend(dest=myid + stride, nbytes=nbytes, tag=tag, array=array, handle=sr)
    b.waitall(rl, rr, sl, sr)


def sweep_guards(sflag: Expr, coord: Expr, extent: Expr):
    """(upstream_guard, downstream_guard) for a signed sweep direction.

    ``sflag`` is 0 for the +axis sweep, 1 for the −axis sweep.
    """
    up = Or.make(
        And.make(Eq(sflag, 0), Gt(coord, 0)),
        And.make(Eq(sflag, 1), Lt(coord, extent - 1)),
    )
    down = Or.make(
        And.make(Eq(sflag, 0), Lt(coord, extent - 1)),
        And.make(Eq(sflag, 1), Gt(coord, 0)),
    )
    return up, down


def factor2d(nprocs: int) -> tuple[int, int]:
    """Closest-to-square (px, py) factorization with px*py == nprocs."""
    if nprocs < 1:
        raise ValueError("nprocs must be positive")
    px = int(math.isqrt(nprocs))
    while nprocs % px != 0:
        px -= 1
    return px, nprocs // px


def square_side(nprocs: int) -> int:
    """Side of a square process grid; rejects non-square counts (NAS SP)."""
    side = int(math.isqrt(nprocs))
    if side * side != nprocs:
        raise ValueError(f"NAS SP requires a square number of processes, got {nprocs}")
    return side
