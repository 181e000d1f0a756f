"""The dhpf front-end: compile an HPF program to the message-passing IR.

Owner-computes compilation for the ``(*, BLOCK)`` distribution:

* each of the P processors owns a contiguous block of columns,
  ``cols_local = max(0, min(cols, (myid+1)*b) - myid*b)`` with
  ``b = ceil(cols / P)`` — the clipped bounds of the paper's Fig. 1;
* arrays are allocated at the block bound plus ghost columns on each
  side (the widest stencil of any FORALL reading the array);
* before a FORALL whose stencil reaches into neighbouring blocks, the
  compiler emits a ghost-column exchange (non-blocking post/post/wait,
  as dhpf's generated MPI does), sized ``rows × ghost_width`` elements;
* the FORALL body becomes a computational task whose symbolic work
  expression is the local iteration count — exactly what the static
  task graph later condenses into a scaling function;
* reductions become ``MPI_Allreduce``.

The output is an ordinary :class:`repro.ir.Program`: everything
downstream (STG synthesis, condensation, slicing, simplified-code
generation, simulation) applies unchanged — the full Fig. 2 pipeline
from HPF source, "without requiring any changes to the source code".
"""

from __future__ import annotations

from ..ir.builder import P, ProgramBuilder, myid
from ..ir.nodes import Program
from ..symbolic import Max, Min, Var, ceil_div
from .model import DoLoop, Forall, HpfProgram, HpfStmt, Reduction

__all__ = ["compile_hpf"]


def compile_hpf(hpf: HpfProgram) -> Program:
    """Compile *hpf* into a message-passing IR program."""
    b = ProgramBuilder(hpf.name, params=hpf.params)
    rows, cols = hpf.rows, hpf.cols

    # ghost width required per array = widest stencil that reads it
    ghost: dict[str, int] = {name: 0 for name in hpf.arrays}
    for f in hpf.foralls():
        for name, stencil in f.reads.items():
            ghost[name] = max(ghost[name], stencil.ghost_width)

    # array declarations: rows x (block bound + ghosts)
    block_bound = ceil_div(cols, P)
    for name, arr in hpf.arrays.items():
        b.array(name, size=rows * (block_bound + 2 * ghost[name]), itemsize=arr.itemsize)

    # the owner's clipped column extent (Fig. 1's min/max bounds)
    b.assign("hpf_b", block_bound)
    bv = Var("hpf_b")
    b.assign("cols_local", Max.make(0, Min.make(cols, (myid + 1) * bv) - myid * bv))
    cols_local = Var("cols_local")

    tags = _TagAllocator()
    _emit_block(b, hpf.body, rows, cols_local, ghost, tags)
    b.meta(compiled_from_hpf=hpf.name, distribution="(*, BLOCK)")
    return b.build()


class _TagAllocator:
    """Distinct MPI tags per communication site (dhpf numbers its sites)."""

    def __init__(self, base: int = 100):
        self._next = base

    def take(self) -> int:
        self._next += 1
        return self._next


def _emit_block(b, stmts: list[HpfStmt], rows, cols_local, ghost, tags) -> None:
    from ..symbolic import Gt, Lt

    for s in stmts:
        if isinstance(s, Forall):
            # ghost exchange for every array read with a nonzero stencil
            for name in sorted(s.reads):
                width = s.reads[name].ghost_width
                if width == 0:
                    continue
                nbytes = rows * width * 8
                tag = tags.take()
                rl, rr, sl, sr = (f"gq{tag}_rl", f"gq{tag}_rr", f"gq{tag}_sl", f"gq{tag}_sr")
                with b.if_(Gt(myid, 0)):
                    b.irecv(source=myid - 1, nbytes=nbytes, tag=tag, array=name, handle=rl)
                with b.if_(Lt(myid, P - 1)):
                    b.irecv(source=myid + 1, nbytes=nbytes, tag=tag, array=name, handle=rr)
                with b.if_(Gt(myid, 0)):
                    b.isend(dest=myid - 1, nbytes=nbytes, tag=tag, array=name, handle=sl)
                with b.if_(Lt(myid, P - 1)):
                    b.isend(dest=myid + 1, nbytes=nbytes, tag=tag, array=name, handle=sr)
                b.waitall(rl, rr, sl, sr)
            # owner-computes local iteration space
            di, dj = s.interior_margin()
            work = (rows - 2 * di) * cols_local if di else rows * cols_local
            arrays = tuple(sorted(set(s.reads) | set(s.writes)))
            b.compute(s.name, work=work, ops_per_iter=s.ops_per_point, arrays=arrays)
        elif isinstance(s, Reduction):
            b.allreduce(nbytes=8, reduce_kind=s.kind)
        elif isinstance(s, DoLoop):
            with b.loop(s.var, s.lo, s.hi):
                _emit_block(b, s.body, rows, cols_local, ghost, tags)
        else:
            raise TypeError(f"cannot compile HPF statement of kind {type(s).__name__}")
