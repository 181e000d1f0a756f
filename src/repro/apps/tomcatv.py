"""Tomcatv: the SPEC92 mesh-generation benchmark, written for vector machines.

The paper studies "an HPF version of this benchmark compiled to MPI by
the dhpf compiler [...] where the key arrays of the HPF code are
distributed across the processors in contiguous blocks in the second
dimension (i.e., using the HPF distribution (*,BLOCK))."

Structure modelled (per ITMAX iteration of the real kernel):

* boundary-column exchange with the left/right neighbours in the
  1-D (*,BLOCK) decomposition (two columns of N reals each way);
* residual computation over the local block (RX/RY), with the
  9-point-stencil force terms — the dominant compute;
* a global max-reduction of the residual (the HPF ``MAXVAL``);
* the tridiagonal relaxation solve along columns plus the mesh update.

The iteration count is the input ``itmax`` (the SPEC kernel runs a
fixed count rather than testing convergence, which is what makes the
whole compute abstractable: the residual's *value* never changes the
parallel structure).
"""

from __future__ import annotations

from ..ir.builder import ProgramBuilder, P, myid
from ..symbolic import Var
from .common import block_extent, neighbor_exchange_1d

__all__ = ["build_tomcatv", "tomcatv_inputs", "STENCIL_OPS", "SOLVE_OPS", "UPDATE_OPS"]

#: Abstract ops per point: residual/force 9-point stencil evaluation.
STENCIL_OPS = 40.0
#: Abstract ops per point: tridiagonal forward/backward sweeps.
SOLVE_OPS = 12.0
#: Abstract ops per point: mesh coordinate update + residual max scan.
UPDATE_OPS = 6.0

#: The seven N×cols REAL arrays of the kernel (X, Y, RX, RY, AA, DD, D).
ARRAYS = ("X", "Y", "RX", "RY", "AA", "DD", "D")


def build_tomcatv() -> "Program":
    """Build the Tomcatv IR program.  Parameters: ``n``, ``itmax``."""
    b = ProgramBuilder("tomcatv", params=("n", "itmax"))
    n, itmax = Var("n"), Var("itmax")

    from ..symbolic import ceil_div

    cols_bound = ceil_div(n, P)
    for name in ARRAYS:
        b.array(name, size=n * cols_bound)

    cols = block_extent(b, "cols", n, P, myid)

    # two boundary columns of N reals each way, per iteration
    edge_bytes = 2 * n * 8

    with b.loop("iter", 1, itmax):
        neighbor_exchange_1d(
            b, coord=myid, extent=P, stride=1, nbytes=edge_bytes, tag=3, array="X"
        )
        b.compute(
            "residual",
            work=(n - 2) * cols,
            ops_per_iter=STENCIL_OPS,
            arrays=("X", "Y", "RX", "RY"),
        )
        b.allreduce(nbytes=8, contrib=None, result_var=None, reduce_kind="max")
        b.compute(
            "tridiag_solve",
            work=(n - 2) * cols,
            ops_per_iter=SOLVE_OPS,
            arrays=("RX", "RY", "AA", "DD", "D"),
        )
        b.compute(
            "mesh_update",
            work=(n - 2) * cols,
            ops_per_iter=UPDATE_OPS,
            arrays=("X", "Y", "RX", "RY"),
        )
    return b.build()


def tomcatv_inputs(n: int, itmax: int = 10) -> dict[str, int]:
    """Concrete inputs for a Tomcatv run of mesh size n×n."""
    return {"n": n, "itmax": itmax}
