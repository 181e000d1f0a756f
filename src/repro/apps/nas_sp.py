"""NAS SP: the scalar-pentadiagonal NAS Parallel Benchmark (NPB 2.3).

SP solves three sets of uncoupled scalar pentadiagonal systems from an
ADI discretization of the Navier–Stokes equations.  The MPI version
runs on a square process grid.  The feature the paper highlights
(Sec. 3.3): "the grid sizes for each processor are computed and stored
in an array, which is then used in most loop bounds.  The use of an
array makes forward propagation of the symbolic expressions infeasible
[...] We simply retain the executable symbolic scaling expressions,
including references to such arrays, in the simplified code and
evaluate them at execution time."  We reproduce exactly that: the
per-direction cell sizes are computed by ``ArrayAssign`` kernels into
materialized arrays, loop bounds and scaling functions reference them
through :class:`repro.symbolic.Index`, and the slicer must retain the
producers in the simplified program.

Structure modelled per time step (following NPB2.3b2 SP):

* ``copy_faces``: boundary exchange with the four grid neighbours
  (5 components per face point);
* ``compute_rhs``: local stencil work over all cells;
* ``x_solve`` / ``y_solve``: pipelined forward-elimination and
  back-substitution sweeps across the process grid (one slab of lines
  per stage); ``z_solve`` is local (z is not decomposed);
* ``add``: the solution update.

Problem classes: A = 64³ (400 steps), B = 102³, C = 162³.
"""

from __future__ import annotations

from ..ir.builder import ProgramBuilder, myid
from ..symbolic import Gt, Index, Lt, Var
from .common import grid_coords, square_side

__all__ = ["build_nas_sp", "build_nas_sp_multipartition", "sp_inputs", "sp_multi_inputs", "SP_CLASSES", "RHS_OPS", "SOLVE_OPS", "ADD_OPS"]

#: NPB problem classes: name -> (grid size, reference iteration count).
SP_CLASSES = {"S": (12, 100), "W": (36, 400), "A": (64, 400), "B": (102, 400), "C": (162, 400)}

RHS_OPS = 60.0  # compute_rhs: full stencil evaluation per cell
SOLVE_OPS = 22.0  # per cell per direction: forward elim + back subst
ADD_OPS = 5.0  # solution update per cell


def _fill_cell_sizes(arr, total, parts) -> None:
    """The NPB-style cell-size table for one axis: sizes differ by at
    most one (remainder spread over low coords)."""
    parts = int(parts)
    base, rem = divmod(int(total), parts)
    for i in range(parts):
        arr[i] = base + (1 if i < rem else 0)


# The ArrayAssign kernels: top-level functions with declared reads
# (``nx``, ``q``), so the compiled kernel imports them by name.


def cell_size_x_kernel(env, arrays):
    _fill_cell_sizes(arrays["cell_size_x"], env["nx"], env["q"])


def cell_size_y_kernel(env, arrays):
    _fill_cell_sizes(arrays["cell_size_y"], env["nx"], env["q"])


def build_nas_sp() -> "Program":
    """Build the NAS SP IR program.

    Parameters: ``nx`` (cubic grid side), ``q`` (process-grid side,
    P = q²), ``niter`` (time steps).
    """
    b = ProgramBuilder("nas_sp", params=("nx", "q", "niter"))
    nx, q, niter = Var("nx"), Var("q"), Var("niter")

    from ..symbolic import ceil_div

    # per-rank upper bounds for allocation (max cell size on either axis)
    cx_bound = ceil_div(nx, q)
    cells_bound = cx_bound * cx_bound * nx
    # 5-component state/rhs/forcing plus 3 pentadiagonal LHS line buffers
    b.array("u", size=5 * cells_bound)
    b.array("rhs", size=5 * cells_bound)
    b.array("forcing", size=5 * cells_bound)
    b.array("lhs", size=9 * cx_bound * nx)
    b.array("cell_size_x", size=q, itemsize=8, materialize=True)
    b.array("cell_size_y", size=q, itemsize=8, materialize=True)

    ip, jp = grid_coords(b, q)
    b.array_assign("cell_size_x", cell_size_x_kernel, reads={"nx", "q"}, work=q)
    b.array_assign("cell_size_y", cell_size_y_kernel, reads={"nx", "q"}, work=q)
    csx = Index.make("cell_size_x", ip)
    csy = Index.make("cell_size_y", jp)
    cells = csx * csy * nx

    face_x_bytes = 5 * csy * nx * 8  # x-faces: csy*nz points, 5 components
    face_y_bytes = 5 * csx * nx * 8
    line_slab_x = 5 * csy * nx * 8  # pipelined solver slab crossing an x stage
    line_slab_y = 5 * csx * nx * 8

    with b.loop("step", 1, niter):
        # copy_faces: 4-neighbour exchange (non-blocking, per axis)
        from .common import neighbor_exchange_1d

        neighbor_exchange_1d(b, coord=ip, extent=q, stride=1, nbytes=face_x_bytes, tag=4, array="u")
        neighbor_exchange_1d(b, coord=jp, extent=q, stride=Var("q"), nbytes=face_y_bytes, tag=5, array="u")

        b.compute("compute_rhs", work=cells, ops_per_iter=RHS_OPS, arrays=("u", "rhs", "forcing"))

        # x_solve: forward sweep west->east, back-substitution east->west
        with b.if_(Gt(ip, 0)):
            b.recv(source=myid - 1, nbytes=line_slab_x, tag=6, array="lhs")
        b.compute("x_solve_forward", work=cells, ops_per_iter=SOLVE_OPS, arrays=("u", "rhs", "lhs"))
        with b.if_(Lt(ip, q - 1)):
            b.send(dest=myid + 1, nbytes=line_slab_x, tag=6, array="lhs")
        with b.if_(Lt(ip, q - 1)):
            b.recv(source=myid + 1, nbytes=line_slab_x, tag=7, array="lhs")
        b.compute("x_solve_backward", work=cells, ops_per_iter=SOLVE_OPS / 2, arrays=("u", "rhs", "lhs"))
        with b.if_(Gt(ip, 0)):
            b.send(dest=myid - 1, nbytes=line_slab_x, tag=7, array="lhs")

        # y_solve: the same pipeline along the second grid axis
        with b.if_(Gt(jp, 0)):
            b.recv(source=myid - Var("q"), nbytes=line_slab_y, tag=8, array="lhs")
        b.compute("y_solve_forward", work=cells, ops_per_iter=SOLVE_OPS, arrays=("u", "rhs", "lhs"))
        with b.if_(Lt(jp, q - 1)):
            b.send(dest=myid + Var("q"), nbytes=line_slab_y, tag=8, array="lhs")
        with b.if_(Lt(jp, q - 1)):
            b.recv(source=myid + Var("q"), nbytes=line_slab_y, tag=9, array="lhs")
        b.compute("y_solve_backward", work=cells, ops_per_iter=SOLVE_OPS / 2, arrays=("u", "rhs", "lhs"))
        with b.if_(Gt(jp, 0)):
            b.send(dest=myid - Var("q"), nbytes=line_slab_y, tag=9, array="lhs")

        # z is not decomposed: purely local pentadiagonal solves
        b.compute("z_solve", work=cells, ops_per_iter=1.5 * SOLVE_OPS, arrays=("u", "rhs", "lhs"))
        b.compute("add", work=cells, ops_per_iter=ADD_OPS, arrays=("u", "rhs"))
    return b.build()


def build_nas_sp_multipartition() -> "Program":
    """NAS SP with *multipartitioning* — the decomposition NPB 2.3 SP
    really uses (and the one dhpf's computation-partitioning research
    targets).

    Diagonal 2-D multipartitioning over P processors: the x-y plane is
    cut into a P×P grid of cells and cell (i, j) belongs to processor
    ``(j - i) mod P``, so each processor owns P cells, one in every row
    and every column.  During an x-sweep, stage ``i`` touches cells
    (i, 0..P-1) — one per processor — so *every* processor computes at
    *every* stage, and the data it must forward always goes to the same
    neighbour: cell (i+1, j) belongs to ``myid - 1 (mod P)``.  Full
    utilization in place of the line-pipeline's fill/drain bubbles;
    the coarser per-stage transfers use non-blocking ring exchanges.

    Parameters: ``nx`` (cubic grid side), ``niter``.  The partition
    count equals the processor count P (any P, squares not required).
    """
    b = ProgramBuilder("nas_sp_multi", params=("nx", "niter"))
    nx, niter = Var("nx"), Var("niter")
    from ..ir.builder import P
    from ..symbolic import ceil_div

    cell_side = ceil_div(nx, P)  # cell extent in x and in y
    cell_points = cell_side * cell_side * nx  # one cell: (nx/P) x (nx/P) x nz
    own_points = cell_points * P  # the processor's P cells
    b.array("u", size=5 * own_points)
    b.array("rhs", size=5 * own_points)
    b.array("forcing", size=5 * own_points)
    b.array("lhs", size=9 * cell_side * nx)

    face_bytes = 5 * cell_side * nx * 8  # one cell face, 5 components

    with b.loop("step", 1, niter):
        # copy_faces: cell adjacency maps to ring adjacency under the
        # diagonal assignment; exchange with both ring neighbours
        for tag, delta in ((40, -1), (41, 1)):
            b.irecv(source=(myid - delta + P) % P, nbytes=face_bytes * P, tag=tag,
                    array="u", handle=f"cfr{tag}")
            b.isend(dest=(myid + delta + P) % P, nbytes=face_bytes * P, tag=tag,
                    array="u", handle=f"cfs{tag}")
        b.waitall("cfr40", "cfs40", "cfr41", "cfs41")

        b.compute("compute_rhs", work=own_points, ops_per_iter=RHS_OPS,
                  arrays=("u", "rhs", "forcing"))

        # x_solve: P stages; every processor computes one cell per stage
        # and forwards its boundary to myid-1 (forward elimination), then
        # the reverse for back-substitution
        for phase, ops, delta, tag in (
            ("x_fwd", SOLVE_OPS, -1, 42),
            ("x_bwd", SOLVE_OPS / 2, 1, 43),
            ("y_fwd", SOLVE_OPS, 1, 44),
            ("y_bwd", SOLVE_OPS / 2, -1, 45),
        ):
            with b.loop(f"stage_{phase}", 1, P):
                b.compute(f"{phase}_cell", work=cell_points, ops_per_iter=ops,
                          arrays=("u", "rhs", "lhs"))
                with b.if_(Lt(Var(f"stage_{phase}"), P)):
                    b.irecv(source=(myid - delta + P) % P, nbytes=face_bytes, tag=tag,
                            array="lhs", handle=f"r{tag}")
                    b.isend(dest=(myid + delta + P) % P, nbytes=face_bytes, tag=tag,
                            array="lhs", handle=f"s{tag}")
                    b.waitall(f"r{tag}", f"s{tag}")

        b.compute("z_solve", work=own_points, ops_per_iter=1.5 * SOLVE_OPS,
                  arrays=("u", "rhs", "lhs"))
        b.compute("add", work=own_points, ops_per_iter=ADD_OPS, arrays=("u", "rhs"))
    return b.build()


def sp_inputs(cls: str, nprocs: int, niter: int | None = None) -> dict[str, int]:
    """Inputs for an SP class run on *nprocs* (must be a square count).

    ``niter`` defaults to a scaled-down step count suitable for a
    pure-Python harness; the reference counts are in :data:`SP_CLASSES`.
    """
    if cls not in SP_CLASSES:
        raise KeyError(f"unknown SP class {cls!r}; known: {sorted(SP_CLASSES)}")
    nx, ref_iters = SP_CLASSES[cls]
    q = square_side(nprocs)
    return {"nx": nx, "q": q, "niter": niter if niter is not None else min(ref_iters, 5)}


def sp_multi_inputs(cls: str, niter: int | None = None) -> dict[str, int]:
    """Inputs for the multipartitioned SP (any processor count)."""
    if cls not in SP_CLASSES:
        raise KeyError(f"unknown SP class {cls!r}; known: {sorted(SP_CLASSES)}")
    nx, ref_iters = SP_CLASSES[cls]
    return {"nx": nx, "niter": niter if niter is not None else min(ref_iters, 5)}
