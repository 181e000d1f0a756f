"""Sweep3D: the ASCI discrete-ordinates transport kernel.

"Sweep3D is a kernel application of the ASCI benchmark suite released
by the US Department of Energy.  In its largest configuration, it
requires computations on a grid with one billion elements."

Structure modelled (following the public Sweep3D kernel):

* a 2-D process grid (px × py) decomposing the i and j dimensions;
  k is not decomposed;
* per iteration, 8 octant sweeps; each octant pipelines wavefronts of
  (angle-block × k-block) stages across the grid: receive upstream
  i- and j-boundary angular fluxes, compute the block of cells
  (``it*jt*mk*mmi`` grind iterations), then send downstream;
* a *flux fixup* pass whose activation depends on intermediate values
  of the large 3-D arrays — the paper's canonical example of a minor
  data-dependent branch that condensation eliminates statistically
  ("one minor conditional branch in a loop nest of Sweep3D depends on
  intermediate values of large 3D arrays.  The impact of this branch on
  execution time is relatively negligible");
* a convergence allreduce per iteration.

Inputs are the *global* grid (itg × jtg × kt); per-rank extents are
computed in-program from ``myid`` with clipped block bounds, so the
compiler's scaling functions genuinely depend on rank, grid and P.
"""

from __future__ import annotations

from ..ir.builder import ProgramBuilder, myid
from ..symbolic import Gt, Mod, Var, ceil_div
from .common import block_extent, factor2d, grid_coords, sweep_guards

__all__ = ["build_sweep3d", "sweep3d_inputs", "GRIND_OPS", "FIXUP_OPS", "FIXUP_PROBABILITY"]

#: Abstract operations per cell-angle grind iteration (the sweep body).
GRIND_OPS = 30.0
#: Abstract operations per cell-angle when the flux fixup triggers.  The
#: paper: "the impact of this branch on execution time is relatively
#: negligible" — sized accordingly (statistical elimination of a *large*
#: random branch would distort the wavefront pipeline; see the
#: branch-elimination ablation bench).
FIXUP_OPS = 3.0
#: Ground-truth activation rate of the fixup branch.
FIXUP_PROBABILITY = 0.3


def _fixup_probe(env, arrays):
    """Ground-truth stand-in for testing intermediate 3-D array values:
    a deterministic hash of (rank, octant, stage, iteration) fires the
    fixup ~30% of the time.  Direct execution reproduces it exactly;
    the analytical model eliminates the branch statistically."""
    h = (
        env["myid"] * 2654435761
        + env["oct"] * 40503
        + env["kb_i"] * 9973
        + env["ab_i"] * 271
        + env["it_n"] * 31
    ) & 0xFFFFFFFF
    env["needfix"] = 1 if (h % 1000) < int(FIXUP_PROBABILITY * 1000) else 0


def build_sweep3d() -> "Program":
    """Build the Sweep3D IR program.

    Parameters: ``itg, jtg, kt`` (global grid), ``px, py`` (process
    grid), ``kb`` (k-blocks per sweep), ``ab`` (angle blocks), ``mmi``
    (angles per block), ``niter`` (outer iterations).
    """
    b = ProgramBuilder(
        "sweep3d", params=("itg", "jtg", "kt", "px", "py", "kb", "ab", "mmi", "niter")
    )
    itg, jtg, kt = Var("itg"), Var("jtg"), Var("kt")
    px, py = Var("px"), Var("py")
    kb, ab, mmi, niter = Var("kb"), Var("ab"), Var("mmi"), Var("niter")

    # per-rank upper-bound extents (Fortran-style max-size allocation)
    ibx, jby = ceil_div(itg, px), ceil_div(jtg, py)
    cells = ibx * jby * kt
    b.array("Flux", size=cells)
    b.array("Src", size=cells)
    b.array("Sigt", size=cells)
    b.array("Phiib", size=jby * ceil_div(kt, kb) * mmi)  # i-boundary angular flux
    b.array("Phijb", size=ibx * ceil_div(kt, kb) * mmi)  # j-boundary angular flux

    ip, jp = grid_coords(b, px)
    it = block_extent(b, "it", itg, px, ip)
    jt = block_extent(b, "jt", jtg, py, jp)
    b.assign("mk", ceil_div(kt, kb))
    mk = Var("mk")

    i_nbytes = jt * mk * mmi * 8
    j_nbytes = it * mk * mmi * 8
    stage_work = it * jt * mk * mmi

    with b.loop("it_n", 1, niter):
        with b.loop("oct", 0, 7):
            b.assign("sxf", Mod.make(Var("oct"), 2))
            b.assign("syf", Mod.make(Var("oct") // 2, 2))
            sxf, syf = Var("sxf"), Var("syf")
            i_up, i_down = sweep_guards(sxf, ip, px)
            j_up, j_down = sweep_guards(syf, jp, py)
            i_prev = myid - 1 + 2 * sxf
            i_next = myid + 1 - 2 * sxf
            j_prev = myid + px * (2 * syf - 1)
            j_next = myid + px * (1 - 2 * syf)
            with b.loop("ab_i", 1, ab):
                with b.loop("kb_i", 1, kb):
                    with b.if_(i_up):
                        b.recv(source=i_prev, nbytes=i_nbytes, tag=1, array="Phiib")
                    with b.if_(j_up):
                        b.recv(source=j_prev, nbytes=j_nbytes, tag=2, array="Phijb")
                    b.compute(
                        "sweep_stage",
                        work=stage_work,
                        ops_per_iter=GRIND_OPS,
                        arrays=("Flux", "Src", "Sigt", "Phiib", "Phijb"),
                        reads={"myid", "oct", "kb_i", "ab_i", "it_n"},
                        writes={"needfix"},
                        kernel=_fixup_probe,
                    )
                    with b.if_(Gt(Var("needfix"), 0), data_dependent=True):
                        b.compute(
                            "flux_fixup",
                            work=stage_work,
                            ops_per_iter=FIXUP_OPS,
                            arrays=("Flux", "Phiib", "Phijb"),
                        )
                    with b.if_(i_down):
                        b.send(dest=i_next, nbytes=i_nbytes, tag=1, array="Phiib")
                    with b.if_(j_down):
                        b.send(dest=j_next, nbytes=j_nbytes, tag=2, array="Phijb")
        # convergence test on the scalar flux
        b.compute("flux_norm", work=it * jt * kt, ops_per_iter=2.0, arrays=("Flux",))
        b.allreduce(nbytes=8, contrib=None, result_var=None, reduce_kind="max")
    return b.build()


def sweep3d_inputs(
    itg: int,
    jtg: int,
    kt: int,
    nprocs: int,
    kb: int = 4,
    ab: int = 2,
    mmi: int = 3,
    niter: int = 2,
) -> dict[str, int]:
    """Concrete inputs for a Sweep3D run (process grid auto-factorized)."""
    px, py = factor2d(nprocs)
    return {
        "itg": itg, "jtg": jtg, "kt": kt,
        "px": px, "py": py,
        "kb": kb, "ab": ab, "mmi": mmi, "niter": niter,
    }


def sweep3d_per_proc_inputs(
    it: int, jt: int, kt: int, nprocs: int, **kwargs
) -> dict[str, int]:
    """Inputs for a *fixed per-processor* problem size (Figs. 10/11/16):
    the global grid grows with the process count."""
    px, py = factor2d(nprocs)
    return sweep3d_inputs(it * px, jt * py, kt, nprocs, **kwargs)
