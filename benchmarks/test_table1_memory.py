"""Table 1: Memory usage of MPI-SIM-DE vs MPI-SIM-AM.

Paper rows (total simulator memory and reduction factor):
Sweep3D 4×4×255/proc @ 4900 procs (98×), Sweep3D @ 100 (96×),
Sweep3D 6×6×1000/proc @ 64 (1768×/1762×), SP class A @ 4 (1.9×... 14×),
SP class C @ 64 (5×), Tomcatv 2048² @ 64 (1993×).

Reproduced shape: two-to-three orders of magnitude application-memory
reduction for Sweep3D and Tomcatv, a visibly smaller factor for SP
(which must retain its ``cell_size`` tables, their producers, and a
large dummy buffer relative to its data), and reductions that *grow*
with the problem size.  Application memory isolates the compiler's
effect; totals including the kernel's per-thread state are also
reported.  One row is cross-checked against a live simulation.
"""

from _common import emit, run_experiment, shape_note

from repro.apps import (
    build_nas_sp,
    build_sweep3d,
    build_tomcatv,
    sp_inputs,
    sweep3d_per_proc_inputs,
    tomcatv_inputs,
)
from repro.codegen import compile_program
from repro.ir import make_factory
from repro.machine import IBM_SP
from repro.parallel import estimate_program_memory
from repro.sim import ExecMode, Simulator
from repro.workflow import format_bytes, format_table

ROWS = [
    # (label, build, inputs_fn, nprocs); Sweep3D pipelines thin k-blocks
    # (mk ~ 5-10 planes, as the real kernel does), which is what keeps the
    # dummy communication buffer — the AM version's only sizable data — tiny
    ("Sweep3D 4x4x255/proc", build_sweep3d, lambda p: sweep3d_per_proc_inputs(4, 4, 255, p, kb=51), 4900),
    ("Sweep3D 4x4x255/proc", build_sweep3d, lambda p: sweep3d_per_proc_inputs(4, 4, 255, p, kb=51), 100),
    ("Sweep3D 6x6x1000/proc", build_sweep3d, lambda p: sweep3d_per_proc_inputs(6, 6, 1000, p, kb=100), 64),
    ("SP class A", build_nas_sp, lambda p: sp_inputs("A", p), 4),
    ("SP class C", build_nas_sp, lambda p: sp_inputs("C", p), 64),
    ("Tomcatv 2048x2048", build_tomcatv, lambda p: tomcatv_inputs(2048), 64),
]


def test_table1_memory(benchmark):
    def experiment():
        results = []
        compiled_cache = {}
        for label, build, inputs_fn, nprocs in ROWS:
            if build not in compiled_cache:
                prog = build()
                compiled_cache[build] = (prog, compile_program(prog))
            prog, compiled = compiled_cache[build]
            inputs = inputs_fn(nprocs)
            de_app = estimate_program_memory(prog, inputs, nprocs, IBM_SP.host, include_kernel=False)
            am_app = estimate_program_memory(
                compiled.simplified, inputs, nprocs, IBM_SP.host, include_kernel=False
            )
            de_tot = estimate_program_memory(prog, inputs, nprocs, IBM_SP.host)
            am_tot = estimate_program_memory(compiled.simplified, inputs, nprocs, IBM_SP.host)
            results.append((label, nprocs, de_app, am_app, de_tot, am_tot))
        return results, compiled_cache

    results, compiled_cache = run_experiment(benchmark, experiment)

    rows = []
    factors = {}
    for label, nprocs, de_app, am_app, de_tot, am_tot in results:
        factor = de_app / am_app
        factors[(label, nprocs)] = factor
        rows.append(
            [label, nprocs, format_bytes(de_app), format_bytes(am_app), round(factor),
             format_bytes(de_tot), format_bytes(am_tot)]
        )

    checks = []
    # 2-3 orders of magnitude for Sweep3D (large) and Tomcatv
    big = factors[("Sweep3D 6x6x1000/proc", 64)]
    assert big > 100
    checks.append(f"Sweep3D 6x6x1000/proc reduction {big:.0f}x (paper: 3 orders of magnitude)")
    tom = factors[("Tomcatv 2048x2048", 64)]
    assert tom > 100
    checks.append(f"Tomcatv reduction {tom:.0f}x (paper: 3 orders of magnitude)")
    small = factors[("Sweep3D 4x4x255/proc", 4900)]
    assert small > 10
    checks.append(f"Sweep3D 4x4x255/proc reduction {small:.0f}x (paper: ~2 orders)")
    # SP reductions are the smallest (cell_size machinery survives slicing)
    sp_a = factors[("SP class A", 4)]
    sp_c = factors[("SP class C", 64)]
    assert sp_a < tom and sp_a < big
    checks.append(f"SP reductions ({sp_a:.0f}x / {sp_c:.0f}x) smallest, as in the paper")
    # larger problems reduce more (paper: 98x -> 1768x between the sizes)
    assert big > small
    checks.append("the reduction factor grows with per-processor problem size")

    # cross-check one row against live memory accounting
    prog, compiled = compiled_cache[build_tomcatv]
    inputs = tomcatv_inputs(2048)
    live_de = Simulator(
        8, make_factory(prog, {**inputs, "itmax": 1}), IBM_SP, mode=ExecMode.DE
    ).run()
    est_de = estimate_program_memory(prog, {**inputs, "itmax": 1}, 8, IBM_SP.host)
    assert live_de.memory.total_bytes == est_de
    checks.append("static estimates match the kernel's live accounting exactly")

    table = format_table(
        ["configuration", "procs", "DE app mem", "AM app mem", "reduction",
         "DE total", "AM total"],
        rows,
        title="Memory usage, MPI-SIM-DE vs MPI-SIM-AM (Table 1)",
    )
    emit("table1_memory", table + "\n" + shape_note(checks))
