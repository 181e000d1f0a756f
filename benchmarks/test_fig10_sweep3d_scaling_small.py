"""Figure 10: Scalability of Sweep3D, 4×4×255 cells per processor.

Paper: "For the [4×4×255] problem size, memory requirements of the
direct execution model restricted the largest target architecture that
could be simulated to 2500 processors.  With the analytical model, it
was possible to simulate a target architecture with 10,000 processors!"
The plotted runtime is the *predicted target execution time* as the
machine (and total problem) grows, with measured values at small scale.
"""

from _common import emit, run_experiment, shape_note

from repro.apps import sweep3d_per_proc_inputs
from repro.machine import IBM_SP, MiB
from repro.parallel import estimate_program_memory, max_feasible_procs
from repro.workflow import format_table

#: Host memory available to the simulator in this experiment.
BUDGET = 500 * MiB
CANDIDATES = [64, 100, 400, 900, 2500, 4900, 10000]
MEASURED_UP_TO = 64


def inputs_for(nprocs):
    return sweep3d_per_proc_inputs(4, 4, 255, nprocs, kb=2, ab=1, niter=1)


def test_fig10_sweep3d_scaling_small(benchmark, sweep3d_wf):
    prog = sweep3d_wf.program
    simplified = sweep3d_wf.compiled.simplified

    def experiment():
        de_max = max_feasible_procs(prog, inputs_for, BUDGET, IBM_SP.host, CANDIDATES)
        am_max = max_feasible_procs(simplified, inputs_for, BUDGET, IBM_SP.host, CANDIDATES)
        rows = []
        for p in CANDIDATES:
            inputs = inputs_for(p)
            am = sweep3d_wf.run_am(inputs, p).elapsed if p <= am_max else None
            de = sweep3d_wf.run_de(inputs, p).elapsed if p <= de_max else None
            meas = (
                sweep3d_wf.run_measured(inputs, p).elapsed if p <= MEASURED_UP_TO else None
            )
            mem_de = estimate_program_memory(prog, inputs, p, IBM_SP.host)
            rows.append((p, meas, de, am, mem_de))
        return de_max, am_max, rows

    de_max, am_max, rows = run_experiment(benchmark, experiment)

    checks = []
    assert de_max == 2500, f"DE should hit the memory wall at 2500 targets (got {de_max})"
    checks.append(f"MPI-SIM-DE memory-limited to {de_max} target processors (paper: 2500)")
    assert am_max == 10000
    checks.append(f"MPI-SIM-AM reaches {am_max} target processors (paper: 10,000!)")
    # where both run, they agree
    for p, meas, de, am, _ in rows:
        if de is not None and am is not None:
            assert abs(de - am) / de < 0.15
    checks.append("AM tracks DE within 15% wherever direct execution is feasible")

    table = format_table(
        ["target procs", "measured(s)", "MPI-SIM-DE(s)", "MPI-SIM-AM(s)", "DE sim memory"],
        [[p, m, d, a, f"{mem / 2**20:.0f}MiB"] for p, m, d, a, mem in rows],
        title=f"Sweep3D scalability, 4x4x255/proc, {BUDGET // 2**20}MiB host budget (Fig. 10)",
    )
    emit("fig10_sweep3d_scaling_small", table + "\n" + shape_note(checks))
