"""Figure 15: Speedup of MPI-SIM-AM (Sweep3D 150³, 64 target processors).

Paper: "The steep slope of the curve for up to 8 processors indicates
good parallel efficiency.  For more than 8 processors the speedup is
not as good, reaching about 15 for 64 processors.  This is due to the
decreased computation to communication ratio in the application."
"""

from _common import emit, run_experiment, shape_note

from repro.workflow import format_table
from test_fig14_parallel_performance import fig14_data  # noqa: F401


def test_fig15_am_speedup(benchmark, fig14_data):  # noqa: F811
    rows = run_experiment(benchmark, lambda: fig14_data)

    am1 = rows[0][2]
    speedups = [(h, am1 / am) for h, _, am, _ in rows]

    checks = []
    # monotone increasing
    vals = [s for _, s in speedups]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    checks.append("speedup increases monotonically with host processors")
    # good efficiency in the steep region (<= 8 hosts)
    s8 = dict(speedups)[8]
    assert s8 > 4.0
    checks.append(f"speedup {s8:.1f} at 8 hosts: good parallel efficiency in the steep region")
    # saturation: well below ideal at 64 hosts (paper: ~15)
    s64 = dict(speedups)[64]
    assert 5.0 < s64 < 45.0
    checks.append(f"speedup saturates at {s64:.1f} on 64 hosts (paper: about 15)")

    table = format_table(
        ["host procs", "MPI-SIM-AM speedup"],
        [[h, s] for h, s in speedups],
        title="Speedup of MPI-SIM-AM, Sweep3D 150^3, 64 targets (Fig. 15)",
    )
    emit("fig15_am_speedup", table + "\n" + shape_note(checks))
