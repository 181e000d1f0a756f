"""Figure 9: Effect of the communication-to-computation ratio on accuracy.

Paper: "the percentage variation in the predicted time as compared with
the measured values [...] the predictions are very accurate when the
ratio of computation to communication is large, which is typical of
many real-world applications"; error grows toward ~15% as communication
dominates.  Reproduced shape: AM error at the communication-heavy end
exceeds the compute-heavy end for both patterns.
"""

from _common import emit, run_experiment, shape_note

from repro.workflow import format_table
from test_fig08_sample_validation import RATIOS, run_sample_sweep, sample_wfs  # noqa: F401


def test_fig09_sample_error(benchmark, sample_wfs):  # noqa: F811
    data = run_experiment(benchmark, lambda: run_sample_sweep(sample_wfs, iters=12))

    errors = {
        key: 100 * abs(am - meas) / meas for key, (meas, am) in data.items()
    }
    rows = [
        [pattern, ratio, errors[(pattern, ratio)]]
        for (pattern, ratio) in sorted(errors)
    ]

    checks = []
    for pattern in ("wavefront", "nearest_neighbor"):
        lo_end = max(errors[(pattern, r)] for r in RATIOS[:2])  # compute-bound
        hi_end = max(errors[(pattern, r)] for r in RATIOS[-2:])  # comm-bound
        assert lo_end < 5.0, f"{pattern}: compute-bound error should be tiny (paper: <5%)"
        assert hi_end > lo_end, f"{pattern}: error must grow with communication share"
        assert hi_end < 15.0
        checks.append(
            f"{pattern}: error grows from {lo_end:.1f}% (compute-bound) to "
            f"{hi_end:.1f}% (comm-bound), below the paper's 15%"
        )

    table = format_table(
        ["pattern", "comm:comp", "% variation from measured"],
        rows,
        title="SAMPLE: prediction error vs communication share (Fig. 9)",
    )
    emit("fig09_sample_error", table + "\n" + shape_note(checks))
