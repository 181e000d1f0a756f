"""Tests for fault runs, the ``repro faults --sweep`` table and
resilience reporting."""

import contextlib
import io

import pytest

from repro.apps import build_tomcatv, tomcatv_inputs
from repro.cli import main
from repro.machine import IBM_SP
from repro.sim import CrashFault, DeadlockError, ExecMode, FaultPlan, RetryPolicy
from repro.workflow import (
    FaultSweepPoint,
    FaultSweepSeries,
    ModelingWorkflow,
    format_resilience,
    write_fault_sweep_csv,
)

INPUTS = tomcatv_inputs(64, itmax=2)
SWEEP = ["faults", "tomcatv", "--nprocs", "4", "--set", "n=64", "--set", "itmax=2",
         "--calib-procs", "2", "--sweep"]


def sweep(*flags) -> tuple[str, list[list]]:
    """``repro faults --sweep`` on tomcatv at 4 ranks: its text and its
    table rows as ``[loss rate, elapsed, slowdown %, retries, ...]``,
    numbers parsed and ``-`` as None."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(SWEEP + list(flags)) == 0
    text = out.getvalue()
    rows = [
        [None if cell == "-" else cell if cell == "DEADLOCK" else float(cell)
         for cell in line.split()]
        for line in text.splitlines()[3:]
    ]
    return text, rows


@pytest.fixture(scope="module")
def wf():
    return ModelingWorkflow(
        build_tomcatv(), IBM_SP, calib_inputs=INPUTS, calib_nprocs=2
    )


class TestRunFaulty:
    """Every estimator runs under a fault plan through ``faults=``."""

    def test_empty_plan_matches_plain_de(self, wf):
        plain = wf.run_de(INPUTS, 4)
        faulty = wf.run_de(INPUTS, 4, faults=FaultPlan())
        assert faulty.elapsed == plain.elapsed  # bit-identical

    def test_empty_plan_matches_plain_am(self, wf):
        plain = wf.run_am(INPUTS, 4)
        faulty = wf.run_am(INPUTS, 4, faults=FaultPlan())
        assert faulty.elapsed == plain.elapsed

    def test_crash_raises_with_report(self, wf):
        plan = FaultPlan(crashes=(CrashFault(1, 0.0),))
        with pytest.raises(DeadlockError) as ei:
            wf.run_de(INPUTS, 4, faults=plan)
        assert ei.value.report is not None
        assert ei.value.report.crashed_ranks == (1,)

    def test_mode_tagged(self, wf):
        res = wf.run_measured(INPUTS, 4, faults=FaultPlan())
        assert res.mode is ExecMode.MEASURED


class TestFaultSweep:
    """Each sweep point is one campaign-runner request at its loss rate."""

    @pytest.fixture(scope="class")
    def series(self):
        return sweep("0.05", "0.15", "--retry", "16:1e-4")

    def test_baseline_prepended(self, series):
        _, rows = series
        assert [row[0] for row in rows] == [0.0, 0.05, 0.15]
        assert rows[0][2] == 0 and rows[0][3] == 0  # slowdown, retries

    def test_elapsed_monotone(self, series):
        _, rows = series
        done = [row[1] for row in rows if row[1] != "DEADLOCK"]
        assert done == sorted(done)
        assert done[-1] > done[0]

    def test_counters_grow_with_loss(self, series):
        _, rows = series
        retries = [row[3] for row in rows if row[1] != "DEADLOCK"]
        assert retries[0] == 0 and retries[-1] > 0

    def test_slowdown_pct(self, series):
        _, rows = series
        assert rows[0][2] == 0
        if rows[-1][1] != "DEADLOCK":
            assert rows[-1][2] > 0.0

    def test_deadlocked_point_recorded_not_raised(self):
        # certain loss with no retry: the run stalls, the sweep survives
        _, rows = sweep("1.0")
        assert rows[-1][:3] == [1.0, "DEADLOCK", None]

    def test_format(self, series):
        text, _ = series
        assert "Fault sweep: tomcatv (mpi-sim-de, 4 procs)" in text
        assert "loss rate" in text and "slowdown %" in text

    def test_format_marks_deadlock(self):
        text, _ = sweep("1.0")
        assert "DEADLOCK" in text

    def test_csv(self, tmp_path):
        import csv

        series = FaultSweepSeries("t", "mpi-sim-de", 4, [
            FaultSweepPoint(0.0, 1.0, 0, 0, 0, 0),
            FaultSweepPoint(1.0, None, 0, 0, 0, 0, deadlocked=True),
        ])
        path = tmp_path / "sweep.csv"
        write_fault_sweep_csv(series, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "loss_rate"
        assert len(rows) == len(series.points) + 1
        assert rows[-1][-1] == "1"  # the deadlocked column


class TestFormatResilience:
    def test_counters_shown(self, wf):
        plan = FaultPlan(seed=2, message_loss=0.1)
        res = wf.run_de(INPUTS, 4, faults=plan, retry=RetryPolicy(max_attempts=16))
        text = format_resilience(res.stats.to_dict(),
                                 title="Resilience report: tomcatv (de)")
        assert "Resilience report" in text
        assert "retries" in text and "messages lost" in text
        assert "crashed ranks     : none" in text
