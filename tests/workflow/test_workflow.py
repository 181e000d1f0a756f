"""Integration tests for the Fig. 2 modeling workflow and validation."""

import pytest

from repro.apps import (
    build_nas_sp,
    build_sample,
    build_sweep3d,
    build_tomcatv,
    sp_inputs,
    sweep3d_inputs,
    tomcatv_inputs,
)
from repro.machine import IBM_SP
from repro.sim import ExecMode
from repro.workflow import (
    ModelingWorkflow,
    format_bytes,
    format_table,
    format_validation,
    validate,
)


#: app -> (program builder, inputs at P ranks, rank counts): reduced paper
#: configurations (NAS SP at the paper's class A, on square grids)
PAPER_APPS = {
    "sweep3d": (build_sweep3d, lambda p: sweep3d_inputs(48, 48, 48, p), (4, 8, 16)),
    "sample_wavefront": (
        lambda: build_sample("wavefront"), lambda p: {"grain": 20000, "msg": 2048, "iters": 4},
        (4, 8, 16),
    ),
    "nas_sp": (build_nas_sp, lambda p: sp_inputs("A", p, niter=2), (4, 9, 16)),
}


@pytest.fixture(scope="module")
def wf():
    return ModelingWorkflow(
        build_tomcatv(), IBM_SP, calib_inputs=tomcatv_inputs(128, itmax=3), calib_nprocs=4
    )


class TestWorkflow:
    def test_calibration_cached(self, wf):
        a = wf.calibrate()
        b = wf.calibrate()
        assert a is b
        assert set(a.wparams) == {"w_residual", "w_tridiag_solve", "w_mesh_update"}

    def test_wparams_positive(self, wf):
        assert all(v > 0 for v in wf.wparams.values())

    def test_compiled_cached(self, wf):
        assert wf.compiled is wf.compiled

    def test_modes_tagged(self, wf):
        inputs = tomcatv_inputs(64, itmax=2)
        assert wf.run_measured(inputs, 4).mode is ExecMode.MEASURED
        assert wf.run_de(inputs, 4).mode is ExecMode.DE
        assert wf.run_am(inputs, 4).mode is ExecMode.AM

    def test_am_error_small(self, wf):
        """The headline result: AM within the paper's error envelope."""
        inputs = tomcatv_inputs(128, itmax=3)
        for nprocs in (2, 4, 8):
            meas = wf.run_measured(inputs, nprocs)
            am = wf.run_am(inputs, nprocs)
            err = abs(am.elapsed - meas.elapsed) / meas.elapsed
            assert err < 0.17, f"AM error {err:.1%} at P={nprocs} exceeds the paper's 17%"

    @pytest.mark.parametrize("backend", ["interpreted", "auto"])
    @pytest.mark.parametrize("app", sorted(PAPER_APPS))
    def test_am_error_structure(self, app, backend):
        """The paper's error structure on Sweep3D, SAMPLE and NAS SP,
        calibrated at 4 ranks, on both kernels: AM within 17% of
        measurement, and DE no further from it than AM."""
        build, inputs, ranks = PAPER_APPS[app]
        flow = ModelingWorkflow(build(), IBM_SP, calib_inputs=inputs(4), calib_nprocs=4,
                                backend=backend)
        am_errs, de_errs = [], []
        for nprocs in ranks:
            measured = flow.run_measured(inputs(nprocs), nprocs).elapsed
            for errs, run in ((am_errs, flow.run_am), (de_errs, flow.run_de)):
                errs.append(abs(run(inputs(nprocs), nprocs).elapsed - measured) / measured)
        assert max(am_errs) < 0.17, f"AM error {max(am_errs):.1%} exceeds the paper's 17%"
        assert max(de_errs) <= max(am_errs), (max(de_errs), max(am_errs))

    def test_am_memory_reduction(self, wf):
        inputs = tomcatv_inputs(256, itmax=1)
        de = wf.run_de(inputs, 4)
        am = wf.run_am(inputs, 4)
        assert de.memory.app_bytes / am.memory.app_bytes > 100

    def test_measured_noise_varies_with_seed(self, wf):
        inputs = tomcatv_inputs(64, itmax=2)
        a = wf.run_measured(inputs, 4, seed=1)
        b = wf.run_measured(inputs, 4, seed=2)
        assert a.elapsed != b.elapsed


class TestValidate:
    def test_series(self, wf):
        configs = [(tomcatv_inputs(128, itmax=2), p) for p in (2, 4)]
        series = validate(wf, configs, name="tomcatv-test")
        assert len(series.points) == 2
        assert series.max_err_am < 20
        assert series.points[0].err_de is not None

    def test_skip_de(self, wf):
        configs = [(tomcatv_inputs(64, itmax=2), 2)]
        series = validate(wf, configs, include_de=False)
        assert series.points[0].de is None
        assert series.points[0].err_de is None

    def test_labels(self, wf):
        configs = [(tomcatv_inputs(64, itmax=2), 2)]
        series = validate(wf, configs, labels=["cfg-a"])
        assert series.points[0].label == "cfg-a"


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "-" in lines[-1]  # None renders as '-'

    def test_format_validation(self, wf):
        configs = [(tomcatv_inputs(64, itmax=2), 2)]
        series = validate(wf, configs)
        text = format_validation(series)
        assert "MPI-SIM-AM" in text and "max AM error" in text

    def test_format_bytes(self):
        assert format_bytes(500) == "500B"
        assert format_bytes(2_000) == "2.0KB"
        assert format_bytes(3_500_000) == "3.5MB"
        assert format_bytes(7_200_000_000) == "7.2GB"
