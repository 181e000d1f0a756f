"""Tests for the dynamic-task-graph analytical predictor."""

from dataclasses import replace

import pytest

from repro.analytic import analytic_predict, taskgraph_predict
from repro.apps import build_sweep3d, build_tomcatv, sweep3d_inputs, tomcatv_inputs
from repro.ir import ProgramBuilder, myid, P
from repro.machine import IBM_SP, TESTING_MACHINE
from repro.symbolic import Gt, Lt
from repro.workflow import ModelingWorkflow


@pytest.fixture(scope="module")
def sweep_wf():
    wf = ModelingWorkflow(
        build_sweep3d(),
        IBM_SP,
        calib_inputs=sweep3d_inputs(32, 32, 32, 4, kb=2, ab=1, niter=1),
        calib_nprocs=4,
    )
    wf.calibrate()
    return wf


class TestAgainstSimulation:
    def test_captures_wavefront_pipelines(self, sweep_wf):
        """Unlike per-rank summation, the task graph sees the pipeline:
        the longest-path estimate tracks the simulation closely."""
        inputs = sweep3d_inputs(32, 32, 32, 16, kb=2, ab=1, niter=1)
        sim = sweep_wf.run_am(inputs, 16).elapsed
        tg = taskgraph_predict(
            sweep_wf.compiled.simplified, inputs, 16, IBM_SP, sweep_wf.wparams
        )
        per_rank = analytic_predict(
            sweep_wf.compiled.simplified, inputs, 16, IBM_SP, sweep_wf.wparams
        )
        tg_err = abs(tg.elapsed - sim) / sim
        pr_err = abs(per_rank.elapsed - sim) / sim
        assert tg_err < 0.15
        assert tg_err < pr_err  # the graph analysis strictly improves the bound

    def test_bsp_program_close(self):
        wf = ModelingWorkflow(
            build_tomcatv(), IBM_SP, calib_inputs=tomcatv_inputs(128, itmax=2), calib_nprocs=4
        )
        wf.calibrate()
        inputs = tomcatv_inputs(128, itmax=2)
        sim = wf.run_am(inputs, 4).elapsed
        tg = taskgraph_predict(wf.compiled.simplified, inputs, 4, IBM_SP, wf.wparams)
        assert tg.elapsed == pytest.approx(sim, rel=0.15)

    def test_simple_pipeline_exact(self):
        """Hand-checkable 1-D pipeline on the testing machine."""
        b = ProgramBuilder("pipe", params=())
        with b.if_(Gt(myid, 0)):
            b.recv(source=myid - 1, nbytes=8, tag=1)
        b.compute("stage", work=1000)
        with b.if_(Lt(myid, P - 1)):
            b.send(dest=myid + 1, nbytes=8, tag=1)
        prog = b.build()

        from repro.ir import make_factory
        from repro.sim import ExecMode, Simulator

        sim = Simulator(4, make_factory(prog, {}), TESTING_MACHINE, mode=ExecMode.DE).run()
        tg = taskgraph_predict(prog, {}, 4, TESTING_MACHINE)
        assert tg.elapsed == pytest.approx(sim.elapsed, rel=0.01)
        assert tg.critical_rank == 3


class TestGraphStatistics:
    def test_counts(self):
        b = ProgramBuilder("c", params=())
        b.send(dest=(myid + 1) % P, nbytes=8, tag=0)
        b.recv(source=(myid - 1 + P) % P, nbytes=8, tag=0)
        b.compute("w", work=10)
        prog = b.build()
        tg = taskgraph_predict(prog, {}, 4, TESTING_MACHINE)
        assert tg.messages == 4
        assert tg.nodes == 3 * 4


class TestErrors:
    def test_wildcard_rejected(self):
        from repro.ir.nodes import RecvStmt

        b = ProgramBuilder("w", params=())
        b.send(dest=(myid + 1) % P, nbytes=8, tag=0)
        prog = b.build()
        prog = replace(prog, body=(*prog.body, RecvStmt(source=-1, nbytes=8, tag=0)))
        with pytest.raises(ValueError, match="wildcard|fully-specified"):
            taskgraph_predict(prog, {}, 2, TESTING_MACHINE)

    def test_unmatched_detected(self):
        b = ProgramBuilder("u", params=())
        with b.if_(Gt(myid, 0)):
            b.send(dest=myid - 1, nbytes=8, tag=0)
        # nobody receives
        prog = b.build()
        with pytest.raises(ValueError, match="unmatched"):
            taskgraph_predict(prog, {}, 3, TESTING_MACHINE)

    def test_nonblocking_waitall_supported(self):
        from repro.apps import build_sample, sample_inputs_for_ratio
        from repro.machine import ORIGIN_2000

        prog = build_sample("nearest_neighbor")
        inputs = sample_inputs_for_ratio(0.05, ORIGIN_2000, iters=3)
        tg = taskgraph_predict(prog, inputs, 4, ORIGIN_2000)
        assert tg.elapsed > 0
