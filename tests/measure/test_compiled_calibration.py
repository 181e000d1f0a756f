"""Calibration runs compile: the measure variant matches the interpreter.

A calibration run executes the timer-instrumented program in MEASURED
mode with a ``MeasurementCollector`` and a ``BranchProfile`` attached.
On the compiled backend it runs the kernel's measure variant, which
must call ``record_work``, ``record_elapsed`` and ``profile.record`` in
the interpreter's global order: the collector pools across ranks, so
any reordering changes the Welford rate statistics or the float sums.
Over generated programs and the paper's applications, both backends
must give byte-identical coefficients, rate statistics, sample counts,
branch profiles and run statistics.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APPS, sp_inputs, sweep3d_inputs
from repro.codegen.timers import generate_instrumented
from repro.gen import GrammarConfig, generate_program
from repro.ir.interp import (
    BranchProfile,
    InterpreterError,
    MeasurementCollector,
    make_factory,
)
from repro.ir.nodes import ArrayAssign
from repro.machine import IBM_SP
from repro.measure import measure_wparams
from repro.sim import ExecMode, Simulator
from repro.workflow import ModelingWorkflow

GRAMMAR = GrammarConfig(max_stmts=16)


def calibrate(program, inputs, nprocs, backend, seed=3):
    """One calibration run as ``measure_wparams`` makes it; returns the
    backend that ran it, its fallback reason and everything it measured."""
    collector, profile = MeasurementCollector(), BranchProfile()
    factory = make_factory(generate_instrumented(program), inputs,
                           collector=collector, profile=profile)
    sim = Simulator(nprocs, factory, IBM_SP, mode=ExecMode.MEASURED, seed=seed,
                    backend=backend)
    result = sim.run()

    def rate_stats(task):
        try:
            return list(collector.rate_stats(task))
        except InterpreterError as exc:
            return str(exc)

    measured = json.dumps({
        "params": collector.params(),
        "rate_stats": {t: rate_stats(t) for t in collector.tasks()},
        "samples": {t: collector.samples(t) for t in collector.tasks()},
        "profile": profile.to_dict(),
        "stats": result.stats.to_dict(include_procs=True),
    }, sort_keys=True)
    return sim.backend, sim.backend_fallback_reason, measured


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_generated_programs_calibrate_identically(seed):
    gen = generate_program(seed, GRAMMAR)
    _, _, reference = calibrate(gen.program, gen.inputs, 4, "interpreted", seed=seed)
    backend, reason, got = calibrate(gen.program, gen.inputs, 4, "compiled", seed=seed)
    assert (backend, reason) == ("compiled", None)
    assert got == reference


def app_inputs(app, nprocs):
    """Small inputs for one calibration of *app* at *nprocs* ranks."""
    if app == "sweep3d":
        return sweep3d_inputs(16, 16, 16, nprocs, kb=2, ab=1, niter=1)
    if app == "nas_sp":
        return sp_inputs("S", nprocs, niter=1)
    inputs = APPS[app][1](nprocs)
    if app.startswith("tomcatv"):
        inputs.update(n=64, itmax=2)
    else:
        inputs.update(iters=3)
    return inputs


LOWERING_APPS = ("sweep3d", "sample_wavefront", "sample_nearest_neighbor",
                 "tomcatv", "tomcatv_hpf", "nas_sp")


@pytest.mark.parametrize("nprocs", [4, 16])
@pytest.mark.parametrize("app", LOWERING_APPS)
def test_apps_calibrate_identically(app, nprocs):
    program = APPS[app][0]()
    inputs = app_inputs(app, nprocs)
    _, _, reference = calibrate(program, inputs, nprocs, "interpreted")
    backend, reason, got = calibrate(program, inputs, nprocs, "compiled")
    assert (backend, reason) == ("compiled", None)
    assert got == reference


def unlowerable_nas_sp():
    """NAS SP with its cell-size kernels wrapped in lambdas, which the
    compiled kernel cannot import by name."""
    program = APPS["nas_sp"][0]()
    body = tuple(
        dataclasses.replace(s, kernel=lambda env, arrays, k=s.kernel: k(env, arrays))
        if isinstance(s, ArrayAssign) else s
        for s in program.body
    )
    return dataclasses.replace(program, body=body)


REFUSED = "ArrayAssign to 'cell_size_x' carries a Python kernel callable"


def test_nas_sp_calibration_compiles_under_auto():
    """NAS SP's materialized arrays lower; ``auto`` compiles its timer
    version, and a program that cannot lower falls back, alike."""
    inputs = app_inputs("nas_sp", 4)
    for program, kernel, fell_back in ((APPS["nas_sp"][0](), "compiled", None),
                                       (unlowerable_nas_sp(), "interpreted", REFUSED)):
        _, _, reference = calibrate(program, inputs, 4, "interpreted")
        backend, reason, got = calibrate(program, inputs, 4, "auto")
        assert (backend, reason) == (kernel, fell_back)
        assert got == reference


def as_bytes(cal):
    return json.dumps([cal.wparams, cal.profile.to_dict(), cal.elapsed], sort_keys=True)


def test_measure_wparams_honours_its_backend():
    """No pin: ``compiled`` calibrates NAS SP as the interpreter does and
    raises on a program that cannot lower, and ``auto`` gives the
    interpreter's calibration."""
    program = APPS["nas_sp"][0]()
    inputs = app_inputs("nas_sp", 4)
    reference = as_bytes(measure_wparams(program, inputs, 4, IBM_SP, backend="interpreted"))
    assert as_bytes(measure_wparams(program, inputs, 4, IBM_SP, backend="compiled")) == reference
    assert as_bytes(measure_wparams(program, inputs, 4, IBM_SP, backend="auto")) == reference
    with pytest.raises(ValueError, match=REFUSED):
        measure_wparams(unlowerable_nas_sp(), inputs, 4, IBM_SP, backend="compiled")


def test_workflow_calibrates_on_its_backend():
    def workflow(app, backend, program=None):
        return ModelingWorkflow(program or APPS[app][0](), IBM_SP,
                                calib_inputs=app_inputs(app, 4), calib_nprocs=4, seed=2,
                                backend=backend)

    with pytest.raises(ValueError, match=REFUSED):
        workflow("nas_sp", "compiled", unlowerable_nas_sp()).calibrate()
    for app in ("sweep3d", "nas_sp"):
        assert as_bytes(workflow(app, "compiled").calibrate()) == \
            as_bytes(workflow(app, "interpreted").calibrate())
