"""Each app is built once per process, and sharing it changes no result.

The default resolver hands every caller one program object per app, so
a serve miss reuses the program, its per-expression evaluators, its
compiled kernels and what it keeps of its derivations.  For each
``repro serve`` app in each estimator, a serve miss, a serve hit and an
inline ``execute_request`` (what ``repro query`` runs without a server
or store) on the interpreter, from a freshly built program, must return
byte-identical results.  Calibrating, compiling and running the shared
program in every mode, with and without a fault plan, must leave it
unchanged, and a later ``am`` miss of an app derives nothing again.
"""

from collections import Counter

import pytest

from repro.api import RunRequest, RunResult, canonical_json
from repro import apps
from repro.apps import APPS, resolve_app
from repro.codegen import pipeline as codegen_pipeline
from repro.ir.printer import format_program
from repro.kernel import lower
from repro.measure import calibrate
from repro.serve import SimulationService
from repro.store import ResultStore
from repro.workflow.campaign import execute_request

#: app -> (ranks, inputs): small versions of ``repro serve`` requests
SERVE_APPS = {
    "sample_wavefront": (8, {"grain": 20000, "msg": 1024, "iters": 3}),
    "sample_nearest_neighbor": (8, {"grain": 20000, "msg": 2048, "iters": 3}),
    "sweep3d": (4, {"itg": 16, "jtg": 16, "kt": 8, "kb": 2, "ab": 1, "niter": 1}),
    "tomcatv": (4, {"n": 48, "itmax": 2}),
    "nas_sp": (4, {"nx": 12, "niter": 1}),
}
MODES = ("de", "am", "measured")
CALIB_PROCS = 4  # nas_sp needs a square count
FAULT_PLAN = canonical_json({"seed": 5, "duplication": 0.2})


def request(app, mode, fault_plan=None):
    nprocs, inputs = SERVE_APPS[app]
    return RunRequest(app=app, mode=mode, nprocs=nprocs,
                      inputs=tuple(sorted(inputs.items())), seed=1,
                      fault_plan=fault_plan)


@pytest.fixture
def builds(monkeypatch):
    """Per-app builder call counts, from an empty build cache."""
    calls = dict.fromkeys(SERVE_APPS, 0)
    for app in SERVE_APPS:
        builder, default_inputs = APPS[app]

        def counting(app=app, builder=builder):
            calls[app] += 1
            return builder()

        monkeypatch.setitem(APPS, app, (counting, default_inputs))
    monkeypatch.setattr(apps, "_BUILT", {})
    return calls


def test_shared_program_changes_no_result(tmp_path, builds, monkeypatch):
    shared = {app: resolve_app(app)[0] for app in SERVE_APPS}
    before = {app: format_program(p) for app, p in shared.items()}

    store = ResultStore(tmp_path / "store")
    service = SimulationService(store, backend="auto")
    served = {}
    try:
        for app in SERVE_APPS:
            for mode in MODES:
                doc = {"run": request(app, mode).to_json(), "calib_procs": CALIB_PROCS}
                miss, hit = service.handle_run(doc), service.handle_run(doc)
                assert (miss["cached"], hit["cached"]) == (False, True)
                assert miss["result"]["outcome"] == "ok", miss["result"]
                assert canonical_json(hit["result"]) == canonical_json(miss["result"])
                served[app, mode] = canonical_json(miss["result"])
            fault_doc = {"run": request(app, "am", FAULT_PLAN).to_json(),
                         "calib_procs": CALIB_PROCS}
            assert service.handle_run(fault_doc)["cached"] is False
    finally:
        store.close()

    assert builds == dict.fromkeys(SERVE_APPS, 1)
    for app, program in shared.items():
        assert resolve_app(app)[0] is program
        # format_program reads nothing the program keeps
        assert format_program(program) == before[app]

    apps._BUILT.clear()
    monkeypatch.setenv("REPRO_BACKEND", "interpreted")
    for (app, mode), want in served.items():
        rec = execute_request(request(app, mode), calib_procs=CALIB_PROCS)
        assert canonical_json(RunResult.from_record(rec).to_json()) == want, (app, mode)
    assert builds == dict.fromkeys(SERVE_APPS, 2)


def test_second_am_miss_derives_nothing(tmp_path, builds, monkeypatch):
    """The kernels, the timer version and the compiled program of a
    later ``am`` miss, calibrated afresh at other inputs, come from the
    program objects: nothing is lowered, instrumented or condensed."""
    app = "sample_nearest_neighbor"
    nprocs, inputs = SERVE_APPS[app]

    def miss(service, grain):
        run = RunRequest(app=app, mode="am", nprocs=nprocs, seed=1,
                         inputs=tuple(sorted({**inputs, "grain": grain}.items())))
        response = service.handle_run({"run": run.to_json(), "calib_procs": CALIB_PROCS})
        assert response["cached"] is False
        assert response["result"]["outcome"] == "ok", response["result"]

    calls = Counter()
    for module, name in ((lower, "lower_program"), (calibrate, "generate_instrumented"),
                         (codegen_pipeline, "condense")):
        def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    store = ResultStore(tmp_path / "store")
    try:
        service = SimulationService(store, backend="auto")
        miss(service, 20000)
        assert set(calls) == {"lower_program", "generate_instrumented", "condense"}
        calls.clear()
        miss(service, 30000)
    finally:
        store.close()
    assert calls == {}
