"""Backend selection and byte-identity between the two kernels.

Every assertion here compares the *serialized* per-rank statistics (and,
where collected, the trace event list) — the compiled backend's contract
is byte-identity, not approximate agreement.  Faults and timeouts run on
the compiled driver too; only trace collection needs the interpreter, so
a compiled request for a traced run interprets the program and says why.
"""

import json

import pytest

from repro import mpi
from repro.ir import make_factory
from repro.ir.builder import P, ProgramBuilder, myid
from repro.kernel import clear_cache
from repro.machine import TESTING_MACHINE
from repro.sim import ExecMode, FaultPlan, Simulator
from repro.symbolic import Var

M = TESTING_MACHINE


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def fingerprint(result):
    return json.dumps(
        [p.to_dict() for p in result.stats.procs], sort_keys=True, separators=(",", ":")
    )


def ring():
    b = ProgramBuilder("ident_ring", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        b.send(dest=(myid + 1) % P, nbytes=64, tag=0)
        b.recv(source=(myid - 1) % P, nbytes=64, tag=0)
    return make_factory(b.build(), {"iters": 5})


def nonblocking():
    b = ProgramBuilder("ident_nb", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        b.irecv(source=(myid - 1) % P, nbytes=256, tag=1, handle="hr")
        b.isend(dest=(myid + 1) % P, nbytes=256, tag=1, handle="hs")
        b.compute("overlap", work=500)
        b.waitall("hr", "hs")
    return make_factory(b.build(), {"iters": 4})


def collective():
    b = ProgramBuilder("ident_coll", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        b.allreduce(nbytes=8, contrib=1, result_var="acc")
        b.compute("work", work=300)
    return make_factory(b.build(), {"iters": 3})


FACTORIES = [ring, nonblocking, collective]


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("mode", [ExecMode.DE, ExecMode.AM])
def test_stats_identical(make, mode):
    interp = Simulator(8, make(), M, mode=mode).run()
    compiled = Simulator(8, make(), M, mode=mode, backend="compiled").run()
    assert fingerprint(interp) == fingerprint(compiled)


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__)
def test_traces_identical(make):
    interp = Simulator(8, make(), M, mode=ExecMode.DE, collect_trace=True).run()
    sim = Simulator(8, make(), M, mode=ExecMode.DE, collect_trace=True, backend="compiled")
    assert sim.backend == "interpreted"
    assert "trace" in sim.backend_fallback_reason
    compiled = sim.run()
    assert repr(interp.trace.events) == repr(compiled.trace.events)
    assert fingerprint(interp) == fingerprint(compiled)


@pytest.mark.parametrize("backend", ["compiled", "auto"])
@pytest.mark.parametrize("feature, kw", [
    ("fault plan", {"faults": FaultPlan(seed=1, duplication=0.5)}),
    ("timeout", {"default_timeout": 1.0}),
    ("trace", {"collect_trace": True}),
])
def test_engine_only_features_fall_back(backend, feature, kw):
    """Only trace collection still interprets; faults and timeouts compile."""
    sim = Simulator(4, ring(), M, mode=ExecMode.DE, backend=backend, **kw)
    if feature == "trace":
        assert sim.backend == "interpreted"
        assert feature in sim.backend_fallback_reason
    else:
        assert sim.backend == "compiled"
        assert sim.backend_fallback_reason is None
    interp = Simulator(4, ring(), M, mode=ExecMode.DE, **kw).run()
    assert fingerprint(sim.run()) == fingerprint(interp)


def test_compiled_sim_reports_backend():
    sim = Simulator(4, ring(), M, mode=ExecMode.DE, backend="compiled")
    assert sim.backend == "compiled"
    assert sim.backend_fallback_reason is None


class TestAuto:
    def test_auto_compiles_ir_programs(self):
        sim = Simulator(4, ring(), M, mode=ExecMode.DE, backend="auto")
        assert sim.backend == "compiled"
        interp = Simulator(4, ring(), M, mode=ExecMode.DE).run()
        assert fingerprint(sim.run()) == fingerprint(interp)

    def test_auto_falls_back_for_raw_generators(self):
        def prog(rank, size):
            yield mpi.compute(ops=100)

        sim = Simulator(2, prog, M, mode=ExecMode.DE, backend="auto")
        assert sim.backend == "interpreted"
        assert sim.backend_fallback_reason is not None
        sim.run()  # and it still runs

    def test_auto_falls_back_for_unlowerable_ir(self):
        b = ProgramBuilder("auto_materialized")
        b.array("hist", 16, materialize=True)
        b.compute("bin", work=10, writes={"hist"})
        factory = make_factory(b.build(), {})
        sim = Simulator(2, factory, M, mode=ExecMode.DE, backend="auto")
        assert sim.backend == "interpreted"
        assert "materialized" in sim.backend_fallback_reason
        interp = Simulator(2, factory, M, mode=ExecMode.DE).run()
        assert fingerprint(sim.run()) == fingerprint(interp)


class TestErrors:
    def test_compiled_rejects_raw_generators(self):
        def prog(rank, size):
            yield mpi.compute(ops=100)

        with pytest.raises(ValueError, match="cannot run this program"):
            Simulator(2, prog, M, mode=ExecMode.DE, backend="compiled")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            Simulator(2, ring(), M, mode=ExecMode.DE, backend="jit")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        sim = Simulator(4, ring(), M, mode=ExecMode.DE)
        assert sim.backend == "compiled"
