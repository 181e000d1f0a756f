"""Backend selection and byte-identity between the two kernels.

Every assertion here compares the *serialized* per-rank statistics (and,
where collected, the trace event list) — the compiled backend's contract
is byte-identity, not approximate agreement.  Faults, timeouts and trace
collection run on the compiled driver too, and the reference every
compiled run is held to is named ``backend="interpreted"``: the default,
``auto``, compiles.  Comp blocks and ``ArrayAssign`` statements with a
Python kernel compile when the kernel is a top-level function with
declared reads; both backends then call it alike.  Materialized arrays
(NAS SP's cell sizes) are NumPy arrays the generated code owns.
"""

import json

import pytest

from repro import mpi
from repro.apps import build_nas_sp, build_sweep3d, sweep3d_inputs
from repro.codegen import compile_program
from repro.ir import make_factory
from repro.ir.builder import P, ProgramBuilder, myid
from repro.ir.printer import format_program
from repro.kernel import clear_cache
from repro.machine import IBM_SP, TESTING_MACHINE
from repro.measure import measure_wparams
from repro.sim import ExecMode, FaultPlan, Simulator
from repro.symbolic import Gt, Index, Var

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


def set_flag(env, arrays):
    env["flag"] = env["myid"] % 2


def set_flag_inverted(env, arrays):
    env["flag"] = 1 - env["myid"] % 2


def reads_undeclared(env, arrays):
    env["flag"] = env["myid"] + env["P"]


def fill_hist(env, arrays):
    arrays["hist"][:] = env["myid"] + 1


def kernel_program(kernel, reads=frozenset({"myid"}), writes=frozenset({"flag"})):
    """A comp block whose kernel sets ``flag``, which a branch then reads."""
    b = ProgramBuilder("ident_kernel", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        b.compute("probe", work=200, reads=reads, writes=writes, kernel=kernel)
        with b.if_(Gt(Var("flag"), 0), data_dependent=True):
            b.compute("fixup", work=50)
        b.send(dest=(myid + 1) % P, nbytes=64, tag=0)
        b.recv(source=(myid - 1) % P, nbytes=64, tag=0)
    return b.build()


def kernel_block():
    return make_factory(kernel_program(set_flag), {"iters": 3})


FACTORIES = [ring, nonblocking, collective, kernel_block]


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("mode", [ExecMode.DE, ExecMode.AM])
def test_stats_identical(make, mode):
    interp = Simulator(8, make(), M, mode=mode, backend="interpreted").run()
    compiled = Simulator(8, make(), M, mode=mode, backend="compiled").run()
    assert fingerprint(interp) == fingerprint(compiled)


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__)
def test_traces_identical(make):
    interp = Simulator(8, make(), M, mode=ExecMode.DE, collect_trace=True,
                       backend="interpreted").run()
    sim = Simulator(8, make(), M, mode=ExecMode.DE, collect_trace=True, backend="compiled")
    assert sim.backend == "compiled"
    assert sim.backend_fallback_reason is None
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
    """The features that once sent a run to the interpreter (hence the
    name) no longer do: fault plans, timeouts and traces compile, on
    ``compiled`` and on the default, and match the interpreter."""
    sim = Simulator(4, ring(), M, mode=ExecMode.DE, backend=backend, **kw)
    assert sim.backend == "compiled"
    assert sim.backend_fallback_reason is None
    interp = Simulator(4, ring(), M, mode=ExecMode.DE, backend="interpreted", **kw).run()
    compiled = sim.run()
    assert fingerprint(compiled) == fingerprint(interp)
    if compiled.trace is not None:
        assert repr(compiled.trace.events) == repr(interp.trace.events)


SWEEP_FEATURES = {
    "plain": {},
    "fault plan": {"faults": FaultPlan(seed=1, duplication=0.3)},
    "timeout": {"default_timeout": 1.0},
}


@pytest.mark.parametrize("feature", list(SWEEP_FEATURES))
@pytest.mark.parametrize("mode", [ExecMode.DE, ExecMode.MEASURED])
@pytest.mark.parametrize("nprocs", [4, 16])
def test_sweep3d_full_program_compiles(nprocs, mode, feature):
    """Sweep3D's flux-fixup probe declares its reads, so the full program
    lowers in DE and (seeded, noisy) MEASURED mode and matches the
    interpreter byte for byte."""
    program = build_sweep3d()
    inputs = sweep3d_inputs(12, 12, 8, nprocs)

    def stats(backend):
        sim = Simulator(nprocs, make_factory(program, inputs), IBM_SP, mode=mode,
                        seed=7, backend=backend, **SWEEP_FEATURES[feature])
        assert sim.backend == backend
        assert sim.backend_fallback_reason is None
        return json.dumps(sim.run().stats.to_dict(include_procs=True), sort_keys=True)

    assert stats("compiled") == stats("interpreted")


def sp_inputs(q):
    """NAS SP inputs on a q x q grid; 14 points split unevenly for q > 2."""
    return {"nx": 14, "q": q, "niter": 2}


@pytest.fixture(scope="module")
def nas_sp():
    """NAS SP's original and simplified programs, and an interpreted
    4-rank calibration of the simplified one's parameters."""
    program = build_nas_sp()
    wparams = measure_wparams(program, sp_inputs(2), 4, IBM_SP, seed=3,
                              backend="interpreted").wparams
    return {ExecMode.DE: program, ExecMode.MEASURED: program,
            ExecMode.AM: compile_program(program).simplified}, wparams


NAS_SP_CASES = [
    (nprocs, mode, feature)
    for nprocs in (4, 9, 16)
    for mode in (ExecMode.DE, ExecMode.MEASURED, ExecMode.AM)
    for feature in SWEEP_FEATURES
] + [(9, ExecMode.DE, "trace"), (9, ExecMode.AM, "trace")]


@pytest.mark.parametrize("nprocs, mode, feature", NAS_SP_CASES,
                         ids=[f"{n}-{m.name.lower()}-{f}" for n, m, f in NAS_SP_CASES])
def test_nas_sp_compiles(nprocs, mode, feature, nas_sp):
    """NAS SP's cell sizes live in materialized arrays that ``ArrayAssign``
    kernels fill and loop bounds and message sizes read, so its original
    program (DE, MEASURED) and simplified program (AM) lower and match
    the interpreter byte for byte, traces included."""
    programs, wparams = nas_sp
    kw = {"collect_trace": True} if feature == "trace" else SWEEP_FEATURES[feature]

    def run(backend):
        factory = make_factory(programs[mode], sp_inputs(int(nprocs ** 0.5)), wparams)
        sim = Simulator(nprocs, factory, IBM_SP, mode=mode, seed=7, backend=backend, **kw)
        assert (sim.backend, sim.backend_fallback_reason) == (backend, None)
        result = sim.run()
        trace = repr(result.trace.events) if result.trace is not None else None
        return json.dumps(result.stats.to_dict(include_procs=True), sort_keys=True), trace

    compiled, interp = run("compiled"), run("interpreted")
    assert compiled == interp
    assert (compiled[1] is None) == (feature != "trace")


@pytest.mark.parametrize("backend", ["interpreted", "compiled"])
@pytest.mark.parametrize("mode", [ExecMode.DE, ExecMode.AM])
def test_nas_sp_stats_are_python_floats(backend, mode, nas_sp):
    """A cell-size read is a Python float, not a NumPy scalar, so NAS SP's
    clocks and every float in its stats are plain floats on both backends."""
    programs, wparams = nas_sp
    factory = make_factory(programs[mode], sp_inputs(3), wparams)
    stats = Simulator(9, factory, IBM_SP, mode=mode, seed=7, backend=backend).run().stats
    assert type(stats.elapsed) is float
    for proc in stats.procs:
        for name in ("compute_time", "comm_time", "finish_time", "host_cost"):
            assert type(getattr(proc, name)) is float, (proc.rank, name)


@pytest.mark.parametrize("change", [
    {"kernel": set_flag_inverted},
    {"reads": frozenset({"myid", "P"})},
    {"writes": frozenset({"flag", "myid"})},
], ids=["kernel", "reads", "writes"])
def test_programs_that_print_alike_run_their_own_kernels(change):
    """The printed IR omits a block's kernel, reads and writes; each
    program lowers its own, so compiled runs match the interpreter."""
    base = {"kernel": set_flag, "reads": frozenset({"myid"}), "writes": frozenset({"flag"})}
    programs = kernel_program(**base), kernel_program(**{**base, **change})
    assert format_program(programs[0]) == format_program(programs[1])
    for program in programs:
        interp, compiled = (
            Simulator(8, make_factory(program, {"iters": 3}), M, mode=ExecMode.DE,
                      backend=backend).run()
            for backend in ("interpreted", "compiled")
        )
        assert fingerprint(compiled) == fingerprint(interp)


@pytest.mark.parametrize("backend", ["interpreted", "compiled"])
def test_under_declared_kernel_fails_alike(backend):
    """A kernel sees only its declared reads, on either backend."""
    factory = make_factory(kernel_program(reads_undeclared), {"iters": 1})
    sim = Simulator(2, factory, M, mode=ExecMode.DE, backend=backend)
    assert sim.backend == backend
    with pytest.raises(KeyError, match="'P'"):
        sim.run()


def test_compiled_sim_reports_backend():
    sim = Simulator(4, ring(), M, mode=ExecMode.DE, backend="compiled")
    assert sim.backend == "compiled"
    assert sim.backend_fallback_reason is None


def closure_kernel():
    bias = 1

    def probe(env, arrays):
        env["flag"] = (env["myid"] + bias) % 2

    return probe


class FlagProbe:
    def probe(self, env, arrays):
        set_flag(env, arrays)


class TestAuto:
    def test_auto_compiles_ir_programs(self):
        sim = Simulator(4, ring(), M, mode=ExecMode.DE, backend="auto")
        assert sim.backend == "compiled"
        interp = Simulator(4, ring(), M, mode=ExecMode.DE, backend="interpreted").run()
        assert fingerprint(sim.run()) == fingerprint(interp)

    def test_auto_falls_back_for_raw_generators(self):
        def prog(rank, size):
            yield mpi.compute(ops=100)

        sim = Simulator(2, prog, M, mode=ExecMode.DE, backend="auto")
        assert sim.backend == "interpreted"
        assert sim.backend_fallback_reason is not None
        sim.run()  # and it still runs

    def test_auto_falls_back_for_unlowerable_ir(self):
        """An ``ArrayAssign`` kernel that declares no reads gets the whole
        environment, which only the interpreter has."""
        b = ProgramBuilder("auto_unlowerable")
        b.array("hist", 16, materialize=True)
        b.array_assign("hist", fill_hist, work=8)
        b.compute("bin", work=Index.make("hist", 0) * 10, arrays=("hist",))
        factory = make_factory(b.build(), {})
        sim = Simulator(2, factory, M, mode=ExecMode.DE, backend="auto")
        assert sim.backend == "interpreted"
        assert sim.backend_fallback_reason == (
            "ArrayAssign to 'hist' carries a Python kernel callable")
        interp = Simulator(2, factory, M, mode=ExecMode.DE, backend="interpreted").run()
        assert fingerprint(sim.run()) == fingerprint(interp)

    @pytest.mark.parametrize("kernel, reads", [
        (lambda env, arrays: set_flag(env, arrays), {"myid"}),
        (closure_kernel(), {"myid"}),
        (FlagProbe().probe, {"myid"}),
        (set_flag, frozenset()),
    ], ids=["lambda", "closure", "method", "no-declared-reads"])
    def test_auto_falls_back_for_unlowerable_kernels(self, kernel, reads):
        """Only a top-level kernel function with declared reads lowers."""
        factory = make_factory(kernel_program(kernel, reads=reads), {"iters": 2})
        sim = Simulator(2, factory, M, mode=ExecMode.DE, backend="auto")
        assert sim.backend == "interpreted"
        assert "carries a Python kernel callable" in sim.backend_fallback_reason
        interp = Simulator(2, factory, M, mode=ExecMode.DE, backend="interpreted").run()
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

    @pytest.mark.parametrize("collect_trace", [False, True], ids=["untraced", "traced"])
    def test_default_compiles_what_lowers(self, collect_trace, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        sim = Simulator(4, ring(), M, mode=ExecMode.DE, collect_trace=collect_trace)
        assert (sim.backend, sim.backend_fallback_reason) == ("compiled", None)
        monkeypatch.setenv("REPRO_BACKEND", "interpreted")
        sim = Simulator(4, ring(), M, mode=ExecMode.DE, collect_trace=collect_trace)
        assert (sim.backend, sim.backend_fallback_reason) == ("interpreted", None)
