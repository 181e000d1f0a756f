"""Property-based tests of the whole compiler pipeline.

The central correctness property of the paper's transformation: for a
deterministic program on a noise-free, flat-cache machine with exactly
measured w_i, the simplified program must predict the *same* execution
time, message traffic and communication pattern as direct execution of
the original (the only permitted difference being the startup parameter
broadcast).  Hypothesis generates random structured programs — loops,
myid-guarded branches, compute blocks, ring/shift communication and
collectives — and checks the equivalence end to end.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.codegen import compile_program, generate_instrumented
from repro.ir import MeasurementCollector, ProgramBuilder, make_factory, myid, P
from repro.machine import NetworkModel, TESTING_MACHINE
from repro.sim import ExecMode, Simulator
from repro.symbolic import Eq, Gt, Lt, Mod, Var

M = TESTING_MACHINE
N = Var("N")


@st.composite
def programs(draw):
    """A random structured message-passing program over parameter N."""
    b = ProgramBuilder(f"prop_{draw(st.integers(0, 10**6))}", params=("N",))
    b.array("buf", size=N + 16)
    b.assign("half", N // 2)
    n_stmts = draw(st.integers(1, 5))
    task_id = 0

    def emit_block(depth, local_only=False):
        nonlocal task_id
        # inside a myid-guarded branch, only rank-local work is SPMD-valid
        # (communication or collectives there would diverge across ranks)
        if local_only:
            choices = ["compute", "loop"] if depth < 2 else ["compute"]
        elif depth < 2:
            choices = ["compute", "loop", "branch", "ring", "allreduce", "barrier"]
        else:
            choices = ["compute", "ring", "allreduce", "barrier"]
        kind = draw(st.sampled_from(choices))
        if kind == "compute":
            task_id += 1
            work = draw(st.sampled_from([N, N * 2, Var("half") + 1, N * N // 4 + 1]))
            b.compute(f"t{task_id}", work=work, ops_per_iter=draw(st.integers(1, 5)), arrays=("buf",))
        elif kind == "loop":
            lo = draw(st.integers(1, 2))
            hi = draw(st.integers(2, 4))
            with b.loop(f"i{depth}_{task_id}", lo, hi):
                for _ in range(draw(st.integers(1, 2))):
                    emit_block(depth + 1, local_only)
        elif kind == "branch":
            cond = draw(
                st.sampled_from(
                    [Gt(myid, 0), Eq(Mod.make(myid, 2), 0), Lt(myid, P - 1)]
                )
            )
            with b.if_(cond):
                emit_block(depth + 1, local_only=True)
            with b.else_():
                emit_block(depth + 1, local_only=True)
        elif kind == "ring":
            nbytes = draw(st.sampled_from([8, 64, N * 8]))
            tag = draw(st.integers(0, 3))
            b.send(dest=(myid + 1) % P, nbytes=nbytes, tag=tag, array="buf")
            b.recv(source=(myid - 1 + P) % P, nbytes=nbytes, tag=tag, array="buf")
        elif kind == "allreduce":
            b.allreduce(nbytes=8)
        else:
            b.barrier()

    for _ in range(n_stmts):
        emit_block(0)
    return b.build()


def _measure_exact(compiled, inputs, nprocs):
    coll = MeasurementCollector()
    factory = make_factory(generate_instrumented(compiled.original), inputs, collector=coll)
    Simulator(nprocs, factory, M, mode=ExecMode.MEASURED).run()
    return coll.params()


@given(programs(), st.integers(2, 5), st.integers(4, 40))
@settings(max_examples=25, deadline=None)
def test_simplified_program_preserves_de_semantics(prog, nprocs, n_value):
    """AM == DE on the exact machine, up to the parameter broadcast."""
    inputs = {"N": n_value}
    compiled = compile_program(prog)
    wparams = _measure_exact(compiled, inputs, nprocs)
    # measured coefficients may omit tasks whose dynamic work was 0;
    # give those an arbitrary value (they contribute zero delay)
    for name in compiled.w_param_names:
        wparams.setdefault(name, 1.0)

    de = Simulator(nprocs, make_factory(prog, inputs), M, mode=ExecMode.DE).run()
    am = Simulator(
        nprocs, make_factory(compiled.simplified, inputs, wparams=wparams), M, mode=ExecMode.AM
    ).run()

    bcast = (
        NetworkModel(M.net).collective_time("bcast", 8 * len(compiled.w_param_names), nprocs)
        if compiled.w_param_names
        else 0.0
    )
    assert am.elapsed == pytest.approx(de.elapsed + bcast, rel=1e-6, abs=1e-9)
    assert am.stats.total_messages == de.stats.total_messages
    assert am.stats.total_bytes == de.stats.total_bytes


@given(programs(), st.integers(2, 4), st.integers(4, 24))
@settings(max_examples=25, deadline=None)
def test_scaling_function_equals_direct_cost(prog, nprocs, n_value):
    """Each condensed region's symbolic cost, evaluated with exact w_i,
    equals the direct execution time of the statements it replaced —
    checked via total per-process compute time."""
    inputs = {"N": n_value}
    compiled = compile_program(prog)
    wparams = _measure_exact(compiled, inputs, nprocs)
    for name in compiled.w_param_names:
        wparams.setdefault(name, 1.0)

    de = Simulator(nprocs, make_factory(prog, inputs), M, mode=ExecMode.DE).run()
    am = Simulator(
        nprocs, make_factory(compiled.simplified, inputs, wparams=wparams), M, mode=ExecMode.AM
    ).run()
    for p_de, p_am in zip(de.stats.procs, am.stats.procs):
        assert p_am.compute_time == pytest.approx(p_de.compute_time, rel=1e-6, abs=1e-12)


@given(programs())
@settings(max_examples=50, deadline=None)
def test_condensation_covers_all_blocks(prog):
    """Every computational task is either condensed into a region or
    pinned — none silently dropped."""
    compiled = compile_program(prog)
    region_blocks = {b for r in compiled.plan.regions for b in r.blocks}
    pinned_names = {
        s.name for s in prog.comp_blocks() if s.sid in compiled.slice.pinned_blocks
    }
    all_blocks = {s.name for s in prog.comp_blocks()}
    assert region_blocks | pinned_names == all_blocks


@given(programs())
@settings(max_examples=50, deadline=None)
def test_simplified_has_no_unpinned_compblocks(prog):
    from repro.ir import CompBlock

    compiled = compile_program(prog)
    names = {
        s.name for s in compiled.simplified.statements() if isinstance(s, CompBlock)
    }
    pinned = {s.name for s in prog.comp_blocks() if s.sid in compiled.slice.pinned_blocks}
    assert names == pinned
