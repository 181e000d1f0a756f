"""Materialized arrays on the compiled kernel, over generated programs.

NAS SP stores each rank's grid sizes in small arrays that ``ArrayAssign``
kernels fill and most loop bounds read (Sec. 3.3 of the paper).  The
compiled kernel owns such arrays as per-rank NumPy arrays and calls the
kernels as the interpreter does.  These programs draw one to three
materialized arrays of drawn sizes, fill them from a few top-level
kernels (one of which reads another array), and read every array
through ``Index`` in a loop bound, a comp block's work, a message size
and an ``If`` condition.  Compiled runs, plain, traced and measuring,
must equal the interpreter's in stats, trace, collector and profile.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import make_factory
from repro.ir.builder import P, ProgramBuilder, myid
from repro.ir.interp import BranchProfile, MeasurementCollector
from repro.kernel import clear_cache
from repro.machine import IBM_SP
from repro.sim import ExecMode, Simulator
from repro.symbolic import Gt, Index, Var

NPROCS = 4


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _fill(arr, env) -> None:
    """Small positive values that depend on the rank and the salt."""
    rank, size, salt = int(env["myid"]), int(env["P"]), int(env["salt"])
    arr[:] = (np.arange(len(arr)) * (rank + 1) + salt) % (size + 2) + 1


def fill_a0(env, arrays):
    _fill(arrays["a0"], env)


def fill_a1(env, arrays):
    _fill(arrays["a1"], env)


def fill_a2(env, arrays):
    _fill(arrays["a2"], env)


def chain_a1(env, arrays):
    """``a1`` from ``a0``, which it declares as a read."""
    arr = arrays["a1"]
    arr[:] = np.resize(env["a0"], len(arr)) + int(env["myid"]) % 2


KERNELS = {
    "a0": [(fill_a0, {"myid", "P", "salt"})],
    "a1": [(fill_a1, {"myid", "P", "salt"}), (chain_a1, {"a0", "myid"})],
    "a2": [(fill_a2, {"myid", "P", "salt"})],
}


@st.composite
def programs(draw):
    """A program over ``n`` materialized arrays and its inputs."""
    n = draw(st.integers(1, 3))
    b = ProgramBuilder("materialized_prop", params=("salt",))
    reads = []
    for k in range(n):
        name = f"a{k}"
        # a large array's working set leaves L1, so its ArrayAssign's
        # pricing depends on the bytes it charges
        extra = draw(st.sampled_from([1, 2, 3, 5, 20000]))
        size = P + extra if draw(st.booleans()) else extra
        b.array(name, size, itemsize=draw(st.sampled_from([4, 8])), materialize=True)
        reads.append((name, (myid + draw(st.integers(0, 3))) % size))
    b.array("data", 64 * P)
    for name, _ in reads:
        kernel, kernel_reads = draw(st.sampled_from(KERNELS[name]))
        work = draw(st.sampled_from([0, 3, Index.make(name, 0)]))
        b.array_assign(name, kernel, reads=kernel_reads, work=work)
    for k, (name, idx) in enumerate(reads):
        elem = Index.make(name, idx)
        with b.loop(f"i{k}", 1, elem):
            b.compute(f"body{k}", work=elem * draw(st.integers(1, 50)), arrays=("data",))
        with b.if_(Gt(elem, draw(st.integers(1, 4)))):
            b.compute(f"slow{k}", work=elem * 7)
        b.send(dest=(myid + 1) % P, nbytes=elem * 8, tag=k)
        b.recv(source=(myid - 1 + P) % P, nbytes=elem * 8, tag=k)
    return b.build(), {"salt": draw(st.integers(0, 9))}


def run(program, inputs, backend, mode, trace=False, measure=False):
    collector = MeasurementCollector() if measure else None
    profile = BranchProfile() if measure else None
    factory = make_factory(program, inputs, collector=collector, profile=profile)
    sim = Simulator(NPROCS, factory, IBM_SP, mode=mode, seed=11, collect_trace=trace,
                    backend=backend)
    assert (sim.backend, sim.backend_fallback_reason) == (backend, None)
    result = sim.run()
    out = [result.stats.to_dict(include_procs=True)]
    if trace:
        out.append(repr(result.trace.events))
    if measure:
        out += [collector.params(), {t: collector.samples(t) for t in collector.tasks()},
                profile.to_dict()]
    return json.dumps(out, sort_keys=True, default=repr)


@settings(max_examples=30, deadline=None)
@given(case=programs(), mode=st.sampled_from([ExecMode.DE, ExecMode.MEASURED]))
def test_compiled_matches_interpreter(case, mode):
    program, inputs = case
    for variant in ({}, {"trace": True}, {"measure": True}):
        assert run(program, inputs, "compiled", mode, **variant) == \
            run(program, inputs, "interpreted", mode, **variant)


@pytest.mark.parametrize("backend", ["interpreted", "compiled"])
def test_under_declared_array_kernel_fails_alike(backend):
    """An ``ArrayAssign`` kernel sees only its declared reads, on either
    backend: ``fill_a0`` reads ``salt``, which this one does not declare."""
    b = ProgramBuilder("under_declared", params=("salt",))
    b.array("a0", 4, materialize=True)
    b.array_assign("a0", fill_a0, reads={"myid", "P"})
    sim = Simulator(2, make_factory(b.build(), {"salt": 1}), IBM_SP, mode=ExecMode.DE,
                    backend=backend)
    assert sim.backend == backend
    with pytest.raises(KeyError, match="'salt'"):
        sim.run()


def test_array_read_follows_the_kernel():
    """An ``ArrayAssign`` inside a loop refills its array every trip, and
    reads after it see the new values on both backends."""
    b = ProgramBuilder("refill", params=("salt", "trips"))
    b.array("a0", 3, materialize=True)
    with b.loop("t", 1, Var("trips")):
        b.assign("salt", Var("salt") + 1)
        b.array_assign("a0", fill_a0, reads={"myid", "P", "salt"}, work=Index.make("a0", 1))
        b.compute("use", work=Index.make("a0", 2) * 100)
    program = b.build()
    for mode in (ExecMode.DE, ExecMode.MEASURED):
        assert run(program, {"salt": 0, "trips": 5}, "compiled", mode, trace=True) == \
            run(program, {"salt": 0, "trips": 5}, "interpreted", mode, trace=True)
