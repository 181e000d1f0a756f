"""Property-based tests of the simulation kernel's invariants.

Hypothesis generates random (but deadlock-free by construction) SPMD
communication programs; the kernel must satisfy conservation and
determinism invariants regardless of pattern, sizes or interleaving.
"""

from graphlib import TopologicalSorter

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro import mpi
from repro.machine import TESTING_MACHINE, IBM_SP
from repro.sim import ExecMode, Simulator

M = TESTING_MACHINE


@st.composite
def spmd_programs(draw):
    """A random sequence of SPMD phases, each safe by construction."""
    phases = []
    n_phases = draw(st.integers(1, 6))
    for i in range(n_phases):
        kind = draw(st.sampled_from(["ring", "shift", "nb_exchange", "compute", "coll"]))
        if kind == "ring":
            # a blocking send-then-recv ring is only deadlock-free while
            # sends are buffered: stay within the eager limit
            phases.append(("ring", draw(st.integers(1, M.net.eager_limit)), i))
        elif kind == "shift":
            phases.append(("shift", draw(st.integers(1, 65536)), i))
        elif kind == "nb_exchange":
            phases.append(("nb_exchange", draw(st.integers(1, 65536)), i))
        elif kind == "compute":
            phases.append(("compute", draw(st.integers(0, 10**6)), i))
        else:
            phases.append(("coll", draw(st.sampled_from(["barrier", "allreduce", "bcast"])), i))
    return tuple(phases)


def program_for(phases):
    def prog(rank, size):
        for kind, arg, tag in phases:
            if kind == "ring":
                yield mpi.send(dest=(rank + 1) % size, nbytes=arg, tag=tag)
                yield mpi.recv(source=(rank - 1) % size, tag=tag)
            elif kind == "shift":
                # rightward shift: non-periodic, blocking-safe
                if rank > 0:
                    yield mpi.recv(source=rank - 1, tag=tag)
                if rank < size - 1:
                    yield mpi.send(dest=rank + 1, nbytes=arg, tag=tag)
            elif kind == "nb_exchange":
                handles = []
                if rank > 0:
                    handles.append((yield mpi.irecv(source=rank - 1, tag=tag)))
                    handles.append((yield mpi.isend(dest=rank - 1, nbytes=arg, tag=tag)))
                if rank < size - 1:
                    handles.append((yield mpi.irecv(source=rank + 1, tag=tag)))
                    handles.append((yield mpi.isend(dest=rank + 1, nbytes=arg, tag=tag)))
                if handles:
                    yield mpi.waitall(*handles)
            elif kind == "compute":
                yield mpi.compute(ops=arg * (1 + rank % 3))
            elif arg == "barrier":
                yield mpi.barrier()
            elif arg == "allreduce":
                yield mpi.allreduce(nbytes=8, data=1, reduce_fn=lambda a, b: a + b)
            else:
                yield mpi.bcast(nbytes=64, data=("x" if rank == 0 else None))

    return prog


@given(spmd_programs(), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_no_deadlock_and_clean_termination(phases, nprocs):
    res = Simulator(nprocs, program_for(phases), M, mode=ExecMode.DE).run()
    assert all(p.finish_time >= 0 for p in res.stats.procs)


@given(spmd_programs(), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_message_conservation(phases, nprocs):
    """Every send is received: totals must balance."""
    res = Simulator(nprocs, program_for(phases), M, mode=ExecMode.DE).run()
    sent = sum(p.messages_sent for p in res.stats.procs)
    received = sum(p.messages_received for p in res.stats.procs)
    assert sent == received


@given(spmd_programs(), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_deterministic_replay(phases, nprocs):
    a = Simulator(nprocs, program_for(phases), M, mode=ExecMode.DE).run()
    b = Simulator(nprocs, program_for(phases), M, mode=ExecMode.DE).run()
    assert a.elapsed == b.elapsed
    assert [p.finish_time for p in a.stats.procs] == [p.finish_time for p in b.stats.procs]


@given(spmd_programs(), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_clocks_monotone_and_time_split_consistent(phases, nprocs):
    res = Simulator(nprocs, program_for(phases), M, mode=ExecMode.DE).run()
    for p in res.stats.procs:
        assert p.compute_time >= 0 and p.comm_time >= 0
        # a process cannot finish before the work it performed
        assert p.finish_time + 1e-12 >= p.compute_time


@given(spmd_programs(), st.integers(2, 5), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_measured_mode_reproducible_and_bounded(phases, nprocs, seed):
    de = Simulator(nprocs, program_for(phases), IBM_SP, mode=ExecMode.DE).run()
    m1 = Simulator(nprocs, program_for(phases), IBM_SP, mode=ExecMode.MEASURED, seed=seed).run()
    m2 = Simulator(nprocs, program_for(phases), IBM_SP, mode=ExecMode.MEASURED, seed=seed).run()
    assert m1.elapsed == m2.elapsed
    if de.elapsed > 0:
        # perturbations are gentle: within a factor of 2 of nominal
        assert 0.5 < m1.elapsed / de.elapsed < 2.0


@given(spmd_programs(), st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_trace_dependencies_are_acyclic_and_complete(phases, nprocs):
    res = Simulator(nprocs, program_for(phases), M, mode=ExecMode.DE, collect_trace=True).run()
    # program order plus message dependencies; static_order() raises
    # CycleError on a cycle
    preds = {ev.eid: set(ev.deps) for ev in res.trace.events}
    for events in res.trace.by_proc():
        for a, b in zip(events, events[1:]):
            preds[b.eid].add(a.eid)
    assert len(list(TopologicalSorter(preds).static_order())) == len(res.trace.events)
    recv_events = [e for e in res.trace.events if e.kind == "recv"]
    assert all(e.deps for e in recv_events)  # every receive knows its sender


@given(spmd_programs(), st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_host_model_wall_bounded_by_busy(phases, nprocs):
    from repro.parallel import simulate_host_execution

    res = Simulator(nprocs, program_for(phases), M, mode=ExecMode.DE, collect_trace=True).run()
    for h in (1, 2, nprocs):
        est = simulate_host_execution(res.trace, h, M)
        # wall time can never beat perfect division of the busy work
        assert est.wall_time + 1e-15 >= est.busy_time / est.n_hosts
        if est.n_hosts == 1:
            assert est.wall_time == pytest.approx(est.busy_time)
