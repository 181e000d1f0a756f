"""The program order and collective grouping a trace gives its analyses.

The critical path (:mod:`repro.obs.critical_path`) and the host replay
(:mod:`repro.parallel.hostmodel`) both read them from the trace.
"""

from repro import mpi
from repro.machine import TESTING_MACHINE
from repro.sim import ExecMode, Simulator


def traced(nprocs, prog):
    return Simulator(nprocs, prog, TESTING_MACHINE, mode=ExecMode.DE,
                     collect_trace=True).run().trace


def test_program_predecessors_follow_completion_order():
    def prog(rank, size):
        yield mpi.compute(ops=10)
        yield mpi.compute(ops=20)

    assert traced(1, prog).program_predecessors() == {0: None, 1: 0}


def test_nonblocking_completion_is_never_a_predecessor():
    def prog(rank, size):
        h = yield mpi.isend(dest=(rank + 1) % size, nbytes=256)
        g = yield mpi.irecv(source=(rank - 1) % size)
        yield mpi.compute(ops=5000)
        yield mpi.waitall(h, g)

    trace = traced(3, prog)
    pred = trace.program_predecessors()
    assert set(pred) == {ev.eid for ev in trace.events}
    assert any(ev.nonblocking for ev in trace.events)
    for eid, p in pred.items():
        if p is not None:
            before, ev = trace.events[p], trace.events[eid]
            assert not before.nonblocking
            assert before.proc == ev.proc
            assert (before.end, before.eid) < (ev.end, ev.eid)


def test_collectives_group_members():
    def prog(rank, size):
        yield mpi.compute(ops=(rank + 1) * 100)
        yield mpi.barrier()

    trace = traced(3, prog)
    (members,) = trace.collectives().values()
    assert [ev.proc for ev in sorted(members, key=lambda e: e.proc)] == [0, 1, 2]
    assert all(ev.kind == "collective" for ev in members)
    assert [ev.eid for ev in members] == sorted(ev.eid for ev in members)
