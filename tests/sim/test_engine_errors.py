"""Error-path tests for the simulation kernel (defensive behaviour)."""

from dataclasses import replace

import pytest

from repro import mpi
from repro.machine import TESTING_MACHINE
from repro.sim import (
    CollectiveMismatchError,
    ExecMode,
    Simulator,
)

M = TESTING_MACHINE


def run(nprocs, factory, **kw):
    return Simulator(nprocs, factory, M, mode=ExecMode.DE, **kw).run()


class TestBadRequests:
    def test_unknown_request_type(self):
        def prog(rank, size):
            yield "not-a-request"

        with pytest.raises(TypeError, match="unknown request"):
            run(1, prog)

    def test_negative_compute_rejected_at_construction(self):
        with pytest.raises(ValueError):
            mpi.compute(ops=-1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            mpi.delay(-0.5)

    def test_negative_send_size_rejected(self):
        with pytest.raises(ValueError):
            mpi.send(dest=0, nbytes=-1)

    def test_negative_dest_rejected(self):
        with pytest.raises(ValueError):
            mpi.send(dest=-2, nbytes=8)

    def test_negative_collective_payload(self):
        with pytest.raises(ValueError):
            mpi.bcast(nbytes=-1)

    def test_negative_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            mpi.recv(source=-7)

    def test_negative_collective_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            mpi.bcast(nbytes=8, root=-1)

    def test_non_finite_compute_rejected(self):
        with pytest.raises(ValueError):
            mpi.compute(ops=float("nan"))
        with pytest.raises(ValueError):
            mpi.compute(ops=float("inf"))

    def test_non_finite_delay_rejected(self):
        with pytest.raises(ValueError):
            mpi.delay(float("inf"))

    def test_non_finite_send_size_rejected(self):
        with pytest.raises(ValueError):
            mpi.send(dest=0, nbytes=float("nan"))

    def test_send_to_rank_beyond_world(self):
        def prog(rank, size):
            yield mpi.send(dest=5, nbytes=8)

        with pytest.raises(ValueError, match="nonexistent rank 5"):
            run(2, prog)

    def test_recv_from_rank_beyond_world(self):
        def prog(rank, size):
            yield mpi.recv(source=9)

        with pytest.raises(ValueError, match="nonexistent rank 9"):
            run(2, prog)

    def test_collective_root_beyond_world(self):
        def prog(rank, size):
            yield mpi.bcast(nbytes=8, root=7)

        with pytest.raises(ValueError, match="root 7"):
            run(2, prog)


class TestCollectiveMisuse:
    def test_root_mismatch(self):
        def prog(rank, size):
            yield mpi.bcast(nbytes=8, root=rank)  # different roots

        with pytest.raises(CollectiveMismatchError, match="root"):
            run(2, prog)

    def test_scatter_chunk_count_checked(self):
        def prog(rank, size):
            payload = ["a", "b"] if rank == 0 else None  # 2 chunks for 3 ranks
            yield mpi.scatter(nbytes=8, data=payload)

        with pytest.raises(CollectiveMismatchError, match="chunks"):
            run(3, prog)

    def test_reduce_with_data_needs_fn(self):
        def prog(rank, size):
            yield mpi.allreduce(nbytes=8, data=rank)  # no reduce_fn

        with pytest.raises(CollectiveMismatchError, match="reduce_fn"):
            run(2, prog)

    def test_op_mismatch(self):
        def prog(rank, size):
            if rank == 0:
                yield mpi.bcast(nbytes=8)
            else:
                yield mpi.barrier()

        with pytest.raises(CollectiveMismatchError, match="others called"):
            run(2, prog)

    def test_uneven_call_counts_deadlock(self):
        def prog(rank, size):
            yield mpi.allreduce(nbytes=8)
            if rank == 0:
                yield mpi.allreduce(nbytes=8)  # nobody else joins

        from repro.sim import DeadlockError

        with pytest.raises(DeadlockError):
            run(2, prog)


class TestDeadlockDiagnosis:
    """Regression coverage for the deadlock watchdog (legacy + report)."""

    def test_lone_recv_names_rank_and_state(self):
        def prog(rank, size):
            if rank == 0:
                yield mpi.recv(source=1)

        from repro.sim import DeadlockError

        with pytest.raises(DeadlockError, match="rank 0") as ei:
            run(2, prog)
        report = ei.value.report
        assert report is not None
        assert report.blocked_ranks == (0,)
        assert report.blocked[0].state == "recv"
        assert report.unmatched_recvs[0][:2] == (0, 1)

    def test_collective_straggler_reported(self):
        def prog(rank, size):
            if rank != 2:
                yield mpi.barrier()

        from repro.sim import DeadlockError

        with pytest.raises(DeadlockError) as ei:
            run(3, prog)
        report = ei.value.report
        (straggler,) = report.stragglers
        op, _root, _members, arrived, missing = straggler
        assert op == "barrier"
        assert missing == (2,)
        assert set(arrived) == {0, 1}
        assert "collective stragglers" in report.format()

    def test_unconsumed_messages_still_reported(self):
        def prog(rank, size):
            if rank == 0:
                yield mpi.send(dest=1, nbytes=8)

        from repro.sim import DeadlockError

        with pytest.raises(DeadlockError, match="unconsumed"):
            run(2, prog)


class TestMemoryMisuse:
    def test_double_allocation(self):
        def prog(rank, size):
            yield mpi.alloc("A", 10)
            yield mpi.alloc("A", 10)

        with pytest.raises(ValueError, match="already allocated"):
            run(1, prog)

    def test_free_unknown(self):
        def prog(rank, size):
            yield mpi.free("ghost")

        with pytest.raises(ValueError, match="not allocated"):
            run(1, prog)


class TestSelfMessaging:
    def test_eager_self_send(self):
        """A rank may message itself (the multipartition P=1 case)."""

        def prog(rank, size):
            yield mpi.send(dest=rank, nbytes=8, data="me")
            m = yield mpi.recv(source=rank)
            assert m.data == "me"

        res = run(2, prog)
        assert res.stats.total_messages == 2

    def test_rendezvous_self_roundtrip_nonblocking(self):
        big = M.net.eager_limit * 2

        def prog(rank, size):
            h1 = yield mpi.irecv(source=rank, tag=1)
            h2 = yield mpi.isend(dest=rank, nbytes=big, tag=1)
            yield mpi.waitall(h1, h2)

        res = run(1, prog)
        assert res.stats.total_messages == 1


class TestExceptionPropagation:
    def test_program_exception_surfaces(self):
        def prog(rank, size):
            yield mpi.compute(ops=1)
            raise RuntimeError("app bug on rank %d" % rank)

        with pytest.raises(RuntimeError, match="app bug"):
            run(2, prog)

    def test_interpreter_error_surfaces(self):
        from repro.ir import InterpreterError, ProgramBuilder, make_factory
        from repro.ir.nodes import StopTimer

        prog = replace(ProgramBuilder("bad").build(), body=(StopTimer("never_started"),))
        with pytest.raises(InterpreterError):
            run(1, make_factory(prog, {}), backend="interpreted")
