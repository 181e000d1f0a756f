"""MPI message matching semantics, driven through the simulator.

Each case is a small raw-generator program: what a receive gets, or what
the deadlock report says is left unmatched, shows which message matched
which receive.
"""

import pytest

from repro import mpi
from repro.machine import TESTING_MACHINE
from repro.sim import DeadlockError, ExecMode, Simulator, TimedOut
from repro.sim.requests import ANY_SOURCE, ANY_TAG

BIG = TESTING_MACHINE.net.eager_limit * 2  # rendezvous-sized payload


def run(nprocs, prog):
    """Run *prog*; returns what rank 0 received, in order."""
    got = []

    def factory(rank, size):
        return prog(rank, got)

    Simulator(nprocs, factory, TESTING_MACHINE, mode=ExecMode.DE).run()
    return got


def deadlock(nprocs, prog):
    with pytest.raises(DeadlockError) as exc_info:
        run(nprocs, prog)
    return exc_info.value


def envelope(m):
    return (m.source, m.tag, m.data)


class TestExactMatching:
    def test_message_then_recv(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.send(dest=0, nbytes=8, tag=5, data="x")
            else:
                yield mpi.delay(1.0)
                got.append(envelope((yield mpi.recv(source=1, tag=5))))

        assert run(2, prog) == [(1, 5, "x")]  # and nothing is left queued

    def test_recv_then_message(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.delay(1.0)
                yield mpi.send(dest=0, nbytes=8, tag=5, data="x")
            else:
                got.append(envelope((yield mpi.recv(source=1, tag=5))))

        assert run(2, prog) == [(1, 5, "x")]

    def test_wrong_tag_does_not_match(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.send(dest=0, nbytes=8, tag=6)
            else:
                yield mpi.recv(source=1, tag=5)

        report = deadlock(2, prog).report
        assert [r[:3] for r in report.unmatched_recvs] == [(0, 1, 5)]
        assert [s[:3] for s in report.unmatched_sends] == [(1, 0, 6)]

    def test_wrong_source_does_not_match(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.send(dest=0, nbytes=8, tag=5)
            elif rank == 0:
                yield mpi.recv(source=2, tag=5)

        report = deadlock(3, prog).report
        assert [r[:3] for r in report.unmatched_recvs] == [(0, 2, 5)]
        assert [s[:3] for s in report.unmatched_sends] == [(1, 0, 5)]


class TestOrdering:
    def test_same_source_tag_matches_in_send_order(self):
        def prog(rank, got):
            if rank == 1:
                for data in ("first", "second", "third"):
                    yield mpi.send(dest=0, nbytes=8, tag=0, data=data)
            else:
                yield mpi.delay(1.0)
                for _ in range(3):
                    got.append((yield mpi.recv(source=1, tag=0)).data)

        assert run(2, prog) == ["first", "second", "third"]

    def test_posted_recvs_match_in_post_order(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.delay(1.0)
                yield mpi.send(dest=0, nbytes=8, tag=0, data="a")
                yield mpi.send(dest=0, nbytes=8, tag=0, data="b")
            else:
                h1 = yield mpi.irecv(source=1, tag=0)
                h2 = yield mpi.irecv(source=1, tag=0)
                got.extend(m.data for m in (yield mpi.waitall(h2, h1)))

        assert run(2, prog) == ["b", "a"]  # h1 posted first, so it got "a"


class TestWildcards:
    def test_any_source(self):
        def prog(rank, got):
            if rank == 2:
                yield mpi.send(dest=0, nbytes=8, tag=3, data="x")
            elif rank == 0:
                yield mpi.delay(1.0)
                got.append(envelope((yield mpi.recv(source=ANY_SOURCE, tag=3))))

        assert run(3, prog) == [(2, 3, "x")]

    def test_any_tag(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.send(dest=0, nbytes=8, tag=3, data="x")
            else:
                yield mpi.delay(1.0)
                got.append(envelope((yield mpi.recv(source=1, tag=ANY_TAG))))

        assert run(2, prog) == [(1, 3, "x")]

    def test_any_any_picks_earliest_seq(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.delay(0.5)
                yield mpi.send(dest=0, nbytes=8, tag=1, data="later")
            elif rank == 2:
                yield mpi.send(dest=0, nbytes=8, tag=2, data="earlier")
            else:
                yield mpi.delay(1.0)
                for _ in range(2):
                    got.append(envelope((yield mpi.recv(source=ANY_SOURCE, tag=ANY_TAG))))

        assert run(3, prog) == [(2, 2, "earlier"), (1, 1, "later")]

    def test_wildcard_recv_matched_by_arriving_message(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.delay(1.0)
                yield mpi.send(dest=0, nbytes=8, tag=9, data="x")
            else:
                got.append(envelope((yield mpi.recv(source=ANY_SOURCE, tag=ANY_TAG))))

        assert run(2, prog) == [(1, 9, "x")]


class TestCancel:
    def test_timed_out_recv_is_withdrawn(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.delay(1.0)
                yield mpi.send(dest=0, nbytes=8, data="x")
            else:
                got.append((yield mpi.recv(source=1, timeout=0.5)))
                got.append((yield mpi.recv(source=1)).data)

        first, second = run(2, prog)
        assert isinstance(first, TimedOut) and first.now == 0.5
        assert second == "x"  # the withdrawn receive did not swallow it

    def test_timed_out_send_is_withdrawn(self):
        def prog(rank, got):
            if rank == 1:
                got.append((yield mpi.send(dest=0, nbytes=BIG, data="dropped", timeout=0.5)))
                yield mpi.send(dest=0, nbytes=8, data="kept")
            else:
                yield mpi.delay(1.0)
                got.append((yield mpi.recv(source=1)).data)

        timed_out, data = run(2, prog)
        assert isinstance(timed_out, TimedOut) and timed_out.op == "send"
        assert data == "kept"


class TestIdle:
    def test_fresh_queue_idle(self):
        def prog(rank, got):
            yield mpi.compute(ops=10)

        assert run(2, prog) == []  # no unconsumed-message error

    def test_pending_message_not_idle(self):
        def prog(rank, got):
            if rank == 1:
                yield mpi.send(dest=0, nbytes=8)

        assert str(deadlock(2, prog)) == "unconsumed messages at ranks [0]"

    def test_pending_recv_not_idle(self):
        def prog(rank, got):
            if rank == 0:
                yield mpi.recv(source=1, tag=0)

        report = deadlock(2, prog).report
        assert report.blocked_ranks == (0,)
        assert report.unmatched_recvs == ((0, 1, 0, 0.0),)
