"""Deadlock surfacing and teardown across both backends.

Regression pinned here: when a deadlock is detected, the loop closes
every still-suspended rank driver — and a generator that *raises* inside
``close()`` (a ``finally:`` block blowing up on ``GeneratorExit``) must
not mask the original :class:`DeadlockError`.  Both drivers feed one
diagnosis, so the report and the flight dump are byte-identical.
"""

import json


import pytest

from repro import mpi
from repro.ir import make_factory
from repro.ir.builder import P, ProgramBuilder, myid
from repro.kernel import clear_cache
from repro.machine import TESTING_MACHINE
from repro.sim import DeadlockError, ExecMode, Simulator
from repro.sim.flightrec import FLIGHT

M = TESTING_MACHINE


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def all_recv_factory():
    """Every rank posts a receive nobody ever sends: guaranteed deadlock."""
    b = ProgramBuilder("deadlock_recv")
    b.recv(source=(myid + 1) % P, nbytes=8, tag=0)
    return make_factory(b.build(), {})


class TestRaisingClose:
    def test_interpreted_deadlock_not_masked_by_close(self):
        closed = []

        def prog(rank, size):
            try:
                yield mpi.recv(source=(rank + 1) % size, tag=0)
            finally:
                closed.append(rank)
                raise RuntimeError("boom in close()")

        with pytest.raises(DeadlockError) as exc_info:
            Simulator(4, prog, M, mode=ExecMode.DE).run()
        # teardown really entered every blocked rank's finally block,
        # and the RuntimeError raised there did not replace the report
        assert sorted(closed) == [0, 1, 2, 3]
        assert exc_info.value.report is not None

    def test_compiled_deadlock_not_masked_by_close(self):
        # a traced run compiles too: teardown closes the traced
        # variant's drivers
        sim = Simulator(
            4, all_recv_factory(), M, mode=ExecMode.DE,
            backend="compiled", collect_trace=True,
        )
        assert sim.backend == "compiled"
        assert sim.backend_fallback_reason is None
        with pytest.raises(DeadlockError) as exc_info:
            sim.run()
        assert exc_info.value.report is not None

    def test_compiled_fast_path_deadlock(self):
        # teardown of the compiled drivers
        with pytest.raises(DeadlockError) as exc_info:
            Simulator(
                4, all_recv_factory(), M, mode=ExecMode.DE, backend="compiled"
            ).run()
        assert exc_info.value.report is not None


class TestReportParity:
    def test_report_identical_across_backends(self):
        errors = {}
        for flight in (False, True):
            for backend in ("interpreted", "compiled"):
                if flight:
                    FLIGHT.enable()
                try:
                    with pytest.raises(DeadlockError) as exc_info:
                        Simulator(4, all_recv_factory(), M, mode=ExecMode.DE,
                                  backend=backend).run()
                finally:
                    FLIGHT.disable()
                    FLIGHT.reset()
                errors[flight, backend] = exc_info.value
                assert (exc_info.value.flight is not None) == flight
        assert len({str(exc) for exc in errors.values()}) == 1
        # the armed recorder's dump is byte-identical across the loops too
        dumps = [json.dumps(errors[True, b].flight, sort_keys=True)
                 for b in ("interpreted", "compiled")]
        assert dumps[0] == dumps[1]

    def test_mismatched_nonblocking_deadlock(self):
        b = ProgramBuilder("deadlock_wait")
        b.irecv(source=(myid + 1) % P, nbytes=8, tag=7, handle="h")
        b.waitall("h")
        factory = make_factory(b.build(), {})
        with pytest.raises(DeadlockError) as interp:
            Simulator(3, factory, M, mode=ExecMode.DE, backend="interpreted").run()
        with pytest.raises(DeadlockError) as compiled:
            Simulator(3, factory, M, mode=ExecMode.DE, backend="compiled").run()
        assert str(interp.value) == str(compiled.value)
