"""Integration tests: the full compiler pipeline on the paper's example.

Reproduces Fig. 1 end-to-end: the original MPI shift program (a) is
compiled to the simplified program (c) — retained scalar code, the
dummy communication buffer, delay calls with compiler-derived scaling
functions, and a read-and-broadcast of the measured parameters.
"""

import pytest

from repro.codegen import DUMMY_BUF, compile_program, generate_instrumented
from repro.ir import (
    AllocStmt,
    Assign,
    CompBlock,
    DelayStmt,
    MeasurementCollector,
    ProgramBuilder,
    ReadParams,
    RecvStmt,
    SendStmt,
    StartTimer,
    StopTimer,
    make_factory,
    myid,
    P,
    walk,
)
from repro.machine import TESTING_MACHINE
from repro.sim import ExecMode, Simulator
from repro.symbolic import Gt, Lt, Max, Min, Var, ceil_div

N = Var("N")
M = TESTING_MACHINE


def fig1_program():
    """Fig. 1(a): shift communication then a computational loop nest."""
    b = ProgramBuilder("fig1", params=("N",))
    b.array("A", size=N * ceil_div(N, P))
    b.array("D", size=N * ceil_div(N, P))
    b.assign("b", ceil_div(N, P))
    with b.if_(Gt(myid, 0)):
        b.send(dest=myid - 1, nbytes=(N - 2) * 8, array="D")
    with b.if_(Lt(myid, P - 1)):
        b.recv(source=myid + 1, nbytes=(N - 2) * 8, array="D")
    bvar = Var("b")
    work = (N - 2) * (Min.make(N, myid * bvar + bvar) - Max.make(2, myid * bvar + 1))
    b.compute("loop_nest", work=work, ops_per_iter=2, arrays=("A", "D"))
    return b.build()


@pytest.fixture(scope="module")
def compiled():
    return compile_program(fig1_program())


class TestSlicing:
    def test_criterion_contains_structure_vars(self, compiled):
        # dest/nbytes/cond/scaling variables: N and b (myid/P are builtin)
        assert "N" in compiled.slice.criterion
        assert "b" in compiled.slice.criterion

    def test_block_size_assign_retained(self, compiled):
        assigns = [s for s in compiled.original.statements() if isinstance(s, Assign)]
        assert len(assigns) == 1
        assert compiled.slice.keeps(assigns[0])

    def test_no_pinned_blocks(self, compiled):
        assert compiled.slice.pinned_blocks == frozenset()


class TestSimplifiedStructure:
    def test_starts_with_read_params(self, compiled):
        first = compiled.simplified.body[0]
        assert isinstance(first, ReadParams)
        assert first.names == ("w_loop_nest",)

    def test_assign_retained_executable(self, compiled):
        kinds = [type(s).__name__ for s in compiled.simplified.body]
        assert "Assign" in kinds

    def test_dummy_buffer_allocated_before_comm(self, compiled):
        body = compiled.simplified.body
        alloc_pos = next(i for i, s in enumerate(body) if isinstance(s, AllocStmt))
        comm_pos = next(
            i
            for i, s in enumerate(body)
            if any(x.is_comm() for x in walk([s])) and not isinstance(s, ReadParams)
        )
        assert alloc_pos < comm_pos
        assert body[alloc_pos].name == DUMMY_BUF

    def test_comm_buffers_redirected_to_dummy(self, compiled):
        sends = [s for s in compiled.simplified.statements() if isinstance(s, SendStmt)]
        recvs = [s for s in compiled.simplified.statements() if isinstance(s, RecvStmt)]
        assert all(s.array == DUMMY_BUF for s in sends)
        assert all(r.array == DUMMY_BUF for r in recvs)

    def test_compute_replaced_by_delay(self, compiled):
        stmts = list(compiled.simplified.statements())
        assert not any(isinstance(s, CompBlock) for s in stmts)
        delays = [s for s in stmts if isinstance(s, DelayStmt)]
        assert len(delays) == 1
        # Fig. 1(c): delay((N-2) * (min(...) - max(...)) * w_1)
        amount = delays[0].amount
        assert {"N", "b", "myid", "w_loop_nest"} <= amount.free_vars()

    def test_all_data_arrays_eliminated(self, compiled):
        assert compiled.simplified.arrays == {}

    def test_original_program_untouched(self, compiled):
        # codegen must not mutate the source program
        prog = compiled.original
        assert [type(s).__name__ for s in prog.body] == ["Assign", "If", "If", "CompBlock"]
        assert set(prog.arrays) == {"A", "D"}


class TestInstrumentedStructure:
    def test_timers_wrap_blocks(self, compiled):
        stmts = list(generate_instrumented(compiled.original).statements())
        starts = [s for s in stmts if isinstance(s, StartTimer)]
        stops = [s for s in stmts if isinstance(s, StopTimer)]
        assert len(starts) == len(stops) == 1
        assert starts[0].task == stops[0].task == "loop_nest"

    def test_arrays_preserved(self, compiled):
        assert set(generate_instrumented(compiled.original).arrays) == {"A", "D"}


class TestEndToEnd:
    """Run the Fig. 2 workflow on the testing machine and compare AM vs DE."""

    def _measure(self, compiled, inputs, nprocs):
        coll = MeasurementCollector()
        factory = make_factory(generate_instrumented(compiled.original), inputs,
                               collector=coll)
        Simulator(nprocs, factory, M, mode=ExecMode.MEASURED).run()
        return coll.params()

    @staticmethod
    def _bcast_cost(nparams, nprocs):
        """Startup cost of the simplified program's read_and_broadcast."""
        from repro.machine import NetworkModel

        return NetworkModel(M.net).collective_time("bcast", 8 * nparams, nprocs)

    def test_am_matches_de_on_noise_free_machine(self, compiled):
        """With exact w_i and no cache/noise effects, AM == DE exactly
        (modulo the parameter broadcast at startup)."""
        inputs = {"N": 64}
        nprocs = 4
        w = self._measure(compiled, inputs, nprocs)
        de = Simulator(
            nprocs, make_factory(compiled.original, inputs), M, mode=ExecMode.DE
        ).run()
        am = Simulator(
            nprocs, make_factory(compiled.simplified, inputs, wparams=w), M, mode=ExecMode.DE
        ).run()
        expected = de.elapsed + self._bcast_cost(len(w), nprocs)
        assert am.elapsed == pytest.approx(expected, rel=0.02)

    def test_am_memory_far_below_de(self, compiled):
        inputs = {"N": 256}
        nprocs = 4
        w = self._measure(compiled, inputs, nprocs)
        de = Simulator(
            nprocs, make_factory(compiled.original, inputs), M, mode=ExecMode.DE
        ).run()
        am = Simulator(
            nprocs, make_factory(compiled.simplified, inputs, wparams=w), M, mode=ExecMode.DE
        ).run()
        assert am.memory.app_bytes < de.memory.app_bytes / 50

    def test_am_scales_from_calibration_config(self, compiled):
        """Calibrate w_i at N=64/P=4, predict N=128/P=8 (the paper's
        measure-once-extrapolate methodology)."""
        w = self._measure(compiled, {"N": 64}, 4)
        de = Simulator(
            8, make_factory(compiled.original, {"N": 128}), M, mode=ExecMode.DE
        ).run()
        am = Simulator(
            8, make_factory(compiled.simplified, {"N": 128}, wparams=w), M, mode=ExecMode.DE
        ).run()
        expected = de.elapsed + self._bcast_cost(len(w), 8)
        assert am.elapsed == pytest.approx(expected, rel=0.05)

    def test_message_traffic_identical(self, compiled):
        inputs = {"N": 64}
        w = self._measure(compiled, inputs, 4)
        de = Simulator(4, make_factory(compiled.original, inputs), M).run()
        am = Simulator(4, make_factory(compiled.simplified, inputs, wparams=w), M).run()
        # AM adds only the one parameter broadcast; point-to-point matches
        assert am.stats.total_messages == de.stats.total_messages
        assert am.stats.total_bytes == de.stats.total_bytes


class TestPinnedBlockFlow:
    def test_block_output_feeding_comm_gets_pinned(self):
        """A task computing a communication argument cannot be abstracted."""

        def kern(env, arrays):
            env["target"] = (env["myid"] + 1) % env["P"]

        b = ProgramBuilder("pin", params=("N",))
        b.array("big", size=N * N)
        b.compute("route", work=N, writes={"target"}, kernel=kern, arrays=("big",))
        b.send(dest=Var("target"), nbytes=8)
        b.recv(source=(myid - 1 + P) % P, nbytes=8)
        prog = b.build()
        comp = compile_program(prog)
        route = prog.comp_blocks()[0]
        assert route.sid in comp.slice.pinned_blocks
        # the pinned block stays a CompBlock in the simplified program
        blocks = [s for s in comp.simplified.statements() if isinstance(s, CompBlock)]
        assert [bk.name for bk in blocks] == ["route"]
        # and its array must be kept
        assert "big" in comp.simplified.arrays

    def test_pinned_program_still_runs(self):
        def kern(env, arrays):
            env["target"] = (env["myid"] + 1) % env["P"]

        b = ProgramBuilder("pin", params=("N",))
        b.compute("route", work=N, writes={"target"}, kernel=kern)
        b.send(dest=Var("target"), nbytes=8)
        b.recv(source=(myid - 1 + P) % P, nbytes=8)
        comp = compile_program(b.build())
        res = Simulator(
            4, make_factory(comp.simplified, {"N": 10}, wparams={}), M
        ).run()
        assert res.stats.total_messages == 4

    def test_summary_smoke(self):
        comp = compile_program(fig1_program())
        text = comp.summary()
        assert "condensed region" in text and "arrays eliminated" in text
