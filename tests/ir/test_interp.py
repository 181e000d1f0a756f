"""Integration tests: IR interpreter running on the simulation kernel.

Every run names ``backend="interpreted"``: the interpreter is the
reference the compiled kernel is held to, and the default compiles
whatever lowers.  The two error tests also hold the kernel to the
interpreter's message.
"""

from dataclasses import replace

import pytest

from repro.ir import (
    BranchProfile,
    InterpreterError,
    MeasurementCollector,
    ProgramBuilder,
    P,
    myid,
    make_factory,
)
from repro.ir.nodes import DelayStmt, ReadParams, StartTimer, StopTimer
from repro.machine import TESTING_MACHINE
from repro.sim import ExecMode, Simulator
from repro.symbolic import Gt, Lt, Var, ceil_div

N = Var("N")
M = TESTING_MACHINE


def run(prog, nprocs, inputs, mode=ExecMode.DE, backend="interpreted", **kw):
    factory = make_factory(prog, inputs, **kw)
    return Simulator(nprocs, factory, M, mode=mode, backend=backend).run()


def build_shift():
    """Paper Fig. 1(a): shift communication + computational loop nest."""
    b = ProgramBuilder("shift", params=("N",))
    b.array("A", size=N * ceil_div(N, P))
    b.array("D", size=N * ceil_div(N, P))
    b.assign("b", ceil_div(N, P))
    with b.if_(Gt(myid, 0)):
        b.send(dest=myid - 1, nbytes=(N - 2) * 8, array="D")
    with b.if_(Lt(myid, P - 1)):
        b.recv(source=myid + 1, nbytes=(N - 2) * 8, array="D")
    from repro.symbolic import Max, Min

    bvar = Var("b")
    work = (N - 2) * (Min.make(N, myid * bvar + bvar) - Max.make(2, myid * bvar + 1))
    b.compute("loop_nest", work=work, ops_per_iter=2, arrays=("A", "D"))
    return b.build()


class TestShiftExample:
    def test_runs_to_completion(self):
        res = run(build_shift(), 4, {"N": 100})
        assert res.elapsed > 0

    def test_message_pattern(self):
        res = run(build_shift(), 4, {"N": 100})
        # ranks 1..3 send, ranks 0..2 receive
        sent = [p.messages_sent for p in res.stats.procs]
        recvd = [p.messages_received for p in res.stats.procs]
        assert sent == [0, 1, 1, 1]
        assert recvd == [1, 1, 1, 0]

    def test_message_sizes(self):
        res = run(build_shift(), 4, {"N": 100})
        assert res.stats.total_bytes == 3 * (100 - 2) * 8

    def test_memory_accounting(self):
        res = run(build_shift(), 4, {"N": 100})
        per_rank = 2 * 100 * 25 * 8  # A and D: N * ceil(N/P) doubles
        assert res.memory.app_bytes == 4 * per_rank

    def test_compute_time_matches_model(self):
        res = run(build_shift(), 4, {"N": 100})
        # rank 3 computes (N-2) * (min(N, 4*25) - max(2, 76)) * 2 ops
        work = 98 * (100 - 76) * 2
        ws = 2 * 100 * 25 * 8
        from repro.machine import CpuModel

        expected = CpuModel(M.cpu).task_time(work, ws)
        assert res.stats.procs[3].compute_time == pytest.approx(expected)

    def test_single_process_no_comm(self):
        res = run(build_shift(), 1, {"N": 50})
        assert res.stats.total_messages == 0


class TestControlFlow:
    def test_loop_iterates(self):
        b = ProgramBuilder("loop", params=("K",))
        with b.loop("i", 1, Var("K")):
            b.compute("body", work=10)
        res = run(b.build(), 1, {"K": 5})
        assert res.stats.procs[0].compute_time == pytest.approx(5 * 10 * M.cpu.time_per_op)

    def test_empty_loop_body_never_runs(self):
        b = ProgramBuilder("loop", params=("K",))
        with b.loop("i", 5, Var("K")):
            b.compute("body", work=10)
        res = run(b.build(), 1, {"K": 2})
        assert res.stats.procs[0].compute_time == 0.0

    def test_loop_var_usable_in_body(self):
        b = ProgramBuilder("loop", params=("K",))
        with b.loop("i", 1, Var("K")):
            b.compute("body", work=Var("i"))
        res = run(b.build(), 1, {"K": 4})
        assert res.stats.procs[0].compute_time == pytest.approx((1 + 2 + 3 + 4) * M.cpu.time_per_op)

    def test_branch_profile_recorded(self):
        b = ProgramBuilder("br", params=("K",))
        with b.loop("i", 1, Var("K")):
            with b.if_(Gt(Var("i"), 7)):
                b.compute("big", work=100)
        prog = b.build()
        profile = BranchProfile()
        run(prog, 1, {"K": 10}, profile=profile)
        branch = prog.body[0].body[0]
        assert profile.probability(branch.sid) == pytest.approx(0.3)

    def test_profile_default_when_unobserved(self):
        assert BranchProfile().probability(42) == 0.5
        assert BranchProfile().probability(42, default=0.9) == 0.9

    def test_kernel_writes_drive_branches(self):
        """A CompBlock kernel sets a scalar that controls a branch."""

        def kern(env, arrays):
            env["flag"] = 1 if env["myid"] == 0 else 0

        b = ProgramBuilder("k")
        b.compute("detect", work=10, writes={"flag"}, kernel=kern)
        with b.if_(Gt(Var("flag"), 0)):
            b.compute("extra", work=1000)
        res = run(b.build(), 2, {})
        assert res.stats.procs[0].compute_time > res.stats.procs[1].compute_time


class TestCollectivesAndReductions:
    def test_allreduce_result_var(self):
        b = ProgramBuilder("red")
        b.assign("local", myid + 1)
        b.allreduce(nbytes=8, contrib=Var("local"), result_var="total")
        b.compute("post", work=Var("total"))
        res = run(b.build(), 4, {})
        # total = 1+2+3+4 = 10 on every rank
        assert all(
            p.compute_time == pytest.approx(10 * M.cpu.time_per_op) for p in res.stats.procs
        )

    def test_max_reduce(self):
        b = ProgramBuilder("red")
        b.assign("local", myid * 10)
        b.allreduce(nbytes=8, contrib=Var("local"), result_var="m", reduce_kind="max")
        b.compute("post", work=Var("m") + 1)
        res = run(b.build(), 3, {})
        assert res.stats.procs[0].compute_time == pytest.approx(21 * M.cpu.time_per_op)

    def test_barrier(self):
        b = ProgramBuilder("bar")
        b.compute("skew", work=myid * 1000)
        b.barrier()
        res = run(b.build(), 4, {})
        finishes = [p.finish_time for p in res.stats.procs]
        assert max(finishes) == pytest.approx(min(finishes))


class TestGeneratedStatements:
    def test_delay_stmt(self):
        prog = replace(ProgramBuilder("d").build(), body=(
            ReadParams(("w_t",)), DelayStmt(Var("w_t") * 100, task="t"),
        ))
        res = run(prog, 2, {}, wparams={"w_t": 0.01})
        assert all(p.compute_time == pytest.approx(1.0) for p in res.stats.procs)

    def test_read_params_missing_raises(self):
        prog = replace(ProgramBuilder("d").build(), body=(ReadParams(("w_t",)),))
        for backend in ("interpreted", "compiled"):
            with pytest.raises(InterpreterError, match="parameter file lacks"):
                run(prog, 1, {}, wparams={}, backend=backend)

    def test_negative_delay_clamped(self):
        prog = replace(ProgramBuilder("d").build(), body=(
            ReadParams(("w_t",)), DelayStmt(Var("w_t") * -5, task="t"),
        ))
        res = run(prog, 1, {}, wparams={"w_t": 1.0})
        assert res.stats.procs[0].compute_time == 0.0

    def test_timers_measure_task(self):
        b = ProgramBuilder("t")
        b.compute("task1", work=1000)
        prog = b.build()
        prog = replace(prog, body=(StartTimer("task1"), *prog.body, StopTimer("task1")))
        coll = MeasurementCollector()
        run(prog, 1, {}, collector=coll, mode=ExecMode.MEASURED)
        assert coll.samples("task1") == 1
        # w ~= time per work unit
        assert coll.w("task1") == pytest.approx(M.cpu.time_per_op, rel=0.01)

    def test_stop_without_start_raises(self):
        prog = replace(ProgramBuilder("t").build(), body=(StopTimer("x"),))
        for backend in ("interpreted", "compiled"):
            with pytest.raises(InterpreterError, match="without timer_start"):
                run(prog, 1, {}, backend=backend)


class TestErrors:
    def test_missing_input_rejected(self):
        with pytest.raises(InterpreterError, match="missing input"):
            make_factory(build_shift(), {})

    def test_collector_params(self):
        coll = MeasurementCollector()
        coll.record_work("t", 100)
        coll.record_elapsed("t", 0.5)
        assert coll.params() == {"w_t": pytest.approx(0.005)}

    def test_collector_no_work_raises(self):
        coll = MeasurementCollector()
        coll.record_elapsed("t", 0.5)
        with pytest.raises(InterpreterError, match="no work"):
            coll.w("t")

    def test_array_assign_kernel(self):
        got = {}

        def kern(env, arrays):
            arrays["cs"][:] = env["N"] // env["P"]
            got["ok"] = True

        b = ProgramBuilder("aa", params=("N",))
        b.array("cs", size=4, itemsize=8, materialize=True)
        # the kernel sees only its declared reads, as a comp block's does
        b.array_assign("cs", kern, reads={"N", "P"}, work=4)
        from repro.symbolic import Index

        b.compute("use", work=Index.make("cs", 0) * 10)
        res = run(b.build(), 2, {"N": 80})
        assert got["ok"]
        # cs[0] = 40 -> use does 400 ops; the ArrayAssign itself costs 4 ops
        assert res.stats.procs[0].compute_time == pytest.approx(404 * M.cpu.time_per_op)
