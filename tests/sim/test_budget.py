"""Tests for the engine's watchdog budgets (repro.sim.budget)."""

import pytest

from repro import mpi
from repro.ir import make_factory
from repro.ir.builder import P, ProgramBuilder, myid
from repro.machine import TESTING_MACHINE
from repro.sim import BudgetExceededError, BudgetGuard, ExecMode, SimStats, Simulator

M = TESTING_MACHINE


def ring(iters=20, nbytes=256):
    def prog(rank, size):
        right = (rank + 1) % size
        left = (rank - 1) % size
        for _ in range(iters):
            yield mpi.compute(ops=1000)
            yield mpi.send(dest=right, nbytes=nbytes)
            yield mpi.recv(source=left)

    return prog


def run(factory=None, nprocs=4, **kw):
    return Simulator(nprocs, factory or ring(), M, mode=ExecMode.DE, **kw).run()


class TestGuardValidation:
    @pytest.mark.parametrize("kw", [
        {"max_events": 0},
        {"max_events": -5},
        {"max_virtual_time": 0.0},
        {"max_virtual_time": float("inf")},
        {"max_wall_seconds": float("nan")},
        {"max_wall_seconds": -1.0},
    ])
    def test_bad_limits_rejected(self, kw):
        with pytest.raises(ValueError, match="finite and > 0"):
            Simulator(2, ring(), M, **kw)

    def test_inactive_guard_not_installed(self):
        sim = Simulator(2, ring(), M)
        assert sim._budget is None

    def test_guard_reports_first_violation(self):
        guard = BudgetGuard(max_events=2, max_virtual_time=10.0)
        guard.start()
        guard.events = 2
        assert guard.violation(0.6) is None
        guard.events = 3
        kind, limit, observed = guard.violation(0.7)
        assert kind == "events" and limit == 2.0 and observed == 3.0

    def test_violation_without_start_arms_wall_clock_lazily(self):
        # a direct caller that skips start() must not get a spurious
        # wall_time violation measured from the perf_counter epoch
        guard = BudgetGuard(max_wall_seconds=60.0)
        guard.events = 1
        assert guard.violation(0.0) is None
        assert guard._wall_start is not None  # armed at the first check


class TestEventsBudget:
    def test_fires_with_partial_stats(self):
        baseline = run()
        with pytest.raises(BudgetExceededError) as exc_info:
            run(max_events=20)
        err = exc_info.value
        assert err.kind == "events"
        assert err.observed > err.limit
        assert isinstance(err.stats, SimStats)
        # partial: some work happened, but less than the full run
        assert 0 < err.stats.total_events < baseline.stats.total_events

    def test_generous_budget_changes_nothing(self):
        baseline = run()
        bounded = run(max_events=10 * baseline.stats.total_events)
        assert bounded.elapsed == baseline.elapsed  # bit-identical
        assert bounded.stats.to_dict() == baseline.stats.to_dict()


class TestVirtualTimeBudget:
    def test_fires_with_partial_stats(self):
        baseline = run()
        with pytest.raises(BudgetExceededError) as exc_info:
            run(max_virtual_time=baseline.elapsed / 2)
        err = exc_info.value
        assert err.kind == "virtual_time"
        assert err.observed > err.limit
        assert err.stats is not None
        assert err.stats.total_events < baseline.stats.total_events

    def test_limit_past_the_end_never_fires(self):
        baseline = run()
        bounded = run(max_virtual_time=baseline.elapsed * 2)
        assert bounded.elapsed == baseline.elapsed


class TestWallTimeBudget:
    def test_fires_immediately_with_tiny_budget(self):
        b = ProgramBuilder("budget_ring")
        with b.loop("i", 1, 20):
            b.send(dest=(myid + 1) % P, nbytes=256, tag=0)
            b.recv(source=(myid - 1) % P, nbytes=256, tag=0)
        ir_ring = make_factory(b.build(), {})
        # the engine on a raw generator, the compiled loop on an IR program
        for factory, backend in ((ring(), "interpreted"), (ir_ring, "compiled")):
            with pytest.raises(BudgetExceededError) as exc_info:
                run(factory, max_wall_seconds=1e-9, backend=backend)
            err = exc_info.value
            assert err.kind == "wall_time"
            assert err.observed > err.limit
            assert isinstance(err.stats, SimStats)  # partial stats attached
            assert err.stats.total_events == 0, backend  # tripped on the first event

    def test_generous_wall_budget_passes(self):
        result = run(max_wall_seconds=300.0)
        assert result.elapsed > 0


class TestErrorShape:
    def test_message_names_the_axis(self):
        with pytest.raises(BudgetExceededError, match="events budget"):
            run(max_events=1)

    def test_partial_stats_counters_are_consistent(self):
        with pytest.raises(BudgetExceededError) as exc_info:
            run(max_events=30)
        stats = exc_info.value.stats
        assert stats.nprocs == 4
        assert stats.total_messages >= 0
        assert stats.total_events == sum(p.events for p in stats.procs)
