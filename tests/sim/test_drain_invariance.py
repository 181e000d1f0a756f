"""Two drivers on one loop, every arming: results never depend on either.

Interpreted runs drive each rank with the Request driver, compiled runs
with ``fast_gen``; both drain through ``repro.sim.loop.run``, which binds
the heartbeat, watchdog-budget and flight-recorder hooks once per run
through ``RunHooks``.  Over programs drawn from the ``repro.gen``
grammar, arming any of them — alone or all together, on either backend —
must leave ``SimStats.to_dict()`` byte-identical to a bare interpreted
run.  A tripping budget must report the same kind, limit, observed value
and partial stats on both drivers, with and without the flight recorder,
and their flight dumps and heartbeat cursors must match.  Under random
fault plans and default timeouts the two drivers and the default
backend must agree on the stats, the deadlock report text and the
flight dump; collecting a trace, on either driver, must change none of
them, and both drivers must record the same trace events.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import GrammarConfig, generate_program
from repro.ir import make_factory
from repro.machine import IBM_SP, TESTING_MACHINE
from repro.obs.metrics import METRICS
from repro.obs.spans import TRACER
from repro.sim import (
    CrashFault,
    DeadlockError,
    ExecMode,
    FaultPlan,
    LinkDegradation,
    RetryPolicy,
    Simulator,
)
from repro.sim.budget import BudgetExceededError
from repro.sim.flightrec import FLIGHT
from repro.sim.heartbeat import HEARTBEAT

NPROCS = 4
GRAMMAR = GrammarConfig(max_stmts=16)
ARMINGS = ("bare", "budget", "heartbeat", "flight", "all")
BACKENDS = ("interpreted", "compiled")
MODES = (ExecMode.DE, ExecMode.MEASURED)


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with the shared hooks disarmed."""
    yield
    HEARTBEAT.disable()
    FLIGHT.disable()
    FLIGHT.reset()
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()


def arm(arming: str, cursors: list | None = None) -> dict:
    """Enable the hooks *arming* names; returns the Simulator kwargs.

    Heartbeat cursors are appended to *cursors* when given.
    """
    hooks = {"budget", "heartbeat", "flight"} if arming == "all" else {arming}
    if "heartbeat" in hooks:
        # emit on every event: the tick's slow path runs, not only its compare
        sink = cursors.append if cursors is not None else (lambda cursor: None)
        HEARTBEAT.configure(sink, interval_events=1, min_interval_s=0)
        HEARTBEAT.enable()
    if "flight" in hooks:
        FLIGHT.enable()
    return {"max_events": 10 ** 9} if "budget" in hooks else {}


def disarm() -> None:
    HEARTBEAT.disable()
    FLIGHT.disable()


def simulator(gen, mode, backend, machine=TESTING_MACHINE, **kw) -> Simulator:
    return Simulator(NPROCS, make_factory(gen.program, gen.inputs), machine,
                     mode=mode, seed=3, backend=backend, **kw)


def stats_bytes(result) -> str:
    return json.dumps(result.stats.to_dict(include_procs=True), sort_keys=True)


def without_wall(doc):
    """*doc* with every ``wall_seconds`` entry dropped (host timing varies)."""
    if isinstance(doc, dict):
        return {k: without_wall(v) for k, v in doc.items() if k != "wall_seconds"}
    if isinstance(doc, list):
        return [without_wall(v) for v in doc]
    return doc


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10 ** 6), mode=st.sampled_from(MODES))
def test_stats_identical_under_every_arming(seed, mode):
    gen = generate_program(seed, GRAMMAR)
    reference = stats_bytes(simulator(gen, mode, "interpreted").run())
    cursors = {}  # (backend, arming) -> heartbeat cursors, flight tails included
    for backend in BACKENDS:
        for arming in ARMINGS:
            got_cursors = cursors[backend, arming] = []
            kw = arm(arming, got_cursors)
            try:
                sim = simulator(gen, mode, backend, **kw)
                got = stats_bytes(sim.run())
            finally:
                disarm()
                FLIGHT.reset()
            assert sim.backend == backend
            assert got == reference, (backend, arming)
    for arming in ("heartbeat", "all"):
        assert cursors["interpreted", arming], "interval_events=1 emits on every event"
        assert (without_wall(cursors["compiled", arming])
                == without_wall(cursors["interpreted", arming])), arming


def tripped(gen, backend, flight, **budget):
    """The budget error of one DE run (None if it finished in budget)."""
    if flight:
        FLIGHT.enable()
    try:
        simulator(gen, ExecMode.DE, backend, **budget).run()
        return None
    except BudgetExceededError as exc:
        return exc
    finally:
        disarm()
        FLIGHT.reset()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10 ** 6), max_events=st.integers(1, 40),
       vt_share=st.sampled_from((None, 0.25, 0.5, 0.9)))
def test_tripped_budget_same_with_and_without_flight(seed, max_events, vt_share):
    gen = generate_program(seed, GRAMMAR)
    if vt_share is None:
        budget = {"max_events": max_events}
    else:
        elapsed = simulator(gen, ExecMode.DE, "interpreted").run().elapsed
        if elapsed <= 0:
            return
        budget = {"max_virtual_time": elapsed * vt_share}
    outcomes = {(backend, flight): tripped(gen, backend, flight, **budget)
                for backend in BACKENDS for flight in (False, True)}
    ref = outcomes["interpreted", False]
    if ref is None:
        assert set(outcomes.values()) == {None}
        return  # the program finished inside the budget everywhere
    for (backend, flight), exc in outcomes.items():
        assert exc is not None, (backend, flight)
        assert (exc.kind, exc.limit, exc.observed) == (ref.kind, ref.limit, ref.observed)
        assert (exc.stats.to_dict(include_procs=True)
                == ref.stats.to_dict(include_procs=True)), (backend, flight)
        assert (exc.flight is not None) == flight
    dumps = [without_wall(outcomes[backend, True].flight) for backend in BACKENDS]
    assert dumps[0] == dumps[1]
    assert all(dumps[0]["budget"][k] == v for k, v in budget.items())


PROBS = st.sampled_from((0.0, 0.05, 0.2, 0.5))


@st.composite
def fault_kwargs(draw, horizon: float) -> dict:
    """A random fault plan, retry policy and default timeout, with times
    scaled to *horizon* (the run's fault-free elapsed time)."""
    crashes = draw(st.lists(
        st.builds(lambda rank, at: CrashFault(rank, at * horizon),
                  st.integers(0, NPROCS - 1), st.floats(0.0, 1.2)),
        max_size=2, unique_by=lambda c: c.rank))
    degradations = draw(st.lists(
        st.builds(lambda start, width, lf, bf, src: LinkDegradation(
            start * horizon, (start + width) * horizon, lf, bf, src=src),
            st.floats(0.0, 0.8), st.floats(0.1, 1.0), st.sampled_from((1.0, 4.0)),
            st.sampled_from((1.0, 0.25)), st.sampled_from((None, 0, 1))),
        max_size=2))
    plan = FaultPlan(seed=draw(st.integers(0, 99)), crashes=tuple(crashes),
                     message_loss=draw(PROBS), duplication=draw(PROBS),
                     send_failure=draw(PROBS), degradations=tuple(degradations))
    retry = draw(st.none() | st.builds(RetryPolicy, max_attempts=st.integers(1, 4),
                                       backoff=st.sampled_from((0.0, 1e-5))))
    timeout = draw(st.none() | st.floats(0.05, 2.0).map(lambda f: f * horizon))
    return {"faults": plan, "retry": retry, "default_timeout": timeout}


def outcome(sim: Simulator) -> str:
    """Stats bytes of a finished run, or the text of its deadlock or error."""
    try:
        return stats_bytes(sim.run())
    except DeadlockError as exc:
        return "deadlock: " + (exc.report.format() if exc.report is not None else str(exc))
    except Exception as exc:  # noqa: BLE001 - error parity is the invariant
        return f"{type(exc).__name__}: {exc}"


def flight_dump(sim: Simulator) -> dict:
    FLIGHT.enable()
    try:
        try:
            sim.run()
            return without_wall(FLIGHT.dump())
        except DeadlockError as exc:
            return without_wall(exc.flight)
    finally:
        disarm()
        FLIGHT.reset()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), mode=st.sampled_from(MODES),
       machine=st.sampled_from((TESTING_MACHINE, IBM_SP)), data=st.data())
def test_faults_and_timeouts_same_on_both_drivers(seed, mode, machine, data):
    gen = generate_program(seed, GRAMMAR)
    horizon = simulator(gen, ExecMode.DE, "interpreted", machine).run().elapsed or 1e-3
    kw = data.draw(fault_kwargs(horizon))

    def sims() -> dict:
        """One run per backend and one on the default, plus a run
        collecting a trace on each backend."""
        runs = {backend: simulator(gen, mode, backend, machine, **kw) for backend in BACKENDS}
        runs["default"] = simulator(gen, mode, None, machine, **kw)
        for backend in BACKENDS:
            runs["traced", backend] = simulator(gen, mode, backend, machine,
                                                collect_trace=True, **kw)
        return runs

    runs = sims()
    assert runs["compiled"].backend == runs["traced", "compiled"].backend == "compiled"
    results = {name: outcome(sim) for name, sim in runs.items()}
    assert len(set(results.values())) == 1, results
    # a deadlocked or failed run keeps the events it recorded before it stopped
    assert (repr(runs["traced", "compiled"].trace.events)
            == repr(runs["traced", "interpreted"].trace.events))
    dumps = {name: flight_dump(sim) for name, sim in sims().items()}
    assert all(dump == dumps["interpreted"] for dump in dumps.values()), dumps
