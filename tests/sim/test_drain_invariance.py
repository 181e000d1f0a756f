"""One drain loop, every arming: the per-event hooks never change a result.

The engine drains every run through one event loop whose heartbeat,
checkpoint, watchdog-budget and flight-recorder hooks are bound once per
run.  Over programs drawn from the ``repro.gen`` grammar, arming any of
them — alone or all together, on the interpreted and on the compiled
backend — must leave ``SimStats.to_dict()`` byte-identical to a bare
interpreted run.  A tripping event budget must report the same kind and
partial stats with and without the flight recorder, and attach a flight
dump only when the recorder is armed.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import GrammarConfig, generate_program
from repro.ir import make_factory
from repro.machine import TESTING_MACHINE
from repro.sim import ExecMode, Simulator
from repro.sim.budget import BudgetExceededError
from repro.sim.checkpoint import CHECKPOINT
from repro.sim.flightrec import FLIGHT
from repro.sim.heartbeat import HEARTBEAT

NPROCS = 4
GRAMMAR = GrammarConfig(max_stmts=16)
ARMINGS = ("bare", "budget", "heartbeat", "checkpoint", "flight", "all")
BACKENDS = ("interpreted", "compiled")
MODES = (ExecMode.DE, ExecMode.MEASURED)


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with the shared hooks disarmed."""
    yield
    HEARTBEAT.disable()
    CHECKPOINT.disable()
    FLIGHT.disable()
    FLIGHT.reset()


@pytest.fixture(scope="module")
def ck_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drain") / "cursor.json"


def arm(arming: str, ck_path) -> dict:
    """Enable the hooks *arming* names; returns the Simulator kwargs."""
    hooks = {"budget", "heartbeat", "checkpoint", "flight"} if arming == "all" else {arming}
    if "heartbeat" in hooks:
        # emit on every event: the tick's slow path runs, not only its compare
        HEARTBEAT.configure(lambda cursor: None, interval_events=1, min_interval_s=0)
        HEARTBEAT.enable()
    if "checkpoint" in hooks:
        CHECKPOINT.configure(ck_path, run_id="r", config_hash="c", seed=0,
                             interval_events=25, min_interval_s=0)
        CHECKPOINT.enable()
    if "flight" in hooks:
        FLIGHT.enable()
    return {"max_events": 10 ** 9} if "budget" in hooks else {}


def disarm() -> None:
    HEARTBEAT.disable()
    CHECKPOINT.disable()
    FLIGHT.disable()


def simulator(gen, mode, backend, **kw) -> Simulator:
    return Simulator(NPROCS, make_factory(gen.program, gen.inputs), TESTING_MACHINE,
                     mode=mode, seed=3, backend=backend, **kw)


def stats_bytes(result) -> str:
    return json.dumps(result.stats.to_dict(include_procs=True), sort_keys=True)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10 ** 6), mode=st.sampled_from(MODES))
def test_stats_identical_under_every_arming(seed, mode, ck_path):
    gen = generate_program(seed, GRAMMAR)
    reference = stats_bytes(simulator(gen, mode, "interpreted").run())
    for backend in BACKENDS:
        for arming in ARMINGS:
            kw = arm(arming, ck_path)
            try:
                sim = simulator(gen, mode, backend, **kw)
                got = stats_bytes(sim.run())
            finally:
                disarm()
            assert sim.backend == backend
            assert got == reference, (backend, arming)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10 ** 6), max_events=st.integers(1, 40),
       backend=st.sampled_from(BACKENDS))
def test_tripped_budget_same_with_and_without_flight(seed, max_events, backend):
    gen = generate_program(seed, GRAMMAR)
    outcomes = []
    for flight in (False, True):
        if flight:
            FLIGHT.enable()
        try:
            simulator(gen, ExecMode.DE, backend, max_events=max_events).run()
            outcomes.append(None)
        except BudgetExceededError as exc:
            outcomes.append(exc)
        finally:
            disarm()
    bare, flown = outcomes
    assert (bare is None) == (flown is None)
    if bare is None:
        return  # the program finished inside the budget either way
    assert (bare.kind, bare.limit, bare.observed) == (flown.kind, flown.limit, flown.observed)
    assert bare.stats.to_dict(include_procs=True) == flown.stats.to_dict(include_procs=True)
    assert bare.flight is None
    assert flown.flight is not None and flown.flight["budget"]["max_events"] == max_events
