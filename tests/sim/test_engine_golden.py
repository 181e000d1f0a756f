"""Frozen outputs of the fault, timeout, trace and group-collective paths.

Every scenario runs twice: bare, then with the flight recorder armed.
The sha256 digests of its stats, trace events, program-visible results,
deadlock report or error, and flight dump (wall times removed) must
equal the ones committed in ``engine_golden.json``.  IR scenarios run on
the interpreter and under ``backend="auto"``, which compiles every
program that lowers, against the same digests.

The scenarios cover each fault-plan shape (loss with and without retry,
duplication, send failure, per-link loss, degradation, crashes that end
in deadlock), a Sweep3D-shaped grid of blocking rendezvous stages under
loss, duplication and a default timeout, per-op and default timeouts on
send, recv, isend and irecv (including timeouts that lose the race to a
match), traced Sweep3D and SAMPLE runs, the group collectives, and 20
generated programs under a seeded random fault plan in all three
execution modes.

Regenerate the digests only for a deliberate, documented change of
semantics::

    PYTHONPATH=src python tests/sim/test_engine_golden.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro import mpi
from repro.apps import build_sample, build_sweep3d, sweep3d_inputs
from repro.gen import GrammarConfig, generate_program
from repro.ir import make_factory
from repro.machine import IBM_SP, TESTING_MACHINE
from repro.sim import (
    CrashFault,
    DeadlockError,
    ExecMode,
    FaultPlan,
    LinkDegradation,
    RetryPolicy,
    Simulator,
)
from repro.sim.flightrec import FLIGHT
from repro.workflow import ModelingWorkflow

GOLDEN = Path(__file__).with_name("engine_golden.json")
M = TESTING_MACHINE
BIG = M.net.eager_limit * 2  # rendezvous-sized payload
RAW = ("interpreted",)
IR = ("interpreted", "auto")

#: name -> (build(backend) -> (simulator, results log), backends)
SCENARIOS: dict = {}


@pytest.fixture(autouse=True)
def _disarmed():
    yield
    FLIGHT.disable()
    FLIGHT.reset()


def scenario(backends=RAW, name=None):
    """Register a scenario under *name* (default: the function's name)."""
    def register(fn):
        SCENARIOS[name or fn.__name__] = (fn, backends)
        return fn
    return register


def raw(nprocs, prog, machine=M, **kw):
    """A raw-generator scenario: ``prog(rank, size, log)`` appends what it sees."""
    log: list = []
    sim = Simulator(nprocs, lambda rank, size: prog(rank, size, log), machine,
                    mode=kw.pop("mode", ExecMode.DE), **kw)
    return sim, log


def ring(iters=5, nbytes=256, nonblocking=False):
    def prog(rank, size, log):
        right, left = (rank + 1) % size, (rank - 1) % size
        for i in range(iters):
            yield mpi.compute(ops=1000)
            if nonblocking:
                hs = yield mpi.isend(dest=right, nbytes=nbytes, data=(rank, i))
                hr = yield mpi.irecv(source=left)
                log.append((rank, (yield mpi.waitall(hs, hr))))
            else:
                log.append((rank, (yield mpi.send(dest=right, nbytes=nbytes, data=i))))
                log.append((rank, (yield mpi.recv(source=left))))
    return prog


# -- fault plans ---------------------------------------------------------------

@scenario()
def loss_retry(backend):
    return raw(4, ring(8), faults=FaultPlan(seed=1, message_loss=0.3),
               retry=RetryPolicy(max_attempts=12))


@scenario()
def loss_starves(backend):
    return raw(4, ring(8), faults=FaultPlan(seed=1, message_loss=0.6))


@scenario()
def loss_rendezvous(backend):
    return raw(4, ring(4, BIG), faults=FaultPlan(seed=2, message_loss=0.4),
               retry=RetryPolicy(max_attempts=2, backoff=1e-3))


@scenario()
def loss_nonblocking(backend):
    return raw(4, ring(4, BIG, nonblocking=True), faults=FaultPlan(seed=5, message_loss=0.3),
               retry=RetryPolicy(max_attempts=2, backoff=1e-3), default_timeout=0.5)


@scenario()
def duplication(backend):
    return raw(4, ring(4), faults=FaultPlan(seed=3, duplication=1.0))


def send_then_timed_recv(rank, size, log):
    if rank == 0:
        log.append((yield mpi.send(dest=1, nbytes=64)))
        log.append((yield mpi.isend(dest=1, nbytes=BIG, data="x")))
        log.append((yield mpi.waitall(log[-1])))
    else:
        log.append((yield mpi.recv(source=0, timeout=1.0)))
        log.append((yield mpi.recv(source=0, timeout=1.0)))


@scenario()
def send_failure_exhausted(backend):
    return raw(2, send_then_timed_recv, faults=FaultPlan(seed=4, send_failure=1.0),
               retry=RetryPolicy(max_attempts=3))


@scenario()
def send_failure_retry(backend):
    return raw(4, ring(6), faults=FaultPlan(seed=4, send_failure=0.4),
               retry=RetryPolicy(max_attempts=16))


@scenario()
def send_failure_nonblocking(backend):
    return raw(4, ring(5, nonblocking=True), faults=FaultPlan(seed=6, send_failure=0.5),
               default_timeout=0.25)


def link_loss_prog(rank, size, log):
    if rank == 0:
        yield mpi.send(dest=1, nbytes=64)
    elif rank == 1:
        yield mpi.send(dest=2, nbytes=64)
        log.append((yield mpi.recv(source=0, timeout=1.0)))
    else:
        log.append((yield mpi.recv(source=1)))


@scenario()
def link_loss(backend):
    return raw(3, link_loss_prog, faults=FaultPlan(seed=2, link_loss=((0, 1, 1.0),)))


@scenario()
def degradation(backend):
    plan = FaultPlan(degradations=(
        LinkDegradation(0.0, 1e6, latency_factor=50.0, bandwidth_factor=0.01),))
    return raw(4, ring(6), faults=plan)


@scenario()
def degradation_rendezvous_link(backend):
    plan = FaultPlan(degradations=(
        LinkDegradation(0.0, 0.05, latency_factor=3.0, bandwidth_factor=0.5, src=1),
        LinkDegradation(0.01, 1.0, latency_factor=2.0, dst=0)))
    return raw(4, ring(4, BIG, nonblocking=True), faults=plan)


def stage_grid(px=3, py=3, stages=4):
    """A Sweep3D stage on a *px* x *py* grid, *stages* times: blocking
    rendezvous recvs from the west and north neighbours, a delay, then
    blocking rendezvous sends east and south."""
    def prog(rank, size, log):
        i, j = rank % px, rank // px
        for _ in range(stages):
            if i > 0:
                log.append((rank, (yield mpi.recv(source=rank - 1))))
            if j > 0:
                log.append((rank, (yield mpi.recv(source=rank - px))))
            yield mpi.delay(1e-4)
            if i < px - 1:
                log.append((rank, (yield mpi.send(dest=rank + 1, nbytes=BIG))))
            if j < py - 1:
                log.append((rank, (yield mpi.send(dest=rank + px, nbytes=BIG))))
    return prog


@scenario()
def sweep_stage_loss_dup_timeout(backend):
    return raw(9, stage_grid(), faults=FaultPlan(seed=11, message_loss=0.4, duplication=0.3),
               retry=RetryPolicy(max_attempts=2, backoff=1e-4), default_timeout=0.02)


@scenario()
def crash_deadlock(backend):
    return raw(4, ring(), faults=FaultPlan(crashes=(CrashFault(2, 0.0),)))


@scenario()
def crash_mid_run(backend):
    return raw(4, ring(10), faults=FaultPlan(crashes=(CrashFault(1, 0.006),)))


@scenario()
def crash_at_event_time(backend):
    # 0.0011256 is the time rank 1's first eager send completes
    return raw(4, ring(4), faults=FaultPlan(crashes=(CrashFault(1, 0.0011256),)))


@scenario()
def crash_late(backend):
    return raw(4, ring(), faults=FaultPlan(crashes=(CrashFault(0, 1e9),)))


def crash_nonblocking_prog(rank, size, log):
    if rank == 0:
        yield mpi.delay(0.5)
        yield mpi.send(dest=1, nbytes=BIG)
    else:
        h = yield mpi.irecv(source=0)
        h2 = yield mpi.isend(dest=0, nbytes=BIG)
        log.append((yield mpi.waitall(h, h2)))


@scenario()
def crash_nonblocking(backend):
    return raw(2, crash_nonblocking_prog, faults=FaultPlan(crashes=(CrashFault(0, 0.25),)))


def crash_collective_prog(rank, size, log):
    yield mpi.delay(0.1 * rank)
    log.append((yield mpi.allreduce(nbytes=8, data=rank, reduce_fn=lambda a, b: a + b)))
    yield mpi.barrier(group=row_of(rank))


@scenario()
def crash_collective(backend):
    return raw(4, crash_collective_prog, faults=FaultPlan(crashes=(CrashFault(3, 0.15),)))


@scenario()
def crash_two_ranks_with_loss(backend):
    plan = FaultPlan(seed=8, message_loss=0.1, duplication=0.2,
                     crashes=(CrashFault(1, 0.004), CrashFault(3, 0.0)))
    return raw(4, ring(6), faults=plan, retry=RetryPolicy(max_attempts=3))


@scenario()
def traced_faults(backend):
    plan = FaultPlan(seed=9, message_loss=0.2, send_failure=0.2, duplication=0.3)
    return raw(4, ring(5, nonblocking=True), faults=plan, retry=RetryPolicy(max_attempts=2),
               default_timeout=0.3, collect_trace=True)


@scenario()
def faults_measured(backend):
    plan = FaultPlan(seed=10, message_loss=0.2, duplication=0.2, degradations=(
        LinkDegradation(0.0, 0.01, latency_factor=2.0),))
    return raw(4, ring(6, 20000, nonblocking=True), machine=IBM_SP, mode=ExecMode.MEASURED,
               seed=3, faults=plan, retry=RetryPolicy(max_attempts=4, backoff=1e-5))


# -- timeouts ------------------------------------------------------------------

def timeouts_prog(rank, size, log):
    if rank == 0:
        log.append((yield mpi.recv(source=1, timeout=0.5)))  # fires
        log.append((yield mpi.send(dest=1, nbytes=BIG, timeout=0.25)))  # fires
        h = yield mpi.irecv(source=1, timeout=0.5)
        log.append((yield mpi.waitall(h)))  # fires
        h = yield mpi.isend(dest=1, nbytes=BIG, timeout=0.1)
        log.append((yield mpi.waitall(h)))  # fires
        log.append((yield mpi.recv(source=1, timeout=10.0)))  # loses the race
        h = yield mpi.irecv(source=1, timeout=10.0)
        log.append((yield mpi.waitall(h)))  # loses the race
        log.append((yield mpi.send(dest=1, nbytes=BIG, timeout=10.0)))  # loses the race
    else:
        yield mpi.delay(3.0)
        yield mpi.send(dest=0, nbytes=64, data="a")
        yield mpi.send(dest=0, nbytes=64, data="b")
        log.append((yield mpi.recv(source=0)))


@scenario()
def timeouts_per_op(backend):
    return raw(2, timeouts_prog)


def tie_prog(rank, size, log):
    if rank == 0:
        log.append((yield mpi.recv(source=1, timeout=1.0)))
        log.append((yield mpi.recv(source=1, timeout=0.0)))
    else:
        yield mpi.delay(1.0)
        yield mpi.send(dest=0, nbytes=8, data="tie")


@scenario()
def timeout_tie(backend):
    return raw(2, tie_prog)


def late_message_prog(rank, size, log):
    if rank == 0:
        log.append((yield mpi.recv(source=1)))
    else:
        yield mpi.delay(2.0)
        yield mpi.send(dest=0, nbytes=8, data="late")


@scenario()
def default_timeout_fires(backend):
    return raw(2, late_message_prog, default_timeout=0.75)


@scenario()
def default_timeout_loses_race(backend):
    return raw(4, ring(5, BIG, nonblocking=True), default_timeout=1.0)


@scenario()
def default_timeout_rendezvous_ring(backend):
    def prog(rank, size, log):
        log.append((yield mpi.send(dest=(rank + 1) % size, nbytes=BIG)))
        log.append((yield mpi.recv(source=(rank - 1) % size)))
    return raw(3, prog, default_timeout=0.5)


@scenario()
def unconsumed_message(backend):
    def prog(rank, size, log):
        if rank == 0:
            log.append((yield mpi.send(dest=1, nbytes=8)))
    return raw(2, prog)


# -- group collectives -----------------------------------------------------------

def row_of(rank, width=2):
    base = (rank // width) * width
    return tuple(range(base, base + width))


def groups_prog(rank, size, log):
    grp = row_of(rank)
    log.append((yield mpi.allreduce(nbytes=8, data=rank, reduce_fn=lambda a, b: a + b,
                                    group=grp)))
    log.append((yield mpi.bcast(nbytes=1024, root=grp[0],
                                data=f"row{grp[0]}" if rank == grp[0] else None, group=grp)))
    if rank >= 2:
        yield mpi.delay(5.0)
    yield mpi.barrier(group=grp)
    log.append((yield mpi.allreduce(nbytes=8, data=1, reduce_fn=lambda a, b: a + b)))
    log.append((yield mpi.gather(nbytes=8, data=rank, root=1)))
    log.append((yield mpi.scatter(nbytes=8, data=list(range(10, 10 + size)), root=2)))


@scenario()
def group_collectives(backend):
    return raw(4, groups_prog)


@scenario()
def group_collectives_traced(backend):
    return raw(4, groups_prog, collect_trace=True)


@scenario()
def group_partial_deadlock(backend):
    def prog(rank, size, log):
        if rank in (0, 2):
            yield mpi.barrier(group=(0, 1, 2))
        if rank in (2, 3):
            yield mpi.barrier(group=(2, 3))
    return raw(4, prog)


@scenario()
def group_nonmember(backend):
    def prog(rank, size, log):
        yield mpi.barrier(group=(0, 1))
    return raw(4, prog)


@scenario()
def group_root_outside(backend):
    def prog(rank, size, log):
        yield mpi.bcast(nbytes=8, root=3, group=(0, 1))
    return raw(4, prog)


# -- traced application runs -------------------------------------------------------

@functools.cache
def sweep3d_am():
    """Sweep3D's simplified program and its calibrated parameters."""
    flow = ModelingWorkflow(build_sweep3d(), IBM_SP, calib_inputs=sweep3d_inputs(16, 16, 8, 4),
                            calib_nprocs=4)
    return flow.compiled.simplified, flow.wparams


@scenario(IR)
def sweep3d_de_traced(backend):
    factory = make_factory(build_sweep3d(), sweep3d_inputs(24, 24, 8, 8))
    return Simulator(8, factory, IBM_SP, mode=ExecMode.DE, collect_trace=True,
                     backend=backend), None


@scenario(IR)
def sweep3d_am_traced(backend):
    program, wparams = sweep3d_am()
    factory = make_factory(program, sweep3d_inputs(24, 24, 8, 8), wparams=wparams)
    return Simulator(8, factory, IBM_SP, mode=ExecMode.AM, collect_trace=True,
                     backend=backend), None


SAMPLE_INPUTS = {"grain": 2000, "msg": 2048, "iters": 4}


for _pattern in ("wavefront", "nearest_neighbor"):
    for _mode in (ExecMode.DE, ExecMode.MEASURED):
        def _sample(backend, pattern=_pattern, mode=_mode):
            factory = make_factory(build_sample(pattern), SAMPLE_INPUTS)
            return Simulator(8, factory, IBM_SP, mode=mode, seed=5, collect_trace=True,
                             backend=backend), None
        scenario(IR, f"sample_{_pattern}_{_mode.name.lower()}_traced")(_sample)


# -- IR programs under faults and timeouts -------------------------------------------

@scenario(IR)
def sample_faults_timeout(backend):
    factory = make_factory(build_sample("nearest_neighbor"), SAMPLE_INPUTS)
    return Simulator(8, factory, IBM_SP, mode=ExecMode.DE, backend=backend,
                     faults=FaultPlan(seed=0, message_loss=0.2, duplication=0.1),
                     retry=RetryPolicy(max_attempts=3, backoff=1e-4),
                     default_timeout=0.5), None


@scenario(IR)
def sample_crash(backend):
    factory = make_factory(build_sample("wavefront"), SAMPLE_INPUTS)
    return Simulator(8, factory, IBM_SP, mode=ExecMode.DE, backend=backend,
                     faults=FaultPlan(crashes=(CrashFault(3, 0.0),))), None


@scenario(IR)
def sweep3d_am_faults_measured(backend):
    program, wparams = sweep3d_am()
    factory = make_factory(program, sweep3d_inputs(24, 24, 8, 8), wparams=wparams)
    plan = FaultPlan(seed=4, message_loss=0.1, send_failure=0.05, degradations=(
        LinkDegradation(0.0, 0.002, latency_factor=3.0, bandwidth_factor=0.5),))
    return Simulator(8, factory, IBM_SP, mode=ExecMode.MEASURED, seed=2, backend=backend,
                     faults=plan, retry=RetryPolicy(max_attempts=3, backoff=1e-5),
                     default_timeout=0.01), None


GRAMMAR = GrammarConfig(max_stmts=16)
GEN_NPROCS = 4


def random_faults(seed: int, horizon: float) -> dict:
    """A seeded random fault plan, retry policy and default timeout."""
    rng = random.Random(seed)
    horizon = horizon if horizon > 0 else 1e-3
    crashes = ()
    if rng.random() < 0.3:
        crashes = (CrashFault(rng.randrange(GEN_NPROCS), rng.choice((0.0, 0.3, 0.7)) * horizon),)
    degradations = ()
    if rng.random() < 0.4:
        degradations = (LinkDegradation(0.0, horizon * 0.5, latency_factor=4.0,
                                        bandwidth_factor=0.5,
                                        src=rng.choice((None, 0, 1))),)
    plan = FaultPlan(
        seed=seed,
        message_loss=rng.choice((0.0, 0.05, 0.2)),
        duplication=rng.choice((0.0, 0.1)),
        send_failure=rng.choice((0.0, 0.1)),
        crashes=crashes,
        degradations=degradations,
    )
    retry = (RetryPolicy(max_attempts=rng.choice((2, 4)), backoff=1e-5)
             if rng.random() < 0.5 else None)
    timeout = rng.choice((None, horizon * 0.5))
    return {"faults": plan, "retry": retry, "default_timeout": timeout}


for _seed in range(20):
    for _mode in (ExecMode.MEASURED, ExecMode.DE, ExecMode.AM):
        def _generated(backend, seed=_seed, mode=_mode):
            gen = generate_program(seed, GRAMMAR)
            factory = make_factory(gen.program, gen.inputs)
            horizon = Simulator(GEN_NPROCS, factory, IBM_SP, mode=ExecMode.DE).run().elapsed
            return Simulator(GEN_NPROCS, factory, IBM_SP, mode=mode, seed=seed, backend=backend,
                             **random_faults(seed, horizon)), None
        scenario(IR, f"gen{_seed:02d}_{_mode.name.lower()}")(_generated)


# -- digests ------------------------------------------------------------------------

def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def without_wall(doc):
    if isinstance(doc, dict):
        return {k: without_wall(v) for k, v in doc.items() if k != "wall_seconds"}
    if isinstance(doc, list):
        return [without_wall(v) for v in doc]
    return doc


def run_once(build, backend, flight: bool) -> dict:
    """Digests of one run of a scenario."""
    sim, log = build(backend)
    out = {}
    if flight:
        FLIGHT.enable()
    try:
        result = sim.run()
    except DeadlockError as exc:
        out["error"] = sha(exc.report.format() if exc.report is not None else str(exc))
        dump = exc.flight
    except Exception as exc:  # collective mismatch, bad group, ...
        out["error"] = sha(f"{type(exc).__name__}: {exc}")
        dump = FLIGHT.dump(error=str(exc)) if flight else None
    else:
        out["stats"] = sha(json.dumps(result.stats.to_dict(include_procs=True), sort_keys=True))
        if result.trace is not None:
            out["trace"] = sha(repr(result.trace.events))
        dump = FLIGHT.dump() if flight else None
    finally:
        FLIGHT.disable()
        FLIGHT.reset()
    if log is not None:
        out["results"] = sha(repr(log))
    if flight:
        out["flight"] = sha(json.dumps(without_wall(dump), sort_keys=True))
    return out


def digests(name: str, backend: str) -> dict:
    build, _ = SCENARIOS[name]
    bare = run_once(build, backend, flight=False)
    armed = run_once(build, backend, flight=True)
    flight = armed.pop("flight")
    assert armed == bare, "arming the flight recorder changed the outcome"
    return dict(bare, flight=flight)


CASES = [(name, backend) for name, (_, backends) in SCENARIOS.items() for backend in backends]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name, backend", CASES)
def test_matches_golden(name, backend, golden):
    assert digests(name, backend) == golden[name]


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_engine_golden.py --write")
    doc = {name: digests(name, "interpreted") for name in SCENARIOS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} scenarios to {GOLDEN}")
