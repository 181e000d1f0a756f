"""Microbenchmarks of the simulator's own machinery.

Not a paper experiment — these track the throughput of the pieces every
experiment is built from, so performance regressions in the kernel or
the compiler show up directly.  (The guides' rule: no optimization
without measurement; these are the measurements.)

Each timed benchmark also records its statistics and events/sec to
``out/BENCH_experiments.json`` via :func:`_common.bench_timed`; the
committed repo-root ``BENCH_kernel.json`` holds the pre/post fast-path
baseline that ``perf_smoke.py`` gates CI against.
"""

import json
from pathlib import Path

from _common import bench_timed

from repro import mpi
from repro.apps import build_sweep3d, sweep3d_inputs
from repro.codegen import compile_program
from repro.ir import make_factory
from repro.machine import IBM_SP, TESTING_MACHINE
from repro.sim import ExecMode, Simulator
from repro.sim import loop

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_micro_event_throughput_p2p(benchmark):
    """Raw kernel throughput on a message-heavy ring exchange."""

    def prog(rank, size):
        for i in range(50):
            yield mpi.send(dest=(rank + 1) % size, nbytes=64, tag=i % 4)
            yield mpi.recv(source=(rank - 1) % size, tag=i % 4)

    def run():
        return Simulator(32, prog, TESTING_MACHINE, mode=ExecMode.DE).run()

    result = bench_timed(benchmark, run, extra={"events": 32 * 50 * 2})
    assert result.stats.total_messages == 32 * 50


def test_micro_nonblocking_exchange(benchmark):
    """Handle-based operations: isend/irecv/waitall cycles."""

    def prog(rank, size):
        for i in range(30):
            hs = []
            hs.append((yield mpi.irecv(source=(rank - 1) % size, tag=i)))
            hs.append((yield mpi.isend(dest=(rank + 1) % size, nbytes=256, tag=i)))
            yield mpi.waitall(*hs)

    def run():
        return Simulator(16, prog, TESTING_MACHINE, mode=ExecMode.DE).run()

    result = bench_timed(benchmark, run, extra={"events": 16 * 30 * 3})
    assert result.stats.total_messages == 16 * 30


def test_micro_collective_throughput(benchmark):
    def prog(rank, size):
        for _ in range(40):
            yield mpi.allreduce(nbytes=8, data=1, reduce_fn=lambda a, b: a + b)

    def run():
        return Simulator(32, prog, TESTING_MACHINE, mode=ExecMode.DE).run()

    result = bench_timed(benchmark, run, extra={"events": 32 * 40})
    assert all(p.collectives == 40 for p in result.stats.procs)


def test_micro_interpreter_am_run(benchmark):
    """End-to-end AM simulation of Sweep3D (interpreter + kernel +
    symbolic evaluation — the path every validation experiment takes)."""
    prog = build_sweep3d()
    compiled = compile_program(prog)
    w = {n: 1e-7 for n in compiled.w_param_names}
    inputs = sweep3d_inputs(48, 48, 48, 16, kb=2, ab=1, niter=1)

    def run():
        return Simulator(
            16, make_factory(compiled.simplified, inputs, wparams=w), IBM_SP,
            mode=ExecMode.AM, backend="interpreted",
        ).run()

    result = bench_timed(benchmark, run)
    assert result.elapsed > 0


def test_micro_compiler_pipeline(benchmark):
    """Full compile (STG condensation + slicing fixpoint + codegen)."""
    prog = build_sweep3d()

    compiled = bench_timed(benchmark, lambda: compile_program(prog))
    assert compiled.simplified.arrays == {}


# -- fast-path guarantees ------------------------------------------------------


def test_observability_gated_once_per_run():
    """Disabled observability must cost zero per-event calls.

    The kernel checks ``TRACER.enabled``/``METRICS.enabled`` exactly once
    per ``run()`` and dispatches to the bare event loop; a regression
    that reintroduces per-event span or metrics calls shows up here as a
    call count that scales with the event count.
    """
    from repro.obs.metrics import METRICS
    from repro.obs.spans import TRACER

    assert not TRACER.enabled and not METRICS.enabled
    calls = {"span": 0, "counter": 0, "record_run": 0}
    orig_span, orig_counter = TRACER.span, METRICS.counter
    orig_record = METRICS.record_run

    def counting_span(*a, **kw):
        calls["span"] += 1
        return orig_span(*a, **kw)

    def counting_counter(*a, **kw):
        calls["counter"] += 1
        return orig_counter(*a, **kw)

    def counting_record(*a, **kw):
        calls["record_run"] += 1
        return orig_record(*a, **kw)

    TRACER.span = counting_span
    METRICS.counter = counting_counter
    METRICS.record_run = counting_record
    try:
        for iters in (5, 50):  # 10x the events, same (zero) overhead calls

            def prog(rank, size, iters=iters):
                for i in range(iters):
                    yield mpi.send(dest=(rank + 1) % size, nbytes=64, tag=0)
                    yield mpi.recv(source=(rank - 1) % size, tag=0)

            stats = Simulator(8, prog, TESTING_MACHINE, mode=ExecMode.DE).run().stats
            assert stats.total_events == 8 * iters * 2
            assert calls == {"span": 0, "counter": 0, "record_run": 0}
    finally:
        TRACER.span, METRICS.counter = orig_span, orig_counter
        METRICS.record_run = orig_record


def test_hot_loop_has_no_observability_indirection():
    """The event-loop bytecode itself must not reference TRACER/METRICS.

    Structural complement to the call-count test: the per-event hot
    paths (the event loop `repro.sim.loop.run` with the helpers nested
    in it, and the Request driver) may consult neither observability
    singleton — that decision belongs to `Simulator.run()`, once.
    """
    codes = [loop.run.__code__, loop.request_driver.__code__]
    codes += [c for c in loop.run.__code__.co_consts if hasattr(c, "co_names")]
    for code in codes:
        assert "TRACER" not in code.co_names, code.co_name
        assert "METRICS" not in code.co_names, code.co_name


def test_committed_speedup_record():
    """BENCH_kernel.json must document >=1.5x events/sec over the
    pre-fast-path kernel for every workload (the PR's acceptance bar)."""
    book = json.loads((REPO_ROOT / "BENCH_kernel.json").read_text())
    for label, w in book["workloads"].items():
        ratio = w["post_events_per_sec"] / w["pre_events_per_sec"]
        assert ratio >= 1.5, f"{label}: committed speedup only {ratio:.2f}x"
