"""Kernel performance smoke check: measure events/sec, gate regressions.

Standalone (no pytest) so CI can run it cheaply and fail fast::

    PYTHONPATH=src python benchmarks/perf_smoke.py --output BENCH_kernel.json

It runs the same four workloads as ``test_micro_kernel.py`` — blocking
point-to-point, non-blocking handles, collectives, and an end-to-end
Sweep3D AM run — on **both** simulation kernels:

* ``interpreted`` — the Request driver on the event loop
  (:mod:`repro.sim.loop`), measured on the exact factories the original
  baseline used (raw generators for the micro workloads);
* ``compiled`` — the lowered ``fast_gen`` driver (:mod:`repro.kernel`)
  on the same loop, measured on IR-built equivalents of the micro
  workloads (the compiled backend lowers IR programs, not raw Python
  generators — which is also the interesting case: ``backend="auto"``
  falls back to interpreted for raw factories);
* ``compiled_armed`` — the compiled driver again, with the flight
  recorder and heartbeat armed as a supervised campaign worker arms
  them: the cost of observability on the path production runs take.

Each backend takes the best of ``--reps`` repetitions (the best is the
least-noisy estimator of kernel cost on shared CI runners), a fresh
``BENCH_kernel.json`` artifact is written, and the check exits non-zero
when any backend drops more than its tolerance below the committed
baseline at the repo root (``--tolerance`` for interpreted,
``--compiled-tolerance`` for both compiled columns, default 30%).
Before timing, each IR workload is run once on both backends and the
per-rank statistics must be byte-identical — a perf number for a kernel
that diverges is meaningless.

Every invocation also *appends* one timestamped record per workload and
backend to ``--history`` (default ``BENCH_history.jsonl``,
crash-consistent O_APPEND writes), so throughput over time is a
``jq``-able series rather than a single overwritten snapshot.  CI
uploads the file as an artifact next to ``BENCH_kernel.json``.

The committed baseline records three generations per workload, so every
claimed speedup stays auditable: ``pre`` (before the interpreter
fast-path work), ``post`` (after), and ``compiled`` (the lowered
backend).  ``compiled_events_per_sec / post_events_per_sec`` is the
compiled backend's claimed factor; ``compiled_armed_events_per_sec /
compiled_events_per_sec`` is what arming observability leaves of it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import mpi  # noqa: E402
from repro.apps import build_sweep3d, sweep3d_inputs  # noqa: E402
from repro.codegen import compile_program  # noqa: E402
from repro.ir import make_factory  # noqa: E402
from repro.ir.builder import P, ProgramBuilder, myid  # noqa: E402
from repro.machine import IBM_SP, TESTING_MACHINE  # noqa: E402
from repro.sim import ExecMode, Simulator  # noqa: E402
from repro.sim.flightrec import FLIGHT  # noqa: E402
from repro.sim.heartbeat import HEARTBEAT  # noqa: E402
from repro.symbolic import Var  # noqa: E402
from repro.util.atomic_io import append_jsonl  # noqa: E402
from repro.workflow.supervisor import HB_INTERVAL_EVENTS, HB_MIN_INTERVAL_S  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_kernel.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"


# -- interpreted micro workloads (raw generators, as originally baselined) ----

def _p2p_ring():
    def prog(rank, size):
        for i in range(50):
            yield mpi.send(dest=(rank + 1) % size, nbytes=64, tag=i % 4)
            yield mpi.recv(source=(rank - 1) % size, tag=i % 4)

    return Simulator(32, prog, TESTING_MACHINE, mode=ExecMode.DE)


def _nonblocking():
    def prog(rank, size):
        for i in range(30):
            hs = []
            hs.append((yield mpi.irecv(source=(rank - 1) % size, tag=i)))
            hs.append((yield mpi.isend(dest=(rank + 1) % size, nbytes=256, tag=i)))
            yield mpi.waitall(*hs)

    return Simulator(16, prog, TESTING_MACHINE, mode=ExecMode.DE)


def _collective():
    def prog(rank, size):
        for _ in range(40):
            yield mpi.allreduce(nbytes=8, data=1, reduce_fn=lambda a, b: a + b)

    return Simulator(32, prog, TESTING_MACHINE, mode=ExecMode.DE)


# -- IR equivalents (what the compiled backend lowers) ------------------------

def _ir_ring():
    b = ProgramBuilder("bench_p2p_ring", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        b.send(dest=(myid + 1) % P, nbytes=64, tag=0)
        b.recv(source=(myid - 1) % P, nbytes=64, tag=0)
    return make_factory(b.build(), {"iters": 50}), 32, TESTING_MACHINE, ExecMode.DE


def _ir_nonblocking():
    b = ProgramBuilder("bench_nonblocking", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        b.irecv(source=(myid - 1) % P, nbytes=256, tag=0, handle="hr")
        b.isend(dest=(myid + 1) % P, nbytes=256, tag=0, handle="hs")
        b.waitall("hr", "hs")
    return make_factory(b.build(), {"iters": 30}), 16, TESTING_MACHINE, ExecMode.DE


def _ir_collective():
    b = ProgramBuilder("bench_collective", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        b.allreduce(nbytes=8, contrib=1, result_var="acc")
    return make_factory(b.build(), {"iters": 40}), 32, TESTING_MACHINE, ExecMode.DE


def _ir_sweep3d():
    compiled = compile_program(build_sweep3d())
    w = {n: 1e-7 for n in compiled.w_param_names}
    inputs = sweep3d_inputs(48, 48, 48, 16, kb=2, ab=1, niter=1)
    factory = make_factory(compiled.simplified, inputs, wparams=w)
    return factory, 16, IBM_SP, ExecMode.AM


def _sweep3d_am():
    factory, nprocs, machine, mode = _ir_sweep3d()
    return lambda: Simulator(nprocs, factory, machine, mode=mode, backend="interpreted")


def _ir_sim(ir_setup, backend):
    factory, nprocs, machine, mode = ir_setup()
    return lambda: Simulator(nprocs, factory, machine, mode=mode, backend=backend)


#: label -> {backend -> zero-arg callable returning a fresh-Simulator factory}
WORKLOADS = {
    "p2p_ring_de": {
        "interpreted": lambda: _p2p_ring,
        "compiled": lambda: _ir_sim(_ir_ring, "compiled"),
        "identity": _ir_ring,
    },
    "nonblocking_de": {
        "interpreted": lambda: _nonblocking,
        "compiled": lambda: _ir_sim(_ir_nonblocking, "compiled"),
        "identity": _ir_nonblocking,
    },
    "collective_de": {
        "interpreted": lambda: _collective,
        "compiled": lambda: _ir_sim(_ir_collective, "compiled"),
        "identity": _ir_collective,
    },
    "sweep3d_am": {
        "interpreted": _sweep3d_am,
        "compiled": lambda: _ir_sim(_ir_sweep3d, "compiled"),
        "identity": _ir_sweep3d,
    },
}


def _stats_fingerprint(result) -> str:
    return json.dumps(
        [p.to_dict() for p in result.stats.procs], sort_keys=True, separators=(",", ":")
    )


def check_identity(label: str) -> None:
    """Both backends must produce byte-identical statistics on the IR
    workload before either is worth timing."""
    factory, nprocs, machine, mode = WORKLOADS[label]["identity"]()
    interp = Simulator(nprocs, factory, machine, mode=mode, backend="interpreted").run()
    compiled = Simulator(nprocs, factory, machine, mode=mode, backend="compiled").run()
    if _stats_fingerprint(interp) != _stats_fingerprint(compiled):
        raise SystemExit(
            f"FAIL: {label}: compiled backend statistics diverge from interpreted; "
            "refusing to benchmark a non-identical kernel"
        )


def _arm() -> None:
    """Arm the flight recorder and heartbeat as a supervised worker does."""
    FLIGHT.enable()
    HEARTBEAT.configure(lambda cursor: None, interval_events=HB_INTERVAL_EVENTS,
                        min_interval_s=HB_MIN_INTERVAL_S, run_id="perf-smoke")
    HEARTBEAT.enable()


def measure(label: str, backend: str, reps: int) -> dict:
    """Best-of-*reps* events/sec for one workload on one backend
    (``compiled_armed``: the compiled backend with observability armed)."""
    armed = backend == "compiled_armed"
    # one-time setup (lowering etc.) excluded
    make_sim = WORKLOADS[label]["compiled" if armed else backend]()
    best = float("inf")
    events = 0
    for _ in range(reps):
        sim = make_sim()
        if armed:
            _arm()
        try:
            t0 = time.perf_counter()
            stats = sim.run().stats
            dt = time.perf_counter() - t0
        finally:
            HEARTBEAT.disable()
            FLIGHT.disable()
        best = min(best, dt)
        events = stats.total_events
    return {
        "label": label,
        "backend": backend,
        "events": events,
        "best_s": round(best, 6),
        "events_per_sec": int(events / best),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default="BENCH_kernel.json",
                    help="where to write the fresh measurement artifact")
    ap.add_argument("--baseline", default=str(BASELINE_PATH),
                    help="committed baseline file (repo-root BENCH_kernel.json)")
    ap.add_argument("--history", default=str(HISTORY_PATH),
                    help="JSONL file to append one timestamped record per "
                         "workload and backend to (empty string disables)")
    ap.add_argument("--reps", type=int, default=5,
                    help="repetitions per workload and backend; best-of is reported")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional drop below the interpreted "
                         "baseline (default 0.30)")
    ap.add_argument("--compiled-tolerance", type=float, default=0.30,
                    help="allowed fractional drop below the compiled and "
                         "armed-compiled baselines (default 0.30)")
    args = ap.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    for label in WORKLOADS:
        check_identity(label)
    results = {
        label: {
            backend: measure(label, backend, args.reps)
            for backend in ("interpreted", "compiled", "compiled_armed")
        }
        for label in WORKLOADS
    }

    artifact = {
        "description": "kernel events/sec per backend, "
                       "measured by benchmarks/perf_smoke.py",
        "reps": args.reps,
        "workloads": {
            label: {
                "events": r["interpreted"]["events"],
                "events_per_sec": r["interpreted"]["events_per_sec"],
                "compiled_events_per_sec": r["compiled"]["events_per_sec"],
                "compiled_armed_events_per_sec": r["compiled_armed"]["events_per_sec"],
                "compiled_speedup": round(
                    r["compiled"]["events_per_sec"]
                    / r["interpreted"]["events_per_sec"], 2),
            }
            for label, r in results.items()
        },
    }
    Path(args.output).write_text(json.dumps(artifact, indent=1) + "\n")

    if args.history:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        for label, per_backend in results.items():
            for res in per_backend.values():
                append_jsonl(Path(args.history), {
                    "timestamp": stamp,
                    "reps": args.reps,
                    **res,
                })

    failed = False
    print(f"{'workload':24s} {'backend':14s} {'baseline':>10s} "
          f"{'measured':>10s} {'ratio':>7s}")
    for label, per_backend in results.items():
        gates = (
            ("interpreted", "post_events_per_sec", args.tolerance),
            ("compiled", "compiled_events_per_sec", args.compiled_tolerance),
            ("compiled_armed", "compiled_armed_events_per_sec", args.compiled_tolerance),
        )
        for backend, key, tolerance in gates:
            base = baseline["workloads"][label][key]
            measured = per_backend[backend]["events_per_sec"]
            ratio = measured / base
            flag = ""
            if ratio < 1.0 - tolerance:
                flag = "  REGRESSION"
                failed = True
            print(f"{label:24s} {backend:14s} {base:>10d} {measured:>10d} "
                  f"{ratio:>6.2f}x{flag}")
    if failed:
        print(
            "\nFAIL: events/sec dropped more than the allowed tolerance below "
            f"the committed baseline ({args.baseline}).\n"
            "If the slowdown is intentional, re-measure on a quiet machine "
            "and update the baseline in the same change."
        )
        return 1
    print("\nOK: all workloads and backends within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
