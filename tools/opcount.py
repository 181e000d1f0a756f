#!/usr/bin/env python
"""Deterministic cost probe for changes to the hot paths.

Wall time on a small shared VM spreads by about ±10% between runs, but
the number of bytecodes one run executes repeats exactly on one CPython
version.  This probe calibrates Sweep3D at 16 ranks, runs one untraced
256-rank AM run as a warm-up (it lowers and caches the kernel), then
counts the bytecodes of one more such run with ``sys.settrace`` and
``f_trace_opcodes``, twice: bare, and with the flight recorder and the
heartbeat armed as a supervised campaign worker arms them.  It counts
one 256-rank DE run of Sweep3D's original program the same way (``de``:
comp blocks, the flux-fixup kernel call and task-time pricing, after a
warm-up run that lowers it).  It also counts one ``am`` miss in an
already-warm process, as ``repro serve`` runs it: a SAMPLE
nearest-neighbour request at 8 ranks with 4 calibration ranks through
``request_runner(...).run_one``, after one such miss at other inputs has
built the program and derived what it keeps.  It prints one JSON line::

    PYTHONPATH=src python tools/opcount.py

Counts from different CPython versions are not comparable: compare two
commits by running the probe on both with one interpreter.  The bare,
``de`` and ``am`` miss counts repeat exactly; the armed one can move by
a few hundred, because whether a due heartbeat emits depends on wall
time.
"""

import json
import platform
import sys

from repro.api import RunRequest
from repro.apps import build_sweep3d, sweep3d_inputs, sweep3d_per_proc_inputs
from repro.machine import IBM_SP
from repro.sim.flightrec import FLIGHT
from repro.sim.heartbeat import HEARTBEAT
from repro.workflow import ModelingWorkflow
from repro.workflow.campaign import request_runner
from repro.workflow.supervisor import HB_INTERVAL_EVENTS, HB_MIN_INTERVAL_S

NPROCS = 256
SEED = 1
#: the ``am`` miss: app, target ranks, calibration ranks
MISS_APP, MISS_NPROCS, MISS_CALIB_PROCS = "sample_nearest_neighbor", 8, 4


def count_bytecodes(fn) -> int:
    """Bytecodes executed by Python frames while ``fn()`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def global_(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(global_)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def _discard(cursor: dict) -> None:
    """Heartbeat sink: a supervised worker pipes cursors to its parent."""


def armed_run(run):
    FLIGHT.enable()
    HEARTBEAT.configure(_discard, interval_events=HB_INTERVAL_EVENTS,
                        min_interval_s=HB_MIN_INTERVAL_S, run_id="opcount")
    HEARTBEAT.enable()
    try:
        return run()
    finally:
        HEARTBEAT.disable()
        FLIGHT.disable()
        FLIGHT.reset()


def am_miss(grain: int) -> None:
    """One ``am`` request that nothing has run: a fresh runner calibrates
    it, compiles and simulates, as a ``repro serve`` miss does."""
    request = RunRequest(app=MISS_APP, mode="am", nprocs=MISS_NPROCS, seed=SEED,
                         inputs=(("grain", grain), ("iters", 3), ("msg", 2048)))
    runner = request_runner([request], calib_procs=MISS_CALIB_PROCS)
    record = runner.run_one(request)
    assert record.outcome == "ok", record.error


def main() -> None:
    calib = sweep3d_inputs(128, 128, 128, 16, kb=4, ab=2, mmi=3, niter=2)
    wf = ModelingWorkflow(build_sweep3d(), IBM_SP, calib_inputs=calib,
                          calib_nprocs=16, seed=SEED, backend="auto")
    inputs = sweep3d_per_proc_inputs(6, 6, 1000, NPROCS, kb=2, ab=1, niter=1)

    def run():
        return wf.run_am(inputs, NPROCS)

    def run_de():
        return wf.run_de(inputs, NPROCS)

    events = run().stats.total_events  # warm-up: lowers and caches the kernel
    bare = count_bytecodes(run)
    armed = count_bytecodes(lambda: armed_run(run))
    de_events = run_de().stats.total_events  # warm-up: lowers the original program
    de = count_bytecodes(run_de)
    am_miss(20000)  # warm-up: builds the app and derives what it keeps
    print(json.dumps({
        "workload": f"sweep3d_am_{NPROCS}",
        "events": events,
        "bare": bare,
        "armed": armed,
        "de_workload": f"sweep3d_de_{NPROCS}",
        "de_events": de_events,
        "de": de,
        "am_miss_workload": f"{MISS_APP}_am_{MISS_NPROCS}",
        "am_miss": count_bytecodes(lambda: am_miss(30000)),
        "python": platform.python_version(),
    }))


if __name__ == "__main__":
    main()
