#!/usr/bin/env python
"""Deterministic cost probe for changes to the event loop's hot path.

Wall time on a small shared VM spreads by about ±10% between runs, but
the number of bytecodes one run executes repeats exactly on one CPython
version.  This probe calibrates Sweep3D at 16 ranks, runs one untraced
256-rank AM run as a warm-up (it lowers and caches the kernel), then
counts the bytecodes of one more such run with ``sys.settrace`` and
``f_trace_opcodes``, twice: bare, and with the flight recorder and the
heartbeat armed as a supervised campaign worker arms them.  It prints
one JSON line::

    PYTHONPATH=src python tools/opcount.py

Counts from different CPython versions are not comparable: compare two
commits by running the probe on both with one interpreter.  The bare
count repeats exactly; the armed one can move by a few hundred, because
whether a due heartbeat emits depends on wall time.
"""

import json
import platform
import sys

from repro.apps import build_sweep3d, sweep3d_inputs, sweep3d_per_proc_inputs
from repro.machine import IBM_SP
from repro.sim.flightrec import FLIGHT
from repro.sim.heartbeat import HEARTBEAT
from repro.workflow import ModelingWorkflow
from repro.workflow.supervisor import HB_INTERVAL_EVENTS, HB_MIN_INTERVAL_S

NPROCS = 256
SEED = 1


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


def main() -> None:
    calib = sweep3d_inputs(128, 128, 128, 16, kb=4, ab=2, mmi=3, niter=2)
    wf = ModelingWorkflow(build_sweep3d(), IBM_SP, calib_inputs=calib,
                          calib_nprocs=16, seed=SEED, backend="auto")
    inputs = sweep3d_per_proc_inputs(6, 6, 1000, NPROCS, kb=2, ab=1, niter=1)

    def run():
        return wf.run_am(inputs, NPROCS)

    events = run().stats.total_events  # warm-up: lowers and caches the kernel
    print(json.dumps({
        "workload": f"sweep3d_am_{NPROCS}",
        "events": events,
        "bare": count_bytecodes(run),
        "armed": count_bytecodes(lambda: armed_run(run)),
        "python": platform.python_version(),
    }))


if __name__ == "__main__":
    main()
