"""Worker heartbeats: a cheap liveness cursor for supervised runs.

A campaign worker that wedges — an infinite loop in a generated
program, a pathological collective schedule, an accidental O(n²) in a
model — looks exactly like a slow run from the outside.  Before this
module the only defence was the coarse wall-clock budget: the parent
waited out the full ``max_wall_seconds`` before learning anything.

The :class:`HeartbeatEmitter` gives the kernel a pulse.  While a run
drains its events, the event loop (the engine's or the compiled
runtime's) calls :meth:`tick` at the event counts :attr:`next_due`
names; every *interval_events* events (and at most once per
*min_interval_s* wall seconds) the emitter hands a small **cursor**
dict — event count, virtual time, wall time, plus a bounded tail of
the flight-recorder ring when that is armed — to a sink callable.  In
the supervised pool (:mod:`repro.workflow.supervisor`) the sink writes
the cursor down the worker's pipe, so the parent always knows how far
every in-flight run has progressed and can distinguish *slow* from
*stuck*: a run whose cursor stops advancing past the heartbeat
deadline is killed and reclassified ``hung`` instead of waiting out
the wall budget.

Cost contract (the same one TRACER / METRICS / FLIGHT hold to):

* **Disabled (the default), heartbeats add zero hot-loop calls.**
  The event loop tests ``HEARTBEAT.enabled`` once per run (through
  :class:`repro.sim.loop.RunHooks`) and binds the hook to ``None``;
  with no hook armed, a run pays one boolean test per event.
* **Enabled, the loop pays one integer compare per event** against the
  next due event count and ticks only there; actually *emitting* a
  cursor is bounded by ``min_interval_s``, so sink traffic is a few
  messages per second regardless of event rate.

A sink that raises (the parent died, the pipe closed) disables the
emitter for the rest of the run: the worker finishes or dies on its
own terms rather than crashing inside the event loop.
"""

from __future__ import annotations

import time

from .flightrec import FLIGHT

__all__ = ["HeartbeatEmitter", "HEARTBEAT"]

#: cursor schema version (bump when the dict shape changes)
CURSOR_FORMAT = 1

#: default event stride between emission checks
DEFAULT_INTERVAL_EVENTS = 2048

#: default minimum wall seconds between emitted cursors
DEFAULT_MIN_INTERVAL_S = 0.25

#: flight-ring tail length carried on each cursor (when FLIGHT is armed)
FLIGHT_TAIL = 32


class HeartbeatEmitter:
    """Throttled liveness-cursor emitter; use the shared :data:`HEARTBEAT`.

    The emitter is configured per run (sink, stride, throttle, metadata)
    and consulted by the event loop via :meth:`tick`.  Cursors are JSON-safe dicts::

        {"format": 1, "run_id": ..., "events": N, "virtual_time": t,
         "wall_seconds": w, "flight_tail": [[t, rank, kind], ...]}
    """

    def __init__(self):
        self.enabled = False
        self.interval_events = DEFAULT_INTERVAL_EVENTS
        self.min_interval_s = DEFAULT_MIN_INTERVAL_S
        self._sink = None
        self._meta: dict = {}
        self._next_events = 0
        self._last_wall = 0.0
        self._t0 = 0.0
        self._emitted = 0

    # -- lifecycle -----------------------------------------------------------
    def configure(self, sink, *, interval_events: int | None = None,
                  min_interval_s: float | None = None, **meta) -> None:
        """Set the sink and throttles for the next run.

        *sink* is ``sink(cursor: dict) -> None``; extra keyword
        arguments (``run_id=...``) ride on every cursor.
        """
        if interval_events is not None:
            if interval_events < 1:
                raise ValueError(
                    f"interval_events must be >= 1, got {interval_events}")
            self.interval_events = interval_events
        if min_interval_s is not None:
            if min_interval_s < 0:
                raise ValueError(
                    f"min_interval_s must be >= 0, got {min_interval_s}")
            self.min_interval_s = min_interval_s
        self._sink = sink
        self._meta = dict(meta)

    def enable(self) -> None:
        if self._sink is None:
            raise ValueError("configure(sink) before enable()")
        now = time.monotonic()
        self._t0 = now
        self._last_wall = now
        self._next_events = self.interval_events
        self._emitted = 0
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @property
    def emitted(self) -> int:
        """Cursors emitted since :meth:`enable` (test observability)."""
        return self._emitted

    @property
    def next_due(self) -> int:
        """The event count below which :meth:`tick` is a no-op."""
        return self._next_events

    # -- the kernel-facing tick (enabled path only) --------------------------
    def tick(self, events: int, t: float) -> None:
        """Maybe emit a cursor; two compares when not due."""
        if events < self._next_events:
            return
        now = time.monotonic()
        self._next_events = events + self.interval_events
        if now - self._last_wall < self.min_interval_s:
            return
        self._last_wall = now
        cursor = {
            "format": CURSOR_FORMAT,
            "events": events,
            "virtual_time": t,
            "wall_seconds": now - self._t0,
        }
        cursor.update(self._meta)
        if FLIGHT.enabled:
            cursor["flight_tail"] = [
                [et, rank, kind] for et, rank, kind in FLIGHT.events[-FLIGHT_TAIL:]
            ]
        try:
            self._sink(cursor)
            self._emitted += 1
        except Exception:
            # the listener is gone (dead parent, closed pipe): stop
            # beating and let the run finish or die on its own
            self.enabled = False


#: The process-wide emitter the kernel consults (once per run).
HEARTBEAT = HeartbeatEmitter()
