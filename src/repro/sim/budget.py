"""Watchdog budgets: kill runaway simulations cleanly, with evidence.

A pathological configuration — a livelocked retry storm, an
accidentally huge problem size, an adversarial fault plan — can make a
single :class:`repro.sim.Simulator` run consume unbounded kernel events,
virtual time or host wall-clock time.  In a multi-run campaign that one
run would otherwise hang the whole fleet.

:class:`BudgetGuard` bounds a run along three independent axes:

* ``max_events`` — kernel events executed (heap pops);
* ``max_virtual_time`` — the simulated target clock (seconds);
* ``max_wall_seconds`` — host wall-clock time spent simulating.

When a limit trips, the event loop raises :class:`BudgetExceededError`
carrying the **partial** :class:`repro.sim.SimStats` accumulated so far,
so the caller can classify the outcome and report how far the run got —
instead of a hung process or a bare traceback.  The event loop consults
the guard through :class:`repro.sim.loop.RunHooks`: the event limit
trips exactly, the virtual-time limit is checked on every event, and the
wall clock on the first event and then at least every 1024 events.
"""

from __future__ import annotations

import math
import time

__all__ = ["BudgetExceededError", "BudgetGuard"]


class BudgetExceededError(RuntimeError):
    """A simulation run exceeded one of its watchdog budgets.

    Attributes
    ----------
    kind:
        Which axis tripped: ``"events"``, ``"virtual_time"`` or
        ``"wall_time"``.
    limit:
        The configured budget along that axis.
    observed:
        The value that exceeded it.
    stats:
        Partial :class:`repro.sim.SimStats` at the moment the watchdog
        fired (per-rank counters are valid; ``elapsed`` reflects only
        finished processes).
    flight:
        The flight recorder's dump when the recorder was enabled for
        the run (see :mod:`repro.sim.flightrec`), else ``None``.
    """

    flight: dict | None = None

    def __init__(self, kind: str, limit: float, observed: float, stats=None):
        super().__init__(
            f"simulation exceeded its {kind} budget "
            f"(observed {observed:.6g}, limit {limit:.6g})"
        )
        self.kind = kind
        self.limit = limit
        self.observed = observed
        self.stats = stats


def _check_limit(name: str, value: float | None) -> None:
    if value is not None and (not math.isfinite(value) or value <= 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


class BudgetGuard:
    """Per-run budget state the event loop consults (see :class:`RunHooks`)."""

    __slots__ = ("max_events", "max_virtual_time", "max_wall_seconds", "events", "_wall_start")

    def __init__(
        self,
        max_events: int | None = None,
        max_virtual_time: float | None = None,
        max_wall_seconds: float | None = None,
    ):
        _check_limit("max_events", max_events)
        _check_limit("max_virtual_time", max_virtual_time)
        _check_limit("max_wall_seconds", max_wall_seconds)
        self.max_events = max_events
        self.max_virtual_time = max_virtual_time
        self.max_wall_seconds = max_wall_seconds
        self.events = 0
        self._wall_start: float | None = None

    @property
    def active(self) -> bool:
        return (
            self.max_events is not None
            or self.max_virtual_time is not None
            or self.max_wall_seconds is not None
        )

    def start(self) -> None:
        """Arm the wall clock at the beginning of the run."""
        self._wall_start = time.perf_counter()

    def snapshot(self, virtual_time: float | None = None) -> dict:
        """JSON-safe budget state (flight-recorder dumps, capsules)."""
        wall = (
            time.perf_counter() - self._wall_start
            if self._wall_start is not None
            else None
        )
        return {
            "events": self.events,
            "max_events": self.max_events,
            "max_virtual_time": self.max_virtual_time,
            "max_wall_seconds": self.max_wall_seconds,
            "virtual_time": virtual_time,
            "wall_seconds": wall,
        }

    def violation(self, t: float) -> tuple[str, float, float] | None:
        """The first budget a run at ``events`` events and virtual time *t*
        exceeds, as ``(kind, limit, observed)``, else ``None``.

        The virtual clock check exploits the event queue's timestamp
        order: the first event past the limit proves every later one is
        too.
        """
        if self.max_events is not None and self.events > self.max_events:
            return ("events", float(self.max_events), float(self.events))
        if self.max_virtual_time is not None and t > self.max_virtual_time:
            return ("virtual_time", self.max_virtual_time, t)
        if self.max_wall_seconds is not None:
            if self._wall_start is None:
                # Direct callers that skipped start(): arm the clock at the
                # first event rather than measuring from the perf_counter
                # epoch, which would trip the budget instantly.
                self.start()
            wall = time.perf_counter() - self._wall_start
            if wall > self.max_wall_seconds:
                return ("wall_time", self.max_wall_seconds, wall)
        return None
