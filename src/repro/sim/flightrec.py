"""The flight recorder: a bounded black box for post-mortem forensics.

When a simulation dies — deadlock, tripped watchdog budget, a
fault-plan-induced failure deep inside a campaign worker — the
exception message says *what* happened but not *what led up to it*.
The :class:`FlightRecorder` keeps the last N kernel events in a ring
buffer (a ``collections.deque`` with ``maxlen``), so the moment of
death comes with its immediate history: which ranks were active, what
they were doing, and in what virtual-time order.

Cost contract (the same one the tracer and metrics registry hold to):

* **Disabled (the default), the recorder adds zero hot-loop calls.**
  The event loop tests ``FLIGHT.enabled`` once per run (via
  :class:`~repro.sim.loop.RunHooks`) and binds the hook to ``None``;
  with no hook armed, a run pays one boolean test per event.
* **Enabled, the ring is bounded.**  Recording is one ``deque.append``
  of a small tuple per event (:meth:`FlightRecorder.appender`, no method
  call); memory is ``O(capacity)`` regardless of run length, and events
  evicted from the ring are counted, not kept.

Both drivers produce the same ``(t, rank, kind)`` entries in the same
order, so a run's ring does not depend on its backend.  Dumps are plain
dicts (JSON-safe) so they can ride inside campaign journal records, fuzz
failure reports and telemetry capsules.  The event loop attaches a dump
to :class:`~repro.sim.engine.DeadlockError` and
:class:`~repro.sim.budget.BudgetExceededError` automatically; for any
other failure the consumer calls :meth:`FlightRecorder.dump` itself —
the ring survives until the next ``reset()``.
"""

from __future__ import annotations

from collections import deque

__all__ = ["FlightRecorder", "FLIGHT", "format_flight_dump"]

#: dump schema version (bump when the dict shape changes)
DUMP_FORMAT = 1

#: default ring capacity: enough context to read a failure, small
#: enough to ride inside a journal record
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded ring buffer of kernel events; use the shared :data:`FLIGHT`.

    Each recorded event is a ``(t, rank, kind)`` tuple: virtual time,
    target rank, and the event kind (``resume``/``send``/``recv``/
    ``isend``/``irecv``/``wait``/``collective``/``crash``/``timeout``).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = False
        self.capacity = capacity
        self._events: deque[tuple[float, int, str]] = deque(maxlen=capacity)
        self._seen = 0
        self._meta: dict = {}

    # -- lifecycle -----------------------------------------------------------
    def enable(self, capacity: int | None = None, reset: bool = True) -> None:
        if capacity is not None and capacity != self.capacity:
            if capacity < 1:
                raise ValueError(f"capacity must be >= 1, got {capacity}")
            self.capacity = capacity
            self._events = deque(self._events, maxlen=capacity)
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._events.clear()
        self._seen = 0
        self._meta = {}

    # -- recording (enabled path only) ---------------------------------------
    def note(self, **meta) -> None:
        """Attach run metadata (mode, nprocs, seed) to subsequent dumps."""
        self._meta.update(meta)

    def record(self, t: float, rank: int, kind: str) -> None:
        """Record one kernel event; O(1), bounded by the ring capacity."""
        self._seen += 1
        self._events.append((t, rank, kind))

    def appender(self):
        """``(append, settle)`` for an event loop's hot path.

        ``append`` is the ring's own append of one ``(t, rank, kind)``
        tuple, with no method call per event; ``settle(n)`` accounts the
        *n* tuples appended since this call and must run before a dump.
        """
        base = self._seen

        def settle(n: int) -> None:
            self._seen = base + n

        return self._events.append, settle

    # -- the dump -------------------------------------------------------------
    @property
    def events(self) -> list[tuple[float, int, str]]:
        return list(self._events)

    @property
    def events_seen(self) -> int:
        """Total events recorded since the last reset (evicted included)."""
        return self._seen

    def dump(self, wait_chain: dict | None = None, budget: dict | None = None,
             error: str | None = None) -> dict:
        """Snapshot the ring as a JSON-safe post-mortem record.

        *wait_chain* is a serialized :class:`~repro.sim.faults.DeadlockReport`
        (see :func:`deadlock_report_to_dict`), *budget* a
        :meth:`~repro.sim.budget.BudgetGuard.snapshot`, *error* the
        one-line failure description.  All are optional — a dump without
        them is still the event history.
        """
        doc: dict = {
            "format": DUMP_FORMAT,
            "capacity": self.capacity,
            "events_seen": self._seen,
            "events_dropped": max(0, self._seen - len(self._events)),
            "events": [[t, rank, kind] for t, rank, kind in self._events],
        }
        if self._meta:
            doc["meta"] = dict(self._meta)
        if error is not None:
            doc["error"] = error
        if wait_chain is not None:
            doc["wait_chain"] = wait_chain
        if budget is not None:
            doc["budget"] = budget
        return doc


#: The process-wide recorder the kernel consults (once per run).
FLIGHT = FlightRecorder()


def deadlock_report_to_dict(report) -> dict:
    """Serialize a :class:`~repro.sim.faults.DeadlockReport` for a dump."""
    return {
        "nprocs": report.nprocs,
        "blocked": [
            {
                "rank": w.rank,
                "state": w.state,
                "since": w.since,
                "detail": w.detail,
                "waiting_on": list(w.waiting_on),
            }
            for w in report.blocked
        ],
        "crashed": [
            {"rank": w.rank, "since": w.since, "detail": w.detail}
            for w in report.crashed
        ],
        "cycles": [list(c) for c in report.cycles()],
        "unmatched_sends": [list(s) for s in report.unmatched_sends],
        "unmatched_recvs": [list(r) for r in report.unmatched_recvs],
        "stragglers": [
            [op, root, list(members), list(arrived), list(missing)]
            for op, root, members, arrived, missing in report.stragglers
        ],
    }


def format_flight_dump(dump: dict, last: int = 10) -> str:
    """Render a flight-recorder dump: per-rank tails, waits, budget.

    *last* bounds the per-rank event tail (the newest events win).
    """
    lines = ["Flight recorder dump"]
    meta = dump.get("meta") or {}
    if meta:
        lines.append("  " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    if dump.get("error"):
        lines.append(f"  error: {dump['error']}")
    seen = dump.get("events_seen", 0)
    dropped = dump.get("events_dropped", 0)
    lines.append(
        f"  {seen} events seen, {len(dump.get('events', []))} retained"
        + (f", {dropped} evicted from the ring" if dropped else "")
    )
    per_rank: dict[int, list[tuple[float, str]]] = {}
    for t, rank, kind in dump.get("events", []):
        per_rank.setdefault(int(rank), []).append((float(t), str(kind)))
    for rank in sorted(per_rank):
        tail = per_rank[rank][-last:]
        rendered = " ".join(f"{kind}@{t:.6g}" for t, kind in tail)
        lines.append(f"  rank {rank}: last {len(tail)} event(s): {rendered}")
    wait = dump.get("wait_chain")
    if wait:
        lines.append("  wait chains:")
        for w in wait.get("blocked", []):
            on = (
                " <- waiting on rank(s) "
                + ", ".join(str(r) for r in w.get("waiting_on", []))
                if w.get("waiting_on")
                else ""
            )
            lines.append(f"    rank {w['rank']}: {w['detail']}{on}")
        for w in wait.get("crashed", []):
            lines.append(f"    rank {w['rank']}: {w['detail']}")
        for cyc in wait.get("cycles", []):
            chain = " -> ".join(str(r) for r in cyc + cyc[:1])
            lines.append(f"    circular wait: {chain}")
    budget = dump.get("budget")
    if budget:
        parts = [f"events={budget.get('events')}"]
        for key in ("max_events", "max_virtual_time", "max_wall_seconds"):
            if budget.get(key) is not None:
                parts.append(f"{key}={budget[key]:g}")
        if budget.get("wall_seconds") is not None:
            parts.append(f"wall_seconds={budget['wall_seconds']:.3g}")
        lines.append("  budget state: " + " ".join(parts))
    return "\n".join(lines)
