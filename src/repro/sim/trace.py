"""Event tracing: the dependency-annotated record of a simulation run.

The host-performance model (``repro.parallel``) replays this trace onto
a set of host processors to predict how long MPI-Sim itself would take,
sequentially or in parallel under a conservative protocol.  Each event
records its virtual-time interval on the target, the host CPU cost of
simulating it, and its cross-process dependencies (message receipt,
collective membership).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One simulated event.

    ``deps`` lists globally-unique ids of events on *other* processes
    that must be simulated before this one (same-process program order
    is implicit in event order).  ``coll_id`` groups the per-participant
    events of one collective operation, which synchronize all ranks.
    """

    eid: int
    proc: int
    kind: str  # compute | delay | send | recv | wait | collective
    start: float  # local virtual time when the event begins
    end: float  # local virtual time when it completes
    host_cost: float  # host CPU seconds to simulate this event
    deps: tuple[int, ...] = ()
    coll_id: int | None = None
    nbytes: int = 0
    #: Kernel-side completion of a non-blocking operation: occupies the
    #: host when it occurs but does not order against the process's own
    #: subsequent actions (only the matching "wait" event joins it).
    nonblocking: bool = False


@dataclass
class Trace:
    """An append-only event log for one simulation run."""

    nprocs: int
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, **kwargs) -> int:
        """Append an event, assigning the next event id; returns the id."""
        eid = len(self.events)
        self.events.append(TraceEvent(eid=eid, **kwargs))
        return eid

    def __len__(self):
        return len(self.events)

    def by_proc(self) -> list[list[TraceEvent]]:
        """Events grouped per process, in program order."""
        out: list[list[TraceEvent]] = [[] for _ in range(self.nprocs)]
        for ev in self.events:
            out[ev.proc].append(ev)
        return out

    def program_predecessors(self) -> dict[int, int | None]:
        """Each event's same-process gating predecessor, by event id.

        Program order is completion order, ``(end, eid)``.  A non-blocking
        completion occupies the host when it occurs but does not order
        the process's own subsequent events (only the matching wait joins
        it), so it is never a predecessor.  The critical path
        (:mod:`repro.obs.critical_path`) and the host replay
        (:mod:`repro.parallel.hostmodel`) both walk this order.
        """
        pred: dict[int, int | None] = {}
        for events in self.by_proc():
            prev = None
            for ev in sorted(events, key=lambda e: (e.end, e.eid)):
                pred[ev.eid] = prev
                if not ev.nonblocking:
                    prev = ev.eid
        return pred

    def collectives(self) -> dict[int, list[TraceEvent]]:
        """The member events of each collective, by ``coll_id``, in event order."""
        members: dict[int, list[TraceEvent]] = {}
        for ev in self.events:
            if ev.coll_id is not None:
                members.setdefault(ev.coll_id, []).append(ev)
        return members

    def total_host_cost(self) -> float:
        return sum(ev.host_cost for ev in self.events)
