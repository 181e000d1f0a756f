"""Host-machine model: how long does the *simulator itself* take?

MPI-Sim executes on a host machine with H processors, each running the
simulation kernel over a partition of the target threads under a
conservative parallel simulation protocol (Sec. 2.1).  The paper's
Figures 12–16 report the simulator's own runtimes and speedups; this
module predicts them by replaying the dependency-annotated event trace
of a simulation run onto H modelled host processors:

* each event costs its recorded host CPU time (direct-execution cost
  for computation under DE, delay-call cost under AM, per-message
  simulation overheads for communication);
* events are processed per host in virtual-timestamp order (the
  conservative discipline);
* a cross-host message dependency adds protocol latency and
  null-message bookkeeping — with many small cross-host messages this
  is the term that saturates speedup (a null-message protocol's
  synchronization traffic follows the application's channel traffic);
* collectives synchronize all hosts through a log-tree release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machine import MachineParams
from ..sim.trace import Trace

__all__ = ["HostEstimate", "simulate_host_execution", "sequential_host_time"]


@dataclass(frozen=True)
class HostEstimate:
    """Predicted execution of the simulator on *n_hosts* processors."""

    n_hosts: int
    wall_time: float  # predicted simulator runtime
    busy_time: float  # total host CPU seconds across hosts
    sync_time: float  # conservative-protocol synchronization share
    events: int

    @property
    def efficiency(self) -> float:
        """Parallel efficiency: busy work over allotted host time."""
        denom = self.wall_time * self.n_hosts
        return self.busy_time / denom if denom > 0 else 1.0


def sequential_host_time(trace: Trace, machine: MachineParams | None = None) -> float:
    """Host time of a one-processor simulation: the sum of event costs."""
    return trace.total_host_cost()


def simulate_host_execution(
    trace: Trace,
    n_hosts: int,
    machine: MachineParams,
) -> HostEstimate:
    """Replay *trace* onto *n_hosts* host processors.

    Target processes are block-partitioned over hosts (MPI-Sim maps
    target threads statically).  Each host works through its events in
    virtual-timestamp order — the conservative discipline — stalling
    when the next event's cross-host dependency has not been simulated
    yet.  Returns the predicted wall time.
    """
    if n_hosts < 1:
        raise ValueError("n_hosts must be >= 1")
    host = machine.host
    nprocs = trace.nprocs
    n_hosts = min(n_hosts, nprocs)
    if not trace.events:
        return HostEstimate(n_hosts=n_hosts, wall_time=0.0, busy_time=0.0, sync_time=0.0, events=0)

    def host_of(proc: int) -> int:
        return proc * n_hosts // nprocs

    # per-process program order is virtual completion order (non-blocking
    # completions slot in when their message arrives, which is exactly
    # when the kernel handles them), and so is each host's queue
    proc_pred = trace.program_predecessors()
    order_key = {ev.eid: (ev.end, ev.eid) for ev in trace.events}
    queues: list[list] = [[] for _ in range(n_hosts)]
    for ev in trace.events:
        queues[host_of(ev.proc)].append(ev)
    for q in queues:
        q.sort(key=lambda e: order_key[e.eid])

    coll_members = trace.collectives()
    coll_release: dict[int, float] = {}

    done: dict[int, float] = {}
    host_free = [0.0] * n_hosts
    idx = [0] * n_hosts
    busy = 0.0
    sync = 0.0
    remaining = len(trace.events)

    def readiness(ev, h) -> float | None:
        """Wall time at which *ev* may start, or None if blocked."""
        ready = 0.0
        pred = proc_pred[ev.eid]
        if pred is not None:
            t = done.get(pred)
            if t is None:
                return None
            ready = t
        for dep in ev.deps:
            t = done.get(dep)
            if t is None:
                return None
            if host_of(trace.events[dep].proc) != h:
                t += host.host_latency + host.null_message_overhead
            ready = max(ready, t)
        if ev.coll_id is not None:
            rel = coll_release.get(ev.coll_id)
            if rel is None:
                members = coll_members[ev.coll_id]
                rel = 0.0
                for m in members:
                    p = proc_pred[m.eid]
                    if p is not None:
                        t = done.get(p)
                        if t is None:
                            return None
                        rel = max(rel, t)
                hosts_involved = {host_of(m.proc) for m in members}
                if len(hosts_involved) > 1:
                    rel += host.host_latency * math.ceil(math.log2(len(hosts_involved)))
                coll_release[ev.coll_id] = rel
            ready = max(ready, rel)
        return ready

    while remaining:
        progress = False
        for h in range(n_hosts):
            q = queues[h]
            while idx[h] < len(q):
                ev = q[idx[h]]
                ready = readiness(ev, h)
                if ready is None:
                    break  # conservative: the host stalls on its next event
                if ev.deps and any(
                    host_of(trace.events[d].proc) != h for d in ev.deps
                ):
                    sync += host.null_message_overhead
                start = max(ready, host_free[h])
                end = start + ev.host_cost
                busy += ev.host_cost
                host_free[h] = end
                done[ev.eid] = end
                idx[h] += 1
                remaining -= 1
                progress = True
        if not progress:
            stuck = [q[idx[h]].eid for h, q in enumerate(queues) if idx[h] < len(q)]
            raise RuntimeError(
                f"host replay deadlocked; first stuck events: {stuck[:8]} "
                "(trace dependencies are cyclic under virtual-time ordering)"
            )

    return HostEstimate(
        n_hosts=n_hosts,
        wall_time=max(host_free),
        busy_time=busy,
        sync_time=sync,
        events=len(trace.events),
    )
