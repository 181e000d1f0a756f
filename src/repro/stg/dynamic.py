"""Dynamic task graph: the expanded, per-process task DAG of one run.

The POEMS environment pairs the static task graph with its dynamic
expansion for a concrete configuration.  Here the expansion is obtained
from the simulator's event trace: program order per process, message
edges between send/recv events, and collective events fused into
synchronization cliques.  networkx is used for graph algorithms
(critical path, reachability), which downstream modeling tools consume;
the functions here import it when called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.trace import Trace

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["trace_to_dag", "critical_path", "critical_path_length"]


def trace_to_dag(trace: Trace, weight: str = "virtual") -> nx.DiGraph:
    """Build the dynamic task DAG of a traced run.

    Node weights (``weight`` attribute) are either the event's virtual
    duration (``weight="virtual"``) or its host simulation cost
    (``weight="host"``).  Edges: per-process program order, message
    dependencies, and collective synchronization (all participants of a
    collective are pairwise ordered through a zero-cost join node).
    """
    if weight not in ("virtual", "host"):
        raise ValueError("weight must be 'virtual' or 'host'")
    import networkx as nx

    g = nx.DiGraph()
    for ev in trace.events:
        w = (ev.end - ev.start) if weight == "virtual" else ev.host_cost
        g.add_node(ev.eid, weight=w, kind=ev.kind, proc=ev.proc)
    # program order
    for events in trace.by_proc():
        for a, b in zip(events, events[1:]):
            g.add_edge(a.eid, b.eid)
    # message dependencies
    for ev in trace.events:
        for dep in ev.deps:
            g.add_edge(dep, ev.eid)
    # collective synchronization: join node per collective id
    colls: dict[int, list[int]] = {}
    for ev in trace.events:
        if ev.coll_id is not None:
            colls.setdefault(ev.coll_id, []).append(ev.eid)
    for cid, members in colls.items():
        join = f"coll_{cid}"
        g.add_node(join, weight=0.0, kind="join", proc=-1)
        for eid in members:
            # every member's *predecessor work* must finish before any
            # member completes: route through the join node
            for pred in list(g.predecessors(eid)):
                g.add_edge(pred, join)
            g.add_edge(join, eid)
    return g


def critical_path(g: nx.DiGraph) -> list:
    """Longest weighted path through the DAG (node weights)."""
    import networkx as nx

    order = list(nx.topological_sort(g))
    dist: dict = {}
    parent: dict = {}
    for n in order:
        w = g.nodes[n]["weight"]
        best, bestp = 0.0, None
        for p in g.predecessors(n):
            if dist[p] > best:
                best, bestp = dist[p], p
        dist[n] = best + w
        parent[n] = bestp
    end = max(dist, key=dist.get)
    path = [end]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return list(reversed(path))


def critical_path_length(g: nx.DiGraph) -> float:
    """Total weight along the critical path."""
    path = critical_path(g)
    return sum(g.nodes[n]["weight"] for n in path)
