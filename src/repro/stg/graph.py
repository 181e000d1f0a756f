"""The static task graph (STG) data model.

"Each node of the STG represents a set of possible parallel tasks,
typically one per process, identified by a symbolic set of integer
process identifiers. [...] Each edge of the graph represents a set of
parallel edges connecting pairs of parallel tasks described by a
symbolic integer mapping." (paper, Sec. 2.2)

Nodes fall into control-flow, computation and communication categories;
computational nodes carry a symbolic scaling function, communication
nodes carry pattern and volume information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..symbolic import Expr, ProcessSet, RankMapping

__all__ = ["STGNode", "STGEdge", "STG", "NODE_KINDS"]

NODE_KINDS = ("compute", "send", "recv", "collective", "loop", "branch", "assign", "condensed")


@dataclass(frozen=True)
class STGNode:
    """One STG node: a symbolic set of parallel tasks.

    ``work`` is the scaling function for compute/condensed nodes;
    ``comm_bytes`` the symbolic message volume for communication nodes;
    ``mapping`` the partner mapping for point-to-point nodes; ``sids``
    the source-region marker (IR statement ids the node covers).
    """

    nid: int
    kind: str
    label: str
    pset: ProcessSet
    sids: tuple[int, ...] = ()
    work: Expr | None = None
    comm_bytes: Expr | None = None
    mapping: RankMapping | None = None

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown STG node kind {self.kind!r}")

    def __str__(self):
        base = f"[{self.nid}] {self.kind} {self.label} {self.pset}"
        if self.work is not None:
            base += f" work={self.work}"
        if self.comm_bytes is not None:
            base += f" bytes={self.comm_bytes}"
        if self.mapping is not None:
            base += f" map={self.mapping}"
        return base


@dataclass(frozen=True)
class STGEdge:
    """Control-flow or communication edge between two STG nodes."""

    src: int
    dst: int
    kind: str  # "control" | "communication"
    mapping: RankMapping | None = None

    def __post_init__(self):
        if self.kind not in ("control", "communication"):
            raise ValueError(f"unknown STG edge kind {self.kind!r}")


@dataclass
class STG:
    """A static task graph: symbolic nodes plus control/communication edges."""

    program_name: str
    nodes: list[STGNode] = field(default_factory=list)
    edges: list[STGEdge] = field(default_factory=list)

    def add_node(self, **kwargs) -> STGNode:
        node = STGNode(nid=len(self.nodes), **kwargs)
        self.nodes.append(node)
        return node

    def add_edge(self, src: STGNode | int, dst: STGNode | int, kind: str, mapping=None) -> STGEdge:
        s = src.nid if isinstance(src, STGNode) else src
        d = dst.nid if isinstance(dst, STGNode) else dst
        edge = STGEdge(s, d, kind, mapping)
        self.edges.append(edge)
        return edge

    def nodes_of_kind(self, kind: str) -> list[STGNode]:
        return [n for n in self.nodes if n.kind == kind]

    def control_edges(self) -> list[STGEdge]:
        return [e for e in self.edges if e.kind == "control"]

    def communication_edges(self) -> list[STGEdge]:
        return [e for e in self.edges if e.kind == "communication"]

    def __str__(self):
        lines = [f"STG({self.program_name}): {len(self.nodes)} nodes, {len(self.edges)} edges"]
        lines.extend(f"  {n}" for n in self.nodes)
        for e in self.edges:
            arrow = "->" if e.kind == "control" else "~>"
            lines.append(f"  {e.src} {arrow} {e.dst}" + (f" {e.mapping}" if e.mapping else ""))
        return "\n".join(lines)
