"""Task-graph condensation: collapse computation/control regions.

"The next stage is to identify contiguous regions of computational
tasks and/or control-flow in the STG that can be collapsed into a
single condensed task [...].  First, a collapsed region must not
include any branches that exit the region [our structured IR has no
early exits, so this holds by construction].  Second, a collapsed
region must contain no communication tasks because we aim to simulate
communication precisely.  Finally, deciding whether to collapse
conditional branches involves a difficult tradeoff [...]" (Sec. 3.1)

For data-dependent branches (conditions derived from large-array
values) we implement both of the paper's approaches:

* the default *statistical* approach — eliminate the branch and weight
  the arm costs by the profiled taken-probability;
* the *directive* approach — ``directives[sid] = probability`` lets the
  user pin a probability (or effectively disable an arm with 0.0/1.0).

Branches on retained variables (``myid`` tests etc.) condense exactly,
as a :class:`repro.symbolic.Cond` cost expression.

While collapsing, "we also compute a scaling expression for each
collapsed task" — built from per-block time variables ``w_<task>``
multiplied by each block's symbolic iteration count, summed over
enclosing loops (:class:`repro.symbolic.Sum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.interp import BranchProfile
from ..ir.nodes import (
    ArrayAssign,
    Assign,
    CompBlock,
    For,
    If,
    Program,
    Stmt,
)
from ..symbolic import Cond, Const, Expr, Sum, Var, as_expr

__all__ = [
    "Region", "PlanRetain", "PlanRegion", "CondensePlan", "condense", "w_param",
    "merged_directives", "profiled_probabilities",
]


def w_param(task: str) -> str:
    """Parameter name of a task's per-iteration time coefficient."""
    return f"w_{task}"


@dataclass(frozen=True)
class Region:
    """One condensed task: a contiguous, communication-free region."""

    name: str
    sids: tuple[int, ...]  # every statement id inside the region
    cost: Expr  # scaling function over w_<task> params and retained vars
    blocks: tuple[str, ...]  # contributing CompBlock names (-> w params)


@dataclass
class PlanRetain:
    """A retained statement; loops/branches carry plans for their bodies."""

    stmt: Stmt
    body_plans: tuple[list, ...] = ()


@dataclass
class PlanRegion:
    """A condensable region replacing the original statements."""

    region: Region
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class CondensePlan:
    """The condensed task graph, structured parallel to the program IR."""

    program: Program
    root: list  # list[PlanRetain | PlanRegion]
    regions: list[Region] = field(default_factory=list)
    eliminated_branches: list[int] = field(default_factory=list)  # If sids
    pinned: frozenset[int] = frozenset()

    def w_params(self) -> tuple[str, ...]:
        """All w_i parameter names the condensed cost expressions use."""
        names: list[str] = []
        for r in self.regions:
            for b in r.blocks:
                p = w_param(b)
                if p not in names:
                    names.append(p)
        return tuple(names)

    def region_for(self, sid: int) -> Region | None:
        for r in self.regions:
            if sid in r.sids:
                return r
        return None


def merged_directives(program: Program, directives: dict[int, float] | None) -> dict[int, float]:
    """The branch directives condensation applies: the program's
    ``eliminate_branches`` meta, overridden by *directives*."""
    return dict(program.meta.get("eliminate_branches", {})) | dict(directives or {})


def _profiled(profile: BranchProfile | None, sid: int) -> float:
    return profile.probability(sid) if profile else 0.5


def profiled_probabilities(
    program: Program, profile: BranchProfile | None, directives: dict[int, float]
) -> tuple[tuple[int, float], ...]:
    """``(sid, probability)`` of each data-dependent branch of *program*
    that no directive in (merged) *directives* covers: everything
    condensation may read from *profile*."""
    return tuple(
        (s.sid, _profiled(profile, s.sid)) for s in program.statements()
        if isinstance(s, If) and s.data_dependent and s.sid not in directives
    )


def condense(
    program: Program,
    profile: BranchProfile | None = None,
    directives: dict[int, float] | None = None,
    pinned: frozenset[int] | set[int] = frozenset(),
) -> CondensePlan:
    """Condense *program*'s computation/control regions.

    ``pinned`` statement ids are never condensed (slicing pins blocks
    whose computed values the retained code needs — they stay directly
    executed).  ``directives`` overrides branch probabilities per the
    paper's precise approach; otherwise ``profile`` supplies them.
    """
    directives = merged_directives(program, directives)
    pinned = frozenset(pinned)
    builder = _Condenser(profile, directives, pinned)
    root = builder.plan_block(program.body)
    return CondensePlan(
        program=program,
        root=root,
        regions=builder.regions,
        eliminated_branches=builder.eliminated,
        pinned=pinned,
    )


def _all_sids(stmts: list[Stmt]) -> list[int]:
    from ..ir.nodes import walk

    return [s.sid for s in walk(stmts)]


def _block_names(stmts: list[Stmt]) -> list[str]:
    from ..ir.nodes import walk

    names = []
    for s in walk(stmts):
        if isinstance(s, CompBlock) and s.name not in names:
            names.append(s.name)
    return names


class _Condenser:
    def __init__(self, profile, directives, pinned):
        self.profile = profile
        self.directives = directives
        self.pinned = pinned
        self.regions: list[Region] = []
        self.eliminated: list[int] = []
        self._elim_candidates: list[int] = []

    # -- cost computation (None = not condensable) ----------------------------
    def cost_of(self, s: Stmt) -> Expr | None:
        if s.is_comm():
            return None
        if isinstance(s, (Assign, ArrayAssign)):
            return Const(0)
        if isinstance(s, CompBlock):
            if s.sid in self.pinned:
                return None
            return Var(w_param(s.name)) * s.work
        if isinstance(s, For):
            body = self.cost_of_list(s.body)
            if body is None:
                return None
            return Sum.make(s.var, s.lo, s.hi, body)
        if isinstance(s, If):
            then = self.cost_of_list(s.then)
            orelse = self.cost_of_list(s.orelse)
            if then is None or orelse is None:
                return None
            if s.data_dependent:
                p = self.directives.get(s.sid)
                if p is None:
                    p = _profiled(self.profile, s.sid)
                self._elim_candidates.append(s.sid)
                return as_expr(p) * then + as_expr(1.0 - p) * orelse
            return Cond.make(s.cond, then, orelse)
        return None  # timers, delays, generated statements: never condensed

    def cost_of_list(self, stmts: list[Stmt]) -> Expr | None:
        total: Expr = Const(0)
        for s in stmts:
            c = self.cost_of(s)
            if c is None:
                return None
            total = total + c
        return total

    # -- region segmentation ----------------------------------------------------------
    def plan_block(self, stmts: list[Stmt]) -> list:
        items: list = []
        run: list[tuple[Stmt, Expr]] = []
        run_elims: list[int] = []

        def flush():
            if not run:
                return
            region_stmts = [s for s, _ in run]
            cost: Expr = Const(0)
            for _, c in run:
                cost = cost + c
            region = Region(
                name=f"T{len(self.regions)}",
                sids=tuple(_all_sids(region_stmts)),
                cost=cost,
                blocks=tuple(_block_names(region_stmts)),
            )
            if region.cost != Const(0):
                # zero-cost runs (pure scalar code) need no condensed task;
                # slicing alone decides what survives of them
                self.regions.append(region)
                self.eliminated.extend(run_elims)
            run_elims.clear()
            items.append(PlanRegion(region=region, stmts=region_stmts))
            run.clear()

        for s in stmts:
            self._elim_candidates = []
            c = self.cost_of(s)
            if c is not None:
                run.append((s, c))
                run_elims.extend(self._elim_candidates)
                continue
            flush()
            body_plans = tuple(self.plan_block(b) for b in s.children())
            items.append(PlanRetain(stmt=s, body_plans=body_plans))
        flush()
        return items
