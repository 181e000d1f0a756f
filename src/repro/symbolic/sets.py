"""Symbolic process sets and rank mappings for the static task graph.

Each STG node "represents a set of possible parallel tasks, typically one
per process, identified by a symbolic set of integer process identifiers"
(paper, Sec. 2.2), e.g. ``{[p] : 0 <= p <= P-1}``.  Each communication
edge carries "a symbolic integer mapping" between tasks, e.g.
``{[p] -> [q] : q = p-1, p >= 1}``.

Rank spaces are one-dimensional here (MPI ranks); multi-dimensional
process grids (Sweep3D, NAS SP) are expressed through ``Mod``/``FloorDiv``
expressions over the rank, exactly as the generated MPI code computes its
grid coordinates from ``myid``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from .boolean import TRUE, BoolExpr, Ge, Le, as_bool_expr
from .expr import ExprLike, Number, Var, as_expr

__all__ = ["ProcessSet", "RankMapping", "all_processes", "RANK"]

#: Canonical symbolic rank variable used in process sets and mappings.
RANK = Var("p")


class ProcessSet:
    """A symbolic set of process ranks ``{[p] : lo <= p <= hi and guard}``.

    *lo*, *hi* and *guard* may reference program variables (``P``, ``N``,
    grid extents ...) as well as the bound rank variable ``p``.
    """

    __slots__ = ("lo", "hi", "guard")

    def __init__(self, lo: ExprLike, hi: ExprLike, guard: BoolExpr | bool = True):
        self.lo = as_expr(lo)
        self.hi = as_expr(hi)
        self.guard = as_bool_expr(guard)

    # -- identity -----------------------------------------------------------
    def _key(self):
        return (self.lo, self.hi, self.guard)

    def __eq__(self, other):
        if not isinstance(other, ProcessSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(("ProcessSet",) + self._key())

    # -- semantics ------------------------------------------------------------
    def predicate(self) -> BoolExpr:
        """The full membership predicate over the rank variable ``p``."""
        return Ge(RANK, self.lo) & Le(RANK, self.hi) & self.guard

    def contains(self, rank: int, env: Mapping[str, Number]) -> bool:
        """Is *rank* a member under the concrete environment *env*?"""
        scope = dict(env)
        scope[RANK.name] = rank
        return self.predicate().evaluate(scope)

    def members(self, env: Mapping[str, Number]) -> Iterator[int]:
        """Enumerate concrete member ranks under *env* (ascending)."""
        lo = int(self.lo.evaluate(env))
        hi = int(self.hi.evaluate(env))
        for rank in range(lo, hi + 1):
            scope = dict(env)
            scope[RANK.name] = rank
            if self.guard.evaluate(scope):
                yield rank

    def cardinality(self, env: Mapping[str, Number]) -> int:
        """Number of member ranks under *env*."""
        return sum(1 for _ in self.members(env))

    def free_vars(self) -> frozenset:
        fvs = self.lo.free_vars() | self.hi.free_vars() | self.guard.free_vars()
        return fvs - {RANK.name}

    def restrict(self, guard: BoolExpr) -> "ProcessSet":
        """Return a copy with an additional guard conjunct."""
        return ProcessSet(self.lo, self.hi, self.guard & guard)

    def __str__(self):
        body = f"{self.lo} <= p <= {self.hi}"
        if self.guard != TRUE:
            body += f" and {self.guard}"
        return "{[p] : " + body + "}"

    def __repr__(self):
        return f"ProcessSet<{self}>"


def all_processes(nprocs: ExprLike = Var("P")) -> ProcessSet:
    """The full rank set ``{[p] : 0 <= p <= nprocs-1}``."""
    return ProcessSet(0, as_expr(nprocs) - 1)


class RankMapping:
    """A symbolic mapping from a sender rank ``p`` to a partner rank.

    ``target`` is an expression over ``p`` (and program variables);
    ``guard`` limits the domain, e.g. the paper's shift example is
    ``RankMapping(target=p-1, guard=p >= 1)``.
    """

    __slots__ = ("target", "guard")

    def __init__(self, target: ExprLike, guard: BoolExpr | bool = True):
        self.target = as_expr(target)
        self.guard = as_bool_expr(guard)

    def _key(self):
        return (self.target, self.guard)

    def __eq__(self, other):
        if not isinstance(other, RankMapping):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(("RankMapping",) + self._key())

    def applies(self, rank: int, env: Mapping[str, Number]) -> bool:
        """Does the mapping have an image for *rank* under *env*?"""
        scope = dict(env)
        scope[RANK.name] = rank
        return self.guard.evaluate(scope)

    def apply(self, rank: int, env: Mapping[str, Number]) -> int | None:
        """The partner of *rank* under *env*, or None when guarded out."""
        scope = dict(env)
        scope[RANK.name] = rank
        if not self.guard.evaluate(scope):
            return None
        return int(self.target.evaluate(scope))

    def pairs(self, env: Mapping[str, Number], domain: ProcessSet) -> Iterator[tuple[int, int]]:
        """Enumerate concrete ``(p, q)`` pairs for members of *domain*."""
        for rank in domain.members(env):
            q = self.apply(rank, env)
            if q is not None:
                yield rank, q

    def free_vars(self) -> frozenset:
        return (self.target.free_vars() | self.guard.free_vars()) - {RANK.name}

    def __str__(self):
        body = f"q = {self.target}"
        if self.guard != TRUE:
            body += f", {self.guard}"
        return "{[p] -> [q] : " + body + "}"

    def __repr__(self):
        return f"RankMapping<{self}>"
