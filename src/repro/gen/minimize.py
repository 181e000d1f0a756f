"""Delta-debugging auto-minimizer for divergent generated programs.

Given a program and a *reproduces* predicate (typically "the harness
still returns this failure kind"), shrink the program while the
predicate holds.  Three reduction passes run to a joint fixpoint:

1. **Statement deletion** — classic ddmin over every statement list in
   the program (top level and the bodies of ``For``/``If`` recursively):
   try dropping chunks of geometrically decreasing size, keeping any
   deletion that still reproduces.
2. **Loop-trip reduction** — rewrite constant ``For`` bounds so loops
   run fewer iterations (down to a single trip).
3. **Constant shrinking** — message sizes and compute grains shrink
   toward small round values.

Candidates are new programs built with ``dataclasses.replace`` from the
current best one, which the IR's immutability leaves untouched; a
program numbers its statements as it is built.  Every candidate is
re-validated before the predicate sees it; candidates that no longer
form a valid program are rejected outright, so the minimizer can never
"reduce" a divergence into a different bug class by emitting garbage.

The result is small enough to read and commit: an injected divergence
reduces to at most 25% of its original statement count
(``tests/gen/test_minimize.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from ..ir.nodes import For, If, Program, Stmt, walk
from ..symbolic import Const

__all__ = ["minimize_program", "MinimizeResult"]


def _count_stmts(program: Program) -> int:
    return sum(1 for _ in walk(program.body))


def _revalidate(program: Program) -> Program | None:
    """The candidate, or None if it is no longer well-formed."""
    if not program.body:
        return None
    try:
        program.validate()
    except Exception:  # noqa: BLE001 - any validation failure disqualifies the candidate
        return None
    return program


#: A statement list's address: the sid of the statement owning it (None
#: for the program body) and the field holding it.
_Site = tuple[int | None, str]


def _stmt_lists(program: Program) -> list[_Site]:
    """Every statement list in the program, outermost first."""
    sites: list[_Site] = [(None, "body")]
    for stmt in walk(program.body):
        if isinstance(stmt, For):
            sites.append((stmt.sid, "body"))
        elif isinstance(stmt, If):
            sites.append((stmt.sid, "then"))
            if stmt.orelse:
                sites.append((stmt.sid, "orelse"))
    return sites


def _stmts_at(program: Program, site: _Site) -> tuple[Stmt, ...]:
    owner, name = site
    return program.body if owner is None else getattr(program.find(owner), name)


def _substituted(stmts: tuple[Stmt, ...], sid: int, new: Stmt) -> tuple[Stmt, ...]:
    """*stmts* with the statement numbered *sid*, at any depth, replaced by
    *new*; a list that does not hold it comes back as the same object."""
    out = []
    for s in stmts:
        if s.sid == sid:
            s = new
        elif s.sid < sid and s.block_fields:
            blocks = {name: _substituted(getattr(s, name), sid, new) for name in s.block_fields}
            if any(block is not getattr(s, name) for name, block in blocks.items()):
                s = replace(s, **blocks)
        out.append(s)
    return stmts if all(a is b for a, b in zip(out, stmts)) else tuple(out)


def _with_stmt(program: Program, new: Stmt) -> Program:
    """*program* with its statement numbered ``new.sid`` replaced by *new*."""
    return replace(program, body=_substituted(program.body, new.sid, new))


def _with_stmts(program: Program, site: _Site, stmts: tuple[Stmt, ...]) -> Program:
    """*program* with the statement list at *site* replaced by *stmts*."""
    owner, name = site
    if owner is None:
        return replace(program, body=stmts)
    return _with_stmt(program, replace(program.find(owner), **{name: stmts}))


class _Minimizer:
    def __init__(
        self,
        program: Program,
        reproduces: Callable[[Program], bool],
        max_checks: int,
    ):
        self.best = program
        self.reproduces = reproduces
        self.max_checks = max_checks
        self.checks = 0

    def _try(self, candidate: Program) -> bool:
        """Accept ``candidate`` as the new best if it still reproduces."""
        if self.checks >= self.max_checks:
            return False
        candidate = _revalidate(candidate)
        if candidate is None:
            return False
        self.checks += 1
        try:
            ok = bool(self.reproduces(candidate))
        except Exception:  # noqa: BLE001 - predicate crashes count as "does not reproduce"
            ok = False
        if ok:
            self.best = candidate
        return ok

    # -- pass 1: ddmin over statement lists -----------------------------------
    def _delete_statements(self) -> bool:
        """One full ddmin sweep over every statement list; True if shrunk."""
        shrunk = False
        # Address lists by index: _stmt_lists order is deterministic (DFS,
        # outermost first), so index i names the same list until a
        # deletion removes a For/If before it.
        list_idx = 0
        while list_idx < len(_stmt_lists(self.best)):
            chunk = max(len(_stmts_at(self.best, _stmt_lists(self.best)[list_idx])) // 2, 1)
            while chunk >= 1:
                progressed = False
                start = 0
                while True:
                    # An accepted deletion can remove a For/If and with it
                    # a nested list, so re-check the index every pass.
                    sites = _stmt_lists(self.best)
                    if list_idx >= len(sites):
                        break
                    stmts = _stmts_at(self.best, sites[list_idx])
                    if start >= len(stmts):
                        break
                    candidate = _with_stmts(
                        self.best, sites[list_idx], stmts[:start] + stmts[start + chunk:]
                    )
                    if self._try(candidate):
                        shrunk = progressed = True
                        # keep `start`: the next chunk slid into this slot
                    else:
                        start += chunk
                    if self.checks >= self.max_checks:
                        return shrunk
                if list_idx >= len(_stmt_lists(self.best)):
                    break
                if not progressed:
                    if chunk == 1:
                        break
                    chunk //= 2
            list_idx += 1
        return shrunk

    # -- pass 2: loop trip counts ---------------------------------------------
    def _shrink_loops(self) -> bool:
        shrunk = False
        idx = 0
        while True:
            loops = [s for s in walk(self.best.body) if isinstance(s, For)]
            if idx >= len(loops):
                break
            loop = loops[idx]
            lo = loop.lo.value if isinstance(loop.lo, Const) else None
            hi = loop.hi.value if isinstance(loop.hi, Const) else None
            # Bounds are inclusive: hi == lo is already a single trip.
            if lo is not None and hi is not None and hi > lo:
                # Try collapsing to a single trip, then halving the range.
                for new_hi in (lo, lo + (hi - lo) // 2):
                    if new_hi >= hi:
                        continue
                    candidate = _with_stmt(self.best, replace(loop, hi=Const(new_hi)))
                    if self._try(candidate):
                        shrunk = True
                        break
            if self.checks >= self.max_checks:
                return shrunk
            idx += 1
        return shrunk

    # -- pass 3: shrink constants (message sizes, grains) ---------------------
    _CONST_FLOOR = 8

    def _shrink_constants(self) -> bool:
        shrunk = False
        attr_sites: list[tuple[int, str]] = []
        for stmt in walk(self.best.body):
            for attr in ("nbytes", "work"):
                e = getattr(stmt, attr, None)
                if isinstance(e, Const) and e.value > self._CONST_FLOOR:
                    attr_sites.append((stmt.sid, attr))
        for sid, attr in attr_sites:
            while True:
                stmt = self.best.find(sid)
                value = getattr(stmt, attr).value
                new_value = max(value // 4, self._CONST_FLOOR)
                if new_value >= value:
                    break
                candidate = _with_stmt(self.best, replace(stmt, **{attr: Const(new_value)}))
                if not self._try(candidate):
                    break
                shrunk = True
            if self.checks >= self.max_checks:
                return shrunk
        return shrunk


class MinimizeResult:
    """The outcome of a minimization: the reduced program plus bookkeeping."""

    def __init__(self, program: Program, original_stmts: int, checks: int):
        self.program = program
        self.original_stmts = original_stmts
        self.final_stmts = _count_stmts(program)
        self.checks = checks

    @property
    def reduction(self) -> float:
        """Fraction of statements removed (0.0 when nothing shrank)."""
        if self.original_stmts == 0:
            return 0.0
        return 1.0 - self.final_stmts / self.original_stmts


def minimize_program(
    program: Program,
    reproduces: Callable[[Program], bool],
    max_checks: int = 400,
) -> MinimizeResult:
    """Shrink ``program`` while ``reproduces(candidate)`` stays true.

    ``reproduces`` must be true for ``program`` itself — the minimizer
    asserts this up front (one predicate call) so a flaky repro fails
    loudly instead of silently returning the input unshrunk.
    ``max_checks`` bounds total predicate invocations across all passes.
    """
    original = _count_stmts(program)
    work = _revalidate(program)
    if work is None:
        raise ValueError("cannot minimize: input program does not validate")
    if not reproduces(work):
        raise ValueError("cannot minimize: input program does not reproduce the failure")

    mm = _Minimizer(work, reproduces, max_checks)
    # Run passes to a joint fixpoint: deletion opens up loop shrinks and
    # vice versa (e.g. removing a recv lets the matching loop collapse).
    while mm.checks < mm.max_checks:
        changed = mm._delete_statements()
        changed |= mm._shrink_loops()
        changed |= mm._shrink_constants()
        if not changed:
            break
    return MinimizeResult(mm.best, original, mm.checks)
