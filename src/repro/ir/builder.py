"""A fluent builder for writing IR programs readably.

The benchmark applications in :mod:`repro.apps` construct their IR with
this builder; nesting uses context managers::

    b = ProgramBuilder("shift", params=("N",))
    b.array("D", size=ceil_div(N, P) * N)
    b.assign("b", ceil_div(N, P))
    with b.if_(Gt(myid, 0)):
        b.send(dest=myid - 1, nbytes=(N - 2) * 8, array="D")
    with b.if_(Lt(myid, P - 1)):
        b.recv(source=myid + 1, nbytes=(N - 2) * 8, array="D")
    b.compute("loop_nest", work=..., ops_per_iter=4, arrays=("A", "D"))
    prog = b.build()
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count

from ..symbolic import Var
from ..symbolic.expr import ExprLike
from .nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    CollectiveStmt,
    CompBlock,
    For,
    If,
    IrecvStmt,
    IsendStmt,
    Program,
    RecvStmt,
    SendStmt,
    Stmt,
    WaitAllStmt,
)

__all__ = ["ProgramBuilder", "myid", "P"]

#: The implicit rank / size variables, for convenience in app code.
myid = Var("myid")
P = Var("P")


class _OpenIf:
    """An ``if_`` arm already closed, whose ``else_`` may still follow."""

    __slots__ = ("sid", "cond", "then", "orelse", "data_dependent")

    def __init__(self, sid: int, cond, then: tuple[Stmt, ...], data_dependent: bool):
        self.sid = sid
        self.cond = cond
        self.then = then
        self.orelse: tuple[Stmt, ...] | None = None
        self.data_dependent = data_dependent

    def build(self) -> If:
        return If(self.cond, self.then, self.orelse or (), self.data_dependent, sid=self.sid)


class ProgramBuilder:
    """Accumulates statements into a :class:`Program`.

    Each statement gets its depth-first ``sid`` as it is emitted (a loop
    or branch reserves its own when its block opens), so the program
    :meth:`build` returns holds the very statements the emit methods
    returned.  An ``If`` is built once, when the statement after it, the
    end of its enclosing block or its ``else_`` arm settles its arms.
    """

    def __init__(self, name: str, params: tuple[str, ...] = ()):
        self.name = name
        self.params = tuple(params)
        self._arrays: dict[str, ArrayDecl] = {}
        self._body: list = []
        self._stack: list[list] = [self._body]
        self._meta: dict = {}
        self._sids = count()  # depth-first statement ids
        self._built = False

    # -- declarations ---------------------------------------------------------
    def array(self, name: str, size: ExprLike, itemsize: int = 8, materialize: bool = False) -> None:
        """Declare a per-process array of *size* elements."""
        from ..symbolic import as_expr

        if name in self._arrays:
            raise ValueError(f"array {name!r} declared twice")
        self._arrays[name] = ArrayDecl(name, as_expr(size), itemsize, materialize)

    def meta(self, **kwargs) -> None:
        """Attach metadata (e.g. branch-elimination directives)."""
        self._meta.update(kwargs)

    # -- statements ------------------------------------------------------------
    def _emit(self, kind: type[Stmt], *args, **kwargs) -> Stmt:
        stmt = kind(*args, sid=next(self._sids), **kwargs)
        self._stack[-1].append(stmt)
        return stmt

    @staticmethod
    def _settled(block: list) -> tuple[Stmt, ...]:
        """A closed block's statements, with its open ifs built."""
        return tuple(s.build() if isinstance(s, _OpenIf) else s for s in block)

    def assign(self, var: str, expr: ExprLike) -> Stmt:
        """Emit ``var = expr``."""
        return self._emit(Assign, var, expr)

    def array_assign(self, array: str, kernel, reads=frozenset(), work: ExprLike = 0) -> Stmt:
        """Emit computation of a small materialized array."""
        return self._emit(ArrayAssign, array, kernel, reads, work)

    def compute(
        self,
        name: str,
        work: ExprLike,
        ops_per_iter: float = 1.0,
        arrays: tuple[str, ...] = (),
        reads=frozenset(),
        writes=frozenset(),
        kernel=None,
    ) -> Stmt:
        """Emit a computational task (one STG compute node).

        An optional ``kernel(env, arrays)`` runs under direct execution.
        With ``reads`` declared it sees exactly those scalars in ``env``
        and only the names in ``writes`` are copied back, and a top-level
        kernel function then lowers to the compiled backend (see
        :class:`~repro.ir.nodes.CompBlock`).
        """
        return self._emit(CompBlock, name, work, ops_per_iter, arrays, reads, writes, kernel)

    def send(self, dest: ExprLike, nbytes: ExprLike, tag: int = 0, array: str | None = None) -> Stmt:
        """Emit a point-to-point send."""
        return self._emit(SendStmt, dest, nbytes, tag, array)

    def recv(self, source: ExprLike, nbytes: ExprLike, tag: int = 0, array: str | None = None) -> Stmt:
        """Emit a point-to-point receive."""
        return self._emit(RecvStmt, source, nbytes, tag, array)

    def isend(self, dest: ExprLike, nbytes: ExprLike, tag: int = 0,
              array: str | None = None, handle: str = "req") -> Stmt:
        """Emit a non-blocking send binding its handle to *handle*."""
        return self._emit(IsendStmt, dest, nbytes, tag, array, handle)

    def irecv(self, source: ExprLike, nbytes: ExprLike, tag: int = 0,
              array: str | None = None, handle: str = "req") -> Stmt:
        """Emit a non-blocking receive binding its handle to *handle*."""
        return self._emit(IrecvStmt, source, nbytes, tag, array, handle)

    def waitall(self, *handles: str) -> Stmt:
        """Emit a wait for the named handles (unbound names are skipped)."""
        return self._emit(WaitAllStmt, tuple(handles))

    def barrier(self) -> Stmt:
        return self._emit(CollectiveStmt, "barrier")

    def bcast(self, nbytes: ExprLike, root: ExprLike = 0, array: str | None = None) -> Stmt:
        return self._emit(CollectiveStmt, "bcast", nbytes, root, array)

    def allreduce(
        self,
        nbytes: ExprLike,
        contrib: ExprLike | None = None,
        result_var: str | None = None,
        reduce_kind: str = "sum",
    ) -> Stmt:
        return self._emit(
            CollectiveStmt, "allreduce", nbytes,
            contrib=contrib, result_var=result_var, reduce_kind=reduce_kind,
        )

    def reduce(
        self,
        nbytes: ExprLike,
        root: ExprLike = 0,
        contrib: ExprLike | None = None,
        result_var: str | None = None,
        reduce_kind: str = "sum",
    ) -> Stmt:
        return self._emit(
            CollectiveStmt, "reduce", nbytes, root,
            contrib=contrib, result_var=result_var, reduce_kind=reduce_kind,
        )

    def collective(self, op: str, nbytes: ExprLike = 0, root: ExprLike = 0, array: str | None = None) -> Stmt:
        """Emit an arbitrary collective (gather/scatter/alltoall ...)."""
        return self._emit(CollectiveStmt, op, nbytes, root, array)

    # -- structure ---------------------------------------------------------------
    @contextmanager
    def loop(self, var: str, lo: ExprLike, hi: ExprLike):
        """``for var = lo, hi`` (inclusive bounds) around the with-block."""
        sid = next(self._sids)
        body: list = []
        self._stack.append(body)
        try:
            yield
        finally:
            self._stack.pop()
        self._stack[-1].append(For(var, lo, hi, self._settled(body), sid=sid))

    @contextmanager
    def if_(self, cond, data_dependent: bool = False):
        """``if cond`` around the with-block (attach ``else_`` right after)."""
        sid = next(self._sids)
        then: list = []
        self._stack.append(then)
        try:
            yield
        finally:
            self._stack.pop()
        self._stack[-1].append(_OpenIf(sid, cond, self._settled(then), data_dependent))

    @contextmanager
    def else_(self):
        """Else-arm for the immediately preceding ``if_``."""
        prev = self._stack[-1][-1] if self._stack[-1] else None
        if not isinstance(prev, _OpenIf):
            raise ValueError("else_() must immediately follow an if_()")
        if prev.orelse is not None:
            raise ValueError("this if_() already has an else arm")
        prev.orelse = ()
        body: list = []
        self._stack.append(body)
        try:
            yield
        finally:
            self._stack.pop()
        prev.orelse = self._settled(body)

    # -- completion -----------------------------------------------------------------
    def build(self, validate: bool = True) -> Program:
        """Finalize: validate and return the Program."""
        if self._built:
            raise RuntimeError("build() called twice on the same builder")
        if len(self._stack) != 1:
            raise RuntimeError("unclosed loop()/if_() context")
        self._built = True
        prog = Program(self.name, self.params, self._arrays, self._settled(self._body), self._meta)
        if validate:
            prog.validate()
        return prog
