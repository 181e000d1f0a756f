"""The message-passing program IR — the compiler's view of a benchmark.

This plays the role of dhpf's internal representation: a structured AST
with statement-level def/use information, symbolic loop bounds and
communication arguments.  The four benchmarks of the paper are written
in this IR (``repro.apps``); the static-task-graph synthesis
(``repro.stg``), program slicing (``repro.slicing``) and simplified-code
generation (``repro.codegen``) all operate on it; and the interpreter
(``repro.ir.interp``) executes any IR program — original, instrumented
or simplified — on the simulation kernel.

Statement kinds
---------------
``Assign``        scalar assignment (grid coordinates, block sizes ...)
``ArrayAssign``   small array computed by an attached Python kernel
                  (e.g. NAS SP's per-processor ``cell_size`` table)
``CompBlock``     a sequential computational task: symbolic iteration
                  count × constant ops/iteration, over named arrays
``For``           counted loop with symbolic inclusive bounds
``If``            branch; ``data_dependent`` marks conditions derived
                  from large-array values (Sweep3D's flux fixup)
``SendStmt`` / ``RecvStmt``  point-to-point communication
``CollectiveStmt``           collective communication
``DelayStmt``     generated: the simulator delay call (Sec. 2.2)
``ReadParams``    generated: read w_i parameters and broadcast them
``StartTimer`` / ``StopTimer``  generated: task-time instrumentation
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..symbolic import BoolExpr, Expr, as_bool_expr, as_expr
from ..symbolic.expr import ExprLike

__all__ = [
    "ArrayDecl",
    "Stmt",
    "Assign",
    "ArrayAssign",
    "CompBlock",
    "For",
    "If",
    "SendStmt",
    "RecvStmt",
    "IsendStmt",
    "IrecvStmt",
    "WaitAllStmt",
    "CollectiveStmt",
    "DelayStmt",
    "ReadParams",
    "StartTimer",
    "StopTimer",
    "AllocStmt",
    "Program",
    "BUILTIN_VARS",
    "walk",
    "IRValidationError",
]

#: Variables every process has implicitly (set by mpi_comm_rank/size).
BUILTIN_VARS = frozenset({"myid", "P"})


class IRValidationError(ValueError):
    """The program IR is malformed (undeclared names, bad structure ...)."""


@dataclass(frozen=True)
class ArrayDecl:
    """A program array.

    ``size`` is the per-process element count (symbolic: may involve
    ``myid``/``P``); ``itemsize`` the bytes per element.  ``materialize``
    marks small arrays whose *values* matter to parallel structure (loop
    bounds, communication arguments) and which the interpreter therefore
    backs with a real NumPy array; large data arrays are accounted for
    (memory) but never materialized — their values never influence
    timing, which is exactly the property the compiler exploits.
    """

    name: str
    size: Expr
    itemsize: int = 8
    materialize: bool = False

    def nbytes_expr(self) -> Expr:
        return self.size * self.itemsize


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base statement. ``sid`` is assigned by :meth:`Program.number`.

    ``origin`` links a statement in a *generated* program (instrumented
    or simplified) back to the statement it was copied from in the
    source program, so branch profiles and directives keyed on source
    statement ids apply across program versions.
    """

    sid: int = field(default=-1, init=False, compare=False)
    origin: int = field(default=-1, init=False, compare=False)

    @property
    def profile_key(self) -> int:
        """Stable identity across program versions (source sid)."""
        return self.origin if self.origin >= 0 else self.sid

    # def/use interface used by slicing and STG synthesis ------------------
    def reads(self) -> frozenset[str]:
        """Scalar variables and array names this statement reads."""
        return frozenset()

    def writes(self) -> frozenset[str]:
        """Scalar variables and array names this statement writes."""
        return frozenset()

    def children(self) -> tuple[list["Stmt"], ...]:
        """Nested statement lists (loops/branches)."""
        return ()

    def is_comm(self) -> bool:
        """Communication statements must survive simplification verbatim."""
        return False


@dataclass
class Assign(Stmt):
    """``var = expr`` over scalars (always cheap; candidate for slicing)."""

    var: str
    expr: Expr

    def __init__(self, var: str, expr: ExprLike):
        super().__init__()
        self.var = var
        self.expr = as_expr(expr)

    def reads(self):
        return self.expr.free_vars()

    def writes(self):
        return frozenset({self.var})


@dataclass
class ArrayAssign(Stmt):
    """Compute a small (materialized) array with an attached kernel.

    ``kernel(env, arrays)`` must fill ``arrays[array]``; ``reads_``
    declares its inputs (scalars and other arrays).  ``work`` prices the
    computation (usually negligible).
    """

    array: str
    kernel: Callable[[dict, dict], None]
    reads_: frozenset[str]
    work: Expr

    def __init__(self, array: str, kernel, reads: frozenset[str] | set[str], work: ExprLike = 0):
        super().__init__()
        self.array = array
        self.kernel = kernel
        self.reads_ = frozenset(reads)
        self.work = as_expr(work)

    def reads(self):
        return self.reads_ | self.work.free_vars()

    def writes(self):
        return frozenset({self.array})


@dataclass
class CompBlock(Stmt):
    """A sequential computational task (one STG compute node).

    ``work`` is the symbolic iteration count; ``ops_per_iter`` the
    abstract operations per iteration (the compiler's static estimate of
    the loop body).  ``arrays`` lists the arrays the task touches — the
    basis of the working-set estimate and of array liveness in slicing.
    ``kernel`` (optional) runs under direct execution and may write the
    scalars named in ``writes_`` (values that feed control flow or
    communication and which slicing may therefore need to retain).

    The kernel contract: ``kernel(env, arrays)`` is called after the work
    is evaluated and before it is charged.  When ``reads_`` is declared,
    ``env`` holds exactly those scalars, and exactly the names in
    ``writes_`` are copied back from it afterwards; such a block lowers
    to the compiled backend if its kernel is a top-level function.  With
    no declared reads the kernel gets the whole environment and the
    block only interprets.
    """

    name: str
    work: Expr
    ops_per_iter: float = 1.0
    arrays: tuple[str, ...] = ()
    reads_: frozenset[str] = frozenset()
    writes_: frozenset[str] = frozenset()
    kernel: Callable[[dict, dict], None] | None = None

    def __init__(
        self,
        name: str,
        work: ExprLike,
        ops_per_iter: float = 1.0,
        arrays: tuple[str, ...] = (),
        reads: frozenset[str] | set[str] = frozenset(),
        writes: frozenset[str] | set[str] = frozenset(),
        kernel=None,
    ):
        super().__init__()
        self.name = name
        self.work = as_expr(work)
        self.ops_per_iter = float(ops_per_iter)
        self.arrays = tuple(arrays)
        self.reads_ = frozenset(reads)
        self.writes_ = frozenset(writes)
        self.kernel = kernel

    def reads(self):
        return self.reads_ | self.work.free_vars() | frozenset(self.arrays)

    def writes(self):
        return self.writes_ | frozenset(self.arrays)


@dataclass
class For(Stmt):
    """Counted loop ``for var = lo, hi`` (inclusive, Fortran-style)."""

    var: str
    lo: Expr
    hi: Expr
    body: list[Stmt]

    def __init__(self, var: str, lo: ExprLike, hi: ExprLike, body: list[Stmt]):
        super().__init__()
        self.var = var
        self.lo = as_expr(lo)
        self.hi = as_expr(hi)
        self.body = body

    def reads(self):
        return self.lo.free_vars() | self.hi.free_vars()

    def writes(self):
        return frozenset({self.var})

    def children(self):
        return (self.body,)


@dataclass
class If(Stmt):
    """Two-armed branch.

    ``data_dependent`` marks conditions that (in the original program)
    test values of large arrays; the condensation pass may eliminate
    such branches statistically, weighting arm costs by the profiled
    ``taken`` probability (the paper's simpler approach), or per a user
    directive (the precise approach).
    """

    cond: BoolExpr
    then: list[Stmt]
    orelse: list[Stmt]
    data_dependent: bool = False

    def __init__(self, cond, then: list[Stmt], orelse: list[Stmt] | None = None, data_dependent: bool = False):
        super().__init__()
        self.cond = as_bool_expr(cond)
        self.then = then
        self.orelse = orelse if orelse is not None else []
        self.data_dependent = data_dependent

    def reads(self):
        return self.cond.free_vars()

    def children(self):
        return (self.then, self.orelse)


@dataclass
class SendStmt(Stmt):
    """Point-to-point send of ``nbytes`` (symbolic) to rank ``dest``."""

    dest: Expr
    nbytes: Expr
    tag: int = 0
    array: str | None = None  # the buffer array referenced by the call

    def __init__(self, dest: ExprLike, nbytes: ExprLike, tag: int = 0, array: str | None = None):
        super().__init__()
        self.dest = as_expr(dest)
        self.nbytes = as_expr(nbytes)
        self.tag = tag
        self.array = array

    def reads(self):
        r = self.dest.free_vars() | self.nbytes.free_vars()
        if self.array:
            r |= {self.array}
        return r

    def is_comm(self):
        return True


@dataclass
class RecvStmt(Stmt):
    """Point-to-point receive from rank ``source`` (symbolic)."""

    source: Expr
    nbytes: Expr
    tag: int = 0
    array: str | None = None

    def __init__(self, source: ExprLike, nbytes: ExprLike, tag: int = 0, array: str | None = None):
        super().__init__()
        self.source = as_expr(source)
        self.nbytes = as_expr(nbytes)
        self.tag = tag
        self.array = array

    def reads(self):
        return self.source.free_vars() | self.nbytes.free_vars()

    def writes(self):
        return frozenset({self.array}) if self.array else frozenset()

    def is_comm(self):
        return True


@dataclass
class IsendStmt(Stmt):
    """Non-blocking send; the handle is bound to ``handle_var``."""

    dest: Expr
    nbytes: Expr
    tag: int = 0
    array: str | None = None
    handle_var: str = "req"

    def __init__(self, dest: ExprLike, nbytes: ExprLike, tag: int = 0,
                 array: str | None = None, handle_var: str = "req"):
        super().__init__()
        self.dest = as_expr(dest)
        self.nbytes = as_expr(nbytes)
        self.tag = tag
        self.array = array
        self.handle_var = handle_var

    def reads(self):
        r = self.dest.free_vars() | self.nbytes.free_vars()
        if self.array:
            r |= {self.array}
        return r

    def writes(self):
        return frozenset({self.handle_var})

    def is_comm(self):
        return True


@dataclass
class IrecvStmt(Stmt):
    """Non-blocking receive; the handle is bound to ``handle_var``."""

    source: Expr
    nbytes: Expr
    tag: int = 0
    array: str | None = None
    handle_var: str = "req"

    def __init__(self, source: ExprLike, nbytes: ExprLike, tag: int = 0,
                 array: str | None = None, handle_var: str = "req"):
        super().__init__()
        self.source = as_expr(source)
        self.nbytes = as_expr(nbytes)
        self.tag = tag
        self.array = array
        self.handle_var = handle_var

    def reads(self):
        return self.source.free_vars() | self.nbytes.free_vars()

    def writes(self):
        out = {self.handle_var}
        if self.array:
            out.add(self.array)
        return frozenset(out)

    def is_comm(self):
        return True


@dataclass
class WaitAllStmt(Stmt):
    """Wait for the non-blocking operations bound to ``handle_vars``.

    Handle variables may legitimately be unbound on some ranks (a rank
    with no west neighbour never posted the west receive); unbound names
    are skipped, mirroring how generated MPI code waits on request
    arrays initialized to MPI_REQUEST_NULL.
    """

    handle_vars: tuple[str, ...]

    def __init__(self, handle_vars: tuple[str, ...]):
        super().__init__()
        self.handle_vars = tuple(handle_vars)

    def reads(self):
        # handle variables are deliberately NOT reported as reads: they may
        # be unbound on ranks whose guards skipped the post (MPI_REQUEST_NULL
        # semantics), and the static validator must not reject that
        return frozenset()

    def is_comm(self):
        return True


@dataclass
class CollectiveStmt(Stmt):
    """A collective operation.

    For reductions, ``contrib`` (an expression over scalars) is the
    local operand and ``result_var`` receives the combined value;
    ``reduce_kind`` picks the combiner.  Payload values never affect
    communication *pattern*, so they are not slicing criteria — but if a
    later retained statement reads ``result_var``, slicing will keep the
    producer of ``contrib``.
    """

    op: str
    nbytes: Expr
    root: Expr
    array: str | None = None
    contrib: Expr | None = None
    result_var: str | None = None
    reduce_kind: str = "sum"  # sum | max | min

    def __init__(
        self,
        op: str,
        nbytes: ExprLike = 0,
        root: ExprLike = 0,
        array: str | None = None,
        contrib: ExprLike | None = None,
        result_var: str | None = None,
        reduce_kind: str = "sum",
    ):
        super().__init__()
        self.op = op
        self.nbytes = as_expr(nbytes)
        self.root = as_expr(root)
        self.array = array
        self.contrib = as_expr(contrib) if contrib is not None else None
        self.result_var = result_var
        if reduce_kind not in ("sum", "max", "min"):
            raise IRValidationError(f"unknown reduce_kind {reduce_kind!r}")
        self.reduce_kind = reduce_kind

    def reads(self):
        r = self.nbytes.free_vars() | self.root.free_vars()
        if self.contrib is not None:
            r |= self.contrib.free_vars()
        if self.array:
            r |= {self.array}
        return r

    def writes(self):
        return frozenset({self.result_var}) if self.result_var else frozenset()

    def is_comm(self):
        return True


@dataclass
class DelayStmt(Stmt):
    """Generated: advance the clock by ``amount`` (a scaling function
    over retained variables and measured ``w_i`` parameters)."""

    amount: Expr
    task: str

    def __init__(self, amount: ExprLike, task: str):
        super().__init__()
        self.amount = as_expr(amount)
        self.task = task

    def reads(self):
        return self.amount.free_vars()


@dataclass
class ReadParams(Stmt):
    """Generated: rank 0 reads the named ``w_i`` parameters from the
    parameter file and broadcasts them (the paper's
    ``read_and_broadcast`` calls, Fig. 1(c))."""

    names: tuple[str, ...]

    def __init__(self, names: tuple[str, ...]):
        super().__init__()
        self.names = tuple(names)

    def writes(self):
        return frozenset(self.names)

    def is_comm(self):
        return True  # performs a broadcast


@dataclass
class StartTimer(Stmt):
    """Generated: start the instrumentation timer for ``task``."""

    task: str

    def __init__(self, task: str):
        super().__init__()
        self.task = task


@dataclass
class StopTimer(Stmt):
    """Generated: stop the instrumentation timer for ``task``."""

    task: str

    def __init__(self, task: str):
        super().__init__()
        self.task = task


@dataclass
class AllocStmt(Stmt):
    """Generated: allocate a named buffer of ``nbytes`` (symbolic) —
    the dummy communication buffer of the simplified program."""

    name: str
    nbytes: Expr

    def __init__(self, name: str, nbytes: ExprLike):
        super().__init__()
        self.name = name
        self.nbytes = as_expr(nbytes)

    def reads(self):
        return self.nbytes.free_vars()

    def writes(self):
        return frozenset({self.name})


# ---------------------------------------------------------------------------
# program container
# ---------------------------------------------------------------------------


def walk(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Depth-first iteration over a statement list."""
    for s in stmts:
        yield s
        for block in s.children():
            yield from walk(block)


@dataclass
class Program:
    """A complete message-passing program.

    ``params`` are the input variables (problem size, iteration counts);
    ``myid`` and ``P`` are implicit.  ``arrays`` declare per-process
    data.  ``meta`` carries app-specific annotations (e.g. branch
    elimination directives).
    """

    name: str
    params: tuple[str, ...]
    arrays: dict[str, ArrayDecl]
    body: list[Stmt]
    meta: dict[str, Any] = field(default_factory=dict)

    def number(self) -> "Program":
        """Assign depth-first statement ids; returns self for chaining."""
        for i, s in enumerate(walk(self.body)):
            s.sid = i
        return self

    def statements(self) -> Iterator[Stmt]:
        """All statements, depth-first."""
        return walk(self.body)

    def find(self, sid: int) -> Stmt:
        for s in self.statements():
            if s.sid == sid:
                return s
        raise KeyError(f"no statement with sid {sid}")

    def comp_blocks(self) -> list[CompBlock]:
        return [s for s in self.statements() if isinstance(s, CompBlock)]

    def comm_stmts(self) -> list[Stmt]:
        return [s for s in self.statements() if s.is_comm()]

    def validate(self) -> None:
        """Check structural well-formedness; raises IRValidationError."""
        declared = set(self.arrays)
        defined = set(self.params) | BUILTIN_VARS

        def check_block(stmts: list[Stmt], scope: set[str]) -> set[str]:
            for s in stmts:
                arrays_touched = set()
                if isinstance(s, CompBlock):
                    arrays_touched = set(s.arrays)
                elif isinstance(s, (SendStmt, RecvStmt, CollectiveStmt)) and s.array:
                    arrays_touched = {s.array}
                elif isinstance(s, ArrayAssign):
                    arrays_touched = {s.array}
                # buffers introduced by AllocStmt (dummy_buf) live in scope
                missing_arrays = arrays_touched - declared - scope
                if missing_arrays:
                    raise IRValidationError(
                        f"{self.name}: statement references undeclared arrays {sorted(missing_arrays)}"
                    )
                undefined = (s.reads() - declared) - scope
                if undefined:
                    raise IRValidationError(
                        f"{self.name}: statement of kind {type(s).__name__} reads "
                        f"undefined variable(s) {sorted(undefined)}"
                    )
                if isinstance(s, For):
                    inner = set(scope)
                    inner.add(s.var)
                    check_block(s.body, inner)
                elif isinstance(s, If):
                    then_scope = check_block(s.then, set(scope))
                    else_scope = check_block(s.orelse, set(scope))
                    # conservatively, only names defined on both arms survive
                    scope |= then_scope & else_scope
                    continue
                else:
                    scope |= {w for w in s.writes() if w not in declared}
            return scope

        check_block(self.body, set(defined))

    def copy_shell(self, body: list[Stmt], arrays: dict[str, ArrayDecl] | None = None) -> "Program":
        """A new program with the same name/params but different body."""
        return Program(
            name=self.name,
            params=self.params,
            arrays=dict(self.arrays if arrays is None else arrays),
            body=body,
            meta=dict(self.meta),
        )
