"""The message-passing program IR — the compiler's view of a benchmark.

This plays the role of dhpf's internal representation: a structured AST
with statement-level def/use information, symbolic loop bounds and
communication arguments.  The four benchmarks of the paper are written
in this IR (``repro.apps``); the static-task-graph synthesis
(``repro.stg``), program slicing (``repro.slicing``) and simplified-code
generation (``repro.codegen``) all operate on it; and the interpreter
(``repro.ir.interp``) executes any IR program — original, instrumented
or simplified — on the simulation kernel.

The IR is a value.  Statements and programs are frozen dataclasses:
statement lists are tuples, a program's ``arrays`` and ``meta`` are
read-only mappings, and a statement's ``sid`` and ``origin`` are fixed
when the program that holds it is built.  A pass that changes a program
builds a new one (``dataclasses.replace``), so whatever is derived from
a program object stays valid for as long as the object lives — which is
why the object can keep it (:meth:`Program.derived`).

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
from types import MappingProxyType
from typing import Any, Callable, ClassVar, Iterable, Iterator, Mapping

from ..symbolic import BoolExpr, Expr, as_bool_expr, as_expr

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

# Field coercion for the frozen dataclasses' __post_init__.
_set = object.__setattr__


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


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """Base statement.  ``sid`` is its depth-first index in its program.

    ``origin`` links a statement in a *generated* program (instrumented
    or simplified) back to the statement it was copied from in the
    source program, so branch profiles and directives keyed on source
    statement ids apply across program versions.  Both are keyword-only
    and excluded from equality; a :class:`Program` renumbers any
    statement whose ``sid`` is not its position.
    """

    #: names of the fields holding nested statement tuples
    block_fields: ClassVar[tuple[str, ...]] = ()

    sid: int = field(default=-1, kw_only=True, compare=False)
    origin: int = field(default=-1, kw_only=True, compare=False)

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

    def children(self) -> tuple[tuple["Stmt", ...], ...]:
        """Nested statement lists (loops/branches), in ``block_fields`` order."""
        return ()

    def is_comm(self) -> bool:
        """Communication statements must survive simplification verbatim."""
        return False


@dataclass(frozen=True)
class Assign(Stmt):
    """``var = expr`` over scalars (always cheap; candidate for slicing)."""

    var: str
    expr: Expr

    def __post_init__(self):
        _set(self, "expr", as_expr(self.expr))

    def reads(self):
        return self.expr.free_vars()

    def writes(self):
        return frozenset({self.var})


@dataclass(frozen=True)
class ArrayAssign(Stmt):
    """Compute a small (materialized) array with an attached kernel.

    ``kernel(env, arrays)`` must fill ``arrays[array]``; ``reads_``
    declares its inputs (scalars and materialized arrays).  ``work``,
    evaluated after the kernel runs, prices the computation (usually
    negligible).

    The kernel contract is a comp block's: when ``reads_`` is declared,
    ``env`` holds exactly those names, and nothing is copied back from
    it; such a statement lowers to the compiled backend if its kernel
    is a top-level function.  With no declared reads the kernel gets
    the whole environment, which only the interpreter has.
    """

    array: str
    kernel: Callable[[dict, dict], None]
    reads_: frozenset[str]
    work: Expr = 0

    def __post_init__(self):
        _set(self, "reads_", frozenset(self.reads_))
        _set(self, "work", as_expr(self.work))

    def reads(self):
        return self.reads_ | self.work.free_vars()

    def writes(self):
        return frozenset({self.array})


@dataclass(frozen=True)
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

    def __post_init__(self):
        _set(self, "work", as_expr(self.work))
        _set(self, "ops_per_iter", float(self.ops_per_iter))
        _set(self, "arrays", tuple(self.arrays))
        _set(self, "reads_", frozenset(self.reads_))
        _set(self, "writes_", frozenset(self.writes_))

    def reads(self):
        return self.reads_ | self.work.free_vars() | frozenset(self.arrays)

    def writes(self):
        return self.writes_ | frozenset(self.arrays)


@dataclass(frozen=True)
class For(Stmt):
    """Counted loop ``for var = lo, hi`` (inclusive, Fortran-style)."""

    block_fields: ClassVar[tuple[str, ...]] = ("body",)

    var: str
    lo: Expr
    hi: Expr
    body: tuple[Stmt, ...]

    def __post_init__(self):
        _set(self, "lo", as_expr(self.lo))
        _set(self, "hi", as_expr(self.hi))
        _set(self, "body", tuple(self.body))

    def reads(self):
        return self.lo.free_vars() | self.hi.free_vars()

    def writes(self):
        return frozenset({self.var})

    def children(self):
        return (self.body,)


@dataclass(frozen=True)
class If(Stmt):
    """Two-armed branch.

    ``data_dependent`` marks conditions that (in the original program)
    test values of large arrays; the condensation pass may eliminate
    such branches statistically, weighting arm costs by the profiled
    ``taken`` probability (the paper's simpler approach), or per a user
    directive (the precise approach).
    """

    block_fields: ClassVar[tuple[str, ...]] = ("then", "orelse")

    cond: BoolExpr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...] = ()
    data_dependent: bool = False

    def __post_init__(self):
        _set(self, "cond", as_bool_expr(self.cond))
        _set(self, "then", tuple(self.then))
        _set(self, "orelse", tuple(self.orelse) if self.orelse is not None else ())

    def reads(self):
        return self.cond.free_vars()

    def children(self):
        return (self.then, self.orelse)


@dataclass(frozen=True)
class SendStmt(Stmt):
    """Point-to-point send of ``nbytes`` (symbolic) to rank ``dest``."""

    dest: Expr
    nbytes: Expr
    tag: int = 0
    array: str | None = None  # the buffer array referenced by the call

    def __post_init__(self):
        _set(self, "dest", as_expr(self.dest))
        _set(self, "nbytes", as_expr(self.nbytes))

    def reads(self):
        r = self.dest.free_vars() | self.nbytes.free_vars()
        if self.array:
            r |= {self.array}
        return r

    def is_comm(self):
        return True


@dataclass(frozen=True)
class RecvStmt(Stmt):
    """Point-to-point receive from rank ``source`` (symbolic)."""

    source: Expr
    nbytes: Expr
    tag: int = 0
    array: str | None = None

    def __post_init__(self):
        _set(self, "source", as_expr(self.source))
        _set(self, "nbytes", as_expr(self.nbytes))

    def reads(self):
        return self.source.free_vars() | self.nbytes.free_vars()

    def writes(self):
        return frozenset({self.array}) if self.array else frozenset()

    def is_comm(self):
        return True


@dataclass(frozen=True)
class IsendStmt(Stmt):
    """Non-blocking send; the handle is bound to ``handle_var``."""

    dest: Expr
    nbytes: Expr
    tag: int = 0
    array: str | None = None
    handle_var: str = "req"

    def __post_init__(self):
        _set(self, "dest", as_expr(self.dest))
        _set(self, "nbytes", as_expr(self.nbytes))

    def reads(self):
        r = self.dest.free_vars() | self.nbytes.free_vars()
        if self.array:
            r |= {self.array}
        return r

    def writes(self):
        return frozenset({self.handle_var})

    def is_comm(self):
        return True


@dataclass(frozen=True)
class IrecvStmt(Stmt):
    """Non-blocking receive; the handle is bound to ``handle_var``."""

    source: Expr
    nbytes: Expr
    tag: int = 0
    array: str | None = None
    handle_var: str = "req"

    def __post_init__(self):
        _set(self, "source", as_expr(self.source))
        _set(self, "nbytes", as_expr(self.nbytes))

    def reads(self):
        return self.source.free_vars() | self.nbytes.free_vars()

    def writes(self):
        out = {self.handle_var}
        if self.array:
            out.add(self.array)
        return frozenset(out)

    def is_comm(self):
        return True


@dataclass(frozen=True)
class WaitAllStmt(Stmt):
    """Wait for the non-blocking operations bound to ``handle_vars``.

    Handle variables may legitimately be unbound on some ranks (a rank
    with no west neighbour never posted the west receive); unbound names
    are skipped, mirroring how generated MPI code waits on request
    arrays initialized to MPI_REQUEST_NULL.
    """

    handle_vars: tuple[str, ...]

    def __post_init__(self):
        _set(self, "handle_vars", tuple(self.handle_vars))

    def reads(self):
        # handle variables are deliberately NOT reported as reads: they may
        # be unbound on ranks whose guards skipped the post (MPI_REQUEST_NULL
        # semantics), and the static validator must not reject that
        return frozenset()

    def is_comm(self):
        return True


@dataclass(frozen=True)
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
    nbytes: Expr = 0
    root: Expr = 0
    array: str | None = None
    contrib: Expr | None = None
    result_var: str | None = None
    reduce_kind: str = "sum"  # sum | max | min

    def __post_init__(self):
        _set(self, "nbytes", as_expr(self.nbytes))
        _set(self, "root", as_expr(self.root))
        if self.contrib is not None:
            _set(self, "contrib", as_expr(self.contrib))
        if self.reduce_kind not in ("sum", "max", "min"):
            raise IRValidationError(f"unknown reduce_kind {self.reduce_kind!r}")

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


@dataclass(frozen=True)
class DelayStmt(Stmt):
    """Generated: advance the clock by ``amount`` (a scaling function
    over retained variables and measured ``w_i`` parameters)."""

    amount: Expr
    task: str

    def __post_init__(self):
        _set(self, "amount", as_expr(self.amount))

    def reads(self):
        return self.amount.free_vars()


@dataclass(frozen=True)
class ReadParams(Stmt):
    """Generated: rank 0 reads the named ``w_i`` parameters from the
    parameter file and broadcasts them (the paper's
    ``read_and_broadcast`` calls, Fig. 1(c))."""

    names: tuple[str, ...]

    def __post_init__(self):
        _set(self, "names", tuple(self.names))

    def writes(self):
        return frozenset(self.names)

    def is_comm(self):
        return True  # performs a broadcast


@dataclass(frozen=True)
class StartTimer(Stmt):
    """Generated: start the instrumentation timer for ``task``."""

    task: str


@dataclass(frozen=True)
class StopTimer(Stmt):
    """Generated: stop the instrumentation timer for ``task``."""

    task: str


@dataclass(frozen=True)
class AllocStmt(Stmt):
    """Generated: allocate a named buffer of ``nbytes`` (symbolic) —
    the dummy communication buffer of the simplified program."""

    name: str
    nbytes: Expr

    def __post_init__(self):
        _set(self, "nbytes", as_expr(self.nbytes))

    def reads(self):
        return self.nbytes.free_vars()

    def writes(self):
        return frozenset({self.name})


# ---------------------------------------------------------------------------
# program container
# ---------------------------------------------------------------------------


def walk(stmts: Iterable[Stmt]) -> Iterator[Stmt]:
    """Depth-first iteration over a statement list."""
    for s in stmts:
        yield s
        for block in s.children():
            yield from walk(block)


def _numbered(stmts: Iterable[Stmt], sid: int) -> tuple[tuple[Stmt, ...], int]:
    """*stmts* with depth-first ids from *sid* on, and the next free id.

    A statement that already carries its id, as do its nested lists, is
    kept; any other becomes a renumbered copy.  An unchanged tuple comes
    back as the same object.
    """
    out = []
    changed = not isinstance(stmts, tuple)
    for s in stmts:
        own, sid = sid, sid + 1
        fields = {}
        for name, block in zip(s.block_fields, s.children()):
            numbered, sid = _numbered(block, sid)
            if numbered is not block:
                fields[name] = numbered
        if fields or s.sid != own:
            s = _copy_with(s, sid=own, **fields)
            changed = True
        out.append(s)
    return (tuple(out) if changed else stmts), sid


def _copy_with(stmt: Stmt, **fields) -> Stmt:
    """A new *stmt* with *fields* changed.  Like ``dataclasses.replace``,
    without re-running the field coercion the values already passed."""
    new = object.__new__(type(stmt))
    new.__dict__.update(stmt.__dict__, **fields)
    return new


@dataclass(frozen=True)
class Program:
    """A complete message-passing program.

    ``params`` are the input variables (problem size, iteration counts);
    ``myid`` and ``P`` are implicit.  ``arrays`` declare per-process
    data.  ``meta`` carries app-specific annotations (e.g. branch
    elimination directives).  Construction numbers the statements
    depth-first and makes ``arrays`` and ``meta`` read-only copies.
    """

    name: str
    params: tuple[str, ...]
    arrays: Mapping[str, ArrayDecl]
    body: tuple[Stmt, ...]
    meta: Mapping[str, Any] = field(default_factory=dict)
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "params", tuple(self.params))
        _set(self, "arrays", MappingProxyType(dict(self.arrays)))
        _set(self, "meta", MappingProxyType(dict(self.meta)))
        _set(self, "body", _numbered(self.body, 0)[0])

    def __reduce__(self):
        # pickles and deep copies rebuild the program; derived artifacts
        # are not carried along
        return (type(self), (self.name, self.params, dict(self.arrays),
                             self.body, dict(self.meta)))

    def derived(self, key, make: Callable[["Program"], Any]) -> Any:
        """``make(self)``, computed once per *key* and kept on this object.

        The program cannot change, so an artifact derived from it stays
        valid as long as the object lives and is dropped with it.  *key*
        must name everything *make* reads besides the program.
        """
        memo = self._derived
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = make(self)
            return value

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
        """Check structural well-formedness; raises IRValidationError.

        The check runs once per object: a program that passed it cannot
        change, so it stays valid.  A failure is not kept.
        """
        self.derived("valid", Program._check)

    def _check(self) -> None:
        declared = set(self.arrays)
        defined = set(self.params) | BUILTIN_VARS

        def check_block(stmts: tuple[Stmt, ...], scope: set[str]) -> set[str]:
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
