"""Lower an IR :class:`~repro.ir.nodes.Program` to a generated Python module.

The interpreted kernel (:mod:`repro.ir.interp`) walks the statement tree
once per rank per run, paying a generator suspension plus a tree dispatch
per statement.  This pass walks the tree **once per program** instead and
emits flat Python source — one module per program — with one entry point:

``fast_gen(rank, size, inputs, wparams, rt, st)``
    The per-rank driver :func:`repro.sim.loop.run` resumes.  Compute,
    delay, timer and allocation requests fold into inline arithmetic and
    calls, and only communication points yield, with the op tuples of
    :mod:`repro.sim.loop` (not request objects).  The generator first
    stops at a bare ``yield``; the loop's priming resume sends it the
    start time.  At every yield it flushes its clock, event count and
    compute time to ``st``, and it adds host costs to ``st`` as it goes,
    which keeps per-rank stats in exactly the interpreter's
    floating-point order and exact between events (a tripped budget
    reads them mid-run).

``fast_gen(rank, size, inputs, wparams, rt, st, collector, profile)``
    The measure variant (``measure=True``), for a calibration run: the
    same code plus the interpreter's measurement calls, in its order.
    It calls ``collector.record_work`` after each comp block,
    ``collector.record_elapsed`` after each ``timer_stop`` and
    ``profile.record`` at each ``If``.  The plain module never emits
    them.

``fast_gen(..., trace_add)``
    The traced variant (``trace=True``), for a run that collects an
    event trace: the same code plus one ``trace_add`` call per compute
    and delay event, where the Request driver of :mod:`repro.sim.loop`
    records it and with the same fields.  It takes the trace's ``add``
    after the measure variant's arguments, if any.  The plain and
    measure modules never emit it, so untraced runs pay nothing.

Materialized arrays (NAS SP's per-rank cell sizes, Sec. 3.3 of the
paper) are per-rank NumPy arrays that the generated code owns: each is
created where the interpreter creates it, bound to its ``v_<name>``
local for ``Index`` reads and kept in the per-rank array dict the
kernels receive.  An ``ArrayAssign`` calls its kernel like a comp
block's, with exactly its declared reads, and prices its work inline.
A kernel lowers only as a top-level function with declared reads, so
the module imports it by name.

Loop-invariant code is hoisted.  Inside a ``For``, an operand (an
expression, an ``If`` condition, a send, recv, collective, delay or comp
block operand, an inner loop's bounds) whose variables no enclosing loop
assigns is evaluated once, into a local, before the outermost loop it is
invariant in.  A loop assigns its variable and, in its body, loop
variables, ``Assign`` targets, kernel writes, collective results,
broadcast parameters and handle variables; a kernel call (a comp
block's or an ``ArrayAssign``'s) may write any materialized array, so an
``Index`` read of one is not invariant in its loop.  One site keeps one
local per distinct computation; a closed operand, a lone variable or
literal and a lone comparison stay in place.  A site whose evaluation
raises leaves its locals unbound; the statement then evaluates its
operands again in place, in the interpreter's order (:func:`again_in`),
so every error, its event count and its partial stats stay where they
were.

The IR is immutable, so :func:`kernel_for` lowers each variant once per
program object, on first use, and keeps the module, or the reason it
cannot lower, on the program (:meth:`~repro.ir.nodes.Program.derived`):
a kernel dies with its program, and nothing writes generated code to
disk.  :func:`clear_cache` only zeroes the counters.

Anything the emitter cannot reproduce bit-for-bit raises
:class:`UnsupportedConstructError`: a lambda, closure or method kernel,
a kernel without declared reads, an ``ArrayAssign`` to an array that is
not materialized, or a read of a handle variable or of an array that is
not materialized.  ``backend="auto"`` (the default) catches it and falls
back to the interpreter for that program (with a logged reason).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from ..ir.nodes import (
    AllocStmt,
    ArrayAssign,
    Assign,
    CollectiveStmt,
    CompBlock,
    DelayStmt,
    For,
    If,
    IrecvStmt,
    IsendStmt,
    Program,
    ReadParams,
    RecvStmt,
    SendStmt,
    StartTimer,
    StopTimer,
    WaitAllStmt,
    IRValidationError,
    walk,
)
from ..obs.logging import get_logger
from ..obs.metrics import METRICS
from ..symbolic import BoolConst, Cmp, Const, Var

__all__ = [
    "UnsupportedConstructError",
    "CompiledKernel",
    "lower_program",
    "kernel_for",
    "cache_stats",
    "clear_cache",
]

log = get_logger("kernel.lower")


class UnsupportedConstructError(Exception):
    """The program uses a construct the compiled backend cannot reproduce."""


# Builtin names the interpreter injects into every rank's environment.
_BUILTINS = ("myid", "P")

# Plain aggregate counters (always on; published to METRICS when enabled).
_STATS = {
    "lowered": 0,
    "cache_hits": 0,
    "cache_misses": 0,
    "fallbacks": 0,
    "lowering_seconds": 0.0,
}


def _count(name: str, amount: float = 1) -> None:
    _STATS[name] += amount
    if METRICS.enabled:
        METRICS.counter(f"kernel_{name}", "compiled-backend lowering counters").inc(amount)


def record_fallback(program_name: str, reason: str) -> None:
    """Log and count one run that falls back to the interpreted kernel."""
    _count("fallbacks")
    log.info("%s falls back to the interpreted kernel: %s", program_name, reason)


def cache_stats() -> dict:
    """Snapshot of lowering/cache counters (for ``repro profile``)."""
    out = dict(_STATS)
    # always 0 (nothing batches delay waves); benchmarks/e2e/tracing.py
    # reads the key
    out["waves"] = 0
    return out


def clear_cache() -> None:
    """Zero the counters.  Kernels live on their programs, not here."""
    for key in _STATS:
        _STATS[key] = 0.0 if key == "lowering_seconds" else 0


@dataclass
class CompiledKernel:
    """A lowered program: generated source plus its executable entry point."""

    program_name: str
    source: str
    lowering_seconds: float
    _ns: dict = field(repr=False, default_factory=dict)

    @property
    def fast_gen(self):
        return self._ns["fast_gen"]


def kernel_for(program: Program, measure: bool = False, trace: bool = False) -> CompiledKernel:
    """Lower *program* once and keep the module on it.

    *measure* and *trace* select the measure and traced variants (see
    the module docstring), each kept under its own key next to the plain
    module.  A program that failed to lower raises the same
    :class:`UnsupportedConstructError` again, from what it keeps,
    without lowering again.
    """
    hit = True

    def lower(program: Program) -> CompiledKernel | str:
        nonlocal hit
        hit = False
        _count("cache_misses")
        try:
            return lower_program(program, measure, trace)
        except UnsupportedConstructError as exc:
            return str(exc)  # the message, not the exception and its frames

    kept = program.derived(("kernel", measure, trace), lower)
    if hit:
        _count("cache_hits")
    if isinstance(kept, str):
        raise UnsupportedConstructError(kept)
    return kept


def lower_program(program: Program, measure: bool = False, trace: bool = False) -> CompiledKernel:
    """Lower one program to a generated module (nothing kept)."""
    t0 = time.perf_counter()
    try:
        program.validate()
    except IRValidationError as exc:
        raise UnsupportedConstructError(f"program does not validate: {exc}") from exc
    source = _Lowerer(program, measure, trace).emit_module()
    tag = ("+measure" if measure else "") + ("+trace" if trace else "")
    ns: dict = {}
    exec(compile(source, f"<repro.kernel:{program.name}{tag}>", "exec"), ns)
    dt = time.perf_counter() - t0
    _count("lowered")
    _count("lowering_seconds", dt)
    if METRICS.enabled:
        METRICS.histogram("kernel_lowering_time", "seconds spent lowering one program").observe(dt)
    return CompiledKernel(
        program_name=program.name,
        source=source,
        lowering_seconds=dt,
        _ns=ns,
    )


# --------------------------------------------------------------------------
# expression emission
# --------------------------------------------------------------------------


def _assign(target: str, text: str, clamp: bool = False, depth: int = 0) -> list[str]:
    """``target = text`` (then, with *clamp*, ``0`` for a negative value),
    as lines indented *depth* levels."""
    pad = "    " * depth
    lines = [f"{pad}{target} = {text}"]
    if clamp:
        lines += [f"{pad}if {target} < 0:", f"{pad}    {target} = 0"]
    return lines


def _mangle(name: str) -> str:
    """The local a variable lives in: ``Expr.to_python`` renders reads with it."""
    if not name.isidentifier():
        raise UnsupportedConstructError(f"variable name {name!r} is not an identifier")
    return f"v_{name}"


def again_in(ns: dict):
    """A generated module's ``_again(text, frame)``: a statement's hoisted
    operands, evaluated in place because their hoisted evaluation raised.
    *text* is their expression and *frame* the generator's ``locals()``;
    the text is compiled on first use and kept with the module, and it
    reads the frame's variables over the module's namespace *ns*."""
    codes: dict = {}

    def again(text: str, frame: dict):
        code = codes.get(text)
        if code is None:
            code = codes[text] = compile(text, "<repro.kernel: hoisted operand>", "eval")
        # one namespace, so a generator expression in the text sees the
        # frame's variables too
        return eval(code, {**ns, **frame})  # noqa: PGH001 - generated text

    return again


# The generated modules call these where the interpreter raises, so each
# carries its check once, not once per statement.


def need_params(program: str, wparams, names: tuple) -> None:
    """A ``ReadParams``: raise the interpreter's error if the parameter
    file *wparams* of *program* lacks any of *names*."""
    if not all(n in wparams for n in names):
        from ..ir.interp import InterpreterError

        raise InterpreterError(
            f"{program}: parameter file lacks {[n for n in names if n not in wparams]}; "
            "run the timer-instrumented version first (Fig. 2 workflow)"
        )


def working_set(sizes: dict, arrays: tuple, task: str) -> float:
    """A comp block's working set: the bytes of its *arrays*, summed as
    the interpreter sums them."""
    try:
        return float(sum(sizes[a] for a in arrays))
    except KeyError as e:
        from ..ir.interp import InterpreterError

        raise InterpreterError(
            f"task {task!r} references undeclared array {e.args[0]!r}"
        ) from None


def stop_timer(timers: dict, task: str) -> float:
    """A ``StopTimer``: the start time of *task*'s running timer."""
    try:
        return timers.pop(task)
    except KeyError:
        from ..ir.interp import InterpreterError

        raise InterpreterError(f"timer_stop({task!r}) without timer_start") from None


# --------------------------------------------------------------------------
# statement walker
# --------------------------------------------------------------------------

_PREAMBLE = '''\
"""Generated by repro.kernel.lower — do not edit.

Program {name!r}.
"""
import math

from repro.ir.interp import REDUCE_FNS as _RF, InterpreterError
from repro.sim.requests import (
    Alloc,
    Collective,
    Compute,
    Delay,
    Irecv,
    Isend,
    Recv,
    Send,
)
from repro.kernel.lower import (
    again_in as _again_in,
    need_params as _need,
    stop_timer as _stop,
    working_set as _wset,
)
from repro.symbolic.expr import CeilDiv as _CeilDiv, FloorDiv as _FloorDiv

_fd = _FloorDiv._apply
_cd = _CeilDiv._apply
_INF = math.inf
_UNSET = object()
_again = _again_in(globals())

PROGRAM = {name!r}
'''


class _Lowerer:
    """Walks a validated program once, emitting its ``fast_gen``.

    With *measure* it emits the measure variant: the same code plus the
    interpreter's collector and profile calls.  With *trace* it emits
    the traced variant: the same code plus the Request driver's compute
    and delay trace events.
    """

    def __init__(self, program: Program, measure: bool = False, trace: bool = False):
        self.program = program
        self.measure = measure
        self.trace = trace
        # Names a handle variable: these must never be read as scalars
        # (the interpreter pops them from env; locals cannot replicate that).
        self.handle_vars: set[str] = set()
        # Arrays the interpreter backs with NumPy; the others are only
        # accounted for, so the generated code has no value to read.
        self.materialized = {a.name for a in program.arrays.values() if a.materialize}
        self.unread_arrays = set(program.arrays) - self.materialized
        self.has_kernels = False
        # the per-rank array sizes are kept only for the statements that
        # read them back: comp blocks over arrays and ArrayAssign pricing
        self.reads_sizes = False
        self.has_timers = False
        for stmt in walk(program.body):
            if isinstance(stmt, (IsendStmt, IrecvStmt)):
                self.handle_vars.add(stmt.handle_var)
            elif isinstance(stmt, WaitAllStmt):
                self.handle_vars.update(stmt.handle_vars)
            elif isinstance(stmt, CompBlock):
                self.has_kernels = self.has_kernels or stmt.kernel is not None
                self.reads_sizes = self.reads_sizes or bool(stmt.arrays)
            elif isinstance(stmt, ArrayAssign):
                self.reads_sizes = True
            elif isinstance(stmt, (StartTimer, StopTimer)):
                self.has_timers = True
        # Working-set caches are keyed by statement sid in the interpreter;
        # replicate the keying.
        self._ws_names: dict[int, str] = {}
        # Kernel callables the module imports: (module, name) -> alias.
        self._kernels: dict[tuple[str, str], str] = {}
        # The For statements enclosing the one being emitted, outermost
        # first, and the count of hoisted locals so far.
        self.loops: list[_Loop] = []
        self._assigned_by: dict[int, frozenset] = {}  # For sid -> _assigned()
        self._hoisted = 0

    # -- small helpers -----------------------------------------------------

    def _expr(self, e) -> str:
        """*e* as Python over ``v_<name>`` locals: the text ``Expr.compile`` runs.

        Refuses reads of handle variables, which the interpreter pops
        from its env and these locals cannot, and of arrays that are not
        materialized, which have no values on either side.
        """
        names = e.free_vars()
        bad = names & self.handle_vars
        if bad:
            raise UnsupportedConstructError(f"handle variable(s) {sorted(bad)} read as scalars")
        bad = names & self.unread_arrays
        if bad:
            raise UnsupportedConstructError(
                f"array(s) {sorted(bad)} read in an expression but not materialized"
            )
        return e.to_python(_mangle)

    # -- loop-invariant code motion -----------------------------------------

    def _assigned(self, stmt: For) -> frozenset:
        """Every name the loop *stmt* may assign: its variable, and in
        its body loop variables, ``Assign`` targets, kernel writes,
        collective results, broadcast parameters and handle variables.
        A kernel call (a comp block's or an ``ArrayAssign``'s) receives
        the per-rank array dict, so it may write any materialized array.
        Kept per loop: an enclosing loop's set holds its inner loops'."""
        names = self._assigned_by.get(stmt.sid)
        if names is not None:
            return names
        names = {stmt.var}
        stack = list(stmt.body)
        while stack:
            s = stack.pop()
            if type(s) is For:
                names |= self._assigned(s)
                continue
            names |= s.writes()
            if type(s) is WaitAllStmt:
                names.update(s.handle_vars)
            elif type(s) is ArrayAssign or (type(s) is CompBlock and s.kernel is not None):
                names |= self.materialized
            for block in s.children():
                stack += block
        names = self._assigned_by[stmt.sid] = frozenset(names)
        return names

    @staticmethod
    def _reads(e) -> frozenset | None:
        """The variables *e* reads, or ``None`` when evaluating it costs
        about what reading a hoisted local costs: a lone variable or
        literal, or a lone comparison."""
        if isinstance(e, (Var, Const, BoolConst, Cmp)):
            return None
        return e.free_vars()

    def _site(self, free: frozenset | None) -> "_Loop | None":
        """The outermost enclosing loop that assigns none of *free*, or
        ``None`` to keep the operand in place: *free* is ``None``, or
        empty (a closed operand, which would only add a fallback to
        compile and a slot to every rank's frame)."""
        if free:
            for loop in self.loops:
                if loop.assigned.isdisjoint(free):
                    return loop
        return None

    def _let(self, w: "_Writer", *operands: tuple) -> None:
        """Emit one statement's operands in order, each ``(target, text,
        free)`` or ``(target, text, free, clamp)``: ``target = text``,
        then with *clamp* ``0`` for a negative value.

        Inside loops, an operand's *text*, which reads the variables
        *free*, is evaluated once, into a local, before the outermost
        enclosing loop that assigns none of them (:meth:`_site`); the
        statement reads the local.  A closed text, or ``None`` for
        *free*, stays in place.  A site's evaluation that raises leaves
        all its locals unbound, and the statement then evaluates the text
        again in place (:func:`again_in`), so the error and the partial
        stats it leaves are the unhoisted ones.
        """
        if not self.loops:
            for op in operands:
                w.lines += _assign(op[0], op[1], len(op) > 3 and op[3], w.depth)
            return
        run = []  # hoisted operands not yet emitted: (target, local, text, clamp)
        for op in operands:
            target, text, free = op[:3]
            clamp = len(op) > 3 and op[3]
            local = self._hoist(text, free, clamp)
            if local is not None:
                run.append((target, local, text, clamp))
                continue
            self._emit_run(w, run)
            w.lines += _assign(target, text, clamp, w.depth)
        self._emit_run(w, run)

    @staticmethod
    def _emit_run(w: "_Writer", run: list) -> None:
        """Read a run of hoisted operands from their locals, or evaluate
        their texts again, in order, in one call: one line each, so the
        ``try`` costs no NOP."""
        if not run:
            return
        values = ", ".join(f"0 if (_x := {text}) < 0 else _x" if clamp else text
                           for _, _, text, clamp in run)
        if len(run) > 1:
            values = f"({values})"
        w.line("try: " + "; ".join(f"{t} = {h}" for t, h, *_ in run))
        w.line(f"except NameError: {', '.join(t for t, *_ in run)} = _again({values!r}, locals())")
        run.clear()

    def _hoist(self, text: str, free: frozenset | None, clamp: bool) -> str | None:
        """The local that holds *text* (clamped with *clamp*) before its
        site, or ``None`` to evaluate it in place.  A site keeps one local
        per distinct computation."""
        site = self._site(free)
        if site is None:
            return None
        local = site.locals.get((text, clamp))
        if local is None:
            local = site.locals[text, clamp] = f"_h{self._hoisted}"
            self._hoisted += 1
            site.hoists += _assign(local, text, clamp)
        return local

    def _values(self, w: "_Writer", *operands: tuple) -> list[str]:
        """The texts to use for *operands*, each ``(temp, text, free)``:
        the texts themselves if none is hoisted, else every *temp*, bound
        in order by :meth:`_let`, so they are evaluated in the
        interpreter's order."""
        if all(self._site(free) is None for _, _, free in operands):
            return [text for _, text, _ in operands]
        self._let(w, *operands)
        return [temp for temp, _, _ in operands]

    def _ws_name(self, sid: int) -> str:
        name = self._ws_names.get(sid)
        if name is None:
            name = f"_wsc{len(self._ws_names)}"
            self._ws_names[sid] = name
        return name

    # -- module assembly ---------------------------------------------------

    def emit_module(self) -> str:
        prog = self.program
        fast_lines = self._emit_gen()
        parts = [_PREAMBLE.format(name=prog.name)]
        if self.materialized:
            parts.append("from numpy import zeros")
        for (module, name), alias in self._kernels.items():
            parts.append(f"from {module} import {name} as {alias}")
        parts.append("")
        args = "rank, size, inputs, wparams, _rt, _st"
        if self.measure:
            args += ", _mc, _bp"
        if self.trace:
            args += ", _tra"
        parts.append(f"def fast_gen({args}):")
        parts.extend(fast_lines)
        parts.append("")
        return "\n".join(parts)

    def _emit_gen(self) -> list[str]:
        prog = self.program
        w = _Writer()
        w.line("_tt, _CHF, _EVOH, _DHC, _TIC, _alloc = _rt")
        if self.measure:
            w.line("_rw = _mc.record_work")
            w.line("_re = _mc.record_elapsed")
            w.line("_br = _bp.record")
        w.line("ev = 0")
        w.line("ct = 0.0")
        # handle ids are assigned in program order on both sides, so the
        # generator mirrors the loop's per-rank counter and never
        # needs the id sent back through the resume value
        w.line("_hid = 0")
        # the loop's priming resume: nothing runs before the first event
        w.line("clock = yield")
        # Interpreter order: env = dict(inputs), then builtins overwrite.
        for name in prog.params:
            w.line(f"{_mangle(name)} = inputs[{name!r}]")
        w.line("v_myid = rank")
        w.line("v_P = size")
        w.line("_wp = wparams")
        if self.reads_sizes:
            w.line("_sz = {}")
        if self.has_timers:
            w.line("_tm = {}")
        for name in sorted(self.handle_vars):
            w.line(f"{_mangle(name)} = _UNSET")
        for ws in dict.fromkeys(self._collect_ws_names(prog)):
            w.line(f"{ws} = None")
        if self.has_kernels or self.materialized:
            # the interpreter's per-rank dict of materialized arrays, the
            # one every kernel receives (an ArrayAssign lowers only into
            # a materialized array); the prologue fills it
            w.line("_arr = {}")
        # Array declaration prologue (interp order: program.arrays.values()).
        # A size may read a materialized array declared before it (still
        # zeros); one declared later is unbound in the interpreter's env,
        # which its locals cannot mirror.
        later = set(self.materialized)
        for decl in prog.arrays.values():
            early = decl.size.free_vars() & later
            if early:
                raise UnsupportedConstructError(
                    f"array {decl.name!r} size reads array(s) {sorted(early)} declared later"
                )
            later.discard(decl.name)
            w.line(f"_n = int({self._expr(decl.size)})")
            w.line("if _n < 0:")
            w.line(
                f'    raise InterpreterError(f"array {decl.name!r} '
                'has negative size {_n}")'
            )
            w.line(f"_nb = _n * {decl.itemsize!r}")
            if self.reads_sizes:
                w.line(f"_sz[{decl.name!r}] = _nb")
            self._emit_alloc(w, decl.name)
            if decl.materialize:
                w.line(f"{_mangle(decl.name)} = _arr[{decl.name!r}] = zeros(_n)")
        for stmt in prog.body:
            self._emit_stmt(w, stmt)
        self._flush(w)
        return w.lines

    def _collect_ws_names(self, prog: Program) -> list[str]:
        names = []
        for stmt in walk(prog.body):
            if isinstance(stmt, CompBlock):
                names.append(self._ws_name(stmt.sid))
        return names

    # -- yield plumbing ----------------------------------------------------

    def _flush(self, w: "_Writer") -> None:
        # Every driver-owned per-rank cell, so stats are exact between any
        # two events (the partial stats of a tripped budget).  The host
        # cost is shared: compute and delay add theirs to _st[4] directly,
        # between the loop's message costs, in the interpreter's float
        # order.
        w.line("_st[0] = clock")
        w.line("_st[1] = ev")
        w.line("_st[2] = ct")

    def _emit_yield(self, w: "_Writer", op: str, target: str = "clock") -> None:
        """One yield to the loop: count it, flush, suspend."""
        w.line("ev += 1")
        self._flush(w)
        w.line(f"{target} = yield {op}")

    # -- statement dispatch ------------------------------------------------

    def _emit_stmt(self, w: "_Writer", stmt) -> None:
        ty = type(stmt)
        if ty is Assign:
            self._let(w, (_mangle(stmt.var), self._expr(stmt.expr), self._reads(stmt.expr)))
            return
        if ty is CompBlock:
            self._emit_comp(w, stmt)
            return
        if ty is For:
            self._emit_for(w, stmt)
            return
        if ty is If:
            cond = self._expr(stmt.cond)
            if self.measure:
                self._let(w, ("_tk", f"bool({cond})", stmt.cond.free_vars()))
                w.line(f"_br({stmt.profile_key!r}, _tk)")
                w.line("if _tk:")
            else:
                w.line(f"if {self._values(w, ('_c', cond, self._reads(stmt.cond)))[0]}:")
            if stmt.then:
                with w.indented():
                    for s in stmt.then:
                        self._emit_stmt(w, s)
            else:
                w.line("    pass")
            if stmt.orelse:
                w.line("else:")
                with w.indented():
                    for s in stmt.orelse:
                        self._emit_stmt(w, s)
            return
        if ty is SendStmt or ty is IsendStmt:
            self._emit_send(w, stmt, blocking=ty is SendStmt)
            return
        if ty is RecvStmt or ty is IrecvStmt:
            self._emit_recv(w, stmt, blocking=ty is RecvStmt)
            return
        if ty is WaitAllStmt:
            self._emit_wait(w, stmt)
            return
        if ty is CollectiveStmt:
            self._emit_collective(w, stmt)
            return
        if ty is DelayStmt:
            self._emit_delay(w, stmt)
            return
        if ty is ReadParams:
            self._emit_read_params(w, stmt)
            return
        if ty is StartTimer:
            w.line("clock += _TIC")
            w.line("ev += 1")
            w.line(f"_tm[{stmt.task!r}] = clock")
            return
        if ty is StopTimer:
            w.line(f"_t0 = _stop(_tm, {stmt.task!r})")
            w.line("clock += _TIC")
            w.line("ev += 1")
            if self.measure:
                w.line(f"_re({stmt.task!r}, clock - _t0)")
            return
        if ty is AllocStmt:
            self._let(w, ("_nb", f"int({self._expr(stmt.nbytes)})", stmt.nbytes.free_vars()))
            w.line("if _nb < 0:")
            w.line(f"    Alloc({stmt.name!r}, _nb)")
            self._emit_alloc(w, stmt.name)
            if self.reads_sizes:
                w.line(f"_sz[{stmt.name!r}] = _nb")
            return
        if ty is ArrayAssign:
            self._emit_array_assign(w, stmt)
            return
        raise UnsupportedConstructError(f"statement kind {ty.__name__} is not lowerable")

    # -- individual statements ---------------------------------------------

    def _emit_alloc(self, w: "_Writer", name: str) -> None:
        """Account ``_nb`` bytes under *name*: one event, no yield."""
        w.line("ev += 1")
        w.line(f"_alloc(rank, {name!r}, _nb)")

    def _kernel_alias(self, what: str, fn, reads: frozenset,
                      writes: frozenset = frozenset()) -> str:
        """The module-level name the generated code calls kernel *fn* by.

        *what* names the statement that carries it.  Only a top-level
        function (its ``__module__``/``__qualname__`` resolve back to it)
        with declared reads lowers: the module imports it by name, and
        the call sees exactly the declared reads, which may name
        materialized arrays but no handle and no other array.
        """
        module = getattr(fn, "__module__", None)
        name = getattr(fn, "__qualname__", None)
        if (
            not reads
            or not isinstance(name, str)
            or not name.isidentifier()
            or getattr(sys.modules.get(module), name, None) is not fn
        ):
            raise UnsupportedConstructError(f"{what} carries a Python kernel callable")
        bad = (reads | writes) & (self.handle_vars | self.unread_arrays)
        if bad:
            raise UnsupportedConstructError(
                f"{what} kernel reads or writes handle or array name(s) {sorted(bad)}"
            )
        alias = self._kernels.get((module, name))
        if alias is None:
            alias = self._kernels[(module, name)] = f"_kf{len(self._kernels)}"
        return alias

    @staticmethod
    def _reads_dict(reads: frozenset) -> str:
        """The dict of a kernel's declared reads, in the interpreter's order."""
        items = ", ".join(f"{n!r}: {_mangle(n)}" for n in sorted(reads))
        return f"{{{items}}}"

    def _emit_comp(self, w: "_Writer", stmt: CompBlock) -> None:
        kernel = None
        if stmt.kernel is not None:
            kernel = self._kernel_alias(
                f"comp block {stmt.name!r}", stmt.kernel, stmt.reads_, stmt.writes_
            )
        ws = self._ws_name(stmt.sid)
        self._let(w, ("_w", self._expr(stmt.work), self._reads(stmt.work), True))
        if kernel is not None:
            # the interpreter's call: declared reads in, declared writes out
            w.line(f"_kd = {self._reads_dict(stmt.reads_)}")
            w.line(f"{kernel}(_kd, _arr)")
            for n in sorted(stmt.writes_):
                w.line(f"{_mangle(n)} = _kd[{n!r}]")
        w.line("if _w > 0:")
        with w.indented():
            w.line(f"if {ws} is None:")
            with w.indented():
                if stmt.arrays:
                    w.line(f"{ws} = _wset(_sz, {tuple(stmt.arrays)!r}, {stmt.name!r})")
                else:
                    w.line(f"{ws} = 0.0")
            w.line(f"_ops = _w * {stmt.ops_per_iter!r}")
            self._emit_compute(w, ws, stmt.name)
        if self.measure:
            w.line(f"_rw({stmt.name!r}, _w)")

    def _emit_array_assign(self, w: "_Writer", stmt: ArrayAssign) -> None:
        """Fill a materialized array, then price the work as the
        interpreter does: ``float(work)`` ops over the array's bytes,
        no task, and nothing when the work is not positive."""
        if stmt.array not in self.materialized:
            raise UnsupportedConstructError(
                f"ArrayAssign target {stmt.array!r} is not a materialized array"
            )
        kernel = self._kernel_alias(f"ArrayAssign to {stmt.array!r}", stmt.kernel, stmt.reads_)
        w.line(f"{kernel}({self._reads_dict(stmt.reads_)}, _arr)")
        self._let(w, ("_w", self._expr(stmt.work), self._reads(stmt.work)))
        w.line("if _w > 0:")
        with w.indented():
            w.line("_ops = float(_w)")
            w.line(f"_ws = _sz[{stmt.array!r}]")
            self._emit_compute(w, "_ws")

    def _emit_compute(self, w: "_Writer", ws: str, task: str | None = None) -> None:
        """Charge ``_ops`` operations over working set *ws* as the Request
        driver charges a ``Compute`` of *task*: one event and no yield.
        Values the request would refuse construct it, so it raises its
        own error."""
        w.line(f"if 0 <= _ops < _INF and 0 <= {ws} < _INF:")
        with w.indented():
            w.line(f"_dt = _tt(_ops, {ws})")
            if self.trace:
                w.line("_ts = clock")
            w.line("clock += _dt")
            w.line("ct += _dt")
            if self.trace:
                w.line("_hx = _ops * _CHF + _EVOH")
                w.line("_st[4] += _hx")
                w.line('_tra(proc=rank, kind="compute", start=_ts, end=clock, host_cost=_hx)')
            else:
                w.line("_st[4] += _ops * _CHF + _EVOH")
            w.line("ev += 1")
        w.line("else:")
        task_kw = f", task={task!r}" if task is not None else ""
        w.line(f"    Compute(ops=_ops, working_set_bytes={ws}{task_kw})")

    def _emit_send(self, w: "_Writer", stmt, blocking: bool) -> None:
        self._let(w, ("_d", f"int({self._expr(stmt.dest)})", stmt.dest.free_vars()),
                  ("_nb", f"int({self._expr(stmt.nbytes)})", stmt.nbytes.free_vars()))
        tag = int(stmt.tag)
        w.line("if _d < 0 or not (0 <= _nb < _INF):")
        cls = "Send" if blocking else "Isend"
        w.line(f"    {cls}(dest=_d, nbytes=_nb, tag={tag!r})")
        if not blocking:
            w.line("_hid += 1")
            w.line(f"{_mangle(stmt.handle_var)} = _hid")
        self._emit_yield(w, f"({1 if blocking else 3}, clock, _d, _nb, {tag!r}, None, None)")

    def _emit_recv(self, w: "_Writer", stmt, blocking: bool) -> None:
        self._let(w, ("_s", f"int({self._expr(stmt.source)})", stmt.source.free_vars()),
                  ("_nb", f"int({self._expr(stmt.nbytes)})", stmt.nbytes.free_vars()))
        tag = int(stmt.tag)
        w.line("if _s < 0 and _s != -1:")
        cls = "Recv" if blocking else "Irecv"
        w.line(f"    {cls}(source=_s, tag={tag!r}, nbytes_hint=_nb)")
        if not blocking:
            w.line("_hid += 1")
            w.line(f"{_mangle(stmt.handle_var)} = _hid")
        self._emit_yield(w, f"({2 if blocking else 4}, clock, _s, {tag!r}, None)")

    def _emit_wait(self, w: "_Writer", stmt: WaitAllStmt) -> None:
        names = ", ".join(_mangle(v) for v in stmt.handle_vars)
        trail = "," if len(stmt.handle_vars) == 1 else ""
        w.line(f"_hl = [_h for _h in ({names}{trail}) if _h is not _UNSET]")
        w.line("if _hl:")
        with w.indented():
            self._emit_yield(w, "(5, clock, _hl)")
        for v in stmt.handle_vars:
            w.line(f"{_mangle(v)} = _UNSET")

    def _emit_collective(self, w: "_Writer", stmt: CollectiveStmt) -> None:
        operands = [("_nb", f"int({self._expr(stmt.nbytes)})", stmt.nbytes.free_vars()),
                    ("_rt", f"int({self._expr(stmt.root)})", stmt.root.free_vars())]
        if stmt.contrib is not None:
            operands.append(("_cv", self._expr(stmt.contrib), self._reads(stmt.contrib)))
        self._let(w, *operands)
        cv = "None" if stmt.contrib is None else "_cv"
        rf = f"_RF[{stmt.reduce_kind!r}]" if stmt.op in ("reduce", "allreduce") else "None"
        w.line("if not (0 <= _nb < _INF) or _rt < 0:")
        w.line(f"    Collective(op={stmt.op!r}, nbytes=_nb, root=_rt)")
        # resumed with (time, result): unpacked at once, so no frame
        # keeps the tuple
        if stmt.result_var is not None:
            target = f"clock, {_mangle(stmt.result_var)}"
        else:
            target = "clock, _"
        self._emit_yield(w, f"(6, clock, {stmt.op!r}, _nb, _rt, {cv}, {rf}, None)", target)

    def _emit_read_params(self, w: "_Writer", stmt: ReadParams) -> None:
        names = tuple(stmt.names)
        w.line(f"_need(PROGRAM, _wp, {names!r})")
        nbytes = 8 * len(names)
        payload = ", ".join(f"{n!r}: _wp[{n!r}]" for n in names)
        self._emit_yield(
            w, f'(6, clock, "bcast", {nbytes!r}, 0, {{{payload}}} if v_myid == 0 else None, '
            'None, None)', "clock, _rd")
        for n in names:
            w.line(f"{_mangle(n)} = _rd[{n!r}]")
        w.line("del _rd")  # the root's payload, which every rank would keep

    def _emit_delay(self, w: "_Writer", stmt: DelayStmt) -> None:
        self._let(w, ("_dy", f"max(float({self._expr(stmt.amount)}), 0.0)",
                      stmt.amount.free_vars()))
        w.line("if _dy < _INF:")
        with w.indented():
            if self.trace:
                w.line("_ts = clock")
            w.line("clock += _dy")
            w.line("ct += _dy")
            w.line("_st[4] += _DHC")
            w.line("ev += 1")
            if self.trace:
                w.line('_tra(proc=rank, kind="delay", start=_ts, end=clock, host_cost=_DHC)')
        w.line("else:")
        w.line(f"    Delay(seconds=_dy, task={stmt.task!r})")

    def _emit_for(self, w: "_Writer", stmt: For) -> None:
        # the bounds are operands of the code around the loop
        lo, hi = self._values(w, ("_lo", f"int({self._expr(stmt.lo)})", stmt.lo.free_vars()),
                              ("_hi", f"int({self._expr(stmt.hi)}) + 1", stmt.hi.free_vars()))
        loop = _Loop(self._assigned(stmt))
        body = _Writer(w.depth + 1)
        self.loops.append(loop)
        for s in stmt.body:
            self._emit_stmt(body, s)
        self.loops.pop()
        if loop.hoists:
            w.line("try:")
            w.lines += (f"{'    ' * (w.depth + 1)}{line}" for line in loop.hoists)
            w.line("except Exception:")
            # all unbound, also those an enclosing loop's earlier trip bound
            names = list(loop.locals.values())
            w.line(f"    {' = '.join(names)} = None")
            w.line(f"    del {', '.join(names)}")
        w.line(f"for {_mangle(stmt.var)} in range({lo}, {hi}):")
        w.lines += body.lines


class _Loop:
    """A ``For`` whose body is being emitted: the names it may assign,
    and the lines that compute its hoisted locals before it."""

    def __init__(self, assigned: frozenset):
        self.assigned = assigned
        self.hoists: list[str] = []
        self.locals: dict[tuple[str, bool], str] = {}  # (text, clamp) -> local


class _Writer:
    def __init__(self, depth: int = 1):
        self.lines: list[str] = []
        self.depth = depth

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def indented(self):
        return _Indent(self)


class _Indent:
    def __init__(self, writer: _Writer):
        self.w = writer

    def __enter__(self):
        self.w.depth += 1
        return self.w

    def __exit__(self, *exc):
        self.w.depth -= 1
        return False
