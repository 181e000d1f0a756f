"""Lower an IR :class:`~repro.ir.nodes.Program` to a generated Python module.

The interpreted kernel (:mod:`repro.ir.interp`) walks the statement tree
once per rank per run, paying a generator suspension plus a tree dispatch
per statement.  This pass walks the tree **once per program** instead and
emits flat Python source — one module per program, content-addressed by
:func:`program_fingerprint` — with one entry point:

``fast_gen(rank, size, inputs, wparams, rt, st)``
    The per-rank driver :func:`repro.sim.loop.run` resumes.  Compute,
    delay, timer and allocation requests fold into inline arithmetic and
    calls, and only communication points yield, with the op tuples of
    :mod:`repro.sim.loop` (not request objects).  The generator first
    stops at a bare ``yield``; the loop's priming resume sends it the
    start time.  At every yield it flushes its clock, event count,
    compute time and host cost to ``st``, which keeps per-rank stats in
    exactly the interpreter's floating-point order and exact between
    events (a tripped budget reads them mid-run).

``fast_gen(rank, size, inputs, wparams, rt, st, collector, profile)``
    The measure variant (``measure=True``), for a calibration run: the
    same code plus the interpreter's measurement calls, in its order.
    It calls ``collector.record_work`` after each comp block,
    ``collector.record_elapsed`` after each ``timer_stop`` and
    ``profile.record`` at each ``If``.  The plain module never emits
    them.

Event traces need the interpreter, whose compute and delay requests a
trace records: a traced run interprets the program instead (see
:class:`repro.sim.engine.Simulator`).  A module lives only in the
process that lowered it: :func:`kernel_for` caches each variant by
fingerprint, and nothing writes generated code to disk.

Anything the emitter cannot reproduce bit-for-bit raises
:class:`UnsupportedConstructError`; ``backend="auto"`` catches it and
falls back to the interpreter for that program (with a logged reason).
"""

from __future__ import annotations

import hashlib
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
from ..ir.printer import format_program
from ..obs.logging import get_logger
from ..obs.metrics import METRICS
from ..symbolic.boolean import And, BoolConst, BoolExpr, Cmp, Not, Or
from ..symbolic.expr import (
    Add,
    CeilDiv,
    Const,
    Div,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Var,
)
from ..symbolic.extended import Cond, Sum

__all__ = [
    "UnsupportedConstructError",
    "CompiledKernel",
    "program_fingerprint",
    "lower_program",
    "kernel_for",
    "cache_stats",
    "clear_cache",
    "cached_kernels",
]

log = get_logger("kernel.lower")


class UnsupportedConstructError(Exception):
    """The program uses a construct the compiled backend cannot reproduce."""


# Builtin names the interpreter injects into every rank's environment.
_BUILTINS = ("myid", "P")

# In-process content-addressed cache: fingerprint -> CompiledKernel.
# A measure variant is keyed by the fingerprint plus _MEASURE_KEY.
_CACHE: dict[str, "CompiledKernel"] = {}

# Remembered lowering failures: cache key -> UnsupportedConstructError
# message, so a program that cannot lower is walked only once.
_FAILED: dict[str, str] = {}

_MEASURE_KEY = "+measure"

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
    out["cached_programs"] = len(_CACHE)
    # always 0 (nothing batches delay waves); benchmarks/e2e/tracing.py
    # reads the key
    out["waves"] = 0
    return out


def clear_cache() -> None:
    _CACHE.clear()
    _FAILED.clear()
    for key in _STATS:
        _STATS[key] = 0.0 if key == "lowering_seconds" else 0


def cached_kernels() -> dict[str, "CompiledKernel"]:
    return dict(_CACHE)


def program_fingerprint(program: Program) -> str:
    """Content address of a program: SHA-256 of its printed IR.

    The printed IR omits comp-block kernel callables, so each kernel
    block also adds its callable's ``module.qualname`` and its declared
    reads and writes: programs that differ only there lower differently.
    """
    text = format_program(program)
    for stmt in walk(program.body):
        if type(stmt) is CompBlock and stmt.kernel is not None:
            fn = stmt.kernel
            text += (
                f"\nkernel {stmt.name} {getattr(fn, '__module__', None)}."
                f"{getattr(fn, '__qualname__', None)}"
                f" reads={sorted(stmt.reads_)} writes={sorted(stmt.writes_)}"
            )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CompiledKernel:
    """A lowered program: generated source plus its executable entry point."""

    program_name: str
    fingerprint: str
    source: str
    lowering_seconds: float
    _ns: dict = field(repr=False, default_factory=dict)

    @property
    def fast_gen(self):
        return self._ns["fast_gen"]


def _execute_source(source: str, name: str, fingerprint: str, measure: bool) -> dict:
    ns: dict = {}
    tag = _MEASURE_KEY if measure else ""
    code = compile(source, f"<repro.kernel:{name}:{fingerprint[:12]}{tag}>", "exec")
    exec(code, ns)
    return ns


def kernel_for(program: Program, measure: bool = False) -> CompiledKernel:
    """Lower *program* once per process, cached by its fingerprint.

    *measure* selects the measure variant (see the module docstring),
    cached under its own key next to the plain module.  A program that
    failed to lower raises the same :class:`UnsupportedConstructError`
    again, from memory, until :func:`clear_cache`.
    """
    fp = program_fingerprint(program)
    key = fp + _MEASURE_KEY if measure else fp
    hit = _CACHE.get(key)
    if hit is not None:
        _count("cache_hits")
        return hit
    failed = _FAILED.get(key)
    if failed is not None:
        _count("cache_hits")
        raise UnsupportedConstructError(failed)
    _count("cache_misses")
    try:
        kernel = lower_program(program, fingerprint=fp, measure=measure)
    except UnsupportedConstructError as exc:
        _FAILED[key] = str(exc)
        raise
    _CACHE[key] = kernel
    return kernel


def lower_program(program: Program, fingerprint: str | None = None,
                  measure: bool = False) -> CompiledKernel:
    """Lower one program to a generated module (no cache involvement)."""
    t0 = time.perf_counter()
    try:
        program.validate()
    except IRValidationError as exc:
        raise UnsupportedConstructError(f"program does not validate: {exc}") from exc
    source = _Lowerer(program, measure).emit_module()
    fp = fingerprint if fingerprint is not None else program_fingerprint(program)
    ns = _execute_source(source, program.name, fp, measure)
    dt = time.perf_counter() - t0
    _count("lowered")
    _count("lowering_seconds", dt)
    if METRICS.enabled:
        METRICS.histogram("kernel_lowering_time", "seconds spent lowering one program").observe(dt)
    return CompiledKernel(
        program_name=program.name,
        fingerprint=fp,
        source=source,
        lowering_seconds=dt,
        _ns=ns,
    )


# --------------------------------------------------------------------------
# expression emission
# --------------------------------------------------------------------------


def _mangle(name: str) -> str:
    if not name.isidentifier():
        raise UnsupportedConstructError(f"variable name {name!r} is not an identifier")
    return f"v_{name}"


def _emit_expr(e: Expr) -> str:
    """Emit *e* as flat Python over ``v_<name>`` locals.

    Mirrors :meth:`Expr._emit` (the interpreter's compiled form) operator
    for operator so scalar results are bit-identical.
    """
    ty = type(e)
    if ty is Const:
        return f"({e.value!r})"
    if ty is Var:
        return _mangle(e.name)
    if ty is Add:
        return "(" + " + ".join(_emit_expr(t) for t in e.args) + ")"
    if ty is Mul:
        return "(" + " * ".join(_emit_expr(t) for t in e.args) + ")"
    if ty is Max:  # Max subclasses Min: test first
        return "max(" + ", ".join(_emit_expr(t) for t in e.args) + ")"
    if ty is Min:
        return "min(" + ", ".join(_emit_expr(t) for t in e.args) + ")"
    if ty is Div:
        return f"({_emit_expr(e.a)} / {_emit_expr(e.b)})"
    if ty is FloorDiv:
        return f"_fd({_emit_expr(e.a)}, {_emit_expr(e.b)})"
    if ty is CeilDiv:
        return f"_cd({_emit_expr(e.a)}, {_emit_expr(e.b)})"
    if ty is Mod:
        return f"({_emit_expr(e.a)} % {_emit_expr(e.b)})"
    if ty is Sum:
        body = _emit_expr(e.body)
        lo = _emit_expr(e.lo)
        hi = _emit_expr(e.hi)
        var = _mangle(e.var)
        return f"sum({body} for {var} in range(int({lo}), int({hi}) + 1))"
    if ty is Cond:
        return (
            f"(({_emit_expr(e.then)}) if ({_emit_bool(e.cond)}) "
            f"else ({_emit_expr(e.orelse)}))"
        )
    raise UnsupportedConstructError(f"expression node {ty.__name__} is not lowerable")


def _emit_bool(e: BoolExpr) -> str:
    ty = type(e)
    if ty is BoolConst:
        return "True" if e.value else "False"
    if ty is Cmp:
        return f"({_emit_expr(e.a)} {e.op} {_emit_expr(e.b)})"
    if ty is And:
        return "(" + " and ".join(_emit_bool(t) for t in e.args) + ")"
    if ty is Or:
        return "(" + " or ".join(_emit_bool(t) for t in e.args) + ")"
    if ty is Not:
        return f"(not {_emit_bool(e.arg)})"
    raise UnsupportedConstructError(f"boolean node {ty.__name__} is not lowerable")


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
from repro.symbolic.expr import CeilDiv as _CeilDiv, FloorDiv as _FloorDiv

_fd = _FloorDiv._apply
_cd = _CeilDiv._apply
_INF = math.inf
_UNSET = object()

PROGRAM = {name!r}
'''


class _Lowerer:
    """Walks a validated program once, emitting its ``fast_gen``.

    With *measure* it emits the measure variant: the same code plus the
    interpreter's collector and profile calls.
    """

    def __init__(self, program: Program, measure: bool = False):
        self.program = program
        self.measure = measure
        # Names a handle variable: these must never be read as scalars
        # (the interpreter pops them from env; locals cannot replicate that).
        self.handle_vars: set[str] = set()
        self.has_kernels = False
        for stmt in walk(program.body):
            if isinstance(stmt, (IsendStmt, IrecvStmt)):
                self.handle_vars.add(stmt.handle_var)
            elif isinstance(stmt, WaitAllStmt):
                self.handle_vars.update(stmt.handle_vars)
            elif isinstance(stmt, CompBlock) and stmt.kernel is not None:
                self.has_kernels = True
        # Working-set caches are keyed by statement sid in the interpreter;
        # replicate the keying (including collisions on unnumbered trees).
        self._ws_names: dict[int, str] = {}
        # Kernel callables the module imports: (module, name) -> alias.
        self._kernels: dict[tuple[str, str], str] = {}

    # -- small helpers -----------------------------------------------------

    def _check_expr_reads(self, *exprs) -> None:
        for e in exprs:
            if e is None:
                continue
            names = e.free_vars()
            bad = names & self.handle_vars
            if bad:
                raise UnsupportedConstructError(
                    f"handle variable(s) {sorted(bad)} read as scalars"
                )

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
        for (module, name), alias in self._kernels.items():
            parts.append(f"from {module} import {name} as {alias}")
        parts.append("")
        if self.measure:
            parts.append("def fast_gen(rank, size, inputs, wparams, _rt, _st, _mc, _bp):")
        else:
            parts.append("def fast_gen(rank, size, inputs, wparams, _rt, _st):")
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
        w.line("hc = 0.0")
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
        w.line("_sz = {}")
        w.line("_tm = {}")
        for name in sorted(self.handle_vars):
            w.line(f"{_mangle(name)} = _UNSET")
        for ws in dict.fromkeys(self._collect_ws_names(prog)):
            w.line(f"{ws} = None")
        if self.has_kernels:
            # the interpreter's per-rank materialized-array dict, which is
            # empty here: lowering refuses materialized arrays
            w.line("_arr = {}")
        # Array declaration prologue (interp order: program.arrays.values()).
        for decl in prog.arrays.values():
            if decl.materialize:
                raise UnsupportedConstructError(
                    f"array {decl.name!r} is materialized (data-dependent control flow)"
                )
            self._check_expr_reads(decl.size)
            w.line(f"_n = int({_emit_expr(decl.size)})")
            w.line("if _n < 0:")
            w.line(
                f'    raise InterpreterError(f"array {decl.name!r} '
                'has negative size {_n}")'
            )
            w.line(f"_nb = _n * {decl.itemsize!r}")
            w.line(f"_sz[{decl.name!r}] = _nb")
            self._emit_alloc(w, decl.name)
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
        # Every per-rank cell, so stats are exact between any two events
        # (the partial stats of a tripped budget).
        # host_cost is shared: the loop adds message costs between yields,
        # so it accumulates in the interpreter's float order.
        w.line("_st[0] = clock")
        w.line("_st[1] = ev")
        w.line("_st[2] = ct")
        w.line("_st[4] = hc")

    def _emit_yield(self, w: "_Writer", op: str, target: str = "clock") -> None:
        """One yield to the loop: count it, flush, suspend, reload."""
        w.line("ev += 1")
        self._flush(w)
        w.line(f"{target} = yield {op}")
        w.line("hc = _st[4]")

    # -- statement dispatch ------------------------------------------------

    def _emit_stmt(self, w: "_Writer", stmt) -> None:
        ty = type(stmt)
        if ty is Assign:
            self._check_expr_reads(stmt.expr)
            w.line(f"{_mangle(stmt.var)} = {_emit_expr(stmt.expr)}")
            return
        if ty is CompBlock:
            self._emit_comp(w, stmt)
            return
        if ty is For:
            self._emit_for(w, stmt)
            return
        if ty is If:
            bad = stmt.cond.free_vars() & self.handle_vars
            if bad:
                raise UnsupportedConstructError(
                    f"handle variable(s) {sorted(bad)} read as scalars"
                )
            if self.measure:
                w.line(f"_tk = bool({_emit_bool(stmt.cond)})")
                w.line(f"_br({stmt.profile_key!r}, _tk)")
                w.line("if _tk:")
            else:
                w.line(f"if {_emit_bool(stmt.cond)}:")
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
            w.line("try:")
            w.line(f"    _t0 = _tm.pop({stmt.task!r})")
            w.line("except KeyError:")
            w.line(
                f'    raise InterpreterError("timer_stop({stmt.task!r}) '
                'without timer_start") from None'
            )
            w.line("clock += _TIC")
            w.line("ev += 1")
            if self.measure:
                w.line(f"_re({stmt.task!r}, clock - _t0)")
            return
        if ty is AllocStmt:
            self._check_expr_reads(stmt.nbytes)
            w.line(f"_nb = int({_emit_expr(stmt.nbytes)})")
            w.line("if _nb < 0:")
            w.line(f"    Alloc({stmt.name!r}, _nb)")
            self._emit_alloc(w, stmt.name)
            w.line(f"_sz[{stmt.name!r}] = _nb")
            return
        if ty is ArrayAssign:
            raise UnsupportedConstructError(
                f"ArrayAssign to {stmt.array!r} requires materialized arrays"
            )
        raise UnsupportedConstructError(f"statement kind {ty.__name__} is not lowerable")

    # -- individual statements ---------------------------------------------

    def _emit_alloc(self, w: "_Writer", name: str) -> None:
        """Account ``_nb`` bytes under *name*: one event, no yield."""
        w.line("ev += 1")
        w.line(f"_alloc(rank, {name!r}, _nb)")

    def _kernel_alias(self, stmt: CompBlock) -> str:
        """The module-level name the generated code calls *stmt*'s kernel by.

        Only a top-level function (its ``__module__``/``__qualname__``
        resolve back to it) with declared reads lowers: the module imports
        it by name, and the call sees exactly the declared scalars.
        """
        fn = stmt.kernel
        module = getattr(fn, "__module__", None)
        name = getattr(fn, "__qualname__", None)
        if (
            not stmt.reads_
            or not isinstance(name, str)
            or not name.isidentifier()
            or getattr(sys.modules.get(module), name, None) is not fn
        ):
            raise UnsupportedConstructError(
                f"comp block {stmt.name!r} carries a Python kernel callable"
            )
        bad = (stmt.reads_ | stmt.writes_) & (self.handle_vars | set(self.program.arrays))
        if bad:
            raise UnsupportedConstructError(
                f"comp block {stmt.name!r} kernel reads or writes "
                f"handle or array name(s) {sorted(bad)}"
            )
        alias = self._kernels.get((module, name))
        if alias is None:
            alias = self._kernels[(module, name)] = f"_kf{len(self._kernels)}"
        return alias

    def _emit_comp(self, w: "_Writer", stmt: CompBlock) -> None:
        kernel = self._kernel_alias(stmt) if stmt.kernel is not None else None
        self._check_expr_reads(stmt.work)
        ws = self._ws_name(stmt.sid)
        w.line(f"_w = {_emit_expr(stmt.work)}")
        w.line("if _w < 0:")
        w.line("    _w = 0")
        if kernel is not None:
            # the interpreter's call: declared reads in, declared writes out
            items = ", ".join(f"{n!r}: {_mangle(n)}" for n in sorted(stmt.reads_))
            w.line(f"_kd = {{{items}}}")
            w.line(f"{kernel}(_kd, _arr)")
            for n in sorted(stmt.writes_):
                w.line(f"{_mangle(n)} = _kd[{n!r}]")
        w.line("if _w > 0:")
        with w.indented():
            w.line(f"if {ws} is None:")
            with w.indented():
                if stmt.arrays:
                    refs = " + ".join(f"_sz[{a!r}]" for a in stmt.arrays)
                    w.line("try:")
                    w.line(f"    {ws} = float({refs})")
                    w.line("except KeyError as _e:")
                    w.line(
                        f'    raise InterpreterError(f"task {stmt.name!r} references '
                        'undeclared array {_e.args[0]!r}") from None'
                    )
                else:
                    w.line(f"{ws} = 0.0")
            w.line(f"_ops = _w * {stmt.ops_per_iter!r}")
            w.line(f"if 0 <= _ops < _INF and 0 <= {ws} < _INF:")
            with w.indented():
                w.line(f"_dt = _tt(_ops, {ws})")
                w.line("clock += _dt")
                w.line("ct += _dt")
                w.line("hc += _ops * _CHF + _EVOH")
                w.line("ev += 1")
            w.line("else:")
            w.line(f"    Compute(ops=_ops, working_set_bytes={ws}, task={stmt.name!r})")
        if self.measure:
            w.line(f"_rw({stmt.name!r}, _w)")

    def _emit_send(self, w: "_Writer", stmt, blocking: bool) -> None:
        self._check_expr_reads(stmt.dest, stmt.nbytes)
        w.line(f"_d = int({_emit_expr(stmt.dest)})")
        w.line(f"_nb = int({_emit_expr(stmt.nbytes)})")
        tag = int(stmt.tag)
        w.line("if _d < 0 or not (0 <= _nb < _INF):")
        cls = "Send" if blocking else "Isend"
        w.line(f"    {cls}(dest=_d, nbytes=_nb, tag={tag!r})")
        if not blocking:
            w.line("_hid += 1")
            w.line(f"{_mangle(stmt.handle_var)} = _hid")
        self._emit_yield(w, f"({1 if blocking else 3}, clock, _d, _nb, {tag!r}, None, None)")

    def _emit_recv(self, w: "_Writer", stmt, blocking: bool) -> None:
        self._check_expr_reads(stmt.source, stmt.nbytes)
        w.line(f"_s = int({_emit_expr(stmt.source)})")
        w.line(f"_nb = int({_emit_expr(stmt.nbytes)})")
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
        self._check_expr_reads(stmt.nbytes, stmt.root, stmt.contrib)
        w.line(f"_nb = int({_emit_expr(stmt.nbytes)})")
        w.line(f"_rt = int({_emit_expr(stmt.root)})")
        if stmt.contrib is not None:
            w.line(f"_cv = {_emit_expr(stmt.contrib)}")
        else:
            w.line("_cv = None")
        rf = f"_RF[{stmt.reduce_kind!r}]" if stmt.op in ("reduce", "allreduce") else "None"
        w.line("if not (0 <= _nb < _INF) or _rt < 0:")
        w.line(f"    Collective(op={stmt.op!r}, nbytes=_nb, root=_rt)")
        self._emit_yield(w, f"(6, clock, {stmt.op!r}, _nb, _rt, _cv, {rf}, None)", "_tmp")
        w.line("clock = _tmp[0]")
        if stmt.result_var is not None:
            w.line(f"{_mangle(stmt.result_var)} = _tmp[1]")

    def _emit_read_params(self, w: "_Writer", stmt: ReadParams) -> None:
        names = tuple(stmt.names)
        w.line(f"_ms = [n for n in {names!r} if n not in _wp]")
        w.line("if _ms:")
        w.line(
            '    raise InterpreterError(f"{PROGRAM}: parameter file lacks {_ms}; '
            'run the timer-instrumented version first (Fig. 2 workflow)")'
        )
        nbytes = 8 * len(names)
        w.line(f"_pl = {{n: _wp[n] for n in {names!r}}} if v_myid == 0 else None")
        self._emit_yield(w, f'(6, clock, "bcast", {nbytes!r}, 0, _pl, None, None)', "_tmp")
        w.line("clock = _tmp[0]")
        w.line("_rd = _tmp[1]")
        for n in names:
            w.line(f"{_mangle(n)} = _rd[{n!r}]")

    def _emit_delay(self, w: "_Writer", stmt: DelayStmt) -> None:
        self._check_expr_reads(stmt.amount)
        w.line(f"_a = {_emit_expr(stmt.amount)}")
        w.line("_dy = max(float(_a), 0.0)")
        w.line("if _dy < _INF:")
        with w.indented():
            w.line("clock += _dy")
            w.line("ct += _dy")
            w.line("hc += _DHC")
            w.line("ev += 1")
        w.line("else:")
        w.line(f"    Delay(seconds=_dy, task={stmt.task!r})")

    def _emit_for(self, w: "_Writer", stmt: For) -> None:
        self._check_expr_reads(stmt.lo, stmt.hi)
        w.line(
            f"for {_mangle(stmt.var)} in "
            f"range(int({_emit_expr(stmt.lo)}), int({_emit_expr(stmt.hi)}) + 1):"
        )
        with w.indented():
            for s in stmt.body:
                self._emit_stmt(w, s)


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self._depth = 1

    def line(self, text: str) -> None:
        self.lines.append("    " * self._depth + text)

    def indented(self):
        return _Indent(self)


class _Indent:
    def __init__(self, writer: _Writer):
        self.w = writer

    def __enter__(self):
        self.w._depth += 1
        return self.w

    def __exit__(self, *exc):
        self.w._depth -= 1
        return False
