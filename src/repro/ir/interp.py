"""IR interpreter: executes a program on the simulation kernel.

One interpreter executes every program version:

* the original program under ``ExecMode.MEASURED`` (ground truth) or
  ``ExecMode.DE`` (the unoptimized direct-execution simulator);
* the timer-instrumented program under ``MEASURED`` (the parameter-
  measurement run of Fig. 2), feeding a :class:`MeasurementCollector`;
* the compiler-simplified program (delays + dummy buffer) under ``DE``
  pricing — which *is* MPI-SIM-AM.

The interpreter yields :mod:`repro.sim.requests` objects, so a
:class:`repro.sim.Simulator` can run one interpreter instance per rank.
It is also the reference the compiled backend (:mod:`repro.kernel`) is
held to: a lowered program, including the measure variant that feeds a
:class:`MeasurementCollector` and a :class:`BranchProfile` in a
calibration run, must reproduce its results byte for byte.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

import numpy as np

from ..sim.requests import (
    Alloc,
    Collective,
    Compute,
    Delay,
    Irecv,
    Isend,
    Now,
    Recv,
    Request,
    Send,
    Wait,
)
from .nodes import (
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
    Stmt,
    StopTimer,
    WaitAllStmt,
)

__all__ = ["MeasurementCollector", "BranchProfile", "make_factory", "InterpreterError"]

#: reduction functions of the IR's reduce kinds (the compiled kernels share them)
REDUCE_FNS = {
    "sum": lambda a, b: a + b,
    "max": max,
    "min": min,
}


class InterpreterError(RuntimeError):
    """The program could not be executed (missing parameters, bad refs)."""


class MeasurementCollector:
    """Accumulates per-task elapsed time and work units across all ranks.

    The measured coefficient ``w_i = Σ elapsed / Σ work`` includes timer
    overhead and the calibration configuration's cache behaviour — the
    two approximation sources the paper discusses in Secs. 3.3 / 4.2.
    """

    def __init__(self):
        self._elapsed: dict[str, float] = defaultdict(float)
        self._work: dict[str, float] = defaultdict(float)
        self._samples: dict[str, int] = defaultdict(int)
        # per-sample rate statistics (Welford): n, mean, M2
        self._rate_acc: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
        self._pending_work: dict[str, float] = defaultdict(float)

    def record_elapsed(self, task: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative elapsed time for {task!r}")
        self._elapsed[task] += dt
        self._samples[task] += 1
        work = self._pending_work.pop(task, 0.0)
        if work > 0:
            rate = dt / work
            acc = self._rate_acc[task]
            acc[0] += 1
            delta = rate - acc[1]
            acc[1] += delta / acc[0]
            acc[2] += delta * (rate - acc[1])

    def record_work(self, task: str, work: float) -> None:
        self._work[task] += work
        self._pending_work[task] += work

    def rate_stats(self, task: str) -> tuple[float, float, int]:
        """(mean, stddev, n) of the per-sample w rates for *task*.

        Exposes measurement *quality*: a large spread flags noisy or
        cache-regime-straddling samples before they are trusted for
        extrapolation (the paper's Sec. 4.2 concern, made inspectable).
        """
        n, mean, m2 = self._rate_acc.get(task, (0.0, 0.0, 0.0))
        n = int(n)
        if n == 0:
            raise InterpreterError(f"no paired samples recorded for task {task!r}")
        std = (m2 / (n - 1)) ** 0.5 if n > 1 else 0.0
        return mean, std, n

    def tasks(self) -> list[str]:
        return sorted(set(self._elapsed) | set(self._work))

    def w(self, task: str) -> float:
        """Per-iteration cost of *task* (seconds per work unit)."""
        work = self._work.get(task, 0.0)
        if work <= 0:
            raise InterpreterError(f"no work recorded for task {task!r}")
        return self._elapsed.get(task, 0.0) / work

    def params(self) -> dict[str, float]:
        """All measured coefficients, keyed by parameter name ``w_<task>``."""
        return {f"w_{t}": self.w(t) for t in self.tasks() if self._work.get(t, 0.0) > 0}

    def samples(self, task: str) -> int:
        return self._samples.get(task, 0)


class BranchProfile:
    """Taken/not-taken counts per branch statement (profiling support).

    The paper: "we can use profiling to estimate the branching
    probabilities of eliminated branches."
    """

    def __init__(self):
        self._counts: dict[int, list[int]] = defaultdict(lambda: [0, 0])

    def record(self, sid: int, taken: bool) -> None:
        c = self._counts[sid]
        c[1] += 1
        if taken:
            c[0] += 1

    def probability(self, sid: int, default: float = 0.5) -> float:
        """Fraction of executions in which branch *sid* was taken."""
        taken, total = self._counts.get(sid, (0, 0))
        if total == 0:
            return default
        return taken / total

    def observed(self, sid: int) -> bool:
        return self._counts.get(sid, (0, 0))[1] > 0

    def to_dict(self) -> dict[str, list[int]]:
        """JSON form: ``{statement id: [taken, total]}`` (warm start)."""
        return {str(sid): list(c) for sid, c in sorted(self._counts.items())}

    @classmethod
    def from_dict(cls, doc: dict) -> "BranchProfile":
        profile = cls()
        for sid, pair in doc.items():
            taken, total = pair
            profile._counts[int(sid)] = [int(taken), int(total)]
        return profile


def make_factory(
    program: Program,
    inputs: dict[str, float],
    wparams: dict[str, float] | None = None,
    collector: MeasurementCollector | None = None,
    profile: BranchProfile | None = None,
):
    """Build a ``factory(rank, size)`` for :class:`repro.sim.Simulator`.

    ``inputs`` binds the program's parameters; ``wparams`` supplies the
    measured task-time coefficients consumed by ``ReadParams`` (only
    needed for simplified programs); ``collector``/``profile`` receive
    measurements and branch statistics when given.
    """
    missing = set(program.params) - set(inputs)
    if missing:
        raise InterpreterError(f"{program.name}: missing input parameter(s) {sorted(missing)}")

    def factory(rank: int, size: int) -> Iterator[Request]:
        return _run(program, rank, size, inputs, wparams or {}, collector, profile)

    # Metadata for Simulator's backend resolution: the compiled backend
    # re-lowers the same program rather than wrapping this generator.
    factory._repro_program = program
    factory._repro_inputs = inputs
    factory._repro_wparams = wparams
    factory._repro_collector = collector
    factory._repro_profile = profile
    return factory


def _run(program, rank, size, inputs, wparams, collector, profile):
    env: dict = dict(inputs)
    env["myid"] = rank
    env["P"] = size
    arrays: dict[str, np.ndarray] = {}
    sizes: dict[str, int] = {}
    for decl in program.arrays.values():
        n = int(decl.size.evaluate(env))
        if n < 0:
            raise InterpreterError(f"array {decl.name!r} has negative size {n}")
        nbytes = n * decl.itemsize
        sizes[decl.name] = nbytes
        yield Alloc(decl.name, nbytes)
        if decl.materialize:
            arr = np.zeros(n)
            arrays[decl.name] = arr
            env[decl.name] = arr
    state = _State(program, rank, env, arrays, sizes, wparams, collector, profile)
    yield from _exec(program.body, state)


class _State:
    """Per-rank interpreter state shared across the statement walkers."""

    __slots__ = ("program", "rank", "env", "arrays", "sizes", "wparams",
                 "collector", "profile", "timers", "ws_cache")

    def __init__(self, program, rank, env, arrays, sizes, wparams, collector, profile):
        self.program = program
        self.rank = rank
        self.env = env
        self.arrays = arrays
        self.sizes = sizes
        self.wparams = wparams
        self.collector = collector
        self.profile = profile
        self.timers: dict[str, float] = {}
        self.ws_cache: dict[int, float] = {}


def _working_set(state: _State, block: CompBlock) -> float:
    ws = state.ws_cache.get(block.sid)
    if ws is None:
        try:
            ws = float(sum(state.sizes[a] for a in block.arrays))
        except KeyError as e:
            raise InterpreterError(
                f"task {block.name!r} references undeclared array {e.args[0]!r}"
            ) from None
        state.ws_cache[block.sid] = ws
    return ws


def _call_kernel(kernel, reads: frozenset, writes, env: dict, arrays: dict) -> None:
    """Run a comp block's or an ``ArrayAssign``'s kernel as the compiled
    backend does.

    A kernel with declared *reads* gets a dict of exactly those names,
    and exactly its declared *writes* are copied back from it; one that
    declares none gets the whole environment (and does not lower).
    """
    if not reads:
        kernel(env, arrays)
        return
    kenv = {n: env[n] for n in sorted(reads)}
    kernel(kenv, arrays)
    for n in sorted(writes):
        env[n] = kenv[n]


def _cfn(expr):
    """The compiled evaluator of *expr* (cached on the expression itself).

    Statements re-evaluate the same expression objects on every loop
    iteration and every rank; :meth:`repro.symbolic.Expr.compile` pays
    the tree walk once per expression instead.
    """
    try:
        return expr._compiled
    except AttributeError:
        return expr.compile()


def _exec(stmts: list[Stmt], state: _State):
    env = state.env
    for s in stmts:
        ty = type(s)
        if ty is Assign:
            env[s.var] = _cfn(s.expr)(env)
        elif ty is CompBlock:
            work = _cfn(s.work)(env)
            if work < 0:
                work = 0
            if s.kernel is not None:
                _call_kernel(s.kernel, s.reads_, s.writes_, env, state.arrays)
            if work > 0:
                yield Compute(
                    ops=work * s.ops_per_iter,
                    working_set_bytes=_working_set(state, s),
                    task=s.name,
                )
            if state.collector is not None:
                state.collector.record_work(s.name, work)
        elif ty is For:
            lo = int(_cfn(s.lo)(env))
            hi = int(_cfn(s.hi)(env))
            body = s.body
            for i in range(lo, hi + 1):
                env[s.var] = i
                yield from _exec(body, state)
        elif ty is If:
            taken = bool(_cfn(s.cond)(env))
            if state.profile is not None:
                state.profile.record(s.profile_key, taken)
            yield from _exec(s.then if taken else s.orelse, state)
        elif ty is SendStmt:
            dest = int(_cfn(s.dest)(env))
            nbytes = int(_cfn(s.nbytes)(env))
            yield Send(dest=dest, nbytes=nbytes, tag=s.tag)
        elif ty is RecvStmt:
            source = int(_cfn(s.source)(env))
            nbytes = int(_cfn(s.nbytes)(env))
            yield Recv(source=source, tag=s.tag, nbytes_hint=nbytes)
        elif ty is IsendStmt:
            dest = int(_cfn(s.dest)(env))
            nbytes = int(_cfn(s.nbytes)(env))
            env[s.handle_var] = yield Isend(dest=dest, nbytes=nbytes, tag=s.tag)
        elif ty is IrecvStmt:
            source = int(_cfn(s.source)(env))
            nbytes = int(_cfn(s.nbytes)(env))
            env[s.handle_var] = yield Irecv(source=source, tag=s.tag, nbytes_hint=nbytes)
        elif ty is WaitAllStmt:
            handles = [env[v] for v in s.handle_vars if v in env]
            if handles:
                yield Wait(handles=tuple(handles))
            for v in s.handle_vars:
                env.pop(v, None)  # handles are single-use (MPI_REQUEST_NULL after wait)
        elif ty is CollectiveStmt:
            yield from _exec_collective(s, state)
        elif ty is DelayStmt:
            amount = _cfn(s.amount)(env)
            yield Delay(seconds=max(float(amount), 0.0), task=s.task)
        elif ty is ReadParams:
            yield from _exec_read_params(s, state)
        elif ty is StartTimer:
            t0 = yield Now(charge_timer=True)
            state.timers[s.task] = t0
        elif ty is StopTimer:
            try:
                t0 = state.timers.pop(s.task)
            except KeyError:
                raise InterpreterError(f"timer_stop({s.task!r}) without timer_start") from None
            t1 = yield Now(charge_timer=True)
            if state.collector is not None:
                state.collector.record_elapsed(s.task, t1 - t0)
        elif ty is ArrayAssign:
            if s.array not in state.arrays:
                raise InterpreterError(
                    f"ArrayAssign target {s.array!r} is not a materialized array"
                )
            _call_kernel(s.kernel, s.reads_, (), env, state.arrays)
            work = _cfn(s.work)(env)
            if work > 0:
                yield Compute(ops=float(work), working_set_bytes=state.sizes[s.array])
        elif ty is AllocStmt:
            nbytes = int(_cfn(s.nbytes)(env))
            yield Alloc(s.name, nbytes)
            state.sizes[s.name] = nbytes
        else:
            raise InterpreterError(f"cannot execute statement of kind {ty.__name__}")


def _exec_collective(s: CollectiveStmt, state: _State):
    env = state.env
    nbytes = int(_cfn(s.nbytes)(env))
    root = int(_cfn(s.root)(env))
    contrib = _cfn(s.contrib)(env) if s.contrib is not None else None
    reduce_fn = REDUCE_FNS[s.reduce_kind] if s.op in ("reduce", "allreduce") else None
    result = yield Collective(
        op=s.op, nbytes=nbytes, root=root, data=contrib, reduce_fn=reduce_fn
    )
    if s.result_var is not None:
        env[s.result_var] = result.data


def _exec_read_params(s: ReadParams, state: _State):
    env = state.env
    missing = [n for n in s.names if n not in state.wparams]
    if missing:
        raise InterpreterError(
            f"{state.program.name}: parameter file lacks {missing}; "
            "run the timer-instrumented version first (Fig. 2 workflow)"
        )
    payload = {n: state.wparams[n] for n in s.names} if state.rank == 0 else None
    result = yield Collective(op="bcast", nbytes=8 * len(s.names), root=0, data=payload)
    env.update(result.data)
