"""The MPI-Sim kernel: a discrete-event simulator of MPI programs.

Target processes are generators of :mod:`repro.sim.requests` objects.
Local computation advances a process's private clock inline (direct
execution); communication requests serialize through a global event
queue so that message matching happens in virtual-timestamp order —
the sequential analogue of MPI-Sim's "the simulation kernel [...]
ensures that events on host processors are executed in their correct
timestamp order".

Three execution modes share this kernel (see DESIGN.md §5):

* ``MEASURED`` — ground truth: noisy CPU, perturbed network.  Standing
  in for running the real application on the real machine.
* ``DE`` — the original MPI-Sim: deterministic CPU (direct execution of
  the computation), nominal analytic network model.
* ``AM`` — the compiler-optimized simulator: the program itself is the
  *simplified* program (delays instead of computation), nominal network.

Orthogonally to the mode, a :class:`repro.sim.faults.FaultPlan` may be
injected: rank crashes, message loss/duplication, transient send
failures and link degradation, with an optional
:class:`repro.sim.faults.RetryPolicy` modeling retransmission.  Without
a plan the fault layer is bypassed entirely and predictions are
bit-identical to a fault-free build.  When the event queue drains with
live-but-blocked processes, the deadlock watchdog raises
:class:`DeadlockError` carrying a :class:`DeadlockReport` — the
per-rank wait-chain diagnosis — instead of a bare error.

A program the compiled backend lowers runs on
:func:`repro.kernel.runtime.run_fast` instead of this module's engine,
unless the run injects faults, sets a timeout or collects a trace (the
engine-only features).  Both loops bind their per-event hooks through
:class:`RunHooks` and share the collective payloads and the deadlock
diagnosis, so results, budgets, cursors and flight rings agree.
"""

from __future__ import annotations

import enum
import json
import math
import os
from functools import reduce
from heapq import heappop, heappush
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from ..machine import CpuModel, MachineParams, NetworkModel
from ..mpi.matching import MatchQueues, MessageRecord, PostedRecv
from ..obs.logging import get_logger
from ..obs.metrics import METRICS
from ..obs.spans import TRACER
from .budget import BudgetExceededError, BudgetGuard
from .faults import DeadlockReport, FaultPlan, FaultState, RetryPolicy, diagnose_deadlock
from .checkpoint import CHECKPOINT
from .flightrec import FLIGHT, deadlock_report_to_dict
from .heartbeat import HEARTBEAT
from .memory import MemoryReport, MemoryTracker
from .requests import (
    Alloc,
    Collective,
    CollectiveResult,
    Compute,
    Delay,
    Free,
    Irecv,
    Isend,
    Now,
    ReceivedMessage,
    Recv,
    Request,
    RequestHandle,
    Send,
    SendFailed,
    TimedOut,
    Wait,
)
from .stats import ProcessStats, SimStats
from .trace import Trace

__all__ = [
    "ExecMode",
    "Simulator",
    "SimResult",
    "RunHooks",
    "DeadlockError",
    "CollectiveMismatchError",
    "BudgetExceededError",
    "collective_results",
]

ProgramFactory = Callable[[int, int], Iterator[Request]]

_log = get_logger("sim.engine")

#: blocked-state label per communication request type (per-event fast
#: lookup; doubles as the "is this a communication request?" test)
_BLOCK_NAME = {
    Send: "send",
    Recv: "recv",
    Collective: "collective",
    Isend: "isend",
    Irecv: "irecv",
    Wait: "wait",
}

#: event count past any real run: "no hook due"
_NEVER = 1 << 62

#: events between wall-clock budget checks after the first event
WALL_STRIDE = 1024


class ExecMode(enum.Enum):
    """Which estimator this run represents (see module docstring)."""

    MEASURED = "measured"
    DE = "mpi-sim-de"
    AM = "mpi-sim-am"


class DeadlockError(RuntimeError):
    """The event queue drained with blocked processes remaining.

    ``report`` carries the watchdog's :class:`DeadlockReport` (the
    per-rank wait-chain diagnosis) when one was built; the exception
    message is its rendered form.  ``flight`` carries the flight
    recorder's dump when the recorder was enabled for the run.
    """

    flight: dict | None = None

    def __init__(self, message: str, report: DeadlockReport | None = None):
        super().__init__(message)
        self.report = report


class CollectiveMismatchError(RuntimeError):
    """Processes issued inconsistent collectives at the same call index."""


@dataclass
class SimResult:
    """Everything a simulation run produces."""

    mode: ExecMode
    stats: SimStats
    memory: MemoryReport
    trace: Trace | None

    @property
    def elapsed(self) -> float:
        """Predicted (or, in MEASURED mode, actual) target execution time."""
        return self.stats.elapsed


class _Handle:
    """Kernel-side state of one non-blocking operation (MPI_Request)."""

    __slots__ = ("hid", "kind", "done", "ready_time", "result", "trace_eid")

    def __init__(self, hid: int, kind: str):
        self.hid = hid
        self.kind = kind
        self.done = False
        self.ready_time = 0.0
        self.result: Any = None
        self.trace_eid: int | None = None  # the completion's trace event


class _Proc:
    """Kernel-side state of one simulated target process (thread)."""

    __slots__ = (
        "rank", "gen", "clock", "done", "crashed", "blocked", "stats", "coll_index",
        "last_eid", "handles", "next_hid", "waiting", "wait_time",
    )

    def __init__(self, rank: int, gen: Iterator[Request]):
        self.rank = rank
        self.gen = gen
        self.clock = 0.0
        self.done = False
        self.crashed = False
        self.blocked: str | None = None  # "recv" | "send" | "collective" | "wait" | None
        self.stats = ProcessStats(rank)
        self.coll_index: dict = {}  # communicator group -> next call index
        self.last_eid: int | None = None
        self.handles: dict[int, _Handle] = {}
        self.next_hid = 0
        self.waiting: tuple[int, ...] | None = None  # handle ids blocked on
        self.wait_time = 0.0

    def new_handle(self, kind: str) -> _Handle:
        self.next_hid += 1
        h = _Handle(self.next_hid, kind)
        self.handles[h.hid] = h
        return h


class _CollState:
    """Accumulating arrival state of one collective operation."""

    __slots__ = ("op", "root", "arrivals", "nbytes", "reduce_fn")

    def __init__(self, op: str, root: int):
        self.op = op
        self.root = root
        self.arrivals: dict[int, tuple[float, Any]] = {}
        self.nbytes = 0
        self.reduce_fn = None


def collective_results(op: str, root: int, arrivals: dict, reduce_fn) -> dict[int, Any]:
    """Per-rank payloads of a completed collective (both event loops).

    *arrivals* maps each rank to ``(arrival_time, data)``; reductions
    fold the contributions in rank order.
    """
    ranks = sorted(arrivals)
    datas = [arrivals[r][1] for r in ranks]
    if op == "bcast":
        return dict.fromkeys(ranks, arrivals[root][1])
    if op in ("reduce", "allreduce"):
        contributions = [d for d in datas if d is not None]
        acc = None
        if contributions:
            if reduce_fn is None:
                raise CollectiveMismatchError(f"{op} with data requires a reduce_fn")
            acc = reduce(reduce_fn, contributions)
        if op == "allreduce":
            return dict.fromkeys(ranks, acc)
        return {r: (acc if r == root else None) for r in ranks}
    if op == "gather":
        return {r: (datas if r == root else None) for r in ranks}
    if op == "allgather":
        return dict.fromkeys(ranks, datas)
    if op == "scatter":
        chunks = arrivals[root][1]
        if chunks is not None and len(chunks) != len(ranks):
            raise CollectiveMismatchError(
                f"scatter payload has {len(chunks)} chunks for {len(ranks)} ranks"
            )
        return {r: (None if chunks is None else chunks[i]) for i, r in enumerate(ranks)}
    # barrier, alltoall carry no modelled payload
    return dict.fromkeys(ranks)


class RunHooks:
    """The per-event hooks of one run, bound once and shared by both loops.

    Heartbeat, checkpoint, watchdog budget and flight recorder are each
    bound when the run starts (``None`` when unarmed).  With none armed
    (``armed`` false) a loop pays one boolean test per event.  An armed
    loop numbers its events from 1, counting the ``nprocs`` priming
    resumes as events at t=0, and per event pays one increment, the
    flight-ring append of ``(t, rank, kind)`` (``record``, when armed)
    and one compare: it calls :meth:`fire` once the count reaches
    ``due``, the next event any hook must see.  So every event is
    recorded, then seen by the due hooks in the order heartbeat,
    checkpoint, budget, then dispatched.  On exit, normal or not, a loop
    calls :meth:`settle` with its count.
    """

    def __init__(self, sim: "Simulator", stats: Callable[[], SimStats]):
        self.stats = stats  # partial stats; valid between events
        self.budget = budget = sim._budget
        self.hb = HEARTBEAT if HEARTBEAT.enabled else None
        self.ck = CHECKPOINT if CHECKPOINT.enabled else None
        self.record = None
        if FLIGHT.enabled:
            self.record, self._settle = FLIGHT.appender()
            FLIGHT.note(mode=sim.mode.value, nprocs=sim.nprocs, seed=sim.seed)
        self.armed = not (
            budget is None and self.hb is None and self.ck is None and self.record is None
        )
        self.due = 1  # the first event always fires: a wall budget may trip there
        if budget is not None:
            budget.start()
        if self.ck is not None:
            self.ck.bind(lambda: stats().to_dict(), sim._rng_state)

    def settle(self, events: int) -> None:
        """Account the run's *events* flight-ring appends so far."""
        if self.record is not None:
            self._settle(events)

    def fire(self, events: int, t: float) -> int:
        """Consult every armed hook at event *events* (virtual time *t*)
        and return the next due event count.  A tripped budget raises
        :class:`BudgetExceededError` with the partial stats and, with the
        recorder armed, the flight dump."""
        hb, ck, budget = self.hb, self.ck, self.budget
        due = _NEVER
        if hb is not None and hb.enabled:
            hb.tick(events, t)
            due = hb.next_due
        if ck is not None and ck.enabled:
            ck.tick(events, t)
            due = min(due, ck.next_due)
        if budget is not None:
            budget.events = events
            violation = budget.violation(t)
            if violation is not None:
                exc = BudgetExceededError(*violation, stats=self.stats())
                exc.flight = self.dump(events, t, error=str(exc))
                raise exc
            if budget.max_virtual_time is not None:
                return events + 1
            if budget.max_events is not None:
                due = min(due, budget.max_events + 1)
            if budget.max_wall_seconds is not None:
                due = min(due, events + WALL_STRIDE)
        return due

    def dump(self, events: int, t: float | None = None, **kw) -> dict | None:
        """The flight dump after *events* events (``None`` when unarmed)."""
        if self.record is None:
            return None
        self.settle(events)
        budget = self.budget
        if budget is not None:
            budget.events = events
            budget = budget.snapshot(virtual_time=t)
        return FLIGHT.dump(budget=budget, **kw)

    def deadlock(self, events: int, report: DeadlockReport, gens) -> "DeadlockError":
        """The error for a drained-but-blocked run; closes *gens*, the
        blocked ranks' generators."""
        exc = DeadlockError(report.format(), report=report)
        exc.flight = self.dump(
            events, wait_chain=deadlock_report_to_dict(report), error=report.summary()
        )
        for gen in gens:
            try:
                gen.close()
            except Exception:
                pass  # a raising close() must not mask the deadlock itself
        return exc

    def unconsumed(self, events: int, ranks: list[int]) -> "DeadlockError":
        """The error for a finished run that left messages queued."""
        exc = DeadlockError(f"unconsumed messages at ranks {ranks}")
        exc.flight = self.dump(events, error=str(exc))
        return exc


class Simulator:
    """Simulate *nprocs* target processes of *program_factory* on *machine*.

    Parameters
    ----------
    nprocs:
        Number of target processes.
    program_factory:
        ``factory(rank, nprocs)`` returning the process generator.
    machine:
        Target machine parameters (e.g. ``repro.machine.IBM_SP``).
    mode:
        Which estimator to run (ground truth / DE / AM).
    seed:
        Ground-truth noise seed (ignored by DE/AM, which are exact).
    collect_trace:
        Record a dependency-annotated event trace for the host model.
    faults:
        Optional :class:`FaultPlan` to inject; an empty plan is treated
        as no plan (zero-cost).
    retry:
        Optional :class:`RetryPolicy` for retransmission of transiently
        failed / lost messages (only consulted under a fault plan).
    default_timeout:
        When set, blocking and non-blocking sends/receives without their
        own ``timeout`` complete with :class:`TimedOut` after this many
        virtual seconds unmatched (the kernel-level watchdog timeout).
    max_events / max_virtual_time / max_wall_seconds:
        Watchdog budgets (see :mod:`repro.sim.budget`).  The first limit
        a run exceeds raises :class:`BudgetExceededError` carrying the
        partial :class:`SimStats`, so a livelocked or pathological
        configuration terminates cleanly instead of hanging the caller.
    backend:
        ``"interpreted"`` (default) walks the IR per rank per run;
        ``"compiled"`` lowers the program once via :mod:`repro.kernel`
        and errors if it cannot; ``"auto"`` tries the compiled backend
        and falls back per-program with a logged reason.  Under either,
        a run with a fault plan, a default timeout or ``collect_trace``
        interprets the program (``backend_fallback_reason`` says why).
        ``None`` reads ``REPRO_BACKEND`` from the environment.  Results
        are byte-identical across backends.
    """

    def __init__(
        self,
        nprocs: int,
        program_factory: ProgramFactory,
        machine: MachineParams,
        mode: ExecMode = ExecMode.DE,
        seed: int = 0,
        collect_trace: bool = False,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        default_timeout: float | None = None,
        max_events: int | None = None,
        max_virtual_time: float | None = None,
        max_wall_seconds: float | None = None,
        backend: str | None = None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if default_timeout is not None and (
            not math.isfinite(default_timeout) or default_timeout <= 0
        ):
            raise ValueError(f"default_timeout must be finite and > 0, got {default_timeout!r}")
        self.nprocs = nprocs
        self.machine = machine
        self.mode = mode
        self.seed = seed
        if mode is ExecMode.MEASURED:
            rng = np.random.default_rng(seed)
            self.cpu = CpuModel(machine.cpu, machine.truth.cpu_noise_sigma, rng)
            self.net = NetworkModel(machine.net, machine.truth, rng)
            self._rng = rng  # checkpoint cursors snapshot the generator state
        else:
            self.cpu = CpuModel(machine.cpu)
            self.net = NetworkModel(machine.net)
            self._rng = None
        self.memory = MemoryTracker(nprocs, machine.host.thread_overhead_bytes)
        self.trace: Trace | None = Trace(nprocs) if collect_trace else None

        if faults is not None and faults.is_empty():
            faults = None  # the zero-cost guarantee: empty plan == no plan
        self._fault_state = FaultState(faults, retry) if faults is not None else None
        self._retry = retry
        self._default_timeout = default_timeout
        self._crash_times = (
            self._fault_state.crash_times(nprocs) if self._fault_state is not None else {}
        )
        self._timeouts_fired = 0
        guard = BudgetGuard(max_events, max_virtual_time, max_wall_seconds)
        self._budget = guard if guard.active else None

        # per-run constants hoisted out of the event loop (fast path):
        # every per-event cost formula below reduces to multiply-adds on
        # these, with no attribute chains or model calls left per event
        host = machine.host
        self._event_overhead = host.event_overhead
        self._compute_host_factor = machine.cpu.time_per_op * host.direct_exec_factor
        self._delay_host_cost = host.delay_call_overhead + host.event_overhead
        self._msg_host_base = host.message_overhead + host.event_overhead
        self._msg_host_per_byte = host.message_per_byte
        self._eager_limit = machine.net.eager_limit
        self._task_time = self.cpu.task_time
        # engine-side message-cost memos: one dict lookup replaces a bound
        # model call per message (both caches are only consulted on paths
        # where the underlying formula is deterministic)
        self._ov_cache: dict[int, float] = {}
        self._tr_cache: dict = {}
        self._net_det = self.net._sigma == 0.0
        self._net_flat = machine.net.per_hop == 0.0

        if backend is None:
            backend = os.environ.get("REPRO_BACKEND") or "interpreted"
        if backend not in ("interpreted", "compiled", "auto"):
            raise ValueError(
                f"backend must be 'interpreted', 'compiled' or 'auto', got {backend!r}"
            )
        self._kernel = None
        self.backend = "interpreted"
        self.backend_fallback_reason: str | None = None
        if backend != "interpreted":
            self._resolve_backend(program_factory, backend)
        self._ran = False
        if self._kernel is not None:
            return  # run_fast keeps its own flat per-rank state

        self._procs = [_Proc(r, program_factory(r, nprocs)) for r in range(nprocs)]
        self._queues = [MatchQueues() for _ in range(nprocs)]
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self._colls: dict = {}  # (group, call index) -> _CollState
        self._coll_trace_ids = 0

    def _resolve_backend(self, program_factory, requested: str) -> None:
        """Bind the compiled kernel of *program_factory* if it can serve this run.

        ``requested`` is ``"compiled"`` (a program that does not lower
        raises) or ``"auto"`` (it falls back with a logged reason).  Under
        either, a run that needs an engine-only feature — a fault plan, a
        default timeout or trace collection — falls back as well.
        """
        from ..kernel import lower as _lower

        program = getattr(program_factory, "_repro_program", None)
        reason = None
        if program is None:
            reason = "factory is not an IR program factory (raw generator function)"
        elif getattr(program_factory, "_repro_collector", None) is not None:
            reason = "a MeasurementCollector is attached (timer-instrumented run)"
        elif getattr(program_factory, "_repro_profile", None) is not None:
            reason = "a BranchProfile is attached (branch-profiling run)"
        kernel = None
        if reason is None:
            try:
                kernel = _lower.kernel_for(program)
            except _lower.UnsupportedConstructError as exc:
                reason = str(exc)
        if kernel is None and requested == "compiled":
            raise ValueError(f"backend='compiled' cannot run this program: {reason}")
        if reason is None:
            if self._fault_state is not None:
                reason = "a fault plan is injected (engine-only feature)"
            elif self._default_timeout is not None:
                reason = "a default timeout is set (engine-only feature)"
            elif self.trace is not None:
                reason = "an event trace is collected (engine-only feature)"
        if reason is not None:
            _lower.record_fallback(
                program.name if program is not None else "<raw factory>", reason
            )
            self.backend_fallback_reason = reason
            return
        self._kernel = kernel
        self._kernel_args = (program_factory._repro_inputs, program_factory._repro_wparams or {})
        self.backend = "compiled"

    # -- public API ----------------------------------------------------------
    def run(self) -> SimResult:
        """Execute the simulation to completion and return its results.

        Raises :class:`DeadlockError` (with a :class:`DeadlockReport`)
        if the event queue drains while unfinished, uncrashed processes
        remain blocked.
        """
        if self._ran:
            raise RuntimeError("a Simulator instance is single-use; build a new one")
        self._ran = True
        if self.mode is ExecMode.MEASURED:
            # reproducibility breadcrumb: everything needed to replay
            # this ground-truth run (MEASURED is the only noisy mode)
            _log.info(
                "measured run: machine=%s nprocs=%d seed=%d faults=%s timeout=%s",
                self.machine.name, self.nprocs, self.seed,
                "yes" if self._fault_state is not None else "no", self._default_timeout,
            )
        # span and metrics dispatch, decided once per run: with both off
        # (the default) not even a no-op span object is built
        if not (TRACER.enabled or METRICS.enabled):
            return self._execute()
        with TRACER.span("sim.run", mode=self.mode.value, nprocs=self.nprocs) as span:
            result = self._execute()
            span.set_virtual(0.0, result.stats.elapsed)
            span.set(
                events=result.stats.total_events,
                messages=result.stats.total_messages,
                host_cost=result.stats.total_host_cost,
            )
        if METRICS.enabled:
            METRICS.record_run(self.mode.value, result.stats)
        return result

    def _execute(self) -> SimResult:
        """Run on the loop ``__init__`` picked: the compiled runtime or the engine."""
        if self._kernel is not None:
            from ..kernel.runtime import run_fast

            return run_fast(self)
        # crashes first: at equal timestamps a crash preempts the rank's
        # own resume (a rank crashing at t=0 never runs)
        for rank in sorted(self._crash_times):
            self._push(self._crash_times[rank], rank, ("crash", None))
        for proc in self._procs:
            self._push(0.0, proc.rank, ("resume", None))
        procs = self._procs
        hooks = RunHooks(self, lambda: SimStats([p.stats for p in procs]))
        events = self._drain(hooks)
        blocked = [p for p in procs if not p.done and not p.crashed]
        if blocked:
            raise hooks.deadlock(events, self._deadlock_report(), [p.gen for p in blocked])
        if self._fault_state is None and self._timeouts_fired == 0:
            leftover = [r for r, q in enumerate(self._queues) if q.messages]
            if leftover:
                raise hooks.unconsumed(events, leftover)
        stats = SimStats([p.stats for p in procs])
        return SimResult(self.mode, stats, self.memory.report(), self.trace)

    def _drain(self, hooks: RunHooks) -> int:
        """The event loop; returns the events it counted (0 when unarmed).

        The per-event hooks are bound once per run by *hooks* (see
        :class:`RunHooks`); the flight ring records every event, a
        crashed rank's included.  A tripped budget raises
        :class:`BudgetExceededError` with the partial stats, plus the
        flight dump when the recorder is armed, so the black box
        survives the crash it explains.

        Events are dispatched by kind with the common case — "resume",
        then "comm" — tested first; "crash"/"timeout" only ever appear
        under a fault plan or explicit timeouts.
        """
        heap = self._heap
        procs = self._procs
        resume = self._resume
        do_send = self._do_send
        do_recv = self._do_recv
        armed = hooks.armed
        fire = hooks.fire
        due = hooks.due
        record = hooks.record
        events = 0
        try:
            while heap:
                t, _, rank, action = heappop(heap)
                kind = action[0]
                if armed:
                    events += 1
                    if record is not None:
                        record((t, rank, type(action[1]).__name__.lower()
                                if kind == "comm" else kind))
                    if events >= due:
                        due = fire(events, t)
                proc = procs[rank]
                if kind == "resume":
                    if not proc.crashed:
                        resume(proc, t, action[1])
                elif kind == "comm":
                    # dispatched inline (one call saved per event)
                    if not proc.crashed:
                        req = action[1]
                        ty = type(req)
                        if ty is Send:
                            do_send(proc, t, req)
                        elif ty is Recv:
                            do_recv(proc, t, req)
                        elif ty is Isend:
                            do_send(proc, t, req, handle=proc.new_handle("send"))
                        elif ty is Irecv:
                            do_recv(proc, t, req, handle=proc.new_handle("recv"))
                        elif ty is Wait:
                            self._do_wait(proc, t, req)
                        else:
                            self._do_collective(proc, t, req)
                elif kind == "crash":
                    self._do_crash(proc, t)
                elif not proc.crashed:  # "timeout"
                    self._do_timeout(proc, t, action[1])
        finally:
            hooks.settle(events)
        return events

    def _rng_state(self) -> dict | None:
        """The numpy bit-generator state (MEASURED runs only)."""
        if self._rng is None:
            return None
        state = self._rng.bit_generator.state
        return json.loads(json.dumps(state)) if state is not None else None

    # -- kernel internals ---------------------------------------------------------
    def _push(self, t: float, rank: int, action: object) -> None:
        self._seq += 1
        heappush(self._heap, (t, self._seq, rank, action))

    def _transit(self, nbytes: int, src: int, dst: int, when: float) -> float:
        """Wire time of one message, including any link degradation at *when*."""
        base = self.net.transit_time(nbytes, src, dst, self.nprocs)
        if self._fault_state is not None:
            base += self._fault_state.degradation_extra(self.net, nbytes, src, dst, when)
        return base

    def _resume(self, proc: _Proc, t: float, value: object) -> None:
        """Deliver *value* to the process at time *t* and run it until it
        blocks on communication or finishes.

        This is the kernel's hottest loop: everything it touches per
        request is a local binding or a per-run constant from
        ``__init__``; the clock and event count live in locals and are
        flushed back to the process exactly once on exit.
        """
        proc.blocked = None
        gen_send = proc.gen.send
        stats = proc.stats
        trace = self.trace
        clock = t
        events = 0
        try:
            while True:
                try:
                    req = gen_send(value)
                except StopIteration:
                    proc.done = True
                    stats.finish_time = clock
                    return
                events += 1
                ty = type(req)
                if ty is Compute:
                    dt = self._task_time(req.ops, req.working_set_bytes)
                    start = clock
                    clock += dt
                    stats.compute_time += dt
                    cost = req.ops * self._compute_host_factor + self._event_overhead
                    stats.host_cost += cost
                    if trace is not None:
                        proc.last_eid = trace.add(
                            proc=proc.rank, kind="compute", start=start, end=clock,
                            host_cost=cost,
                        )
                    value = clock
                elif ty is Delay:
                    start = clock
                    clock += req.seconds
                    stats.compute_time += req.seconds
                    stats.host_cost += self._delay_host_cost
                    if trace is not None:
                        proc.last_eid = trace.add(
                            proc=proc.rank, kind="delay", start=start, end=clock,
                            host_cost=self._delay_host_cost,
                        )
                    value = clock
                else:
                    blocked = _BLOCK_NAME.get(ty)
                    if blocked is None and isinstance(
                        req, (Send, Recv, Collective, Isend, Irecv, Wait)
                    ):
                        blocked = type(req).__name__.lower()
                    if blocked is not None:
                        # Communication serializes through the global event
                        # queue so matching happens in virtual-timestamp order.
                        proc.blocked = blocked
                        seq = self._seq + 1
                        self._seq = seq
                        heappush(self._heap, (clock, seq, proc.rank, ("comm", req)))
                        return
                    if ty is Now:
                        if req.charge_timer:
                            clock += self.cpu.timer_cost()
                        value = clock
                    elif ty is Alloc:
                        self.memory.allocate(proc.rank, req.name, req.nbytes)
                        value = clock
                    elif ty is Free:
                        self.memory.free(proc.rank, req.name)
                        value = clock
                    else:
                        raise TypeError(
                            f"rank {proc.rank} yielded unknown request {req!r}"
                        )
        finally:
            proc.clock = clock
            stats.events += events

    # -- communication ----------------------------------------------------------
    def _do_send(self, proc: _Proc, t: float, req: Send | Isend, handle: _Handle | None = None) -> None:
        if req.dest >= self.nprocs:
            raise ValueError(
                f"rank {proc.rank} sends to nonexistent rank {req.dest} "
                f"(world size {self.nprocs})"
            )
        nbytes = req.nbytes
        stats = proc.stats
        overhead = self._ov_cache.get(nbytes)
        if overhead is None:
            overhead = self.net.send_overhead(nbytes)
            self._ov_cache[nbytes] = overhead
        cost = self._msg_host_base + nbytes * self._msg_host_per_byte
        fs = self._fault_state
        self._seq += 1
        seq = self._seq
        pre_delay = 0.0
        if fs is not None:
            injected, inj_retries, inj_delay = fs.injection(proc.rank, req.dest, seq)
            stats.retries += inj_retries
            pre_delay = inj_delay
            if not injected:
                # transient send failure exhausted the retry budget: the
                # message never leaves the NIC; the caller learns it failed
                self._fail_send(proc, t, overhead + pre_delay, cost, req, handle, inj_retries)
                return
        t_inject = t + pre_delay + overhead
        stats.comm_time += overhead + pre_delay
        stats.messages_sent += 1
        stats.bytes_sent += nbytes
        stats.host_cost += cost
        eager = nbytes <= self._eager_limit
        delivered, wire_retries, wire_delay = True, 0, 0.0
        if fs is not None:
            delivered, wire_retries, wire_delay = fs.delivery(proc.rank, req.dest, seq)
            stats.retries += wire_retries
        if eager:
            if fs is None:
                if self._net_det:
                    key = nbytes if self._net_flat else (nbytes, proc.rank, req.dest)
                    transit = self._tr_cache.get(key)
                    if transit is None:
                        transit = self.net.transit_time(nbytes, proc.rank, req.dest, self.nprocs)
                        self._tr_cache[key] = transit
                else:
                    transit = self.net.transit_time(nbytes, proc.rank, req.dest, self.nprocs)
            else:
                transit = self._transit(nbytes, proc.rank, req.dest, t_inject)
            ready_time = t_inject + wire_delay + transit
        else:
            ready_time = None
        # positional: MessageRecord(seq, source, tag, nbytes, data, eager,
        # send_time, ready_time) — keyword passing is measurably slower here
        msg = MessageRecord(
            seq, proc.rank, req.tag, nbytes, req.data, eager, t_inject, ready_time,
            retry_delay=wire_delay,
        )
        send_eid = None
        if self.trace is not None:
            send_eid = self.trace.add(
                proc=proc.rank, kind="send", start=t, end=t_inject,
                host_cost=cost, nbytes=req.nbytes,
            )
            msg.sender_event = send_eid
            proc.last_eid = send_eid
        if handle is not None:
            msg.sender_handle = handle.hid
            handle.trace_eid = send_eid
        if not delivered:
            self._lose_message(proc, t_inject, msg, handle, wire_retries)
            return
        if fs is not None and fs.duplicates(proc.rank, req.dest, seq):
            # a spurious duplicate reaches the receiver; the matching layer
            # discards it, but draining it costs host work
            receiver = self._procs[req.dest]
            receiver.stats.messages_duplicated += 1
            receiver.stats.host_cost += cost  # same drain cost as a real message
        matched = self._queues[req.dest].add_message(msg)
        if eager:
            if handle is not None:
                handle.done = True
                handle.ready_time = t_inject
                handle.result = t_inject
                self._push(t_inject, proc.rank, ("resume", RequestHandle(handle.hid, "send")))
            else:
                pseq = self._seq + 1
                self._seq = pseq
                heappush(self._heap, (t_inject, pseq, proc.rank, ("resume", t_inject)))
            if matched is not None:
                self._complete_recv(matched, msg)
        else:
            if handle is not None:
                # the process continues; the handle completes at rendezvous
                self._push(t_inject, proc.rank, ("resume", RequestHandle(handle.hid, "send")))
            if matched is not None:
                # receive already posted: rendezvous completes immediately
                self._finish_rendezvous(msg, matched)
            else:
                # the transfer waits for the matching receive to post
                timeout = req.timeout if req.timeout is not None else self._default_timeout
                if timeout is not None:
                    self._push(
                        t_inject + timeout, proc.rank, ("timeout", ("send", req.dest, seq))
                    )

    def _fail_send(
        self, proc: _Proc, t: float, delay: float, cost: float,
        req: Send | Isend, handle: _Handle | None, retries: int,
    ) -> None:
        """Complete a send whose injection permanently failed."""
        t_fail = t + delay
        proc.stats.comm_time += delay
        proc.stats.host_cost += cost
        proc.stats.send_failures += 1
        result = SendFailed(now=t_fail, retries=retries)
        if self.trace is not None:
            eid = self.trace.add(
                proc=proc.rank, kind="send", start=t, end=t_fail,
                host_cost=cost, nbytes=req.nbytes,
            )
            proc.last_eid = eid
            if handle is not None:
                handle.trace_eid = eid
        if handle is not None:
            handle.done = True
            handle.ready_time = t_fail
            handle.result = result
            self._push(t_fail, proc.rank, ("resume", RequestHandle(handle.hid, "send")))
        else:
            self._push(t_fail, proc.rank, ("resume", result))

    def _lose_message(
        self, proc: _Proc, t_inject: float, msg: MessageRecord,
        handle: _Handle | None, retries: int,
    ) -> None:
        """The wire dropped *msg* beyond recovery; settle the sender."""
        proc.stats.messages_lost += 1
        if msg.eager:
            # buffered fire-and-forget: the sender completed locally and
            # never learns the wire dropped the message
            if handle is not None:
                handle.done = True
                handle.ready_time = t_inject
                handle.result = t_inject
                self._push(t_inject, proc.rank, ("resume", RequestHandle(handle.hid, "send")))
            else:
                self._push(t_inject, proc.rank, ("resume", t_inject))
            return
        # rendezvous: the handshake cannot complete — the send fails after
        # its retransmission budget (backoff charged to the virtual clock)
        t_fail = t_inject + msg.retry_delay
        proc.stats.comm_time += msg.retry_delay
        proc.stats.send_failures += 1
        result = SendFailed(now=t_fail, retries=retries)
        if handle is not None:
            self._push(t_inject, proc.rank, ("resume", RequestHandle(handle.hid, "send")))
            self._complete_handle(proc, handle.hid, t_fail, result)
        else:
            self._push(t_fail, proc.rank, ("resume", result))

    def _do_recv(self, proc: _Proc, t: float, req: Recv | Irecv, handle: _Handle | None = None) -> None:
        if req.source >= self.nprocs:
            raise ValueError(
                f"rank {proc.rank} receives from nonexistent rank {req.source} "
                f"(world size {self.nprocs})"
            )
        seq = self._seq + 1
        self._seq = seq
        # positional: PostedRecv(seq, rank, source, tag, post_time, handle)
        posted = PostedRecv(
            seq, proc.rank, req.source, req.tag, t,
            handle.hid if handle is not None else None,
        )
        msg = self._queues[proc.rank].post_recv(posted)
        if handle is not None:
            # non-blocking: hand the handle back right away
            self._push(t, proc.rank, ("resume", RequestHandle(handle.hid, "recv")))
        if msg is None:
            # (blocking: process blocked) until a matching message shows up —
            # or, with a timeout, until the watchdog withdraws the receive
            timeout = req.timeout if req.timeout is not None else self._default_timeout
            if timeout is not None:
                self._push(t + timeout, proc.rank, ("timeout", ("recv", posted.seq)))
            return
        if msg.eager:
            self._complete_recv(posted, msg)
        else:
            self._finish_rendezvous(msg, posted)

    # -- timeouts ---------------------------------------------------------------
    def _do_timeout(self, proc: _Proc, t: float, spec: tuple) -> None:
        """A send/recv watchdog timer fired; withdraw the op if still pending."""
        if spec[0] == "recv":
            posted = self._queues[proc.rank].cancel_recv(spec[1])
            if posted is None:
                return  # already matched: the timeout lost the race
            self._timeouts_fired += 1
            proc.stats.timeouts += 1
            result = TimedOut(op="recv", now=t)
            if posted.handle is not None:
                handle = proc.handles.get(posted.handle)
                if handle is None or handle.done:
                    return
                self._complete_handle(proc, posted.handle, t, result)
            else:
                proc.stats.comm_time += t - posted.post_time
                self._push(t, proc.rank, ("resume", result))
        else:  # ("send", dest, seq)
            dest, seq = spec[1], spec[2]
            msg = self._queues[dest].cancel_message(seq)
            if msg is None:
                return
            self._timeouts_fired += 1
            proc.stats.timeouts += 1
            result = TimedOut(op="send", now=t)
            if msg.sender_handle is not None:
                handle = proc.handles.get(msg.sender_handle)
                if handle is None or handle.done:
                    return
                self._complete_handle(proc, msg.sender_handle, t, result)
            else:
                proc.stats.comm_time += t - msg.send_time
                self._push(t, proc.rank, ("resume", result))

    # -- crashes -----------------------------------------------------------------
    def _do_crash(self, proc: _Proc, t: float) -> None:
        """Rank *proc* stops at virtual time *t* (fault-plan crash)."""
        if proc.done or proc.crashed:
            return
        proc.crashed = True
        proc.waiting = None
        proc.stats.crashed = True
        proc.stats.crash_time = t
        proc.clock = max(proc.clock, t)
        # a dead rank receives nothing: withdraw its posted receives so
        # in-flight messages to it stay queued (and get reported)
        self._queues[proc.rank].recvs.clear()
        try:
            proc.gen.close()
        except Exception:
            pass  # a misbehaving generator must not mask the crash itself

    def _finish_rendezvous(self, msg: MessageRecord, posted: PostedRecv) -> None:
        """Complete a rendezvous transfer once both sides are present."""
        sender = self._procs[msg.source]
        transfer_start = max(msg.send_time, posted.post_time)
        msg.ready_time = (
            transfer_start
            + msg.retry_delay
            + self._transit(msg.nbytes, msg.source, posted.rank, transfer_start)
        )
        if msg.sender_handle is not None:
            self._complete_handle(sender, msg.sender_handle, transfer_start, transfer_start)
        else:
            wait = transfer_start - msg.send_time
            if wait > 0:
                sender.stats.comm_time += wait
            self._push(transfer_start, sender.rank, ("resume", transfer_start))
        self._complete_recv(posted, msg)

    def _complete_recv(self, posted: PostedRecv, msg: MessageRecord) -> None:
        recv_rank = posted.rank
        receiver = self._procs[recv_rank]
        nbytes = msg.nbytes
        # recv_overhead == send_overhead (same deterministic formula), so
        # the engine-side overhead memo serves both directions
        overhead = self._ov_cache.get(nbytes)
        if overhead is None:
            overhead = self.net.recv_overhead(nbytes)
            self._ov_cache[nbytes] = overhead
        completion = max(posted.post_time, msg.ready_time) + overhead
        receiver.stats.messages_received += 1
        cost = self._msg_host_base + nbytes * self._msg_host_per_byte
        receiver.stats.host_cost += cost
        eid = None
        if self.trace is not None:
            deps = (msg.sender_event,) if msg.sender_event is not None else ()
            eid = self.trace.add(
                proc=recv_rank, kind="recv", start=posted.post_time, end=completion,
                host_cost=cost, deps=deps, nbytes=msg.nbytes,
                nonblocking=posted.handle is not None,
            )
        # positional: ReceivedMessage(data, nbytes, source, tag, now)
        result = ReceivedMessage(msg.data, nbytes, msg.source, msg.tag, completion)
        if posted.handle is not None:
            # kernel-side completion: it does not advance the receiver's
            # program order (the matching Wait does)
            handle = receiver.handles[posted.handle]
            handle.trace_eid = eid
            self._complete_handle(receiver, posted.handle, completion, result)
        else:
            if eid is not None:
                receiver.last_eid = eid
            receiver.stats.comm_time += completion - posted.post_time
            pseq = self._seq + 1
            self._seq = pseq
            heappush(self._heap, (completion, pseq, recv_rank, ("resume", result)))

    # -- non-blocking completion ---------------------------------------------------
    def _complete_handle(self, proc: _Proc, hid: int, ready_time: float, result) -> None:
        handle = proc.handles[hid]
        handle.done = True
        handle.ready_time = ready_time
        handle.result = result
        if proc.waiting is not None and all(
            proc.handles[h].done for h in proc.waiting
        ):
            self._release_wait(proc)

    def _release_wait(self, proc: _Proc) -> None:
        """All awaited handles completed: schedule the process's resume."""
        hids = proc.waiting
        proc.waiting = None
        handles = [proc.handles.pop(h) for h in hids]
        resume_at = max([proc.wait_time] + [h.ready_time for h in handles])
        blocked = resume_at - proc.wait_time
        if blocked > 0:
            proc.stats.comm_time += blocked
        if self.trace is not None:
            deps = tuple(h.trace_eid for h in handles if h.trace_eid is not None)
            eid = self.trace.add(
                proc=proc.rank, kind="wait", start=proc.wait_time, end=resume_at,
                host_cost=self.machine.host.event_overhead, deps=deps,
            )
            proc.last_eid = eid
        results = [h.result for h in handles]
        pseq = self._seq + 1
        self._seq = pseq
        heappush(self._heap, (resume_at, pseq, proc.rank, ("resume", results)))

    def _do_wait(self, proc: _Proc, t: float, req: Wait) -> None:
        proc.stats.host_cost += self._event_overhead
        hids = []
        for rh in req.handles:
            if rh.hid not in proc.handles:
                raise ValueError(
                    f"rank {proc.rank} waits on unknown or already-completed handle {rh.hid}"
                )
            hids.append(rh.hid)
        proc.waiting = tuple(hids)
        proc.wait_time = t
        if all(proc.handles[h].done for h in hids):
            self._release_wait(proc)
        # else: blocked until the last handle completes

    # -- collectives -----------------------------------------------------------------
    def _do_collective(self, proc: _Proc, t: float, req: Collective) -> None:
        # communicator: the sorted participant tuple (None = world)
        group = req.group if req.group is not None else None
        members = group if group is not None else tuple(range(self.nprocs))
        if group is not None:
            if proc.rank not in group:
                raise CollectiveMismatchError(
                    f"rank {proc.rank} issued a collective on group {group} "
                    "it does not belong to"
                )
            if group[-1] >= self.nprocs:
                raise CollectiveMismatchError(
                    f"group {group} references ranks beyond P={self.nprocs}"
                )
            if req.op in ("bcast", "reduce", "gather", "scatter") and req.root not in group:
                raise CollectiveMismatchError(
                    f"collective root {req.root} is not in group {group}"
                )
        elif req.root >= self.nprocs:
            raise ValueError(
                f"rank {proc.rank} issued {req.op!r} with root {req.root} "
                f"but the world has {self.nprocs} ranks"
            )
        # per-(rank, communicator) call counting: group collectives on
        # different communicators proceed independently
        seq = proc.coll_index.get(group, 0)
        proc.coll_index[group] = seq + 1
        key = (group, seq)
        state = self._colls.get(key)
        if state is None:
            state = _CollState(req.op, req.root)
            self._colls[key] = state
        elif state.op != req.op or state.root != req.root:
            raise CollectiveMismatchError(
                f"collective #{key}: rank {proc.rank} called {req.op!r} (root {req.root}) "
                f"but others called {state.op!r} (root {state.root})"
            )
        if proc.rank in state.arrivals:
            raise CollectiveMismatchError(
                f"rank {proc.rank} issued collective #{key} twice"
            )
        state.arrivals[proc.rank] = (t, req.data)
        state.nbytes = max(state.nbytes, req.nbytes)
        if req.reduce_fn is not None:
            state.reduce_fn = req.reduce_fn
        if len(state.arrivals) < len(members):
            return
        # everyone has arrived: price the operation and release the group
        del self._colls[key]
        idx = self._coll_trace_ids
        self._coll_trace_ids += 1
        start_max = max(at for at, _ in state.arrivals.values())
        duration = self.net.collective_time(state.op, state.nbytes, len(members))
        completion = start_max + duration
        results = collective_results(state.op, state.root, state.arrivals, state.reduce_fn)
        cost = self._msg_host_base + state.nbytes * self._msg_host_per_byte
        trace = self.trace
        procs = self._procs
        heap = self._heap
        for rank, (arrival, _) in state.arrivals.items():
            p = procs[rank]
            p.stats.comm_time += completion - arrival
            p.stats.collectives += 1
            p.stats.host_cost += cost
            if trace is not None:
                p.last_eid = trace.add(
                    proc=rank, kind="collective", start=arrival, end=completion,
                    host_cost=cost, coll_id=idx, nbytes=state.nbytes,
                )
            pseq = self._seq + 1
            self._seq = pseq
            heappush(heap, (completion, pseq, rank,
                            ("resume", CollectiveResult(results[rank], completion))))

    # -- the deadlock watchdog ----------------------------------------------------
    def _deadlock_report(self) -> DeadlockReport:
        """Diagnose a drained-but-blocked simulation: who waits on whom."""
        world = tuple(range(self.nprocs))
        live = [p for p in self._procs if not p.done]
        return diagnose_deadlock(
            self.nprocs,
            blocked=[
                (p.rank, p.blocked or "unknown", p.clock, p.wait_time,
                 sorted(h for h in p.waiting or () if not p.handles[h].done))
                for p in live if not p.crashed
            ],
            sends=[
                (m.source, dst, m.tag, m.nbytes, m.send_time, m.sender_handle)
                for dst, q in enumerate(self._queues) for m in q.messages
            ],
            recvs=[
                (r.rank, r.source, r.tag, r.post_time, r.handle)
                for q in self._queues for r in q.recvs
            ],
            colls=[
                (world if group is None else group, s.op, s.root, s.arrivals)
                for (group, _), s in self._colls.items()
            ],
            crashed=[(p.rank, p.stats.crash_time) for p in live if p.crashed],
        )
