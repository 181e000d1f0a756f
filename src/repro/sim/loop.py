"""The simulator's event loop: one bucket queue, two per-rank drivers.

Every run drains through :func:`run`.  Each rank is driven by one of two
generators that yield the same op tuples at communication points:

* the compiled ``fast_gen`` of :mod:`repro.kernel.lower`, which folds
  compute, delay and timer requests into inline clock arithmetic;
* :func:`request_driver`, which runs any :mod:`repro.sim.requests`
  generator (the IR interpreter or a raw :mod:`repro.mpi.api` program),
  doing ``Compute``/``Delay``/``Now``/``Alloc``/``Free`` the same way.

Both flush the rank's clock, event count, compute time and host cost to
its stat row at every yield, so partial stats are exact between events.
The ops are ``(1|3, t, dest, nbytes, tag, data, timeout)`` for send and
isend, ``(2|4, t, source, tag, timeout)`` for recv and irecv,
``(5, t, handle_ids)`` for a wait and ``(6, t, op, nbytes, root, data,
reduce_fn, group)`` for a collective.  A rank is resumed with the event
time, or with ``(time, payload)`` when the loop hands it a result: the
data of a collective, and for the Request driver the ``ReceivedMessage``,
wait-result list, ``SendFailed`` or ``TimedOut`` the program sees.  The
loop builds those result objects only for the Request driver.

The scheduler keeps **distinct timestamps** in a heap and all events at
one time in a FIFO bucket list, each event one integer ``rank * 4 +
kind``: 0 resumes with the time, 1 processes the rank's pending op, 2
resumes with a payload, 3 is a crash or timeout (its spec is kept per
``(time, rank)``).  Events at equal times run in push order.  Crashes go
into their buckets before anything else, so a crash preempts every other
event at its time.

Message semantics: a receive matches the earliest-sent queued message
that satisfies its (source, tag), wildcards included; a message matches
the earliest-posted receive that accepts it.  Messages up to the eager
limit complete locally after the send overhead; larger ones wait for
their receive (rendezvous).  A receive, or a rendezvous send, still
unmatched when its timeout fires is withdrawn.  The loop body has one
send path and one receive path; a match on either falls through into
one transfer completion.  Their fault steps run only under a fault plan,
their trace steps only when a trace is collected, and the completion
builds a ``ReceivedMessage`` only for the Request driver.

Fault draws are keyed by the count of events queued so far plus sends
and receives posted so far (``drained + Σ len(live buckets) + mseq``),
computed only for a send under a fault plan.  The same plan, program and
inputs therefore replay identically; a draw depends on everything queued
before it.  Heartbeat, budget and flight recorder are bound once per run
by :class:`RunHooks`.
"""

from __future__ import annotations

from functools import reduce
from heapq import heappop, heappush
from typing import Any, Callable

from .budget import BudgetExceededError
from .faults import DeadlockReport, diagnose_deadlock
from .flightrec import FLIGHT, deadlock_report_to_dict
from .heartbeat import HEARTBEAT
from .requests import (
    ANY_SOURCE,
    ANY_TAG,
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
    RequestHandle,
    Send,
    SendFailed,
    TimedOut,
    Wait,
)
from .stats import ProcessStats, SimStats

__all__ = [
    "run",
    "request_driver",
    "RunHooks",
    "DeadlockError",
    "CollectiveMismatchError",
    "collective_results",
]

#: flight-ring kind per op code; a crashed rank's pending op gets
#: ``op | _DEAD``, which keeps its name and dispatches to nothing
_DEAD = 8
_KIND = (None, "send", "recv", "isend", "irecv", "wait", "collective", None) * 2

#: event count past any real run: "no hook due"
_NEVER = 1 << 62

#: events between wall-clock budget checks after the first event
WALL_STRIDE = 1024


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


def collective_results(op: str, root: int, arrivals: dict, reduce_fn) -> dict[int, Any]:
    """Per-rank payloads of a completed collective.

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
    """The per-event hooks of one run, bound once.

    Heartbeat, watchdog budget and flight recorder are each bound when
    the run starts (``None`` when unarmed).  With none armed
    (``armed`` false) the loop pays one boolean test per event.  An armed
    loop numbers its events from 1, counting the ``nprocs`` priming
    resumes as events at t=0, and per event pays one increment, the
    flight-ring append of ``(t, rank, kind)`` (``record``, when armed)
    and one compare: it calls :meth:`fire` once the count reaches
    ``due``, the next event any hook must see.  So every event is
    recorded, then seen by the due hooks in the order heartbeat, budget,
    then dispatched.  On exit, normal or not, the loop calls
    :meth:`settle` with its count.
    """

    def __init__(self, sim, stats: Callable[[], SimStats]):
        self.stats = stats  # partial stats; valid between events
        self.budget = budget = sim._budget
        self.hb = HEARTBEAT if HEARTBEAT.enabled else None
        self.record = None
        if FLIGHT.enabled:
            self.record, self._settle = FLIGHT.appender()
            FLIGHT.note(mode=sim.mode.value, nprocs=sim.nprocs, seed=sim.seed)
        self.armed = not (budget is None and self.hb is None and self.record is None)
        self.due = 1  # the first event always fires: a wall budget may trip there
        if budget is not None:
            budget.start()

    def settle(self, events: int) -> None:
        """Account the run's *events* flight-ring appends so far."""
        if self.record is not None:
            self._settle(events)

    def fire(self, events: int, t: float) -> int:
        """Consult every armed hook at event *events* (virtual time *t*)
        and return the next due event count.  A tripped budget raises
        :class:`BudgetExceededError` with the partial stats and, with the
        recorder armed, the flight dump."""
        hb, budget = self.hb, self.budget
        due = _NEVER
        if hb is not None and hb.enabled:
            hb.tick(events, t)
            due = hb.next_due
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

    def deadlock(self, events: int, report: DeadlockReport, gens) -> DeadlockError:
        """The error for a drained-but-blocked run; closes *gens*, the
        blocked ranks' drivers."""
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

    def unconsumed(self, events: int, ranks: list[int]) -> DeadlockError:
        """The error for a finished run that left messages queued."""
        exc = DeadlockError(f"unconsumed messages at ranks {ranks}")
        exc.flight = self.dump(events, error=str(exc))
        return exc


def request_driver(gen, rank: int, rt: tuple, row: list, free, trace):
    """Drive one Request generator *gen* as rank *rank* of the loop.

    *rt* and *row* are the per-run constants and the rank's stat row that
    ``fast_gen`` takes too; *free* releases memory and *trace* is the
    run's :class:`~repro.sim.trace.Trace` or ``None``.  Local requests
    advance the clock here; communication requests become op tuples, and
    the result the loop resumes with (or, after an isend or irecv, the
    :class:`RequestHandle` numbered as the loop numbers it) goes back to
    the program.  Closing the driver closes *gen*.
    """
    task_time, chf, evoh, dhc, tic, allocate = rt
    gen_send = gen.send
    hid = 0
    ev = 0
    ct = 0.0
    hc = 0.0
    value = None  # a fresh generator is started with None
    clock = yield
    try:
        while True:
            try:
                req = gen_send(value)
            except StopIteration:
                break
            ev += 1
            ty = type(req)
            if ty is Compute:
                dt = task_time(req.ops, req.working_set_bytes)
                start = clock
                clock += dt
                ct += dt
                cost = req.ops * chf + evoh
                hc += cost
                if trace is not None:
                    trace.add(proc=rank, kind="compute", start=start, end=clock, host_cost=cost)
                value = clock
                continue
            if ty is Delay:
                start = clock
                clock += req.seconds
                ct += req.seconds
                hc += dhc
                if trace is not None:
                    trace.add(proc=rank, kind="delay", start=start, end=clock, host_cost=dhc)
                value = clock
                continue
            if ty is Send or ty is Isend:
                op = (1 if ty is Send else 3, clock, req.dest, req.nbytes, req.tag,
                      req.data, req.timeout)
            elif ty is Recv or ty is Irecv:
                op = (2 if ty is Recv else 4, clock, req.source, req.tag, req.timeout)
            elif ty is Wait:
                op = (5, clock, [h.hid for h in req.handles])
            elif ty is Collective:
                op = (6, clock, req.op, req.nbytes, req.root, req.data, req.reduce_fn, req.group)
            else:
                if ty is Now:
                    if req.charge_timer:
                        clock += tic
                elif ty is Alloc:
                    allocate(rank, req.name, req.nbytes)
                elif ty is Free:
                    free(rank, req.name)
                else:
                    raise TypeError(f"rank {rank} yielded unknown request {req!r}")
                value = clock
                continue
            row[0] = clock
            row[1] = ev
            row[2] = ct
            row[4] = hc
            got = yield op
            hc = row[4]
            if got.__class__ is tuple:
                clock, value = got
            else:
                clock = value = got
            if ty is Isend or ty is Irecv:
                hid += 1
                value = RequestHandle(hid, "send" if ty is Isend else "recv")
    finally:
        gen.close()
    row[0] = clock
    row[1] = ev
    row[2] = ct
    row[4] = hc


def run(sim) -> SimStats:
    """Run *sim* (a :class:`~repro.sim.engine.Simulator`) to completion.

    Raises :class:`DeadlockError` (with a :class:`DeadlockReport`) if the
    queue drains while unfinished, uncrashed ranks remain blocked, or if
    a run without faults and fired timeouts leaves messages queued.
    """
    nprocs = sim.nprocs
    net = sim.net
    host = sim.machine.host
    send_overhead = net.send_overhead
    transit_time = net.transit_time
    net_det = net._sigma == 0.0  # MEASURED draws transit noise per message
    net_flat = sim.machine.net.per_hop == 0.0
    ov_cache: dict = {}
    tr_cache: dict = {}
    EVOH = host.event_overhead
    MHB = host.message_overhead + host.event_overhead
    MHPB = host.message_per_byte
    EAGER = sim.machine.net.eager_limit
    memory = sim.memory
    trace = sim.trace
    fs = sim._fault_state
    default_timeout = sim._default_timeout

    # the per-rank stat rows both drivers flush at each yield:
    # [clock, events, compute_time, comm_time, host_cost].  Indexes 0/1/2
    # are driver-owned, 3 loop-owned, 4 shared (reloaded after every
    # yield), which keeps every float accumulation in one order
    st = [[0.0, 0, 0.0, 0.0, 0.0] for _ in range(nprocs)]
    rt = (
        sim.cpu.task_time,
        sim.machine.cpu.time_per_op * host.direct_exec_factor,
        EVOH,
        host.delay_call_overhead + host.event_overhead,
        sim.cpu.timer_cost(),
        memory.allocate,
    )
    kernel = sim._kernel
    payloads = kernel is None  # result objects only for Request programs
    if kernel is not None:
        inputs, wparams, *measure = sim._kernel_args
        gens = [kernel.fast_gen(r, nprocs, inputs, wparams, rt, st[r], *measure)
                for r in range(nprocs)]
    else:
        gens = [request_driver(g, r, rt, st[r], memory.free, trace)
                for r, g in enumerate(sim._programs)]
    for g in gens:
        next(g)  # to the initial bare yield; the priming resume sends t=0
    steps = [g.send for g in gens]

    finish = [0.0] * nprocs
    msent = [0] * nprocs
    mrecv = [0] * nprocs
    bsent = [0] * nprocs
    ncoll = [0] * nprocs
    retries = [0] * nprocs
    timeouts = [0] * nprocs
    lost = [0] * nprocs
    dups = [0] * nprocs
    failed = [0] * nprocs
    done = [False] * nprocs
    dead = [False] * nprocs
    crash_time: dict[int, float] = {}
    pend: list = [None] * nprocs  # the rank's pending op (the last it yielded)
    rv: list = [None] * nprocs  # payload of the rank's scheduled payload resume
    handles = [dict() for _ in range(nprocs)]  # hid -> [done, ready_time, result, trace_eid]
    next_hid = [0] * nprocs
    waiting: list = [None] * nprocs
    wait_time = [0.0] * nprocs
    # q_msgs[dst]: [source, tag, nbytes, eager, send_time, ready, sender_hid, data,
    # wire_delay, send_trace_eid]
    q_msgs: list[list] = [[] for _ in range(nprocs)]
    # q_recvs[rank]: [source, tag, post_time, hid_or_None]
    q_recvs: list[list] = [[] for _ in range(nprocs)]
    colls: dict = {}  # (group, call index) -> [op, root, nbytes, arrivals, reduce_fn]
    coll_index = [dict() for _ in range(nprocs)]  # group -> next call index
    rare: dict = {}  # (time, rank) -> specs of its crash/timeout events, FIFO
    mseq = 0  # sends and receives posted so far (counted under a fault plan only)
    drained = 0  # events in buckets already drained and dropped
    fired = 0  # timeouts that fired
    coll_ids = 0  # collective trace ids

    def stats() -> SimStats:
        return SimStats([
            ProcessStats(
                rank=r, compute_time=row[2], comm_time=row[3], finish_time=finish[r],
                messages_sent=msent[r], messages_received=mrecv[r], bytes_sent=bsent[r],
                collectives=ncoll[r], events=row[1], host_cost=row[4], retries=retries[r],
                timeouts=timeouts[r], messages_lost=lost[r], messages_duplicated=dups[r],
                send_failures=failed[r], crashed=dead[r], crash_time=crash_time.get(r, 0.0),
            )
            for r, row in enumerate(st)
        ])

    hooks = RunHooks(sim, stats)
    armed = hooks.armed
    fire = hooks.fire
    due = hooks.due
    record = hooks.record
    events = 0

    timeheap: list[float] = []
    buckets: dict[float, list[int]] = {}
    bget = buckets.get

    def push(at: float, code: int) -> None:
        b = bget(at)
        if b is None:
            buckets[at] = [code]
            heappush(timeheap, at)
        else:
            b.append(code)

    def push_rare(at: float, rank: int, spec: tuple) -> None:
        specs = rare.get((at, rank))
        if specs is None:
            rare[at, rank] = [spec]
        else:
            specs.append(spec)
        push(at, rank * 4 + 3)

    def resume(rank: int, at: float, result) -> None:
        """Resume *rank* at *at*, handing Request programs *result*."""
        if payloads:
            rv[rank] = result
            code = rank * 4 + 2
        else:
            code = rank * 4
        b = bget(at)
        if b is None:
            buckets[at] = [code]
            heappush(timeheap, at)
        else:
            b.append(code)

    def complete_handle(rank: int, hid: int, ready_time: float, result) -> None:
        hs = handles[rank]
        h = hs[hid]
        h[0] = True
        h[1] = ready_time
        h[2] = result
        w = waiting[rank]
        if w is not None and all(hs[x][0] for x in w):
            release_wait(rank)

    def release_wait(rank: int) -> None:
        """All awaited handles completed: schedule the rank's resume."""
        hids = waiting[rank]
        waiting[rank] = None
        pop = handles[rank].pop
        done_handles = [pop(h) for h in hids]
        since = wait_time[rank]
        resume_at = since
        for h in done_handles:
            if h[1] > resume_at:
                resume_at = h[1]
        blocked_for = resume_at - since
        if blocked_for > 0:
            st[rank][3] += blocked_for
        if trace is not None:
            trace.add(proc=rank, kind="wait", start=since, end=resume_at, host_cost=EVOH,
                      deps=tuple(h[3] for h in done_handles if h[3] is not None))
        resume(rank, resume_at, [h[2] for h in done_handles] if payloads else None)

    def send_failed(rank: int, t: float, hid, delay: float, cost: float, nbytes: int,
                    tries: int) -> None:
        """Transient send failures exhausted the retry budget: the message
        never leaves the NIC and the sender learns it failed."""
        t_fail = t + delay
        row = st[rank]
        row[3] += delay
        row[4] += cost
        failed[rank] += 1
        eid = None
        if trace is not None:
            eid = trace.add(proc=rank, kind="send", start=t, end=t_fail, host_cost=cost,
                            nbytes=nbytes)
        result = SendFailed(now=t_fail, retries=tries) if payloads else None
        if hid is not None:
            handles[rank][hid][:] = [True, t_fail, result, eid]
            push(t_fail, rank * 4)
        else:
            resume(rank, t_fail, result)

    def lose(rank: int, t_inject: float, msg: list, tries: int) -> None:
        """The wire dropped *msg* beyond recovery; settle the sender."""
        lost[rank] += 1
        hid = msg[6]
        if msg[3]:
            # buffered fire-and-forget: the sender completed locally and
            # never learns the wire dropped the message
            if hid is not None:
                handles[rank][hid][:3] = [True, t_inject, t_inject]
            push(t_inject, rank * 4)
            return
        # rendezvous: the handshake cannot complete, so the send fails
        # after its retransmission budget (backoff charged to the clock)
        wire_delay = msg[8]
        t_fail = t_inject + wire_delay
        st[rank][3] += wire_delay
        failed[rank] += 1
        result = SendFailed(now=t_fail, retries=tries) if payloads else None
        if hid is not None:
            push(t_inject, rank * 4)
            complete_handle(rank, hid, t_fail, result)
        else:
            resume(rank, t_fail, result)

    def arm_timeout(rank: int, since: float, timeout, spec: tuple) -> None:
        """Arm the timeout of *rank*'s unmatched op, if it has one."""
        if timeout is None:
            timeout = default_timeout
        if timeout is not None:
            push_rare(since + timeout, rank, spec)

    def collective(rank: int, t: float, op: tuple) -> None:
        nonlocal coll_ids
        _, _, cop, nbytes, root, data, reduce_fn, group = op
        if group is not None:
            if rank not in group:
                raise CollectiveMismatchError(
                    f"rank {rank} issued a collective on group {group} it does not belong to"
                )
            if group[-1] >= nprocs:
                raise CollectiveMismatchError(
                    f"group {group} references ranks beyond P={nprocs}"
                )
            if cop in ("bcast", "reduce", "gather", "scatter") and root not in group:
                raise CollectiveMismatchError(f"collective root {root} is not in group {group}")
            size = len(group)
        else:
            if root >= nprocs:
                raise ValueError(
                    f"rank {rank} issued {cop!r} with root {root} "
                    f"but the world has {nprocs} ranks"
                )
            size = nprocs
        # per-(rank, communicator) call counting: group collectives on
        # different communicators proceed independently
        index = coll_index[rank]
        seq = index.get(group, 0)
        index[group] = seq + 1
        key = (group, seq)
        state = colls.get(key)
        if state is None:
            state = colls[key] = [cop, root, 0, {}, None]
        elif state[0] != cop or state[1] != root:
            raise CollectiveMismatchError(
                f"collective #{key}: rank {rank} called {cop!r} (root {root}) "
                f"but others called {state[0]!r} (root {state[1]})"
            )
        arrivals = state[3]
        if rank in arrivals:
            raise CollectiveMismatchError(f"rank {rank} issued collective #{key} twice")
        arrivals[rank] = (t, data)
        if nbytes > state[2]:
            state[2] = nbytes
        if reduce_fn is not None:
            state[4] = reduce_fn
        if len(arrivals) < size:
            return
        # everyone has arrived: price the operation and release the group
        del colls[key]
        coll_id = coll_ids
        coll_ids += 1
        nbytes = state[2]
        completion = max(at for at, _ in arrivals.values()) + net.collective_time(
            cop, nbytes, size)
        results = collective_results(cop, root, arrivals, state[4])
        cost = MHB + nbytes * MHPB
        b = bget(completion)
        if b is None:
            b = buckets[completion] = []
            heappush(timeheap, completion)
        append = b.append
        for crank, (arrival, _) in arrivals.items():
            crow = st[crank]
            crow[3] += completion - arrival
            crow[4] += cost
            ncoll[crank] += 1
            rv[crank] = results[crank]
            append(crank * 4 + 2)
        if trace is not None:
            for crank, (arrival, _) in arrivals.items():
                trace.add(proc=crank, kind="collective", start=arrival, end=completion,
                          host_cost=cost, coll_id=coll_id, nbytes=nbytes)
        if payloads:
            for crank in arrivals:
                rv[crank] = CollectiveResult(results[crank], completion)

    def rare_event(rank: int, t: float) -> None:
        """A crash or a send/recv timeout of *rank* fires at *t*."""
        nonlocal fired
        specs = rare[t, rank]
        spec = specs.pop(0)
        if not specs:
            del rare[t, rank]
        if spec[0] == "crash":
            if done[rank] or dead[rank]:
                return
            dead[rank] = True
            crash_time[rank] = t
            waiting[rank] = None
            # a dead rank receives nothing: withdraw its posted receives so
            # in-flight messages to it stay queued (and get reported)
            q_recvs[rank].clear()
            if pend[rank] is not None:
                pend[rank] = (pend[rank][0] | _DEAD,)
            try:
                gens[rank].close()
            except Exception:
                pass  # a misbehaving generator must not mask the crash itself
            return
        if dead[rank]:
            return
        # withdraw the op if still pending; else the timeout lost the race
        if spec[1] == "recv":
            queue, entry, since, hid_at = q_recvs[rank], spec[2], 2, 3
        else:
            queue, entry, since, hid_at = q_msgs[spec[2]], spec[3], 4, 6
        for j, queued in enumerate(queue):
            if queued is entry:
                del queue[j]
                break
        else:
            return
        fired += 1
        timeouts[rank] += 1
        result = TimedOut(op=spec[1], now=t) if payloads else None
        hid = entry[hid_at]
        if hid is not None:
            complete_handle(rank, hid, t, result)
        else:
            st[rank][3] += t - entry[since]
            resume(rank, t, result)

    # crashes first, so each preempts everything else at its time; then
    # one priming resume per rank at t=0, in rank order
    for rank in sorted(sim._crash_times):
        push_rare(sim._crash_times[rank], rank, ("crash",))
    for rank in range(nprocs):
        push(0.0, rank * 4)
    try:
        while timeheap:
            t = heappop(timeheap)
            # the bucket stays live in the dict while draining: same-time
            # events pushed mid-drain append to this very list, and the
            # list iterator observes appends, so they run in push order
            bucket = buckets[t]
            for code in bucket:
                rank = code >> 2
                kind = code & 3
                if armed:
                    events += 1
                    if record is not None:
                        record((t, rank, _KIND[pend[rank][0]] if kind == 1 else
                                "resume" if kind != 3 else rare[t, rank][0][0]))
                    if events >= due:
                        due = fire(events, t)
                if kind != 1:
                    if kind == 0:
                        value = t
                    elif kind == 2:
                        value = (t, rv[rank])
                    else:
                        rare_event(rank, t)
                        continue
                    if dead[rank]:
                        continue
                    # resume: run the rank's driver until its next comm op
                    try:
                        op = steps[rank](value)
                    except StopIteration:
                        done[rank] = True
                        finish[rank] = st[rank][0]
                        continue
                    pend[rank] = op
                    at = op[1]
                    b = bget(at)
                    if b is None:
                        buckets[at] = [rank * 4 + 1]
                        heappush(timeheap, at)
                    else:
                        b.append(rank * 4 + 1)
                    continue
                # communication event at time t
                op = pend[rank]
                o = op[0]
                if o == 1 or o == 3:  # send / isend
                    dst = op[2]
                    nbytes = op[3]
                    if dst >= nprocs:
                        raise ValueError(
                            f"rank {rank} sends to nonexistent rank {dst} "
                            f"(world size {nprocs})"
                        )
                    overhead = ov_cache.get(nbytes)
                    if overhead is None:
                        overhead = ov_cache[nbytes] = send_overhead(nbytes)
                    cost = MHB + nbytes * MHPB
                    if o == 3:
                        next_hid[rank] += 1
                        hid = next_hid[rank]
                        handles[rank][hid] = [False, 0.0, None, None]
                    else:
                        hid = None
                    srow = st[rank]
                    if fs is not None:
                        mseq += 1
                        key = drained + sum(map(len, buckets.values())) + mseq
                        injected, tries, pre_delay = fs.injection(rank, dst, key)
                        retries[rank] += tries
                        if not injected:
                            send_failed(rank, t, hid, overhead + pre_delay, cost, nbytes, tries)
                            continue
                        t_inject = t + pre_delay + overhead
                        srow[3] += overhead + pre_delay
                        delivered, tries, wire_delay = fs.delivery(rank, dst, key)
                        retries[rank] += tries
                    else:
                        t_inject = t + overhead
                        srow[3] += overhead
                    srow[4] += cost
                    msent[rank] += 1
                    bsent[rank] += nbytes
                    eager = nbytes <= EAGER
                    if eager:
                        if net_det:
                            tkey = nbytes if net_flat else (nbytes, rank, dst)
                            transit = tr_cache.get(tkey)
                            if transit is None:
                                transit = tr_cache[tkey] = transit_time(nbytes, rank, dst, nprocs)
                        else:
                            transit = transit_time(nbytes, rank, dst, nprocs)
                        if fs is None:
                            ready = t_inject + transit
                        else:
                            ready = t_inject + wire_delay + (transit + fs.degradation_extra(
                                net, nbytes, rank, dst, t_inject))
                    else:
                        ready = None
                    msg = [rank, op[4], nbytes, eager, t_inject, ready, hid, op[5], 0.0, None]
                    if trace is not None:
                        msg[9] = eid = trace.add(proc=rank, kind="send", start=t, end=t_inject,
                                                 host_cost=cost, nbytes=nbytes)
                        if hid is not None:
                            handles[rank][hid][3] = eid
                    if fs is not None:
                        msg[8] = wire_delay
                        if not delivered:
                            lose(rank, t_inject, msg, tries)
                            continue
                        if fs.duplicates(rank, dst, key):
                            # a spurious duplicate reaches the receiver; matching
                            # discards it, but draining it costs a message's host work
                            dups[dst] += 1
                            st[dst][4] += cost
                    # matching: first posted recv in post order that accepts it
                    matched = None
                    rq = q_recvs[dst]
                    if rq:
                        tag = op[4]
                        for j, pr in enumerate(rq):
                            pso = pr[0]
                            if (pso == ANY_SOURCE or pso == rank) and (
                                pr[1] == ANY_TAG or pr[1] == tag
                            ):
                                matched = rq.pop(j)
                                break
                    if eager:
                        if hid is not None:
                            h = handles[rank][hid]
                            h[0] = True
                            h[1] = h[2] = t_inject
                        b = bget(t_inject)
                        if b is None:
                            buckets[t_inject] = [rank * 4]
                            heappush(timeheap, t_inject)
                        else:
                            b.append(rank * 4)
                    elif hid is not None:
                        push(t_inject, rank * 4)  # the program goes on; the handle completes later
                    if matched is None:
                        q_msgs[dst].append(msg)
                        if not eager and (op[6] is not None or default_timeout is not None):
                            arm_timeout(rank, t_inject, op[6], ("timeout", "send", dst, msg))
                        continue
                    posted_at = matched[2]
                    rhid = matched[3]
                elif o == 2 or o == 4:  # recv / irecv
                    source = op[2]
                    tag = op[3]
                    if source >= nprocs:
                        raise ValueError(
                            f"rank {rank} receives from nonexistent rank {source} "
                            f"(world size {nprocs})"
                        )
                    if fs is not None:
                        mseq += 1
                    if o == 4:
                        next_hid[rank] += 1
                        rhid = next_hid[rank]
                        handles[rank][rhid] = [False, 0.0, None, None]
                        # the handle goes back at once: the live bucket is buckets[t]
                        bucket.append(rank * 4)
                    else:
                        rhid = None
                    # matching: earliest-sent queued message this recv accepts
                    msg = None
                    mq = q_msgs[rank]
                    if mq:
                        for j, m in enumerate(mq):
                            if (source == ANY_SOURCE or source == m[0]) and (
                                tag == ANY_TAG or tag == m[1]
                            ):
                                msg = mq.pop(j)
                                break
                    if msg is None:
                        posted = [source, tag, t, rhid]
                        q_recvs[rank].append(posted)
                        if op[4] is not None or default_timeout is not None:
                            arm_timeout(rank, t, op[4], ("timeout", "recv", posted))
                        continue
                    dst = rank
                    posted_at = t
                    nbytes = msg[2]
                    overhead = ov_cache.get(nbytes)  # recv_overhead == send_overhead
                    if overhead is None:
                        overhead = ov_cache[nbytes] = send_overhead(nbytes)
                    cost = MHB + nbytes * MHPB
                else:
                    if o == 5:  # waitall
                        st[rank][4] += EVOH
                        hs = handles[rank]
                        for hid in op[2]:
                            if hid not in hs:
                                raise ValueError(
                                    f"rank {rank} waits on unknown or already-completed "
                                    f"handle {hid}"
                                )
                        waiting[rank] = op[2]  # drivers never reuse the list
                        wait_time[rank] = t
                        if all(hs[h][0] for h in op[2]):
                            release_wait(rank)
                    elif o == 6:
                        collective(rank, t, op)
                    # else: the rank crashed with this op pending
                    continue
                # a transfer completes: msg meets the receive that rank dst
                # posted at posted_at (rhid its handle; None if blocking)
                if msg[3]:
                    ready = msg[5]
                else:
                    # rendezvous: the transfer starts now both sides are present
                    src = msg[0]
                    send_time = msg[4]
                    start = send_time if send_time > posted_at else posted_at
                    if net_det:
                        tkey = nbytes if net_flat else (nbytes, src, dst)
                        transit = tr_cache.get(tkey)
                        if transit is None:
                            transit = tr_cache[tkey] = transit_time(nbytes, src, dst, nprocs)
                    else:
                        transit = transit_time(nbytes, src, dst, nprocs)
                    if fs is None:
                        ready = msg[5] = start + transit
                    else:
                        ready = msg[5] = start + msg[8] + (transit + fs.degradation_extra(
                            net, nbytes, src, dst, start))
                    if msg[6] is not None:
                        complete_handle(src, msg[6], start, start)
                    else:
                        if start > send_time:
                            st[src][3] += start - send_time
                        push(start, src * 4)
                completion = (posted_at if posted_at > ready else ready) + overhead
                mrecv[dst] += 1
                drow = st[dst]
                drow[4] += cost
                if trace is not None:
                    send_eid = msg[9]
                    eid = trace.add(proc=dst, kind="recv", start=posted_at, end=completion,
                                    host_cost=cost, deps=() if send_eid is None else (send_eid,),
                                    nbytes=nbytes, nonblocking=rhid is not None)
                    if rhid is not None:
                        handles[dst][rhid][3] = eid
                result = None
                if payloads:
                    result = ReceivedMessage(msg[7], nbytes, msg[0], msg[1], completion)
                if rhid is not None:
                    complete_handle(dst, rhid, completion, result)
                    continue
                drow[3] += completion - posted_at
                if payloads:
                    resume(dst, completion, result)
                    continue
                b = bget(completion)
                if b is None:
                    buckets[completion] = [dst * 4]
                    heappush(timeheap, completion)
                else:
                    b.append(dst * 4)
            del buckets[t]
            drained += len(bucket)
    finally:
        hooks.settle(events)

    blocked = [r for r in range(nprocs) if not done[r] and not dead[r]]
    if blocked:
        world = tuple(range(nprocs))
        report = diagnose_deadlock(
            nprocs,
            blocked=[
                (r, _KIND[pend[r][0]], st[r][0], wait_time[r],
                 sorted(h for h in waiting[r] or () if not handles[r][h][0]))
                for r in blocked
            ],
            sends=[(m[0], dst, m[1], m[2], m[4], m[6])
                   for dst in range(nprocs) for m in q_msgs[dst]],
            recvs=[(r, p[0], p[1], p[2], p[3]) for r in range(nprocs) for p in q_recvs[r]],
            colls=[(world if group is None else group, c[0], c[1], c[3])
                   for (group, _), c in colls.items()],
            crashed=sorted(crash_time.items()),
        )
        raise hooks.deadlock(events, report, [gens[r] for r in blocked])
    if fs is None and fired == 0:
        leftover = [r for r in range(nprocs) if q_msgs[r]]
        if leftover:
            raise hooks.unconsumed(events, leftover)
    return stats()
