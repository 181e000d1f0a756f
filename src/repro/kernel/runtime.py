"""Flat event loop for compiled programs (the fast half of ``repro.kernel``).

Every run of a lowered program drives the generated ``fast_gen`` per-rank
state machines on this loop, bare or armed: the heartbeat, checkpoint,
budget and flight-recorder hooks are bound once per run by
:class:`repro.sim.engine.RunHooks`, as the engine binds them.  A run that
injects faults, sets a timeout or collects a trace interprets the
program on the engine instead.  The scheduler is much flatter than the
engine's heap of actions:

* the priority queue holds **distinct timestamps only**; all events at
  one virtual time live in a FIFO bucket list, so the heap shrinks by
  the (large) same-time fan-out factor and each event is one integer,
  not a tuple;
* events are encoded as ``rank * 4 + kind`` integers (0 = resume with
  the bucket time, 1 = process the rank's pending comm op, 2 = resume
  with a payload — a collective result);
* matching, rendezvous and waits are inlined over plain lists,
  mirroring :class:`repro.sim.engine.Simulator`'s handlers line for line
  so every float accumulates — and every MEASURED-mode noise draw
  happens — in the same order.  Collective payloads and the deadlock
  diagnosis are the engine's own functions, fed with these lists.

Events are numbered as the engine numbers them (the ``nprocs`` priming
resumes are events at t=0), so budgets, heartbeat and checkpoint cursors
and flight rings agree across the loops, and the produced
:class:`~repro.sim.engine.SimResult` is byte-identical to the
interpreter's; the differential fuzz harness holds it to that.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add

from ..mpi.matching import ANY_SOURCE, ANY_TAG
from ..sim.faults import diagnose_deadlock
from . import vectorize

__all__ = ["run_fast"]

_REDUCE_FNS = {"sum": add, "max": max, "min": min}

#: flight-ring kind per pending comm op code (the engine's request names)
_KIND = (None, "send", "recv", "isend", "irecv", "wait", "collective")


def run_fast(sim):
    """Run *sim* (a ``Simulator`` with a resolved compiled kernel) flat out."""
    from ..sim.engine import (  # local import: engine imports this module lazily
        CollectiveMismatchError,
        RunHooks,
        SimResult,
        collective_results,
    )
    from ..sim.stats import ProcessStats, SimStats

    kernel = sim._kernel
    inputs, wparams = sim._kernel_args
    nprocs = sim.nprocs
    net = sim.net
    send_overhead = net.send_overhead
    transit_time = net.transit_time
    collective_time = net.collective_time
    ov_cache = sim._ov_cache
    tr_cache = sim._tr_cache
    net_det = sim._net_det  # MEASURED draws transit noise per message
    net_flat = sim._net_flat
    EVOH = sim._event_overhead
    MHB = sim._msg_host_base
    MHPB = sim._msg_host_per_byte
    EAGER = sim._eager_limit
    allocate = sim.memory.allocate

    # rank-shared stat cells the generated code flushes at each yield:
    # [clock, events, compute_time, comm_time, host_cost].  Indexes 0/1/2
    # are generator-owned, 3 runtime-owned, 4 shared (reloaded after every
    # yield) — this keeps host-cost accumulation in the engine's exact
    # floating-point order, and partial stats exact between events.
    st = [[0.0, 0, 0.0, 0.0, 0.0] for _ in range(nprocs)]
    rt = (
        sim._task_time,
        sim._compute_host_factor,
        EVOH,
        sim._delay_host_cost,
        sim.cpu.timer_cost(),
    )
    waves = vectorize.static_waves(nprocs, inputs, wparams, kernel.static_wave_sites)
    fast_gen = kernel.fast_gen
    gens = []
    steps = []
    for r in range(nprocs):
        wv = {sid: rows[r] for sid, rows in waves.items()}
        g = fast_gen(r, nprocs, inputs, wparams, rt, st[r], wv)
        next(g)  # to the initial bare yield; the priming resume sends t=0
        gens.append(g)
        steps.append(g.send)

    finish = [0.0] * nprocs
    msent = [0] * nprocs
    mrecv = [0] * nprocs
    bsent = [0] * nprocs
    ncoll = [0] * nprocs
    done = [False] * nprocs
    pend = [None] * nprocs  # the rank's pending comm op (the last it yielded)
    rv = [None] * nprocs  # payload of the rank's (single) scheduled resume
    handles = [dict() for _ in range(nprocs)]  # hid -> [done, ready_time]
    next_hid = [0] * nprocs
    waiting = [None] * nprocs
    wait_time = [0.0] * nprocs
    # q_msgs[dst]: [seq, source, tag, nbytes, eager, send_time, ready, sender_handle]
    q_msgs = [[] for _ in range(nprocs)]
    # q_recvs[rank]: [seq, source, tag, post_time, handle_or_None]
    q_recvs = [[] for _ in range(nprocs)]
    colls: dict[int, list] = {}  # call index -> [op, root, nbytes, arrivals, reduce_fn]
    coll_index = [0] * nprocs
    mseq = 0

    def stats() -> SimStats:
        return SimStats([
            ProcessStats(
                rank=r, compute_time=row[2], comm_time=row[3], finish_time=finish[r],
                messages_sent=msent[r], messages_received=mrecv[r], bytes_sent=bsent[r],
                collectives=ncoll[r], events=row[1], host_cost=row[4],
            )
            for r, row in enumerate(st)
        ])

    hooks = RunHooks(sim, stats)
    armed = hooks.armed
    fire = hooks.fire
    due = hooks.due
    record = hooks.record
    events = 0

    # the engine's first events: one resume per rank at t=0, rank order
    timeheap: list[float] = [0.0]
    buckets: dict[float, list[int]] = {0.0: [r * 4 for r in range(nprocs)]}
    bget = buckets.get

    def push(at: float, code: int) -> None:
        b = bget(at)
        if b is None:
            buckets[at] = [code]
            heappush(timeheap, at)
        else:
            b.append(code)

    def complete_handle(rank: int, hid: int, ready_time: float) -> None:
        hs = handles[rank]
        h = hs[hid]
        h[0] = True
        h[1] = ready_time
        w = waiting[rank]
        if w is not None and all(hs[x][0] for x in w):
            release_wait(rank)

    def release_wait(rank: int) -> None:
        hids = waiting[rank]
        waiting[rank] = None
        hs = handles[rank]
        pop = hs.pop
        resume_at = wait_time[rank]
        for h in hids:
            rt_ = pop(h)[1]
            if rt_ > resume_at:
                resume_at = rt_
        blocked_for = resume_at - wait_time[rank]
        if blocked_for > 0:
            st[rank][3] += blocked_for
        push(resume_at, rank * 4)

    def complete_recv(posted: list, prank: int, msg: list) -> None:
        nbytes = msg[3]
        overhead = ov_cache.get(nbytes)
        if overhead is None:
            overhead = net.recv_overhead(nbytes)
            ov_cache[nbytes] = overhead
        post_time = posted[3]
        ready = msg[6]
        completion = (post_time if post_time > ready else ready) + overhead
        mrecv[prank] += 1
        st[prank][4] += MHB + nbytes * MHPB
        if posted[4] is not None:
            complete_handle(prank, posted[4], completion)
        else:
            st[prank][3] += completion - post_time
            push(completion, prank * 4)

    def finish_rendezvous(msg: list, posted: list, prank: int) -> None:
        src = msg[1]
        transfer_start = msg[5] if msg[5] > posted[3] else posted[3]
        msg[6] = transfer_start + transit_time(msg[3], src, prank, nprocs)
        if msg[7] is not None:
            complete_handle(src, msg[7], transfer_start)
        else:
            waited = transfer_start - msg[5]
            if waited > 0:
                st[src][3] += waited
            push(transfer_start, src * 4)
        complete_recv(posted, prank, msg)

    try:
        while timeheap:
            t = heappop(timeheap)
            # the bucket stays live in the dict while draining: same-time
            # events pushed mid-drain append to this very list, and Python's
            # list iterator observes appends — exactly the engine's FIFO
            # order among equal timestamps
            bucket = buckets[t]
            for code in bucket:
                rank = code >> 2
                kind = code & 3
                if armed:
                    events += 1
                    if record is not None:
                        record((t, rank, _KIND[pend[rank][0]] if kind == 1 else "resume"))
                    if events >= due:
                        due = fire(events, t)
                if kind != 1:
                    # resume: run the rank's generator until its next comm yield
                    if kind == 0:
                        value = t
                    else:
                        value = (t, rv[rank])
                    step = steps[rank]
                    while True:
                        try:
                            op = step(value)
                        except StopIteration:
                            done[rank] = True
                            finish[rank] = st[rank][0]
                            break
                        if op[0] != 7:
                            pend[rank] = op
                            at = op[1]
                            b = bget(at)
                            if b is None:
                                buckets[at] = [rank * 4 + 1]
                                heappush(timeheap, at)
                            else:
                                b.append(rank * 4 + 1)
                            break
                        # Alloc: handled inline, like the engine's _resume
                        allocate(rank, op[2], op[3])
                        value = op[1]
                    continue
                # communication event at time t
                op = pend[rank]
                o = op[0]
                if o == 1 or o == 3:  # send / isend
                    dest = op[2]
                    nbytes = op[3]
                    tag = op[4]
                    if dest >= nprocs:
                        raise ValueError(
                            f"rank {rank} sends to nonexistent rank {dest} "
                            f"(world size {nprocs})"
                        )
                    overhead = ov_cache.get(nbytes)
                    if overhead is None:
                        overhead = send_overhead(nbytes)
                        ov_cache[nbytes] = overhead
                    cost = MHB + nbytes * MHPB
                    mseq += 1
                    seq = mseq
                    t_inject = t + overhead
                    srow = st[rank]
                    srow[3] += overhead
                    srow[4] += cost
                    msent[rank] += 1
                    bsent[rank] += nbytes
                    eager = nbytes <= EAGER
                    if eager:
                        if net_det:
                            key = nbytes if net_flat else (nbytes, rank, dest)
                            transit = tr_cache.get(key)
                            if transit is None:
                                transit = transit_time(nbytes, rank, dest, nprocs)
                                tr_cache[key] = transit
                        else:
                            transit = transit_time(nbytes, rank, dest, nprocs)
                        ready = t_inject + transit
                    else:
                        ready = None
                    if o == 3:
                        next_hid[rank] += 1
                        hid = next_hid[rank]
                        handles[rank][hid] = [False, 0.0]
                    else:
                        hid = None
                    msg = [seq, rank, tag, nbytes, eager, t_inject, ready, hid]
                    # matching: first posted recv in list order that accepts it
                    matched = None
                    rq = q_recvs[dest]
                    if rq:
                        for j, pr in enumerate(rq):
                            pso = pr[1]
                            if (pso == ANY_SOURCE or pso == rank) and (
                                pr[2] == ANY_TAG or pr[2] == tag
                            ):
                                matched = rq.pop(j)
                                break
                    if matched is None:
                        q_msgs[dest].append(msg)
                    if eager:
                        if hid is not None:
                            h = handles[rank][hid]
                            h[0] = True
                            h[1] = t_inject
                        b = bget(t_inject)
                        if b is None:
                            buckets[t_inject] = [rank * 4]
                            heappush(timeheap, t_inject)
                        else:
                            b.append(rank * 4)
                        if matched is not None:
                            # inline complete_recv (hot path: matched eager send)
                            post_time = matched[3]
                            completion = (post_time if post_time > ready else ready) + overhead
                            mrecv[dest] += 1
                            drow = st[dest]
                            drow[4] += cost
                            if matched[4] is not None:
                                complete_handle(dest, matched[4], completion)
                            else:
                                drow[3] += completion - post_time
                                b = bget(completion)
                                if b is None:
                                    buckets[completion] = [dest * 4]
                                    heappush(timeheap, completion)
                                else:
                                    b.append(dest * 4)
                    else:
                        if hid is not None:
                            push(t_inject, rank * 4)
                        if matched is not None:
                            finish_rendezvous(msg, matched, dest)
                elif o == 2 or o == 4:  # recv / irecv
                    source = op[2]
                    tag = op[3]
                    if source >= nprocs:
                        raise ValueError(
                            f"rank {rank} receives from nonexistent rank {source} "
                            f"(world size {nprocs})"
                        )
                    mseq += 1
                    if o == 4:
                        next_hid[rank] += 1
                        hid = next_hid[rank]
                        handles[rank][hid] = [False, 0.0]
                    else:
                        hid = None
                    posted = [mseq, source, tag, t, hid]
                    # matching: lowest-seq queued message that this recv accepts
                    msg = None
                    mq = q_msgs[rank]
                    if mq:
                        best = -1
                        bseq = 0
                        for j, m in enumerate(mq):
                            if (source == ANY_SOURCE or source == m[1]) and (
                                tag == ANY_TAG or tag == m[2]
                            ):
                                if best < 0 or m[0] < bseq:
                                    best = j
                                    bseq = m[0]
                        if best >= 0:
                            msg = mq.pop(best)
                    if msg is None:
                        q_recvs[rank].append(posted)
                    if hid is not None:
                        # handle resume lands at this very timestamp: the
                        # live bucket is buckets[t], append directly
                        bucket.append(rank * 4)
                    if msg is None:
                        continue
                    if msg[4]:
                        # inline complete_recv (hot path: recv matches queued eager)
                        nbytes = msg[3]
                        overhead = ov_cache.get(nbytes)
                        if overhead is None:
                            overhead = net.recv_overhead(nbytes)
                            ov_cache[nbytes] = overhead
                        ready = msg[6]
                        completion = (t if t > ready else ready) + overhead
                        mrecv[rank] += 1
                        rrow = st[rank]
                        rrow[4] += MHB + nbytes * MHPB
                        if hid is not None:
                            complete_handle(rank, hid, completion)
                        else:
                            rrow[3] += completion - t
                            b = bget(completion)
                            if b is None:
                                buckets[completion] = [rank * 4]
                                heappush(timeheap, completion)
                            else:
                                b.append(rank * 4)
                    else:
                        finish_rendezvous(msg, posted, rank)
                elif o == 5:  # waitall
                    st[rank][4] += EVOH
                    hs = handles[rank]
                    for hid in op[2]:
                        if hid not in hs:
                            raise ValueError(
                                f"rank {rank} waits on unknown or already-completed "
                                f"handle {hid}"
                            )
                    waiting[rank] = op[2]  # the generator never reuses the list
                    wait_time[rank] = t
                    if all(hs[h][0] for h in op[2]):
                        release_wait(rank)
                else:  # o == 6: collective (world only: IR never forms groups)
                    cop = op[2]
                    nbytes = op[3]
                    root = op[4]
                    data = op[5]
                    rkind = op[6]
                    if root >= nprocs:
                        raise ValueError(
                            f"rank {rank} issued {cop!r} with root {root} "
                            f"but the world has {nprocs} ranks"
                        )
                    seq = coll_index[rank]
                    coll_index[rank] = seq + 1
                    state = colls.get(seq)
                    if state is None:
                        state = colls[seq] = [cop, root, 0, {}, None]
                    elif state[0] != cop or state[1] != root:
                        raise CollectiveMismatchError(
                            f"collective #{(None, seq)}: rank {rank} called {cop!r} "
                            f"(root {root}) but others called {state[0]!r} "
                            f"(root {state[1]})"
                        )
                    arrivals = state[3]
                    if rank in arrivals:
                        raise CollectiveMismatchError(
                            f"rank {rank} issued collective #{(None, seq)} twice"
                        )
                    arrivals[rank] = (t, data)
                    if nbytes > state[2]:
                        state[2] = nbytes
                    if rkind is not None:
                        state[4] = _REDUCE_FNS[rkind]
                    if len(arrivals) < nprocs:
                        continue
                    del colls[seq]
                    start_max = max(at for at, _ in arrivals.values())
                    completion = start_max + collective_time(cop, state[2], nprocs)
                    results = collective_results(cop, root, arrivals, state[4])
                    cost = MHB + state[2] * MHPB
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
            del buckets[t]
    finally:
        hooks.settle(events)

    remaining = [r for r in range(nprocs) if not done[r]]
    if remaining:
        report = diagnose_deadlock(
            nprocs,
            blocked=[
                (r, _KIND[pend[r][0]], st[r][0], wait_time[r],
                 sorted(h for h in waiting[r] or () if not handles[r][h][0]))
                for r in remaining
            ],
            sends=[(m[1], dst, m[2], m[3], m[5], m[7])
                   for dst in range(nprocs) for m in q_msgs[dst]],
            recvs=[(dst, r[1], r[2], r[3], r[4])
                   for dst in range(nprocs) for r in q_recvs[dst]],
            colls=[(range(nprocs), c[0], c[1], c[3]) for c in colls.values()],
        )
        raise hooks.deadlock(events, report, [gens[r] for r in remaining])
    leftover = [r for r in range(nprocs) if q_msgs[r]]
    if leftover:
        raise hooks.unconsumed(events, leftover)
    return SimResult(sim.mode, stats(), sim.memory.report(), None)
