"""Fault injection and resilience modeling for the MPI-Sim kernel.

Real runs at the scales MPI-SIM-AM targets (thousands of target
processors) see rank crashes, dropped or duplicated messages and
degraded links.  This module lets a simulation schedule those events
deterministically so that "what happens to this application when things
go wrong" becomes an answerable question:

* :class:`FaultPlan` — a declarative, seed-driven schedule of faults:
  rank crashes at a virtual time, per-link message loss/duplication
  probabilities, transient send failures, and link-degradation windows.
* :class:`RetryPolicy` — transport-level retransmission (max attempts,
  exponential backoff charged to the virtual clock), modeling
  application/runtime resilience to transient faults.
* :class:`DeadlockReport` — the deadlock watchdog's diagnosis: the
  per-rank wait-chain graph (who is blocked on whom), unmatched sends
  and receives, and collective stragglers, in the spirit of ScalAna's
  graph-based stall diagnosis.

Every random decision is a pure function of ``(plan.seed, fault kind,
key, attempt)``, where the event loop's key for a send counts the events
queued and the sends and receives posted before it.  The same plan,
program and inputs therefore replay identically; a decision is not
independent of event ordering, since every event queued earlier shifts
the key (see :class:`FaultState`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CrashFault",
    "LinkDegradation",
    "RetryPolicy",
    "FaultPlan",
    "FaultState",
    "WaitInfo",
    "DeadlockReport",
    "diagnose_deadlock",
]

# Sub-stream tags keeping the per-kind random draws independent.
_STREAM_LOSS = 1
_STREAM_DUP = 2
_STREAM_SENDFAIL = 3


def _check_prob(name: str, p: float) -> None:
    if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], got {p!r}")


def _check_time(name: str, t: float) -> None:
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0.0):
        raise ValueError(f"{name} must be a finite non-negative time, got {t!r}")


@dataclass(frozen=True)
class CrashFault:
    """Rank *rank* stops executing at virtual time *time*.

    The crash takes effect at the rank's next kernel event at or after
    *time*: pending sends already injected still deliver, but the rank
    issues no further requests, its posted receives are cancelled, and
    any rank that depends on it ends up in the deadlock watchdog's
    wait-chain report.
    """

    rank: int
    time: float

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"crash rank must be >= 0, got {self.rank}")
        _check_time("crash time", self.time)


@dataclass(frozen=True)
class LinkDegradation:
    """Latency/bandwidth multipliers on a link over a time window.

    ``src``/``dst`` of ``None`` are wildcards (any sender / any
    receiver).  Within ``[start, end)`` a message crossing a matching
    link pays ``latency_factor``× the nominal latency and
    ``1/bandwidth_factor``× the nominal per-byte time.
    """

    start: float
    end: float
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    src: int | None = None
    dst: int | None = None

    def __post_init__(self):
        _check_time("degradation start", self.start)
        _check_time("degradation end", self.end)
        if self.end <= self.start:
            raise ValueError(f"degradation window is empty: [{self.start}, {self.end})")
        if not (math.isfinite(self.latency_factor) and self.latency_factor >= 1.0):
            raise ValueError(f"latency_factor must be >= 1, got {self.latency_factor}")
        if not (math.isfinite(self.bandwidth_factor) and 0.0 < self.bandwidth_factor <= 1.0):
            raise ValueError(f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}")

    def applies(self, src: int, dst: int, when: float) -> bool:
        """Does this window degrade a (src → dst) message sent at *when*?"""
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and self.start <= when < self.end
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Transport/application-level retransmission of failed operations.

    After the *k*-th failed attempt the retrier backs off for
    ``backoff * backoff_factor ** (k - 1)`` virtual seconds before
    attempt *k + 1*, up to ``max_attempts`` attempts total.  Backoff is
    charged to the virtual clock of the operation (the message arrives
    later; a failed injection delays the sender), so resilience has a
    modelled performance price.
    """

    max_attempts: int = 3
    backoff: float = 1.0e-4
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not (math.isfinite(self.backoff) and self.backoff >= 0.0):
            raise ValueError(f"backoff must be finite and >= 0, got {self.backoff}")
        if not (math.isfinite(self.backoff_factor) and self.backoff_factor >= 1.0):
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def delay_after(self, attempt: int) -> float:
        """Backoff charged after failed attempt number *attempt* (1-based)."""
        return self.backoff * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seed-driven schedule of injectable faults.

    An empty plan (the default) is guaranteed zero-cost: the kernel
    bypasses the fault layer entirely and predictions are bit-identical
    to a run without it.
    """

    seed: int = 0
    crashes: tuple[CrashFault, ...] = ()
    #: probability that any point-to-point message is lost in transit
    message_loss: float = 0.0
    #: per-link overrides of ``message_loss``: (src, dst, probability)
    link_loss: tuple[tuple[int, int, float], ...] = ()
    #: probability that a delivered message is duplicated on the wire
    duplication: float = 0.0
    #: probability that one send attempt fails before injection
    send_failure: float = 0.0
    degradations: tuple[LinkDegradation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "link_loss", tuple(tuple(x) for x in self.link_loss))
        object.__setattr__(self, "degradations", tuple(self.degradations))
        _check_prob("message_loss", self.message_loss)
        _check_prob("duplication", self.duplication)
        _check_prob("send_failure", self.send_failure)
        for src, dst, p in self.link_loss:
            if src < 0 or dst < 0:
                raise ValueError(f"link_loss ranks must be >= 0, got ({src}, {dst})")
            _check_prob(f"link_loss[{src}->{dst}]", p)
        seen = set()
        for c in self.crashes:
            if c.rank in seen:
                raise ValueError(f"rank {c.rank} crashes more than once")
            seen.add(c.rank)

    def is_empty(self) -> bool:
        """True when the plan injects nothing (the zero-cost fast path)."""
        return (
            not self.crashes
            and self.message_loss == 0.0
            and not self.link_loss
            and self.duplication == 0.0
            and self.send_failure == 0.0
            and not self.degradations
        )

    def with_loss(self, p: float) -> "FaultPlan":
        """A copy of this plan with global message loss set to *p*."""
        return replace(self, message_loss=p)

    # -- (de)serialization: the CLI's fault-plan schema ------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "crashes": [{"rank": c.rank, "time": c.time} for c in self.crashes],
            "message_loss": self.message_loss,
            "link_loss": [list(x) for x in self.link_loss],
            "duplication": self.duplication,
            "send_failure": self.send_failure,
            "degradations": [
                {
                    "start": d.start,
                    "end": d.end,
                    "latency_factor": d.latency_factor,
                    "bandwidth_factor": d.bandwidth_factor,
                    "src": d.src,
                    "dst": d.dst,
                }
                for d in self.degradations
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {
            "seed", "crashes", "message_loss", "link_loss", "duplication",
            "send_failure", "degradations",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        return cls(
            seed=int(data.get("seed", 0)),
            crashes=tuple(CrashFault(**c) for c in data.get("crashes", ())),
            message_loss=float(data.get("message_loss", 0.0)),
            link_loss=tuple(tuple(x) for x in data.get("link_loss", ())),
            duplication=float(data.get("duplication", 0.0)),
            send_failure=float(data.get("send_failure", 0.0)),
            degradations=tuple(
                LinkDegradation(**d) for d in data.get("degradations", ())
            ),
        )


class FaultState:
    """Runtime fault oracle the kernel consults for one simulation.

    Wraps a :class:`FaultPlan` plus the optional :class:`RetryPolicy`.
    All draws are keyed by (kind, *seq*, attempt) under the plan seed.
    The event loop passes as *seq* the number of events queued so far
    plus the sends and receives posted so far, taken when the send is
    processed.  This guarantees replay: the same plan, program and
    inputs draw the same decisions.  It does not make a decision
    independent of event ordering, nor monotone in a probability: at a
    higher loss rate the events before a send differ, so its key and
    draw do too.
    """

    def __init__(self, plan: FaultPlan, retry: RetryPolicy | None = None):
        self.plan = plan
        self.retry = retry
        self._loss = dict(((s, d), p) for s, d, p in plan.link_loss)

    # -- randomness -------------------------------------------------------------
    def _draw(self, stream: int, seq: int, attempt: int) -> float:
        rng = np.random.default_rng((self.plan.seed, stream, seq, attempt))
        return float(rng.random())

    def _loss_prob(self, src: int, dst: int) -> float:
        return self._loss.get((src, dst), self.plan.message_loss)

    def _attempt_loop(self, p: float, stream: int, seq: int) -> tuple[bool, int, float]:
        """Run the Bernoulli(p)-per-attempt retry loop for one operation.

        Returns ``(succeeded, retries, backoff_delay)`` where *retries*
        counts re-attempts actually made and *backoff_delay* is the
        total virtual time spent backing off.
        """
        if p <= 0.0:
            return True, 0, 0.0
        max_attempts = self.retry.max_attempts if self.retry is not None else 1
        delay = 0.0
        for attempt in range(1, max_attempts + 1):
            if self._draw(stream, seq, attempt) >= p:
                return True, attempt - 1, delay
            if attempt < max_attempts:
                delay += self.retry.delay_after(attempt)
        return False, max_attempts - 1, delay

    # -- the per-message fault decisions ---------------------------------------
    def injection(self, src: int, dst: int, seq: int) -> tuple[bool, int, float]:
        """Transient send-failure loop for the send keyed *seq* (before injection)."""
        return self._attempt_loop(self.plan.send_failure, _STREAM_SENDFAIL, seq)

    def delivery(self, src: int, dst: int, seq: int) -> tuple[bool, int, float]:
        """Message-loss/retransmission loop for the send keyed *seq* (on the wire)."""
        return self._attempt_loop(self._loss_prob(src, dst), _STREAM_LOSS, seq)

    def duplicates(self, src: int, dst: int, seq: int) -> bool:
        """Is a spurious duplicate of the send keyed *seq* delivered too?"""
        p = self.plan.duplication
        return p > 0.0 and self._draw(_STREAM_DUP, seq, 1) < p

    def crash_times(self, nprocs: int) -> dict[int, float]:
        """rank -> crash time, validated against the world size."""
        for c in self.plan.crashes:
            if c.rank >= nprocs:
                raise ValueError(
                    f"fault plan crashes rank {c.rank} but the world has {nprocs} ranks"
                )
        return {c.rank: c.time for c in self.plan.crashes}

    def degradation_extra(self, net, nbytes: int, src: int, dst: int, when: float) -> float:
        """Extra transit seconds from degradation windows active at *when*."""
        extra = 0.0
        for d in self.plan.degradations:
            if d.applies(src, dst, when):
                extra += net.degradation_extra(nbytes, d.latency_factor, d.bandwidth_factor)
        return extra


# -- deadlock diagnosis ------------------------------------------------------------


@dataclass(frozen=True)
class WaitInfo:
    """One rank's entry in the wait-chain graph."""

    rank: int
    state: str  # "recv" | "send" | "isend" | "irecv" | "wait" | "collective" | "crashed"
    since: float  # virtual time the rank blocked (or crashed)
    detail: str  # human-readable description of what it waits for
    waiting_on: tuple[int, ...] = ()  # ranks this rank is blocked on (empty = any/unknown)


@dataclass(frozen=True)
class DeadlockReport:
    """The deadlock watchdog's diagnosis of a stalled simulation.

    Instead of a bare "deadlocked" error, the report carries the
    per-rank wait-chain graph: for every unfinished rank, what it is
    blocked in, since when, and on whom; plus the unmatched
    communication state (posted-but-unmatched receives, queued
    undelivered sends) and collective stragglers.  :meth:`cycles` finds
    circular waits; :meth:`format` renders the whole diagnosis.
    """

    nprocs: int
    blocked: tuple[WaitInfo, ...] = ()
    crashed: tuple[WaitInfo, ...] = ()
    #: (source, dest, tag, nbytes, send_time) of queued undelivered messages
    unmatched_sends: tuple[tuple[int, int, int, int, float], ...] = ()
    #: (rank, source, tag, post_time) of posted-but-unmatched receives
    unmatched_recvs: tuple[tuple[int, int, int, float], ...] = ()
    #: (op, root, members, arrived, missing) of incomplete collectives
    stragglers: tuple[tuple[str, int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...] = ()

    @property
    def blocked_ranks(self) -> tuple[int, ...]:
        return tuple(w.rank for w in self.blocked)

    @property
    def crashed_ranks(self) -> tuple[int, ...]:
        return tuple(w.rank for w in self.crashed)

    def wait_graph(self) -> dict[int, tuple[int, ...]]:
        """rank -> ranks it waits on (the wait-chain adjacency)."""
        return {w.rank: w.waiting_on for w in self.blocked}

    def cycles(self) -> list[tuple[int, ...]]:
        """Circular waits among blocked ranks (each reported once)."""
        graph = self.wait_graph()
        seen: set[int] = set()
        cycles: list[tuple[int, ...]] = []
        for start in graph:
            if start in seen:
                continue
            path: list[int] = []
            index: dict[int, int] = {}
            node: int | None = start
            while node is not None and node in graph and node not in seen and node not in index:
                index[node] = len(path)
                path.append(node)
                nxt = [r for r in graph.get(node, ()) if r in graph]
                # follow the first blocking edge; a dead end ends the walk
                node = nxt[0] if nxt else None
            if node is not None and node in index:
                cycles.append(tuple(path[index[node]:]))
            seen.update(path)
        return cycles

    def summary(self) -> str:
        """One-line digest (the head of the raised error message)."""
        parts = [
            f"rank {w.rank} blocked in {w.state} at t={w.since:.6g}" for w in self.blocked
        ]
        head = f"simulation deadlocked: {', '.join(parts)}" if parts else "simulation deadlocked"
        if self.crashed:
            head += f" (crashed ranks: {', '.join(str(r) for r in self.crashed_ranks)})"
        return head

    def format(self) -> str:
        """Multi-line wait-chain diagnosis."""
        lines = [self.summary()]
        if self.crashed:
            lines.append("crashed ranks:")
            for w in self.crashed:
                lines.append(f"  rank {w.rank}: crashed at t={w.since:.6g}")
        if self.blocked:
            lines.append("wait chains:")
            for w in self.blocked:
                on = (
                    " <- waiting on rank(s) " + ", ".join(str(r) for r in w.waiting_on)
                    if w.waiting_on
                    else ""
                )
                lines.append(f"  rank {w.rank}: {w.detail}{on}")
        for cyc in self.cycles():
            chain = " -> ".join(str(r) for r in cyc + (cyc[0],))
            lines.append(f"circular wait: {chain}")
        crashed = set(self.crashed_ranks)
        for w in self.blocked:
            hit = sorted(set(w.waiting_on) & crashed)
            if hit:
                lines.append(
                    f"rank {w.rank} waits on crashed rank(s) {', '.join(str(r) for r in hit)}"
                )
        if self.unmatched_sends:
            lines.append("undelivered sends:")
            for src, dst, tag, nbytes, ts in self.unmatched_sends:
                lines.append(
                    f"  {src} -> {dst} tag={tag} nbytes={nbytes} sent at t={ts:.6g}"
                )
        if self.unmatched_recvs:
            lines.append("unmatched receives:")
            for rank, src, tag, ts in self.unmatched_recvs:
                who = "ANY" if src < 0 else str(src)
                lines.append(
                    f"  rank {rank} <- source={who} tag={'ANY' if tag < 0 else tag} "
                    f"posted at t={ts:.6g}"
                )
        if self.stragglers:
            lines.append("collective stragglers:")
            for op, root, members, arrived, missing in self.stragglers:
                lines.append(
                    f"  {op}(root={root}) over {len(members)} ranks: "
                    f"arrived {list(arrived)}, missing {list(missing)}"
                )
        return "\n".join(lines)


def diagnose_deadlock(nprocs, blocked, sends, recvs, colls, crashed=()) -> DeadlockReport:
    """Diagnose a drained-but-blocked simulation: who waits on whom.

    The event loop feeds its leftover state in this shape:

    * *blocked*: ``(rank, state, clock, wait_time, pending_handles)`` per
      unfinished live rank, in rank order;
    * *sends*: ``(source, dest, tag, nbytes, send_time, sender_handle)``
      per queued message, by destination then queue order;
    * *recvs*: ``(rank, source, tag, post_time, handle)`` per posted
      receive, by rank then queue order;
    * *colls*: ``(members, op, root, arrivals)`` per incomplete
      collective, *arrivals* mapping rank to ``(arrival_time, data)``;
    * *crashed*: ``(rank, crash_time)`` per crashed rank.
    """
    sends_by_src: dict[int, list] = {}
    for s in sends:
        sends_by_src.setdefault(s[0], []).append(s)
    recvs_by_rank: dict[int, list] = {}
    for r in recvs:
        recvs_by_rank.setdefault(r[0], []).append(r)
    stragglers = []
    coll_waits: dict[int, tuple] = {}
    for members, op, root, arrivals in colls:
        arrived = tuple(sorted(arrivals))
        missing = tuple(r for r in members if r not in arrivals)
        stragglers.append((op, root, tuple(members), arrived, missing))
        for r in arrived:
            coll_waits[r] = (op, arrivals[r][0], missing)
    infos = []
    for rank, state, clock, wait_time, pending in blocked:
        since = clock
        detail = f"blocked in {state}"
        waiting_on: tuple[int, ...] = ()
        if state == "recv":
            mine = [r for r in recvs_by_rank.get(rank, ()) if r[4] is None]
            if mine:
                _, source, tag, since, _ = mine[0]
                who = "ANY_SOURCE" if source < 0 else str(source)
                tag = "ANY_TAG" if tag < 0 else str(tag)
                detail = f"recv(source={who}, tag={tag}) posted at t={since:.6g}"
                if source >= 0:
                    waiting_on = (source,)
        elif state == "send":
            mine = [s for s in sends_by_src.get(rank, ()) if s[5] is None]
            if mine:
                _, dest, tag, nbytes, since, _ = mine[0]
                detail = (
                    f"send(dest={dest}, tag={tag}, nbytes={nbytes}) awaiting a "
                    f"matching recv since t={since:.6g}"
                )
                waiting_on = (dest,)
        elif state == "wait":
            parts: list[str] = []
            on: set[int] = set()
            for _, source, _, _, handle in recvs_by_rank.get(rank, ()):
                if handle in pending:
                    parts.append(f"irecv(source={'ANY_SOURCE' if source < 0 else source})")
                    if source >= 0:
                        on.add(source)
            for s in sends_by_src.get(rank, ()):
                if s[5] in pending:
                    parts.append(f"isend(dest={s[1]})")
                    on.add(s[1])
            since = wait_time
            what = ", ".join(parts) if parts else f"{len(pending)} pending handle(s)"
            detail = f"wait on {what} since t={wait_time:.6g}"
            waiting_on = tuple(sorted(on))
        elif state == "collective" and rank in coll_waits:
            op, since, waiting_on = coll_waits[rank]
            detail = (
                f"collective {op!r} entered at t={since:.6g}, "
                f"missing ranks {list(waiting_on)}"
            )
        infos.append(WaitInfo(rank=rank, state=state, since=since, detail=detail,
                              waiting_on=waiting_on))
    return DeadlockReport(
        nprocs=nprocs,
        blocked=tuple(infos),
        crashed=tuple(
            WaitInfo(rank=rank, state="crashed", since=t, detail=f"crashed at t={t:.6g}")
            for rank, t in crashed
        ),
        unmatched_sends=tuple(s[:5] for s in sends),
        unmatched_recvs=tuple(r[:4] for r in recvs),
        stragglers=tuple(stragglers),
    )
