"""Supervised execution runtime: heartbeats, hang kills, poison quarantine.

The one process pool behind ``--jobs N``: campaign grid cells,
``repro validate`` sweep points and ``repro serve`` cache-miss batches
all fan out here (through
:meth:`~repro.workflow.campaign.CampaignRunner.run_cells`).  A bare
process pool has three failure modes that each take down a whole
campaign: a worker that *dies* breaks the pool, a worker that *wedges*
is only caught by the coarse wall budget (or never), and a *poison*
spec — one whose run reliably kills or hangs its worker — turns every
retry into another casualty.  This module runs an explicitly supervised
pool of :class:`multiprocessing.Process` workers connected by pipes,
and turns each failure mode into a journaled, bounded, recoverable
event:

* **Heartbeats.**  Every worker arms the kernel's
  :data:`~repro.sim.heartbeat.HEARTBEAT` emitter per run; the event
  loop streams small progress cursors (event count, virtual time, a
  flight-ring tail) down the worker's pipe.  Cost rides the same
  zero-cost dispatch switch as TRACER/FLIGHT — disabled kernels never
  see it, enabled ones pay two compares per event.
* **Hang detection.**  A busy worker whose cursor goes stale past the
  heartbeat deadline is SIGKILLed and its run journaled as ``hung`` —
  with the last cursor and synthesized flight tail attached — instead
  of waiting out the wall budget.  The cell is retried (it may have
  been unlucky) until the poison threshold says otherwise.
* **Poison quarantine.**  A spec that crashes or hangs its worker
  ``poison_threshold`` times is journaled as ``poison`` — terminal on
  resume — and a quarantine artifact is written with the flight dump
  and, when the program survives a pickle round-trip, a **minimized
  reproducer** produced by handing the program to
  :func:`repro.gen.minimize.minimize_program` with a fresh-subprocess
  crash/hang probe as the predicate; the probe replays the cell's own
  ``run_one`` on each candidate.  The rest of the campaign completes.
* **Bounded retry + graceful degradation.**  A worker death re-enqueues
  the in-flight cell (journaling an intermediate ``error`` record that
  names it) and respawns the worker with exponential backoff.  Pool
  breakage *not* attributable to a cell — spawn failures, idle worker
  deaths — is bounded separately; past the limit the supervisor stops
  using processes entirely and runs the remaining cells in-process,
  sequentially, with byte-identical outputs (same specs, same seeds,
  spec-order artifacts).

Attribution is the load-bearing rule: deaths *while running a cell*
strike that cell (→ quarantine), deaths while idle strike the pool
(→ degrade).  Cells with strikes are never run in-process after
degradation — a poison cell would take the parent down — they are
quarantined instead.

Determinism is the contract (docs/robustness.md): workers rebuild
programs and calibrations from the picklable config, every run is
seeded by its spec rather than by execution order, and the parent
derives every artifact in spec order, so ``--jobs N`` output is
byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path

from ..obs.logging import get_logger
from ..sim.heartbeat import HEARTBEAT
from ..util.atomic_io import atomic_write
from ..api import RunRequest
from .campaign import CampaignConfig, RunRecord

__all__ = ["resolve_jobs", "run_supervised", "minimize_poison"]

_log = get_logger("workflow.supervisor")

#: quarantine artifact schema version
QUARANTINE_FORMAT = 1

#: heartbeat emission throttles armed in workers (module constants so
#: tests can tighten them; forked workers inherit the patched values)
HB_INTERVAL_EVENTS = 2048
HB_MIN_INTERVAL_S = 0.25

#: consecutive non-cell-attributable pool failures before degradation
POOL_RETRIES = 3

#: base seconds of the exponential respawn backoff
RESPAWN_BACKOFF = 0.1

#: predicate-call bound handed to the delta-debugger per poison spec
MINIMIZE_CHECKS = 12

#: seconds a reproducer probe may go without a heartbeat before "hang"
#: (twice that before its first beat, as a campaign worker gets)
PROBE_TIMEOUT = 5.0


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


# -- worker side ---------------------------------------------------------------


def _quiet_worker() -> None:
    """Common worker setup: leave interrupts to the parent, and do not
    accumulate observability state nobody will ever collect."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    from ..obs.metrics import METRICS
    from ..obs.spans import TRACER

    TRACER.disable()
    METRICS.disable()


def _worker_main(conn, config: CampaignConfig, resolver, sleep, telemetry,
                 parent_ends=()) -> None:
    """One supervised worker: receive cells, stream heartbeats, ship records.

    SIGINT is masked (the parent owns interruption) and observability
    is quiet.  The runner — and with it the expensive calibration/compile
    state — is built once and reused across cells.  A forked worker
    first closes its copies of the parent's pipe ends (*parent_ends*):
    once the parent's own copies go, with the parent, its pipe reads EOF
    and its sends fail, and the worker exits.
    """
    from .campaign import CampaignRunner

    for end in parent_ends:
        end.close()
    _quiet_worker()
    runner = CampaignRunner(config, out_dir=os.devnull, resolver=resolver,
                            sleep=sleep, telemetry=telemetry)
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, index, spec = msg
            rec = _execute_cell(runner, conn, spec, index, config)
            rec.detail = None  # the parent gets the record, not the simulation
            conn.send(("done", index, rec))
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass  # the parent died or killed us; nothing to clean up
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already gone
            pass


def _execute_cell(runner, conn, spec: RunRequest, index: int,
                  config: CampaignConfig) -> RunRecord:
    """Run one cell with heartbeats armed.

    A separate hook (rather than inline in the worker loop) so tests
    can monkeypatch wedged / crashing cells into forked workers.
    """
    if config.heartbeat_timeout is not None:
        run_id = spec.run_id

        def sink(cursor, _conn=conn, _rid=run_id):
            try:
                _conn.send(("hb", _rid, cursor))
            except OSError:  # the parent is gone: nobody reads this cell
                os._exit(1)

        HEARTBEAT.configure(
            sink, interval_events=HB_INTERVAL_EVENTS,
            min_interval_s=HB_MIN_INTERVAL_S, run_id=run_id,
        )
        HEARTBEAT.enable()
    try:
        return runner.run_one(spec, index)
    finally:
        HEARTBEAT.disable()


# -- parent side ---------------------------------------------------------------


@dataclass
class _Worker:
    proc: multiprocessing.Process
    conn: object
    busy: tuple[int, RunRequest] | None = None
    last_beat: float = 0.0
    had_beat: bool = False
    cursor: dict | None = None


def _cursor_summary(cursor: dict | None, staleness: float | None = None) -> dict | None:
    """Distill a heartbeat cursor for a journal record (drop the tail)."""
    doc = {}
    if cursor is not None:
        doc = {
            "events": cursor.get("events"),
            "virtual_time": cursor.get("virtual_time"),
            "wall_seconds": cursor.get("wall_seconds"),
        }
    if staleness is not None:
        doc["staleness_s"] = round(staleness, 3)
    return doc or None


def _flight_from_cursor(cursor: dict | None, error: str) -> dict | None:
    """Synthesize a flight-dump-shaped dict from a cursor's flight tail.

    The worker is dead; its in-memory ring died with it.  The last
    heartbeat carried a bounded tail of that ring, which is exactly the
    "what led up to it" a post-mortem needs.
    """
    if cursor is None:
        return None
    tail = cursor.get("flight_tail") or []
    return {
        "format": 1,
        "capacity": len(tail),
        "events_seen": cursor.get("events", 0),
        "events_dropped": max(0, cursor.get("events", 0) - len(tail)),
        "events": tail,
        "error": error,
        "meta": {"source": "heartbeat", "run_id": cursor.get("run_id")},
    }


def run_supervised(config: CampaignConfig, pending, jobs: int, on_record,
                   *, resolver=None, sleep=None, telemetry: bool = False,
                   quarantine_dir: Path | None = None,
                   inline_run=None) -> int:
    """Fan *pending* ``(index, spec)`` cells across a supervised pool.

    ``on_record(spec, record)`` is called in completion order for every
    journaled record — terminal outcomes *and* the intermediate
    ``hung`` / ``error`` strike records whose cells are then retried
    (the journal's last-record-wins rule makes the final outcome
    authoritative).  Returns the number of cells driven to a terminal
    record this invocation.  *inline_run* — ``inline_run(spec, index)
    -> RunRecord`` — executes a cell in-process after degradation.
    """
    sleep = sleep if sleep is not None else time.sleep
    ctx = multiprocessing.get_context()
    queue: deque[tuple[int, RunRequest]] = deque(pending)
    workers: list[_Worker] = []
    strikes: dict[str, tuple[int, str]] = {}  # run_id -> (count, last failure)
    executed = 0
    pool_strikes = 0
    degraded = False
    timeout = config.heartbeat_timeout
    # before the first beat a worker may be compiling/calibrating, which
    # legitimately takes longer than steady-state beat spacing
    grace = timeout * 2 if timeout is not None else None

    def quarantine(spec: RunRequest, index: int, count: int, desc: str,
                   flight: dict | None, cursor: dict | None) -> None:
        nonlocal executed
        error = f"quarantined after {count} worker strike(s); last: {desc}"
        _log.warning("run %s poisoned: %s", spec.describe(), error)
        on_record(spec, RunRecord(
            run_id=spec.run_id, index=index, outcome="poison",
            attempts=count, error=error, flight=flight, cursor=cursor,
        ))
        executed += 1
        if quarantine_dir is not None:
            try:
                _write_quarantine(
                    quarantine_dir, config, spec, count, desc, flight,
                    cursor, resolver,
                )
            except Exception as exc:  # never let forensics kill the campaign
                _log.warning(
                    "could not write quarantine artifact for %s: %s",
                    spec.run_id, exc,
                )

    def strike(item: tuple[int, RunRequest], desc: str, outcome: str,
               flight: dict | None, cursor: dict | None) -> int:
        """Journal a strike record; re-enqueue or quarantine the cell."""
        index, spec = item
        count = strikes.get(spec.run_id, (0, ""))[0] + 1
        strikes[spec.run_id] = (count, desc)
        on_record(spec, RunRecord(
            run_id=spec.run_id, index=index, outcome=outcome,
            attempts=count, error=desc, flight=flight, cursor=cursor,
        ))
        if count >= config.poison_threshold:
            quarantine(spec, index, count, desc, flight, cursor)
        else:
            _log.warning(
                "run %s %s (strike %d/%d); re-enqueueing",
                spec.describe(), outcome, count, config.poison_threshold,
            )
            queue.append((index, spec))
        return count

    def retire(w: _Worker, kill: bool = False) -> None:
        workers.remove(w)
        if kill and w.proc.is_alive():
            w.proc.kill()
        try:
            w.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        w.proc.join(timeout=5)

    def on_death(w: _Worker) -> None:
        """A worker process died (EOF on its pipe / dead on assignment)."""
        nonlocal pool_strikes, degraded
        item, cursor = w.busy, w.cursor
        retire(w, kill=True)  # joins, so the exitcode below is real
        exitcode = w.proc.exitcode
        if item is None:
            # idle deaths are pool breakage, not a cell's fault
            pool_strikes += 1
            _log.warning(
                "idle campaign worker died (exit %s; pool strike %d/%d)",
                exitcode, pool_strikes, POOL_RETRIES,
            )
            if pool_strikes >= POOL_RETRIES:
                degraded = True
            else:
                sleep(RESPAWN_BACKOFF * 2 ** (pool_strikes - 1))
            return
        _, spec = item
        desc = (
            f"worker process died (exit {exitcode}) while running "
            f"run {spec.run_id}"
        )
        count = strike(item, desc, "error",
                       _flight_from_cursor(cursor, desc),
                       _cursor_summary(cursor))
        sleep(RESPAWN_BACKOFF * 2 ** (count - 1))

    def on_hang(w: _Worker, stale: float, deadline: float) -> None:
        """A busy worker's heartbeats went stale: kill + classify hung."""
        item, cursor = w.busy, w.cursor
        pid = w.proc.pid
        retire(w, kill=True)
        _, spec = item
        desc = (
            f"no heartbeat for {stale:.1f}s (deadline {deadline:g}s); "
            f"killed worker pid {pid}"
        )
        strike(item, desc, "hung",
               _flight_from_cursor(cursor, desc),
               _cursor_summary(cursor, staleness=stale))

    def spawn() -> bool:
        nonlocal pool_strikes, degraded
        try:
            parent_conn, child_conn = ctx.Pipe()
            # a forked child inherits the parent's end of its own pipe and
            # of every earlier worker's; it closes them on start
            parent_ends = [parent_conn] + [w.conn for w in workers]
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, config, resolver, sleep, telemetry, parent_ends),
                daemon=True,
            )
            proc.start()
            child_conn.close()
        except OSError as exc:
            pool_strikes += 1
            _log.warning(
                "cannot spawn campaign worker (%s; pool strike %d/%d)",
                exc, pool_strikes, POOL_RETRIES,
            )
            if pool_strikes >= POOL_RETRIES:
                degraded = True
            else:
                sleep(RESPAWN_BACKOFF * 2 ** (pool_strikes - 1))
            return False
        workers.append(_Worker(proc=proc, conn=parent_conn,
                               last_beat=time.monotonic()))
        return True

    try:
        while queue or any(w.busy is not None for w in workers):
            if degraded:
                break
            # keep the pool at strength (bounded by outstanding work)
            busy_n = sum(1 for w in workers if w.busy is not None)
            want = min(jobs, len(queue) + busy_n)
            while len(workers) < want and not degraded:
                if not spawn():
                    break
            # hand cells to idle workers
            for w in list(workers):
                if w.busy is not None or not queue:
                    continue
                item = queue.popleft()
                try:
                    w.conn.send(("run",) + item)
                except (BrokenPipeError, OSError):
                    queue.appendleft(item)
                    on_death(w)
                    continue
                w.busy = item
                w.last_beat = time.monotonic()
                w.had_beat = False
                w.cursor = None
            if not workers:
                continue  # spawn failed; retry or degrade next pass
            # drain messages: heartbeats refresh cursors, dones journal
            poll = 0.05 if timeout is None else min(0.05, timeout / 4)
            by_conn = {w.conn: w for w in workers}
            for conn in _conn_wait(list(by_conn), timeout=poll):
                w = by_conn[conn]
                try:
                    while True:
                        msg = w.conn.recv()
                        if msg[0] == "hb":
                            w.last_beat = time.monotonic()
                            w.had_beat = True
                            w.cursor = msg[2]
                        elif msg[0] == "done":
                            _, index, rec = msg
                            _, spec = w.busy
                            w.busy = None
                            strikes.pop(spec.run_id, None)
                            on_record(spec, rec)
                            executed += 1
                            pool_strikes = 0
                        if not w.conn.poll():
                            break
                except (EOFError, OSError):
                    on_death(w)
            # stale-heartbeat sweep
            if timeout is not None:
                now = time.monotonic()
                for w in list(workers):
                    if w.busy is None:
                        continue
                    deadline = timeout if w.had_beat else grace
                    if now - w.last_beat > deadline:
                        on_hang(w, now - w.last_beat, deadline)
        if degraded:
            # reclaim cells still in flight on surviving workers — they
            # did nothing wrong and re-run in-process below
            for w in list(workers):
                if w.busy is not None:
                    queue.appendleft(w.busy)
                retire(w, kill=True)
        if queue:
            # degraded: no more worker processes.  Run clean cells
            # in-process (byte-identical outputs: same specs, same
            # seeds, artifacts derived in spec order); quarantine cells
            # that already struck a worker — re-running one of those in
            # the parent could take the campaign down with it.
            _log.warning(
                "supervised pool degraded after %d pool strike(s); running "
                "%d remaining cell(s) in-process",
                pool_strikes, len(queue),
            )
            while queue:
                index, spec = queue.popleft()
                prior = strikes.get(spec.run_id)
                if prior is not None:
                    count, desc = prior
                    quarantine(
                        spec, index, count,
                        f"pool degraded while cell had {count} strike(s); "
                        f"last: {desc}", None, None,
                    )
                    continue
                rec = inline_run(spec, index)
                on_record(spec, rec)
                executed += 1
        return executed
    finally:
        for w in list(workers):
            try:
                w.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for w in workers:
            w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=5)
            try:
                w.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


# -- poison forensics ----------------------------------------------------------


def _probe_main(payload: bytes, conn) -> None:
    """Reproducer probe child: replay the cell on the candidate; die only
    if *it* kills us.

    The candidate runs through :meth:`CampaignRunner.run_one` on the
    campaign's own config — the cell's calibration, fault plan, timeout,
    budgets and backend — with no retry sleeps, and beats down *conn*
    as a campaign worker does.  Simulator-level failures (deadlock,
    validation errors) are campaign outcomes, not poison — they exit 0
    here.  The failures this probe exists for — hard process death, a
    wedge — either bypass ``except`` entirely or stop the beats.
    """
    _quiet_worker()
    try:
        from .campaign import CampaignRunner

        config, spec, candidate, resolver = pickle.loads(payload)
        _, default_inputs = resolver(spec.app)
        runner = CampaignRunner(
            config, out_dir=os.devnull,
            resolver=lambda app: (candidate, default_inputs),
            sleep=lambda seconds: None,
        )
        HEARTBEAT.configure(
            lambda cursor: conn.send_bytes(b""), interval_events=HB_INTERVAL_EVENTS,
            min_interval_s=HB_MIN_INTERVAL_S, run_id=spec.run_id,
        )
        HEARTBEAT.enable()
        runner.run_one(spec)
    except BaseException:
        pass
    os._exit(0)


def _subprocess_probe(config: CampaignConfig, spec: RunRequest, candidate,
                      resolver, timeout: float) -> bool:
    """Does *candidate* still crash or hang a fresh process?

    A hang is judged as :func:`run_supervised` judges a worker's: no
    heartbeat for *timeout* seconds (twice that before the first beat).
    A probe that keeps beating is slow, not hung, and runs to its end.
    """
    payload = pickle.dumps((config, spec, candidate, resolver))
    ctx = multiprocessing.get_context()
    beats, child_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_probe_main, args=(payload, child_end), daemon=True)
    proc.start()
    child_end.close()
    try:
        deadline = timeout * 2
        while beats.poll(deadline):
            try:
                beats.recv_bytes()
            except EOFError:  # the probe exited
                break
            deadline = timeout
        else:
            proc.kill()
            proc.join(timeout=5)
            return True  # the hang reproduces
    finally:
        beats.close()
    proc.join()
    return proc.exitcode != 0  # the crash reproduces


def minimize_poison(spec: RunRequest, config: CampaignConfig, resolver, *,
                    max_checks: int | None = None,
                    probe_timeout: float | None = None,
                    probe=None) -> dict:
    """Try to shrink a poison spec's program to a minimal reproducer.

    Each candidate replays *spec*'s run of the campaign *config* in a
    fresh subprocess (:func:`_probe_main`).  Returns a JSON-safe summary
    dict; ``minimized`` is only true when the delta-debugger confirmed
    the failure in a fresh subprocess and shrank the program.  Every
    bail-out path records *why* in ``note`` — a quarantine artifact must
    never silently pretend it tried.  *probe* overrides the subprocess
    crash/hang predicate (tests).
    """
    from ..gen.minimize import minimize_program

    max_checks = MINIMIZE_CHECKS if max_checks is None else max_checks
    probe_timeout = PROBE_TIMEOUT if probe_timeout is None else probe_timeout
    info: dict = {"minimized": False}
    try:
        program, _ = resolver(spec.app)
    except Exception as exc:
        info["note"] = f"resolver failed: {type(exc).__name__}: {exc}"
        return info
    if probe is None:
        try:
            pickle.dumps((config, program, resolver))
        except Exception:
            info["note"] = "program or resolver is not picklable; minimization skipped"
            return info

        def probe(candidate):
            return _subprocess_probe(config, spec, candidate, resolver, probe_timeout)

    try:
        result = minimize_program(program, probe, max_checks=max_checks)
    except ValueError as exc:
        info["note"] = f"minimization declined: {exc}"
        return info
    from ..ir.printer import format_program

    info.update(
        minimized=True,
        original_stmts=result.original_stmts,
        final_stmts=result.final_stmts,
        reduction=result.reduction,
        checks=result.checks,
        program=format_program(result.program),
    )
    return info


def _write_quarantine(quarantine_dir: Path, config: CampaignConfig,
                      spec: RunRequest, count: int, desc: str,
                      flight: dict | None, cursor: dict | None,
                      resolver) -> None:
    """Write ``quarantine/<run_id>.json``: spec, forensics, reproducer."""
    from ..apps import resolve_app

    quarantine_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": QUARANTINE_FORMAT,
        "run_id": spec.run_id,
        "spec": spec._identity(),
        "machine": config.request.machine,
        "strikes": count,
        "error": desc,
        "cursor": cursor,
        "flight": flight,
        "reproducer": minimize_poison(
            spec, config, resolver if resolver is not None else resolve_app,
        ),
    }
    path = quarantine_dir / f"{spec.run_id}.json"
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _log.info("quarantine artifact written to %s", path)
