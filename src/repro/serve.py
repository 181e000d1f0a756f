"""Simulation-as-a-service: a threaded HTTP/JSON front end on the store.

The paper's workflow is interactive at heart — Sec. 5 sweeps
configurations and asks *what-if* questions against the compiled
model, and the answer to any given question never changes: the engine
is deterministic under a fixed seed, so a run is a pure function of
``(request, execution context)``.  This module turns that purity into
a service: a long-lived process that answers campaign grids and
single what-if queries, deduplicating every run against the
content-addressed :class:`repro.store.ResultStore` so each distinct
question is simulated exactly once, ever.

Stdlib only, by design: the server is ``max_inflight + 1`` threads
that each block in ``accept()`` on one listening socket and serve the
connection they get from start to finish, with a hand-rolled HTTP/1.1
request parser (``Content-Length`` bodies, ``Connection: close``); the
client is ``http.client``.  No new dependencies.

Endpoints (all JSON, documents from :mod:`repro.api`):

``GET /healthz``
    liveness: ``{"status": "ok"}``.
``GET /v1/stats``
    store statistics (entries, bytes, hit/miss/eviction counters) and
    server counters (requests, in-flight, rejected).
``GET /v1/result/<ctx_hash>/<run_id>``
    one cached :class:`~repro.api.RunResult`, or 404.
``POST /v1/run``
    one what-if query: a ``run_request`` document, optionally wrapped
    as ``{"run": {...}, "machine": ..., "calib_procs": ...,
    "max_events": ..., ...}`` to pin the execution context.  Returns
    ``{"result": <run_result>, "cached": bool, "context": <hash>}``.
``POST /v1/campaign``
    a full campaign: either a typed ``campaign_request`` document
    (has ``"runs"``) or a declarative grid dict exactly as ``repro
    campaign`` accepts (``apps`` × ``modes`` × ``nprocs`` × ...).
    Cache hits are answered from the store; misses run as one batch of
    cells (:meth:`~repro.workflow.campaign.CampaignRunner.run_cells`,
    ``--jobs`` fan-out on the supervised pool) and are stored as they
    complete.  The store is their durable record: no campaign journal
    or work directory is written.  Returns a
    :class:`~repro.api.CampaignResult`.

Admission control (:class:`TenantGovernor`) applies the budget-
watchdog idea at the front door: each tenant (``X-Tenant`` header) has
an in-flight cap and an events-per-second token bucket; a request over
either quota is rejected with 429 and a precise ``Retry-After``.
Event charges are post-paid — the currency is the same
``total_events`` the :class:`~repro.sim.budget.BudgetGuard` meters.

Results cached: only deterministic terminal outcomes (``ok``,
``deadlock``, ``budget``).  Wall-clock and environment-dependent
failures (``timeout``, ``error``, ``hung``, ``poison``) are returned
but never stored — re-asking re-runs them.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import shutil  # noqa: F401 - benchmarks/e2e/tracing.py looks up repro.serve.shutil.rmtree
import signal
import socket
import threading
import time
import urllib.parse
from dataclasses import replace
from pathlib import Path

from .api import (
    ApiError,
    CampaignRequest,
    CampaignResult,
    RunRequest,
    RunResult,
    canonical_json,
)
from .obs.logging import get_logger
from .store import ResultStore
from .workflow.campaign import (
    CampaignConfig,
    CampaignRunner,
    expand_grid,
    warn_unless_ok,
)
from .workflow.supervisor import resolve_jobs

__all__ = [
    "TenantGovernor",
    "SimulationService",
    "ReproServer",
    "ServiceClient",
    "run_server",
    "CACHEABLE_OUTCOMES",
]

_log = get_logger("serve")

#: outcomes deterministic under a fixed seed — the only ones stored
CACHEABLE_OUTCOMES = ("ok", "deadlock", "budget")

_MAX_BODY = 8 * 1024 * 1024  # 8 MiB request-body cap
_MAX_HEADER = 64 * 1024

#: seconds an accepted connection has to deliver its whole request, and
#: then to take its reply, so an idle client cannot hold a thread; tests
#: shrink it
READ_DEADLINE_S = 30.0


# -- admission control ---------------------------------------------------------


class TenantGovernor:
    """Per-tenant admission control: in-flight cap + event-rate bucket.

    The token bucket is denominated in simulator events (the unit the
    per-run :class:`~repro.sim.budget.BudgetGuard` meters) and charged
    *post-paid*: a request is admitted whenever the bucket is
    non-negative, and the events it actually cost are deducted when it
    finishes.  A tenant that just burned a huge campaign therefore
    drives its bucket deep below zero and is refused — with a
    ``retry_after`` telling it exactly when the refill clears the
    debt — until the bucket recovers.  Thread-safe; *clock* is
    injectable for tests.
    """

    def __init__(self, max_inflight: int = 4,
                 events_per_second: float | None = None,
                 burst_seconds: float = 10.0,
                 clock=time.monotonic):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if events_per_second is not None and events_per_second <= 0:
            raise ValueError(
                f"events_per_second must be positive, got {events_per_second}")
        self.max_inflight = max_inflight
        self.rate = events_per_second
        self.burst = (events_per_second or 0) * burst_seconds
        self.clock = clock
        self._lock = threading.Lock()
        self._inflight: dict[str, int] = {}
        self._tokens: dict[str, float] = {}
        self._stamp: dict[str, float] = {}
        self.rejected = 0

    def _refill(self, tenant: str) -> float:
        now = self.clock()
        tokens = self._tokens.get(tenant, self.burst)
        last = self._stamp.get(tenant, now)
        tokens = min(self.burst, tokens + (now - last) * (self.rate or 0))
        self._tokens[tenant] = tokens
        self._stamp[tenant] = now
        return tokens

    def admit(self, tenant: str) -> None:
        """Admit one request or raise ``ApiError`` (429, retry_after)."""
        with self._lock:
            inflight = self._inflight.get(tenant, 0)
            if inflight >= self.max_inflight:
                self.rejected += 1
                raise ApiError(
                    "quota_inflight",
                    f"tenant {tenant!r} already has {inflight} requests in "
                    f"flight (cap {self.max_inflight})",
                    http_status=429, retry_after=1.0,
                )
            if self.rate is not None:
                tokens = self._refill(tenant)
                if tokens < 0:
                    self.rejected += 1
                    wait = -tokens / self.rate
                    raise ApiError(
                        "quota_events",
                        f"tenant {tenant!r} is {-tokens:.0f} events over its "
                        f"{self.rate:g}/s budget",
                        http_status=429, retry_after=round(wait, 3),
                    )
            self._inflight[tenant] = inflight + 1

    def charge(self, tenant: str, events: int) -> None:
        """Post-paid deduction of the events a request actually cost."""
        if self.rate is None or events <= 0:
            return
        with self._lock:
            self._refill(tenant)
            self._tokens[tenant] -= events

    def release(self, tenant: str) -> None:
        with self._lock:
            count = self._inflight.get(tenant, 1) - 1
            if count <= 0:
                self._inflight.pop(tenant, None)
            else:
                self._inflight[tenant] = count


# -- the service core ----------------------------------------------------------


class SimulationService:
    """Store-backed execution of API requests (transport-agnostic).

    One instance is shared by every connection; batch execution is
    serialized by a lock (the batch itself fans out across *jobs*
    worker processes), while cache hits are answered concurrently.
    """

    def __init__(self, store: ResultStore, *, jobs: int = 1,
                 governor: TenantGovernor | None = None,
                 resolver=None, backend: str | None = None):
        self.store = store
        self.jobs = jobs
        self.governor = governor
        self.resolver = resolver
        # execution policy, not identity: backend never feeds the
        # context hash — stored results are byte-identical either way
        self.backend = backend
        self._exec_lock = threading.Lock()
        self.requests = 0
        self.executed_runs = 0
        self.executed_events = 0

    # -- request handling (called on the accept threads) ---------------------
    def handle_run(self, doc: dict) -> dict:
        """Serve one what-if query; returns the response document."""
        if not isinstance(doc, dict):
            raise ApiError("bad_request", "request body must be a JSON object")
        if "run" in doc:
            run = RunRequest.from_json(doc["run"])
            context = {k: doc[k] for k in (
                "machine", "calib_procs", "max_events", "max_virtual_time",
                "max_wall_seconds", "retry_policy") if k in doc}
        else:
            run = RunRequest.from_json(doc)
            context = {}
        request = CampaignRequest.from_json({
            "kind": "campaign_request",
            "name": "adhoc",
            "machine": context.get("machine", "IBM-SP"),
            "calib_procs": context.get("calib_procs"),
            **{k: v for k, v in context.items()
               if k not in ("machine", "calib_procs")},
        }, runs=(run,))
        results, hits, executed_events = self._serve_runs(request)
        return {
            "result": results[0].to_json(),
            "cached": hits == 1,
            "context": request.context_hash(),
            "executed_events": executed_events,
        }

    def handle_campaign(self, doc: dict) -> dict:
        """Serve a typed campaign request or a declarative grid."""
        if not isinstance(doc, dict):
            raise ApiError("bad_request", "request body must be a JSON object")
        if "runs" in doc:
            request = CampaignRequest.from_json(doc)
        else:  # a grid, exactly as `repro campaign` reads it
            from .workflow.campaign import CampaignError

            grid = dict(doc)
            grid.pop("schema_version", None)
            grid.pop("kind", None)
            grid.setdefault("name", "grid")
            try:
                request = expand_grid(grid).request
            except CampaignError as exc:
                raise ApiError("bad_request", str(exc)) from None
        return self.serve_campaign(request).to_json()

    # -- the dedupe-then-execute core ----------------------------------------
    def serve_campaign(self, request: CampaignRequest) -> CampaignResult:
        results, hits, executed_events = self._serve_runs(request)
        return CampaignResult(
            name=request.name,
            config_hash=request.content_hash(),
            hits=hits,
            misses=len(results) - hits,
            executed_events=executed_events,
            results=results,
        )

    def _serve_runs(self, request: CampaignRequest
                    ) -> tuple[tuple[RunResult, ...], int, int]:
        """(results in request order, hits, events executed for the misses)."""
        ctx = request.context_hash()
        results: dict[str, RunResult] = {}
        missing: list[RunRequest] = []
        for run in request.runs:
            doc = self.store.get(ctx, run.run_id)
            if doc is not None:
                results[run.run_id] = RunResult.from_json(doc)
            else:
                missing.append(run)
        hits = len(results)
        executed_events = 0
        if missing:
            executed_events = self._execute_batch(request, ctx, missing, results)
        return tuple(results[r.run_id] for r in request.runs), hits, executed_events

    def _execute_batch(self, request: CampaignRequest, ctx: str,
                       missing: list[RunRequest],
                       results: dict[str, RunResult]) -> int:
        """Run the cache-miss cells; store each cacheable result and calibration as it lands."""
        batch = CampaignConfig(
            replace(request, runs=tuple(missing)),
            calib_from_spec=True,  # purity: calibrate from each run's own spec
            calibrations={},
            backend=self.backend,
        )
        executed_events = 0

        def on_record(spec, rec):
            nonlocal executed_events
            warn_unless_ok(spec, rec)
            res = RunResult.from_record(rec)
            results[spec.run_id] = res
            executed_events += res.events
            if rec.outcome in CACHEABLE_OUTCOMES:
                self.store.put(ctx, spec.run_id, res.to_json(), rec.calibration)
            elif rec.calibration is not None:
                try:  # a warm start is an optimization, never fatal
                    self.store.put_calibration(*rec.calibration)
                except OSError as exc:
                    _log.warning("cannot store warm calibration %s: %s", rec.calibration[0], exc)

        with self._exec_lock:
            runner = CampaignRunner(batch, out_dir=os.devnull, resolver=self.resolver)
            for spec in missing:
                if spec.mode != "am":
                    continue  # only am runs calibrate
                try:
                    key = runner.calibration_key(spec)
                except Exception:  # an unknown app: the cell's own run reports it
                    continue
                doc = self.store.calibration(key)
                if doc is not None:
                    batch.calibrations[key] = doc
            runner.run_cells(list(enumerate(missing)), resolve_jobs(self.jobs),
                             on_record)
            self.executed_runs += len(missing)
            self.executed_events += executed_events
        _log.info(
            "batch %s: %d runs executed (%d events) under context %s",
            request.name, len(missing), executed_events, ctx,
        )
        return executed_events

    def stats(self) -> dict:
        doc = {
            "store": self.store.stats(),
            "server": {
                "requests": self.requests,
                "executed_runs": self.executed_runs,
                "executed_events": self.executed_events,
            },
        }
        if self.governor is not None:
            doc["server"]["rejected"] = self.governor.rejected
        return doc


# -- the HTTP server -----------------------------------------------------------


def _response(status: int, doc: dict, extra_headers: dict | None = None) -> bytes:
    body = (canonical_json(doc) + "\n").encode()
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              405: "Method Not Allowed", 413: "Payload Too Large",
              429: "Too Many Requests", 500: "Internal Server Error"}
    lines = [
        f"HTTP/1.1 {status} {reason.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for key, value in (extra_headers or {}).items():
        lines.append(f"{key}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _recv(conn: socket.socket, deadline: float) -> bytes:
    """One ``recv`` that must return before *deadline*; data or ``OSError``."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no request before the read deadline")
    conn.settimeout(remaining)
    chunk = conn.recv(65536)
    if not chunk:
        raise ConnectionError("client closed the connection mid-request")
    return chunk


def _read_request(conn: socket.socket):
    """Parse one HTTP/1.1 request from *conn*: (method, path, headers, body).

    The whole request must arrive within :data:`READ_DEADLINE_S` of the
    call; a slower client, or one that closes first, raises ``OSError``.
    """
    deadline = time.monotonic() + READ_DEADLINE_S
    data = b""
    while (end := data.find(b"\r\n\r\n")) < 0:
        if len(data) > _MAX_HEADER:
            raise ApiError("bad_request", "request header too large")
        data += _recv(conn, deadline)
    head = data[:end + 4]
    if len(head) > _MAX_HEADER:
        raise ApiError("bad_request", "request header too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise ApiError("bad_request", f"malformed request line {lines[0]!r}") from None
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise ApiError(
            "bad_request", f"invalid Content-Length {raw_length!r}") from None
    if length < 0:
        raise ApiError(
            "bad_request", f"invalid Content-Length {raw_length!r}")
    if length > _MAX_BODY:
        raise ApiError("payload_too_large", f"request body {length} bytes "
                       f"exceeds cap {_MAX_BODY}", http_status=413)
    body = bytearray(data[end + 4:])
    while len(body) < length:
        body += _recv(conn, deadline)
    return method.upper(), target, headers, bytes(body[:length])


class ReproServer:
    """The HTTP front end binding a :class:`SimulationService`.

    *threads* threads each block in ``accept()`` on one listening socket
    and carry a connection from request to reply on their own stack:
    read, dispatch, run the handler inline, write, close.  Connections
    beyond them wait in the listen backlog.
    """

    def __init__(self, service: SimulationService, host: str = "127.0.0.1",
                 port: int = 8642, threads: int = 5):
        self.service = service
        self.host = host
        self.port = port
        self.threads = threads
        self.stopping = threading.Event()
        self._listener: socket.socket | None = None
        self._pool: list[threading.Thread] = []
        self._count_lock = threading.Lock()

    def start(self) -> None:
        """Bind the first address *host* resolves to; start the threads."""
        family, _, _, _, address = socket.getaddrinfo(
            self.host, self.port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE)[0]
        self._listener = socket.create_server(address, family=family, backlog=100)
        self.port = self._listener.getsockname()[1]
        self._pool = [threading.Thread(target=self._accept_loop, daemon=True,
                                       name=f"repro-serve-{i}")
                      for i in range(self.threads)]
        for thread in self._pool:
            thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                if self.stopping.is_set():
                    return  # shutdown() shut the listening socket down
                time.sleep(0.01)  # out of descriptors, say: do not spin
                continue
            with conn:
                self._serve(conn)

    def _serve(self, conn: socket.socket) -> None:
        """Answer the one request on *conn*; nothing raised here ends the thread."""
        try:
            try:
                request = _read_request(conn)
            except ApiError as exc:
                reply = _response(exc.http_status, exc.to_json())
            else:
                reply = self._dispatch(*request)
            conn.settimeout(READ_DEADLINE_S)
            conn.sendall(reply)
        except OSError:  # the client left, or missed the deadline
            pass
        except Exception:  # noqa: BLE001 - the thread must outlive any request
            _log.exception("error serving a connection")

    def _dispatch(self, method: str, target: str, headers: dict,
                  body: bytes) -> bytes:
        with self._count_lock:  # every accept thread counts here
            self.service.requests += 1
        path = urllib.parse.urlsplit(target).path
        tenant = headers.get("x-tenant", "default")
        try:
            if method == "GET":
                return self._dispatch_get(path)
            if method != "POST":
                raise ApiError("method_not_allowed",
                               f"{method} not supported", http_status=405)
            if path == "/v1/run":
                handler = self.service.handle_run
            elif path == "/v1/campaign":
                handler = self.service.handle_campaign
            else:
                raise ApiError("not_found", f"no route {path!r}", http_status=404)
            try:
                doc = json.loads(body.decode() or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ApiError("bad_request",
                               f"request body is not valid JSON: {exc}") from None
            governor = self.service.governor
            if governor is not None:
                governor.admit(tenant)
            events = 0
            try:
                out = handler(doc)
                # post-paid charge from this request's own result — a
                # global-counter delta would bill concurrently admitted
                # tenants for each other's batches
                events = int(out.get("executed_events") or 0)
            finally:
                if governor is not None:
                    governor.charge(tenant, events)
                    governor.release(tenant)
            return _response(200, out)
        except ApiError as exc:
            extra = {}
            if exc.retry_after is not None:
                extra["Retry-After"] = f"{exc.retry_after:g}"
            return _response(exc.http_status, exc.to_json(), extra)
        except Exception as exc:  # noqa: BLE001 - the server must not die
            _log.exception("internal error serving %s %s", method, path)
            return _response(500, ApiError(
                "internal", f"{type(exc).__name__}: {exc}",
                http_status=500).to_json())

    def _dispatch_get(self, path: str) -> bytes:
        if path == "/healthz":
            return _response(200, {"status": "ok"})
        if path == "/v1/stats":
            return _response(200, self.service.stats())
        if path.startswith("/v1/result/"):
            parts = path[len("/v1/result/"):].split("/")
            if len(parts) != 2 or not all(parts):
                raise ApiError(
                    "bad_request",
                    "expected /v1/result/<context_hash>/<run_id>")
            doc = self.store_get(*parts)
            if doc is None:
                raise ApiError("not_found",
                               f"no stored result {parts[0]}/{parts[1]}",
                               http_status=404)
            return _response(200, doc)
        raise ApiError("not_found", f"no route {path!r}", http_status=404)

    def store_get(self, ctx: str, run_id: str) -> dict | None:
        return self.service.store.get(ctx, run_id)

    def wait(self) -> None:
        """Block until :attr:`stopping` is set.

        A helper thread waits on the event and this thread joins it: the
        SIGTERM handler sets the event on the main thread, so the main
        thread must never be inside the event's own lock when it fires.
        """
        waiter = threading.Thread(target=self.stopping.wait, daemon=True)
        waiter.start()
        waiter.join()

    def shutdown(self) -> None:
        """Stop accepting, let every thread finish its request, flush the store."""
        if not self.stopping.is_set():  # after wait(), never take its lock (see there)
            self.stopping.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes every accept()
        except OSError:
            pass
        for thread in self._pool:
            thread.join()
        self._listener.close()
        self.service.store.close()


@contextlib.contextmanager
def _stop_on_signals(stopping: threading.Event):
    """SIGTERM/SIGINT set *stopping* while inside (main thread only)."""
    previous = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, lambda *_: stopping.set())
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


#: ``mallopt`` parameter number of the arena cap (glibc's malloc.h)
_M_ARENA_MAX = -8


def _one_malloc_arena() -> None:
    """Cap glibc's malloc at one arena; a no-op where libc has no ``mallopt``.

    Each accept thread would otherwise allocate from an arena of its
    own, and misses spread over all of them.  Under the GIL the threads
    never allocate in parallel, so extra arenas only add resident memory
    (a cold miss lowers and compiles kernels, a transient of a few MB).
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def run_server(store_dir: str | Path, *, host: str = "127.0.0.1",
               port: int = 8642, jobs: int = 1, max_bytes: int | None = None,
               max_inflight: int = 4, events_per_second: float | None = None,
               resolver=None, ready=None, backend: str | None = None) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, then exit 0.

    The server runs ``max_inflight + 1`` accept threads, so a tenant's
    first request over its in-flight cap still finds a thread to refuse
    it.  Raises :class:`repro.store.StoreInUseError` when another open
    store holds *store_dir*.  *ready*, when given, is called with the
    started :class:`ReproServer` once the socket is bound (tests use it
    to learn an ephemeral port).
    """
    store = ResultStore(store_dir, max_bytes=max_bytes)  # locked until closed
    governor = TenantGovernor(
        max_inflight=max_inflight, events_per_second=events_per_second)
    service = SimulationService(
        store, jobs=jobs, governor=governor, resolver=resolver, backend=backend)
    server = ReproServer(service, host=host, port=port, threads=max_inflight + 1)
    try:
        _one_malloc_arena()  # before start() creates the threads
        server.start()
        # the handlers stay in place while the server drains: a second
        # SIGTERM must not kill the requests the first one lets finish
        with _stop_on_signals(server.stopping):
            try:
                print(f"listening on http://{server.host}:{server.port}", flush=True)
                if ready is not None:
                    ready(server)
                server.wait()
                _log.info("shutdown signal received; draining")
            finally:
                server.shutdown()
        print("shutdown complete", flush=True)
        return 0
    finally:
        store.close()  # a no-op after a clean shutdown; else releases the lock


# -- the client ----------------------------------------------------------------


class ServiceClient:
    """Minimal blocking client (``http.client``) for tests and ``repro query``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 tenant: str | None = None, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout

    def _request(self, method: str, path: str, doc: dict | None = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        headers = {"Content-Type": "application/json"}
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        body = canonical_json(doc).encode() if doc is not None else None
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read().decode()
            status = resp.status
            retry_after = resp.getheader("Retry-After")
        finally:
            conn.close()
        try:
            out = json.loads(payload)
        except json.JSONDecodeError:
            raise ApiError("bad_response",
                           f"server sent non-JSON ({status}): {payload[:200]!r}",
                           http_status=status) from None
        if status >= 400:
            err = ApiError.from_json(out, http_status=status)
            if err.retry_after is None and retry_after:
                err.retry_after = float(retry_after)
            raise err
        return out

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def result(self, context: str, run_id: str) -> RunResult:
        return RunResult.from_json(
            self._request("GET", f"/v1/result/{context}/{run_id}"))

    def run(self, request: RunRequest, **context) -> dict:
        doc = {"run": request.to_json(), **context} if context else request.to_json()
        return self._request("POST", "/v1/run", doc)

    def campaign(self, request: CampaignRequest | dict) -> CampaignResult:
        doc = request.to_json() if isinstance(request, CampaignRequest) else request
        return CampaignResult.from_json(self._request("POST", "/v1/campaign", doc))
