"""The benchmark's workloads, their inputs and their correctness checks.

Each workload function takes a :class:`Context` and returns its
end-to-end metrics.  Inputs come only from the seed; the seed varies
values that change the simulated answer but not the amount of host
work (grid extents, compute grain, message sizes, calibration noise),
so runs with different seeds measure the same work.

All load comes from this process with at most two threads: one closed
loop, or two open-loop senders.  ``repro campaign`` and ``repro serve``
run as subprocesses with ``--jobs 1 --backend auto``.

Times are reported twice: as measured (``*_wall_*``), and scaled to a
reference CPU speed.  The machine the benchmark was sized on is a
shared 2-vCPU VM whose CPU runs in a fast or a 1.6x slower state, each
lasting from seconds to a minute.  A fixed slice of pure-Python work,
the probe, is timed next to every operation; an operation that took
*t* seconds while the probe took *p* counts as
``t * PROBE_REFERENCE_S / p``.  On that machine this cut the spread of
one-second throughput samples from 34% to 9%.
"""

from __future__ import annotations

import csv
import hashlib
import http.client
import io
import json
import math
import os
import random
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import tracing
from tracing import clock, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: the paper's bound on AM error against measurement (Sec. 4)
AM_ERROR_BOUND_PCT = 17.0

#: open-loop sender threads (the machine this was sized on has 2 cores)
SENDERS = 2

#: share of ``--seconds`` serve_warm spends in its closed loop; the rest
#: is the open loop
CLOSED_SHARE = 0.5

PROCESS_TIMEOUT_S = 120.0

#: dict updates in one probe; about 2.3 ms of work
PROBE_LOOPS = 20_000
#: the probe's duration at the reference speed: the fast state of the
#: machine the baseline was measured on
PROBE_REFERENCE_S = 2.3e-3
#: closed loops of short requests re-probe at most this often
PROBE_INTERVAL_S = 0.25


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does."""

    setup_reps: int  # set-ups per run; setup_s is their median
    sweep_ranks: int  # target ranks of the Sweep3D AM runs
    sweep_min_runs: int
    grid_modes: tuple[str, ...]
    grid_nprocs: tuple[int, ...]
    grid_input_sets: int
    grid_min_runs: int
    cold_min_requests: int  # also the prefix the response digest covers
    warm_fill_per_rep: int
    warm_min_requests: int  # per phase: closed loop, open loop
    open_rate: float  # open-loop requests per second, all senders


FULL = Sizes(
    setup_reps=3, sweep_ranks=10_000, sweep_min_runs=3,
    grid_modes=("am", "de", "measured"), grid_nprocs=(16, 64, 256),
    grid_input_sets=2, grid_min_runs=3, cold_min_requests=100,
    warm_fill_per_rep=150, warm_min_requests=100, open_rate=500.0,
)

#: a few seconds per workload: 256 ranks, a 4-cell grid, 40 requests
SMOKE = Sizes(
    setup_reps=1, sweep_ranks=256, sweep_min_runs=2,
    grid_modes=("am", "measured"), grid_nprocs=(16,),
    grid_input_sets=1, grid_min_runs=1, cold_min_requests=40,
    warm_fill_per_rep=40, warm_min_requests=40, open_rate=200.0,
)


class Timings:
    """Operation times as measured, and scaled to the reference speed."""

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float, probe_s: float) -> None:
        self.wall.append(seconds)
        self.scaled.append(seconds * PROBE_REFERENCE_S / probe_s)

    def __len__(self) -> int:
        return len(self.wall)


class Context:
    """One run of one workload: its inputs, checks and trace state."""

    MAX_FAILURE_NOTES = 20

    def __init__(self, seed: int, seconds: float, sizes: Sizes, workdir: Path,
                 rec: tracing.Recorder | None = None):
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.gates: list[dict] = []
        self.digests: dict[str, str] = {}
        self.late_ms: list[float] = []  # open-loop sender lateness
        self._dumps = 0
        self._probe_at = -math.inf
        self._probe_s = PROBE_REFERENCE_S
        self._kernel = dict.fromkeys(tracing.KERNEL_COUNTERS, 0)
        self._kernel_base = tracing.kernel_counters()

    # -- checks ----------------------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed one is noted (first few only)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.MAX_FAILURE_NOTES:
                self.failures.append(what)
        return ok

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append({"gate": name, "ok": bool(ok), "detail": detail})
        self.check(ok, f"gate failed: {name} {detail}".strip())

    # -- timing ----------------------------------------------------------------
    def probe(self) -> float:
        """Seconds the probe takes now: the faster of two tries."""
        with self.span(tracing.OWN):
            best = math.inf
            for _ in range(2):
                t0 = clock()
                counts: dict[int, int] = {}
                for i in range(PROBE_LOOPS):
                    counts[i & 1023] = counts.get(i & 1023, 0) + i
                best = min(best, clock() - t0)
        self._probe_at, self._probe_s = clock(), best
        return best

    def recent_probe(self) -> float:
        """The last probe, re-taken when older than PROBE_INTERVAL_S."""
        if clock() - self._probe_at >= PROBE_INTERVAL_S:
            self.probe()
        return self._probe_s

    @contextmanager
    def timed(self, timings: Timings):
        """Time one long operation, probing just before and after it."""
        before = self.probe()
        t0 = clock()
        try:
            yield
        finally:
            seconds = clock() - t0
            timings.add(seconds, (before + self.probe()) / 2)

    # -- tracing ---------------------------------------------------------------
    def span(self, name: str, **attrs):
        return self.rec.span(name, **attrs) if self.rec is not None else nullcontext()

    def lane(self):
        return self.span(tracing.LANE)

    def clear_kernel_cache(self) -> None:
        """Empty the in-process kernel cache, keeping the counters' sum."""
        from repro.kernel.lower import clear_cache

        self._fold_kernel()
        clear_cache()
        self._kernel_base = tracing.kernel_counters()

    def kernel_counters(self) -> dict[str, int]:
        self._fold_kernel()
        return dict(self._kernel)

    def _fold_kernel(self) -> None:
        now = tracing.kernel_counters()
        for key, value in now.items():
            self._kernel[key] += value - self._kernel_base[key]
        self._kernel_base = now

    # -- subprocesses ----------------------------------------------------------
    def command(self, *args: str) -> list[str]:
        if self.rec is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(HERE / "_traced_main.py"), *args]

    def env(self, span: dict | None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        if span is not None:
            self._dumps += 1
            env["REPRO_BENCH_PARENT"] = span["id"]
            env["REPRO_BENCH_TRACE"] = str(self.workdir / f"spans-{self._dumps}.json")
        return env


def _more(t_start: float, seconds: float, done: int, minimum: int) -> bool:
    return done < minimum or clock() - t_start < seconds


def _metrics(setup: Timings, ops: Timings, peak_rss_mb: float) -> dict:
    """The end-to-end metrics every workload reports.

    ``ops_per_s`` counts operations per second of operation time, so the
    benchmark's own checks and probes between operations do not count.
    """
    ms = [x * 1e3 for x in ops.scaled]
    n = len(ops)
    return {
        "setup_s": (statistics.median(setup.scaled), "s", len(setup)),
        "p50_ms": (statistics.median(ms), "ms", n),
        "p99_ms": (percentile(ms, 99), "ms", n),
        "ops_per_s": (n / sum(ops.scaled), "1/s", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "setup_wall_s": (statistics.median(setup.wall), "s", len(setup)),
        "p50_wall_ms": (statistics.median(ops.wall) * 1e3, "ms", n),
        "ops_per_wall_s": (n / sum(ops.wall), "1/s", n),
    }


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha256(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for *proc* (killing it after *timeout*); return its rusage."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    if not ready:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _run_process(ctx: Context, args: list[str], label: str) -> tuple[int, float]:
    """Run one ``repro`` CLI process; return (exit code, peak RSS in MB)."""
    with ctx.span("process.spawn", command=args[0]) as span:
        with open(ctx.workdir / f"{label}.stderr", "wb") as err:
            proc = subprocess.Popen(
                ctx.command(*args), stdout=subprocess.DEVNULL, stderr=err,
                env=ctx.env(span), cwd=ctx.workdir)
            try:
                usage = _wait(proc, PROCESS_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
    return proc.returncode, usage.ru_maxrss / 1024


# -- sweep3d_am_10k, sweep3d_am_10k_armed ---------------------------------------


def _discard(cursor: dict) -> None:
    """Heartbeat sink: a supervised worker pipes cursors to its parent."""


def _stats_digest(ctx: Context, result) -> str:
    with ctx.span(tracing.OWN):
        return _sha256(_canonical(result.stats.to_dict(include_procs=True)))


def _sweep3d(ctx: Context, armed: bool) -> dict:
    from repro.apps import build_sweep3d, sweep3d_inputs, sweep3d_per_proc_inputs
    from repro.kernel import lower as kernel_lower
    from repro.machine import IBM_SP
    from repro.sim.flightrec import FLIGHT
    from repro.sim.heartbeat import HEARTBEAT
    from repro.workflow import ModelingWorkflow
    from repro.workflow.supervisor import HB_INTERVAL_EVENTS, HB_MIN_INTERVAL_S

    sizes = ctx.sizes
    side = random.Random(ctx.seed).randrange(96, 161, 8)
    calib = sweep3d_inputs(side, side, side, 16, kb=4, ab=2, mmi=3, niter=2)
    with ctx.lane():
        # set-up: calibrate at 16 ranks, compile, lower -- from cold each time
        setup = Timings()
        for _ in range(sizes.setup_reps):
            ctx.clear_kernel_cache()
            with ctx.timed(setup):
                wf = ModelingWorkflow(build_sweep3d(), IBM_SP, calib_inputs=calib,
                                      calib_nprocs=16, seed=ctx.seed, backend="auto")
                kernel_lower.kernel_for(wf.compiled.simplified)

        small = sweep3d_per_proc_inputs(6, 6, 1000, 256, kb=2, ab=1, niter=1)
        compiled = _stats_digest(ctx, wf.run_am(small, 256, backend="compiled"))
        interpreted = _stats_digest(ctx, wf.run_am(small, 256, backend="interpreted"))
        ctx.gate("compiled and interpreted stats byte-identical at 256 ranks",
                 compiled == interpreted)

        inputs = sweep3d_per_proc_inputs(6, 6, 1000, sizes.sweep_ranks,
                                         kb=2, ab=1, niter=1)
        warm = wf.run_am(inputs, sizes.sweep_ranks)  # warm-up, bare
        reference = _stats_digest(ctx, warm)
        ctx.digests["stats"] = reference
        events = warm.stats.total_events

        runs = Timings()
        t_start = clock()
        while _more(t_start, ctx.seconds, len(runs), sizes.sweep_min_runs):
            if armed:  # as a supervised campaign worker arms them
                FLIGHT.enable()
                HEARTBEAT.configure(_discard, interval_events=HB_INTERVAL_EVENTS,
                                    min_interval_s=HB_MIN_INTERVAL_S, run_id="bench")
                HEARTBEAT.enable()
            try:
                with ctx.timed(runs):
                    result = wf.run_am(inputs, sizes.sweep_ranks)
            finally:
                HEARTBEAT.disable()
                FLIGHT.disable()
            ctx.check(_stats_digest(ctx, result) == reference,
                      f"run {len(runs)}: stats differ from the warm-up run")
        metrics = _metrics(setup, runs,
                           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics["events_per_s"] = (events * len(runs) / sum(runs.scaled), "1/s", len(runs))
    return metrics


def sweep3d_am_10k(ctx: Context) -> dict:
    return _sweep3d(ctx, armed=False)


def sweep3d_am_10k_armed(ctx: Context) -> dict:
    return _sweep3d(ctx, armed=True)


# -- campaign_grid ---------------------------------------------------------------


def campaign_grid_doc(seed: int, sizes: Sizes) -> dict:
    """The campaign grid for *seed*: Sweep3D plus one SAMPLE pattern."""
    rng = random.Random(seed)
    sets: list[dict] = []
    while len(sets) < sizes.grid_input_sets:
        extent = rng.randrange(32, 97, 8)
        candidate = {
            "itg": extent, "jtg": extent, "kt": rng.randrange(16, 49, 8),
            "kb": 2, "ab": 1, "niter": 1,
            "grain": rng.randrange(20_000, 100_001, 1000),
            "msg": rng.choice((1024, 2048, 4096, 8192)), "iters": 4,
        }
        if candidate not in sets:
            sets.append(candidate)
    return {
        "name": "bench-grid", "apps": ["sweep3d", "sample_wavefront"],
        "modes": list(sizes.grid_modes), "nprocs": list(sizes.grid_nprocs),
        "input_sets": sets, "seed": seed, "calib_procs": 16,
    }


def am_errors_pct(rows: list[dict]) -> list[float]:
    """|AM - measured| / measured of every cell that has both, in %."""
    elapsed = {(r["app"], r["nprocs"], r["inputs"], r["mode"]): float(r["elapsed_s"])
               for r in rows}
    errors = []
    for (app, nprocs, inputs, mode), am in elapsed.items():
        measured = elapsed.get((app, nprocs, inputs, "measured"))
        if mode == "am" and measured:
            errors.append(abs(am - measured) / measured * 100)
    return errors


def campaign_grid(ctx: Context) -> dict:
    sizes = ctx.sizes
    grid = campaign_grid_doc(ctx.seed, sizes)
    grid_path = ctx.workdir / "grid.json"
    grid_path.write_text(json.dumps(grid))
    with ctx.lane():
        # set-up: a cold start of the CLI, which every invocation pays
        setup = Timings()
        for rep in range(sizes.setup_reps):
            with ctx.timed(setup):
                code, _ = _run_process(ctx, ["--version"], f"version-{rep}")
            ctx.check(code == 0, f"repro --version exited {code}")

        runs, peak, reference = Timings(), 0.0, None
        t_start = clock()
        while _more(t_start, ctx.seconds, len(runs), sizes.grid_min_runs):
            out = ctx.workdir / f"campaign-{len(runs)}"
            with ctx.timed(runs):
                code, rss = _run_process(
                    ctx, ["campaign", "--grid", str(grid_path), "--out", str(out),
                          "--jobs", "1", "--backend", "auto"], out.name)
            peak = max(peak, rss)
            results = out / "results.csv"
            data = results.read_bytes() if code == 0 and results.exists() else None
            if reference is None:
                reference = data
            ctx.check(data is not None and data == reference,
                      f"{out.name}: exit {code}, results.csv "
                      f"{'missing' if data is None else 'differs from the first'}")

    if reference is None:
        raise RuntimeError("no campaign invocation produced results.csv")
    rows = list(csv.DictReader(io.StringIO(reference.decode())))
    ctx.gate("every campaign cell ok", all(r["outcome"] == "ok" for r in rows),
             f"{len(rows)} cells")
    errors = am_errors_pct(rows)
    ctx.gate(f"AM error under {AM_ERROR_BOUND_PCT:g}% in every cell",
             bool(errors) and max(errors) < AM_ERROR_BOUND_PCT,
             f"max {max(errors, default=float('nan')):.2f}%")
    ctx.digests["results_csv"] = _sha256(reference)
    events = sum(int(r["total_events"]) for r in rows)
    metrics = _metrics(setup, runs, peak)
    run_time = sum(runs.scaled)
    metrics["cells_per_s"] = (len(rows) * len(runs) / run_time, "1/s", len(runs))
    metrics["events_per_s"] = (events * len(runs) / run_time, "1/s", len(runs))
    metrics["am_error_max_pct"] = (max(errors), "%", len(errors))
    return metrics


# -- serve_cold, serve_warm --------------------------------------------------------

#: app -> target ranks of its requests (nas_sp needs a square count)
SERVE_APPS = {"sample_wavefront": 8, "sample_nearest_neighbor": 8,
              "sweep3d": 4, "tomcatv": 4, "nas_sp": 4}
SERVE_MODES = ("de", "am", "measured")

#: the execution context every request pins: ``repro serve`` defaults to
#: 2 calibration ranks, which nas_sp rejects (it needs a square count)
SERVE_CALIB_PROCS = 4


def serve_request(seed: int, index: int) -> tuple[dict, str]:
    """The *index*-th distinct ``/v1/run`` body for *seed*, and its run id.

    Apps and modes cycle in a fixed order; the seed draws the inputs.
    """
    from repro.api import RunRequest

    rng = random.Random(f"{seed}:{index}")
    apps = list(SERVE_APPS)
    app = apps[index % len(apps)]
    mode = SERVE_MODES[index // len(apps) % len(SERVE_MODES)]
    if app.startswith("sample_"):
        inputs = {"grain": rng.randrange(10_000, 100_001, 500),
                  "msg": rng.choice((512, 1024, 2048, 4096, 8192)), "iters": 3}
    elif app == "sweep3d":
        inputs = {"itg": rng.randrange(16, 33, 4), "jtg": rng.randrange(16, 33, 4),
                  "kt": rng.randrange(8, 33, 4), "kb": 2, "ab": 1, "niter": 1}
    elif app == "tomcatv":
        inputs = {"n": rng.randrange(32, 97, 8), "itmax": 2}
    else:
        inputs = {"nx": rng.randrange(12, 37, 4), "niter": 1}
    run = RunRequest(app=app, mode=mode, nprocs=SERVE_APPS[app],
                     inputs=tuple(sorted(inputs.items())), seed=index)
    return {"run": run.to_json(), "calib_procs": SERVE_CALIB_PROCS}, run.run_id


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    START_TIMEOUT_S = 60.0

    def __init__(self, ctx: Context, store: Path):
        self.ctx = ctx
        with ctx.span("process.spawn", command="serve") as span:
            self._stderr = open(ctx.workdir / f"serve-{store.name}.stderr", "ab")
            self.proc = subprocess.Popen(
                ctx.command("serve", "--store", str(store), "--port", "0",
                            "--jobs", "1", "--backend", "auto"),
                stdout=subprocess.PIPE, stderr=self._stderr,
                env=ctx.env(span), cwd=ctx.workdir)
            ready, _, _ = select.select([self.proc.stdout], [], [], self.START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            match = re.search(rb"listening on http://[\d.]+:(\d+)", line)
            if match is None:
                self.stop()
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        """SIGTERM (the server drains and flushes its store), then wait."""
        with self.ctx.span("process.exit"):
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def post_run(port: int, doc: dict) -> tuple[int, dict]:
    """POST one ``/v1/run``; transport errors come back as status 0."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=PROCESS_TIMEOUT_S)
    try:
        conn.request("POST", "/v1/run", body=json.dumps(doc),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return 0, {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        conn.close()


def round_trip(ctx: Context, port: int, doc: dict, index: int) -> tuple[int, dict, float]:
    """One request inside a ``serve.http`` span; returns (status, body, seconds)."""
    with ctx.span("serve.http", req=index) as span:
        if span is not None:
            doc = {**doc, "trace_parent": span["id"]}
        t0 = clock()
        status, body = post_run(port, doc)
        return status, body, clock() - t0


def fresh_result(status: int, body: dict, run_id: str) -> str | None:
    """The canonical result of a correct cache miss, else ``None``."""
    result = body.get("result") if status == 200 else None
    if (result is None or body.get("cached") is not False
            or result.get("outcome") != "ok" or result.get("run_id") != run_id):
        return None
    return _canonical(result)


def warm_failure(status: int, body: dict, want: str) -> str | None:
    """Why a cache hit is wrong (not cached, or not its cold bytes), or None."""
    if status != 200:
        return f"status {status}: {body}"
    if body.get("cached") is not True:
        return "not served from the store"
    if _canonical(body.get("result")) != want:
        return "result differs from its cold response"
    return None


def serve_cold(ctx: Context) -> dict:
    sizes = ctx.sizes
    server = None
    try:
        with ctx.lane():
            setup = Timings()  # set-up: start the server on an empty store
            for rep in range(sizes.setup_reps):
                if server is not None:
                    server.stop()
                with ctx.timed(setup):
                    server = Server(ctx, ctx.workdir / f"store-{rep}")

            requests, digest, events = Timings(), hashlib.sha256(), 0
            t_start = clock()
            while _more(t_start, ctx.seconds, len(requests), sizes.cold_min_requests):
                index = len(requests)
                doc, run_id = serve_request(ctx.seed, index)
                probe_s = ctx.recent_probe()
                status, body, seconds = round_trip(ctx, server.port, doc, index)
                requests.add(seconds, probe_s)
                result = fresh_result(status, body, run_id)
                if ctx.check(result is not None, f"cold request {index}: {status} {body}"):
                    events += body.get("executed_events", 0)
                if index < sizes.cold_min_requests:
                    digest.update((result or "").encode())
            metrics = _metrics(setup, requests, server.peak_rss_mb())
    finally:
        if server is not None:
            with ctx.lane():
                server.stop()
    ctx.digests["responses"] = digest.hexdigest()
    metrics["events_per_s"] = (events / sum(requests.scaled), "1/s", len(requests))
    return metrics


def _open_loop(ctx: Context, port: int, expected: dict[int, tuple[dict, str]],
               rate: float, total: int) -> list[tuple[float, float, str | None]]:
    """Send *total* requests at a fixed *rate* from :data:`SENDERS` threads.

    Each request is due at ``start + m / rate``; returns per request
    (latency from its due time, lateness of the send, failure or None).
    """
    keys = sorted(expected)
    start = clock() + 0.05  # let both threads start before the first is due
    out: list[list] = [[] for _ in range(SENDERS)]

    def sender(k: int) -> None:
        rng = random.Random(f"{ctx.seed}:open:{k}")
        with ctx.lane():
            for m in range(k, total, SENDERS):
                due = start + m / rate
                if due > clock():
                    with ctx.span("loadgen.idle"):
                        time.sleep(max(0.0, due - clock()))
                late = clock() - due
                index = rng.choice(keys)
                doc, want = expected[index]
                try:
                    status, body, _ = round_trip(ctx, port, doc, index)
                    failure = warm_failure(status, body, want)
                except Exception as exc:  # noqa: BLE001 - count it, keep sending
                    failure = f"{type(exc).__name__}: {exc}"
                out[k].append((clock() - due, late, failure and f"open {index}: {failure}"))

    threads = [threading.Thread(target=sender, args=(k,)) for k in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [row for rows in out for row in rows]


def serve_warm(ctx: Context) -> dict:
    sizes = ctx.sizes
    store = ctx.workdir / "store"
    expected: dict[int, tuple[dict, str]] = {}
    server = None
    try:
        with ctx.lane():
            # set-up: (re)start the server on one store and fill it with
            # a further slice of distinct requests, setup_reps times
            setup = Timings()
            for rep in range(sizes.setup_reps):
                if server is not None:
                    server.stop()
                with ctx.timed(setup):
                    server = Server(ctx, store)
                    per = sizes.warm_fill_per_rep
                    for index in range(rep * per, (rep + 1) * per):
                        doc, run_id = serve_request(ctx.seed, index)
                        status, body, _ = round_trip(ctx, server.port, doc, index)
                        result = fresh_result(status, body, run_id)
                        if ctx.check(result is not None,
                                     f"fill request {index}: {status} {body}"):
                            expected[index] = (doc, result)
            if not expected:
                raise RuntimeError("no fill request succeeded")
            ctx.digests["fill_responses"] = _sha256(
                *(expected[i][1] for i in sorted(expected)))

            # closed loop: latency and capacity of hits
            keys = sorted(expected)
            rng = random.Random(ctx.seed)
            requests = Timings()
            t_start = clock()
            while _more(t_start, ctx.seconds * CLOSED_SHARE, len(requests),
                        sizes.warm_min_requests):
                index = rng.choice(keys)
                doc, want = expected[index]
                probe_s = ctx.recent_probe()
                status, body, seconds = round_trip(ctx, server.port, doc, index)
                requests.add(seconds, probe_s)
                failure = warm_failure(status, body, want)
                ctx.check(failure is None, f"closed {index}: {failure}")

        # open loop: latency at a fixed rate, from each request's due time
        total = max(sizes.warm_min_requests,
                    int(sizes.open_rate * ctx.seconds * (1 - CLOSED_SHARE)))
        rows = _open_loop(ctx, server.port, expected, sizes.open_rate, total)
        for _, _, failure in rows:
            ctx.check(failure is None, failure or "")
        ctx.late_ms = [late * 1e3 for _, late, _ in rows]
        with ctx.lane():
            metrics = _metrics(setup, requests, server.peak_rss_mb())
    finally:
        if server is not None:
            with ctx.lane():
                server.stop()
    open_ms = [latency * 1e3 for latency, _, _ in rows]
    metrics["open_p50_wall_ms"] = (statistics.median(open_ms), "ms", len(open_ms))
    metrics["open_p99_wall_ms"] = (percentile(open_ms, 99), "ms", len(open_ms))
    return metrics


WORKLOADS = {
    "sweep3d_am_10k": sweep3d_am_10k,
    "sweep3d_am_10k_armed": sweep3d_am_10k_armed,
    "campaign_grid": campaign_grid,
    "serve_cold": serve_cold,
    "serve_warm": serve_warm,
}
