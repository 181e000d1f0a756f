"""Command-line interface: compile, inspect and predict from a shell.

Examples::

    python -m repro apps
    python -m repro compile tomcatv
    python -m repro stg sweep3d
    python -m repro validate tomcatv --procs 4 16 64 --seed 7
    python -m repro predict sweep3d --procs 256 1024 --set itg=96 --set jtg=96
    python -m repro memory sweep3d --procs 4900 --set kt=255
    python -m repro faults sweep3d --nprocs 16 --crash 3@0.01
    python -m repro faults tomcatv --nprocs 8 --sweep 0.01 0.05 0.1 --retry 5:1e-4
    python -m repro profile sweep3d --nprocs 16 --perfetto out.json --critical-path
    python -m repro -v profile tomcatv --scaling-loss --procs 4 16 64
    python -m repro campaign --grid grid.json --out results/ --max-wall 60
    python -m repro campaign --grid grid.json --out results/ --resume
    python -m repro campaign --grid grid.json --out results/ --jobs 4 --live
    python -m repro inspect results/
    python -m repro inspect results/ --run 1a2b3c --last 20
    python -m repro inspect flight.json
    python -m repro fuzz --seeds 100 --out fuzz-out/
    python -m repro fuzz --seeds 500 --budget 120 --out fuzz-out/ --resume
    python -m repro fuzz --check-corpus src/repro/apps/regressions
    python -m repro serve --store store/ --port 8642 --jobs 4
    python -m repro query sweep3d --nprocs 64 --server 127.0.0.1:8642
    python -m repro query sweep3d --nprocs 64 --store store/
    python -m repro inspect store/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from . import __version__

# Only the standard library loads with the parser: each command imports
# what it runs, so ``--version`` and ``--help`` load no simulator.

__all__ = ["main", "APPS"]


def __getattr__(name):
    if name == "APPS":  # the application registry, loaded on first use
        from .apps import APPS

        globals()["APPS"] = APPS
        return APPS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _positive_int(text: str) -> int:
    """argparse type for processor counts: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"processor count must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for wall-clock budgets: strictly positive seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _positive_count(text: str) -> int:
    """argparse type for generic counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type for seeds/offsets: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _jobs_count(text: str) -> int:
    """argparse type for --jobs: worker processes, 0 meaning all cores."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 0, got {value}")
    return value


def _parse_overrides(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            out[key] = int(value)
        except ValueError:
            out[key] = float(value)
    return out


# -- shared argparse fragments -------------------------------------------------
#
# Every subcommand that names a machine, an input override, a budget or
# a worker count adds the flag through one of these helpers, so the
# flags (names, types, defaults, help text) cannot drift apart between
# subcommands — they are the argparse face of the repro.api vocabulary.


def add_machine_args(parser, with_set: bool = True) -> None:
    """``--machine`` (and ``--set``): the execution-context flags."""
    parser.add_argument("--machine", default="IBM-SP",
                        help="machine preset (default IBM-SP)")
    if with_set:
        parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                            help="override an application input parameter")


def add_budget_args(parser) -> None:
    """``--max-wall/--max-events/--max-virtual``: per-run watchdog budgets."""
    parser.add_argument("--max-wall", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="per-run wall-clock budget (outcome 'timeout' "
                             "when exceeded)")
    parser.add_argument("--max-events", type=_positive_int, default=None,
                        help="per-run kernel-event budget (outcome 'budget')")
    parser.add_argument("--max-virtual", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="per-run virtual-time budget (outcome 'budget')")


def add_jobs_arg(parser, help_: str | None = None) -> None:
    parser.add_argument("--jobs", type=_jobs_count, default=1, metavar="N",
                        help=help_ or "worker processes "
                             "(0 = all cores, default 1)")


def add_seed_arg(parser, help_: str | None = None) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help=help_ or "noise seed for measured-mode runs "
                             "(reproducibility)")


def add_backend_arg(parser) -> None:
    """``--backend``: simulation-kernel choice (results byte-identical)."""
    parser.add_argument("--backend", choices=("interpreted", "compiled", "auto"),
                        help="simulation kernel: generator interpreter, "
                             "per-program compiled event loop, or auto with "
                             "per-program fallback (results are byte-identical; "
                             "default auto, or $REPRO_BACKEND)")


def _budget_kwargs(args) -> dict:
    """The budget flags as :class:`repro.api.CampaignRequest` kwargs."""
    return {
        "max_wall_seconds": getattr(args, "max_wall", None),
        "max_events": getattr(args, "max_events", None),
        "max_virtual_time": getattr(args, "max_virtual", None),
    }


def _app(args):
    """``(program, default_inputs)`` of the app *args* names, from the
    app registry's resolver.  An unknown app or a bad ``--set`` ends
    the command with one line, before anything runs."""
    from .apps import APPS, resolve_app

    if args.app not in APPS:
        raise SystemExit(f"unknown app {args.app!r}; run 'python -m repro apps'")
    resolved = resolve_app(args.app)
    _parse_overrides(getattr(args, "set", None))
    return resolved


def request_from_args(args, *, nprocs: int | None = None,
                      mode: str | None = None, seed: int | None = None,
                      fault_plan: dict | None = None):
    """Build the validated :class:`repro.api.RunRequest` a subcommand
    names — the single constructor path from flags to run identity."""
    from .api import ApiError, RunRequest

    _app(args)
    try:
        return RunRequest.from_json({
            "kind": "run_request",
            "app": args.app,
            "mode": mode if mode is not None else getattr(args, "mode", "de"),
            "nprocs": nprocs if nprocs is not None else args.nprocs,
            "inputs": _parse_overrides(getattr(args, "set", None)),
            "seed": seed if seed is not None else getattr(args, "seed", 0),
            "fault_plan": fault_plan,
            "timeout": getattr(args, "timeout", None),
        })
    except ApiError as exc:
        raise SystemExit(f"error: {exc.message}")


def _run(args, requests, *, report=(), **context):
    """Run *requests* on the campaign runner on ``--machine`` under
    *context* (:func:`repro.workflow.campaign.run_requests`); their final
    records, in order.  An outcome other than ``ok`` or one in *report*
    ends the command with one line."""
    from .workflow.campaign import run_requests

    records = run_requests(requests, args.machine, **context)
    for request, rec in zip(requests, records):
        if rec.outcome != "ok" and rec.outcome not in report:
            raise SystemExit(
                f"error: {request.describe()} finished {rec.outcome}: {rec.error}")
    return records


@contextmanager
def _one_line_failure(request):
    """Workflow calls a command makes for *request* off the request path:
    a run the simulator refuses (``ValueError``: a backend that cannot
    run the program, inputs the app rejects) ends the command with the
    one line :func:`_run` prints for that request."""
    from .workflow.campaign import _first_line

    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"error: {request.describe()} finished error: "
                         f"ValueError: {_first_line(exc)}") from None


# -- subcommands --------------------------------------------------------------


def cmd_apps(args) -> int:
    from .apps import APPS, resolve_app

    print("available applications:")
    for name in sorted(APPS):
        prog = resolve_app(name)[0]
        print(f"  {name:26s} params: {', '.join(prog.params)}")
    return 0


def cmd_compile(args) -> int:
    from .codegen import compile_program
    from .ir import format_program

    program, _ = _app(args)
    compiled = compile_program(program)
    print(compiled.summary())
    print()
    print("simplified program:")
    print(format_program(compiled.simplified))
    return 0


def cmd_stg(args) -> int:
    from .stg import synthesize_stg, write_dot

    program, _ = _app(args)
    stg = synthesize_stg(program)
    if args.dot:
        write_dot(stg, args.dot)
        print(f"DOT written to {args.dot}")
    else:
        print(stg)
    return 0


def cmd_validate(args) -> int:
    """Measured vs DE vs AM at each ``--procs``, as campaign-runner requests.

    Point *i* is an ``am`` and a ``de`` request at ``--seed`` plus a
    ``measured`` one at ``seed + 101 + i``: each run's seed is a function
    of its point, never of execution order, so ``--jobs N`` prints the
    ``--jobs 1`` table.
    """
    from .workflow import ValidationPoint, ValidationSeries, format_validation

    modes = ("measured", "am") if args.no_de else ("measured", "de", "am")
    cells = [(i, mode) for i in range(len(args.procs)) for mode in modes]
    requests = [
        request_from_args(args, nprocs=args.procs[i], mode=mode,
                          seed=args.seed + 101 + i if mode == "measured" else args.seed)
        for i, mode in cells
    ]
    records = _run(args, requests, jobs=args.jobs, calib_procs=args.calib_procs)
    elapsed = {cell: rec.elapsed for cell, rec in zip(cells, records)}
    series = ValidationSeries(args.app)
    for i, p in enumerate(args.procs):
        series.points.append(ValidationPoint(
            label=str(p), nprocs=p, measured=elapsed[i, "measured"],
            de=elapsed.get((i, "de")), am=elapsed[i, "am"],
        ))
    print(format_validation(series))
    return 0


def cmd_predict(args) -> int:
    from .workflow import format_bytes, format_table
    from .workflow.campaign import request_runner

    requests = [request_from_args(args, nprocs=p, mode="am") for p in args.procs]
    method = args.method
    rows = []
    if method == "am":
        records = _run(args, requests, calib_procs=args.calib_procs)
        for p, rec in zip(args.procs, records):
            rows.append([p, rec.elapsed, format_bytes(rec.detail.memory.total_bytes)])
    else:
        from .analytic import analytic_predict, taskgraph_predict

        runner = request_runner(requests, args.machine, calib_procs=args.calib_procs)
        predictor = taskgraph_predict if method == "taskgraph" else analytic_predict
        for p, request in zip(args.procs, requests):
            with _one_line_failure(request):
                wf = runner._workflow_for(request)
                pred = predictor(wf.compiled.simplified, runner._resolved_inputs(request),
                                 p, wf.machine, wf.wparams)
            if method == "taskgraph":
                rows.append([p, pred.elapsed, f"{pred.nodes} tasks"])
            else:  # per-rank sum
                rows.append([p, pred.elapsed, f"imbalance {pred.imbalance:.2f}"])
    titles = {
        "am": "MPI-SIM-AM predictions",
        "taskgraph": "task-graph analytical predictions",
        "sum": "per-rank-sum analytical predictions",
    }
    third = {"am": "simulator memory", "taskgraph": "graph size", "sum": "load balance"}
    print(
        format_table(
            ["target procs", "predicted time (s)", third[method]],
            rows,
            title=f"{titles[method]}: {args.app} on {args.machine}",
        )
    )
    return 0


def cmd_calibrate(args) -> int:
    """Measure w_i at one configuration and write a parameter file."""
    from .measure import save_params
    from .workflow.campaign import request_runner

    request = request_from_args(args, nprocs=args.calib_procs, mode="am")
    runner = request_runner([request], args.machine, calib_procs=args.calib_procs)
    with _one_line_failure(request):
        cal = runner._workflow_for(request).calibrate()
    save_params(cal, args.output)
    print(cal)
    print(f"parameters written to {args.output}")
    return 0


def cmd_memory(args) -> int:
    from .codegen import compile_program
    from .machine import get_machine
    from .parallel import estimate_program_memory
    from .workflow import format_bytes, format_table

    program, default_inputs = _app(args)
    machine = get_machine(args.machine)
    compiled = compile_program(program)
    rows = []
    for p in args.procs:
        inputs = default_inputs(p)
        inputs.update(_parse_overrides(args.set))
        de = estimate_program_memory(program, inputs, p, machine.host)
        am = estimate_program_memory(compiled.simplified, inputs, p, machine.host)
        rows.append([p, format_bytes(de), format_bytes(am), f"{de / am:.0f}x"])
    print(
        format_table(
            ["target procs", "MPI-SIM-DE", "MPI-SIM-AM", "reduction"],
            rows,
            title=f"Simulator memory: {args.app} on {args.machine}",
        )
    )
    return 0


def _parse_crash(spec: str):
    from .sim.faults import CrashFault

    rank, sep, t = spec.partition("@")
    try:
        if not sep:
            raise ValueError
        return CrashFault(rank=int(rank), time=float(t))
    except ValueError:
        raise SystemExit(f"--crash expects RANK@TIME (e.g. 3@0.5), got {spec!r}")


def _parse_degrade(spec: str):
    from .sim.faults import LinkDegradation

    parts = spec.split(":")
    if len(parts) != 6:
        raise SystemExit(
            f"--degrade expects SRC:DST:START:END:LATENCYx:BANDWIDTHx "
            f"(use * for any rank), got {spec!r}"
        )
    try:
        src = None if parts[0] == "*" else int(parts[0])
        dst = None if parts[1] == "*" else int(parts[1])
        return LinkDegradation(
            src=src, dst=dst, start=float(parts[2]), end=float(parts[3]),
            latency_factor=float(parts[4]), bandwidth_factor=float(parts[5]),
        )
    except ValueError as exc:
        raise SystemExit(f"bad --degrade spec {spec!r}: {exc}")


def _parse_retry(spec: str) -> str:
    """``--retry`` as the canonical JSON of its :class:`RetryPolicy`."""
    from dataclasses import asdict

    from .api import canonical_json
    from .sim.faults import RetryPolicy

    parts = spec.split(":")
    try:
        kwargs = {"max_attempts": int(parts[0])}
        if len(parts) > 1:
            kwargs["backoff"] = float(parts[1])
        if len(parts) > 2:
            kwargs["backoff_factor"] = float(parts[2])
        if len(parts) > 3:
            raise ValueError("too many fields")
        return canonical_json(asdict(RetryPolicy(**kwargs)))
    except ValueError as exc:
        raise SystemExit(f"--retry expects MAX[:BACKOFF[:FACTOR]], got {spec!r} ({exc})")


def _build_plan(args):
    """Assemble the FaultPlan from --plan JSON plus per-flag overrides."""
    from dataclasses import replace

    from .sim.faults import FaultPlan

    if args.plan:
        try:
            with open(args.plan) as fh:
                plan = FaultPlan.from_dict(json.load(fh))
        except (OSError, ValueError, TypeError) as exc:
            raise SystemExit(f"cannot load fault plan {args.plan!r}: {exc}")
    else:
        plan = FaultPlan()
    updates = {}
    if args.fault_seed is not None:
        updates["seed"] = args.fault_seed
    if args.crash:
        updates["crashes"] = plan.crashes + tuple(_parse_crash(s) for s in args.crash)
    if args.loss is not None:
        updates["message_loss"] = args.loss
    if args.dup is not None:
        updates["duplication"] = args.dup
    if args.send_fail is not None:
        updates["send_failure"] = args.send_fail
    if args.degrade:
        updates["degradations"] = plan.degradations + tuple(
            _parse_degrade(s) for s in args.degrade
        )
    try:
        return replace(plan, **updates) if updates else plan
    except ValueError as exc:
        raise SystemExit(f"invalid fault plan: {exc}")


def cmd_faults(args) -> int:
    """Run an application under a fault plan and report its resilience:
    one campaign-runner request, or one per ``--sweep`` loss rate."""
    from .sim import FLIGHT, ExecMode
    from .workflow import (
        FaultSweepPoint,
        FaultSweepSeries,
        format_fault_sweep,
        format_resilience,
        write_stats_csv,
    )

    request_from_args(args)  # a bad app or flag: one line, before anything
    plan = _build_plan(args)
    context = {
        "calib_procs": args.calib_procs,
        "retry_policy": _parse_retry(args.retry) if args.retry else None,
    }
    for crash in plan.crashes:
        if crash.rank >= args.nprocs:
            raise SystemExit(
                f"invalid fault plan: crashes rank {crash.rank} "
                f"but --nprocs is {args.nprocs}"
            )

    def request(plan):  # a plan that injects nothing is no plan
        return request_from_args(
            args, fault_plan=None if plan.is_empty() else plan.to_dict())

    if args.sweep:
        rates = sorted({0.0, *args.sweep})  # every sweep carries its baseline
        try:
            plans = [plan.with_loss(rate) for rate in rates]
        except ValueError as exc:
            raise SystemExit(f"invalid fault plan: {exc}")
        records = _run(args, [request(p) for p in plans], report=("deadlock",), **context)
        series = FaultSweepSeries(
            name=args.app, mode=ExecMode[args.mode.upper()].value, nprocs=args.nprocs)
        for rate, rec in zip(rates, records):
            s = rec.stats or {}  # a deadlocked run has none
            series.points.append(FaultSweepPoint(
                loss_rate=rate, elapsed=rec.elapsed, retries=s.get("total_retries", 0),
                timeouts=s.get("total_timeouts", 0),
                messages_lost=s.get("total_messages_lost", 0),
                send_failures=s.get("total_send_failures", 0),
                deadlocked=rec.outcome == "deadlock",
            ))
        print(format_fault_sweep(series))
        return 0
    if args.flight_dump:
        FLIGHT.enable()
    try:
        [rec] = _run(args, [request(plan)], report=("deadlock",), **context)
    finally:
        if args.flight_dump:
            FLIGHT.disable()
    if rec.outcome == "deadlock":
        message = rec.detail.format() if rec.detail is not None else rec.error
        print(f"Resilience report: {args.app} deadlocked under the fault plan")
        print(message)
        if args.flight_dump:
            _write_flight_dump(args.flight_dump, rec.flight or FLIGHT.dump(error=message))
        return 2
    if args.flight_dump:
        _write_flight_dump(args.flight_dump, FLIGHT.dump())
    print(format_resilience(rec.stats, title=f"Resilience report: {args.app} ({args.mode})"))
    if args.csv:
        write_stats_csv(rec.detail.stats, args.csv)
        print(f"per-rank statistics written to {args.csv}")
    return 0


class _LiveProgress:
    """Single-line TTY campaign progress: counts, events/sec, ETA.

    Fed by the runner's ``progress`` callback after every journaled run.
    On a TTY the line redraws in place (``\\r``); piped output gets one
    plain line per run, so logs stay greppable.
    """

    def __init__(self, stream=None):
        import time

        self.stream = stream if stream is not None else sys.stderr
        self.t0 = time.monotonic()
        self.executed = 0
        self.ok = 0
        self.failed = 0
        self.retried = 0
        self.events = 0
        self.tty = getattr(self.stream, "isatty", lambda: False)()
        self._last_len = 0
        self._clock = time.monotonic

    @staticmethod
    def _fmt_eta(seconds: float) -> str:
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
        return f"{seconds:.0f}s"

    def __call__(self, spec, rec, done: int, total: int) -> None:
        self.executed += 1
        if rec.outcome == "ok":
            self.ok += 1
        else:
            self.failed += 1
        if rec.attempts > 1:
            self.retried += 1
        if rec.stats:
            self.events += rec.stats.get("total_events", 0)
        wall = max(self._clock() - self.t0, 1e-9)
        eta = (total - done) * (wall / self.executed)
        line = (
            f"campaign: {done}/{total} runs | {self.ok} ok, "
            f"{self.failed} failed, {self.retried} retried | "
            f"{self.events / wall:,.0f} events/s | ETA {self._fmt_eta(eta)}"
        )
        if self.tty:
            pad = " " * max(self._last_len - len(line), 0)
            self.stream.write("\r" + line + pad)
            self._last_len = len(line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        """End the redrawn line so the report starts on a fresh one."""
        if self.tty and self._last_len:
            self._last_len = 0
            self.stream.write("\n")
            self.stream.flush()


def _write_flight_dump(path: str, dump: dict) -> None:
    """Atomically write a flight-recorder dump as JSON."""
    from .util.atomic_io import atomic_write

    with atomic_write(path) as fh:
        json.dump(dump, fh, indent=1)
    print(f"flight dump written to {path} (render with 'repro inspect {path}')")


def cmd_campaign(args) -> int:
    """Run (or resume) a crash-safe multi-run experiment campaign."""
    from dataclasses import replace

    from .api import ApiError
    from .obs import METRICS, TRACER
    from .workflow.campaign import (
        CampaignError,
        CampaignRunner,
        format_campaign_report,
        load_grid,
    )

    def given(**flags):
        return {name: value for name, value in flags.items() if value is not None}

    live = _LiveProgress() if args.live else None
    try:
        config = load_grid(args.grid)
        # the request flags feed the config hash; the supervision and
        # backend flags are execution policy, safe to change on resume
        config = replace(
            config,
            request=replace(config.request, **given(
                machine=args.machine, max_wall_seconds=args.max_wall,
                max_events=args.max_events, max_virtual_time=args.max_virtual,
                retries=args.retries)).validate(),
            **given(heartbeat_timeout=args.heartbeat_timeout,
                    poison_threshold=args.poison_threshold, backend=args.backend),
        )
        runner = CampaignRunner(
            config, args.out,
            telemetry=not args.no_telemetry, progress=live,
        )
        TRACER.enable()
        METRICS.enable()
        try:
            report = runner.execute(
                resume=args.resume, max_runs=args.max_runs, jobs=args.jobs
            )
        finally:
            TRACER.disable()
            METRICS.disable()
            if live is not None:
                live.close()
    except (CampaignError, ApiError) as exc:
        if live is not None:
            live.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_campaign_report(report))
    if runner.telemetry and runner.merged_perfetto_path.exists():
        print(f"  merged telemetry timeline: {runner.merged_perfetto_path} "
              f"(open in ui.perfetto.dev; see 'repro inspect {args.out}')")
    if report.interrupted or report.stopped:
        # Rebuild the hint from the *effective* flags: machine and budget
        # overrides feed the config hash, so a hint without them would be
        # refused as a different campaign on resume.
        hint = [f"python -m repro campaign --grid {args.grid}", f"--out {args.out}"]
        if args.machine is not None:
            hint.append(f"--machine {args.machine}")
        if args.max_wall is not None:
            hint.append(f"--max-wall {args.max_wall:g}")
        if args.max_events is not None:
            hint.append(f"--max-events {args.max_events}")
        if args.max_virtual is not None:
            hint.append(f"--max-virtual {args.max_virtual:g}")
        if args.retries is not None:
            hint.append(f"--retries {args.retries}")
        if args.jobs != 1:
            hint.append(f"--jobs {args.jobs}")
        if args.no_telemetry:
            hint.append("--no-telemetry")
        if args.heartbeat_timeout is not None:
            hint.append(f"--heartbeat-timeout {args.heartbeat_timeout:g}")
        if args.poison_threshold is not None:
            hint.append(f"--poison-threshold {args.poison_threshold}")
        if args.backend is not None:
            hint.append(f"--backend {args.backend}")
        hint.append("--resume")
        print("resume with: " + " ".join(hint))
    return 130 if report.interrupted else 0


def cmd_inspect(args) -> int:
    """Post-mortem viewer: flight dumps, campaign timelines, telemetry."""
    from pathlib import Path

    target = Path(args.path)
    if target.is_file():
        return _inspect_file(target, args)
    if target.is_dir():
        return _inspect_dir(target, args)
    print(f"error: no such file or directory: {target}", file=sys.stderr)
    return 2


def _inspect_file(path, args) -> int:
    """Render one file: a flight dump, a record carrying one, or a
    telemetry capsule journal."""
    from .sim import format_flight_dump

    if path.suffix == ".jsonl":
        from .obs import load_capsules
        from .obs.merge import format_campaign_timeline

        try:
            capsules = load_capsules(path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_campaign_timeline(capsules))
        return 0
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    if isinstance(doc, dict) and isinstance(doc.get("flight"), dict):
        doc = doc["flight"]  # a journal record wrapping a dump
    if not (isinstance(doc, dict) and "events" in doc and "format" in doc):
        print(f"error: {path} is not a flight dump "
              f"(expected 'format' and 'events' keys)", file=sys.stderr)
        return 2
    print(format_flight_dump(doc, last=args.last))
    return 0


def _format_cursor(cursor, indent="  ") -> str:
    """One line for a heartbeat cursor."""
    parts = [f"last cursor: event {cursor.get('events', '?')}"]
    if cursor.get("virtual_time") is not None:
        parts.append(f"t={cursor['virtual_time']:.6g}s virtual")
    if cursor.get("wall_seconds") is not None:
        parts.append(f"{cursor['wall_seconds']:.2f}s wall")
    if cursor.get("staleness_s") is not None:
        parts.append(f"stale for {cursor['staleness_s']:.1f}s at death")
    return indent + ", ".join(parts)


def _inspect_store(path, stats: dict) -> int:
    """Render result-store statistics (serve-side `repro inspect STORE`)."""
    total = stats["hits"] + stats["misses"]
    rate = f"{stats['hits'] / total:.0%}" if total else "n/a"
    print(f"Result store: {path}")
    print(f"  {stats['entries']} entries ({stats['bytes']:,} bytes) "
          f"across {stats['contexts']} execution context(s)")
    print(f"  {stats['warm_calibrations']} warm calibration(s)")
    print(f"  lifetime: {stats['hits']} hits, {stats['misses']} misses "
          f"(hit rate {rate}), {stats['puts']} puts, "
          f"{stats['evictions']} evictions")
    return 0


def _inspect_dir(path, args) -> int:
    """Render a campaign output directory: header, per-run timeline,
    aggregate metrics, heartbeat cursors, quarantined runs and the
    flight dumps of failed runs."""
    from .obs import TableSink, load_capsules
    from .obs.merge import aggregate_metrics, format_campaign_timeline
    from .sim import format_flight_dump
    from .util.atomic_io import read_jsonl
    from .workflow.campaign import JOURNAL_NAME, QUARANTINE_DIR_NAME, TELEMETRY_NAME

    journal_path = path / JOURNAL_NAME
    if not journal_path.exists():
        # not a campaign directory — maybe a result store (`repro serve`)
        from .store import scan_store

        stats = scan_store(path)
        if stats is not None:
            return _inspect_store(path, stats)
        print(f"error: {path} has no {JOURNAL_NAME} and no result store; "
              f"not a campaign or store directory", file=sys.stderr)
        return 2
    try:
        docs = read_jsonl(journal_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = docs[0] if docs and docs[0].get("type") == "campaign" else {}
    runs: dict[str, dict] = {}
    for doc in docs:
        if doc.get("type") == "run":
            runs[doc["run_id"]] = doc  # last record for a run wins
    if args.run is not None:
        matches = [d for rid, d in runs.items() if rid.startswith(args.run)]
        if not matches:
            print(f"error: no journaled run with id {args.run!r}", file=sys.stderr)
            return 2
        if len(matches) > 1:
            print(f"error: run id {args.run!r} is ambiguous "
                  f"({len(matches)} matches)", file=sys.stderr)
            return 2
        runs = {matches[0]["run_id"]: matches[0]}
    failed = [d for d in runs.values() if d.get("outcome") != "ok"]
    total = header.get("total_runs", len(runs))
    print(f"Campaign: {header.get('name', path.name)} "
          f"(config {header.get('config_hash', '?')}) — "
          f"{len(runs)}/{total} runs journaled, "
          f"{len(runs) - len(failed)} ok, {len(failed)} failed")

    telemetry_path = path / TELEMETRY_NAME
    if telemetry_path.exists():
        try:
            capsules = load_capsules(telemetry_path)
        except ValueError as exc:
            print(f"warning: unreadable telemetry journal: {exc}", file=sys.stderr)
            capsules = []
        latest = {cap.run_id: cap for cap in capsules}
        if args.run is not None:
            latest = {rid: c for rid, c in latest.items() if rid in runs}
        capsules = list(latest.values())
        if capsules:
            print()
            print(format_campaign_timeline(capsules))
            print()
            print("Aggregate campaign metrics (all workers merged):")
            print(TableSink.render(aggregate_metrics(capsules)))
            if args.perfetto:
                from .obs.merge import write_merged_perfetto

                write_merged_perfetto(
                    args.perfetto, capsules,
                    meta={"campaign": header.get("name", path.name)},
                )
                print(f"\nmerged Perfetto timeline written to {args.perfetto} "
                      f"(open in ui.perfetto.dev)")
    elif args.perfetto:
        print("error: --perfetto needs a telemetry journal "
              f"({TELEMETRY_NAME}); run the campaign with telemetry on",
              file=sys.stderr)
        return 2

    for doc in sorted(failed, key=lambda d: d.get("index", 0)):
        print()
        print(f"Run {doc['run_id']} finished {doc['outcome']} "
              f"(attempts {doc.get('attempts', 1)}): {doc.get('error') or ''}")
        if isinstance(doc.get("cursor"), dict):
            print(_format_cursor(doc["cursor"]))
        if isinstance(doc.get("flight"), dict):
            print(format_flight_dump(doc["flight"], last=args.last))
        else:
            print("  (no flight dump journaled for this run)")

    # quarantine artifacts: poison runs with their minimized reproducers
    q_dir = path / QUARANTINE_DIR_NAME
    if q_dir.is_dir():
        for q_path in sorted(q_dir.glob("*.json")):
            try:
                q = json.loads(q_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if args.run is not None and \
                    not str(q.get("run_id", "")).startswith(args.run):
                continue
            print()
            print(f"Quarantined run {q.get('run_id')} "
                  f"({q.get('strikes', '?')} strike(s)): {q.get('error') or ''}")
            if isinstance(q.get("cursor"), dict):
                print(_format_cursor(q["cursor"]))
            repro_info = q.get("reproducer") or {}
            if repro_info.get("minimized"):
                print(f"  minimized reproducer: "
                      f"{repro_info.get('original_stmts')} -> "
                      f"{repro_info.get('final_stmts')} statements "
                      f"({repro_info.get('checks')} probe(s)); see {q_path}")
            elif repro_info.get("note"):
                print(f"  reproducer: {repro_info['note']}")
    return 0


def cmd_fuzz(args) -> int:
    """Differentially fuzz the compiler pipeline with generated programs."""
    from .gen import FuzzConfig, FuzzError, FuzzRunner, GrammarConfig, GrammarError
    from .gen.corpus import CorpusError, discover_corpus
    from .gen.harness import DiffConfig

    if args.check_corpus is not None:
        try:
            cases = discover_corpus(args.check_corpus)
        except CorpusError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for case in cases:
            print(f"  {case.name}: expect={case.expect} nprocs={case.nprocs}"
                  + (f"  ({case.reason})" if case.reason else ""))
        print(f"{len(cases)} regression case(s) OK")
        return 0

    try:
        grammar = GrammarConfig.load(args.grammar) if args.grammar else GrammarConfig()
        diff = DiffConfig(
            nprocs=args.nprocs,
            calib_nprocs=args.nprocs,
            machine=args.machine,
            tolerance_pct=args.tolerance,
            backend=args.backend,
        )
        config = FuzzConfig(
            seeds=args.seeds,
            seed0=args.seed0,
            out_dir=args.out,
            grammar=grammar,
            diff=diff,
            minimize=not args.no_minimize,
            budget_seconds=args.budget,
            inject_seed=args.inject_divergence,
        )
        runner = FuzzRunner(config)

        def progress(seed, verdict):
            if not verdict.ok:
                print(f"  seed {seed}: {verdict.failure}: {verdict.detail}")

        report = runner.run(resume=args.resume, progress=progress)
    except (FuzzError, GrammarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    print(f"report written to {runner.report_path}")
    if report.stopped == "budget":
        hint = [f"python -m repro fuzz --seeds {args.seeds}", f"--out {args.out}"]
        if args.seed0:
            hint.append(f"--seed0 {args.seed0}")
        if args.grammar:
            hint.append(f"--grammar {args.grammar}")
        if args.budget is not None:
            hint.append(f"--budget {args.budget:g}")
        if args.backend != "interpreted":
            hint.append(f"--backend {args.backend}")
        hint.append("--resume")
        print("resume with: " + " ".join(hint))
    return 1 if report.completed > report.ok else 0


def cmd_serve(args) -> int:
    """Run the simulation service until SIGTERM/SIGINT."""
    from .serve import run_server
    from .store import StoreInUseError

    try:
        return run_server(
            args.store,
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            max_bytes=args.max_store_bytes,
            max_inflight=args.max_inflight,
            events_per_second=args.tenant_quota,
            backend=args.backend,
        )
    except StoreInUseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_query(args) -> int:
    """One what-if query: against a server, a local store, or inline."""
    from .api import ApiError, RunResult
    from .store import StoreInUseError

    run = request_from_args(args, nprocs=args.nprocs, mode=args.mode)
    context = {
        "machine": args.machine,
        "calib_procs": args.calib_procs,
        **{k: v for k, v in _budget_kwargs(args).items() if v is not None},
    }
    doc = {"run": run.to_json(), **context}
    try:
        if args.server:
            from .serve import ServiceClient

            host, _, port = args.server.partition(":")
            client = ServiceClient(host or "127.0.0.1", int(port or 8642),
                                   tenant=args.tenant)
            try:
                out = client._request("POST", "/v1/run", doc)
            except OSError as exc:  # refused, reset, timed out, no route
                print(f"error: cannot reach server {args.server}: {exc}", file=sys.stderr)
                return 2
        elif args.store:
            from .serve import SimulationService
            from .store import ResultStore

            store = ResultStore(args.store)
            try:
                out = SimulationService(store, jobs=args.jobs).handle_run(doc)
            finally:
                store.close()
        else:  # no cache anywhere: execute inline
            from .workflow.campaign import execute_request

            rec = execute_request(
                run, machine=args.machine, calib_procs=args.calib_procs,
                **_budget_kwargs(args),
            )
            out = {"result": RunResult.from_record(rec).to_json(),
                   "cached": False, "context": None}
    except ApiError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        if exc.retry_after is not None:
            print(f"retry after {exc.retry_after:g}s", file=sys.stderr)
        return 3 if exc.http_status == 429 else 2
    except (ValueError, StoreInUseError) as exc:  # bad --server, unknown app, busy store
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0
    result = RunResult.from_json(out["result"])
    source = "cache hit" if out.get("cached") else "executed"
    line = f"{run.describe()}: {result.outcome}"
    if result.elapsed is not None:
        line += f" in {result.elapsed:.6g}s virtual"
    line += f" ({result.events} events, {source})"
    print(line)
    print(f"  run {result.run_id}"
          + (f", context {out['context']}" if out.get("context") else ""))
    return 0 if result.ok else 1


def cmd_profile(args) -> int:
    """Profile one run: dual-clock spans, trace analyses, exports."""
    from dataclasses import replace

    from .obs import (
        METRICS,
        TRACER,
        JsonlSink,
        comm_matrix,
        critical_path,
        detect_scaling_loss,
        format_comm_matrix,
        format_critical_path,
        format_scaling_loss,
        format_spans,
        write_perfetto,
    )
    from .kernel import cache_stats, clear_cache
    from .workflow.campaign import request_runner

    request = request_from_args(args, nprocs=args.nprocs, mode=args.mode)
    if args.out:
        # --out DIR: collect every artifact under one directory, using
        # default names for whatever was not explicitly pointed elsewhere
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        args.perfetto = args.perfetto or str(out_dir / "profile.perfetto.json")
        args.metrics = args.metrics or str(out_dir / "metrics.jsonl")
        args.trace = args.trace or str(out_dir / "trace.jsonl.gz")
        args.stats = args.stats or str(out_dir / "stats.csv")
    clear_cache()  # the backend line counts the lowering this command does
    # The traced runs stay direct calls (a request carries no trace), on
    # the workflow the runner gives a run of this request.
    runner = request_runner([request], args.machine, calib_procs=args.calib_procs)
    with _one_line_failure(request):
        wf = runner._workflow_for(request)
    estimator = {
        "am": wf.run_am, "de": wf.run_de,
        "measured": lambda inputs, nprocs, **kw: wf.run_measured(
            inputs, nprocs, seed=request.seed, **kw),
    }[args.mode]

    def run_at(nprocs: int):
        inputs = runner._resolved_inputs(replace(request, nprocs=nprocs))
        return estimator(inputs, nprocs, collect_trace=True)

    TRACER.enable()
    METRICS.enable()
    try:
        with _one_line_failure(request):
            result = run_at(args.nprocs)
            # the last run so far is this one: any calibration ran before it
            run_span = [sp for sp in TRACER.spans if sp.name == "sim.run"][-1]
            scaling_traces = {args.nprocs: result.trace}
            if args.scaling_loss:
                for p in args.procs:
                    if p not in scaling_traces:
                        scaling_traces[p] = run_at(p).trace
    finally:
        TRACER.disable()
        METRICS.disable()

    # the kernel the traced run ran, and the lowering the command did
    ks = cache_stats()
    active = run_span.attrs["backend"]
    if "fallback" in run_span.attrs:
        active += f" (fell back: {run_span.attrs['fallback']})"

    print(f"Profile: {args.app} ({args.mode}, {args.nprocs} procs, {args.machine})")
    print(f"  {result.stats.summary()}")
    print(f"  backend: active={active}; "
          f"lowered {ks['lowered']} program(s) in {ks['lowering_seconds'] * 1e3:.1f} ms, "
          f"cache {ks['cache_hits']} hit(s) / {ks['cache_misses']} miss(es)")
    print()
    print(format_spans(TRACER.spans))
    if args.critical_path:
        print()
        print(format_critical_path(critical_path(result.trace)))
    if args.comm_matrix:
        print()
        print(format_comm_matrix(comm_matrix(result.trace)))
    if args.scaling_loss:
        print()
        print(format_scaling_loss(detect_scaling_loss(scaling_traces)))
    if args.perfetto:
        write_perfetto(
            args.perfetto, trace=result.trace, spans=TRACER.spans,
            meta={"app": args.app, "mode": args.mode, "nprocs": args.nprocs,
                  "machine": args.machine, "repro_version": __version__},
        )
        print(f"\nPerfetto trace written to {args.perfetto} (open in ui.perfetto.dev)")
    if args.metrics:
        METRICS.flush(JsonlSink(args.metrics))
        print(f"metrics written to {args.metrics}")
    if args.trace:
        from .sim import save_trace

        save_trace(result.trace, args.trace)
        print(f"raw trace written to {args.trace}")
    if args.stats:
        from .workflow import write_stats_csv

        write_stats_csv(result.stats, args.stats)
        print(f"per-rank statistics written to {args.stats}")
    if args.out:
        from pathlib import Path

        from .util.atomic_io import atomic_write

        out_dir = Path(args.out)
        artifacts = {
            "perfetto": args.perfetto,
            "metrics": args.metrics,
            "trace": args.trace,
            "stats": args.stats,
        }
        manifest = {
            "app": args.app,
            "mode": args.mode,
            "nprocs": args.nprocs,
            "machine": args.machine,
            "repro_version": __version__,
            "elapsed_s": result.elapsed,
            "artifacts": {
                kind: (str(Path(path).relative_to(out_dir))
                       if Path(path).is_relative_to(out_dir) else str(path))
                for kind, path in artifacts.items() if path
            },
        }
        with atomic_write(out_dir / "manifest.json") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        print(f"profile artifacts collected in {out_dir} (manifest.json)")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compiler-supported simulation of message-passing applications (SC'99).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v info, -vv debug); place before the subcommand",
    )
    parser.add_argument(
        "--log-level", metavar="LEVEL", default=None,
        help="explicit log level name (debug/info/warning/error); overrides -v",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list available applications").set_defaults(fn=cmd_apps)

    def add_app_command(name, fn, help_, with_procs=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("app", help="application name (see 'apps')")
        add_machine_args(p)
        if with_procs:
            p.add_argument("--procs", type=_positive_int, nargs="+", default=[4, 16, 64],
                           help="target processor counts")
            p.add_argument("--calib-procs", type=_positive_int, default=16,
                           help="calibration processor count (default 16)")
            add_seed_arg(p, "noise seed for MEASURED-mode runs (reproducibility)")
        p.set_defaults(fn=fn)
        return p

    add_app_command("compile", cmd_compile, "show the compiler's output for an app")
    stg_p = add_app_command("stg", cmd_stg, "print the static task graph")
    stg_p.add_argument("--dot", metavar="FILE", help="write graphviz DOT instead of text")
    v = add_app_command("validate", cmd_validate, "measured vs DE vs AM", with_procs=True)
    v.add_argument("--no-de", action="store_true", help="skip the direct-execution simulator")
    add_jobs_arg(v, "worker processes for the sweep (0 = all cores, default 1)")
    pr = add_app_command("predict", cmd_predict, "performance predictions", with_procs=True)
    pr.add_argument("--method", choices=("am", "taskgraph", "sum"), default="am",
                    help="predictor: simulated AM (default), task-graph analysis, per-rank sum")
    add_app_command("memory", cmd_memory, "simulator memory estimates", with_procs=True)
    c = add_app_command("calibrate", cmd_calibrate, "measure w_i and write a parameter file")
    c.add_argument("--calib-procs", type=_positive_int, default=16,
                   help="measurement processor count")
    c.add_argument("--seed", type=int, default=0, help="measurement noise seed")
    c.add_argument("-o", "--output", default="wparams.json", help="parameter file path")

    f = add_app_command(
        "faults", cmd_faults, "run an app under a fault plan; print the resilience report"
    )
    f.add_argument("--nprocs", type=_positive_int, default=16,
                   help="target processor count (default 16)")
    f.add_argument("--mode", choices=("am", "de", "measured"), default="de",
                   help="estimator to run under faults (default de)")
    f.add_argument("--plan", metavar="FILE", help="JSON fault-plan file (see DESIGN.md)")
    f.add_argument("--crash", action="append", metavar="RANK@TIME",
                   help="crash a rank at a virtual time (repeatable)")
    f.add_argument("--loss", type=float, default=None, metavar="P",
                   help="message-loss probability in [0,1]")
    f.add_argument("--dup", type=float, default=None, metavar="P",
                   help="message-duplication probability in [0,1]")
    f.add_argument("--send-fail", type=float, default=None, metavar="P",
                   help="transient send-failure probability in [0,1]")
    f.add_argument("--degrade", action="append", metavar="SRC:DST:START:END:LATx:BWx",
                   help="degrade a link over a time window (use * for any rank)")
    f.add_argument("--retry", metavar="MAX[:BACKOFF[:FACTOR]]",
                   help="retry policy for lost/failed messages (e.g. 5:1e-4:2)")
    f.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="default watchdog timeout for blocking sends/receives")
    f.add_argument("--fault-seed", type=int, default=None,
                   help="fault plan seed (deterministic replay)")
    add_seed_arg(f, "noise seed for --mode measured runs")
    f.add_argument("--calib-procs", type=_positive_int, default=None,
                   help="calibration processor count for --mode am")
    f.add_argument("--sweep", type=float, nargs="+", metavar="LOSS",
                   help="run a fault sweep over these loss rates instead of one run")
    f.add_argument("--csv", metavar="FILE",
                   help="write per-rank statistics (fault counters included) as CSV")
    f.add_argument("--flight-dump", metavar="FILE",
                   help="arm the flight recorder and write its dump as JSON "
                        "(render with 'repro inspect FILE')")

    camp = sub.add_parser(
        "campaign",
        help="run (or resume) a crash-safe grid of experiments with a journal",
    )
    camp.add_argument("--grid", required=True, metavar="FILE",
                      help="JSON grid file: apps x modes x nprocs x inputs x fault plans")
    camp.add_argument("--out", default="campaign-out", metavar="DIR",
                      help="output directory for the journal and results.csv")
    camp.add_argument("--resume", action="store_true",
                      help="replay the journal, skip completed runs, finish the rest")
    camp.add_argument("--machine", default=None,
                      help="override the grid's machine preset")
    add_budget_args(camp)
    camp.add_argument("--retries", type=_nonneg_int, default=None,
                      help="re-run attempts for 'error' outcomes (exponential backoff)")
    camp.add_argument("--max-runs", type=_positive_int, default=None,
                      help="execute at most this many runs, then stop (resumable)")
    add_jobs_arg(camp, "worker processes for independent grid cells "
                      "(0 = all cores, default 1); output is identical "
                      "to a sequential run")
    camp.add_argument("--live", action="store_true",
                      help="single-line live progress (runs done, ok/failed/"
                           "retried, aggregate events/sec, ETA)")
    camp.add_argument("--no-telemetry", action="store_true",
                      help="skip per-run telemetry capsules and the merged "
                           "Perfetto timeline (telemetry.jsonl, "
                           "campaign.perfetto.json)")
    camp.add_argument("--heartbeat-timeout", type=_positive_float, default=None,
                      metavar="SECONDS",
                      help="kill a worker whose run has not emitted a "
                           "heartbeat for this long and classify the run "
                           "'hung' (default 30)")
    camp.add_argument("--poison-threshold", type=_positive_count, default=None,
                      metavar="N",
                      help="quarantine a run as 'poison' after it kills or "
                           "hangs N workers (default 2)")
    add_backend_arg(camp)
    camp.set_defaults(fn=cmd_campaign)

    srv = sub.add_parser(
        "serve",
        help="run the simulation service: HTTP/JSON campaigns and what-ifs "
             "deduplicated against a content-addressed result store",
    )
    srv.add_argument("--store", required=True, metavar="DIR",
                     help="result-store directory (created if missing)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=_nonneg_int, default=8642,
                     help="TCP port (default 8642; 0 = ephemeral)")
    add_jobs_arg(srv, "worker processes per cache-miss batch "
                      "(0 = all cores, default 1)")
    srv.add_argument("--max-inflight", type=_positive_count, default=4,
                     metavar="N",
                     help="per-tenant concurrent-request cap; requests over "
                          "it get 429 (default 4)")
    srv.add_argument("--tenant-quota", type=_positive_float, default=None,
                     metavar="EVENTS_PER_SEC",
                     help="per-tenant simulator-event budget: a token bucket "
                          "refilled at this rate, charged post-paid; "
                          "overdrawn tenants get 429 + Retry-After")
    srv.add_argument("--max-store-bytes", type=_positive_int, default=None,
                     metavar="BYTES",
                     help="LRU-evict stored results beyond this many bytes")
    add_backend_arg(srv)
    srv.set_defaults(fn=cmd_serve)

    q = sub.add_parser(
        "query",
        help="one what-if query: ask a running server, or answer from a "
             "local store, or execute inline",
    )
    q.add_argument("app", help="application name (see 'apps')")
    add_machine_args(q)
    q.add_argument("--mode", choices=("am", "de", "measured"), default="de",
                   help="estimator to query (default de)")
    q.add_argument("--nprocs", type=_positive_int, default=16,
                   help="target processor count (default 16)")
    add_seed_arg(q)
    q.add_argument("--timeout", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="watchdog timeout for blocking sends/receives")
    q.add_argument("--calib-procs", type=_positive_int, default=None,
                   help="calibration processor count (default: the run's "
                        "nprocs, at most 16)")
    add_budget_args(q)
    add_jobs_arg(q, "worker processes for a --store cache miss (default 1)")
    q.add_argument("--server", metavar="HOST:PORT",
                   help="query a running 'repro serve' instance")
    q.add_argument("--store", metavar="DIR",
                   help="serverless mode: answer from this result store, "
                        "executing and filling it on a miss")
    q.add_argument("--tenant", default=None,
                   help="tenant name sent as X-Tenant (admission control)")
    q.add_argument("--json", action="store_true",
                   help="print the raw JSON response document")
    q.set_defaults(fn=cmd_query)

    ins = sub.add_parser(
        "inspect",
        help="post-mortem viewer: campaign out-dirs, result stores, "
             "flight dumps, telemetry",
    )
    ins.add_argument("path",
                     help="campaign output directory, flight-dump JSON file, "
                          "or telemetry .jsonl journal")
    ins.add_argument("--run", metavar="RUN_ID", default=None,
                     help="restrict to one run (unique run-id prefix)")
    ins.add_argument("--last", type=_positive_count, default=10, metavar="N",
                     help="flight-recorder events to show per rank (default 10)")
    ins.add_argument("--perfetto", metavar="FILE",
                     help="write the merged campaign timeline as Perfetto JSON")
    ins.set_defaults(fn=cmd_inspect)

    fz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the pipeline with generated programs "
             "(measured vs DE vs AM), auto-minimizing divergences",
    )
    fz.add_argument("--seeds", type=_positive_count, default=100,
                    help="number of generated programs (default 100)")
    fz.add_argument("--seed0", type=_nonneg_int, default=0,
                    help="first seed of the contiguous range (default 0)")
    fz.add_argument("--out", default="fuzz-out", metavar="DIR",
                    help="output directory: journal.jsonl, report.json, minimized/")
    fz.add_argument("--grammar", metavar="FILE",
                    help="JSON grammar config (budgets, pattern weights, toggles)")
    fz.add_argument("--budget", type=_positive_float, default=None, metavar="SECONDS",
                    help="wall-clock budget; stop starting new seeds when exceeded")
    fz.add_argument("--resume", action="store_true",
                    help="replay the journal, skip completed seeds, finish the rest")
    fz.add_argument("--no-minimize", action="store_true",
                    help="skip delta-debugging of divergent programs")
    fz.add_argument("--nprocs", type=_positive_int, default=4,
                    help="simulated processor count per program (default 4)")
    add_machine_args(fz, with_set=False)
    fz.add_argument("--tolerance", type=_positive_float, default=15.0,
                    metavar="PCT",
                    help="noise slack in percentage points on the AM >= DE "
                         "error ordering (default 15)")
    fz.add_argument("--check-corpus", metavar="DIR",
                    help="validate a regression-corpus directory and exit")
    fz.add_argument("--inject-divergence", type=_nonneg_int, default=None,
                    metavar="SEED",
                    help="force one seed to report a synthetic divergence "
                         "(exercises the minimizer end-to-end)")
    fz.add_argument("--backend", choices=("interpreted", "compiled", "auto"),
                    default="interpreted",
                    help="also run every valid program on this kernel backend "
                         "and fail on any stats/trace divergence from the "
                         "interpreted kernel (default interpreted = off)")
    fz.set_defaults(fn=cmd_fuzz)

    prof = add_app_command(
        "profile", cmd_profile,
        "profile a run: spans, critical path, comm matrix, Perfetto export",
    )
    prof.add_argument("--nprocs", type=_positive_int, default=16,
                      help="target processor count (default 16)")
    prof.add_argument("--mode", choices=("am", "de", "measured"), default="de",
                      help="estimator to profile (default de)")
    add_seed_arg(prof, "noise seed for --mode measured runs")
    prof.add_argument("--calib-procs", type=_positive_int, default=None,
                      help="calibration processor count for --mode am")
    prof.add_argument("--perfetto", metavar="FILE",
                      help="write a Chrome/Perfetto trace-event JSON timeline")
    prof.add_argument("--critical-path", action="store_true",
                      help="report per-rank/per-kind contributions to the elapsed time")
    prof.add_argument("--comm-matrix", action="store_true",
                      help="report the rank x rank message/byte matrix")
    prof.add_argument("--scaling-loss", action="store_true",
                      help="diff traces across --procs and rank fastest-growing event kinds")
    prof.add_argument("--procs", type=_positive_int, nargs="+", default=[4, 16],
                      help="extra processor counts for --scaling-loss (default 4 16)")
    prof.add_argument("--metrics", metavar="FILE",
                      help="write the metrics registry snapshot as JSONL")
    prof.add_argument("--trace", metavar="FILE",
                      help="save the raw event trace (.jsonl or .jsonl.gz)")
    prof.add_argument("--stats", metavar="FILE",
                      help="write per-rank statistics as CSV")
    prof.add_argument("--out", metavar="DIR",
                      help="collect all artifacts (Perfetto, metrics, trace, "
                           "stats CSV) under DIR with a manifest.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .obs.logging import configure_logging, verbosity_to_level

    configure_logging(
        args.log_level if args.log_level is not None
        else verbosity_to_level(args.verbose)
    )
    if getattr(args, "machine", None) is not None:
        # every command that takes --machine: one line and exit 2, as a
        # grid's unknown machine, before anything runs
        from .machine import get_machine

        try:
            get_machine(args.machine)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. `repro inspect ... | head`): not an error,
        # but Python would print a traceback at interpreter shutdown unless
        # the dangling descriptor is replaced
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
