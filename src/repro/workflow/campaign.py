"""Resumable experiment campaigns: journaled restart for multi-run sweeps.

The paper's headline experiments are *campaigns* — grids of simulation
runs over processor counts × problem sizes × fault plans.  A single
OOM, runaway configuration or Ctrl-C used to lose the whole sweep and
could leave truncated artifacts behind.  This module makes campaigns
crash-safe:

* A campaign is a **declarative grid** (:func:`load_grid` /
  :func:`expand_grid`) expanded into :class:`~repro.api.RunRequest`
  entries, each with a content-hash ``run_id``; the whole configuration has a
  ``config_hash`` so a journal can prove it belongs to this grid.
* Progress is journaled to an append-only JSONL journal
  (:class:`repro.util.atomic_io.AtomicJournal`, one ``O_APPEND`` write
  + fsync per record), so the loaded journal is a complete prefix of
  the logical one at every instant: a crash can tear only the final
  line, which loading drops and the next append truncates.
* ``resume=True`` replays the journal, verifies the config hash, skips
  runs that already completed ``ok`` and re-runs only failed or missing
  ones.  The engine is deterministic under a fixed seed, so a resumed
  campaign's results are **bit-identical** to an uninterrupted one.
* Each run executes under watchdog budgets
  (:class:`repro.sim.BudgetGuard`) and bounded retry with exponential
  backoff; outcomes are classified ``ok / deadlock / timeout / budget /
  error / hung / poison`` (``timeout`` = the wall-clock budget tripped,
  ``budget`` = the event or virtual-time budget tripped, ``hung`` = the
  supervisor killed a run whose heartbeats went stale, ``poison`` = a
  spec that repeatedly killed or hung its worker was quarantined — see
  :mod:`repro.workflow.supervisor`).
* SIGINT/SIGTERM interrupt the campaign *between* journal records: the
  journal stays consistent, an ``interrupted`` marker is appended, and
  the CLI prints a resume hint.  A run the signal lands in (or a killed
  worker was running) has no record, so ``--resume`` re-runs it from
  event zero under its full budgets.
* With ``telemetry=True`` every run executes inside a
  :class:`~repro.obs.capsule.capture_run` with the flight recorder armed:
  the worker ships a :class:`~repro.obs.capsule.TelemetryCapsule` back to
  the parent, which journals it to ``telemetry.jsonl`` through the same
  append (:func:`~repro.util.atomic_io.append_jsonl`) and, once the
  campaign completes, fuses all capsules into
  ``campaign.perfetto.json`` — one merged timeline with a
  track per worker process and per run.  Failed runs additionally attach
  the flight-recorder dump (last-N kernel events, wait chains, budget
  state) to their journal record for ``repro inspect``.
* Every command that simulates runs through this runner:
  :func:`run_requests` executes a list of requests under one context
  (no journal) and returns their final records in request order.
  ``validate``, ``predict``, ``faults`` and inline ``query``
  (:func:`execute_request`) call it; ``calibrate``, ``profile`` and the
  analytic predictors take their calibrated workflow from the same
  resolution (:func:`request_runner`, ``_workflow_for``).
"""

from __future__ import annotations

import json
import math
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..api import ApiError, CampaignRequest, RunRequest, canonical_json
from ..apps import APPS, resolve_app
from ..machine import get_machine
from ..measure import Calibration
from ..obs.logging import get_logger
from ..obs.metrics import METRICS
from ..obs.spans import TRACER
from ..sim.budget import BudgetExceededError
from ..sim.engine import DeadlockError
from ..sim.faults import FaultPlan, RetryPolicy
from ..sim.flightrec import FLIGHT
from ..util.atomic_io import AtomicJournal, append_jsonl, atomic_write
from .pipeline import ModelingWorkflow

__all__ = [
    "CampaignError",
    "CampaignInterrupted",
    "CampaignConfig",
    "RunRecord",
    "CampaignReport",
    "CampaignRunner",
    "load_grid",
    "expand_grid",
    "execute_request",
    "request_runner",
    "run_requests",
    "warn_unless_ok",
    "format_campaign_report",
    "JOURNAL_NAME",
    "RESULTS_NAME",
    "TELEMETRY_NAME",
    "MERGED_PERFETTO_NAME",
    "QUARANTINE_DIR_NAME",
    "OUTCOMES",
    "TERMINAL_OUTCOMES",
]

_log = get_logger("workflow.campaign")

JOURNAL_NAME = "campaign.journal.jsonl"
RESULTS_NAME = "results.csv"
TELEMETRY_NAME = "telemetry.jsonl"
MERGED_PERFETTO_NAME = "campaign.perfetto.json"
QUARANTINE_DIR_NAME = "quarantine"
_JOURNAL_VERSION = 1

#: outcome classes a run record may carry; ``hung`` = the supervisor
#: killed the run when its heartbeats went stale, ``poison`` = the spec
#: repeatedly killed or hung its worker and was quarantined.  ``ok``
#: and ``poison`` are terminal on resume; everything else re-runs.
OUTCOMES = ("ok", "deadlock", "timeout", "budget", "error", "hung", "poison")

#: outcomes a resumed campaign does not re-run
TERMINAL_OUTCOMES = ("ok", "poison")


class CampaignError(RuntimeError):
    """A campaign cannot proceed: bad grid, corrupt or foreign journal.

    The CLI renders these as a one-line ``error: ...`` message."""


class CampaignInterrupted(BaseException):
    """Raised by the signal handlers to stop a campaign between runs.

    Deliberately a ``BaseException`` so the per-run ``error`` classifier
    (which catches ``Exception``) can never swallow an interrupt.
    """

    def __init__(self, signum: int):
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


#: the one canonical JSON encoding, shared with :mod:`repro.api`
_canonical = canonical_json


# -- the declarative grid ------------------------------------------------------


@dataclass
class CampaignConfig:
    """A campaign: the request it executes plus how to execute it.

    Everything that shapes results is in :attr:`request`, whose
    :meth:`~repro.api.CampaignRequest.content_hash` is the journal's
    ``config_hash``; the other fields are execution policy and never
    feed it.
    """

    request: CampaignRequest
    # -- supervision policy (execution-side, like ``jobs``: it decides how
    # pathological runs are scheduled/killed, never what a healthy run
    # computes, and records are keyed by run_id so non-terminal outcomes
    # simply re-run) --------------------------------------------------------
    heartbeat_timeout: float | None = 30.0  # stale-cursor deadline; None = off
    poison_threshold: int = 2  # worker deaths/hangs before quarantine
    # -- serving policy (set by repro.serve and request_runner, never by
    # the grid CLI): calib_from_spec makes every run calibrate from its
    # *own* spec (single-cell semantics) instead of the first grid cell
    # of its (app, seed) group, so a run's result is a pure function of
    # (request, context) — the property the content-addressed store
    # needs; calibrations maps warm_calibration_key -> a stored
    # Calibration.to_json() document (None: no warm starts).
    calib_from_spec: bool = False
    calibrations: dict[str, dict] | None = None
    # -- kernel backend ("interpreted" | "compiled" | "auto"; None =
    # Simulator's default): results are byte-identical across backends,
    # so a journal written interpreted resumes compiled and vice versa.
    backend: str | None = None


def load_grid(path: str | Path) -> CampaignConfig:
    """Load and expand a JSON grid file; raise :class:`CampaignError`."""
    path = Path(path)
    try:
        grid = json.loads(path.read_text())
    except OSError as exc:
        raise CampaignError(f"cannot read grid file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CampaignError(f"grid file {path} is not valid JSON: {exc}") from None
    if not isinstance(grid, dict):
        raise CampaignError(f"grid file {path} must contain a JSON object")
    grid.setdefault("name", path.stem)
    return expand_grid(grid)


def expand_grid(grid: dict) -> CampaignConfig:
    """Expand a grid dict into the cross-product of its axes.

    Axes: ``apps`` × ``modes`` × ``nprocs`` × ``input_sets`` ×
    ``fault_plans``; everything else configures execution.  The expanded
    campaign must pass :meth:`repro.api.CampaignRequest.validate`, the
    check a typed request gets.  Raises :class:`CampaignError` on a
    malformed grid.
    """
    try:
        config = _expand_grid(grid)
        config.request.validate()
    except (ApiError, TypeError, ValueError) as exc:
        raise CampaignError(f"invalid grid: {exc}") from None
    return config


def _expand_grid(grid: dict) -> CampaignConfig:
    def bad(msg: str) -> CampaignError:
        return CampaignError(f"invalid grid: {msg}")

    known = {
        "name", "machine", "app", "apps", "modes", "nprocs", "inputs",
        "input_sets", "fault_plans", "seed", "timeout", "retry", "budgets",
        "retries", "backoff", "calib_procs", "supervision",
    }
    unknown = set(grid) - known
    if unknown:
        raise bad(f"unknown keys {sorted(unknown)}")
    apps = grid.get("apps", grid.get("app"))
    if apps is None:
        raise bad("missing 'app' (or 'apps')")
    if isinstance(apps, str):
        apps = [apps]
    nprocs_list = grid.get("nprocs")
    if not isinstance(nprocs_list, list) or not nprocs_list:
        raise bad("'nprocs' must be a non-empty list of processor counts")
    for p in nprocs_list:
        if not isinstance(p, int) or p < 1:
            raise bad(f"bad processor count {p!r}")
    modes = grid.get("modes", ["de"])
    common = grid.get("inputs", {})
    input_sets = grid.get("input_sets", [{}])
    if not isinstance(input_sets, list) or not input_sets:
        raise bad("'input_sets' must be a non-empty list of override dicts")
    fault_plans = grid.get("fault_plans", [None])
    plans: list[str | None] = []
    for fp in fault_plans:
        if fp is None:
            plans.append(None)
            continue
        try:
            FaultPlan.from_dict(fp)  # validate now, fail before any run
        except (TypeError, ValueError) as exc:
            raise bad(f"bad fault plan {fp!r}: {exc}") from None
        plans.append(_canonical(fp))
    seed = int(grid.get("seed", 0))
    timeout = grid.get("timeout")
    retry = grid.get("retry")
    if retry is not None:
        try:
            RetryPolicy(**retry)
        except (TypeError, ValueError) as exc:
            raise bad(f"bad retry policy {retry!r}: {exc}") from None
        retry = _canonical(retry)
    budgets = grid.get("budgets", {})
    extra = set(budgets) - {"max_events", "max_virtual_time", "max_wall_seconds"}
    if extra:
        raise bad(f"unknown budget keys {sorted(extra)}")
    sup = grid.get("supervision", {})
    if not isinstance(sup, dict):
        raise bad("'supervision' must be an object")
    extra = set(sup) - {"heartbeat_timeout", "poison_threshold"}
    if extra:
        raise bad(f"unknown supervision keys {sorted(extra)}")
    heartbeat_timeout = sup.get("heartbeat_timeout", 30.0)
    if heartbeat_timeout is not None:  # null turns hang detection off
        heartbeat_timeout = float(heartbeat_timeout)
        if not (math.isfinite(heartbeat_timeout) and heartbeat_timeout > 0):
            raise bad("supervision.heartbeat_timeout must be finite and > 0 "
                      f"(or null), got {heartbeat_timeout!r}")
    poison_threshold = int(sup.get("poison_threshold", 2))
    if poison_threshold < 1:
        raise bad(f"poison_threshold must be >= 1, got {poison_threshold}")
    specs = []
    for app in apps:
        for mode in modes:
            for overrides in input_sets:
                if not isinstance(overrides, dict):
                    raise bad(f"input set {overrides!r} is not a dict")
                merged = dict(common)
                merged.update(overrides)
                for nprocs in nprocs_list:
                    for plan in plans:
                        specs.append(
                            RunRequest(
                                app=app,
                                mode=mode,
                                nprocs=nprocs,
                                inputs=tuple(sorted(merged.items())),
                                seed=seed,
                                fault_plan=plan,
                                timeout=timeout,
                            )
                        )
    ids = [s.run_id for s in specs]
    if len(set(ids)) != len(ids):
        raise bad("duplicate runs in the grid (identical spec cells)")
    request = CampaignRequest(
        name=str(grid.get("name", "campaign")),
        machine=str(grid.get("machine", "IBM-SP")),
        runs=tuple(specs),
        calib_procs=grid.get("calib_procs"),
        max_events=budgets.get("max_events"),
        max_virtual_time=budgets.get("max_virtual_time"),
        max_wall_seconds=budgets.get("max_wall_seconds"),
        retries=int(grid.get("retries", 0)),
        backoff=float(grid.get("backoff", 0.1)),
        retry_policy=retry,
    )
    return CampaignConfig(request, heartbeat_timeout=heartbeat_timeout,
                          poison_threshold=poison_threshold)


# -- journal records -----------------------------------------------------------


@dataclass
class RunRecord:
    """One journaled run outcome (the unit of resumption)."""

    run_id: str
    index: int
    outcome: str  # one of OUTCOMES
    attempts: int
    elapsed: float | None = None
    stats: dict | None = None
    error: str | None = None
    budget_kind: str | None = None
    flight: dict | None = None  # flight-recorder dump, on failed runs
    cursor: dict | None = None  # last heartbeat cursor (hung/poison)
    capsule: dict | None = None  # transient: journaled to telemetry.jsonl, not here
    #: transient: (warm_calibration_key, Calibration.to_json()) of a
    #: warm-start calibration this run measured (see
    #: CampaignConfig.calibrations); never journaled
    calibration: tuple[str, dict] | None = None
    #: transient, for an in-process caller only: the SimResult of an ok
    #: run or the DeadlockReport of a deadlocked one (per-rank stats,
    #: memory, the wait chains).  Never journaled, stored or sent back
    #: by a supervised worker, and dropped from a campaign's records.
    detail: object = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        doc = {
            "type": "run",
            "run_id": self.run_id,
            "index": self.index,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "stats": self.stats,
            "error": self.error,
        }
        if self.budget_kind is not None:
            doc["budget_kind"] = self.budget_kind
        if self.flight is not None:
            doc["flight"] = self.flight
        if self.cursor is not None:
            doc["cursor"] = self.cursor
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> RunRecord:
        try:
            return cls(
                run_id=doc["run_id"],
                index=int(doc["index"]),
                outcome=doc["outcome"],
                attempts=int(doc["attempts"]),
                elapsed=doc.get("elapsed"),
                stats=doc.get("stats"),
                error=doc.get("error"),
                budget_kind=doc.get("budget_kind"),
                flight=doc.get("flight"),
                cursor=doc.get("cursor"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"corrupt journal run record: {exc}") from None


def warn_unless_ok(spec: RunRequest, rec: RunRecord) -> None:
    """Log a finished run that is not ``ok`` at WARNING.

    For the callers that print no outcomes of their own (a campaign, a
    serve batch); commands that print each outcome do not call it.
    """
    if rec.outcome != "ok":
        _log.warning("run %s finished %s: %s", spec.describe(), rec.outcome, rec.error)


@dataclass
class CampaignReport:
    """What one :meth:`CampaignRunner.execute` call did and found."""

    config: CampaignConfig
    records: dict[str, RunRecord]  # run_id -> latest record
    executed: int  # runs executed in *this* invocation
    skipped: int  # runs skipped because the journal already had them ok
    interrupted: bool = False  # a signal stopped the campaign
    stopped: bool = False  # --max-runs stopped it early (smoke / incremental)
    journal_path: Path | None = None
    results_path: Path | None = None

    @property
    def outcomes(self) -> dict[str, int]:
        counts = {o: 0 for o in OUTCOMES}
        for rec in self.records.values():
            counts[rec.outcome] = counts.get(rec.outcome, 0) + 1
        return counts

    @property
    def complete(self) -> bool:
        """Every grid cell has a journaled outcome."""
        return len(self.records) == len(self.config.request.runs)


def format_campaign_report(report: CampaignReport) -> str:
    """Human-readable campaign summary for the CLI."""
    request = report.config.request
    counts = report.outcomes
    lines = [
        f"Campaign: {request.name} ({len(request.runs)} runs on {request.machine}, "
        f"config {request.content_hash()})"
    ]
    lines.append(
        f"  executed {report.executed}, skipped {report.skipped} already-complete"
    )
    summary = ", ".join(f"{counts[o]} {o}" for o in OUTCOMES if counts.get(o))
    lines.append(f"  outcomes: {summary or 'none'}")
    if report.interrupted or report.stopped:
        done = len(report.records)
        why = "INTERRUPTED" if report.interrupted else "STOPPED (--max-runs)"
        lines.append(
            f"  {why} after {done}/{len(request.runs)} runs — "
            f"re-run with --resume to continue"
        )
    elif report.results_path is not None:
        lines.append(f"  results written to {report.results_path}")
    return "\n".join(lines)


# -- the runner ----------------------------------------------------------------


class CampaignRunner:
    """Execute a :class:`CampaignConfig` with journaling and budgets.

    Parameters
    ----------
    config:
        The expanded campaign.
    out_dir:
        Output directory; holds the journal (``campaign.journal.jsonl``)
        and, once the campaign completes, ``results.csv``.
    resolver:
        ``resolver(app_name) -> (program, default_inputs_fn)`` where
        ``default_inputs_fn(nprocs)`` returns the app's baseline inputs.
        Defaults to the CLI's application registry.
    sleep:
        Injection point for the backoff sleep (tests pass a no-op).
    telemetry:
        Capture a :class:`~repro.obs.capsule.TelemetryCapsule` per run
        (spans, metrics, stats, flight dump) and journal it to
        ``telemetry.jsonl``; on completion, fuse the capsules into the
        merged ``campaign.perfetto.json`` timeline.
    progress:
        ``progress(spec, record, done, total)`` called after every
        journaled run (completion order).  Drives ``--live``.
    """

    def __init__(self, config: CampaignConfig, out_dir: str | Path,
                 resolver=None, sleep=time.sleep, telemetry: bool = False,
                 progress=None):
        self.config = config
        self.out_dir = Path(out_dir)
        self.resolver = resolver if resolver is not None else _grid_resolver
        self.sleep = sleep
        self.telemetry = telemetry
        self.progress = progress
        self._workflows: dict[tuple, ModelingWorkflow] = {}
        self._warm_pending: dict[tuple, str] = {}  # group -> key of no stored calibration
        self._stop_signal: int | None = None

    @property
    def journal_path(self) -> Path:
        return self.out_dir / JOURNAL_NAME

    @property
    def results_path(self) -> Path:
        return self.out_dir / RESULTS_NAME

    @property
    def telemetry_path(self) -> Path:
        return self.out_dir / TELEMETRY_NAME

    @property
    def merged_perfetto_path(self) -> Path:
        return self.out_dir / MERGED_PERFETTO_NAME

    # -- journal ----------------------------------------------------------------
    def _open_journal(self, resume: bool) -> tuple[AtomicJournal, dict[str, RunRecord]]:
        """Load or create the journal; return it plus completed records."""
        request = self.config.request
        self.out_dir.mkdir(parents=True, exist_ok=True)
        try:
            journal = AtomicJournal(self.journal_path)
        except ValueError as exc:
            raise CampaignError(f"corrupt journal: {exc}") from None
        if not len(journal):
            if resume and not journal.exists():
                _log.warning(
                    "--resume requested but no journal at %s; starting fresh",
                    self.journal_path,
                )
            # fresh campaign: a telemetry stream left by an earlier journal
            # would pollute the merged timeline with foreign runs
            self.telemetry_path.unlink(missing_ok=True)
            self.merged_perfetto_path.unlink(missing_ok=True)
            journal.append(
                {
                    "type": "campaign",
                    "version": _JOURNAL_VERSION,
                    "name": request.name,
                    "config_hash": request.content_hash(),
                    "total_runs": len(request.runs),
                }
            )
            return journal, {}
        if not resume:
            raise CampaignError(
                f"journal {self.journal_path} already exists; "
                f"pass --resume to continue it or choose a new --out directory"
            )
        records = journal.records()
        header = records[0]
        if header.get("type") != "campaign" or "config_hash" not in header:
            raise CampaignError(
                f"journal {self.journal_path} has no campaign header; "
                f"it was not written by 'repro campaign'"
            )
        if header.get("version") != _JOURNAL_VERSION:
            raise CampaignError(
                f"journal {self.journal_path} has unsupported version "
                f"{header.get('version')!r}"
            )
        if header["config_hash"] != request.content_hash():
            raise CampaignError(
                f"journal {self.journal_path} belongs to a different campaign "
                f"(journal config {header['config_hash']}, "
                f"grid config {request.content_hash()}); "
                f"refusing to mix results"
            )
        known = {s.run_id for s in request.runs}
        done: dict[str, RunRecord] = {}
        for doc in records[1:]:
            if doc.get("type") != "run":
                continue  # interruption markers and future record types
            rec = RunRecord.from_json(doc)
            if rec.run_id not in known:
                raise CampaignError(
                    f"journal {self.journal_path} records run {rec.run_id} "
                    f"which is not in this grid (config hash collision?)"
                )
            done[rec.run_id] = rec  # last record for a run wins
        return journal, done

    # -- execution --------------------------------------------------------------
    def execute(self, resume: bool = False, max_runs: int | None = None,
                jobs: int = 1) -> CampaignReport:
        """Run every pending grid cell; journal each outcome.

        *resume* replays an existing journal (config-hash-checked) and
        skips runs already completed ``ok``.  *max_runs* bounds how many
        runs this invocation executes (smoke tests, incremental fills);
        stopping early is reported like an interruption so ``--resume``
        picks up the rest.  *jobs* > 1 fans pending cells across worker
        processes (:meth:`run_cells`); every artifact (journal records,
        ``results.csv``) is identical to a sequential run because
        outputs are derived from spec order, never completion order.
        """
        from .supervisor import resolve_jobs

        jobs = resolve_jobs(jobs)
        runs = self.config.request.runs
        journal, done = self._open_journal(resume)
        skipped = sum(
            1 for rec in done.values() if rec.outcome in TERMINAL_OUTCOMES
        )
        records: dict[str, RunRecord] = dict(done)
        pending = [
            (index, spec) for index, spec in enumerate(runs)
            if spec.run_id not in done
            or done[spec.run_id].outcome not in TERMINAL_OUTCOMES
        ]
        stopped = max_runs is not None and len(pending) > max_runs
        if stopped:
            pending = pending[:max_runs]
        for _, spec in pending:
            if spec.run_id in done:
                _log.info("re-running %s (%s last time)",
                          spec.describe(), done[spec.run_id].outcome)
        interrupted = False
        with TRACER.span("campaign", campaign=self.config.request.name, runs=len(runs)):
            try:
                with _signal_trap(self):
                    self.run_cells(
                        pending, jobs,
                        lambda spec, rec: self._commit(journal, records, spec, rec),
                    )
            except CampaignInterrupted as exc:
                interrupted = True
                journal.append(
                    {
                        "type": "interrupted",
                        "signal": exc.signum,
                        "completed": len(records),
                        "pending": len(runs) - len(records),
                    }
                )
                _log.warning(
                    "campaign interrupted by signal %d after %d/%d runs; "
                    "journal is consistent at %s",
                    exc.signum, len(records), len(runs), self.journal_path,
                )
        report = CampaignReport(
            config=self.config,
            records=records,
            # cells that journaled a record this invocation
            executed=sum(1 for rid, rec in records.items() if done.get(rid) is not rec),
            skipped=skipped,
            interrupted=interrupted,
            stopped=stopped,
            journal_path=self.journal_path,
        )
        if report.complete and not interrupted and not stopped:
            self._write_results(records)
            report.results_path = self.results_path
            if self.telemetry:
                self._write_merged_telemetry()
        return report

    def run_cells(self, cells: list[tuple[int, RunRequest]], jobs: int,
                  on_record) -> None:
        """Execute ``(index, spec)`` *cells*; ``on_record(spec, record)``
        receives every finished record.

        At *jobs* 1 each cell runs inline through :meth:`run_one`, in
        order.  Above 1 the cells fan across the supervised pool
        (:func:`~repro.workflow.supervisor.run_supervised`): records
        arrive in completion order, including the intermediate ``hung``
        / ``error`` strike records of cells it retries (the last record
        for a run is its outcome), and poison specs leave their
        forensics under ``quarantine/`` in the output directory (none
        when the output directory is the null device).
        """
        if jobs <= 1:
            for index, spec in cells:
                on_record(spec, self.run_one(spec, index))
            return
        from .supervisor import run_supervised

        run_supervised(
            self.config, cells, jobs, on_record,
            resolver=self.resolver, sleep=self.sleep,
            telemetry=self.telemetry,
            quarantine_dir=(None if str(self.out_dir) == os.devnull
                            else self.out_dir / QUARANTINE_DIR_NAME),
            inline_run=self.run_one,
        )

    def _commit(self, journal: AtomicJournal, records: dict[str, RunRecord],
                spec: RunRequest, rec: RunRecord) -> None:
        """Journal one finished run: record, capsule, progress callback."""
        rec.detail = None  # a campaign keeps records, not simulations
        warn_unless_ok(spec, rec)
        journal.append(rec.to_json())
        records[spec.run_id] = rec
        if rec.capsule is not None:
            append_jsonl(self.telemetry_path, rec.capsule)
        if self.progress is not None:
            self.progress(spec, rec, len(records), len(self.config.request.runs))

    def _write_merged_telemetry(self) -> None:
        """Fuse journaled capsules into the merged Perfetto timeline.

        Resumed/re-run cells may have journaled several capsules for one
        run_id; the latest wins, matching the journal's last-record-wins
        rule.  Best-effort: a failure to merge never fails the campaign
        (results.csv is already on disk)."""
        from ..obs.capsule import load_capsules
        from ..obs.merge import write_merged_perfetto

        try:
            capsules = load_capsules(self.telemetry_path)
        except ValueError as exc:
            _log.warning("cannot read telemetry journal: %s", exc)
            return
        latest = {cap.run_id: cap for cap in capsules}
        ordered = [
            latest[s.run_id] for s in self.config.request.runs if s.run_id in latest
        ]
        if not ordered:
            return
        write_merged_perfetto(
            self.merged_perfetto_path, ordered,
            meta={"campaign": self.config.request.name,
                  "config_hash": self.config.request.content_hash()},
        )
        _log.info("merged telemetry timeline written to %s",
                  self.merged_perfetto_path)

    def _run_attempts(self, spec: RunRequest, index: int) -> RunRecord:
        """One grid cell: budgets, bounded retry, outcome classification."""
        request = self.config.request
        attempts = 0
        while True:
            attempts += 1
            with TRACER.span(
                "campaign.run", app=spec.app, mode=spec.mode, nprocs=spec.nprocs,
                run_id=spec.run_id, attempt=attempts,
            ) as span:
                detail = None
                try:
                    result = self._simulate(spec)
                except DeadlockError as exc:
                    outcome, error, stats, elapsed, bkind = (
                        "deadlock", _first_line(exc), None, None, None)
                    fdump, detail = exc.flight, exc.report
                except BudgetExceededError as exc:
                    outcome = "timeout" if exc.kind == "wall_time" else "budget"
                    error = _first_line(exc)
                    stats = exc.stats.to_dict() if exc.stats is not None else None
                    elapsed, bkind = None, exc.kind
                    fdump = exc.flight
                except CampaignInterrupted:
                    raise
                except Exception as exc:  # transient / unexpected: retryable
                    outcome, error, stats, elapsed, bkind = (
                        "error", f"{type(exc).__name__}: {_first_line(exc)}",
                        None, None, None)
                    fdump = FLIGHT.dump(error=error) if FLIGHT.enabled else None
                else:
                    outcome, error, bkind, fdump, detail = "ok", None, None, None, result
                    stats = result.stats.to_dict()
                    elapsed = result.elapsed
                    span.set_virtual(0.0, elapsed)
                span.set(outcome=outcome)
            if METRICS.enabled:
                METRICS.counter(
                    "campaign_runs_total", "campaign runs by outcome"
                ).inc(outcome=outcome, app=spec.app, mode=spec.mode)
            if outcome == "error" and attempts <= request.retries:
                delay = request.backoff * (2 ** (attempts - 1))
                _log.warning(
                    "run %s failed (%s); retry %d/%d in %.3gs",
                    spec.describe(), error, attempts, request.retries, delay,
                )
                self.sleep(delay)
                continue
            if outcome == "ok":
                _log.info("run %s ok: elapsed %.6gs", spec.describe(), elapsed)
            return RunRecord(
                run_id=spec.run_id, index=index, outcome=outcome,
                attempts=attempts, elapsed=elapsed, stats=stats, error=error,
                budget_kind=bkind, flight=fdump, detail=detail,
            )

    def _simulate(self, spec: RunRequest):
        """Run one spec on its estimator with budgets, faults and timeout.

        A run under a fault plan is seeded by its spec in every mode (a
        fault-free ``de`` or ``am`` run keeps the simulator's default)."""
        request = self.config.request
        wf = self._workflow_for(spec)
        if spec.mode == "am":
            self._try_warm_start(spec, wf)
        inputs = self._resolved_inputs(spec)
        kw = {key: value for key, value in (
            ("max_events", request.max_events),
            ("max_virtual_time", request.max_virtual_time),
            ("max_wall_seconds", request.max_wall_seconds),
            ("default_timeout", spec.timeout),
        ) if value is not None}
        if spec.fault_plan is not None:
            kw["faults"] = FaultPlan.from_dict(json.loads(spec.fault_plan))
            kw["seed"] = spec.seed
            if request.retry_policy is not None:
                kw["retry"] = RetryPolicy(**json.loads(request.retry_policy))
        if spec.mode == "de":
            return wf.run_de(inputs, spec.nprocs, **kw)
        if spec.mode == "am":
            return wf.run_am(inputs, spec.nprocs, **kw)
        kw["seed"] = spec.seed
        return wf.run_measured(inputs, spec.nprocs, **kw)

    def run_one(self, spec: RunRequest, index: int = 0) -> RunRecord:
        """Execute one request inline and return its record.

        The public single-run entry point used by :meth:`run_cells` and
        the supervised workers; applies the same budgets, retries and
        outcome classification as a full campaign.  With telemetry off
        this is :meth:`_run_attempts`.  With it on, the attempt loop
        runs inside :class:`capture_run` (fresh tracer/metrics state,
        restored afterwards) with the flight recorder armed; the
        finished capsule rides back to the parent on the record's
        transient ``capsule`` field — dict, not dataclass, so it pickles
        cheaply out of pool workers.
        """
        if not self.telemetry:
            rec = self._run_attempts(spec, index)
        else:
            from ..obs.capsule import capture_run

            with capture_run(
                spec.run_id, app=spec.app, mode=spec.mode, nprocs=spec.nprocs,
                seed=spec.seed,
            ) as cap:
                FLIGHT.enable()
                try:
                    rec = self._run_attempts(spec, index)
                finally:
                    FLIGHT.disable()
            capsule = cap.finish(
                outcome=rec.outcome, stats=rec.stats, elapsed=rec.elapsed,
                flight=rec.flight,
            )
            rec.capsule = {"type": "capsule", **capsule.to_json()}
        rec.calibration = self._measured_calibration(spec)
        return rec

    def _calib_key(self, spec: RunRequest) -> tuple:
        """The calibration-group key for *spec* (see :meth:`_workflow_for`).

        In serving mode the key carries the effective calibration
        nprocs, so the choice of calibration is a pure function of
        (spec, context) — never of which other specs share the batch.
        """
        if self.config.calib_from_spec:
            return (spec.app, spec.seed, spec.inputs,
                    self.config.request.calib_procs or min(spec.nprocs, 16))
        return (spec.app, spec.seed)

    def _workflow_for(self, spec: RunRequest) -> ModelingWorkflow:
        """One cached ModelingWorkflow per calibration group.

        Grid semantics (the default): the calibration configuration is
        a pure function of the grid, never of execution order — the
        *first* grid cell with this (app, seed) supplies the
        calibration nprocs and inputs.  A resumed campaign — where
        completed runs are skipped, so a different spec reaches here
        first — therefore calibrates identically to an uninterrupted
        one, preserving the bit-identical-resume guarantee for
        calibrating modes (am, measured).

        Serving semantics (``calib_from_spec=True``): each run
        calibrates from its *own* spec, so its result is a pure
        function of (request, context) regardless of which other cells
        share the batch — the invariant the content-addressed store
        relies on.  The group key therefore includes the *effective*
        calibration nprocs (which defaults from ``spec.nprocs`` when
        the context pins no ``calib_procs``): two cells differing only
        in nprocs must never share one calibration, or the stored
        result would depend on batch composition.  With ``calibrations``
        set, an ``am`` run primes the group from its stored calibration
        instead of measuring one (:meth:`_try_warm_start`), and a freshly
        measured one rides back on the run's record.
        """
        key = self._calib_key(spec)
        wf = self._workflows.get(key)
        if wf is None:
            base = spec if self.config.calib_from_spec else next(
                s for s in self.config.request.runs
                if s.app == spec.app and s.seed == spec.seed
            )
            calib_procs = self.config.request.calib_procs or min(base.nprocs, 16)
            program, default_inputs = self.resolver(spec.app)
            calib = default_inputs(calib_procs)
            calib.update(dict(base.inputs))
            wf = ModelingWorkflow(
                program, get_machine(self.config.request.machine),
                calib_inputs=calib, calib_nprocs=calib_procs, seed=spec.seed,
                backend=self.config.backend,
            )
            self._workflows[key] = wf
        return wf

    # -- warm start (serving): stored calibrations skip the measurement run --
    def calibration_key(self, spec: RunRequest) -> str:
        """The :func:`~repro.store.warm_calibration_key` of the
        calibration *spec*'s workflow uses."""
        from ..store import warm_calibration_key

        wf = self._workflow_for(spec)
        return warm_calibration_key(
            app=spec.app, machine=self.config.request.machine,
            calib_nprocs=wf.calib_nprocs, calib_inputs=wf.calib_inputs,
            seed=wf.seed,
        )

    def _try_warm_start(self, spec: RunRequest, wf: ModelingWorkflow) -> None:
        """Prime *wf* with a stored calibration before a run that needs
        one; only ``am`` runs calibrate, so only they look one up."""
        if self.config.calibrations is None or wf.calibration is not None:
            return
        key = self.calibration_key(spec)
        doc = self.config.calibrations.get(key)
        try:
            cal = Calibration.from_json(doc) if doc is not None else None
        except ValueError as exc:  # a bad document costs a cold start
            _log.warning("unusable warm calibration %s: %s", key, exc)
            cal = None
        if cal is not None and cal.program == spec.app:
            wf.prime(calibration=cal)
            _log.info("warm start: calibration %s loaded for %s", key, spec.app)
        else:
            self._warm_pending[self._calib_key(spec)] = key

    def _measured_calibration(self, spec: RunRequest) -> tuple[str, dict] | None:
        """``(key, document)`` of the calibration *spec*'s run measured for
        a future warm start, once per group; ``None`` if it measured none."""
        group = self._calib_key(spec)
        if group not in self._warm_pending or self._workflows[group].calibration is None:
            return None  # an am run that failed before it calibrated stays pending
        return self._warm_pending.pop(group), self._workflows[group].calibration.to_json()

    def _resolved_inputs(self, spec: RunRequest) -> dict[str, float]:
        _, default_inputs = self.resolver(spec.app)
        inputs = default_inputs(spec.nprocs)
        inputs.update(dict(spec.inputs))
        return inputs

    # -- the results artifact ----------------------------------------------------
    def _write_results(self, records: dict[str, RunRecord]) -> None:
        """Write ``results.csv`` atomically from the journal records.

        Derived purely from spec order + journal contents, so a resumed
        campaign writes a byte-identical file to an uninterrupted one.
        """
        import csv

        stat_cols = [
            "total_events", "total_messages", "total_bytes", "total_host_cost",
            "total_retries", "total_timeouts", "total_messages_lost",
            "total_send_failures",
        ]
        with atomic_write(self.results_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["run_id", "app", "mode", "nprocs", "inputs", "fault_plan",
                 "seed", "outcome", "attempts", "elapsed_s", "error"] + stat_cols
            )
            for spec in self.config.request.runs:
                rec = records[spec.run_id]
                stats = rec.stats or {}
                writer.writerow(
                    [
                        spec.run_id, spec.app, spec.mode, spec.nprocs,
                        _canonical(dict(spec.inputs)), spec.fault_plan or "",
                        spec.seed, rec.outcome, rec.attempts,
                        repr(rec.elapsed) if rec.elapsed is not None else "",
                        rec.error or "",
                    ]
                    + [stats.get(c, "") for c in stat_cols]
                )


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def request_runner(
    requests: list[RunRequest],
    machine: str = "IBM-SP",
    *,
    calib_procs: int | None = None,
    max_events: int | None = None,
    max_virtual_time: float | None = None,
    max_wall_seconds: float | None = None,
    retries: int = 0,
    retry_policy: str | None = None,
    resolver=None,
) -> CampaignRunner:
    """A journal-less runner for *requests* under one execution context.

    Single-cell semantics: each run calibrates from its own request
    (``calib_from_spec``), so its result is a pure function of
    (request, machine, calib_procs, budgets, retry policy), whichever
    requests share the batch.  Its ``_workflow_for(request)`` is the
    calibrated workflow a run of that request uses.
    """
    request = CampaignRequest(
        name="adhoc", machine=machine, runs=tuple(requests),
        calib_procs=calib_procs, max_events=max_events,
        max_virtual_time=max_virtual_time, max_wall_seconds=max_wall_seconds,
        retries=retries, retry_policy=retry_policy,
    )
    config = CampaignConfig(request, calib_from_spec=True)
    return CampaignRunner(config, out_dir=os.devnull, resolver=resolver)


def run_requests(requests: list[RunRequest], machine: str = "IBM-SP", *,
                 jobs: int = 1, **context) -> list[RunRecord]:
    """Run *requests* under one context; their final records, in order.

    The one request path of every command that simulates: the runs go
    through :meth:`CampaignRunner.run_cells` (inline at *jobs* 1, on the
    supervised pool above it; 0 means all cores) with the budgets,
    bounded retry and outcome classification of a campaign, and no
    journal.  *context* takes the keyword arguments of
    :func:`request_runner`.  Records of inline runs carry their
    transient ``detail``.
    """
    from .supervisor import resolve_jobs

    runner = request_runner(requests, machine, **context)
    final: dict[int, RunRecord] = {}  # the last record of a cell is its outcome
    runner.run_cells(list(enumerate(runner.config.request.runs)), resolve_jobs(jobs),
                     lambda spec, rec: final.__setitem__(rec.index, rec))
    return [final[i] for i in range(len(runner.config.request.runs))]


def execute_request(request: RunRequest, machine: str = "IBM-SP",
                    **context) -> RunRecord:
    """Execute one :class:`repro.api.RunRequest` inline, no journal.

    :func:`run_requests` of one request: the local-execution path behind
    ``repro query``.  Its result is a pure function of (request,
    context), which is what makes it safe to memoize in the
    content-addressed store.
    """
    return run_requests([request], machine, **context)[0]


def _grid_resolver(app: str):
    """The runner's default resolver: :func:`repro.apps.resolve_app`, which
    raises :class:`CampaignError` for an app the registry does not name."""
    if app not in APPS:
        raise CampaignError(f"unknown app {app!r} in grid; run 'python -m repro apps'")
    return resolve_app(app)


class _signal_trap:
    """Install SIGINT/SIGTERM handlers that raise :class:`CampaignInterrupted`.

    Restores the previous handlers on exit.  Off the main thread (or on
    platforms without these signals) it degrades to a no-op — campaigns
    then stop only between runs via ``max_runs``.
    """

    def __init__(self, runner: CampaignRunner):
        self.runner = runner
        self._old: dict[int, object] = {}

    def __enter__(self):
        if threading.current_thread() is not threading.main_thread():
            return self

        def handler(signum, frame):
            raise CampaignInterrupted(signum)

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - exotic platforms
                pass
        return self

    def __exit__(self, *exc):
        for sig, old in self._old.items():
            signal.signal(sig, old)
        return False
