"""Typed, versioned request/result contracts for the simulation service.

Every layer that names a run — the campaign runner, the CLI, the fuzz
harness, the result store and the HTTP service — used to pass ad-hoc
kwargs and dicts between each other, and three of them computed their
own content hashes.  This module is the single vocabulary instead:

* :class:`RunRequest` — one simulation to perform (app, mode, nprocs,
  inputs, seed, fault plan, timeout).  Its :meth:`~RunRequest.content_hash`
  is **the** run identity: journals, quarantine artifacts and store
  entries are all keyed by it, and it is byte-compatible with the
  ``RunSpec.run_id`` hashes of earlier releases (same canonical identity
  document, same sha256 prefix), so existing journals resume under the
  new types.
* :class:`CampaignRequest` — an ordered set of runs plus the execution
  context that shapes their results (machine, budgets, calibration,
  retry policy).  Its :meth:`~CampaignRequest.content_hash` reproduces
  the old ``CampaignConfig.config_hash``; :meth:`~CampaignRequest.context_hash`
  hashes the context *without* the run list — the result store uses it
  to shard entries by execution context, so a result computed under one
  machine/budget regime can never answer a query made under another.
* :class:`RunResult` / :class:`CampaignResult` — the serving-side
  answers, JSON-canonical and round-trippable.
* :class:`ApiError` — the one error shape every boundary speaks,
  carrying an HTTP status and an optional ``retry_after`` for
  admission-control rejections.

All documents carry ``schema_version``; :func:`canonical_json` and
:func:`content_hash` are the only canonicalization and hashing
primitives — nothing else in the tree may roll its own.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA_VERSION",
    "MODES",
    "canonical_json",
    "content_hash",
    "ApiError",
    "RunRequest",
    "RunResult",
    "CampaignRequest",
    "CampaignResult",
]

#: version stamped into every serialized document; bump on any change
#: to a document layout (golden-hash tests freeze the identity layouts
#: separately — those may never change within a schema version)
SCHEMA_VERSION = 1

#: the three estimators a run may ask for (paper Fig. 2)
MODES = ("de", "am", "measured")

#: outcomes considered successful when serving cached results
_OK_OUTCOMES = ("ok",)


def canonical_json(obj) -> str:
    """The one canonical JSON encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(doc: dict) -> str:
    """Content-address a canonical identity document (16 hex chars)."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


class ApiError(Exception):
    """A typed, serializable API failure.

    ``http_status`` maps the error onto the wire (400 bad request, 404
    not found, 429 quota, 500 internal); ``retry_after`` rides along on
    admission-control rejections so clients can back off precisely.
    """

    def __init__(self, code: str, message: str, *, http_status: int = 400,
                 retry_after: float | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.http_status = http_status
        self.retry_after = retry_after

    def to_json(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "error",
            "code": self.code,
            "message": self.message,
        }
        if self.retry_after is not None:
            doc["retry_after"] = self.retry_after
        return doc

    @classmethod
    def from_json(cls, doc: dict, http_status: int = 400) -> ApiError:
        return cls(
            str(doc.get("code", "unknown")),
            str(doc.get("message", "unknown error")),
            http_status=http_status,
            retry_after=doc.get("retry_after"),
        )


def _bad(message: str) -> ApiError:
    return ApiError("bad_request", message)


def _check_version(doc: dict, kind: str) -> None:
    if not isinstance(doc, dict):
        raise _bad(f"{kind} document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or version < 1:
        raise _bad(f"bad schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise ApiError(
            "unsupported_version",
            f"{kind} document has schema_version {version}; "
            f"this server speaks {SCHEMA_VERSION}",
        )
    if "kind" in doc and doc["kind"] != kind:
        raise _bad(f"expected a {kind!r} document, got kind={doc['kind']!r}")


def _normalize_inputs(inputs) -> tuple[tuple[str, float], ...]:
    """Accept a mapping or pair-iterable; return the sorted tuple form.

    Values keep their Python type (int stays int): the identity hash
    feeds on the JSON encoding, where ``20000`` and ``20000.0`` differ.
    """
    items = inputs.items() if isinstance(inputs, dict) else tuple(inputs)
    out = []
    for pair in items:
        try:
            key, value = pair
        except (TypeError, ValueError):
            raise _bad(f"input override {pair!r} is not a (name, value) pair") from None
        if not isinstance(key, str) or not key:
            raise _bad(f"input name {key!r} is not a non-empty string")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _bad(f"input {key}={value!r} is not a number")
        if not math.isfinite(value):
            raise _bad(f"input {key}={value!r} is not finite")
        out.append((key, value))
    return tuple(sorted(out))


def _canonical_fault_plan(plan) -> str | None:
    """Normalize a fault plan (dict or canonical string) and validate it."""
    if plan is None:
        return None
    if isinstance(plan, str):
        try:
            plan = json.loads(plan)
        except json.JSONDecodeError as exc:
            raise _bad(f"fault_plan is not valid JSON: {exc}") from None
    if not isinstance(plan, dict):
        raise _bad("fault_plan must be a JSON object")
    from ..sim.faults import FaultPlan  # deferred: keep api importable early

    try:
        FaultPlan.from_dict(plan)
    except (TypeError, ValueError) as exc:
        raise _bad(f"bad fault_plan: {exc}") from None
    return canonical_json(plan)


@dataclass(frozen=True)
class RunRequest:
    """One simulation to perform, identified by its content hash.

    This is the type formerly known as ``RunSpec``; the identity
    document and hash are unchanged, so ids in existing journals,
    quarantine artifacts and store entries still name the same runs.
    """

    app: str
    mode: str  # "de" | "am" | "measured"
    nprocs: int
    inputs: tuple[tuple[str, float], ...] = ()  # input overrides, sorted
    seed: int = 0
    fault_plan: str | None = None  # canonical JSON of the plan, if any
    timeout: float | None = None

    # -- identity ------------------------------------------------------------
    def _identity(self) -> dict:
        # Frozen layout: byte-compatible with pre-api RunSpec._identity.
        # Never add, remove or rename a key within a schema version —
        # the golden-hash test (tests/api/golden_hashes.json) enforces it.
        return {
            "app": self.app,
            "mode": self.mode,
            "nprocs": self.nprocs,
            "inputs": dict(self.inputs),
            "seed": self.seed,
            "fault_plan": self.fault_plan,
            "timeout": self.timeout,
        }

    def content_hash(self) -> str:
        """The single source of run identity: same request ⇒ same id."""
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            cached = content_hash(self._identity())
            object.__setattr__(self, "_content_hash", cached)
        return cached

    @property
    def run_id(self) -> str:
        """Compatibility alias for :meth:`content_hash`."""
        return self.content_hash()

    # -- validation ----------------------------------------------------------
    def validate(self) -> RunRequest:
        """Raise :class:`ApiError` unless every field is well-formed."""
        if not isinstance(self.app, str) or not self.app:
            raise _bad(f"app must be a non-empty string, got {self.app!r}")
        if self.mode not in MODES:
            raise _bad(f"unknown mode {self.mode!r} (expected de/am/measured)")
        if not isinstance(self.nprocs, int) or isinstance(self.nprocs, bool) \
                or self.nprocs < 1:
            raise _bad(f"nprocs must be an integer >= 1, got {self.nprocs!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise _bad(f"seed must be an integer, got {self.seed!r}")
        _normalize_inputs(self.inputs)
        if self.timeout is not None and not (
                isinstance(self.timeout, (int, float)) and self.timeout > 0):
            raise _bad(f"timeout must be a positive number, got {self.timeout!r}")
        if self.fault_plan is not None:
            _canonical_fault_plan(self.fault_plan)
        return self

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "run_request",
            "app": self.app,
            "mode": self.mode,
            "nprocs": self.nprocs,
            "inputs": dict(self.inputs),
            "seed": self.seed,
        }
        if self.fault_plan is not None:
            doc["fault_plan"] = json.loads(self.fault_plan)
        if self.timeout is not None:
            doc["timeout"] = self.timeout
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> RunRequest:
        """Parse and validate a request document; raise :class:`ApiError`."""
        _check_version(doc, "run_request")
        for key in ("app", "mode", "nprocs"):
            if key not in doc:
                raise _bad(f"run_request is missing {key!r}")
        req = cls(
            app=doc["app"],
            mode=doc["mode"],
            nprocs=doc["nprocs"],
            inputs=_normalize_inputs(doc.get("inputs", ())),
            seed=doc.get("seed", 0),
            fault_plan=_canonical_fault_plan(doc.get("fault_plan")),
            timeout=doc.get("timeout"),
        )
        return req.validate()

    # -- presentation --------------------------------------------------------
    def describe(self) -> str:
        extras = [f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                  for k, v in self.inputs]
        text = f"{self.app}/{self.mode} P={self.nprocs}"
        if extras:
            text += " " + ",".join(extras)
        if self.fault_plan is not None:
            text += " +faults"
        return text


@dataclass(frozen=True)
class RunResult:
    """The journaled outcome of one run, in serving form.

    ``stats`` is the flat :class:`~repro.sim.stats.SimStats` dict of an
    ``ok`` (or budget-tripped) run; failed runs carry ``error`` and the
    outcome class instead.  Content-addressed by ``run_id`` — the hash
    of the request that produced it.
    """

    run_id: str
    outcome: str
    attempts: int = 1
    elapsed: float | None = None
    stats: dict | None = None
    error: str | None = None
    budget_kind: str | None = None

    @property
    def ok(self) -> bool:
        return self.outcome in _OK_OUTCOMES

    @property
    def events(self) -> int:
        """Kernel events this run cost (0 when unknown): quota currency."""
        if not self.stats:
            return 0
        return int(self.stats.get("total_events", 0) or 0)

    def to_json(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "run_result",
            "run_id": self.run_id,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "stats": self.stats,
            "error": self.error,
        }
        if self.budget_kind is not None:
            doc["budget_kind"] = self.budget_kind
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> RunResult:
        _check_version(doc, "run_result")
        for key in ("run_id", "outcome"):
            if key not in doc:
                raise _bad(f"run_result is missing {key!r}")
        stats = doc.get("stats")
        if stats is not None and not isinstance(stats, dict):
            raise _bad("run_result stats must be an object or null")
        return cls(
            run_id=str(doc["run_id"]),
            outcome=str(doc["outcome"]),
            attempts=int(doc.get("attempts", 1)),
            elapsed=doc.get("elapsed"),
            stats=stats,
            error=doc.get("error"),
            budget_kind=doc.get("budget_kind"),
        )

    @classmethod
    def from_record(cls, rec) -> RunResult:
        """Lift a campaign :class:`~repro.workflow.campaign.RunRecord`."""
        return cls(
            run_id=rec.run_id,
            outcome=rec.outcome,
            attempts=rec.attempts,
            elapsed=rec.elapsed,
            stats=rec.stats,
            error=rec.error,
            budget_kind=rec.budget_kind,
        )


@dataclass(frozen=True)
class CampaignRequest:
    """An ordered set of runs plus the context that shapes their results.

    The identity split matters: :meth:`content_hash` covers context
    *and* runs (the old ``config_hash`` — journal compatibility), while
    :meth:`context_hash` covers context only, so the result store can
    share cached runs between different grids executed under the same
    machine/budget/calibration regime.
    """

    name: str
    machine: str
    runs: tuple[RunRequest, ...]
    calib_procs: int | None = None
    max_events: int | None = None
    max_virtual_time: float | None = None
    max_wall_seconds: float | None = None
    retries: int = 0
    backoff: float = 0.1
    retry_policy: str | None = None  # canonical JSON of the RetryPolicy

    # -- identity ------------------------------------------------------------
    def _context(self) -> dict:
        return {
            "machine": self.machine,
            "budgets": [self.max_events, self.max_virtual_time,
                        self.max_wall_seconds],
            "calib_procs": self.calib_procs,
            "retry_policy": self.retry_policy,
        }

    def content_hash(self) -> str:
        """Hash of everything that shapes the campaign's results.

        Byte-compatible with the pre-api ``CampaignConfig.config_hash``.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            doc = dict(self._context())
            doc["runs"] = [r.content_hash() for r in self.runs]
            cached = content_hash(doc)
            object.__setattr__(self, "_content_hash", cached)
        return cached

    def context_hash(self) -> str:
        """Hash of the execution context alone (no run list).

        Two campaigns with the same machine, budgets, calibration and
        retry policy share a context — and therefore share store
        entries for any overlapping cells.
        """
        cached = self.__dict__.get("_context_hash")
        if cached is None:
            cached = content_hash(self._context())
            object.__setattr__(self, "_context_hash", cached)
        return cached

    # -- validation ----------------------------------------------------------
    def validate(self) -> CampaignRequest:
        return self._validate(runs_checked=False)

    def _validate(self, runs_checked: bool) -> CampaignRequest:
        # *runs_checked*: the runs were parsed, which validated them
        if not isinstance(self.name, str) or not self.name:
            raise _bad(f"campaign name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.machine, str) or not self.machine:
            raise _bad(f"machine must be a non-empty string, got {self.machine!r}")
        from ..machine import get_machine  # deferred: keep api importable early

        try:
            get_machine(self.machine)
        except KeyError as exc:
            raise _bad(exc.args[0]) from None
        if not self.runs:
            raise _bad("campaign has no runs")
        seen: set[str] = set()
        for run in self.runs:
            if not runs_checked:
                run.validate()
            rid = run.content_hash()
            if rid in seen:
                raise _bad(f"duplicate run {rid} ({run.describe()}) in campaign")
            seen.add(rid)
        if self.calib_procs is not None and (
                not isinstance(self.calib_procs, int) or self.calib_procs < 1):
            raise _bad(f"calib_procs must be an integer >= 1, got {self.calib_procs!r}")
        for label, value in (("max_events", self.max_events),
                             ("max_virtual_time", self.max_virtual_time),
                             ("max_wall_seconds", self.max_wall_seconds)):
            if value is not None and not (
                    isinstance(value, (int, float)) and value > 0):
                raise _bad(f"{label} must be a positive number, got {value!r}")
        if not isinstance(self.retries, int) or self.retries < 0:
            raise _bad(f"retries must be an integer >= 0, got {self.retries!r}")
        if not (isinstance(self.backoff, (int, float))
                and math.isfinite(self.backoff) and self.backoff >= 0):
            raise _bad(f"backoff must be a finite number >= 0, got {self.backoff!r}")
        return self

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "campaign_request",
            "name": self.name,
            "machine": self.machine,
            "runs": [r.to_json() for r in self.runs],
            "retries": self.retries,
            "backoff": self.backoff,
        }
        for key, value in (
            ("calib_procs", self.calib_procs),
            ("max_events", self.max_events),
            ("max_virtual_time", self.max_virtual_time),
            ("max_wall_seconds", self.max_wall_seconds),
        ):
            if value is not None:
                doc[key] = value
        if self.retry_policy is not None:
            doc["retry_policy"] = json.loads(self.retry_policy)
        return doc

    @classmethod
    def from_json(cls, doc: dict,
                  runs: tuple[RunRequest, ...] | None = None) -> CampaignRequest:
        """Parse and validate a request document; raise :class:`ApiError`.

        *runs*, when given, are runs the caller has already parsed (and
        so validated): they stand in for the document's ``runs`` list.
        """
        _check_version(doc, "campaign_request")
        if runs is None:
            docs = doc.get("runs")
            if not isinstance(docs, list) or not docs:
                raise _bad("campaign_request needs a non-empty 'runs' list")
            runs = tuple(RunRequest.from_json(r) for r in docs)
        retry = doc.get("retry_policy")
        if retry is not None:
            if not isinstance(retry, dict):
                raise _bad("retry_policy must be a JSON object")
            from ..sim.faults import RetryPolicy

            try:
                RetryPolicy(**retry)
            except (TypeError, ValueError) as exc:
                raise _bad(f"bad retry_policy: {exc}") from None
            retry = canonical_json(retry)
        req = cls(
            name=str(doc.get("name", "campaign")),
            machine=str(doc.get("machine", "IBM-SP")),
            runs=runs,
            calib_procs=doc.get("calib_procs"),
            max_events=doc.get("max_events"),
            max_virtual_time=doc.get("max_virtual_time"),
            max_wall_seconds=doc.get("max_wall_seconds"),
            retries=int(doc.get("retries", 0)),
            backoff=float(doc.get("backoff", 0.1)),
            retry_policy=retry,
        )
        return req._validate(runs_checked=True)


@dataclass(frozen=True)
class CampaignResult:
    """What serving one campaign produced: results plus cache economics.

    ``hits`` were answered from the store without simulating anything;
    ``misses`` were executed (costing ``executed_events`` kernel
    events) and stored.  A warm re-submission of the same request is
    ``hits == len(results)`` and ``executed_events == 0``.
    """

    name: str
    config_hash: str
    hits: int
    misses: int
    executed_events: int
    results: tuple[RunResult, ...] = field(default_factory=tuple)

    @property
    def outcomes(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for res in self.results:
            counts[res.outcome] = counts.get(res.outcome, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "campaign_result",
            "name": self.name,
            "config_hash": self.config_hash,
            "hits": self.hits,
            "misses": self.misses,
            "executed_events": self.executed_events,
            "outcomes": self.outcomes,
            "results": [r.to_json() for r in self.results],
        }

    @classmethod
    def from_json(cls, doc: dict) -> CampaignResult:
        _check_version(doc, "campaign_result")
        results = doc.get("results")
        if not isinstance(results, list):
            raise _bad("campaign_result needs a 'results' list")
        return cls(
            name=str(doc.get("name", "campaign")),
            config_hash=str(doc.get("config_hash", "")),
            hits=int(doc.get("hits", 0)),
            misses=int(doc.get("misses", 0)),
            executed_events=int(doc.get("executed_events", 0)),
            results=tuple(RunResult.from_json(r) for r in results),
        )
