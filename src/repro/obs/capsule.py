"""Telemetry capsules: one run's observability, serialized to travel.

PR 2's spans/metrics live in process-wide singletons, which is exactly
right for one process and exactly wrong for the ``--jobs`` executor:
everything a campaign worker records dies with the worker.  A
:class:`TelemetryCapsule` is the fix — a small, JSON-safe container
holding one run's spans, metric samples, :class:`~repro.sim.SimStats`
(fault counters included), budget state and optional flight-recorder
dump, plus the wall-clock anchor needed to place the run on a shared
campaign timeline.

Capture protocol (:class:`capture_run`): save the global tracer/metrics
state, swap in fresh recording state, run, snapshot, restore.  Isolation
by swap keeps the kernel's fast-path gate untouched — the engine still
tests the same ``TRACER.enabled`` / ``METRICS.enabled`` flags — and
works identically in a pool worker and in the sequential parent.

The ``wall_start``/``perf_start`` pair matters: span timestamps are
``time.perf_counter()`` values whose epoch is *per-process arbitrary*,
so capsules from different workers cannot be aligned from spans alone.
The capture records ``time.time()`` at the same instant, letting
:mod:`repro.obs.merge` rebase every capsule onto one shared wall clock.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .metrics import METRICS
from .spans import Span, TRACER

__all__ = ["TelemetryCapsule", "capture_run", "load_capsules", "CAPSULE_FORMAT"]

#: capsule schema version (bump when the dict shape changes)
CAPSULE_FORMAT = 1


@dataclass
class TelemetryCapsule:
    """One run's observability record, serializable across processes."""

    run_id: str
    worker: int  # producing process's pid
    wall_start: float = 0.0  # time.time() at capture start
    perf_start: float = 0.0  # time.perf_counter() at the same instant
    outcome: str | None = None  # campaign outcome class, when known
    elapsed: float | None = None  # predicted target elapsed (SimStats.elapsed)
    spans: list[dict] = field(default_factory=list)  # serialized Span records
    metrics: list[dict] = field(default_factory=list)  # samples(include_raw=True)
    stats: dict | None = None  # SimStats.to_dict() (fault counters included)
    budget: dict | None = None  # BudgetGuard.snapshot(), when budgeted
    flight: dict | None = None  # FlightRecorder dump, on failure
    attrs: dict = field(default_factory=dict)  # free-form annotations

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> dict:
        doc = asdict(self)
        doc["format"] = CAPSULE_FORMAT
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> TelemetryCapsule:
        try:
            return cls(
                run_id=doc["run_id"],
                worker=int(doc["worker"]),
                wall_start=float(doc.get("wall_start", 0.0)),
                perf_start=float(doc.get("perf_start", 0.0)),
                outcome=doc.get("outcome"),
                elapsed=doc.get("elapsed"),
                spans=list(doc.get("spans", [])),
                metrics=list(doc.get("metrics", [])),
                stats=doc.get("stats"),
                budget=doc.get("budget"),
                flight=doc.get("flight"),
                attrs=dict(doc.get("attrs", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt telemetry capsule: {exc}") from None

    # -- span access -----------------------------------------------------------
    def span_objects(self) -> list[Span]:
        """Rehydrate the serialized spans as :class:`~repro.obs.Span`."""
        out = []
        for doc in self.spans:
            out.append(
                Span(
                    sid=doc["sid"],
                    name=doc["name"],
                    parent=doc.get("parent"),
                    host_start=doc["host_start"],
                    host_end=doc.get("host_end", 0.0),
                    virtual_start=doc.get("virtual_start"),
                    virtual_end=doc.get("virtual_end"),
                    attrs=dict(doc.get("attrs", {})),
                )
            )
        return out

    def root_spans(self) -> list[Span]:
        return [sp for sp in self.span_objects() if sp.parent is None]


def _span_to_dict(sp: Span) -> dict:
    return {
        "sid": sp.sid,
        "name": sp.name,
        "parent": sp.parent,
        "host_start": sp.host_start,
        "host_end": sp.host_end,
        "virtual_start": sp.virtual_start,
        "virtual_end": sp.virtual_end,
        # attrs must survive json round-trips; stringify what would not
        "attrs": {
            k: (v if isinstance(v, (str, int, float, bool, type(None))) else str(v))
            for k, v in sp.attrs.items()
        },
    }


class capture_run:
    """Context manager recording one run into a fresh capsule.

    Swaps fresh recording state into the process-wide ``TRACER`` and
    ``METRICS`` on entry and restores the previous state on exit, so
    nested campaign-level instrumentation in the parent is suspended —
    not corrupted — while a run is being captured.  After exit,
    ``capture.capsule`` holds the populated :class:`TelemetryCapsule`;
    :meth:`finish` attaches outcome/stats/budget/flight details.
    """

    def __init__(self, run_id: str, worker: int | None = None, **attrs):
        import os

        self.run_id = run_id
        self.worker = worker if worker is not None else os.getpid()
        self.attrs = attrs
        self.capsule: TelemetryCapsule | None = None

    def __enter__(self) -> capture_run:
        self._saved = (
            TRACER.enabled, TRACER.spans, TRACER._stack,
            METRICS.enabled, METRICS._instruments,
        )
        TRACER.spans, TRACER._stack = [], []
        TRACER.enabled = True
        METRICS._instruments = {}
        METRICS.enabled = True
        self.capsule = TelemetryCapsule(
            run_id=self.run_id,
            worker=self.worker,
            wall_start=time.time(),
            perf_start=time.perf_counter(),
            attrs=dict(self.attrs),
        )
        return self

    def __exit__(self, *exc) -> bool:
        cap = self.capsule
        cap.spans = [_span_to_dict(sp) for sp in TRACER.spans]
        cap.metrics = METRICS.samples(include_raw=True)
        (
            TRACER.enabled, TRACER.spans, TRACER._stack,
            METRICS.enabled, METRICS._instruments,
        ) = self._saved
        return False

    def finish(
        self,
        outcome: str | None = None,
        stats: dict | None = None,
        elapsed: float | None = None,
        budget: dict | None = None,
        flight: dict | None = None,
    ) -> TelemetryCapsule:
        """Attach run results to the captured capsule; returns it."""
        cap = self.capsule
        if outcome is not None:
            cap.outcome = outcome
        if stats is not None:
            cap.stats = stats
            cap.elapsed = stats.get("elapsed") if elapsed is None else elapsed
        elif elapsed is not None:
            cap.elapsed = elapsed
        if budget is not None:
            cap.budget = budget
        if flight is not None:
            cap.flight = flight
        return cap


def load_capsules(path: str | Path) -> list[TelemetryCapsule]:
    """Read capsules from a telemetry JSONL journal (torn-line tolerant).

    Non-capsule records (headers, future kinds) are skipped; an
    incomplete final line — the documented ``O_APPEND`` crash hazard —
    is dropped with a warning by the underlying reader.
    """
    from ..util.atomic_io import read_jsonl

    out = []
    for doc in read_jsonl(path):
        if doc.get("type") == "capsule":
            out.append(TelemetryCapsule.from_json(doc))
    return out
