"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it times each layer by replacing the
name the program looks the layer up by (``repro.workflow.pipeline.
measure_wparams``, ``Simulator.run``, ...) with a wrapper that records a
span around the original call, and puts the original back afterwards.

Spans are kept in memory, one list per thread, and written out when the
traced process ends.  Every span names its parent, so spans recorded in
a ``repro serve`` or ``repro campaign`` subprocess hang off the span of
the benchmark's own call that caused them (the HTTP round trip, or the
subprocess itself).  ``time.perf_counter`` reads CLOCK_MONOTONIC on
Linux, which all processes on one machine share, so spans from
different processes compare directly.

A layer's self time is its span's duration minus the durations of its
child spans.  The benchmark's ``bench.lane`` spans are the roots: one
per thread of load the benchmark drives, so the traced wall time is the
sum of the lanes less the benchmark's own checks and probes, and the self
times of all spans add up to it exactly when no child outlasts its
parent.  Time inside a lane that no layer span covers is reported as
``other``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter

LANE = "bench.lane"

#: the benchmark's own work between operations -- output checks, speed
#: probes -- is not program time, so it is left out of the traced wall
#: (such spans must have no children)
OWN = "bench.own"

#: (module, attribute where the program looks the layer up, layer name).
#: ``sim.run`` is renamed per run to ``sim.run_compiled`` or
#: ``sim.run_interpreted`` from the Simulator's backend after the run.
PATCHES = (
    ("repro.sim.engine", "Simulator.__init__", "sim.construct"),
    ("repro.sim.engine", "Simulator.run", "sim.run"),
    ("repro.workflow.pipeline", "measure_wparams", "measure.calibrate"),
    ("repro.workflow.pipeline", "compile_program", "codegen.compile"),
    ("repro.codegen.pipeline", "condense", "stg.condense"),
    ("repro.codegen.pipeline", "slice_program", "slicing.slice"),
    ("repro.kernel.lower", "kernel_for", "kernel.lower"),
    ("repro.workflow.campaign", "CampaignRunner.execute", "campaign.execute"),
    ("repro.workflow.campaign", "CampaignRunner.run_one", "campaign.run_one"),
    ("repro.util.atomic_io", "AtomicJournal.append", "journal.append"),
    ("repro.workflow.campaign", "append_jsonl", "obs.capsule_append"),
    ("repro.obs.capsule", "load_capsules", "obs.merge_perfetto"),
    ("repro.obs.merge", "write_merged_perfetto", "obs.merge_perfetto"),
    ("repro.store", "ResultStore.get", "store.get"),
    ("repro.store", "ResultStore.put", "store.put"),
    ("repro.serve", "SimulationService.handle_run", "serve.handle"),
    ("repro.serve", "shutil.rmtree", "serve.workdir_cleanup"),
)

#: every layer a span may be attributed to, in report order; the
#: benchmark records ``serve.http`` and the ``process.*``/``loadgen.*``
#: spans itself, around its own calls
LAYERS = (
    "sim.run_compiled", "sim.run_interpreted", "sim.construct",
    "measure.calibrate", "stg.condense", "slicing.slice", "codegen.compile",
    "kernel.lower", "campaign.execute", "campaign.run_one", "journal.append",
    "obs.capsule_append", "obs.merge_perfetto", "store.get", "store.put",
    "serve.workdir_cleanup", "serve.handle", "serve.http", "process.import",
    "process.spawn", "process.exit", "loadgen.idle",
)

#: kernel counters read from ``repro.kernel.lower.cache_stats()``
KERNEL_COUNTERS = ("cache_hits", "cache_misses", "fallbacks", "waves")


class Recorder:
    """In-memory span recorder; one finished-span list per thread.

    *root_parent* is the parent id of spans opened with no enclosing
    span on their thread: in a traced subprocess, the benchmark span
    that started the process.
    """

    def __init__(self, root_parent: str | None = None):
        self.pid = os.getpid()
        self.root_parent = root_parent
        self._ids = itertools.count()
        self._local = threading.local()
        self._lists: list[list[dict]] = []
        self._lock = threading.Lock()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.done = []
            with self._lock:
                self._lists.append(local.done)
        return local

    @contextmanager
    def span(self, name: str, parent: str | None = None, **attrs):
        """Record one span; yields its record (``id``, ``attrs``, ...)."""
        local = self._thread_state()
        stack = local.stack
        if parent is None:
            parent = stack[-1]["id"] if stack else self.root_parent
        rec = {"id": f"{self.pid}.{next(self._ids)}", "parent": parent,
               "name": name, "pid": self.pid,
               "tid": threading.get_native_id(), "attrs": attrs}
        stack.append(rec)
        rec["t0"] = clock()
        try:
            yield rec
        finally:
            rec["t1"] = clock()
            stack.pop()
            local.done.append(rec)

    def spans(self) -> list[dict]:
        with self._lock:
            return [s for lst in self._lists for s in lst]


# -- wrappers ------------------------------------------------------------------


def _timed(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _timed_sim_run(rec: Recorder, fn):
    @functools.wraps(fn)
    def run(sim):
        with rec.span("sim.run") as sp:
            try:
                result = fn(sim)
                sp["attrs"]["events"] = result.stats.total_events
                return result
            finally:
                compiled = getattr(sim, "backend", None) == "compiled"
                sp["name"] = "sim.run_compiled" if compiled else "sim.run_interpreted"
    return run


def _timed_store_get(rec: Recorder, fn):
    @functools.wraps(fn)
    def get(store, ctx_hash, run_id):
        with rec.span("store.get") as sp:
            doc = fn(store, ctx_hash, run_id)
            sp["attrs"]["hit"] = doc is not None
            return doc
    return get


def _timed_handle_run(rec: Recorder, fn):
    # the benchmark's client puts its round-trip span id in the request
    # body; handle_run ignores keys it does not know
    @functools.wraps(fn)
    def handle_run(service, doc):
        parent = doc.get("trace_parent") if isinstance(doc, dict) else None
        with rec.span("serve.handle", parent=parent):
            return fn(service, doc)
    return handle_run


class _ModulePatch:
    """Stands in for a module in one importer's namespace, overriding
    some attributes, so only that importer's calls are timed."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _wrapper_for(rec: Recorder, name: str, original):
    special = {"sim.run": _timed_sim_run, "store.get": _timed_store_get,
               "serve.handle": _timed_handle_run}
    if name in special:
        return special[name](rec, original)
    return _timed(rec, name, original)


class Installed:
    """The wrappers in place; :meth:`remove` puts the originals back."""

    def __init__(self, rec: Recorder):
        self._undo: list[tuple[object, str, object]] = []
        for module_name, path, name in PATCHES:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if isinstance(owner, type(module)) and owner is not module:
                # a module imported by name: swap in a stand-in there
                wrapped = _wrapper_for(rec, name, getattr(owner, attr))
                self._set(module, owner_name, _ModulePatch(owner, **{attr: wrapped}))
            else:
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                self._set(owner, attr, _wrapper_for(rec, name, original))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, "__dict__", {}).get(attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def kernel_counters() -> dict[str, int]:
    from repro.kernel.lower import cache_stats

    stats = cache_stats()
    return {key: int(stats[key]) for key in KERNEL_COUNTERS}


def write_dump(path: str | Path, spans: list[dict], counters: dict) -> None:
    """Atomically write one process's spans and kernel counters."""
    path = Path(path)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"spans": spans, "kernel": counters}))
    os.replace(tmp, path)


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[dict]) -> tuple[dict[str, float], float]:
    """Self time of every span, plus the child time clamped away.

    A child that outlasts its parent (it ran concurrently, or was
    attributed to the wrong parent) would give the parent a negative
    self time; that excess is clamped to zero and returned so the
    telescoping check can see it.
    """
    known = {s["id"] for s in spans}
    child = dict.fromkeys(known, 0.0)
    for s in spans:
        if s["parent"] in known:
            child[s["parent"]] += s["t1"] - s["t0"]
    selfs, clamped = {}, 0.0
    for s in spans:
        own = (s["t1"] - s["t0"]) - child[s["id"]]
        if own < 0:
            clamped -= own
            own = 0.0
        selfs[s["id"]] = own
    return selfs, clamped


def layer_metrics(spans: list[dict], kernel: dict[str, int]) -> dict:
    """Per-layer self times, call counts and the telescoping check.

    Returns ``{"layers": {metric: value}, "wall_ms": ...,
    "telescope_error": ..., "orphans": n}``; ``other.self_ms`` is the
    lane time no layer span covers.  Spans that do not descend from a
    lane lie outside the traced wall; they are counted as orphans and
    left out of every layer.
    """
    selfs, clamped = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    in_lane: dict[str, bool] = {}

    def under_lane(span: dict) -> bool:
        path = []
        while span is not None and span["id"] not in in_lane:
            if span["name"] == LANE:
                in_lane[span["id"]] = True
                break
            path.append(span["id"])
            span = by_id.get(span["parent"])
        verdict = span is not None and in_lane[span["id"]]
        in_lane.update(dict.fromkeys(path, verdict))
        return verdict

    wall = (sum(s["t1"] - s["t0"] for s in spans if s["name"] == LANE)
            - sum(s["t1"] - s["t0"] for s in spans if s["name"] == OWN))
    totals = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    events = {"sim.run_compiled": 0, "sim.run_interpreted": 0}
    other = 0.0
    hits = orphans = 0
    for s in spans:
        name = s["name"]
        if not under_lane(s):
            orphans += 1
            continue
        if name == OWN:
            continue
        if name.startswith("bench."):
            other += selfs[s["id"]]
            continue
        if name not in totals:
            raise ValueError(f"span {name!r} is not a known layer")
        totals[name] += selfs[s["id"]]
        calls[name] += 1
        if name in events:
            events[name] += s["attrs"].get("events", 0)
        if name == "store.get" and s["attrs"].get("hit"):
            hits += 1
    layers = {f"{name}.self_ms": totals[name] * 1e3 for name in LAYERS}
    layers.update({f"{name}.events": n for name, n in events.items()})
    for name in ("measure.calibrate", "stg.condense", "journal.append", "store.get"):
        layers[f"{name}.calls"] = calls[name]
    layers["store.get.hits"] = hits
    layers.update({f"kernel.{k}": v for k, v in kernel.items()})
    layers["other.self_ms"] = other * 1e3
    accounted = sum(totals.values()) + other
    return {
        "layers": layers,
        "wall_ms": wall * 1e3,
        "accounted_ms": accounted * 1e3,
        # zero when every child nests inside its parent: self times
        # clamped up from negative are double-counted time
        "telescope_error": abs(accounted - wall) / wall if wall else 0.0,
        "clamped_ms": clamped * 1e3,
        "orphans": orphans,
    }


def format_layer_table(result: dict) -> str:
    """A per-layer table whose self-time column sums to the traced wall."""
    layers = result["layers"]
    wall = result["wall_ms"]
    lines = [f"  {'layer':<24}{'self ms':>12}{'share':>8}"]
    for name in LAYERS + ("other",):
        ms = layers[f"{name}.self_ms"]
        if ms:
            lines.append(f"  {name:<24}{ms:>12.1f}{ms / wall:>8.1%}")
    lines.append(f"  {'sum':<24}{result['accounted_ms']:>12.1f}"
                 f"{result['accounted_ms'] / wall:>8.1%}")
    lines.append(f"  {'traced wall':<24}{wall:>12.1f}")
    return "\n".join(lines)


def percentile(values: list[float], q: int) -> float:
    """The *q*-th percentile (inclusive method); the value itself for n=1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- export --------------------------------------------------------------------


def perfetto_document(spans_by_workload: dict[str, list[dict]]) -> dict:
    """Chrome trace-event JSON: one track per (process, thread)."""
    all_spans = [s for spans in spans_by_workload.values() for s in spans]
    t_min = min((s["t0"] for s in all_spans), default=0.0)
    events: list[dict] = []
    for workload, spans in spans_by_workload.items():
        for pid in sorted({s["pid"] for s in spans}):
            events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                           "args": {"name": f"{workload} pid {pid}"}})
        for s in spans:
            events.append({
                "ph": "X", "name": s["name"], "cat": workload,
                "pid": s["pid"], "tid": s["tid"],
                "ts": (s["t0"] - t_min) * 1e6, "dur": (s["t1"] - s["t0"]) * 1e6,
                "args": {**s["attrs"], "id": s["id"], "parent": s["parent"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
