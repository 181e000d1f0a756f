"""Content-addressed result store: memoize runs across campaigns.

The serving layer (:mod:`repro.serve`) treats a simulation run as a
pure function of ``(request, execution context)``: the request is a
:class:`repro.api.RunRequest` (identity = ``content_hash()``), the
context is everything else that shapes the numbers — machine,
budgets, calibration policy, retry policy — captured by
:meth:`repro.api.CampaignRequest.context_hash`.  This module persists
that function's graph:

``<base>/store/<ctx_hash>/<run_id>.json``
    one completed :class:`repro.api.RunResult` document per file,
    written with :func:`repro.util.atomic_io.atomic_write` so a crash
    mid-put can never leave a torn entry under the final name.

``<base>/index.jsonl``
    an append-only operation journal (``put`` / ``touch`` / ``evict``
    / ``counters`` records), appended with
    :func:`~repro.util.atomic_io.append_jsonl`.  ``put``s are fsynced;
    ``touch``es are not — losing recency hints in a crash only
    degrades LRU accuracy, never correctness.  On load the journal is
    reconciled against the filesystem: entry files are the source of
    truth, the journal only contributes ordering and counters, and a
    torn final line is dropped (and truncated by the next append).
    The journal is *compacted* — atomically rewritten as one ``put``
    record per live entry (in LRU order) plus a trailing ``counters``
    record — on :meth:`ResultStore.close` and whenever it outgrows a
    small multiple of the live entry count, so a busy server's stream
    of touch records never makes the journal (or the next startup's
    replay) grow without bound.

``<base>/warm/<wkey>.json``
    warm-start calibrations — the expensive front half of the Fig. 2
    pipeline (measurement run + branch profile) keyed by the hash of
    ``(app, machine, calib_nprocs, calib_inputs, seed)``, exactly the
    tuple :meth:`repro.workflow.pipeline.ModelingWorkflow.prime`
    demands the caller vouch for.

The store persists data only, never code: a compiled kernel is
re-lowered in each process that needs it (:mod:`repro.kernel.lower`),
and the ``warm/kernel-*.json`` files older stores hold are ignored.

Eviction is LRU over a byte budget (``max_bytes``): a put that pushes
the store over budget evicts least-recently-*used* entries (gets count
as use) until it fits.  Warm calibrations are tiny and never evicted.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from pathlib import Path

from .api import canonical_json, content_hash
from .ir.interp import BranchProfile
from .measure import Calibration
from .obs.logging import get_logger
from .util.atomic_io import append_jsonl, atomic_write, read_jsonl

__all__ = [
    "ResultStore",
    "StoreStats",
    "scan_store",
    "warm_calibration_key",
    "save_warm_calibration",
    "load_warm_calibration",
    "STORE_DIR_NAME",
    "WARM_DIR_NAME",
    "INDEX_NAME",
]

_log = get_logger("store")

STORE_DIR_NAME = "store"
WARM_DIR_NAME = "warm"
INDEX_NAME = "index.jsonl"


def _entry_rel(ctx_hash: str, run_id: str) -> str:
    return f"{ctx_hash}/{run_id}.json"


class StoreStats:
    """Mutable hit/miss/byte counters, rendered by ``stats()``."""

    __slots__ = ("hits", "misses", "puts", "evictions")

    def __init__(self, hits: int = 0, misses: int = 0, puts: int = 0, evictions: int = 0):
        self.hits = hits
        self.misses = misses
        self.puts = puts
        self.evictions = evictions

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }


def _count_warm_calibrations(warm_dir: Path) -> int:
    # an older store's warm/kernel-*.json files are not calibrations
    return sum(1 for p in warm_dir.glob("*.json") if not p.name.startswith("kernel-"))


def _replay_index(index_path: Path) -> tuple[OrderedDict[str, None], StoreStats, int]:
    """Replay the index journal: ``(entries in LRU order, counters, records)``.

    The last ``counters`` record sets the counters; every ``put``,
    ``touch`` and ``evict`` after it adds one put, hit or eviction, so a
    store that was never closed keeps its history.  Misses are not
    journaled: those since the last ``counters`` record are lost.
    """
    order: OrderedDict[str, None] = OrderedDict()
    counters = StoreStats()
    records = 0
    if not index_path.exists():
        return order, counters, records
    for rec in read_jsonl(index_path):
        records += 1
        op = rec.get("op")
        rel = rec.get("entry")
        if op == "counters":
            counters = StoreStats(
                hits=int(rec.get("hits", 0)),
                misses=int(rec.get("misses", 0)),
                puts=int(rec.get("puts", 0)),
                evictions=int(rec.get("evictions", 0)),
            )
        elif op in ("put", "touch"):
            if op == "put":
                counters.puts += 1
            else:
                counters.hits += 1
            if isinstance(rel, str):
                order.pop(rel, None)
                order[rel] = None  # most recent use last
        elif op == "evict":
            counters.evictions += 1
            if isinstance(rel, str):
                order.pop(rel, None)
    return order, counters, records


class ResultStore:
    """Persistent, crash-consistent, LRU-bounded run-result cache.

    Thread-safe: the server's asyncio handlers and its executor thread
    share one instance.  All mutation happens under one lock; entry
    files themselves are written atomically, so concurrent *processes*
    pointed at the same directory stay readable too (they may disagree
    about recency, never about content).
    """

    #: journal records tolerated beyond ``4 × live entries`` before an
    #: in-line compaction; class attribute so tests can shrink it
    COMPACT_MIN_OPS = 4096

    def __init__(self, base_dir: str | Path, max_bytes: int | None = None):
        self.base = Path(base_dir)
        self.store_dir = self.base / STORE_DIR_NAME
        self.warm_dir = self.base / WARM_DIR_NAME
        self.index_path = self.base / INDEX_NAME
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: rel path -> size in bytes, in least-recently-used-first order
        self._entries: OrderedDict[str, int] = OrderedDict()
        self._bytes = 0
        self._journal_ops = 0  # records currently in index.jsonl
        self.counters = StoreStats()
        for d in (self.store_dir, self.warm_dir):
            d.mkdir(parents=True, exist_ok=True)
        self._load()

    # -- load / reconcile ----------------------------------------------------
    def _load(self) -> None:
        order, self.counters, self._journal_ops = _replay_index(self.index_path)
        # filesystem is the source of truth for existence and size
        on_disk: dict[str, int] = {}
        for path in sorted(self.store_dir.glob("*/*.json")):
            rel = f"{path.parent.name}/{path.name}"
            try:
                on_disk[rel] = path.stat().st_size
            except OSError:  # pragma: no cover - raced unlink
                continue
        for rel in order:
            if rel in on_disk:
                self._entries[rel] = on_disk.pop(rel)
        for rel, size in on_disk.items():  # present but unjournaled (torn index)
            self._entries[rel] = size
        self._bytes = sum(self._entries.values())

    # -- the cache protocol --------------------------------------------------
    def get(self, ctx_hash: str, run_id: str) -> dict | None:
        """Return the stored result document, or ``None`` on a miss."""
        rel = _entry_rel(ctx_hash, run_id)
        with self._lock:
            if rel not in self._entries:
                self.counters.misses += 1
                return None
            path = self.store_dir / rel
            try:
                doc = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                # entry vanished or is foreign-corrupt: treat as a miss
                self._forget(rel)
                self.counters.misses += 1
                return None
            self._entries.move_to_end(rel)
            self.counters.hits += 1
            # recency hint only — no fsync, a lost touch costs nothing
            try:
                self._journal({"op": "touch", "entry": rel}, fsync=False)
            except OSError:  # pragma: no cover - read-only store
                pass
            return doc

    def contains(self, ctx_hash: str, run_id: str) -> bool:
        """Membership test that moves no LRU state and counts nothing."""
        with self._lock:
            return _entry_rel(ctx_hash, run_id) in self._entries

    def put(self, ctx_hash: str, run_id: str, doc: dict) -> Path:
        """Durably store one result document; returns its path.

        Re-putting an existing entry rewrites it in place (the bytes
        are canonically identical for a deterministic engine) and
        refreshes its recency.
        """
        rel = _entry_rel(ctx_hash, run_id)
        path = self.store_dir / rel
        text = canonical_json(doc)
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_write(path) as fh:
                fh.write(text)
            size = len(text.encode())
            if rel in self._entries:
                self._bytes -= self._entries.pop(rel)
            self._entries[rel] = size
            self._bytes += size
            self.counters.puts += 1
            self._journal({"op": "put", "entry": rel, "bytes": size})
            self._evict_over_budget()
        return path

    def _forget(self, rel: str) -> None:
        size = self._entries.pop(rel, None)
        if size is not None:
            self._bytes -= size

    # -- the index journal ---------------------------------------------------
    def _journal(self, rec: dict, fsync: bool = True) -> None:
        # caller holds the lock
        append_jsonl(self.index_path, rec, fsync=fsync)
        self._journal_ops += 1
        if self._journal_ops >= max(self.COMPACT_MIN_OPS,
                                    4 * (len(self._entries) + 1)):
            self._compact_locked()

    def _compact_locked(self) -> None:
        """Atomically rewrite the journal as its minimal equivalent.

        One ``put`` record per live entry in LRU order (preserving
        recency), then the counters — exactly what ``_load`` and
        :func:`scan_store` would distill the full history down to.
        Best-effort: on read-only media the oversized journal is kept
        rather than failing the operation that triggered compaction.
        """
        recs = [{"op": "put", "entry": rel, "bytes": size}
                for rel, size in self._entries.items()]
        tail: dict = {"op": "counters", "ts": time.time()}
        tail.update(self.counters.to_dict())
        recs.append(tail)
        try:
            with atomic_write(self.index_path) as fh:
                for rec in recs:
                    fh.write(json.dumps(
                        rec, sort_keys=True, separators=(",", ":")) + "\n")
        except OSError:  # pragma: no cover - read-only store
            return
        self._journal_ops = len(recs)

    def _evict_over_budget(self) -> None:
        # caller holds the lock
        if self.max_bytes is None:
            return
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            rel, size = next(iter(self._entries.items()))
            self._entries.pop(rel)
            self._bytes -= size
            (self.store_dir / rel).unlink(missing_ok=True)
            self.counters.evictions += 1
            self._journal({"op": "evict", "entry": rel})
            _log.info("evicted %s (%d bytes) over %d-byte budget", rel, size, self.max_bytes)

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """Live statistics (entries, bytes, counters)."""
        with self._lock:
            out = {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "contexts": len({rel.split("/", 1)[0] for rel in self._entries}),
                "warm_calibrations": _count_warm_calibrations(self.warm_dir),
            }
            out.update(self.counters.to_dict())
            return out

    def close(self) -> None:
        """Compact the journal, persisting counters for a restart."""
        with self._lock:
            self._compact_locked()


def scan_store(base_dir: str | Path) -> dict | None:
    """Non-mutating statistics for ``repro inspect`` on a store directory.

    Returns ``None`` when *base_dir* holds no store (no ``store/``
    subdirectory and no index journal).  Never writes: counters come
    from the last ``counters`` record in the index journal plus the
    operations after it, entries and bytes from the filesystem.
    """
    base = Path(base_dir)
    store_dir = base / STORE_DIR_NAME
    index_path = base / INDEX_NAME
    if not store_dir.is_dir() and not index_path.exists():
        return None
    entries = 0
    nbytes = 0
    contexts = set()
    if store_dir.is_dir():
        for path in store_dir.glob("*/*.json"):
            try:
                nbytes += path.stat().st_size
            except OSError:  # pragma: no cover - raced unlink
                continue
            entries += 1
            contexts.add(path.parent.name)
    _, stats, _ = _replay_index(index_path)
    return {
        "entries": entries,
        "bytes": nbytes,
        "contexts": len(contexts),
        "warm_calibrations": _count_warm_calibrations(base / WARM_DIR_NAME),
        **stats.to_dict(),
    }


# -- warm-start calibrations ------------------------------------------------

def warm_calibration_key(
    *,
    app: str,
    machine: str,
    calib_nprocs: int,
    calib_inputs: dict[str, float],
    seed: int,
) -> str:
    """Content hash of everything a calibration run depends on.

    This is exactly the tuple
    :meth:`~repro.workflow.pipeline.ModelingWorkflow.prime` requires
    the caller to vouch for: same app, machine, calibration
    configuration and seed → bit-identical calibration (the engine is
    deterministic), so the cache can never serve a stale front half.
    """
    return content_hash(
        {
            "kind": "warm-calibration",
            "app": app,
            "machine": machine,
            "calib_nprocs": int(calib_nprocs),
            "calib_inputs": {str(k): v for k, v in sorted(calib_inputs.items())},
            "seed": int(seed),
        }
    )


def save_warm_calibration(warm_dir: str | Path, wkey: str, cal: Calibration) -> Path:
    """Atomically persist *cal* under *warm_dir*/``<wkey>.json``.

    A concurrent saver with the same key writes identical bytes (the
    engine is deterministic), so the last rename winning is harmless.
    """
    warm = Path(warm_dir)
    warm.mkdir(parents=True, exist_ok=True)
    path = warm / f"{wkey}.json"
    doc = {
        "schema_version": 1,
        "kind": "warm-calibration",
        "program": cal.program,
        "inputs": dict(cal.inputs),
        "nprocs": cal.nprocs,
        "machine": cal.machine,
        "wparams": dict(cal.wparams),
        "profile": cal.profile.to_dict(),
        "elapsed": cal.elapsed,
    }
    with atomic_write(path) as fh:
        fh.write(canonical_json(doc))
    return path


def load_warm_calibration(
    warm_dir: str | Path, wkey: str, program: str | None = None
) -> Calibration | None:
    """Load a stored calibration, or ``None`` when absent or unusable.

    *program*, when given, cross-checks the entry against the app it
    is about to prime — a hash collision or hand-edited file must
    degrade to a cold start, never a silently wrong model.
    """
    path = Path(warm_dir) / f"{wkey}.json"
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        _log.warning("unusable warm calibration %s: %s", path, exc)
        return None
    if program is not None and doc.get("program") != program:
        _log.warning(
            "warm calibration %s is for %r, wanted %r; ignoring",
            path, doc.get("program"), program,
        )
        return None
    try:
        return Calibration(
            program=doc["program"],
            inputs={str(k): float(v) for k, v in doc["inputs"].items()},
            nprocs=int(doc["nprocs"]),
            machine=doc["machine"],
            wparams={str(k): float(v) for k, v in doc["wparams"].items()},
            profile=BranchProfile.from_dict(doc.get("profile", {})),
            elapsed=float(doc.get("elapsed", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        _log.warning("malformed warm calibration %s: %s", path, exc)
        return None
