"""Content-addressed result store: memoize runs across campaigns.

The serving layer (:mod:`repro.serve`) treats a simulation run as a
pure function of ``(request, execution context)``: the request is a
:class:`repro.api.RunRequest` (identity = ``content_hash()``), the
context is everything else that shapes the numbers — machine,
budgets, calibration policy, retry policy — captured by
:meth:`repro.api.CampaignRequest.context_hash`.  This module persists
that function's graph:

``<base>/results.jsonl``
    one append-only log of ``put`` / ``touch`` / ``evict`` /
    ``counters`` records (:func:`~repro.util.atomic_io.append_lines`).
    A ``put`` carries one :class:`repro.api.RunResult` document and its
    size, so storing a result is one write plus one ``fsync``, and a get
    is one ``pread`` at the offset an in-memory index keeps.  ``touch``
    records (hits) are not fsynced: a lost recency hint only degrades
    LRU order.  A crash can tear only the final record, which replay
    drops and the next append truncates.  :meth:`ResultStore.close`, and
    any append that leaves the log a few times longer than the live
    entries, *compacts* it: an atomic rewrite of the live ``put``
    records in LRU order plus a ``counters`` record.

``<base>/warm/<wkey>.json``
    warm-start calibrations — the expensive front half of the Fig. 2
    pipeline (measurement run + branch profile) keyed by the hash of
    ``(app, machine, calib_nprocs, calib_inputs, seed)``, exactly the
    tuple :meth:`repro.workflow.pipeline.ModelingWorkflow.prime`
    demands the caller vouch for.  Supervised ``--jobs N`` workers
    write them directly.

An open :class:`ResultStore` holds an exclusive ``flock`` on ``<base>``
until :meth:`~ResultStore.close`, because its offsets hold only while
it is the log's one writer: a second store on the directory, in any
process, raises :class:`StoreInUseError`.  :func:`scan_store` reads
without the lock.

Only data is stored, never code (kernels are re-lowered per process).
An older store's ``warm/kernel-*.json``, ``store/`` tree and
``index.jsonl`` are not read: the store is a cache, so those entries
miss once and recompute byte-identical results.

Eviction is LRU over a byte budget (``max_bytes``): a put that pushes
the store over budget evicts least-recently-*used* entries (gets count
as use) until it fits.  Warm calibrations are tiny and never evicted.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
import time
import weakref
from collections import OrderedDict
from pathlib import Path

from .api import canonical_json, content_hash
from .ir.interp import BranchProfile
from .measure import Calibration
from .obs.logging import get_logger
from .util.atomic_io import append_lines, atomic_write

__all__ = [
    "ResultStore",
    "StoreInUseError",
    "scan_store",
    "warm_calibration_key",
    "save_warm_calibration",
    "load_warm_calibration",
    "LOG_NAME",
    "WARM_DIR_NAME",
]

_log = get_logger("store")

LOG_NAME = "results.jsonl"
WARM_DIR_NAME = "warm"


class StoreInUseError(RuntimeError):
    """Another open :class:`ResultStore` holds the directory's lock."""


#: the lifetime counters ``stats()`` reports and ``counters`` records keep
_COUNTERS = ("hits", "misses", "puts", "evictions")

#: the open stores of this process.  A forked child (a supervised
#: ``--jobs N`` worker) closes its copies of their descriptors, so the
#: lock dies with the process that took it, not with its last worker.
_OPEN: weakref.WeakSet[ResultStore] = weakref.WeakSet()


def _close_in_child() -> None:
    for store in list(_OPEN):
        store._close_fds()


os.register_at_fork(after_in_child=_close_in_child)


def _count_warm_calibrations(warm_dir: Path) -> int:
    # an older store's warm/kernel-*.json files are not calibrations
    return sum(1 for p in warm_dir.glob("*.json") if not p.name.startswith("kernel-"))


def _line(rec: dict) -> bytes:
    return canonical_json(rec).encode() + b"\n"


#: where a put record's result begins: canonical JSON sorts ``result``
#: after ``bytes``, ``entry`` and ``op``, so everything before it is the
#: record's envelope
_RESULT_AT = b',"result":'


def _envelope(line: bytes) -> dict:
    """One log record, of a put only its envelope (``bytes``, ``entry``,
    ``op``); ``ValueError`` unless the line is a whole record.

    A put's length must match the result size its envelope declares.
    The result itself is not parsed: :meth:`ResultStore.get` checks it.
    """
    if not line.startswith(b'{"bytes":'):
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError("record is not a JSON object")
        return rec
    cut = line.find(_RESULT_AT)
    rec = json.loads(line[:cut] + b"}") if cut > 0 else None
    size = rec.get("bytes") if isinstance(rec, dict) else None
    # the record ends with the result, its closing brace and a newline
    if not isinstance(size, int) or \
            len(line.rstrip(b"\n")) != cut + len(_RESULT_AT) + size + 1:
        raise ValueError("put record does not match its envelope")
    return rec


def _replay(log_path: Path) -> tuple[OrderedDict[str, tuple[int, int, int]], dict, int]:
    """Replay the log: ``(entry -> (offset, length, bytes) in LRU order,
    counters, records)``.

    The last ``counters`` record sets the counters; every ``put``,
    ``touch`` and ``evict`` after it adds one put, hit or eviction, so a
    store that was never closed keeps its history.  Misses are not
    logged: those since the last ``counters`` record are lost.  A torn
    final line is dropped (the next append truncates it); any other
    line that is not a whole record is skipped with a warning.
    """
    entries: OrderedDict[str, tuple[int, int, int]] = OrderedDict()
    counters = dict.fromkeys(_COUNTERS, 0)
    try:
        lines = log_path.read_bytes().splitlines(keepends=True)
    except FileNotFoundError:
        lines = []
    last = len(lines)
    while last and not lines[last - 1].strip():
        last -= 1  # ignore blank tails
    records = end = 0
    for lineno, line in enumerate(lines[:last], start=1):
        offset, end = end, end + len(line)
        if not line.strip():
            continue
        try:
            rec = _envelope(line)
        except ValueError:
            if lineno == last:
                _log.warning("%s:%d: skipping incomplete final line "
                             "(torn O_APPEND write)", log_path, lineno)
                break
            _log.warning("%s:%d: skipping unreadable record", log_path, lineno)
            continue
        records += 1
        op = rec.get("op")
        key = rec.get("entry")
        if op == "counters":
            counters = {name: int(rec.get(name, 0)) for name in _COUNTERS}
        elif not isinstance(key, str):
            continue
        elif op == "put":
            counters["puts"] += 1
            entries.pop(key, None)
            entries[key] = (offset, len(line), int(rec.get("bytes", 0)))
        elif op == "touch":
            counters["hits"] += 1
            if key in entries:
                entries.move_to_end(key)  # most recent use last
        elif op == "evict":
            counters["evictions"] += 1
            entries.pop(key, None)
    return entries, counters, records


class ResultStore:
    """Persistent, crash-consistent, LRU-bounded run-result cache.

    Thread-safe: the server's accept threads share one instance, and all
    its state changes under one lock.
    """

    #: log records tolerated beyond ``4 × live entries`` before an
    #: in-line compaction; class attribute so tests can shrink it
    COMPACT_MIN_OPS = 4096

    def __init__(self, base_dir: str | Path, max_bytes: int | None = None):
        self.base = Path(base_dir)
        self.warm_dir = self.base / WARM_DIR_NAME
        self.log_path = self.base / LOG_NAME
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.warm_dir.mkdir(parents=True, exist_ok=True)
        self._dir_fd = os.open(self.base, os.O_RDONLY)
        try:
            fcntl.flock(self._dir_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # entry -> (offset, length, bytes) of its put record, LRU first
            self._entries, self.counters, self._records = _replay(self.log_path)
            self._fd = os.open(self.log_path, os.O_RDONLY | os.O_CREAT, 0o644)
        except BaseException as exc:
            os.close(self._dir_fd)
            if isinstance(exc, BlockingIOError):
                raise StoreInUseError(f"result store {self.base} is in use: "
                                      "another open store holds its lock") from None
            raise
        self._bytes = sum(size for _, _, size in self._entries.values())
        _OPEN.add(self)

    # -- the cache protocol --------------------------------------------------
    def get(self, ctx_hash: str, run_id: str) -> dict | None:
        """Return the stored result document, or ``None`` on a miss."""
        key = f"{ctx_hash}/{run_id}"
        with self._lock:
            found = self._read(key)
            if found is None:
                self.counters["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self.counters["hits"] += 1
            # recency hint only — no fsync, a lost touch costs nothing
            try:
                append_lines(self.log_path, _line({"op": "touch", "entry": key}), fsync=False)
                self._logged(1)
            except OSError:  # pragma: no cover - read-only store
                pass
            return found[1]["result"]

    def contains(self, ctx_hash: str, run_id: str) -> bool:
        """Membership test that moves no LRU state and counts nothing."""
        with self._lock:
            return f"{ctx_hash}/{run_id}" in self._entries

    def put(self, ctx_hash: str, run_id: str, doc: dict) -> None:
        """Durably store one result document: one append, one ``fsync``.

        Re-putting an entry appends a new record (the bytes are
        canonically identical for a deterministic engine) and refreshes
        its recency.  The entries a put evicts are logged in the same
        write, so a put that raises has changed nothing.
        """
        key = f"{ctx_hash}/{run_id}"
        # the canonical result is serialized once: payload and size
        text = canonical_json(doc).encode()
        put = b'{"bytes":%d,"entry":%s,"op":"put","result":%s}\n' % (
            len(text), json.dumps(key).encode(), text)
        with self._lock:
            victims = self._victims(key, len(text))
            offset = append_lines(self.log_path, put + b"".join(
                _line({"op": "evict", "entry": v}) for v in victims))
            for v in victims:
                _log.info("evicted %s (%d bytes) over %d-byte budget",
                          v, self._entries[v][2], self.max_bytes)
                self._forget(v)
            self._forget(key)
            self._entries[key] = (offset, len(put), len(text))
            self._bytes += len(text)
            self.counters["puts"] += 1
            self.counters["evictions"] += len(victims)
            self._logged(1 + len(victims))

    def _read(self, key: str) -> tuple[bytes, dict] | None:
        """*key*'s put record, raw and parsed; ``None`` when the entry is
        absent, or forgotten when its record is unreadable or not its own."""
        # caller holds the lock
        loc = self._entries.get(key)
        if loc is None:
            return None
        try:
            raw = os.pread(self._fd, loc[1], loc[0])
            rec = json.loads(raw)
        except (OSError, ValueError):
            rec = None
        if (isinstance(rec, dict) and rec.get("op") == "put"
                and rec.get("entry") == key and isinstance(rec.get("result"), dict)):
            return raw, rec
        _log.warning("unreadable record for %s at offset %d: dropped", key, loc[0])
        self._forget(key)
        return None

    def _forget(self, key: str) -> None:
        loc = self._entries.pop(key, None)
        if loc is not None:
            self._bytes -= loc[2]

    def _victims(self, key: str, size: int) -> list[str]:
        """The least recently used entries that a put of *size* bytes
        under *key* evicts to fit the budget; never *key* itself."""
        if self.max_bytes is None:
            return []
        total = self._bytes + size - self._entries.get(key, (0, 0, 0))[2]
        victims = []
        for other, (_, _, n) in self._entries.items():
            if total <= self.max_bytes:
                break
            if other != key:
                victims.append(other)
                total -= n
        return victims

    # -- compaction ----------------------------------------------------------
    def _logged(self, records: int) -> None:
        # caller holds the lock, after the index reflects the records
        self._records += records
        if self._records >= max(self.COMPACT_MIN_OPS, 4 * (len(self._entries) + 1)):
            self._compact_locked()

    def _compact_locked(self) -> None:
        """Atomically rewrite the log as its minimal equivalent.

        The live ``put`` records in LRU order (preserving recency), then
        the counters — exactly what replay and :func:`scan_store` would
        distill the full history down to.  Best-effort: when the rewrite
        fails (read-only or full media) the longer log is kept rather
        than failing the operation that triggered compaction.
        """
        kept: OrderedDict[str, tuple[int, int, int]] = OrderedDict()
        end = 0
        try:
            with atomic_write(self.log_path, mode="wb") as fh:
                for key in list(self._entries):
                    found = self._read(key)
                    if found is not None:
                        raw = found[0].rstrip(b"\n") + b"\n"
                        fh.write(raw)
                        kept[key] = (end, len(raw), self._entries[key][2])
                        end += len(raw)
                fh.write(_line({"op": "counters", "ts": time.time(), **self.counters}))
        except OSError as exc:
            _log.warning("cannot compact %s: %s", self.log_path, exc)
            return
        self._entries, self._records = kept, len(kept) + 1
        os.close(self._fd)
        self._fd = os.open(self.log_path, os.O_RDONLY)

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """Live statistics (entries, bytes, counters)."""
        with self._lock:
            return {**_stats(self._entries, self.counters, self.warm_dir),
                    "max_bytes": self.max_bytes}

    def close(self) -> None:
        """Compact the log (persisting counters) and release the lock; idempotent."""
        with self._lock:
            if self._fd is None:
                return
            try:
                self._compact_locked()
            finally:
                self._close_fds()

    def _close_fds(self) -> None:
        """Drop the log and the lock uncompacted, as the process's death does."""
        _OPEN.discard(self)
        os.close(self._fd)
        os.close(self._dir_fd)
        self._fd = self._dir_fd = None


def _stats(entries: dict, counters: dict, warm_dir: Path) -> dict:
    return {
        "entries": len(entries),
        "bytes": sum(size for _, _, size in entries.values()),
        "contexts": len({key.split("/", 1)[0] for key in entries}),
        "warm_calibrations": _count_warm_calibrations(warm_dir),
        **counters,
    }


def scan_store(base_dir: str | Path) -> dict | None:
    """Non-mutating statistics for ``repro inspect`` on a store directory.

    ``None`` when *base_dir* holds neither a store log nor ``warm/``
    (an older store has only the latter).  Takes no lock and never
    writes, so it reads a store a server has open: everything comes
    from replaying the log.
    """
    base = Path(base_dir)
    if not (base / LOG_NAME).exists() and not (base / WARM_DIR_NAME).is_dir():
        return None
    entries, counters, _ = _replay(base / LOG_NAME)
    return _stats(entries, counters, base / WARM_DIR_NAME)


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
