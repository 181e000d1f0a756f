"""Content-addressed result store: memoize runs across campaigns.

The serving layer (:mod:`repro.serve`) treats a simulation run as a
pure function of ``(request, execution context)``: the request is a
:class:`repro.api.RunRequest` (identity = ``content_hash()``), the
context is everything else that shapes the numbers — machine,
budgets, calibration policy, retry policy — captured by
:meth:`repro.api.CampaignRequest.context_hash`.  This module persists
that function's graph:

``<base>/results.jsonl``
    one append-only log of ``put`` / ``calibration`` / ``touch`` /
    ``evict`` / ``counters`` records
    (:func:`~repro.util.atomic_io.append_lines`).  A ``put`` carries one
    :class:`repro.api.RunResult` document and its size, so storing a
    result is one write plus one ``fsync``, and a get is one ``pread`` at
    the offset an in-memory index keeps.  A ``calibration`` record has
    the same layout and carries a warm-start calibration
    (:meth:`repro.measure.Calibration.to_json`), the expensive front
    half of the Fig. 2 pipeline, keyed by :func:`warm_calibration_key`;
    it rides the write of the result of the ``am`` run that measured it,
    and a later record of its key replaces it.
    ``touch`` records (hits) are not fsynced: a lost recency hint only
    degrades LRU order.  A crash can tear only the final record, which
    replay drops and the next append truncates.
    :meth:`ResultStore.close`, and any append that leaves the log a few
    times longer than the live records, *compacts* it: an atomic
    rewrite of the live ``put`` records in LRU order, the
    ``calibration`` records and a ``counters`` record.

An open :class:`ResultStore` holds an exclusive ``flock`` on ``<base>``
until :meth:`~ResultStore.close`, because its offsets hold only while
it is the log's one writer: a second store on the directory, in any
process, raises :class:`StoreInUseError`.  :func:`scan_store` reads
without the lock.

Only data is stored, never code (kernels are re-lowered per process).
An older store's ``warm/`` directory, ``store/`` tree and
``index.jsonl`` are not read: the store is a cache, so those entries
miss once and recompute byte-identical results.

Eviction is LRU over a byte budget (``max_bytes``): a put that pushes
the store over budget evicts least-recently-*used* entries (gets count
as use) until it fits.  Calibrations are tiny and never evicted.
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
from .obs.logging import get_logger
from .util.atomic_io import append_lines, atomic_write

__all__ = [
    "ResultStore",
    "StoreInUseError",
    "scan_store",
    "warm_calibration_key",
    "LOG_NAME",
]

_log = get_logger("store")

LOG_NAME = "results.jsonl"


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


def _line(rec: dict) -> bytes:
    return canonical_json(rec).encode() + b"\n"


def _document_line(op: str, key: str, text: bytes) -> bytes:
    """A ``put`` or ``calibration`` record: its envelope, then *text*,
    the canonical document, as canonical JSON orders the keys."""
    return b'{"bytes":%d,"entry":%s,"op":"%s","result":%s}\n' % (
        len(text), json.dumps(key).encode(), op.encode(), text)


def _calibration_record(key: str, doc: dict) -> tuple[str, bytes]:
    """``(key, line)``: the ``calibration`` record of *doc* under *key*."""
    return key, _document_line("calibration", key, canonical_json(doc).encode())


#: where a document record's payload begins: canonical JSON sorts
#: ``result`` after ``bytes``, ``entry`` and ``op``, so everything
#: before it is the record's envelope
_RESULT_AT = b',"result":'


def _envelope(line: bytes) -> dict:
    """One log record, of a ``put`` or ``calibration`` only its envelope
    (``bytes``, ``entry``, ``op``); ``ValueError`` unless the line is a
    whole record.

    Its length must match the document size its envelope declares.  The
    document itself is not parsed: a read checks it.
    """
    if not line.startswith(b'{"bytes":'):
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError("record is not a JSON object")
        return rec
    cut = line.find(_RESULT_AT)
    rec = json.loads(line[:cut] + b"}") if cut > 0 else None
    size = rec.get("bytes") if isinstance(rec, dict) else None
    # the record ends with the document, its closing brace and a newline
    if not isinstance(size, int) or \
            len(line.rstrip(b"\n")) != cut + len(_RESULT_AT) + size + 1:
        raise ValueError("record does not match its envelope")
    return rec


def _replay(log_path: Path) -> tuple[OrderedDict, dict, dict, int]:
    """Replay the log: ``(entry -> (offset, length, bytes) in LRU order,
    calibration key -> (offset, length), counters, records)``.

    The last ``counters`` record sets the counters; every ``put``,
    ``touch`` and ``evict`` after it adds one put, hit or eviction, so a
    store that was never closed keeps its history.  Misses are not
    logged: those since the last ``counters`` record are lost.  A torn
    final line is dropped (the next append truncates it); any other
    line that is not a whole record is skipped with a warning.
    """
    entries: OrderedDict[str, tuple[int, int, int]] = OrderedDict()
    calibrations: dict[str, tuple[int, int]] = {}
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
        elif op == "calibration":
            calibrations[key] = (offset, len(line))
        elif op == "touch":
            counters["hits"] += 1
            if key in entries:
                entries.move_to_end(key)  # most recent use last
        elif op == "evict":
            counters["evictions"] += 1
            entries.pop(key, None)
    return entries, calibrations, counters, records


class ResultStore:
    """Persistent, crash-consistent, LRU-bounded run-result cache.

    Thread-safe: the server's accept threads share one instance, and all
    its state changes under one lock.
    """

    #: log records tolerated beyond ``4 × live records`` before an
    #: in-line compaction; class attribute so tests can shrink it
    COMPACT_MIN_OPS = 4096

    def __init__(self, base_dir: str | Path, max_bytes: int | None = None):
        self.base = Path(base_dir)
        self.log_path = self.base / LOG_NAME
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.base.mkdir(parents=True, exist_ok=True)
        self._dir_fd = os.open(self.base, os.O_RDONLY)
        try:
            fcntl.flock(self._dir_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # entry -> (offset, length, bytes) of its put record, LRU first;
            # calibration key -> (offset, length) of its calibration record
            (self._entries, self._calibrations, self.counters,
             self._records) = _replay(self.log_path)
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
            found = self._read(key, "put", full=True)
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

    def calibration(self, key: str) -> dict | None:
        """The stored warm-start calibration document under *key*, or
        ``None``; counts nothing."""
        with self._lock:
            found = self._read(key, "calibration", full=True)
            return None if found is None else found[1]["result"]

    def contains(self, ctx_hash: str, run_id: str) -> bool:
        """Membership test that moves no LRU state and counts nothing."""
        with self._lock:
            return f"{ctx_hash}/{run_id}" in self._entries

    def put(self, ctx_hash: str, run_id: str, doc: dict,
            calibration: tuple[str, dict] | None = None) -> None:
        """Durably store one result document: one append, one ``fsync``.

        Re-putting an entry appends a new record (the bytes are
        canonically identical for a deterministic engine) and refreshes
        its recency.  The entries a put evicts are logged in the same
        write, and so is *calibration*, ``(key, document)``, the
        warm-start calibration the run measured, so a put that raises
        has changed nothing.
        """
        key = f"{ctx_hash}/{run_id}"
        # the canonical result is serialized once: payload and size
        text = canonical_json(doc).encode()
        put = _document_line("put", key, text)
        record = None if calibration is None else _calibration_record(*calibration)
        with self._lock:
            victims = self._victims(key, len(text))
            offset = self._append(put + b"".join(
                _line({"op": "evict", "entry": v}) for v in victims), record)
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

    def put_calibration(self, key: str, doc: dict) -> None:
        """Durably store a warm-start calibration whose run stored no
        result: one append, one ``fsync``."""
        record = _calibration_record(key, doc)
        with self._lock:
            self._append(b"", record)
            self._logged(0)

    def _append(self, lines: bytes, record: tuple[str, bytes] | None) -> int:
        """Append *lines*, then the calibration *record*, ``(key, line)``
        (which replaces an older one of its key), in one write; the
        offset of *lines*."""
        # caller holds the lock, and logs the records of *lines*
        line = b"" if record is None else record[1]
        offset = append_lines(self.log_path, lines + line)
        if record is not None:
            self._calibrations[record[0]] = (offset + len(lines), len(line))
            self._records += 1
        return offset

    def _read(self, key: str, op: str, full: bool) -> tuple[bytes, dict] | None:
        """*key*'s *op* record, raw and parsed (in *full*, or its
        envelope); ``None`` when the key is absent, or forgotten when
        its record is unreadable or not its own."""
        # caller holds the lock
        index = self._entries if op == "put" else self._calibrations
        loc = index.get(key)
        if loc is None:
            return None
        try:
            raw = os.pread(self._fd, loc[1], loc[0])
            rec = json.loads(raw) if full else _envelope(raw)
        except (OSError, ValueError):
            rec = None
        if (isinstance(rec, dict) and rec.get("op") == op and rec.get("entry") == key
                and (not full or isinstance(rec.get("result"), dict))):
            return raw, rec
        _log.warning("unreadable record for %s at offset %d: dropped", key, loc[0])
        if op == "put":
            self._forget(key)
        else:
            del index[key]
        return None

    def _forget(self, key: str) -> None:
        loc = self._entries.pop(key, None)
        if loc is not None:
            self._bytes -= loc[2]

    def _victims(self, key: str, size: int) -> list[str]:
        """The least recently used entries that a put of *size* bytes
        under *key* evicts to fit the budget; never *key* itself, and
        never a calibration."""
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
        live = len(self._entries) + len(self._calibrations)
        if self._records >= max(self.COMPACT_MIN_OPS, 4 * (live + 1)):
            self._compact_locked()

    def _compact_locked(self) -> None:
        """Atomically rewrite the log as its minimal equivalent.

        The live ``put`` records in LRU order (preserving recency), the
        ``calibration`` records, then the counters — exactly what replay
        and :func:`scan_store` would distill the full history down to.
        Each record is copied once its envelope checks out; its document
        is not parsed (a get checks it).  Best-effort: when the rewrite
        fails (read-only or full media) the longer log is kept rather
        than failing the operation that triggered compaction.
        """
        kept = {"put": OrderedDict(), "calibration": {}}
        end = 0
        try:
            with atomic_write(self.log_path, mode="wb") as fh:
                for op, index in (("put", self._entries),
                                  ("calibration", self._calibrations)):
                    for key in list(index):
                        found = self._read(key, op, full=False)
                        if found is not None:
                            raw = found[0].rstrip(b"\n") + b"\n"
                            fh.write(raw)
                            kept[op][key] = (end, len(raw), *index[key][2:])
                            end += len(raw)
                fh.write(_line({"op": "counters", "ts": time.time(), **self.counters}))
        except OSError as exc:
            _log.warning("cannot compact %s: %s", self.log_path, exc)
            return
        self._entries, self._calibrations = kept["put"], kept["calibration"]
        self._records = len(self._entries) + len(self._calibrations) + 1
        os.close(self._fd)
        self._fd = os.open(self.log_path, os.O_RDONLY)

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """Live statistics (entries, bytes, counters)."""
        with self._lock:
            return {**_stats(self._entries, self._calibrations, self.counters),
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


def _stats(entries: dict, calibrations: dict, counters: dict) -> dict:
    return {
        "entries": len(entries),
        "bytes": sum(size for _, _, size in entries.values()),
        "contexts": len({key.split("/", 1)[0] for key in entries}),
        "warm_calibrations": len(calibrations),
        **counters,
    }


def scan_store(base_dir: str | Path) -> dict | None:
    """Non-mutating statistics for ``repro inspect`` on a store directory.

    ``None`` when *base_dir* holds no store log.  Takes no lock and
    never writes, so it reads a store a server has open: everything
    comes from replaying the log.
    """
    log_path = Path(base_dir) / LOG_NAME
    if not log_path.exists():
        return None
    entries, calibrations, counters, _ = _replay(log_path)
    return _stats(entries, calibrations, counters)


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
