"""Crash-consistent file writing: whole files by rename, logs by append.

Every artifact the system produces funnels through this module so that
a crash — OOM, SIGKILL, power loss — mid-write can never leave a
truncated artifact that a later reader trusts.  There are two
protocols.

Whole-file artifacts (Perfetto exports, CSV reports, trace archives,
the result store's compacted log and warm calibrations, quarantine
artifacts) go through :func:`atomic_write`, the classic tmp + fsync +
rename:

1. write the full content to ``<name>.tmp.<pid>.<counter>`` in the
   *same directory* (rename must not cross filesystems);
2. close the handle, then reopen and ``os.fsync`` the raw temporary
   file — closing first matters for compressed streams, whose trailer
   (e.g. the gzip CRC/length) is only written during ``close()``;
3. ``os.replace`` it over the final name (atomic on POSIX and Windows);
4. ``os.fsync`` the parent directory, so the rename itself survives
   power loss.

Readers therefore observe either the old complete file or the new
complete file, never a torn intermediate.  On any exception the
temporary file is removed and the final name untouched.

Append-only JSONL logs (campaign and fuzz journals, telemetry
capsules) go through :func:`append_jsonl`: one ``O_APPEND`` write plus
``fsync`` per record, O(record) however long the log.  A crash can tear
only the final line; :func:`read_jsonl` drops it and the next append
truncates it, so every log recovers the same way.  :class:`AtomicJournal`
is a journal on top of the pair.  :func:`append_lines` is the same
append for pre-encoded lines, and returns the offset they start at; the
result store (:mod:`repro.store`) appends its records through it and
reads them back by offset, which :func:`scan_jsonl` reports for each
record on load.  (The high-frequency metrics sink,
:class:`repro.obs.metrics.JsonlSink`, appends whole flushes through
:func:`append_lines` without ``fsync``; a torn final line recovers the
same way.)
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "atomic_write",
    "atomic_write_text",
    "append_jsonl",
    "append_lines",
    "read_jsonl",
    "scan_jsonl",
    "AtomicJournal",
]

#: process-wide counter so concurrent writers in one process never collide
_tmp_ids = itertools.count()


def _tmp_path(path: Path) -> Path:
    return path.with_name(f"{path.name}.tmp.{os.getpid()}.{next(_tmp_ids)}")


def _fsync_dir(dirpath: Path) -> None:
    """Best-effort fsync of a directory, making a rename in it durable."""
    try:
        fd = os.open(dirpath, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory opens
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems rejecting dir fsync
        pass
    finally:
        os.close(fd)


def _fsync_and_replace(fh, tmp: Path, path: Path) -> None:
    # Close before syncing: GzipFile writes its CRC/length trailer during
    # close(), so an fsync of the live handle would miss the file's tail.
    # Reopening the raw tmp file syncs the complete bytes for any opener.
    fh.close()
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


@contextmanager
def atomic_write(
    path: str | Path,
    mode: str = "w",
    newline: str | None = None,
    opener: Callable[[Path], Any] | None = None,
) -> Iterator[Any]:
    """Context manager yielding a file handle whose contents replace
    *path* atomically on success (and vanish without trace on error).

    *mode* is a text mode (``"w"``); paths ending in ``.gz`` are
    transparently gzip-compressed unless a custom *opener* is given.
    *opener* receives the temporary path and must return an open,
    writable handle backed by a real file descriptor (``fileno()``).
    """
    path = Path(path)
    tmp = _tmp_path(path)
    if opener is not None:
        fh = opener(tmp)
    elif str(path).endswith(".gz"):
        fh = gzip.open(tmp, mode + "t")
    else:
        fh = open(tmp, mode, newline=newline)
    try:
        yield fh
        _fsync_and_replace(fh, tmp, path)
    except BaseException:
        try:
            fh.close()
        finally:
            tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically replace *path*'s contents with *text*."""
    with atomic_write(path) as fh:
        fh.write(text)


def _warn(msg: str, *args) -> None:
    # local import: atomic_io must stay importable before logging config
    from ..obs.logging import get_logger

    get_logger("util.atomic_io").warning(msg, *args)


def _drop_torn_tail(fd: int, path: Path) -> tuple[int, bytes]:
    """Make the file end on a line boundary before an append.

    Returns ``(committed length, prefix for the next record)``.  An
    unterminated final line that does not parse is a torn append:
    truncated.  One that parses lacks only its newline: :func:`read_jsonl`
    keeps it, so the next record is prefixed with the newline instead.
    """
    end = os.fstat(fd).st_size
    if end == 0 or os.pread(fd, 1, end - 1) == b"\n":
        return end, b""
    data = os.pread(fd, end, 0)  # only after a crash mid-append
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        _warn("%s: truncating incomplete final line (torn O_APPEND write)", path)
        os.ftruncate(fd, start)
        return start, b""
    return end, b"\n"


def append_jsonl(path: str | Path, record: dict, fsync: bool = True) -> None:
    """Durably append one JSON record to *path* as one line, in O(record).

    The record lands in one ``O_APPEND`` write followed by an ``fsync``,
    so a crash mid-append can tear only the final line.  That line is
    dropped by :func:`read_jsonl` and truncated by the next append
    before it writes, so it never glues onto a later record.  A failed
    write or ``fsync`` truncates the file back to its committed length
    before raising.  Creating the file also fsyncs its directory, so
    the new name survives power loss.  ``fsync=False`` skips both
    fsyncs, for records whose loss is harmless.
    """
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    append_lines(path, line.encode(), fsync)


def append_lines(path: str | Path, lines: bytes, fsync: bool = True) -> int:
    """Append *lines*, newline-terminated JSON lines, as :func:`append_jsonl`
    appends one record: one ``O_APPEND`` write after truncating a torn
    final line.

    Returns the file offset at which *lines* start.  It is exact only
    while no other process appends to *path*; the result store holds a
    lock for that.
    """
    path = Path(path)
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        end, prefix = _drop_torn_tail(fd, path)
        try:
            view = memoryview(prefix + lines)
            while view:  # a short write is retried; an error rolls back
                view = view[os.write(fd, view):]
            if fsync:
                os.fsync(fd)
        except BaseException:
            os.ftruncate(fd, end)
            raise
    finally:
        os.close(fd)
    if fsync and end == 0:
        _fsync_dir(path.parent)
    return end + len(prefix)


def read_jsonl(path: str | Path) -> list[dict]:
    """Read a JSONL file, tolerating the documented torn-final-line hazard.

    ``O_APPEND`` writers (:func:`append_jsonl`,
    :class:`repro.obs.metrics.JsonlSink`) guarantee every line but the
    last is complete; a crash mid-append can leave one incomplete tail
    line.  This reader drops an unparseable *final* line with a logged
    warning and returns everything before it.  Corruption anywhere else
    raises :class:`ValueError` with its ``path:line`` location, because
    a mangled middle means something other than a torn append happened.
    Non-object records raise too.
    """
    return [record for _, _, record in scan_jsonl(path)]


def scan_jsonl(path: str | Path) -> list[tuple[int, int, dict]]:
    """:func:`read_jsonl` with each record's place in the file:
    ``(offset, length, record)``, the length counting the newline."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    lines = data.splitlines(keepends=True)
    out: list[tuple[int, int, dict]] = []
    last = len(lines)
    while last and not lines[last - 1].strip():
        last -= 1  # ignore blank tails
    end = 0
    for lineno, line in enumerate(lines[:last], start=1):
        start, end = end, end + len(line)
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if lineno == last:
                _warn("%s:%d: skipping incomplete final line (torn O_APPEND write)", path, lineno)
                break
            raise ValueError(
                f"{path}:{lineno}: corrupt JSONL record: {exc}"
            ) from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: JSONL record is not a JSON object")
        out.append((start, len(line), record))
    return out


class AtomicJournal:
    """Append-only JSONL journal: :func:`read_jsonl` at load,
    :func:`append_jsonl` per record.

    :meth:`append` makes its record durable before returning, so after
    a crash the loaded journal is exactly the records whose ``append``
    calls completed.  Corruption before the final line raises
    :class:`ValueError` with its ``path:line`` at load.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records = read_jsonl(self.path) if self.path.exists() else []

    def __len__(self) -> int:
        return len(self._records)

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, record: dict) -> None:
        """Durably append one record (one ``O_APPEND`` write + fsync)."""
        append_jsonl(self.path, record)
        self._records.append(record)

    def records(self) -> list[dict]:
        """Every committed record, in order."""
        return list(self._records)
