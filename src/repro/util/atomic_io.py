"""Crash-consistent file writing: tmp + fsync + rename, everywhere.

Every whole-file artifact the system produces (Perfetto exports, CSV
reports, trace archives, campaign journals) funnels through this module
so that a crash — OOM, SIGKILL, power loss — mid-write can never leave
a truncated artifact under the final name.  (The one deliberate
exception is the high-frequency metrics JSONL sink, which uses plain
``O_APPEND`` writes and tolerates a torn final line; see
:class:`repro.obs.metrics.JsonlSink`.)  The protocol is the classic
one:

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

:class:`AtomicJournal` builds an append-only JSONL journal on top of the
same primitive: each appended record rewrites the journal atomically
(tmp + fsync + rename per record), so the on-disk journal is a complete,
parseable prefix of the logical one at every instant.  Journals are
small (one line per experiment run), so the rewrite cost is noise next
to the simulations they checkpoint.
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
    "read_jsonl",
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


def append_jsonl(path: str | Path, record: dict, fsync: bool = True) -> None:
    """Durably append one JSON record to *path* in O(record).

    The record lands in a single ``O_APPEND`` write (one line), followed
    by an ``fsync`` — so a crash mid-append can tear at most the final
    line, never an earlier one, and :func:`read_jsonl` drops exactly
    that torn tail.  This is the right primitive for high-volume
    streams (telemetry capsules, metrics) where the
    :class:`AtomicJournal` full-rewrite would cost O(n²) over a
    campaign; the trade is documented on the reader side.
    """
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    fd = os.open(Path(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode())
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read_jsonl(path: str | Path, strict: bool = False) -> list[dict]:
    """Read a JSONL file, tolerating the documented torn-final-line hazard.

    ``O_APPEND`` writers (:func:`append_jsonl`,
    :class:`repro.obs.metrics.JsonlSink`) guarantee every line but the
    last is complete; a crash mid-flush can leave one incomplete tail
    line.  This reader drops an unparseable *final* line with a logged
    warning and returns everything before it.  Corruption anywhere else
    — or any corruption at all under ``strict=True`` — still raises
    :class:`ValueError` with its ``path:line`` location, because a
    mangled middle means something other than a torn append happened.
    Non-object records raise in either mode.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    lines = raw.splitlines()
    out: list[dict] = []
    last = len(lines)
    while last and not lines[last - 1].strip():
        last -= 1  # ignore blank tails
    for lineno, line in enumerate(lines[:last], start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == last and not strict:
                _warn_torn_line(path, lineno)
                break
            raise ValueError(
                f"{path}:{lineno}: corrupt JSONL record: {exc}"
            ) from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: JSONL record is not a JSON object")
        out.append(record)
    return out


def _warn_torn_line(path: Path, lineno: int) -> None:
    # local import: atomic_io must stay importable before logging config
    from ..obs.logging import get_logger

    get_logger("util.atomic_io").warning(
        "%s:%d: skipping incomplete final line (torn O_APPEND write)", path, lineno
    )


class AtomicJournal:
    """Append-only JSONL journal with per-record atomic durability.

    Each record is one JSON object per line.  :meth:`append` makes the
    record durable before returning (tmp + fsync + rename of the whole
    journal), so after a crash the on-disk journal is exactly the
    sequence of records whose ``append`` calls completed.

    Since every write is a full-file atomic replace, a torn *final*
    line can only come from outside — an external editor, a copy taken
    mid-write, a foreign ``O_APPEND`` writer sharing the path.  That
    one case is recovered, not fatal: the incomplete tail is dropped
    with a logged warning at load time (so a later :meth:`append` never
    re-persists it).  Corruption anywhere earlier is still reported by
    :meth:`records` with its line number — a mangled middle means
    something worse than a torn append happened.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lines: list[str] = []
        if self.path.exists():
            self._lines = [
                line for line in self.path.read_text().splitlines() if line.strip()
            ]
            if self._lines:
                try:
                    json.loads(self._lines[-1])
                except json.JSONDecodeError:
                    _warn_torn_line(self.path, len(self._lines))
                    self._lines.pop()

    def __len__(self) -> int:
        return len(self._lines)

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, record: dict) -> None:
        """Durably append one record (atomic rewrite + fsync)."""
        self._lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        with atomic_write(self.path) as fh:
            for line in self._lines:
                fh.write(line + "\n")

    def records(self) -> list[dict]:
        """Parse and return every journal record.

        Raises :class:`ValueError` with ``path:line`` on malformed JSON
        or a non-object record.
        """
        out: list[dict] = []
        for lineno, line in enumerate(self._lines, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{self.path}:{lineno}: corrupt journal record: {exc}"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{self.path}:{lineno}: journal record is not a JSON object"
                )
            out.append(record)
        return out
