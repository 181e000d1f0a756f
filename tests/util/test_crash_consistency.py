"""Crash-consistency fault injection around :mod:`repro.util.atomic_io`.

Every whole-file artifact (results.csv, store entries) funnels through
``atomic_write``'s tmp + fsync + rename protocol, and every append-only
log (journals) through ``append_jsonl``'s write + fsync.  These tests
inject EIO / ENOSPC / torn-write failures at each boundary of both
protocols and assert the crash-consistency invariant at every one:
readers observe either the old complete file or the new complete file
— never a torn intermediate — and no temporary litter survives.
"""

import errno
import os

import pytest

from repro.util.atomic_io import AtomicJournal, atomic_write, read_jsonl


def injected(errno_code, message):
    def boom(*args, **kwargs):
        raise OSError(errno_code, message)

    return boom


_real_write = os.write


def half_write_then_enospc(fd, data):
    """A write that lands half its bytes before the disk fills."""
    _real_write(fd, bytes(data)[: len(data) // 2])
    raise OSError(errno.ENOSPC, "no space left on device")


#: faults on the append path: the os function replaced, and its stand-in
APPEND_FAULTS = {
    "enospc-write": ("write", injected(errno.ENOSPC, "no space left on device")),
    "half-write-enospc": ("write", half_write_then_enospc),
    "eio-fsync": ("fsync", injected(errno.EIO, "I/O error")),
}


def assert_clean(tmp_path, path, content):
    """The invariant: old content intact, no temporary files left over."""
    if content is None:
        assert not path.exists()
    else:
        assert path.read_text() == content
    assert not list(tmp_path.glob("*.tmp.*")), "temporary litter survived"


class FailingWrites:
    """File-like wrapper whose Nth write raises (opener injection)."""

    def __init__(self, fh, fail_at=1, errno_code=errno.ENOSPC):
        self._fh = fh
        self._writes = 0
        self._fail_at = fail_at
        self._errno = errno_code

    def write(self, data):
        self._writes += 1
        if self._writes == self._fail_at:
            raise OSError(self._errno, "no space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestAtomicWriteBoundaries:
    def test_enospc_during_content_write(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("old")
        with pytest.raises(OSError, match="no space"):
            with atomic_write(
                path, opener=lambda p: FailingWrites(open(p, "w"))
            ) as fh:
                fh.write("new content that never lands")
        assert_clean(tmp_path, path, "old")

    def test_eio_during_tmp_fsync(self, tmp_path, monkeypatch):
        path = tmp_path / "f.txt"
        path.write_text("old")
        monkeypatch.setattr(os, "fsync", injected(errno.EIO, "I/O error"))
        with pytest.raises(OSError, match="I/O error"):
            with atomic_write(path) as fh:
                fh.write("new")
        assert_clean(tmp_path, path, "old")

    def test_eio_during_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "f.txt"
        path.write_text("old")
        monkeypatch.setattr(os, "replace", injected(errno.EIO, "I/O error"))
        with pytest.raises(OSError, match="I/O error"):
            with atomic_write(path) as fh:
                fh.write("new")
        assert_clean(tmp_path, path, "old")

    def test_failure_before_first_version_leaves_no_file(self, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "fresh.txt"
        monkeypatch.setattr(os, "replace", injected(errno.ENOSPC, "full"))
        with pytest.raises(OSError):
            with atomic_write(path) as fh:
                fh.write("never lands")
        assert_clean(tmp_path, path, None)

    def test_directory_fsync_failure_is_tolerated(self, tmp_path, monkeypatch):
        """The dir fsync is durability best-effort: its failure must not
        fail a write whose rename already landed."""
        path = tmp_path / "f.txt"
        path.write_text("old")
        real_fsync = os.fsync
        calls = {"n": 0}

        def fail_second(fd):
            calls["n"] += 1
            if calls["n"] == 2:  # first: tmp file; second: parent dir
                raise OSError(errno.EIO, "I/O error")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fail_second)
        with atomic_write(path) as fh:
            fh.write("new")
        assert calls["n"] >= 2
        assert_clean(tmp_path, path, "new")


class TestJournalCrashConsistency:
    @pytest.mark.parametrize("fault", sorted(APPEND_FAULTS))
    def test_failed_append_preserves_the_committed_prefix(self, tmp_path,
                                                          monkeypatch, fault):
        jpath = tmp_path / "j.jsonl"
        journal = AtomicJournal(jpath)
        journal.append({"n": 1})
        journal.append({"n": 2})
        before = jpath.read_bytes()
        monkeypatch.setattr(os, *APPEND_FAULTS[fault])
        with pytest.raises(OSError):
            journal.append({"n": 3})
        monkeypatch.undo()
        assert jpath.read_bytes() == before
        assert journal.records() == [{"n": 1}, {"n": 2}]
        # a fresh reader sees exactly the committed records and can go on
        reloaded = AtomicJournal(jpath)
        assert reloaded.records() == [{"n": 1}, {"n": 2}]
        reloaded.append({"n": 3})
        assert AtomicJournal(jpath).records() == [{"n": 1}, {"n": 2}, {"n": 3}]

    def test_torn_final_line_is_dropped_on_reload(self, tmp_path):
        jpath = tmp_path / "j.jsonl"
        journal = AtomicJournal(jpath)
        journal.append({"n": 1})
        with open(jpath, "a") as fh:
            fh.write('{"n": 2, "torn')  # foreign torn O_APPEND write
        reloaded = AtomicJournal(jpath)
        assert reloaded.records() == [{"n": 1}]
        reloaded.append({"n": 2})
        assert reloaded.records() == [{"n": 1}, {"n": 2}]

    def test_corrupt_middle_fails_with_located_one_liner(self, tmp_path):
        jpath = tmp_path / "j.jsonl"
        jpath.write_text('{"n": 1}\n{torn middle\n{"n": 3}\n')
        with pytest.raises(ValueError, match=r"j\.jsonl:2"):
            read_jsonl(jpath)
