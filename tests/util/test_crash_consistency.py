"""Crash-consistency fault injection around :mod:`repro.util.atomic_io`.

Every whole-file artifact (results.csv, the result store's compacted
log) funnels through ``atomic_write``'s tmp + fsync + rename protocol,
and every append-only log (journals, the result store's log) through
``append_lines``'s write + fsync.  These tests inject EIO / ENOSPC /
torn-write failures at each boundary of both protocols and assert the
crash-consistency invariant at every one: readers observe either the
old complete file or the new complete file — never a torn intermediate
— and no temporary litter survives.  The result store is checked
against a dict model over generated operation sequences with one
crash each.
"""

import errno
import os
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import canonical_json
from repro.store import ResultStore, scan_store
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


# -- the result store's log ---------------------------------------------------

CTX = "c" * 16
KEYS = [f"r{i}" for i in range(5)]

#: one operation: put (a new version of a key's document, sized by its
#: padding), get, compaction, a clean close and reopen, or a reopen
#: after a kill
STORE_OPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.sampled_from([0, 30, 60, 90])),
    st.tuples(st.just("get"), st.sampled_from(KEYS)),
    st.sampled_from([("compact",), ("reopen",), ("kill",)]),
)

#: the one crash of a sequence: a failed put, a torn final record left
#: by a killed process, or a failed compaction on close
STORE_FAULTS = ["torn-tail", "compaction-fails", *sorted(APPEND_FAULTS)]


class StoreModel:
    """What the store must hold: key -> canonical document, LRU first."""

    def __init__(self, budget):
        self.budget = budget
        self.entries: OrderedDict[str, str] = OrderedDict()
        self.counts = {"hits": 0, "puts": 0, "evictions": 0}

    def put(self, key, text):
        self.entries.pop(key, None)
        self.entries[key] = text
        self.counts["puts"] += 1
        while (self.budget is not None and len(self.entries) > 1
               and sum(map(len, self.entries.values())) > self.budget):
            self.entries.popitem(last=False)
            self.counts["evictions"] += 1

    def get(self, key):
        if key in self.entries:
            self.entries.move_to_end(key)
            self.counts["hits"] += 1
        return self.entries.get(key)


def _open(base, budget):
    store = ResultStore(base, max_bytes=budget)
    store.COMPACT_MIN_OPS = 6  # compact in-line within a short sequence
    return store


def _served(store, key):
    doc = store.get(CTX, key)
    return None if doc is None else canonical_json(doc)


def _check(store, model, base):
    """Every live entry is served byte-identical (walking LRU order keeps
    it), nothing else is, and the counters agree with scan_store."""
    for key in list(model.entries):
        want = model.get(key)
        assert _served(store, key) == want
    for key in set(KEYS) - set(model.entries):
        assert not store.contains(CTX, key)
    stats, scanned = store.stats(), scan_store(base)
    want = {"entries": len(model.entries),
            "bytes": sum(map(len, model.entries.values())), **model.counts}
    for name, value in want.items():
        assert stats[name] == scanned[name] == value, name
    assert not list(base.glob("*.tmp.*")), "temporary litter survived"


class TestResultStoreLog:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(STORE_OPS, min_size=1, max_size=40),
           fault=st.sampled_from(STORE_FAULTS),
           budget=st.sampled_from([None, 150]), data=st.data())
    def test_one_crash_anywhere_keeps_every_returned_put(
            self, tmp_path_factory, ops, fault, budget, data):
        base = tmp_path_factory.mktemp("store")
        at = data.draw(st.integers(0, len(ops)), label="crash before op")
        model, versions = StoreModel(budget), {}
        store = _open(base, budget)
        for step, op in enumerate(ops + [None]):
            if step == at:
                store = self._crash(store, model, base, budget, fault, data)
                _check(store, model, base)
            if op is None:
                break
            if op[0] == "put":
                _, key, pad = op
                versions[key] = versions.get(key, 0) + 1
                doc = {"run_id": key, "v": versions[key], "x": "y" * pad}
                store.put(CTX, key, doc)
                model.put(key, canonical_json(doc))
            elif op[0] == "get":
                assert _served(store, op[1]) == model.get(op[1])
            elif op[0] == "compact":
                with store._lock:
                    store._compact_locked()
            else:
                if op[0] == "kill":
                    store._close_fds()
                else:
                    store.close()
                store = _open(base, budget)
        store.close()
        reopened = _open(base, budget)
        _check(reopened, model, base)
        reopened.close()

    @staticmethod
    def _crash(store, model, base, budget, fault, data):
        if fault == "torn-tail":
            store._close_fds()
            line = b'{"bytes":9,"entry":"%s/r0","op":"put","result":{"x":1}}' % CTX.encode()
            cut = data.draw(st.integers(1, len(line) - 1), label="torn at")
            with open(base / "results.jsonl", "ab") as fh:
                fh.write(line[:cut])
            return _open(base, budget)
        if fault == "compaction-fails":
            with mock.patch.object(os, "replace", injected(errno.EIO, "I/O error")):
                store.close()  # best-effort: the uncompacted log is kept
            return _open(base, budget)
        key = data.draw(st.sampled_from(KEYS), label="failed put")
        with mock.patch.object(os, *APPEND_FAULTS[fault]):
            with pytest.raises(OSError):
                store.put(CTX, key, {"run_id": key, "v": -1})
        return store  # a failed put is absent and the store stays usable
