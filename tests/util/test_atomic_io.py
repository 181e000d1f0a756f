"""Tests for the crash-consistent atomic-write and append helpers."""

import gzip
import os

import pytest

import repro.util.atomic_io as atomic_io
from repro.util.atomic_io import (
    AtomicJournal,
    append_jsonl,
    append_lines,
    atomic_write,
    atomic_write_text,
    read_jsonl,
)


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_write(path) as fh:
            fh.write("hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_tmp_leftover_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_exception_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("precious")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("half-writ")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "precious"
        assert os.listdir(tmp_path) == ["out.txt"]  # tmp cleaned up

    def test_exception_with_no_prior_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("half")
                raise RuntimeError("boom")
        assert not path.exists()
        assert os.listdir(tmp_path) == []

    def test_gz_suffix_compresses(self, tmp_path):
        path = tmp_path / "out.jsonl.gz"
        with atomic_write(path) as fh:
            fh.write("line\n")
        with gzip.open(path, "rt") as fh:
            assert fh.read() == "line\n"

    def test_custom_opener(self, tmp_path):
        path = tmp_path / "custom.gz"
        with atomic_write(path, opener=lambda p: gzip.open(p, "wt")) as fh:
            fh.write("via opener")
        with gzip.open(path, "rt") as fh:
            assert fh.read() == "via opener"


class TestAppendJsonl:
    def test_creating_the_file_fsyncs_its_directory(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(atomic_io, "_fsync_dir", synced.append)
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"n": 1})
        append_jsonl(path, {"n": 2})
        assert synced == [tmp_path]  # the new name once, not every append

    def test_unterminated_complete_record_is_kept(self, tmp_path):
        # read_jsonl accepts a final record that lacks only its newline,
        # so the next append terminates it instead of truncating it
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}')
        append_jsonl(path, {"n": 2})
        assert read_jsonl(path) == [{"n": 1}, {"n": 2}]

    def test_append_lines_returns_where_the_lines_start(self, tmp_path):
        # past the newline that terminates a kept final record, and past
        # a truncated torn tail, which read_jsonl no longer sees
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}')
        assert append_lines(path, b'{"n":2}\n') == 9
        with open(path, "a") as fh:
            fh.write('{"n": 3, "torn')
        assert append_lines(path, b'{"n":4}\n') == 17
        assert read_jsonl(path) == [{"n": 1}, {"n": 2}, {"n": 4}]
        assert path.read_bytes()[17:] == b'{"n":4}\n'


class TestAtomicJournal:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = AtomicJournal(path)
        j.append({"type": "campaign", "n": 1})
        j.append({"type": "run", "id": "abc"})
        reloaded = AtomicJournal(path)
        assert len(reloaded) == 2
        assert reloaded.records()[1]["id"] == "abc"

    def test_every_append_is_durable_on_disk(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = AtomicJournal(path)
        for i in range(3):
            j.append({"i": i})
            on_disk = [r["i"] for r in AtomicJournal(path).records()]
            assert on_disk == list(range(i + 1))

    def test_corrupt_record_reports_line(self, tmp_path):
        # mid-journal corruption (a valid record follows it) is never a
        # torn append, so loading keeps it and records() reports the line
        path = tmp_path / "j.jsonl"
        AtomicJournal(path).append({"ok": True})
        path.write_text('{not json\n' + path.read_text())
        with pytest.raises(ValueError, match=r"j\.jsonl:1: corrupt"):
            AtomicJournal(path).records()

    def test_torn_final_line_dropped_at_load(self, tmp_path):
        # the one recoverable corruption: an incomplete final line is
        # dropped with a warning, and a later append never re-persists it
        path = tmp_path / "j.jsonl"
        journal = AtomicJournal(path)
        journal.append({"seq": 1})
        journal.append({"seq": 2})
        path.write_text(path.read_text() + '{"seq": 3, "torn')
        reloaded = AtomicJournal(path)
        assert reloaded.records() == [{"seq": 1}, {"seq": 2}]
        reloaded.append({"seq": 4})
        final = AtomicJournal(path).records()
        assert final == [{"seq": 1}, {"seq": 2}, {"seq": 4}]
        assert "torn" not in path.read_text()

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(ValueError, match="not a JSON object"):
            AtomicJournal(path).records()
