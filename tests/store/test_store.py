"""ResultStore: content addressing, LRU eviction, crash consistency,
warm-start calibrations in the same log."""

import json
import multiprocessing
import os
import time

import pytest

from repro.api import RunRequest
from repro.ir.interp import BranchProfile
from repro.measure import Calibration
from repro.store import (
    ResultStore,
    StoreInUseError,
    scan_store,
    warm_calibration_key,
)
from repro.workflow.campaign import execute_request, request_runner

CTX = "c" * 16


def _doc(i, pad=0):
    return {"run_id": f"r{i:04d}", "outcome": "ok", "x": "y" * pad}


def test_miss_put_hit_and_counters(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get(CTX, "r0000") is None
    store.put(CTX, "r0000", _doc(0))
    assert store.get(CTX, "r0000")["outcome"] == "ok"
    stats = store.stats()
    assert (stats["hits"], stats["misses"], stats["puts"]) == (1, 1, 1)
    assert stats["entries"] == 1 and stats["contexts"] == 1


def test_counters_and_entries_survive_restart(tmp_path):
    store = ResultStore(tmp_path)
    for i in range(5):
        store.put(CTX, f"r{i:04d}", _doc(i))
    store.get(CTX, "r0000")
    store.get(CTX, "zzzz")  # miss
    before = store.stats()
    store.close()
    again = ResultStore(tmp_path)
    after = again.stats()
    assert after == before
    assert again.get(CTX, "r0003")["run_id"] == "r0003"


def test_counters_survive_an_unclean_stop(tmp_path):
    """A store that never closed (a killed server) keeps its lifetime
    counters on reopen, and the reopened store's close() persists them."""

    def counts(stats):
        return stats["hits"], stats["puts"]

    store = ResultStore(tmp_path)
    for i in range(2):
        store.put(CTX, f"r{i:04d}", _doc(i))
        assert store.get(CTX, f"r{i:04d}") is not None
    store._close_fds()  # the log holds put and touch records, no counters
    again = ResultStore(tmp_path)
    assert counts(again.stats()) == counts(scan_store(tmp_path)) == (2, 2)
    again.close()
    assert counts(scan_store(tmp_path)) == (2, 2)
    # and the records after a counters record add to it
    third = ResultStore(tmp_path)
    third.put(CTX, "r0002", _doc(2))
    assert third.get(CTX, "r0002") is not None
    third._close_fds()
    fourth = ResultStore(tmp_path)
    assert counts(fourth.stats()) == counts(scan_store(tmp_path)) == (3, 3)
    fourth.close()


def test_a_second_open_store_is_refused(tmp_path):
    """The directory lock: a second store on an open directory fails with
    one line naming it; reads without the lock still work; close()
    releases it."""
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    with pytest.raises(StoreInUseError, match=str(tmp_path)) as exc:
        ResultStore(tmp_path)
    assert "\n" not in str(exc.value)
    assert scan_store(tmp_path)["entries"] == 1
    store.close()
    again = ResultStore(tmp_path)
    assert again.get(CTX, "r0000") == _doc(0)
    again.close()


def test_a_forked_child_does_not_hold_the_lock(tmp_path):
    """A supervised --jobs worker is a forked child: it must not keep
    the store locked once its parent has closed the store (or died)."""
    store = ResultStore(tmp_path)
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    child.start()
    try:
        store.close()
        ResultStore(tmp_path).close()  # the live child holds no lock
    finally:
        child.terminate()
        child.join(10)
    assert not child.is_alive()


def test_lru_eviction_respects_byte_budget_and_recency(tmp_path):
    store = ResultStore(tmp_path, max_bytes=600)
    for i in range(4):
        store.put(CTX, f"r{i:04d}", _doc(i, pad=100))
    # refresh r0000 so it is the most recently used
    assert store.get(CTX, "r0000") is not None
    store.put(CTX, "r9999", _doc(9999, pad=100))
    stats = store.stats()
    assert stats["bytes"] <= 600
    assert stats["evictions"] > 0
    assert store.contains(CTX, "r0000")  # recently used: survived
    assert not store.contains(CTX, "r0001")  # LRU victim
    # the eviction is logged, and compaction drops the evicted result
    store.close()
    again = ResultStore(tmp_path, max_bytes=600)
    assert again.stats() == stats
    again.close()
    assert "r0001" not in store.log_path.read_text()


def test_recency_survives_an_unclean_stop(tmp_path):
    """Replayed touch records restore LRU order, so the eviction after a
    kill picks the same victim an uninterrupted store would."""
    store = ResultStore(tmp_path, max_bytes=600)
    for i in range(4):
        store.put(CTX, f"r{i:04d}", _doc(i, pad=100))
    assert store.get(CTX, "r0000") is not None
    store._close_fds()
    again = ResultStore(tmp_path, max_bytes=600)
    again.put(CTX, "r9999", _doc(9999, pad=100))
    assert again.contains(CTX, "r0000") and not again.contains(CTX, "r0001")
    again.close()


def test_put_is_one_log_record_read_back_by_offset(tmp_path):
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    store.put(CTX, "r0001", _doc(1, pad=10))
    lines = store.log_path.read_bytes().splitlines()
    assert [json.loads(line)["op"] for line in lines] == ["put", "put"]
    rec = json.loads(lines[1])
    assert rec["entry"] == f"{CTX}/r0001" and rec["result"] == _doc(1, pad=10)
    assert rec["bytes"] == len(json.dumps(_doc(1, pad=10), sort_keys=True,
                                          separators=(",", ":")))
    assert store.get(CTX, "r0001") == _doc(1, pad=10)
    store.close()


def test_reload_tolerates_torn_index_tail(tmp_path):
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    store.put(CTX, "r0001", _doc(1))
    store._close_fds()
    with open(store.log_path, "a") as fh:
        fh.write('{"bytes": 9, "entry": "truncat')  # torn O_APPEND tail
    again = ResultStore(tmp_path)
    assert again.stats()["entries"] == 2
    assert again.get(CTX, "r0001") is not None
    again.close()


def test_torn_index_tail_is_truncated_by_the_next_append(tmp_path):
    """A reopened store appends after a torn log tail without gluing
    onto it: a second reopen still loads every entry and counter."""
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    store.put(CTX, "r0001", _doc(1))
    store._close_fds()
    with open(store.log_path, "a") as fh:
        fh.write('{"bytes": 9, "entry": "truncat')  # torn O_APPEND tail
    again = ResultStore(tmp_path)
    again.put(CTX, "r0002", _doc(2))
    assert again.get(CTX, "r0000") is not None
    again._close_fds()  # no close(): the next open replays the appended records
    third = ResultStore(tmp_path)
    stats = third.stats()
    assert stats["entries"] == 3
    assert (stats["hits"], stats["puts"]) == (1, 3)
    assert all(third.get(CTX, f"r{i:04d}") == _doc(i) for i in range(3))
    assert "truncat" not in store.log_path.read_text()
    third.close()


def test_older_store_layout_is_not_read(tmp_path):
    """An older store's entry files and index.jsonl are ignored: those
    runs miss once and are recomputed."""
    (tmp_path / "store" / CTX).mkdir(parents=True)
    (tmp_path / "store" / CTX / "r0000.json").write_text(json.dumps(_doc(0)))
    (tmp_path / "index.jsonl").write_text(
        '{"bytes":40,"entry":"%s/r0000.json","op":"put"}\n' % CTX)
    assert scan_store(tmp_path) is None  # no store log: not a store yet
    store = ResultStore(tmp_path)
    assert store.stats()["entries"] == 0
    assert store.get(CTX, "r0000") is None
    store.close()
    assert scan_store(tmp_path)["entries"] == 0


def _overwrite(path, old: bytes, new: bytes):
    data = path.read_bytes()
    assert len(old) == len(new) and data.count(old) == 1
    path.write_bytes(data.replace(old, new))


def test_corrupt_entry_degrades_to_miss(tmp_path):
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    store.put(CTX, "r0001", _doc(1))
    _overwrite(store.log_path, b'"run_id":"r0000"', b"#" * 16)  # no parse
    # a record at the known offset that names another entry is a miss too
    _overwrite(store.log_path, b'"entry":"%s/r0001"' % CTX.encode(),
               b'"entry":"%s/r0009"' % CTX.encode())
    for run_id in ("r0000", "r0001"):
        assert store.get(CTX, run_id) is None
        assert not store.contains(CTX, run_id)
    assert store.stats()["misses"] == 2
    store.close()


def test_a_damaged_record_inside_the_log_is_skipped(tmp_path):
    """Damage before the log's last line does not make the store
    unopenable.  A put whose envelope no longer parses is skipped at
    open; one whose result is damaged is indexed and then misses."""
    store = ResultStore(tmp_path)
    for i in range(4):
        store.put(CTX, f"r{i:04d}", _doc(i))
    store.close()  # compacted: four put records, then the counters
    _overwrite(store.log_path, b'"run_id":"r0001"', b"#" * 16)  # its result
    _overwrite(store.log_path, b'"entry":"%s/r0002"' % CTX.encode(),
               b'"entry":#%s/r0002"' % CTX.encode())  # its envelope
    scanned = scan_store(tmp_path)  # `repro inspect` reads it too
    again = ResultStore(tmp_path)
    assert again.stats()["entries"] == scanned["entries"] == 3
    for run_id in ("r0000", "r0003"):
        assert again.get(CTX, run_id) == _doc(int(run_id[1:]))
    for run_id in ("r0001", "r0002"):
        assert again.get(CTX, run_id) is None
    assert again.stats()["entries"] == 2
    again.close()


def test_index_journal_is_compacted(tmp_path):
    """Touch records must never grow the log (or the next startup's
    replay) without bound; close() leaves the minimal equivalent."""
    store = ResultStore(tmp_path)
    store.COMPACT_MIN_OPS = 16  # shrink the threshold for the test
    for i in range(3):
        store.put(CTX, f"r{i:04d}", _doc(i))
    for _ in range(40):  # a busy server: cache hits pile up touches
        assert store.get(CTX, "r0001") is not None
    live = store.log_path.read_text().splitlines()
    assert len(live) <= 16  # compacted in-line while serving
    store.close()
    compacted = store.log_path.read_text().splitlines()
    assert len(compacted) == 4  # one put per live entry + the counters
    # the compacted log preserves counters, results and LRU order exactly
    again = ResultStore(tmp_path)
    stats = again.stats()
    assert (stats["hits"], stats["misses"], stats["puts"]) == (40, 0, 3)
    assert stats["entries"] == 3
    order = list(again._entries)
    assert order[0] == f"{CTX}/r0000"  # least recently used first
    assert order[-1] == f"{CTX}/r0001"  # the touched entry is newest
    assert [again.get(CTX, f"r{i:04d}") for i in range(3)] == [_doc(i) for i in range(3)]
    again.close()


def test_scan_store_is_nonmutating(tmp_path):
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    store.get(CTX, "r0000")
    store.close()
    before = store.log_path.read_bytes()
    stats = scan_store(tmp_path)
    assert stats["entries"] == 1
    assert stats["hits"] == 1 and stats["puts"] == 1
    assert store.log_path.read_bytes() == before


def test_scan_store_rejects_non_store_dir(tmp_path):
    assert scan_store(tmp_path) is None


# -- warm calibrations ---------------------------------------------------------


def _calibration():
    profile = BranchProfile()
    profile.record(7, True)
    profile.record(7, False)
    return Calibration(
        program="app", inputs={"n": 64.0}, nprocs=2, machine="IBM-SP",
        wparams={"w_body": 1.25e-6}, profile=profile, elapsed=0.5,
    )


def test_warm_calibration_round_trip(tmp_path):
    """A calibration rides its run's put, survives a kill and a clean
    close, and reads back as the Calibration it was."""
    cal = _calibration()
    key = warm_calibration_key(app="app", machine="IBM-SP", calib_nprocs=2,
                               calib_inputs={"n": 64.0}, seed=0)
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0), (key, cal.to_json()))
    store._close_fds()  # killed: replay finds the record
    for close in ("close", "_close_fds"):
        store = ResultStore(tmp_path)
        loaded = Calibration.from_json(store.calibration(key))
        assert loaded.wparams == cal.wparams
        assert loaded.profile.to_dict() == cal.profile.to_dict()
        assert loaded.elapsed == cal.elapsed
        assert store.get(CTX, "r0000") == _doc(0)
        assert store.stats()["warm_calibrations"] == scan_store(tmp_path)[
            "warm_calibrations"] == 1
        getattr(store, close)()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.jsonl"]


def test_a_calibration_is_one_record_in_its_put_write(tmp_path, monkeypatch):
    """One write and one fsync store a result with its calibration, or a
    calibration alone; storing a key again replaces its calibration, as a
    re-put replaces a result."""
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
    doc = _calibration().to_json()
    store.put(CTX, "r0001", _doc(1), ("k1", doc))
    store.put_calibration("k2", doc)
    store.put_calibration("k1", {**doc, "elapsed": 0.75})
    assert len(fsyncs) == 3
    ops = [json.loads(line)["op"] for line in store.log_path.read_bytes().splitlines()]
    assert ops == ["put", "put", "calibration", "calibration", "calibration"]
    assert store.stats()["warm_calibrations"] == 2
    assert store.calibration("k1")["elapsed"] == 0.75
    store.close()
    ops = [json.loads(line)["op"] for line in store.log_path.read_bytes().splitlines()]
    assert ops == ["put", "put", "calibration", "calibration", "counters"]
    again = ResultStore(tmp_path)
    assert again.calibration("k1")["elapsed"] == 0.75
    assert again.calibration("k2") == doc
    again.close()


def test_the_byte_budget_never_evicts_a_calibration(tmp_path):
    store = ResultStore(tmp_path, max_bytes=300)
    store.put_calibration("k1", _calibration().to_json())
    for i in range(6):
        store.put(CTX, f"r{i:04d}", _doc(i, pad=100))
    stats = store.stats()
    assert stats["evictions"] > 0 and stats["bytes"] <= 300
    assert stats["warm_calibrations"] == 1
    store.close()
    again = ResultStore(tmp_path, max_bytes=300)
    assert again.calibration("k1") == _calibration().to_json()
    again.close()


def test_a_damaged_calibration_is_dropped(tmp_path):
    store = ResultStore(tmp_path)
    store.put_calibration("k1", _calibration().to_json())
    _overwrite(store.log_path, b'"program":"app"', b"#" * 15)
    assert store.calibration("k1") is None
    assert store.stats()["warm_calibrations"] == 0
    store.close()


def test_close_parses_no_result_document(tmp_path, monkeypatch):
    """Compaction copies each live record after checking its envelope;
    only a get parses a document."""
    store = ResultStore(tmp_path)
    for i in range(3):
        store.put(CTX, f"r{i:04d}", _doc(i), (f"k{i}", _calibration().to_json()))
    parsed = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(s) or real_loads(s, **kw))
    store.close()
    assert parsed and not [s for s in parsed if b'"result"' in s]
    monkeypatch.undo()
    again = ResultStore(tmp_path)
    assert [again.get(CTX, f"r{i:04d}") for i in range(3)] == [_doc(i) for i in range(3)]
    assert again.stats()["warm_calibrations"] == 3
    again.close()


def test_warm_calibration_key_is_sensitive_to_each_field():
    base = dict(app="a", machine="m", calib_nprocs=2,
                calib_inputs={"n": 1.0}, seed=0)
    key = warm_calibration_key(**base)
    for field, value in (("app", "b"), ("machine", "x"), ("calib_nprocs", 4),
                         ("calib_inputs", {"n": 2.0}), ("seed", 1)):
        assert warm_calibration_key(**{**base, field: value}) != key


APP_REQUEST = RunRequest(app="sample_nearest_neighbor", mode="am", nprocs=4,
                         inputs=(("n", 64),))


def _run_with(calibrations):
    """APP_REQUEST run inline, handed *calibrations* as a serve batch is."""
    runner = request_runner([APP_REQUEST], calib_procs=2)
    runner.config.calibrations = calibrations
    return runner.run_one(APP_REQUEST)


def test_warm_calibration_program_mismatch_degrades_to_cold():
    """A stored calibration for another app, or a malformed one, is not
    used: the run measures its own, and returns the cold bytes."""
    cold = _run_with({})
    assert cold.outcome == "ok" and cold.calibration is not None
    key, doc = cold.calibration
    assert key == request_runner([APP_REQUEST], calib_procs=2).calibration_key(APP_REQUEST)
    for bad in ({**doc, "program": "other"}, {"wparams": 1}):
        rec = _run_with({key: bad})
        assert rec.calibration == cold.calibration  # measured again
        assert (rec.elapsed, rec.stats) == (cold.elapsed, cold.stats)


def test_leftover_kernel_files_are_not_warm_calibrations(tmp_path):
    """An older store's warm/ directory, calibration and kernel files
    alike, is not read: only calibration records count."""
    warm = tmp_path / "warm"
    warm.mkdir()
    (warm / ("k" * 16 + ".json")).write_text(json.dumps(_calibration().to_json()))
    (warm / ("kernel-" + "f" * 64 + ".json")).write_text("{}")
    store = ResultStore(tmp_path)
    assert store.stats()["warm_calibrations"] == 0
    assert store.calibration("k" * 16) is None
    store.put_calibration("k" * 16, _calibration().to_json())
    store.close()
    assert scan_store(tmp_path)["warm_calibrations"] == 1


def test_campaign_warm_start_skips_calibration(monkeypatch):
    """A run handed the calibration an earlier run measured measures
    none, and returns the bytes the cold run returned."""
    import repro.workflow.pipeline

    first = _run_with({})
    assert first.calibration is not None  # rides back for the store
    # without a map (campaigns, inline queries) none rides back
    assert execute_request(APP_REQUEST, calib_procs=2).calibration is None

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated despite a warm start")

    monkeypatch.setattr(repro.workflow.pipeline, "measure_wparams", no_calibration)
    second = _run_with(dict([first.calibration]))
    assert second.outcome == "ok" and second.calibration is None
    assert (first.elapsed, first.stats) == (second.elapsed, second.stats)
