"""ResultStore: content addressing, LRU eviction, crash consistency,
warm-start calibrations."""

import json
import os

from repro.ir.interp import BranchProfile
from repro.measure import Calibration
from repro.store import (
    ResultStore,
    load_warm_calibration,
    save_warm_calibration,
    scan_store,
    warm_calibration_key,
)

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
    # no close(): the journal holds put and touch records, no counters
    again = ResultStore(tmp_path)
    assert counts(again.stats()) == counts(scan_store(tmp_path)) == (2, 2)
    again.close()
    assert counts(scan_store(tmp_path)) == (2, 2)
    # and the records after a counters record add to it
    third = ResultStore(tmp_path)
    third.put(CTX, "r0002", _doc(2))
    assert third.get(CTX, "r0002") is not None
    assert counts(ResultStore(tmp_path).stats()) == counts(scan_store(tmp_path)) == (3, 3)


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
    # evicted files are really gone from disk
    assert not (store.store_dir / CTX / "r0001.json").exists()


def test_reload_tolerates_torn_index_tail(tmp_path):
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    store.put(CTX, "r0001", _doc(1))
    with open(store.index_path, "a") as fh:
        fh.write('{"op": "put", "entry": "truncat')  # torn O_APPEND tail
    again = ResultStore(tmp_path)
    assert again.stats()["entries"] == 2
    assert again.get(CTX, "r0001") is not None


def test_reload_reconciles_unjournaled_and_deleted_entries(tmp_path):
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    store.put(CTX, "r0001", _doc(1))
    # simulate a crash after the entry landed but before the index append
    extra = store.store_dir / CTX / "r0002.json"
    extra.write_text(json.dumps(_doc(2)))
    # and a foreign deletion of a journaled entry
    os.unlink(store.store_dir / CTX / "r0000.json")
    again = ResultStore(tmp_path)
    assert again.contains(CTX, "r0002")  # found on disk, adopted
    assert not again.contains(CTX, "r0000")  # filesystem wins
    assert again.get(CTX, "r0002")["run_id"] == "r0002"


def test_corrupt_entry_degrades_to_miss(tmp_path):
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    (store.store_dir / CTX / "r0000.json").write_text("{not json")
    assert store.get(CTX, "r0000") is None
    assert not store.contains(CTX, "r0000")


def test_index_journal_is_compacted(tmp_path):
    """Touch records must never grow the journal (or the next startup's
    replay) without bound; close() leaves the minimal equivalent."""
    store = ResultStore(tmp_path)
    store.COMPACT_MIN_OPS = 16  # shrink the threshold for the test
    for i in range(3):
        store.put(CTX, f"r{i:04d}", _doc(i))
    for _ in range(40):  # a busy server: cache hits pile up touches
        assert store.get(CTX, "r0001") is not None
    live = (tmp_path / "index.jsonl").read_text().splitlines()
    assert len(live) <= 16  # compacted in-line while serving
    store.close()
    compacted = (tmp_path / "index.jsonl").read_text().splitlines()
    assert len(compacted) == 4  # one put per live entry + the counters
    # the compacted journal preserves counters and LRU order exactly
    again = ResultStore(tmp_path)
    stats = again.stats()
    assert (stats["hits"], stats["misses"], stats["puts"]) == (40, 0, 3)
    assert stats["entries"] == 3
    order = list(again._entries)
    assert order[0] == f"{CTX}/r0000.json"  # least recently used first
    assert order[-1] == f"{CTX}/r0001.json"  # the touched entry is newest


def test_scan_store_is_nonmutating(tmp_path):
    store = ResultStore(tmp_path)
    store.put(CTX, "r0000", _doc(0))
    store.get(CTX, "r0000")
    store.close()
    before = (tmp_path / "index.jsonl").read_bytes()
    stats = scan_store(tmp_path)
    assert stats["entries"] == 1
    assert stats["hits"] == 1 and stats["puts"] == 1
    assert (tmp_path / "index.jsonl").read_bytes() == before


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
    cal = _calibration()
    key = warm_calibration_key(app="app", machine="IBM-SP", calib_nprocs=2,
                               calib_inputs={"n": 64.0}, seed=0)
    save_warm_calibration(tmp_path, key, cal)
    loaded = load_warm_calibration(tmp_path, key, program="app")
    assert loaded is not None
    assert loaded.wparams == cal.wparams
    assert loaded.profile.to_dict() == cal.profile.to_dict()
    assert loaded.elapsed == cal.elapsed


def test_warm_calibration_key_is_sensitive_to_each_field():
    base = dict(app="a", machine="m", calib_nprocs=2,
                calib_inputs={"n": 1.0}, seed=0)
    key = warm_calibration_key(**base)
    for field, value in (("app", "b"), ("machine", "x"), ("calib_nprocs", 4),
                         ("calib_inputs", {"n": 2.0}), ("seed", 1)):
        assert warm_calibration_key(**{**base, field: value}) != key


def test_warm_calibration_program_mismatch_degrades_to_cold(tmp_path):
    key = warm_calibration_key(app="app", machine="IBM-SP", calib_nprocs=2,
                               calib_inputs={}, seed=0)
    save_warm_calibration(tmp_path, key, _calibration())
    assert load_warm_calibration(tmp_path, key, program="other") is None
    assert load_warm_calibration(tmp_path, "missing" * 2) is None


def test_campaign_warm_start_skips_calibration(tmp_path):
    """Second execute_request with the same warm_dir loads, not measures."""
    from repro.api import RunRequest
    from repro.workflow.campaign import execute_request

    req = RunRequest(app="sample_nearest_neighbor", mode="am", nprocs=4,
                     inputs=(("n", 64),))
    first = execute_request(req, calib_procs=2, warm_dir=str(tmp_path))
    saved = list(tmp_path.glob("*.json"))
    assert len(saved) == 1  # calibration persisted
    second = execute_request(req, calib_procs=2, warm_dir=str(tmp_path))
    assert first.outcome == "ok" and second.outcome == "ok"
    assert first.stats == second.stats  # warm start is bit-identical
