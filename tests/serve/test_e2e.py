"""End-to-end service tests against a real ``repro serve`` subprocess:
crash consistency under SIGKILL mid-campaign, clean SIGTERM exit, and
the store lock that keeps a second writer out."""

import json
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import RunResult
from repro.store import LOG_NAME, ResultStore, scan_store
from repro.util.atomic_io import read_jsonl

APP = "sample_nearest_neighbor"

#: a grid slow enough to kill partway through (several seconds total)
SLOW_GRID = {
    "name": "e2e", "app": APP, "modes": ["de"],
    "nprocs": [2, 4, 8, 16], "calib_procs": 2,
    "inputs": {"iters": 4000},
}


REPO = Path(__file__).resolve().parents[2]


def _start_server(store_dir) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--store", str(store_dir), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=str(REPO),
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on (http://[\d.]+:\d+)", line)
    assert match, f"no listening line, got {line!r}"
    return proc, match.group(1)


def _post(base: str, path: str, doc: dict, timeout: float = 120.0) -> dict:
    req = urllib.request.Request(
        f"{base}{path}", data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def test_sigterm_is_a_clean_exit(tmp_path):
    proc, base = _start_server(tmp_path)
    try:
        _post(base, "/v1/campaign",
              {"app": APP, "modes": ["de"], "nprocs": [2], "calib_procs": 2})
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        tail = proc.stdout.read()
        assert rc == 0, f"exit {rc}: {tail}"
        assert "shutdown complete" in tail
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # the store flushed its counters on the way out
    stats = ResultStore(tmp_path).stats()
    assert stats["entries"] == 1 and stats["puts"] == 1


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=30) as resp:
        return json.loads(resp.read())


def test_sigterm_lets_an_inflight_miss_finish(tmp_path):
    """SIGTERM during a miss: its client still gets a 200, the result is
    stored, and the server exits 0."""
    import threading

    slow = {"run": {"app": APP, "mode": "de", "nprocs": 16,
                    "inputs": {"iters": 4000}}, "calib_procs": 2}
    replies = []
    proc, base = _start_server(tmp_path)
    poster = threading.Thread(
        target=lambda: replies.append(_post(base, "/v1/run", slow)), daemon=True)
    try:
        poster.start()
        deadline = time.monotonic() + 60
        polls = 0
        while time.monotonic() < deadline:
            polls += 1  # each poll counts itself as one request
            if _get(base, "/v1/stats")["server"]["requests"] > polls:
                break  # the miss was dispatched before this poll
            time.sleep(0.02)
        else:
            pytest.fail("the miss never reached the server")
        proc.send_signal(signal.SIGTERM)
        poster.join(120)
        rc = proc.wait(timeout=120)
        tail = proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert rc == 0 and "shutdown complete" in tail, tail
    assert len(replies) == 1, "the in-flight request got no reply"
    reply = replies[0]
    assert reply["cached"] is False and reply["result"]["outcome"] == "ok"
    store = ResultStore(tmp_path)
    assert store.get(reply["context"], reply["result"]["run_id"]) == reply["result"]
    store.close()


def test_sigkill_mid_campaign_leaves_store_consistent(tmp_path):
    """Kill -9 the server mid-campaign: every entry on disk is complete,
    and a restarted server serves the finished prefix as cache hits."""
    import threading

    proc, base = _start_server(tmp_path)
    submitted = threading.Thread(
        target=lambda: _try_post(base, "/v1/campaign", SLOW_GRID),
        daemon=True)
    submitted.start()
    # wait until at least one result landed, then kill without ceremony
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        stats = scan_store(tmp_path)  # reads the log without the lock
        if stats is not None and stats["entries"]:
            break
        if proc.poll() is not None:
            pytest.fail(f"server died early: {proc.stdout.read()}")
        time.sleep(0.02)
    else:
        pytest.fail("no result reached the store before the deadline")
    proc.kill()
    proc.wait(timeout=30)

    # crash consistency: every put record in the log parses (a torn tail
    # is dropped), and the reopened store serves each one byte-identical
    survivors = {}
    for rec in read_jsonl(tmp_path / LOG_NAME):
        if rec["op"] == "put":
            assert RunResult.from_json(rec["result"]).ok
            survivors[rec["entry"]] = rec["result"]
    assert survivors, "the completed prefix must have survived the kill"
    store = ResultStore(tmp_path)  # the kill released the lock
    for entry, doc in survivors.items():
        assert store.get(*entry.split("/")) == doc
    store.close()

    # a restarted server answers the prefix from cache
    proc2, base2 = _start_server(tmp_path)
    try:
        out = _post(base2, "/v1/campaign", SLOW_GRID, timeout=240)
        assert out["hits"] == len(survivors)
        assert out["misses"] == 4 - len(survivors)
        assert out["outcomes"] == {"ok": 4}
        # and a third submission is then fully warm: zero simulator events
        warm = _post(base2, "/v1/campaign", SLOW_GRID, timeout=60)
        assert warm["hits"] == 4 and warm["executed_events"] == 0
    finally:
        proc2.send_signal(signal.SIGTERM)
        assert proc2.wait(timeout=30) == 0


def _try_post(base, path, doc):
    try:
        _post(base, path, doc)
    except Exception:
        pass  # the server is killed mid-request by design


def _repro(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, cwd=str(REPO),
                          timeout=120)


def test_store_lock_refuses_a_second_writer(tmp_path):
    """While a server has the store open, a second server and a
    serverless query exit 2 with one line naming the store, and
    ``repro inspect`` still reads it; a SIGKILL releases the lock."""
    proc, base = _start_server(tmp_path)
    try:
        _post(base, "/v1/campaign",
              {"app": APP, "modes": ["de"], "nprocs": [2], "calib_procs": 2})
        for args in (["serve", "--store", str(tmp_path), "--port", "0"],
                     ["query", APP, "--nprocs", "2", "--store", str(tmp_path)]):
            refused = _repro(*args)
            assert refused.returncode == 2, refused
            lines = refused.stderr.strip().splitlines()
            assert len(lines) == 1 and str(tmp_path) in lines[0], refused.stderr
            assert "in use" in lines[0]
        inspected = _repro("inspect", str(tmp_path))
        assert inspected.returncode == 0, inspected.stderr
        assert "1 entries" in inspected.stdout
    finally:
        proc.kill()
        proc.wait(timeout=30)
    proc2, base2 = _start_server(tmp_path)
    try:
        with urllib.request.urlopen(f"{base2}/v1/stats", timeout=30) as resp:
            stats = json.loads(resp.read())
        assert stats["store"]["entries"] == 1
    finally:
        proc2.send_signal(signal.SIGTERM)
        assert proc2.wait(timeout=30) == 0
