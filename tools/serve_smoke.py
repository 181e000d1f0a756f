#!/usr/bin/env python
"""CI smoke test for ``repro serve``: the dedupe and shutdown contract.

Starts a real server subprocess on an ephemeral port, submits the same
campaign grid twice, and demands:

* pass 1 executes every cell (all misses);
* pass 2 is served entirely from the content-addressed store — 100%
  hits, zero simulator events, byte-identical result documents;
* a single ``repro query`` against the warm server is a cache hit
  (grid and query both leave ``calib_procs`` at its default, so they
  share one execution context);
* the store is locked while the server runs: a second ``repro serve``
  and a serverless ``repro query --store`` on it exit 2 with one line
  naming the store, and ``repro inspect`` still reads it;
* while a slow grid runs in a background thread, ``/healthz`` and a
  warm ``/v1/run`` hit each answer within 5 s;
* an ``am`` ``/v1/run`` miss measures a calibration, which the store
  keeps in its log;
* SIGTERM produces a clean drain: exit code 0, "shutdown complete" on
  stdout, and no orphan processes holding the store;
* the drained store directory holds only ``results.jsonl`` (no
  ``warm/``, no temporary files), and ``repro inspect`` counts the one
  warm calibration.

It also prints the median latency of 200 warm ``/v1/run`` hits, which
no check gates.  Exit code 0 on success, 1 with a diagnostic on any
violation.
"""

import argparse
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

GRID = {
    "name": "serve-smoke",
    "app": "sample_nearest_neighbor",
    "modes": ["de"],
    "nprocs": [2, 4, 8],
}


#: a grid that keeps the server simulating for several seconds
SLOW_GRID = {
    "name": "serve-smoke-slow",
    "app": "sample_nearest_neighbor",
    "modes": ["de"],
    "nprocs": [2, 4, 8, 16],
    "inputs": {"iters": 4000},
}

#: a cell of GRID as a bare run request: a warm hit once GRID ran
HIT = {"kind": "run_request", "app": "sample_nearest_neighbor",
       "mode": "de", "nprocs": 4}

#: an am miss: it measures the one calibration the store keeps
AM = {**HIT, "mode": "am"}

#: the longest a request may wait for a thread while a grid simulates
PROMPT_S = 5.0


def timed_request(base, method, path, doc=None):
    """One request over ``http.client``: (status, response document, seconds)."""
    host, port = base.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=180)
    body = json.dumps(doc) if doc is not None else None
    t0 = time.perf_counter()
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        out = json.loads(resp.read())
        return resp.status, out, time.perf_counter() - t0
    finally:
        conn.close()


def check_prompt_during_slow_grid(base):
    """/healthz and a warm hit each answer within PROMPT_S mid-grid."""
    failures = []

    def run_slow_grid():
        try:
            post(base, "/v1/campaign", SLOW_GRID)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    slow = threading.Thread(target=run_slow_grid, daemon=True)
    slow.start()
    time.sleep(0.5)  # let the grid start simulating
    for method, path, doc in (("GET", "/healthz", None), ("POST", "/v1/run", HIT)):
        status, out, seconds = timed_request(base, method, path, doc)
        if status != 200 or (doc is not None and out.get("cached") is not True):
            fail(f"{method} {path} during the slow grid: {status} {out}")
        if seconds > PROMPT_S:
            fail(f"{method} {path} took {seconds:.2f}s during the slow grid")
        print(f"serve-smoke: {method} {path} answered in {seconds * 1e3:.1f} ms "
              f"while a slow grid ran (still running: {slow.is_alive()})")
    slow.join(180)
    if failures or slow.is_alive():
        fail(f"slow grid did not finish cleanly: {failures}")


def warm_hit_p50_ms(base, count=200):
    """Median round trip of *count* warm ``/v1/run`` hits, in ms."""
    times = []
    for _ in range(count):
        status, out, seconds = timed_request(base, "POST", "/v1/run", HIT)
        if status != 200 or out.get("cached") is not True:
            fail(f"warm hit: {status} {out}")
        times.append(seconds)
    return statistics.median(times) * 1e3


def post(base, path, doc):
    status, out, _ = timed_request(base, "POST", path, doc)
    if status != 200:
        raise RuntimeError(f"POST {path}: {status} {out}")
    return out


def fail(msg):
    print(f"serve-smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", default=None,
                        help="store directory (default: a temp dir)")
    args = parser.parse_args()
    store = args.store or tempfile.mkdtemp(prefix="serve-smoke-")
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store,
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=repo, env=env)
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if not match:
            fail(f"no listening line: {line!r}")
        base = match.group(1)
        print(f"serve-smoke: server up at {base}, store {store}")

        cold = post(base, "/v1/campaign", GRID)
        if cold["misses"] != 3 or cold["hits"] != 0:
            fail(f"cold pass expected 3 misses: {cold}")
        if cold["executed_events"] <= 0:
            fail("cold pass executed no events")
        if cold["outcomes"] != {"ok": 3}:
            fail(f"cold outcomes: {cold['outcomes']}")
        print(f"serve-smoke: cold pass executed "
              f"{cold['executed_events']} events")

        warm = post(base, "/v1/campaign", GRID)
        if warm["hits"] != 3 or warm["misses"] != 0:
            fail(f"warm pass expected 3 hits: {warm}")
        if warm["executed_events"] != 0:
            fail(f"warm pass executed {warm['executed_events']} events")
        if warm["results"] != cold["results"]:
            fail("warm results are not byte-identical to the cold pass")
        print("serve-smoke: warm pass 3/3 hits, 0 events, byte-identical")

        query = subprocess.run(
            [sys.executable, "-m", "repro", "query",
             "sample_nearest_neighbor", "--nprocs", "4",
             "--server", base.removeprefix("http://")],
            capture_output=True, text=True, cwd=repo, env=env, timeout=120)
        if query.returncode != 0:
            fail(f"query exit {query.returncode}: {query.stderr}")
        if "cache hit" not in query.stdout:
            fail(f"query was not a cache hit: {query.stdout!r}")
        print(f"serve-smoke: {query.stdout.strip()}")

        for cmd in (["serve", "--store", store, "--port", "0"],
                    ["query", "sample_nearest_neighbor", "--nprocs", "4",
                     "--store", store]):
            busy = subprocess.run(
                [sys.executable, "-m", "repro", *cmd],
                capture_output=True, text=True, cwd=repo, env=env, timeout=120)
            lines = busy.stderr.strip().splitlines()
            if busy.returncode != 2 or len(lines) != 1 or store not in lines[0]:
                fail(f"`repro {cmd[0]}` on the open store: exit "
                     f"{busy.returncode}, stderr {busy.stderr!r}")
            print(f"serve-smoke: {cmd[0]} on the open store -> exit 2: {lines[0]}")
        inspect = subprocess.run(
            [sys.executable, "-m", "repro", "inspect", store],
            capture_output=True, text=True, cwd=repo, env=env, timeout=120)
        if inspect.returncode != 0 or "3 entries" not in inspect.stdout:
            fail(f"inspect on the open store: {inspect.stdout!r} {inspect.stderr!r}")
        print("serve-smoke: inspect reads the open store without its lock")

        check_prompt_during_slow_grid(base)
        print(f"serve-smoke: p50 of 200 warm hits {warm_hit_p50_ms(base):.3f} ms "
              "(not gated)")

        am = post(base, "/v1/run", AM)
        if am["cached"] is not False or am["result"]["outcome"] != "ok":
            fail(f"am miss: {am}")
        print("serve-smoke: am miss ok")

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        tail = proc.stdout.read()
        if rc != 0:
            fail(f"SIGTERM exit code {rc}: {tail}")
        if "shutdown complete" not in tail:
            fail(f"no shutdown message: {tail!r}")
        print("serve-smoke: SIGTERM -> exit 0, clean drain")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    left = sorted(p.name for p in Path(store).iterdir())
    if left != ["results.jsonl"]:
        fail(f"the drained store holds {left}, not only results.jsonl")
    inspect = subprocess.run(
        [sys.executable, "-m", "repro", "inspect", store],
        capture_output=True, text=True, cwd=repo, env=env, timeout=120)
    if inspect.returncode != 0 or "1 warm calibration(s)" not in inspect.stdout:
        fail(f"inspect after shutdown: {inspect.stdout!r} {inspect.stderr!r}")
    print("serve-smoke: the store is one log, with 1 warm calibration")
    print("serve-smoke: OK")


if __name__ == "__main__":
    main()
