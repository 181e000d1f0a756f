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
* SIGTERM produces a clean drain: exit code 0, "shutdown complete" on
  stdout, and no orphan processes holding the store.

Exit code 0 on success, 1 with a diagnostic on any violation.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

GRID = {
    "name": "serve-smoke",
    "app": "sample_nearest_neighbor",
    "modes": ["de"],
    "nprocs": [2, 4, 8],
}


def post(base, path, doc):
    req = urllib.request.Request(
        f"{base}{path}", data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=180) as resp:
        return json.loads(resp.read())


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

    if not (Path(store) / "results.jsonl").is_file():
        fail("store log missing after shutdown")
    print("serve-smoke: OK")


if __name__ == "__main__":
    main()
