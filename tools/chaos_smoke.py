#!/usr/bin/env python
"""Chaos smoke test: kill a campaign mid-run, demand a clean recovery.

The supervised execution runtime (docs/robustness.md) promises that a
worker process dying — for any reason, at any moment — costs a campaign
nothing but a journaled strike record and a retry, that a campaign
interrupted inside its runs resumes to the same results, and that the
workers of a killed campaign die with it.  This script makes all three
promises load-bearing in CI:

1. run a reference campaign sequentially (``--jobs 1``, no chaos);
2. run the same grid with ``--jobs 2`` under the supervised pool and
   SIGKILL the first worker process as soon as it has picked up a run;
3. assert the chaos campaign still exits 0, that the kill is journaled
   as an ``error``/``hung`` strike record naming the in-flight run, that
   every final outcome is ``ok``, and that ``results.csv`` is
   byte-identical to the reference — completed runs are never lost and
   the kill never shapes results;
4. run the grid again with ``--jobs 2`` into a fresh directory and
   SIGTERM the parent once its workers are busy: it must exit 130 with
   an ``interrupted`` journal record, the runs in flight have no record,
   and ``--resume`` must exit 0 with ``results.csv`` byte-identical to
   the reference;
5. run it once more with ``--jobs 2`` and SIGKILL the parent once its
   workers are busy: every worker must exit within 10 s, the journal
   has no ``interrupted`` record (a killed parent writes none), and
   ``--resume`` must exit 0 with ``results.csv`` byte-identical to the
   reference.

Exit code 0 on success; 1 with a one-line diagnosis on any violation.
Linux-only (worker discovery walks ``/proc/<pid>/task/*/children``).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Big enough that workers are busy for seconds when the kill lands
# (each cell drains ~nprocs * iters * 3 kernel events), small enough
# that the whole smoke finishes in well under a minute.
GRID = {
    "name": "chaos-smoke",
    "machine": "testing",
    "app": "sample_nearest_neighbor",
    "modes": ["de"],
    "nprocs": [4, 6, 8, 12],
    "inputs": {"grain": 1000, "msg": 2048, "iters": 4000},
    "supervision": {"heartbeat_timeout": 30.0},
}


def fail(msg: str) -> None:
    print(f"chaos-smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def children_of(pid: int) -> list[int]:
    kids: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        for task in task_dir.iterdir():
            try:
                kids += [int(x) for x in (task / "children").read_text().split()]
            except (OSError, ValueError):
                continue
    except OSError:
        pass
    return kids


def wait_for_workers(proc: subprocess.Popen, deadline: float) -> list[int]:
    """Poll until campaign *proc* has worker processes, then give them
    0.2 s to pick up grid cells; [] if it exits or *deadline* passes."""
    while time.monotonic() < deadline and proc.poll() is None:
        kids = children_of(proc.pid)
        if kids:
            time.sleep(0.2)
            return kids
        time.sleep(0.02)
    return []


def alive(pid: int) -> bool:
    """Is *pid* running?  A zombie nobody reaps counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait(proc: subprocess.Popen, what: str) -> int:
    try:
        return proc.wait(timeout=600)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"{what} wedged")


def campaign_cmd(grid: Path, out: Path, jobs: int) -> list[str]:
    return [
        sys.executable, "-m", "repro", "campaign",
        "--grid", str(grid), "--out", str(out),
        "--jobs", str(jobs), "--no-telemetry",
    ]


def journal_docs(out: Path) -> list[dict]:
    journal = out / "campaign.journal.jsonl"
    return [json.loads(line) for line in journal.read_text().splitlines()]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="chaos-out", metavar="DIR",
                    help="scratch directory (default chaos-out)")
    ap.add_argument("--jobs", type=int, default=2,
                    help="workers for the chaos campaign (default 2)")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid_path = out / "grid.json"
    grid_path.write_text(json.dumps(GRID, indent=2))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )

    print("chaos-smoke: reference campaign (sequential, no chaos)")
    ref = subprocess.run(campaign_cmd(grid_path, out / "ref", 1), env=env)
    if ref.returncode != 0:
        fail(f"reference campaign exited {ref.returncode}")

    print(f"chaos-smoke: chaos campaign (--jobs {args.jobs}) "
          f"with a SIGKILLed worker")
    proc = subprocess.Popen(campaign_cmd(grid_path, out / "chaos", args.jobs),
                            env=env)
    victim = None
    deadline = time.monotonic() + 120
    while victim is None:
        kids = wait_for_workers(proc, deadline)
        if not kids:
            break
        for pid in kids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue  # finished already; try the next one
            victim = pid
            print(f"chaos-smoke: SIGKILLed worker pid {victim}")
            break
    rc = wait(proc, "chaos campaign after the worker kill")
    if victim is None:
        fail("no worker process appeared to kill; grid too small?")
    if rc != 0:
        fail(f"chaos campaign exited {rc}; a worker death must be survivable")

    runs = [d for d in journal_docs(out / "chaos") if d.get("type") == "run"]
    strikes = [
        d for d in runs
        if d.get("outcome") in ("error", "hung")
        and ("worker process died" in (d.get("error") or "")
             or "no heartbeat" in (d.get("error") or ""))
    ]
    if not strikes:
        fail("the worker kill left no journaled strike record")
    print(f"chaos-smoke: kill journaled as {strikes[0]['outcome']!r}: "
          f"{strikes[0]['error']}")

    final: dict[str, str] = {}
    for d in runs:  # last record for a run wins
        final[d["run_id"]] = d["outcome"]
    bad = {rid: o for rid, o in final.items() if o != "ok"}
    if bad:
        fail(f"final outcomes not all ok: {bad}")
    if len(final) != len(GRID["nprocs"]):
        fail(f"expected {len(GRID['nprocs'])} runs, journal has {len(final)}")

    ref_csv = (out / "ref" / "results.csv").read_bytes()
    chaos_csv = (out / "chaos" / "results.csv").read_bytes()
    if ref_csv != chaos_csv:
        fail("results.csv differs from the sequential reference "
             "after a worker kill")
    print(f"chaos-smoke: worker kill OK — {len(final)} runs ok, results.csv "
          f"byte-identical to the sequential reference")

    print(f"chaos-smoke: interrupted campaign (--jobs {args.jobs}) "
          f"with a SIGTERMed parent")
    interrupted = out / "interrupted"
    proc = subprocess.Popen(campaign_cmd(grid_path, interrupted, args.jobs),
                            env=env)
    if not wait_for_workers(proc, time.monotonic() + 120):
        fail("the campaign finished before it had busy workers to interrupt")
    proc.send_signal(signal.SIGTERM)
    rc = wait(proc, "interrupted campaign after SIGTERM")
    if rc != 130:
        fail(f"SIGTERMed campaign exited {rc}, expected 130")
    marks = [d for d in journal_docs(interrupted) if d.get("type") == "interrupted"]
    if not marks or not marks[-1].get("pending"):
        fail(f"SIGTERM left no interrupted record with runs pending: {marks}")
    print(f"chaos-smoke: SIGTERM journaled as interrupted with "
          f"{marks[-1]['completed']} run(s) done, {marks[-1]['pending']} pending")
    resumed = subprocess.run(
        campaign_cmd(grid_path, interrupted, args.jobs) + ["--resume"], env=env)
    if resumed.returncode != 0:
        fail(f"--resume after SIGTERM exited {resumed.returncode}")
    if (interrupted / "results.csv").read_bytes() != ref_csv:
        fail("results.csv differs from the sequential reference "
             "after a SIGTERM and --resume")
    print("chaos-smoke: SIGTERM OK — --resume reproduces the reference")

    print(f"chaos-smoke: killed campaign (--jobs {args.jobs}) "
          f"with a SIGKILLed parent")
    killed = out / "killed"
    proc = subprocess.Popen(campaign_cmd(grid_path, killed, args.jobs), env=env)
    if not wait_for_workers(proc, time.monotonic() + 120):
        fail("the campaign finished before it had busy workers to kill")
    workers = children_of(proc.pid)
    proc.kill()
    wait(proc, "SIGKILLed campaign")
    deadline = time.monotonic() + 10
    while any(map(alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [pid for pid in workers if alive(pid)]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if left:
        fail(f"workers {left} outlived their SIGKILLed parent by 10 s")
    marks = [d for d in journal_docs(killed) if d.get("type") == "interrupted"]
    if marks:
        fail(f"a SIGKILLed parent journaled an interrupted record: {marks}")
    print(f"chaos-smoke: SIGKILL took {len(workers)} worker(s) with the parent")
    resumed = subprocess.run(
        campaign_cmd(grid_path, killed, args.jobs) + ["--resume"], env=env)
    if resumed.returncode != 0:
        fail(f"--resume after SIGKILL exited {resumed.returncode}")
    if (killed / "results.csv").read_bytes() != ref_csv:
        fail("results.csv differs from the sequential reference "
             "after a parent SIGKILL and --resume")
    print("chaos-smoke: OK — worker kill, parent SIGTERM and parent SIGKILL all "
          "recover to results.csv byte-identical to the sequential reference")


if __name__ == "__main__":
    main()
