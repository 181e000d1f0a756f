"""Supervised execution runtime: hang kills, poison quarantine, degradation.

The contract under test (docs/robustness.md): supervision may change
*how fast* a campaign learns about sick workers, never *what* it
computes — a wedged run is journaled ``hung`` within the heartbeat
deadline, a repeat offender is quarantined ``poison`` with a forensics
artifact while the rest of the campaign completes, pool breakage
degrades to in-process execution, and in every case ``results.csv``
for the healthy cells is byte-identical to a sequential run.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.workflow.pipeline as pipeline
import repro.workflow.supervisor as supervisor
from repro.apps import resolve_app
from repro.sim.faults import FaultState
from repro.workflow.campaign import (
    QUARANTINE_DIR_NAME,
    CampaignRunner,
    expand_grid,
)
from repro.workflow.supervisor import minimize_poison

from .test_parallel import run_campaign, tiny_grid

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="supervisor tests monkeypatch worker hooks, which requires fork",
)


def journal_docs(runner):
    return [json.loads(line) for line in
            runner.journal_path.read_text().splitlines()]


def _sigint_probe(conn):  # pragma: no cover - runs in a child process
    """Satellite regression: a quieted worker must survive its own SIGINT."""
    supervisor._quiet_worker()
    os.kill(os.getpid(), signal.SIGINT)
    conn.send("alive")
    conn.close()


class TestWorkerSignalMask:
    def test_quiet_worker_ignores_sigint(self):
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_sigint_probe, args=(child,), daemon=True)
        proc.start()
        child.close()
        assert parent.poll(10), "worker died instead of ignoring SIGINT"
        assert parent.recv() == "alive"
        proc.join(timeout=10)
        assert proc.exitcode == 0
        parent.close()


class TestHangDetection:
    def test_wedged_run_is_killed_and_classified_hung(self, tmp_path, monkeypatch):
        """A run that stops beating is journaled ``hung`` within the
        heartbeat deadline, retried, and the campaign stays byte-identical."""
        flag = tmp_path / "wedged-once"
        real = supervisor._execute_cell

        def wedge_once(runner, conn, spec, index, config):
            if spec.nprocs == 3 and not flag.exists():
                flag.write_text("x")
                conn.send(("hb", spec.run_id, {
                    "events": 123, "virtual_time": 1.5, "wall_seconds": 0.2,
                    "flight_tail": [[1.0, 0, "send"]], "run_id": spec.run_id,
                }))
                time.sleep(60)  # killed long before this returns
            return real(runner, conn, spec, index, config)

        monkeypatch.setattr(supervisor, "_execute_cell", wedge_once)
        grid = tiny_grid(supervision={"heartbeat_timeout": 0.5})
        t0 = time.monotonic()
        runner, report = run_campaign(tmp_path, grid=grid, jobs=2)
        assert report.complete and not report.interrupted
        assert time.monotonic() - t0 < 30, "hang must not wait out a wall budget"
        hung = [d for d in journal_docs(runner)
                if d.get("type") == "run" and d.get("outcome") == "hung"]
        assert len(hung) == 1
        assert "no heartbeat" in hung[0]["error"]
        # the last cursor and its staleness ride the strike record
        assert hung[0]["cursor"]["events"] == 123
        assert hung[0]["cursor"]["staleness_s"] >= 0.5
        # the worker is dead, but its heartbeat carried the flight tail
        assert hung[0]["flight"]["events"] == [[1.0, 0, "send"]]
        assert hung[0]["flight"]["meta"]["source"] == "heartbeat"
        # last record wins: the retry succeeded
        assert all(r.outcome == "ok" for r in report.records.values())
        _, ref = run_campaign(tmp_path, sub="ref", jobs=1)
        assert (tmp_path / "out" / "results.csv").read_bytes() == \
               (tmp_path / "ref" / "results.csv").read_bytes()


def _crash_nprocs3(runner, conn, spec, index, config):
    """Poison stand-in: one spec hard-kills every worker it touches."""
    if spec.nprocs == 3:
        os._exit(1)
    return supervisor.__dict__["_real_execute_cell"](runner, conn, spec, index, config)


class TestPoisonQuarantine:
    def test_repeat_killer_is_quarantined_and_campaign_completes(
            self, tmp_path, monkeypatch):
        real = supervisor._execute_cell
        monkeypatch.setitem(supervisor.__dict__, "_real_execute_cell", real)
        monkeypatch.setattr(supervisor, "_execute_cell", _crash_nprocs3)
        grid = tiny_grid(supervision={"poison_threshold": 2})
        runner, report = run_campaign(tmp_path, grid=grid, jobs=2)
        assert report.complete
        assert report.outcomes["poison"] == 1 and report.outcomes["ok"] == 2
        docs = journal_docs(runner)
        strikes = [d for d in docs if d.get("type") == "run"
                   and d.get("outcome") == "error"
                   and "worker process died" in (d.get("error") or "")]
        assert strikes, "each worker death must be journaled before quarantine"
        poison = [d for d in docs if d.get("outcome") == "poison"]
        assert len(poison) == 1 and poison[0]["attempts"] == 2
        # quarantine artifact: spec identity + reproducer attempt
        q_path = runner.out_dir / QUARANTINE_DIR_NAME / f"{poison[0]['run_id']}.json"
        assert q_path.exists()
        q = json.loads(q_path.read_text())
        assert q["strikes"] == 2 and q["spec"]["nprocs"] == 3
        assert "reproducer" in q  # tried, even if the crash was synthetic
        # poison is terminal: a resume re-runs nothing
        resumed = runner.execute(resume=True)
        assert resumed.complete and resumed.executed == 0
        assert resumed.skipped == 3

    def test_poison_row_lands_in_results_csv(self, tmp_path, monkeypatch):
        real = supervisor._execute_cell
        monkeypatch.setitem(supervisor.__dict__, "_real_execute_cell", real)
        monkeypatch.setattr(supervisor, "_execute_cell", _crash_nprocs3)
        grid = tiny_grid(supervision={"poison_threshold": 2})
        runner, report = run_campaign(tmp_path, grid=grid, jobs=2)
        assert report.complete
        text = (runner.out_dir / "results.csv").read_text()
        assert "poison" in text


def _crash_once(runner, conn, spec, index, config):
    flag = supervisor.__dict__["_crash_once_flag"]
    if spec.nprocs == 3 and not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("x")
        os._exit(1)
    return supervisor.__dict__["_real_execute_cell"](runner, conn, spec, index, config)


class TestCrashRetry:
    def test_crash_once_then_recover_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setitem(supervisor.__dict__, "_real_execute_cell",
                            supervisor._execute_cell)
        monkeypatch.setitem(supervisor.__dict__, "_crash_once_flag",
                            str(tmp_path / "crashed-once"))
        monkeypatch.setattr(supervisor, "_execute_cell", _crash_once)
        runner, report = run_campaign(tmp_path, jobs=2)
        assert report.complete
        assert all(r.outcome == "ok" for r in report.records.values())
        strikes = [d for d in journal_docs(runner)
                   if d.get("type") == "run" and d.get("outcome") == "error"]
        assert len(strikes) == 1
        assert "worker process died" in strikes[0]["error"]
        assert strikes[0]["error"].count("run ") == 1  # names the cell
        _, ref = run_campaign(tmp_path, sub="ref", jobs=1)
        assert (tmp_path / "out" / "results.csv").read_bytes() == \
               (tmp_path / "ref" / "results.csv").read_bytes()


class TestGracefulDegradation:
    def test_unspawnable_pool_degrades_to_inline_execution(
            self, tmp_path, monkeypatch):
        """When workers cannot even be spawned, the supervisor falls back
        to in-process sequential execution with byte-identical outputs."""

        class FailingCtx:
            def Pipe(self):
                raise OSError("no more processes")

        monkeypatch.setattr(
            supervisor, "multiprocessing",
            SimpleNamespace(get_context=lambda: FailingCtx()),
        )
        monkeypatch.setattr(supervisor, "RESPAWN_BACKOFF", 0.001)
        runner, report = run_campaign(tmp_path, jobs=2)
        assert report.complete
        assert all(r.outcome == "ok" for r in report.records.values())
        _, ref = run_campaign(tmp_path, sub="ref", jobs=1)
        assert (tmp_path / "out" / "results.csv").read_bytes() == \
               (tmp_path / "ref" / "results.csv").read_bytes()


class TestMinimizePoison:
    config = expand_grid(tiny_grid())

    def spec(self):
        return self.config.request.runs[0]

    def test_reproducing_failure_is_minimized(self):
        info = minimize_poison(self.spec(), self.config, resolve_app,
                               probe=lambda candidate: True)
        assert info["minimized"] is True
        assert info["final_stmts"] <= info["original_stmts"]
        assert info["checks"] >= 1
        assert isinstance(info["program"], str) and info["program"]

    def test_non_reproducing_failure_is_declined_with_note(self):
        info = minimize_poison(self.spec(), self.config, resolve_app,
                               probe=lambda candidate: False)
        assert info["minimized"] is False
        assert "declined" in info["note"]

    def test_resolver_failure_is_recorded_not_raised(self):
        def bad_resolver(app):
            raise RuntimeError("registry unavailable")

        info = minimize_poison(self.spec(), self.config, bad_resolver)
        assert info["minimized"] is False
        assert "resolver failed" in info["note"]


class TestProbeFidelity:
    """The subprocess probe replays the quarantined cell's own run."""

    def test_a_crash_only_under_the_fault_plan_is_reproduced(self, monkeypatch):
        # a fault-state hook that kills its process: the forked probe
        # inherits it, and only a run under the cell's plan calls it
        monkeypatch.setattr(FaultState, "crash_times",
                            lambda self, nprocs: os._exit(3))
        config = expand_grid(tiny_grid(
            nprocs=[4], fault_plans=[{"seed": 3, "message_loss": 0.1}]))
        spec = config.request.runs[0]
        info = minimize_poison(spec, config, resolve_app, max_checks=4)
        assert info["minimized"] is True, info.get("note")
        assert info["final_stmts"] < info["original_stmts"]

    def test_an_am_probe_calibrates_at_the_cells_calibration_ranks(
            self, tmp_path, monkeypatch):
        log = tmp_path / "calib-nprocs"
        real = pipeline.measure_wparams

        def spy(program, inputs, nprocs, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{nprocs}\n")
            return real(program, inputs, nprocs, *args, **kwargs)

        monkeypatch.setattr(pipeline, "measure_wparams", spy)
        config = expand_grid(tiny_grid(modes=["am"], nprocs=[8], calib_procs=4))
        info = minimize_poison(config.request.runs[0], config, resolve_app,
                               max_checks=2)
        assert "declined" in info["note"]  # a healthy run reproduces nothing
        assert log.read_text().split() == ["4"]


class TestProbeHeartbeats:
    """A probe's hang is judged by heartbeat staleness, not by its length."""

    @pytest.fixture(autouse=True)
    def _fast_beats(self, monkeypatch):
        monkeypatch.setattr(supervisor, "HB_INTERVAL_EVENTS", 1)
        monkeypatch.setattr(supervisor, "HB_MIN_INTERVAL_S", 0.02)

    def test_a_slow_healthy_cell_is_declined(self):
        # about 2 s of simulation, four times the probe timeout, beating
        config = expand_grid(tiny_grid(
            nprocs=[4], inputs={"grain": 1000, "msg": 512, "iters": 12000}))
        t0 = time.monotonic()
        info = minimize_poison(config.request.runs[0], config, resolve_app,
                               max_checks=2, probe_timeout=0.5)
        assert time.monotonic() - t0 > 0.5  # the probe outlasted its timeout
        assert info["minimized"] is False
        assert "declined" in info["note"]

    def test_a_probe_that_stops_beating_is_a_hang(self, monkeypatch):
        def beat_then_wedge(runner, spec, index=0):
            for events in range(1, 31):  # 0.6 s of beats, then silence
                supervisor.HEARTBEAT.tick(events, 0.0)
                time.sleep(0.02)
            time.sleep(60)

        monkeypatch.setattr(CampaignRunner, "run_one", beat_then_wedge)
        config = expand_grid(tiny_grid(nprocs=[2]))
        spec = config.request.runs[0]
        t0 = time.monotonic()
        assert supervisor._subprocess_probe(config, spec, resolve_app(spec.app)[0],
                                            resolve_app, timeout=0.3)
        assert time.monotonic() - t0 < 10


def _children(pid: int) -> list[int]:
    """The pids whose parent is *pid*, from ``/proc/<pid>/stat``."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def _alive(pid: int) -> bool:
    """Is *pid* running?  A zombie nobody reaps counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestParentDeath:
    """A SIGKILLed campaign parent takes its workers with it.

    Each forked worker closes its copies of the parent's pipe ends, so
    the parent's death is EOF on an idle worker's pipe and a failed
    heartbeat send on a busy one; either way the worker exits.
    """

    def test_workers_exit_when_the_parent_is_sigkilled(self, tmp_path):
        grid = tiny_grid(nprocs=[4, 6, 8, 12],
                         inputs={"grain": 1000, "msg": 2048, "iters": 4000})
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "--grid", str(grid_path),
             "--out", str(tmp_path / "out"), "--jobs", "2", "--no-telemetry"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                assert proc.poll() is None, "campaign ended before its workers ran"
                workers = _children(proc.pid)
                time.sleep(0.05)
            assert len(workers) == 2, f"expected 2 workers, saw {workers}"
            time.sleep(0.5)  # both pick up cells and run them
            assert proc.poll() is None, "campaign ended before the kill"
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            left = [pid for pid in workers if _alive(pid)]
            assert not left, f"workers {left} outlived their SIGKILLed parent by 10 s"
        finally:
            proc.kill()
            proc.wait(timeout=10)
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
