"""Replay-cursor checkpoints: file format, writer state machine, replay."""

import json

import pytest

from repro import mpi
from repro.ir import make_factory
from repro.ir.builder import P, ProgramBuilder, myid
from repro.machine import TESTING_MACHINE
from repro.sim import ExecMode, Simulator
from repro.sim.checkpoint import (
    CHECKPOINT,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointWriter,
    RunCheckpoint,
    load_checkpoint,
)

M = TESTING_MACHINE


def run(nprocs, factory, **kw):
    return Simulator(nprocs, factory, M, mode=ExecMode.DE, **kw).run()


def ring_program(rank, size):
    for _ in range(4):
        yield mpi.compute(ops=100)
        yield mpi.send(dest=(rank + 1) % size, nbytes=64, tag=0)
        yield mpi.recv(source=(rank - 1) % size, tag=0)


def ir_ring_factory():
    """``ring_program`` as an IR program, which the compiled backend lowers."""
    b = ProgramBuilder("ckpt_ring")
    with b.loop("i", 1, 4):
        b.compute("work", work=100)
        b.send(dest=(myid + 1) % P, nbytes=64, tag=0)
        b.recv(source=(myid - 1) % P, nbytes=64, tag=0)
    return make_factory(b.build(), {})


def make_writer(path, **kw):
    w = CheckpointWriter()
    kw.setdefault("run_id", "r-1")
    kw.setdefault("config_hash", "h-1")
    kw.setdefault("seed", 0)
    kw.setdefault("min_interval_s", 0.0)
    w.configure(path, **kw)
    return w


@pytest.fixture(autouse=True)
def _quiet():
    CHECKPOINT.disable()
    yield
    CHECKPOINT.disable()


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        ckpt = RunCheckpoint(
            run_id="r-1", config_hash="h-1", seed=3, events=100,
            virtual_time=1.25, wall_seconds=2.5,
            rng_state={"state": 1}, stats={"total_events": 100},
        )
        again = RunCheckpoint.from_json(json.loads(json.dumps(ckpt.to_json())))
        assert again == ckpt

    def test_from_json_rejects_bad_documents(self):
        with pytest.raises(CheckpointError, match="format"):
            RunCheckpoint.from_json({"format": 99})
        with pytest.raises(CheckpointError, match="corrupt"):
            RunCheckpoint.from_json({"format": 1, "run_id": "r"})

    def test_load_missing_or_corrupt_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{torn")
        assert load_checkpoint(bad) is None
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"format": 99}))
        assert load_checkpoint(wrong) is None


class TestWriter:
    def test_enable_requires_configure(self):
        with pytest.raises(ValueError, match="configure"):
            CheckpointWriter().enable()

    def test_throttle_validation(self, tmp_path):
        w = CheckpointWriter()
        with pytest.raises(ValueError, match="interval_events"):
            w.configure(tmp_path / "c.json", run_id="r", config_hash="h",
                        seed=0, interval_events=0)

    def test_tick_writes_on_stride(self, tmp_path):
        path = tmp_path / "c.json"
        w = make_writer(path, interval_events=10)
        w.enable()
        for events in range(1, 25):
            w.tick(events, float(events))
        assert w.written == 2  # events 10 and 20
        ckpt = load_checkpoint(path)
        assert ckpt.events == 20 and ckpt.virtual_time == 20.0
        assert ckpt.run_id == "r-1" and ckpt.seed == 0

    def test_bound_providers_ride_the_checkpoint(self, tmp_path):
        path = tmp_path / "c.json"
        w = make_writer(path, interval_events=1)
        w.bind(lambda: {"total_events": 5}, lambda: {"bg": "pcg64"})
        w.enable()
        w.tick(1, 0.5)
        ckpt = load_checkpoint(path)
        assert ckpt.stats == {"total_events": 5}
        assert ckpt.rng_state == {"bg": "pcg64"}

    def test_clear_removes_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        w = make_writer(path, interval_events=1)
        w.enable()
        w.tick(1, 0.0)
        assert path.exists()
        w.clear()
        assert not path.exists()
        w.clear()  # idempotent

    def test_configure_rejects_foreign_resume_cursor(self, tmp_path):
        cursor = RunCheckpoint(run_id="other", config_hash="h-1", seed=0,
                               events=5, virtual_time=1.0, wall_seconds=1.0)
        with pytest.raises(CheckpointError, match="different run"):
            make_writer(tmp_path / "c.json", resume_from=cursor)


class TestReplayVerification:
    def cursor(self, events=10, t=1.5, wall=4.0):
        return RunCheckpoint(run_id="r-1", config_hash="h-1", seed=0,
                             events=events, virtual_time=t, wall_seconds=wall)

    def test_matching_replay_clears_verification(self, tmp_path):
        w = make_writer(tmp_path / "c.json", interval_events=100,
                        resume_from=self.cursor())
        w.enable()
        assert w.verifying
        for events in range(1, 12):
            w.tick(events, 1.5 if events == 10 else 0.1 * events)
        assert not w.verifying

    def test_divergent_replay_raises_mismatch(self, tmp_path):
        w = make_writer(tmp_path / "c.json", interval_events=100,
                        resume_from=self.cursor(events=10, t=1.5))
        w.enable()
        with pytest.raises(CheckpointMismatchError, match="diverged"):
            w.tick(10, 1.5000001)

    def test_no_writes_during_replayed_prefix(self, tmp_path):
        """The on-disk cursor stays the high-water mark until verified."""
        path = tmp_path / "c.json"
        w = make_writer(path, interval_events=5,
                        resume_from=self.cursor(events=12, t=1.2))
        w.enable()
        for events in range(1, 12):
            w.tick(events, 0.1 * events)
        assert w.written == 0
        w.tick(12, 1.2)  # verified; stride resumes past the cursor
        for events in range(13, 20):
            w.tick(events, 0.1 * events)
        assert w.written >= 1
        assert load_checkpoint(path).events > 12

    def test_wall_credit_accumulates_across_attempts(self, tmp_path):
        path = tmp_path / "c.json"
        w = make_writer(path, interval_events=1,
                        resume_from=self.cursor(events=1, t=0.5, wall=40.0))
        w.enable()
        w.tick(1, 0.5)  # verify
        w.write(2, 0.6)
        assert load_checkpoint(path).wall_seconds >= 40.0


class TestEngineIntegration:
    def test_results_identical_with_checkpointing_armed(self, tmp_path):
        plain = run(3, ring_program, seed=7)
        path = tmp_path / "c.json"
        CHECKPOINT.configure(path, run_id="r-1", config_hash="h-1", seed=7,
                             interval_events=5, min_interval_s=0.0)
        CHECKPOINT.enable()
        try:
            checked = run(3, ring_program, seed=7)
        finally:
            CHECKPOINT.disable()
        assert checked.elapsed == plain.elapsed
        assert checked.stats.to_dict() == plain.stats.to_dict()
        ckpt = load_checkpoint(path)
        assert ckpt is not None and ckpt.events > 0
        assert ckpt.stats is not None  # engine binds its stats snapshot

    @pytest.mark.parametrize("writer", ["interpreted", "compiled"], ids=["interp", "comp"])
    @pytest.mark.parametrize("reader", ["interpreted", "compiled"], ids=["interp", "comp"])
    def test_real_cursor_replays_clean(self, tmp_path, writer, reader):
        """A cursor harvested from one run verifies on a re-run, on either
        event loop — the determinism contract that licenses replay-cursor
        resumption across backends."""
        factory = ir_ring_factory()
        path = tmp_path / "c.json"
        CHECKPOINT.configure(path, run_id="r-1", config_hash="h-1", seed=7,
                             interval_events=5, min_interval_s=0.0)
        CHECKPOINT.enable()
        try:
            written = run(3, factory, seed=7, backend=writer)
        finally:
            CHECKPOINT.disable()
        cursor = load_checkpoint(path)
        assert cursor is not None and cursor.events > 0
        CHECKPOINT.configure(path, run_id="r-1", config_hash="h-1", seed=7,
                             resume_from=cursor)
        CHECKPOINT.enable()
        try:
            replayed = run(3, factory, seed=7, backend=reader)  # raises on divergence
            assert not CHECKPOINT.verifying
        finally:
            CHECKPOINT.disable()
        assert replayed.stats.to_dict() == written.stats.to_dict()

    def test_tampered_cursor_is_caught_on_replay(self, tmp_path):
        path = tmp_path / "c.json"
        CHECKPOINT.configure(path, run_id="r-1", config_hash="h-1", seed=7,
                             interval_events=5, min_interval_s=0.0)
        CHECKPOINT.enable()
        try:
            run(3, ring_program, seed=7)
        finally:
            CHECKPOINT.disable()
        good = load_checkpoint(path)
        bad = RunCheckpoint(
            run_id=good.run_id, config_hash=good.config_hash, seed=good.seed,
            events=good.events, virtual_time=good.virtual_time + 1.0,
            wall_seconds=good.wall_seconds,
        )
        CHECKPOINT.configure(path, run_id="r-1", config_hash="h-1", seed=7,
                             resume_from=bad)
        CHECKPOINT.enable()
        try:
            with pytest.raises(CheckpointMismatchError):
                run(3, ring_program, seed=7)
        finally:
            CHECKPOINT.disable()
