"""Replay-cursor checkpoints: resume a killed run by fast-forward.

The engine is deterministic under a fixed seed: the same program,
machine and seed drain the same event heap in the same order.  That
makes a **replay cursor** — (event count, virtual time) plus the
identity of the run it belongs to — a sound checkpoint representation:
instead of serializing live generator frames and match queues (which
cannot be pickled), a resumed run simply re-executes from event zero
and *verifies* that it passes through the checkpointed cursor, while
the campaign layer refunds the wall-clock budget the first attempt
already spent (see ``CampaignRunner._simulate``).  The MP-net view of
message-passing state (PAPERS.md) is what licenses this: the kernel's
state at event N is a pure function of the history, so the cursor
pins the whole state.

Checkpoint files are small JSON documents written atomically
(tmp + fsync + rename via :func:`repro.util.atomic_io.atomic_write`)
to ``<out>/checkpoints/<run_id>.json``::

    {"format": 1, "run_id": ..., "config_hash": ..., "seed": ...,
     "events": N, "virtual_time": t, "wall_seconds": w,
     "rng_state": {...} | null, "stats": {...}}

``rng_state`` snapshots the numpy bit-generator for MEASURED-mode
runs; it documents the cursor (and lets external tooling audit the
replay) — resumption itself replays from the seed.  A checkpoint
whose recorded cursor the replay does *not* reproduce raises
:class:`CheckpointMismatchError`; the campaign layer then discards the
checkpoint and restarts the run from zero rather than trusting a
divergent replay.

Cost contract: disabled (the default), checkpointing adds zero
hot-loop calls — the event loop tests ``CHECKPOINT.enabled`` once per
run (through :class:`repro.sim.loop.RunHooks`).  Enabled, the loop
ticks only at the event counts :attr:`CheckpointWriter.next_due`
names (the resume cursor, then the write stride); an actual write is
throttled by both an event stride and a wall-clock minimum interval.
Events are numbered the same for both drivers, so a cursor written on
one backend verifies on the other.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from ..util.atomic_io import atomic_write

__all__ = [
    "RunCheckpoint",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointWriter",
    "CHECKPOINT",
    "load_checkpoint",
]

#: checkpoint schema version (bump when the dict shape changes)
CHECKPOINT_FORMAT = 1

#: default event stride between checkpoint writes
DEFAULT_INTERVAL_EVENTS = 200_000

#: default minimum wall seconds between checkpoint writes
DEFAULT_MIN_INTERVAL_S = 1.0


class CheckpointError(RuntimeError):
    """A checkpoint file cannot be used (corrupt, wrong identity)."""


class CheckpointMismatchError(CheckpointError):
    """A replayed run diverged from its checkpointed cursor.

    Determinism is the load-bearing assumption of replay-cursor
    resumption; if the cursor does not reproduce, the checkpoint (or
    the environment) is wrong and the run must restart from zero.
    """


@dataclass(frozen=True)
class RunCheckpoint:
    """One replay cursor: where a run was, and which run it was."""

    run_id: str
    config_hash: str
    seed: int
    events: int
    virtual_time: float
    wall_seconds: float
    rng_state: dict | None = None
    stats: dict | None = None

    def to_json(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "run_id": self.run_id,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "events": self.events,
            "virtual_time": self.virtual_time,
            "wall_seconds": self.wall_seconds,
            "rng_state": self.rng_state,
            "stats": self.stats,
        }

    @classmethod
    def from_json(cls, doc: dict) -> RunCheckpoint:
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {doc.get('format') if isinstance(doc, dict) else doc!r}"
            )
        try:
            return cls(
                run_id=str(doc["run_id"]),
                config_hash=str(doc["config_hash"]),
                seed=int(doc["seed"]),
                events=int(doc["events"]),
                virtual_time=float(doc["virtual_time"]),
                wall_seconds=float(doc["wall_seconds"]),
                rng_state=doc.get("rng_state"),
                stats=doc.get("stats"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt checkpoint: {exc}") from None


def load_checkpoint(path: str | Path) -> RunCheckpoint | None:
    """Read a checkpoint file; ``None`` if missing or unusable.

    A corrupt checkpoint is *not* an error — it is a crash artifact
    (e.g. written by a dying kernel version) and resumption simply
    restarts from zero; the caller may clear the file.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    try:
        return RunCheckpoint.from_json(doc)
    except CheckpointError:
        return None


class CheckpointWriter:
    """Per-run checkpoint state machine; use the shared :data:`CHECKPOINT`.

    The campaign layer configures it with the run identity, the target
    path and (on resume) the cursor to verify; the event loop binds the
    stats/rng providers and calls :meth:`tick` when :attr:`next_due`.
    """

    def __init__(self):
        self.enabled = False
        self.interval_events = DEFAULT_INTERVAL_EVENTS
        self.min_interval_s = DEFAULT_MIN_INTERVAL_S
        self._path: Path | None = None
        self._run_id = ""
        self._config_hash = ""
        self._seed = 0
        self._verify_events = -1  # -1: no pending verification
        self._verify_time = 0.0
        self._next_events = 0
        self._last_wall = 0.0
        self._t0 = 0.0
        self._wall_credit = 0.0
        self._stats_fn = None
        self._rng_state_fn = None
        self._written = 0

    # -- lifecycle (campaign side) -------------------------------------------
    def configure(self, path: str | Path, *, run_id: str, config_hash: str,
                  seed: int, interval_events: int | None = None,
                  min_interval_s: float | None = None,
                  resume_from: RunCheckpoint | None = None) -> None:
        if interval_events is not None:
            if interval_events < 1:
                raise ValueError(
                    f"interval_events must be >= 1, got {interval_events}")
            self.interval_events = interval_events
        if min_interval_s is not None:
            if min_interval_s < 0:
                raise ValueError(
                    f"min_interval_s must be >= 0, got {min_interval_s}")
            self.min_interval_s = min_interval_s
        self._path = Path(path)
        self._run_id = run_id
        self._config_hash = config_hash
        self._seed = seed
        self._written = 0
        self._wall_credit = 0.0
        if resume_from is not None:
            if (resume_from.run_id != run_id
                    or resume_from.config_hash != config_hash
                    or resume_from.seed != seed):
                raise CheckpointError(
                    f"checkpoint {path} belongs to a different run "
                    f"(run {resume_from.run_id}, config {resume_from.config_hash})"
                )
            self._verify_events = resume_from.events
            self._verify_time = resume_from.virtual_time
            # no writes while replaying the already-checkpointed prefix:
            # the on-disk cursor stays the high-water mark until verified
            self._wall_credit = resume_from.wall_seconds
        else:
            self._verify_events = -1

    def enable(self) -> None:
        if self._path is None:
            raise ValueError("configure(path, ...) before enable()")
        now = time.monotonic()
        self._t0 = now
        self._last_wall = now
        start = self._verify_events if self._verify_events >= 0 else 0
        self._next_events = start + self.interval_events
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @property
    def written(self) -> int:
        """Checkpoints written since :meth:`configure` (test observability)."""
        return self._written

    @property
    def verifying(self) -> bool:
        """A resume cursor is still awaiting replay verification."""
        return self._verify_events >= 0

    @property
    def next_due(self) -> int:
        """The next event count at which :meth:`tick` does anything."""
        return self._verify_events if self._verify_events >= 0 else self._next_events

    # -- kernel side ---------------------------------------------------------
    def bind(self, stats_fn, rng_state_fn=None) -> None:
        """Attach the providers for stats / rng snapshots (per run)."""
        self._stats_fn = stats_fn
        self._rng_state_fn = rng_state_fn

    def tick(self, events: int, t: float) -> None:
        """Verify the resume cursor once reached; maybe write a checkpoint."""
        if events == self._verify_events:
            expect = self._verify_time
            self._verify_events = -1
            if t != expect:
                raise CheckpointMismatchError(
                    f"replay diverged from checkpoint for run {self._run_id}: "
                    f"event {events} at virtual time {t!r}, "
                    f"checkpoint recorded {expect!r}"
                )
        if events < self._next_events:
            return
        now = time.monotonic()
        self._next_events = events + self.interval_events
        if now - self._last_wall < self.min_interval_s:
            return
        self._last_wall = now
        try:
            self.write(events, t)
        except OSError as exc:
            # a checkpoint is an optimization, not a correctness input:
            # losing the disk (ENOSPC, EIO) must not kill a healthy run
            from ..obs.logging import get_logger

            get_logger("sim.checkpoint").warning(
                "checkpoint write failed (%s); "
                "disabling checkpoints for this run", exc,
            )
            self.enabled = False

    def write(self, events: int, t: float) -> RunCheckpoint:
        """Write the current cursor atomically; returns the checkpoint."""
        ckpt = RunCheckpoint(
            run_id=self._run_id,
            config_hash=self._config_hash,
            seed=self._seed,
            events=events,
            virtual_time=t,
            # wall credit carries across attempts: a twice-preempted run
            # still reports the total wall it has genuinely consumed
            wall_seconds=self._wall_credit + (time.monotonic() - self._t0),
            rng_state=self._rng_state_fn() if self._rng_state_fn is not None else None,
            stats=self._stats_fn() if self._stats_fn is not None else None,
        )
        with atomic_write(self._path) as fh:
            json.dump(ckpt.to_json(), fh, sort_keys=True)
            fh.write("\n")
        self._written += 1
        return ckpt

    def clear(self) -> None:
        """Remove the checkpoint file (the run reached a terminal record)."""
        if self._path is not None:
            self._path.unlink(missing_ok=True)


#: The process-wide writer the kernel consults (once per run).
CHECKPOINT = CheckpointWriter()
