"""Process-wide metrics: labeled counters, gauges and histograms.

A :class:`MetricsRegistry` holds named instruments, each fanning out
into labeled series (``sim_runs_total{mode="mpi-sim-am"}``).  The
module-level :data:`METRICS` registry is **disabled by default** — every
instrument method then returns after one attribute test, so instrumented
code pays nothing in silent runs (the no-op guarantee the kernel
benchmarks hold the engine to).

Snapshots flush through pluggable sinks: :class:`InMemorySink` (tests),
:class:`JsonlSink` (one JSON object per sample line, machine-readable),
and :class:`TableSink` (human-readable text table).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..util.atomic_io import append_lines

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "InMemorySink",
    "JsonlSink",
    "TableSink",
]


def _labelkey(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Instrument:
    """Common base: one named metric fanning out into labeled series."""

    kind = "untyped"
    __slots__ = ("name", "help", "_registry", "_series")

    def __init__(self, name: str, help: str, registry: MetricsRegistry):
        self.name = name
        self.help = help
        self._registry = registry
        self._series: dict[tuple, object] = {}


class Counter(_Instrument):
    """Monotonically increasing count (events, messages, retries...)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1, **labels) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        key = _labelkey(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._series.get(_labelkey(labels), 0)


class Gauge(_Instrument):
    """Point-in-time value (queue depth, memory high-water mark...)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        self._series[_labelkey(labels)] = value

    def value(self, **labels) -> float | None:
        return self._series.get(_labelkey(labels))


class Histogram(_Instrument):
    """Distribution of observations (elapsed times, host costs...)."""

    kind = "histogram"
    __slots__ = ()

    def observe(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        key = _labelkey(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = []
        series.append(value)

    def summary(self, **labels) -> dict:
        values = sorted(self._series.get(_labelkey(labels), []))
        if not values:
            return {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": None, "p50": None}
        total = sum(values)
        return {
            "count": len(values),
            "sum": total,
            "min": values[0],
            "max": values[-1],
            "mean": total / len(values),
            "p50": values[len(values) // 2],
        }


class MetricsRegistry:
    """Named instruments plus the enable switch instrumented code checks."""

    def __init__(self):
        self.enabled = False
        self._instruments: dict[str, _Instrument] = {}

    # -- instrument factories (get-or-create, type-checked) ------------------
    def _get(self, cls, name: str, help: str):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name, help, self)
        elif type(inst) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind}, not {cls.kind}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    # -- lifecycle ----------------------------------------------------------
    def enable(self, reset: bool = True) -> None:
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._instruments.clear()

    # -- snapshots and sinks --------------------------------------------------
    def samples(self, include_raw: bool = False) -> list[dict]:
        """Flatten every labeled series into sample dicts.

        ``include_raw=True`` adds the raw observation list to histogram
        samples (key ``"values"``) so snapshots from different processes
        can be merged exactly instead of approximated from summaries
        (see :mod:`repro.obs.merge`).
        """
        out = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            for key in sorted(inst._series):
                labels = dict(key)
                sample = {"name": name, "type": inst.kind, "labels": labels}
                if inst.kind == "histogram":
                    sample.update(inst.summary(**labels))
                    if include_raw:
                        sample["values"] = list(inst._series[key])
                else:
                    sample["value"] = inst._series[key]
                out.append(sample)
        return out

    def restore(self, samples: list[dict]) -> None:
        """Merge *samples* (from :meth:`samples`) into this registry.

        Counters add, gauges take the incoming value, histograms extend
        with the sample's raw ``values`` (falling back to a single
        synthetic observation per summary when raw values are absent).
        Used by the capsule merge layer to rebuild one campaign-level
        registry out of per-worker snapshots; requires ``enabled``.
        """
        for sample in samples:
            labels = sample.get("labels", {})
            kind = sample.get("type")
            name = sample["name"]
            if kind == "counter":
                self.counter(name).inc(sample["value"], **labels)
            elif kind == "gauge":
                self.gauge(name).set(sample["value"], **labels)
            elif kind == "histogram":
                hist = self.histogram(name)
                values = sample.get("values")
                if values is None:
                    values = [sample["mean"]] * int(sample.get("count", 0))
                for v in values:
                    hist.observe(v, **labels)
            else:
                raise ValueError(f"sample {name!r} has unknown type {kind!r}")

    def flush(self, sink) -> None:
        """Write a snapshot of every series through *sink*."""
        sink.write(self.samples())

    # -- convenience: one simulation run's worth of metrics -------------------
    def record_run(self, mode: str, stats) -> None:
        """Record a finished simulation run from its ``SimStats``.

        *stats* is duck-typed (anything with ``to_dict()`` in the
        ``SimStats`` shape) so the registry stays import-free of the
        kernel.  Fault/resilience counters flow through here too — this
        is how they reach the metrics sinks.
        """
        if not self.enabled:
            return
        d = stats.to_dict()
        self.counter("sim_runs_total", "simulation runs completed").inc(mode=mode)
        self.counter("sim_events_total", "kernel events executed").inc(
            d["total_events"], mode=mode
        )
        self.counter("sim_messages_total", "point-to-point messages").inc(
            d["total_messages"], mode=mode
        )
        self.counter("sim_bytes_total", "point-to-point payload bytes").inc(
            d["total_bytes"], mode=mode
        )
        self.histogram("sim_elapsed_seconds", "predicted target elapsed time").observe(
            d["elapsed"], mode=mode
        )
        self.histogram("sim_host_cost_seconds", "modelled host CPU cost").observe(
            d["total_host_cost"], mode=mode
        )
        for counter, help_ in (
            ("total_retries", "fault-layer retransmission attempts"),
            ("total_timeouts", "operations completed with TimedOut"),
            ("total_messages_lost", "messages dropped by the fault plan"),
            ("total_duplicates", "spurious duplicates delivered"),
            ("total_send_failures", "sends abandoned after the retry budget"),
        ):
            if d[counter]:
                self.counter(f"sim_{counter}", help_).inc(d[counter], mode=mode)
        if d["crashed_ranks"]:
            self.counter("sim_crashed_ranks_total", "ranks crashed by the fault plan").inc(
                len(d["crashed_ranks"]), mode=mode
            )


#: The process-wide registry all instrumented layers report to.
METRICS = MetricsRegistry()


# -- sinks --------------------------------------------------------------------


class InMemorySink:
    """Collects snapshots in a list (tests, embedding)."""

    def __init__(self):
        self.snapshots: list[list[dict]] = []

    def write(self, samples: list[dict]) -> None:
        self.snapshots.append(samples)


class JsonlSink:
    """Appends one JSON object per sample to a file.

    Each flush is one ``O_APPEND`` write
    (:func:`repro.util.atomic_io.append_lines`): each append costs
    O(samples) regardless of file size, and concurrent writers sharing
    the path interleave whole flushes instead of losing each other's
    records.  A crash mid-flush can tear at most the final line; readers
    skip it and the next flush truncates it first, so it never glues
    onto a later record.  Flushes are not fsynced, the right trade for a
    high-frequency telemetry stream.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def write(self, samples: list[dict]) -> None:
        payload = "".join(
            json.dumps(sample, separators=(",", ":")) + "\n" for sample in samples
        )
        append_lines(self.path, payload.encode(), fsync=False)


class TableSink:
    """Renders samples as a human-readable table (stdout by default)."""

    def __init__(self, stream=None):
        self.stream = stream

    def write(self, samples: list[dict]) -> None:
        import sys

        print(self.render(samples), file=self.stream or sys.stdout)

    @staticmethod
    def render(samples: list[dict]) -> str:
        rows = []
        for s in samples:
            labels = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items()))
            if s["type"] == "histogram":
                value = f"count={s['count']} mean={s['mean']:.6g} max={s['max']:.6g}"
            else:
                value = f"{s['value']:.6g}" if isinstance(s["value"], float) else str(s["value"])
            rows.append((s["name"], s["type"], labels, value))
        headers = ("metric", "type", "labels", "value")
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(4)
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines)
