"""Tests for the metrics registry and its sinks."""

import json

import pytest

from repro.obs import METRICS, InMemorySink, JsonlSink, MetricsRegistry, TableSink


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.enable()
    return reg


class TestInstruments:
    def test_counter_labeled_series(self, registry):
        c = registry.counter("events_total", "help text")
        c.inc(mode="de")
        c.inc(5, mode="de")
        c.inc(mode="am")
        assert c.value(mode="de") == 6
        assert c.value(mode="am") == 1
        assert c.value(mode="measured") == 0

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError, match="negative"):
            registry.counter("c").inc(-1)

    def test_gauge(self, registry):
        g = registry.gauge("depth")
        g.set(3, stage="compile")
        g.set(7, stage="compile")
        assert g.value(stage="compile") == 7
        assert g.value(stage="other") is None

    def test_histogram_summary(self, registry):
        h = registry.histogram("elapsed")
        for v in (1.0, 3.0, 2.0):
            h.observe(v, mode="de")
        s = h.summary(mode="de")
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(6.0)
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)
        assert s["p50"] == 2.0

    def test_get_or_create_is_idempotent(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_kind_clash_rejected(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")


class TestDisabled:
    def test_disabled_records_nothing(self):
        reg = MetricsRegistry()  # disabled by default
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(1.0)
        assert reg.samples() == []  # no series were created at all
        assert reg.counter("c").value() == 0
        assert reg.histogram("h").summary()["count"] == 0

    def test_global_registry_disabled_by_default(self):
        assert METRICS.enabled is False


class TestSamplesAndSinks:
    def test_samples_shape(self, registry):
        registry.counter("c").inc(2, mode="de")
        registry.histogram("h").observe(1.5)
        samples = registry.samples()
        names = [s["name"] for s in samples]
        assert names == sorted(names)
        by_name = {s["name"]: s for s in samples}
        assert by_name["c"]["value"] == 2
        assert by_name["c"]["labels"] == {"mode": "de"}
        assert by_name["h"]["count"] == 1

    def test_in_memory_sink(self, registry):
        registry.counter("c").inc()
        sink = InMemorySink()
        registry.flush(sink)
        registry.flush(sink)
        assert len(sink.snapshots) == 2
        assert sink.snapshots[0][0]["name"] == "c"

    def test_jsonl_sink(self, registry, tmp_path):
        registry.counter("runs").inc(3, mode="am")
        registry.histogram("t").observe(0.5, mode="am")
        path = tmp_path / "metrics.jsonl"
        registry.flush(JsonlSink(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {line["name"] for line in lines} == {"runs", "t"}
        for line in lines:
            assert line["labels"] == {"mode": "am"}

    def test_jsonl_sink_appends_across_flushes(self, registry, tmp_path):
        path = tmp_path / "metrics.jsonl"
        sink = JsonlSink(path)
        registry.counter("runs").inc()
        registry.flush(sink)
        registry.flush(sink)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2  # earlier flushes survive later ones

    def test_jsonl_sink_truncates_a_torn_flush(self, registry, tmp_path):
        """A crash mid-flush tears the final line; the next flush drops it
        instead of gluing its first record onto it."""
        from repro.util.atomic_io import read_jsonl

        path = tmp_path / "m.jsonl"
        sink = JsonlSink(path)
        registry.counter("runs").inc()
        registry.flush(sink)
        with open(path, "a") as fh:
            fh.write('{"name":"runs","ty')  # the torn tail of a crashed flush
        registry.flush(sink)
        registry.flush(sink)
        assert [r["name"] for r in read_jsonl(path)] == ["runs"] * 3

    def test_table_sink(self, registry, capsys):
        registry.counter("c").inc(4, mode="de")
        registry.histogram("h").observe(2.0)
        TableSink().write(registry.samples())
        out = capsys.readouterr().out
        assert "metric" in out and "c" in out and "mode=de" in out


class TestRecordRun:
    def _stats(self, **kw):
        from repro import mpi
        from repro.machine import TESTING_MACHINE
        from repro.sim import ExecMode, Simulator

        def prog(rank, size):
            yield mpi.send(dest=(rank + 1) % size, nbytes=64)
            yield mpi.recv(source=(rank - 1) % size)

        return Simulator(4, prog, TESTING_MACHINE, mode=ExecMode.DE, **kw).run().stats

    def test_record_run_from_simstats(self, registry):
        stats = self._stats()
        registry.record_run("mpi-sim-de", stats)
        assert registry.counter("sim_runs_total").value(mode="mpi-sim-de") == 1
        assert registry.counter("sim_messages_total").value(mode="mpi-sim-de") == 4
        h = registry.histogram("sim_elapsed_seconds").summary(mode="mpi-sim-de")
        assert h["count"] == 1 and h["max"] == stats.elapsed

    def test_fault_counters_reach_sink(self, registry):
        from repro import mpi
        from repro.machine import TESTING_MACHINE
        from repro.sim import ExecMode, FaultPlan, RetryPolicy, Simulator

        def prog(rank, size):
            yield mpi.send(dest=(rank + 1) % size, nbytes=64)
            yield mpi.recv(source=(rank - 1) % size)

        stats = Simulator(
            4, prog, TESTING_MACHINE, mode=ExecMode.DE,
            faults=FaultPlan(message_loss=0.5, seed=7),
            retry=RetryPolicy(max_attempts=10, backoff=1e-6),
        ).run().stats
        assert stats.total_retries > 0  # the scenario actually injected faults
        registry.record_run("mpi-sim-de", stats)
        sink = InMemorySink()
        registry.flush(sink)
        names = {s["name"] for s in sink.snapshots[0]}
        assert "sim_total_retries" in names

    def test_engine_records_when_enabled(self):
        METRICS.enable()
        try:
            self._stats()
        finally:
            METRICS.disable()
        assert METRICS.counter("sim_runs_total").value(mode="mpi-sim-de") == 1
        METRICS.reset()
