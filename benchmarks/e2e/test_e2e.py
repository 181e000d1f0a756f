"""Smoke test of the end-to-end benchmark.

Not part of the tier-1 suite; run it by path (about a minute)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from repro.obs.perfetto import validate_perfetto

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    docs = {w: json.loads((out / f"{w}-s0.json").read_text())
            for w in WORKLOADS if (out / f"{w}-s0.json").exists()}
    return proc, out, docs


def test_smoke_run_passes_every_check(smoke):
    proc, _, docs = smoke
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert set(docs) == set(WORKLOADS) == set(workloads.WORKLOADS)
    for doc in docs.values():
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0


def test_metric_names_match_benchmark_json(smoke):
    _, _, docs = smoke
    for name, doc in docs.items():
        for metric in BENCHMARK["end_to_end"]:
            assert doc["metrics"][metric["name"]]["unit"] == metric["unit"], name
            assert doc["metrics"][metric["name"]]["value"] > 0, (name, metric["name"])
        assert set(doc["layers"]) == {m["name"] for m in BENCHMARK["per_layer"]}, name


def test_self_times_telescope_to_the_traced_wall(smoke):
    _, out, docs = smoke
    spans: dict[str, list] = {}
    with open(out / "trace.jsonl") as fh:
        for line in fh:
            span = json.loads(line)
            spans.setdefault(span["workload"], []).append(span)
    for name, doc in docs.items():
        tel = doc["telescope"]
        assert tel["orphans"] == 0, name
        assert tel["telescope_error"] < 0.05, name
        again = tracing.layer_metrics(spans[name], {k: 0 for k in tracing.KERNEL_COUNTERS})
        parts = sum(v for k, v in again["layers"].items() if k.endswith(".self_ms"))
        assert parts == pytest.approx(again["wall_ms"], rel=0.05), name
        assert again["wall_ms"] == pytest.approx(tel["wall_ms"]), name


def test_trace_exports_valid_perfetto(smoke):
    _, out, _ = smoke
    validate_perfetto(json.loads((out / "trace.perfetto.json").read_text()))


def test_invalid_request_counts_as_failed_without_stopping_the_run(tmp_path, monkeypatch):
    real = workloads.serve_request

    def one_invalid(seed, index):
        doc, run_id = real(seed, index)
        if index == 3:
            doc = {**doc, "run": {**doc["run"], "nprocs": 0}}
        return doc, run_id

    monkeypatch.setattr(workloads, "serve_request", one_invalid)
    ctx = workloads.Context(0, 0.0, workloads.SMOKE, tmp_path)
    metrics = workloads.serve_cold(ctx)
    assert ctx.attempted == workloads.SMOKE.cold_min_requests
    assert ctx.failed == 1
    assert "cold request 3: 400" in ctx.failures[0]
    assert metrics["p50_ms"][2] == workloads.SMOKE.cold_min_requests
