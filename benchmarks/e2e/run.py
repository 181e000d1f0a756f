#!/usr/bin/env python3
"""End-to-end benchmark of the simulator on the paths its users run.

One workload, as the benchmark driver calls it (last stdout line is a
JSON result; ``--trace 1`` reports per-layer metrics instead of the
end-to-end ones)::

    python3 benchmarks/e2e/run.py --workload serve_cold --seed 3 --seconds 10 --trace 0

Every workload, untraced and then traced, with tables of every metric,
the correctness gates and a per-layer breakdown of the traced wall
time; writes one result file per workload plus ``trace.jsonl`` and
``trace.perfetto.json`` to DIR::

    python3 benchmarks/e2e/run.py --seed 0 --out DIR [--smoke]

The program is imported from the repository's ``src/``; no install is
needed.  Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"

DEFAULT_SECONDS = 10.0

#: acceptance limits on a traced run's breakdown
TELESCOPE_TOLERANCE = 0.05
OTHER_MAX_SHARE = 0.05


def host() -> dict:
    """The machine a result was measured on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "system": platform.system()}


def run_workload(name: str, seed: int, seconds: float, sizes, traced: bool) -> dict:
    """Run one workload once; returns its metrics, checks and spans."""
    workdir = HERE / "_work" / f"{os.getpid()}-{name}-{'traced' if traced else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rec = tracing.Recorder() if traced else None
    ctx = workloads.Context(seed, seconds, sizes, workdir, rec)
    installed = tracing.Installed(rec) if traced else None
    try:
        metrics = workloads.WORKLOADS[name](ctx)
        out = {
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in metrics.items()},
            "attempted": ctx.attempted, "failed": ctx.failed,
            "failures": ctx.failures, "gates": ctx.gates, "digests": ctx.digests,
        }
        if traced:
            spans = rec.spans()
            kernel = ctx.kernel_counters()
            for dump in sorted(workdir.glob("spans-*.json")):
                doc = json.loads(dump.read_text())
                spans.extend(doc["spans"])
                for key, value in doc["kernel"].items():
                    kernel[key] += value
            out.update(spans=spans, kernel=kernel, late_ms=ctx.late_ms)
        return out
    finally:
        if installed is not None:
            installed.remove()
        shutil.rmtree(workdir, ignore_errors=True)


def layer_report(plain: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced run, against its untraced twin."""
    analysis = tracing.layer_metrics(traced["spans"], traced["kernel"])
    layers = analysis.pop("layers")
    p50 = plain["metrics"]["p50_ms"]["value"]
    layers["trace.overhead_pct"] = (traced["metrics"]["p50_ms"]["value"] / p50 - 1) * 100
    layers["trace.wall_ms"] = analysis["wall_ms"]
    late = traced["late_ms"]
    layers["loadgen.late_p99_ms"] = tracing.percentile(late, 99) if late else 0.0
    return {"layers": layers, "telescope": analysis}


def single(args, benchmark: dict) -> int:
    # Every process of the run, servers and campaigns included (they
    # inherit the affinity), shares one CPU.  On a 2-vCPU machine with
    # busy neighbours, a client and server on separate CPUs that idle
    # between requests measured 20-40% apart from one run to the next;
    # on one shared CPU they agree within a few percent.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = args.seconds if args.seconds is not None else (
        0.0 if args.smoke else DEFAULT_SECONDS)
    started = time.time()
    plain = run_workload(args.workload, args.seed, seconds, sizes, traced=False)
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "started": started, "host": host(),
        **{k: plain[k] for k in ("metrics", "attempted", "failed", "failures",
                                 "gates", "digests")},
    }
    want = json.loads(BASELINE.read_text())["digests"].get(args.workload)
    if args.seed == 0 and not args.smoke and want is not None:
        ok = want == plain["digests"]
        doc["gates"].append({"gate": "seed-0 result digests match baseline.json",
                             "ok": ok, "detail": "" if ok else json.dumps(plain["digests"])})
        doc["attempted"] += 1
        doc["failed"] += not ok
    spans = None
    if args.trace:
        traced = run_workload(args.workload, args.seed, seconds, sizes, traced=True)
        doc["attempted"] += traced["attempted"]
        doc["failed"] += traced["failed"]
        doc["failures"] += traced["failures"]
        doc["gates"] += [{**g, "gate": f"{g['gate']} (traced run)"} for g in traced["gates"]]
        doc.update(layer_report(plain, traced))
        spans = traced["spans"]
    doc["correct"] = doc["failed"] == 0  # a failed gate counts as a failed operation

    print_result(doc)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-s{args.seed}"
        (out / f"{stem}.json").write_text(json.dumps(doc, indent=1))
        if spans is not None:
            with open(out / f"{stem}.trace.jsonl", "w") as fh:
                for span in spans:
                    fh.write(json.dumps({"workload": args.workload, **span}) + "\n")

    if args.trace:
        listed, values = benchmark["per_layer"], doc["layers"]
    else:
        listed = benchmark["end_to_end"]
        values = {name: m["value"] for name, m in doc["metrics"].items()}
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if doc["correct"] else 1


def print_result(doc: dict) -> None:
    size = "smoke" if doc["smoke"] else f"{doc['seconds']:g} s"
    print(f"== {doc['workload']} (seed {doc['seed']}, {size}) ==")
    for name, m in doc["metrics"].items():
        print(f"  {name:<20}{m['value']:>14.4f} {m['unit']:<6}(n={m['samples']})")
    failed_ratio = doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0
    print(f"  {'failed_ratio':<20}{failed_ratio:>14.4f} {'':<6}"
          f"({doc['failed']}/{doc['attempted']})")
    for gate in doc["gates"]:
        print(f"  [{'PASS' if gate['ok'] else 'FAIL'}] {gate['gate']} {gate['detail']}")
    for note in doc["failures"]:
        print(f"  failure: {note}")
    if "layers" in doc:
        tel = doc["telescope"]
        print(tracing.format_layer_table({**tel, "layers": doc["layers"]}))
        print(f"  self times sum to {tel['accounted_ms'] / tel['wall_ms']:.2%} of the "
              f"traced wall; other {doc['layers']['other.self_ms'] / tel['wall_ms']:.2%}; "
              f"tracing overhead {doc['layers']['trace.overhead_pct']:+.1f}% on p50; "
              f"{tel['orphans']} spans outside any lane")
        for name in sorted(doc["layers"]):
            if not name.endswith(".self_ms"):
                print(f"  {name:<28}{doc['layers'][name]:>14.4f}")


def full(args, benchmark: dict) -> int:
    """Every workload in its own process, then the summary and trace files."""
    from repro.obs.perfetto import validate_perfetto

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    spans_by_workload = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", "1", "--out", str(out)]
        if args.smoke:
            cmd.append("--smoke")
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout.rsplit("\n", 2)[0], flush=True)  # all but the JSON line
        stem = out / f"{name}-s{args.seed}"
        if proc.returncode != 0 or not stem.with_suffix(".json").exists():
            print(f"  {name}: exit {proc.returncode}")
            ok = False
            continue
        doc = json.loads(stem.with_suffix(".json").read_text())
        tel = doc["telescope"]
        if tel["telescope_error"] > TELESCOPE_TOLERANCE:
            print(f"  {name}: self times are off the traced wall by "
                  f"{tel['telescope_error']:.1%} (limit {TELESCOPE_TOLERANCE:.0%})")
            ok = False
        if doc["layers"]["other.self_ms"] > OTHER_MAX_SHARE * tel["wall_ms"]:
            print(f"  {name}: 'other' exceeds {OTHER_MAX_SHARE:.0%} of the traced wall")
            ok = False
        with open(f"{stem}.trace.jsonl") as fh:
            spans_by_workload[name] = [json.loads(line) for line in fh]

    with open(out / "trace.jsonl", "w") as fh:
        for spans in spans_by_workload.values():
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    perfetto = tracing.perfetto_document(spans_by_workload)
    validate_perfetto(perfetto)
    (out / "trace.perfetto.json").write_text(json.dumps(perfetto))
    print(f"trace written to {out / 'trace.jsonl'} and {out / 'trace.perfetto.json'}")
    print("ALL CHECKS PASSED" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="run only this workload")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed the workload inputs are drawn from")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time per run (default {DEFAULT_SECONDS:g}; "
                             f"with --smoke, the minimum counts only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced and report per-layer metrics")
    parser.add_argument("--out", help="directory for result and trace files")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: 256 ranks, a 4-cell grid, 40 requests")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload is not None:
        return single(args, benchmark)
    if args.out is None:
        parser.error("--out is required when running every workload")
    return full(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
