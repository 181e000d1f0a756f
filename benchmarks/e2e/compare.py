#!/usr/bin/env python3
"""Judge a change against its parent from two sets of benchmark results.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py --summary DIR [DIR ...]

Each directory holds the result files ``run.py --out DIR`` writes, one
per workload and seed.  Runs of the two sides pair up by workload and
seed, so both see the same inputs.  Make them by alternating which side
runs first (see README.md).

For every workload and every end-to-end metric of ``BENCHMARK.json``
one row says:

* ``improved`` -- at least 10 pairs, the change wins at least 9 in 10
  of them (ties count for neither side) and its median beats the
  parent's by more than the parent's interquartile spread; or every
  change run beats every parent run;
* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` -- fewer than 10 pairs, or the parent's own spread is
  wider than the bound;
* ``unchanged`` -- otherwise.

Outputs must match exactly: result digests, ``am_error_max_pct`` and
zero failed operations on both sides.  Exit status is 1 when a row is
``worse`` or the outputs differ, else 0.

``--summary`` prints the median and quartiles of every metric per
workload, plus the seed-0 digests, as the JSON ``baseline.json`` keeps.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str | Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "workload" in doc and "metrics" in doc:
            runs[(doc["workload"], doc["seed"])] = doc
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> tuple[str, str]:
    """Classify one metric from (parent, change) value pairs."""
    sign = 1 if better == "higher" else -1
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = sign * (c_med - p_med)  # > 0: the change is better
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    spread = p_q3 - p_q1
    detail = (f"parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  change {c_med:.4g}  "
              f"{gap / p_med:+.1%}  wins {wins}/{len(pairs)}")
    if len(pairs) < MIN_PAIRS:
        return "unresolved", f"{detail}  (only {len(pairs)} pairs)"
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if separated or (wins >= WIN_SHARE * len(pairs) and gap > spread):
        return "improved", detail
    if -gap > bound * p_med:
        return "worse", detail
    if spread > bound * p_med:
        return "unresolved", f"{detail}  (parent spread {spread / p_med:.1%} > bound)"
    return "unchanged", detail


def exact_mismatches(parent: dict, change: dict) -> list[str]:
    """Why two runs on one seed disagree on what must be identical."""
    out = []
    for side, doc in (("parent", parent), ("change", change)):
        if doc["failed"]:
            out.append(f"{side} failed {doc['failed']}/{doc['attempted']} operations")
    if parent["digests"] != change["digests"]:
        out.append("result digests differ")
    am_error = [doc["metrics"].get("am_error_max_pct", {}).get("value")
                for doc in (parent, change)]
    if am_error[0] != am_error[1]:
        out.append("am_error_max_pct differs")
    return out


def compare(parent_dir: str, change_dir: str) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_dir), load(change_dir)
    bad = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        seeds = sorted(s for (w, s) in parent if w == workload and (w, s) in change)
        print(f"== {workload}: {len(seeds)} pairs")
        if not seeds:
            continue
        firsts = sum(parent[workload, s]["started"] < change[workload, s]["started"]
                     for s in seeds)
        if firsts in (0, len(seeds)) and len(seeds) > 1:
            print("  warning: the pairs did not alternate which side ran first")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            pairs = [(parent[workload, s]["metrics"][name]["value"],
                      change[workload, s]["metrics"][name]["value"]) for s in seeds]
            label, detail = verdict(pairs, metric["better"], metric["bound"])
            bad |= label == "worse"
            print(f"  {name:<14}{label:<12}{detail}")
        problems = {s: exact_mismatches(parent[workload, s], change[workload, s])
                    for s in seeds}
        problems = {s: p for s, p in problems.items() if p}
        bad |= bool(problems)
        if problems:
            for seed, notes in problems.items():
                print(f"  outputs     DIFFER  seed {seed}: {'; '.join(notes)}")
        else:
            print(f"  outputs     identical on all {len(seeds)} seeds")
    return 1 if bad else 0


def summary(directories: list[str]) -> dict:
    runs = [doc for directory in directories for doc in load(directory).values()]
    out: dict = {"workloads": {}, "digests": {}}
    for doc in runs:
        out["host"] = doc["host"]
        if doc["seed"] == 0 and not doc["smoke"]:
            out["digests"][doc["workload"]] = doc["digests"]
    for workload in sorted({doc["workload"] for doc in runs}):
        docs = [doc for doc in runs if doc["workload"] == workload]
        table = out["workloads"][workload] = {"runs": len(docs)}
        for name, metric in docs[0]["metrics"].items():
            values = [d["metrics"][name]["value"] for d in docs]
            q1, median, q3 = quartiles(values)
            table[name] = {"median": median, "q1": q1, "q3": q3, "unit": metric["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument("--summary", action="store_true",
                        help="print medians and quartiles of the runs in DIR...")
    args = parser.parse_args(argv)
    if args.summary:
        print(json.dumps(summary(args.dirs), indent=1))
        return 0
    if len(args.dirs) != 2:
        parser.error("expected PARENT_DIR CHANGE_DIR")
    return compare(*args.dirs)


if __name__ == "__main__":
    sys.exit(main())
