#!/usr/bin/env python3
"""Run ``perfbench/run.py`` in pairs on two checkouts and write ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed N --pairs K \\
        --workloads dense_signatures lowrank_signatures --output BENCH_13.json \\
        --claim "wall_s on lowrank_signatures improves"

Each pair runs one workload once in each checkout, one run at a time; the
parent goes first on even pair indices and the change on odd ones.  Before
the first pair every workload runs once per checkout for ``WARMUP``
seconds, unrecorded, so each checkout has its bytecode; every measured
run on either side lasts ``SECONDS``.  Each run's final stdout line is
perfbench's JSON result.  For every workload and end-to-end
metric the file holds, per side, the median and quartiles (inclusive
method) of the runs, the raw runs, the failed executions summed over the
runs and whether every run was correct, and ``change_better_pairs``: the
pairs where the change read better, in the direction ``BENCHMARK.json``
gives for the metric.  ``--claim``, the gain the change claims in words
or "none", is required, so that no file is written without one.  Both
sides must run the same benchmark: when a file under ``perfbench/`` (its
``__pycache__`` aside) or ``BENCHMARK.json`` differs between the two
checkouts, the tool exits 2 before any run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 20  # perfbench run length of every measured run
WARMUP = 2  # seconds of each checkout's unrecorded first run per workload
BENCH_CODE = ("perfbench", "BENCHMARK.json")  # what both sides must share byte for byte


def bench_code(checkout: Path) -> dict[str, bytes]:
    """The benchmark's files in a checkout by relative path, bytecode caches aside."""
    files = {}
    for name in BENCH_CODE:
        path = checkout / name
        found = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in found:
            if f.is_file() and "__pycache__" not in f.parts:
                files[f.relative_to(checkout).as_posix()] = f.read_bytes()
    return files


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's JSON result of one run; exit 1 (a mismatch) still has one."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def directions(checkout: Path) -> dict[str, str]:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def collect(results: dict, workload: str, seed: int, better: dict[str, str]) -> dict:
    """The file's entries for one workload from its paired results."""
    out = {}
    pairs = len(results["parent"])
    for name in results["parent"][0]["metrics"]:
        runs = {side: [round(r["metrics"][name]["value"], 6) for r in results[side]] for side in SIDES}
        sign = -1 if better.get(name, "lower") == "lower" else 1
        out[f"{workload}/{name}@seed{seed}"] = {
            "seed": seed,
            "pairs": pairs,
            "unit": results["parent"][0]["metrics"][name]["unit"],
            **{side: summary(runs[side]) for side in SIDES},
            "change_better_pairs": sum(
                sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"])
            ),
            "runs": runs,
            "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
            "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--claim", required=True, help='the gain the change claims, in words, or "none"')
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    code = {side: bench_code(checkouts[side]) for side in SIDES}
    differ = sorted(f for f in code["parent"].keys() | code["change"].keys()
                    if code["parent"].get(f) != code["change"].get(f))
    if differ:
        parser.error(f"the benchmark differs between --parent and --change: {', '.join(differ)}")
    for side in SIDES:
        for workload in args.workloads:
            run_once(checkouts[side], workload, args.seed, WARMUP)
    better = directions(checkouts["change"])
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {SECONDS}",
        "host": (
            f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {metadata.version('numpy')};"
            " times calibrated by perfbench to its reference host"
        ),
        "statistic": (
            "median and quartiles (inclusive method) over the runs of each side;"
            " change_better_pairs counts pairs where the change read better"
        ),
        "claim": args.claim,
        "pair_order": (
            f"{args.pairs} pairs per workload, alternating which side runs first (parent first on"
            " even pair indices); workloads one after another, one run at a time; each checkout ran"
            f" every workload once for {WARMUP} s before the first measured run"
        ),
        "runs": {f"seed {args.seed}": "the change against the parent commit, each from its own copy of the committed files"},
    }
    for workload in args.workloads:
        results = {side: [] for side in SIDES}
        for k in range(args.pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                results[side].append(run_once(checkouts[side], workload, args.seed, SECONDS))
        doc.update(collect(results, workload, args.seed, better))
        args.output.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{workload}: {args.pairs} pairs written to {args.output}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
