#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of sloccrank's exact rank classification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  One
process, one thread at a time: the harness makes the inputs from the seed
and the references, then starts fresh interpreters (``bench_child.py``) for
the set-up probes and for the workload itself, so set-up is cold and peak
RSS belongs to the workload.

Workloads (each an item list made from the seed; a pass runs every item once):
  rule_tables         run_table(t, 1, seed_t) for t = 4..8 (``sloccrank table``)
  dense_signatures    parse_state + exact rank_signature, 9 random n=8 states
  lowrank_signatures  the same on n=8 GHZ, W and shuffled product states, 5 of each
  verify_all          run_check(name, seed) for the six checks, six seeds each (``verify all``)

``--trace 0`` prints the end-to-end metrics; the final stdout line is the
JSON result.  Times are scaled to the reference host's speed by
calibration readings taken around and during every item (see
``bench_child.py``); raw times are printed beside them.
  setup_s       median of 7 fresh interpreters: import sloccrank once numpy is
                imported, default_registry(), table data
  wall_s        median over passes of one full pass
  item_p50_ms   median over the items of each item's median time
  item_tail_ms  printed only: the 11th slowest execution, when that lies above
                the median (more than 20 executions)
  peak_rss_mb   ru_maxrss of the workload interpreter after its untraced passes
  failed_ratio  printed only: executions whose output disagrees with the reference

``--trace 1`` spends half the time untraced and half with every boundary
function in ``bench_trace.BOUNDARIES`` wrapped, and prints per-layer calls
and self time per pass, the counters, and traced over untraced wall time.

Which end-to-end number each layer should move (see ``LAYER_MAP``) is printed
with the per-layer table.  The exit code is 0 only when every output
matched its reference.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from bench_child import CAL_REF_S  # noqa: E402

SETUP_PROBES = 7
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150

LAYER_MAP = {
    "kernels.bareiss": "item latency on dense_signatures and lowrank_signatures; wall_s on rule_tables less; verify_all barely",
    "coeffmatrix.coefficient_matrix": "wall_s on rule_tables; item latency on lowrank_signatures",
    "scalars.common_denominator": "wall_s on rule_tables; item latency on lowrank_signatures",
    "families.instantiate": "wall_s on rule_tables only",
    "families.Predicate.holds": "wall_s on rule_tables only",
    "slocc.apply_local": "wall_s on verify_all only",
    "kernels.apply_single_qubit": "wall_s on verify_all only",
    "invariants.dxy": "wall_s on verify_all only",
    "invariants.f1": "wall_s on verify_all only",
    "invariants.f2": "wall_s on verify_all only",
    "states.parse_state": "item latency on dense_signatures and lowrank_signatures",
}

# Self times in the JSON result only for functions every workload calls: a
# time that is zero on every run of some workload is not a measurement.
JSON_SELF_TIMES = (
    "scalars.common_denominator",
    "coeffmatrix.coefficient_matrix",
    "coeffmatrix.rank",
    "coeffmatrix.rank_signature",
    "kernels.bareiss",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run_child(args: list[str], stdin: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "bench_child.py"), *args, str(SRC)]
    proc = subprocess.run(
        cmd,
        input=stdin,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env=_child_env(),
        cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} failed:\n{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not _inside(result["file"], SRC):
        raise BenchError(f"sloccrank came from {result['file']}, not {SRC}")
    return result


def _inside(path: str, parent: Path) -> bool:
    try:
        Path(path).resolve().relative_to(parent.resolve())
    except ValueError:
        return False
    return True


def _scale(cal: float) -> float:
    return CAL_REF_S / cal


def measure_setup() -> tuple[float, float]:
    """Median normalised and raw set-up seconds over fresh interpreters."""
    _run_child(["setup"])  # warms the file cache
    norm, raw = [], []
    for _ in range(SETUP_PROBES):
        probe = _run_child(["setup"])
        raw.append(probe["setup_s"])
        norm.append(probe["setup_s"] * _scale(probe["cal"]))
    return statistics.median(norm), statistics.median(raw)


def timing_stats(timings: list[list]) -> dict:
    """Normalised pass and item statistics from per-item (seconds, calibration) records."""
    passes = [[raw * _scale(cal) for raw, cal in record] for record in timings]
    raw_passes = [sum(raw for raw, _ in record) for record in timings]
    per_item = [statistics.median(col) for col in zip(*passes)]
    executions = sorted(t for p in passes for t in p)
    stats = {
        "passes": len(passes),
        "items": len(per_item),
        "executions": len(executions),
        "wall_s": statistics.median(sum(p) for p in passes),
        "raw_wall_s": statistics.median(raw_passes),
        "item_p50_ms": 1e3 * statistics.median(per_item),
        "scale": statistics.median(sum(p) / r for p, r in zip(passes, raw_passes) if r > 0),
    }
    at = len(executions) - TAIL_BEYOND - 1
    if 2 * (at + 1) > len(executions):  # a tail lies above the median
        stats["item_tail_ms"] = 1e3 * executions[at]
        stats["item_tail_pct"] = 100.0 * (at + 1) / len(executions)
    return stats


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=str(ROOT), timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(trace: dict, passes: int, scale: float, overhead: float) -> tuple[dict, list[str]]:
    """Per-pass per-layer metrics and the printed table."""
    totals = bench_trace.layer_totals(trace)
    metrics = {}
    lines = [f"{'layer':<40}{'calls/pass':>12}{'self_s/pass':>14}  moves"]
    for name, row in totals.items():
        calls = row["calls"] / passes
        self_s = row["self_s"] * scale / passes
        metrics[f"{name}.calls"] = _metric(calls, "count")
        if name in JSON_SELF_TIMES:
            metrics[f"{name}.self_s"] = _metric(self_s, "s")
        lines.append(f"{name:<40}{calls:>12.1f}{self_s:>14.6f}  {LAYER_MAP.get(name, '')}")
    bar = trace["counters"].get("kernels.bareiss", {})
    den = trace["counters"].get("scalars.common_denominator", {})
    cm = trace["counters"].get("coeffmatrix.coefficient_matrix", {})
    cells = bar.get("cells", 0)
    counters = {
        "kernels.bareiss.cells": _metric(cells / passes, "count"),
        "kernels.bareiss.zero_cell_ratio": _metric(_ratio(bar.get("zero_cells", 0), cells), "ratio"),
        "kernels.bareiss.full_rank_ratio": _metric(
            _ratio(bar.get("full_rank", 0), totals["kernels.bareiss"]["calls"]), "ratio"
        ),
        "kernels.bareiss.max_input_bits": _metric(bar.get("max_input_bits", 0), "bits"),
        "coeffmatrix.coefficient_matrix.cells": _metric(cm.get("cells", 0) / passes, "count"),
        "scalars.common_denominator.unit_den_ratio": _metric(
            _ratio(den.get("unit_den", 0), totals["scalars.common_denominator"]["calls"]), "ratio"
        ),
        "trace_overhead": _metric(overhead, "ratio"),
    }
    metrics.update(counters)
    for name, m in counters.items():
        lines.append(f"{name:<40}{m['value']:>26.6g} {m['unit']}")
    lines.append("calls by caller (per pass):")
    for name, parent, n, _span, self_s in trace["spans"]:
        lines.append(f"  {name:<38} <- {parent:<34}{n / passes:>12.1f}{self_s * scale / passes:>14.6f}")
    if trace["missing"]:
        lines.append(f"not found, so not traced: {', '.join(trace['missing'])}")
    return metrics, lines


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    if not (SRC / "sloccrank" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'sloccrank'}")
    # byte-compile as an install would, so no timed import or first run compiles
    for directory in (SRC, HERE):
        compileall.compile_dir(str(directory), quiet=1)
    sys.path.insert(0, str(SRC))
    items = bench_workloads.make_items(workload, seed)
    lines = [f"# perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}"]
    setup = measure_setup() if not trace else None
    spec = {
        "workload": workload,
        "items": [item["input"] for item in items],
        "seconds": seconds,
        "trace": int(trace),
    }
    child = _run_child(["run"], stdin=json.dumps(spec))
    env = child["env"]
    lines.append(
        f"# env python={env['python']} numpy={env['numpy']} nproc={os.cpu_count()}"
        f" kernel_backend={env['kernel_backend']} commit={_commit()}"
        f" src_sha256={_src_digest()} seed={seed}"
    )
    phases = [child["untraced"]] + ([child["traced"]] if trace else [])
    check = bench_workloads.check_outputs(workload, items, phases)
    if check["attempted"] == 0:
        raise BenchError("no item was attempted")
    if workload == "rule_tables" and check["validated_rows"] == 0:
        raise BenchError("no table row was validated")
    failed_ratio = check["failed"] / check["attempted"]
    untraced = timing_stats(child["untraced"]["timings"])
    lines.append(
        f"# items={untraced['items']} passes={untraced['passes']}"
        f" executions={untraced['executions']} host speed scale={untraced['scale']:.4f}"
    )
    if workload == "rule_tables":
        lines.append(
            f"# table rows: {check['validated_rows']} validated,"
            f" {check['skipped_rows']} skipped (no template)"
        )
    for detail in check["details"]:
        lines.append(f"# MISMATCH {detail}")
    lines.append(f"failed_ratio  {failed_ratio:.6g}  ({check['failed']}/{check['attempted']})")
    if trace:
        traced = timing_stats(child["traced"]["timings"])
        overhead = traced["wall_s"] / untraced["wall_s"]
        metrics, table = layer_metrics(
            child["traced"]["trace"], traced["passes"], traced["scale"], overhead
        )
        lines.append(
            f"# traced passes={traced['passes']} traced wall_s={traced['wall_s']:.6f}"
            f" untraced wall_s={untraced['wall_s']:.6f} overhead={overhead:.4f}"
        )
        lines.extend(table)
    else:
        setup_s, setup_raw = setup
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(untraced["wall_s"], "s"),
            "item_p50_ms": _metric(untraced["item_p50_ms"], "ms"),
            "peak_rss_mb": _metric(child["peak_rss_kb"] / 1024, "MB"),
        }
        lines.append(f"setup_s       {setup_s:.6f} s   (raw {setup_raw:.6f})")
        lines.append(f"wall_s        {untraced['wall_s']:.6f} s   (raw {untraced['raw_wall_s']:.6f})")
        lines.append(f"item_p50_ms   {untraced['item_p50_ms']:.4f} ms  (over {untraced['items']} items)")
        if "item_tail_ms" in untraced:
            lines.append(
                f"item_tail_ms  {untraced['item_tail_ms']:.4f} ms  (p{untraced['item_tail_pct']:.1f}"
                f" of {untraced['executions']} executions)"
            )
        else:
            lines.append(
                f"item_tail_ms  n/a (only {untraced['executions']} executions;"
                f" a tail needs more than {2 * TAIL_BEYOND})"
            )
        lines.append(f"peak_rss_mb   {child['peak_rss_kb'] / 1024:.3f} MB")
    result = {
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
