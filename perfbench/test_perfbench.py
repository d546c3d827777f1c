"""Tests of the benchmark itself, at a small size."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for path in (str(HERE), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import sloccrank._kernels  # noqa: E402
import sloccrank.coeffmatrix  # noqa: E402
import sloccrank.families  # noqa: E402
import sloccrank.states  # noqa: E402

SMALL = {
    "dense_n": 4,
    "dense_items": 3,
    "lowrank_n": 5,
    "lowrank_rounds": 2,
    "product_shapes": ((2, 3), (1, 2, 2)),
}


def small_items(workload: str, seed: int) -> list[dict]:
    items = bw.make_items(workload, seed, **SMALL)
    if workload == "rule_tables":  # the two quick tables
        items = [it for it in items if it["input"]["table"] in (4, 7)]
    if workload == "verify_all":
        items = [it for it in items if it["input"]["check"] == "det-identity"]
    return items


def outputs_of(workload: str, items: list[dict]) -> list:
    return [bw.serialise_output(workload, bw.run_item(workload, it["input"])) for it in items]


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_seed_determines_inputs(workload):
    def inputs(seed):
        return [it["input"] for it in bw.make_items(workload, seed, **SMALL)]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_traced_and_untraced_runs_agree(workload):
    items = small_items(workload, 5)
    plain = outputs_of(workload, items)
    with bench_trace.Tracer() as tracer:
        traced = outputs_of(workload, items)
    assert traced == plain
    totals = bench_trace.layer_totals(tracer.snapshot())
    assert totals["kernels.bareiss"]["calls"] > 0
    assert not tracer.missing
    check = bw.check_outputs(workload, items, [{"outputs": [plain, traced]}])
    assert check["attempted"] == 2 * len(items)
    assert check["failed"] == 0, check["details"]


def test_tracer_restores_originals():
    originals = (
        sloccrank.coeffmatrix.bareiss,
        sloccrank._kernels.bareiss,
        sloccrank.coeffmatrix.rank,
        sloccrank.families.Predicate.holds,
    )
    with bench_trace.Tracer():
        assert sloccrank.coeffmatrix.bareiss is not originals[0]
        assert sloccrank._kernels.bareiss is not originals[1]
    restored = (
        sloccrank.coeffmatrix.bareiss,
        sloccrank._kernels.bareiss,
        sloccrank.coeffmatrix.rank,
        sloccrank.families.Predicate.holds,
    )
    assert all(a is b for a, b in zip(originals, restored))


def test_self_time_excludes_traced_children():
    item = bw.make_items("dense_signatures", 1, dense_n=5, dense_items=1)[0]
    psi = sloccrank.states.parse_state(item["input"]["text"])
    with bench_trace.Tracer() as tracer:
        sloccrank.coeffmatrix.rank_signature(psi)
    totals = bench_trace.layer_totals(tracer.snapshot())
    sig = totals["coeffmatrix.rank_signature"]
    children = sum(totals[k]["span_s"] for k in ("coeffmatrix.coefficient_matrix", "coeffmatrix.rank"))
    assert sig["calls"] == 1
    assert sig["self_s"] <= sig["span_s"] - children + 1e-9
    assert totals["kernels.bareiss"]["calls"] == 15  # the splits of five qubits
    assert tracer.counters["kernels.bareiss"]["cells"] == 15 * 32


@pytest.mark.parametrize("workload", ("dense_signatures", "lowrank_signatures"))
def test_corrupted_reference_is_counted_as_failure(workload):
    items = small_items(workload, 7)
    outputs = outputs_of(workload, items)
    label, value = next(iter(items[-1]["expect"]["ranks"].items()))
    items[-1]["expect"]["ranks"][label] = value + 1
    check = bw.check_outputs(workload, items, [{"outputs": [outputs]}])
    assert check["failed"] == 1
    assert check["failed"] / check["attempted"] > 0


def test_failed_table_row_and_empty_table_fail():
    items = small_items("rule_tables", 2)
    outputs = outputs_of("rule_tables", items)
    assert bw.check_outputs("rule_tables", items, [{"outputs": [outputs]}])["failed"] == 0
    bad = [dict(o, rows=[list(r) for r in o["rows"]]) for o in outputs]
    bad[0]["rows"][0][3] = "mismatch"
    assert bw.check_outputs("rule_tables", items, [{"outputs": [bad]}])["failed"] == 1
    skipped_only = {"table": 7, "rows": [["L_a4 434", "434", "-", bw.SKIPPED_VERDICT]]}
    ok, _, validated, skipped = bw.check_item("rule_tables", items[0], skipped_only)
    assert (ok, validated, skipped) == (False, 0, 1)


def test_failed_check_fails():
    item = small_items("verify_all", 1)[0]
    output = {"name": "det-identity", "trials": 100, "seed": 1, "passed": False, "failures": ["x"]}
    assert not bw.check_item("verify_all", item, output)[0]


def test_numeric_reference_matches_exact_signature():
    for item in small_items("dense_signatures", 11):
        sig = bw.run_item("dense_signatures", item["input"])
        assert sig.label_map() == item["expect"]["ranks"]


def test_fails_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
