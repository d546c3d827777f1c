"""Workload inputs, the calls each item makes, and the references they are checked against.

Every workload is a fixed list of items made from the seed.  An item has
an ``input`` (the only thing the library sees, sent to the worker
process) and an ``expect`` (kept by the harness).  ``run_item`` is the
call the worker times; ``check_item`` compares one output with the
reference by a route that does not share the exact elimination path.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

WORKLOADS = ("rule_tables", "dense_signatures", "lowrank_signatures", "verify_all")

RULE_TABLE_IDS = (4, 5, 6, 7, 8)
RULE_TABLE_SAMPLES = 1  # the coverage scans still draw 500 tuples per table
DENSE_N = 8
DENSE_ITEMS = 9
LOWRANK_N = 8
LOWRANK_ROUNDS = 5  # each round is one GHZ, one W and one product state
PRODUCT_SHAPES = ((2, 3, 3), (2, 2, 4))  # factor sizes, summing to LOWRANK_N
AMP_SPAN = 3
CHECK_NAMES = (
    "rank-invariance",
    "matrix-transform",
    "kron-rank",
    "det-identity",
    "dxy-covariance",
    "semi-invariants",
)
CHECK_SEEDS = 6  # the checks draw their problem sizes from the seed; average over six
PASSING_VERDICTS = ("match",)
SKIPPED_VERDICT = "skipped: no template"
SVD_RTOL = 1e-9


# --- inputs ---------------------------------------------------------------


def _gaussian(rng: random.Random, nonzero: bool = False) -> tuple[int, int]:
    while True:
        z = (rng.randint(-AMP_SPAN, AMP_SPAN), rng.randint(-AMP_SPAN, AMP_SPAN))
        if z != (0, 0) or not nonzero:
            return z


def amp_text(z: tuple[int, int]) -> str:
    """State-file text of the Gaussian integer a + b*i."""
    a, b = z
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*i"
    return f"{a}{b:+d}*i"


def state_text(n: int, amps) -> str:
    body = ", ".join(f'"{amp_text(z)}"' for z in amps)
    return f"{{n: {n}, amps: [{body}]}}"


def canonical_splits(n: int) -> list[tuple[int, ...]]:
    """One side of every split: the smaller one, ties broken by holding qubit 1."""
    out = []
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            if 2 * size == n and 1 not in subset:
                continue
            out.append(subset)
    return out


def split_label(subset) -> str:
    return "".join(chr(ord("A") + b - 1) for b in subset)


def numeric_signature(n: int, amps) -> dict[str, int]:
    """Ranks of every split by SVD of the reshaped amplitude tensor."""
    tensor = np.array([complex(a, b) for a, b in amps]).reshape((2,) * n)
    out = {}
    for subset in canonical_splits(n):
        rows = [b - 1 for b in subset]
        cols = [q for q in range(n) if q not in rows]
        mat = np.transpose(tensor, rows + cols).reshape(1 << len(rows), -1)
        svals = np.linalg.svd(mat, compute_uv=False)
        out[split_label(subset)] = int(np.sum(svals > SVD_RTOL * svals[0]))
    return out


def _product_amps(n: int, factors) -> list[tuple[int, int]]:
    """Amplitudes of the tensor product of (amps, positions) factors."""
    out = []
    for w in range(1 << n):
        re, im = 1, 0
        for amps, pos in factors:
            u = 0
            for p in pos:
                u = (u << 1) | ((w >> (n - p)) & 1)
            a, b = amps[u]
            re, im = re * a - im * b, re * b + im * a
        out.append((re, im))
    return out


def _dense_items(rng: random.Random, n: int, count: int) -> list[dict]:
    items = []
    for _ in range(count):
        while True:
            amps = [_gaussian(rng) for _ in range(1 << n)]
            if any(amps):
                break
        items.append(
            {
                "input": {"text": state_text(n, amps)},
                "expect": {"ranks": numeric_signature(n, amps)},
            }
        )
    return items


def _product_reference(n: int, factors) -> dict[str, int]:
    """Split ranks of a product state as products of its factors' exact ranks."""
    from sloccrank import ExactScalar, recursive_rank, state

    placed = [
        (state(len(pos), [ExactScalar(a, b) for a, b in amps]), pos) for amps, pos in factors
    ]
    return {split_label(s): recursive_rank(placed, s) for s in canonical_splits(n)}


def _lowrank_items(rng: random.Random, n: int, rounds: int, shapes) -> list[dict]:
    all_two = {split_label(s): 2 for s in canonical_splits(n)}
    items = []
    for r in range(rounds):
        ghz = [(0, 0)] * (1 << n)
        ghz[0] = _gaussian(rng, nonzero=True)
        ghz[-1] = _gaussian(rng, nonzero=True)
        w = [(0, 0)] * (1 << n)
        for k in range(n):
            w[1 << k] = _gaussian(rng, nonzero=True)
        shape = shapes[r % len(shapes)]
        order = list(range(1, n + 1))
        rng.shuffle(order)
        factors = []
        at = 0
        for size in shape:
            amps = [_gaussian(rng) for _ in range(1 << size)]
            while not any(amps):
                amps = [_gaussian(rng) for _ in range(1 << size)]
            factors.append((amps, tuple(sorted(order[at : at + size]))))
            at += size
        items.append({"input": {"text": state_text(n, ghz)}, "expect": {"ranks": all_two}})
        items.append({"input": {"text": state_text(n, w)}, "expect": {"ranks": all_two}})
        items.append(
            {
                "input": {"text": state_text(n, _product_amps(n, factors))},
                "expect": {"ranks": _product_reference(n, factors)},
            }
        )
    return items


def make_items(
    workload: str,
    seed: int,
    dense_n: int = DENSE_N,
    dense_items: int = DENSE_ITEMS,
    lowrank_n: int = LOWRANK_N,
    lowrank_rounds: int = LOWRANK_ROUNDS,
    product_shapes=PRODUCT_SHAPES,
) -> list[dict]:
    """The workload's item list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rule_tables":
        return [
            {
                "input": {"table": t, "samples": RULE_TABLE_SAMPLES, "seed": rng.randrange(1 << 31)},
                "expect": {},
            }
            for t in RULE_TABLE_IDS
        ]
    if workload == "dense_signatures":
        return _dense_items(rng, dense_n, dense_items)
    if workload == "lowrank_signatures":
        return _lowrank_items(rng, lowrank_n, lowrank_rounds, product_shapes)
    if workload == "verify_all":
        return [
            {"input": {"check": name, "seed": rng.randrange(1 << 31)}, "expect": {}}
            for _ in range(CHECK_SEEDS)
            for name in CHECK_NAMES
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# --- the timed call (worker side) -------------------------------------------


def run_item(workload: str, item_input: dict):
    """One library call; returns its raw result.

    Functions are looked up on their modules at call time, so a traced run
    sees the wrapped versions.
    """
    import sloccrank.checks
    import sloccrank.coeffmatrix
    import sloccrank.states
    import sloccrank.tables

    if workload == "rule_tables":
        return sloccrank.tables.run_table(
            item_input["table"], item_input["samples"], item_input["seed"]
        )
    if workload in ("dense_signatures", "lowrank_signatures"):
        psi = sloccrank.states.parse_state(item_input["text"])
        return sloccrank.coeffmatrix.rank_signature(psi)
    if workload == "verify_all":
        return sloccrank.checks.run_check(item_input["check"], seed=item_input["seed"])
    raise ValueError(f"unknown workload {workload!r}")


def serialise_output(workload: str, result):
    """A JSON form of a raw result that keeps everything the check reads."""
    if workload == "rule_tables":
        return {
            "table": result.table_id,
            "rows": [[r.name, r.expected, r.computed, r.verdict] for r in result.rows],
        }
    if workload in ("dense_signatures", "lowrank_signatures"):
        return {"ranks": result.label_map()}
    if workload == "verify_all":
        return {
            "name": result.name,
            "trials": result.trials,
            "seed": result.seed,
            "passed": bool(result.passed),
            "failures": list(result.failures),
        }
    raise ValueError(f"unknown workload {workload!r}")


# --- checks (harness side) ------------------------------------------------


def check_item(workload: str, item: dict, output: dict) -> tuple[bool, str, int, int]:
    """Compare one output with the item's reference.

    Returns ``(ok, detail, validated_rows, skipped_rows)``; the row counts
    only mean something for ``rule_tables``.
    """
    expect = item["expect"]
    if workload in ("dense_signatures", "lowrank_signatures"):
        got = output["ranks"]
        want = expect["ranks"]
        if got == want:
            return True, "", 0, 0
        wrong = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return False, f"ranks differ at {wrong[:5]}", 0, 0
    if workload == "rule_tables":
        validated = skipped = 0
        for name, _expected, computed, verdict in output["rows"]:
            if verdict in PASSING_VERDICTS:
                validated += 1
            elif verdict == SKIPPED_VERDICT:
                skipped += 1
            else:
                return False, f"table {output['table']} row {name}: {verdict} ({computed})", validated, skipped
        if validated == 0:
            return False, f"table {output['table']} validated no row", 0, skipped
        return True, "", validated, skipped
    if workload == "verify_all":
        if output["passed"] and not output["failures"] and output["trials"] > 0:
            return True, "", 0, 0
        return False, f"check {output['name']} failed: {output['failures'][:3]}", 0, 0
    raise ValueError(f"unknown workload {workload!r}")


def check_outputs(workload: str, items: list[dict], phases: list[dict]) -> dict:
    """Every execution's output against its item's reference."""
    attempted = failed = validated = skipped = 0
    details = []
    first = None
    for phase in phases:
        for pass_outputs in phase["outputs"]:
            if first is None:
                first = pass_outputs
            for item, output, reference in zip(items, pass_outputs, first):
                attempted += 1
                ok, detail, v, s = check_item(workload, item, output)
                if ok and output != reference:
                    ok, detail = False, "output differs between passes"
                if not ok:
                    failed += 1
                    details.append(detail)
                validated += v
                skipped += s
    return {
        "attempted": attempted,
        "failed": failed,
        "validated_rows": validated,
        "skipped_rows": skipped,
        "details": details[:5],
    }
