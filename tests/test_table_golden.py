"""Rule-table reports keep their recorded bytes.

The files under ``tests/data/`` were recorded from the per-tuple table
route, before scans were drawn as grid positions and sampled rows were
ranked in their family's stack:

- ``rule_tables_golden.json``: every row of ``run_table(t, samples, seed)``
  for t = 3..8, samples 1 and 20 and seeds 0, 6 and 41;
- ``rule_table_failures_golden.json``: the rows of the failing registries
  in ``FAILURE_CASES``, where messages name the first failing tuple;
- ``table7_machine.json``: the stdout of ``sloccrank table 7 --output
  machine``.

Every later change to how the tables draw, rank or classify must
reproduce them byte for byte.
"""

import json
from pathlib import Path

import pytest

import sloccrank.tables as tables_mod
from sloccrank.cli import main
from sloccrank.families import FamilyRegistry, _builtin_data
from sloccrank.tables import run_table
from test_tables import _g_abcd_registry, _ghz_family

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "rule_tables_golden.json").read_text(encoding="utf-8"))
FAILURES = json.loads((DATA / "rule_table_failures_golden.json").read_text(encoding="utf-8"))


def _rows(report):
    return [[r.name, r.expected, r.computed, r.verdict] for r in report.rows]


def _broken_registry():
    # the equal-parameter point has triple 222, not the 444 its row claims
    registry = FamilyRegistry(include_builtin=False)
    registry.register_entry({
        "name": "broken",
        "params": ["a", "b"],
        "amps": ["1*a", "1/2*i*r2", "1/2*i*r2", "0",
                 "0", "1/2*a + 1/2*b", "1/2*a - 1/2*b", "-1/2*i*r2",
                 "0", "1/2*a - 1/2*b", "1/2*a + 1/2*b", "-1/2*i*r2",
                 "0", "0", "0", "1*a"],
        "rules": [{"triple": "444", "predicate": "a=b & a!=0"},
                  {"triple": "222", "predicate": "a=b & a!=0"},
                  {"triple": "444", "predicate": "a!=b"}],
    })
    return registry


def _big_registry():
    # coefficients beyond int64: the whole family stays on the per-tuple route
    amps = ["0"] * 16
    amps[0], amps[3], amps[12] = f"{10**20}*a", "1*b", "1*b"
    amps[15], amps[6] = f"{2**70}*a + 1", "1*a - 3*b"
    registry = FamilyRegistry(include_builtin=False)
    registry.register_entry({"name": "big", "params": ["a", "b"], "amps": amps, "rules": [
        {"triple": "444", "predicate": "a!=0 & b!=0"},
        {"triple": "222", "predicate": "a=0 & b!=0"},
        {"triple": "333", "empty": True},
    ]})
    return registry


GENERIC = {"triple": "222", "predicate": "a!=0 & b!=0"}
ONE_ZERO = {"triple": "111", "predicate": "a=0 & b!=0 | b=0 & a!=0"}
SPLIT_ROWS = next(e for e in _builtin_data() if e["name"] == "G_abcd")["split_rules"]

# name -> (family, registry factory, scan); each runs at samples 1 and 3, seeds 1 and 8
FAILURE_CASES = {
    "covered": ("ghz_ab", lambda: _ghz_family([GENERIC, ONE_ZERO]), True),
    "gap": ("ghz_ab", lambda: _ghz_family([GENERIC]), True),
    "wrong triple": ("ghz_ab", lambda: _ghz_family(
        [GENERIC, dict(ONE_ZERO, triple="222")]), True),
    "overlap": ("ghz_ab", lambda: _ghz_family(
        [GENERIC, dict(ONE_ZERO, predicate=ONE_ZERO["predicate"] + " | a=b")]), True),
    "no rows": ("ghz_ab", lambda: _ghz_family([]), True),
    "zero vector": ("ghz_ab", lambda: _ghz_family(
        [GENERIC, ONE_ZERO, {"triple": "111", "predicate": "a=0 & b=0"}]), False),
    "unsatisfiable": ("ghz_ab", lambda: _ghz_family(
        [GENERIC, {"triple": "111", "predicate": "a=0 & a!=0"}]), False),
    "partition": ("ghz_ab", lambda: _ghz_family(
        [GENERIC, dict(ONE_ZERO, bisep="A–B–C–D")]), False),
    "wrong partition": ("ghz_ab", lambda: _ghz_family(
        [dict(GENERIC, bisep=True), dict(ONE_ZERO, bisep="AB–CD")]), False),
    "empty row hit": ("ghz_ab", lambda: _ghz_family(
        [GENERIC, ONE_ZERO, {"triple": "111", "empty": True}]), True),
    "broken": ("broken", _broken_registry, True),
    "beyond int64": ("big", _big_registry, True),
}
FAILURE_RUNS = [(case, samples, seed) for case in FAILURE_CASES
                for samples in (1, 3) for seed in (1, 8)]
TABLE4_CASES = {
    "split overlap": dict(SPLIT_ROWS, AB=SPLIT_ROWS["AB"][:3] + ["c!=±d"]),
    "split wrong rank": dict(SPLIT_ROWS, AC=SPLIT_ROWS["AC"][1:] + SPLIT_ROWS["AC"][:1]),
}


def failure_rows(case, samples, seed):
    family, registry, scan = FAILURE_CASES[case]
    report = tables_mod.TableReport(0, "probe")
    tables_mod._run_family_rows(report, family, samples, seed, registry(), scan)
    return _rows(report)


def table4_rows(case, samples, seed):
    return _rows(run_table(4, samples, seed, _g_abcd_registry(TABLE4_CASES[case])))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_run_table_rows_are_byte_identical(key):
    table_id, samples, seed = map(int, key.split())
    assert _rows(run_table(table_id, samples, seed)) == GOLDEN[key]


@pytest.mark.parametrize("case, samples, seed", FAILURE_RUNS)
def test_failing_family_rows_are_byte_identical(case, samples, seed):
    assert failure_rows(case, samples, seed) == FAILURES[f"{case} {samples} {seed}"]


@pytest.mark.parametrize("case", sorted(TABLE4_CASES))
def test_failing_split_rows_are_byte_identical(case):
    for samples, seed in ((1, 1), (3, 8)):
        assert table4_rows(case, samples, seed) == FAILURES[f"table 4 {case} {samples} {seed}"]


def test_failure_goldens_show_failures():
    # the recorded failure cases are not all passing rows
    verdicts = {row[3] for rows in FAILURES.values() for row in rows}
    assert {"match", "mismatch"} <= verdicts


def test_table_7_machine_output_is_byte_identical(capsys):
    assert main(["table", "7", "--output", "machine"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "table7_machine.json").read_bytes()
