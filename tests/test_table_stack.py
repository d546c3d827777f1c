"""The stacked rule-table rows report what the per-tuple route reports.

The references below are the route the tables took tuple by tuple:
each sampled tuple went through ``classify_subfamily`` (table 4, which
still does: ``split_rank`` and ``classify_g_split``), and each scan value was drawn
as a ``Fraction`` by ``grid_rational``.  Here the scans run tuple by
tuple too, through ``instantiate``, ``rank_triple`` and
``classify_subfamily``.  The stack may skip a tuple only when it proves
that the tuple passes.  So one wrong triple injected into one sampled
tuple must send that tuple, and no other, to the per-tuple check; when
that check fails too, the row fails at that tuple with the per-tuple
text.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import sloccrank.families as families
import sloccrank.tables as tables_mod
from sloccrank.cli import main
from sloccrank.coeffmatrix import split_rank
from sloccrank.families import (
    GRID_VALUES,
    SPLIT_BITS,
    ClassificationError,
    RankTriple,
    SamplingError,
    SubfamilyRule,
    classify_g_split,
    default_registry,
    grid_rational,
    instantiate,
    rank_triples,
    sample_predicate,
)
from sloccrank.tables import MAX_SAMPLES, RowReport, TableReport, run_table
from test_table_golden import FAILURE_CASES, TABLE4_CASES
from test_tables import _g_abcd_registry, _ghz_family, _per_tuple_hit, _per_tuple_uncovered


def _row(name, expected, inputs, check, done):
    failure = next(filter(None, map(check, inputs)), None)
    if failure:
        return RowReport(name, expected, failure, "mismatch")
    return RowReport(name, expected, done, "match")


def reference_sampled_row(name, expected, rule, samples, seed, check, done):
    try:
        tuples = sample_predicate(rule, samples, seed)
    except SamplingError as exc:
        return RowReport(name, expected, str(exc), "mismatch")
    return _row(name, expected, tuples, check, done)


def reference_table4(samples, seed, registry):
    family = "G_abcd"
    report = TableReport(4, tables_mod.table_title(4))
    entry = registry.get(family)
    for split, preds in entry.split_rules.items():
        bits = SPLIT_BITS[split]
        for idx, pred in enumerate(preds, start=1):
            rule = SubfamilyRule(family, RankTriple(idx, idx, idx), pred, entry.params)

            def check(values):
                got = split_rank(instantiate(family, values, registry), bits)
                if got != idx:
                    return f"params {values}: rank {got}"
                try:
                    if classify_g_split(split, values, registry) != idx:
                        return f"params {values}: classified into another row"
                except ClassificationError as exc:
                    return f"params {values}: {exc}"
                return None

            report.rows.append(reference_sampled_row(
                f"F{idx}^{split}", f"rank {idx}", rule, samples, seed + idx * 101, check,
                f"rank {idx} on {samples} samples",
            ))
    return report


def reference_scan(params, count, seed):
    size = len(GRID_VALUES) ** len(params)
    if size <= count:
        return list(itertools.product(GRID_VALUES, repeat=len(params))), f"all {size} grid tuples"
    rng = random.Random(seed)
    return [tuple(grid_rational(rng) for _ in params) for _ in range(count)], f"{count} tuples"


def reference_family_rows(report, family, samples, seed, registry, scan):
    entry = registry.get(family)
    count = samples * tables_mod.SCAN_PER_SAMPLE
    for k, rule in enumerate(entry.rules):
        name = f"{family} {rule.triple}"
        if rule.empty:
            draws, drawn = reference_scan(entry.params, count, seed + 17 * k)
            hit = _per_tuple_hit(family, registry, draws, rule.triple)
            report.rows.append(RowReport(name, "unreachable", hit, "mismatch") if hit
                               else RowReport(name, "unreachable", f"not hit in {drawn}", "match"))
        else:
            report.rows.append(reference_sampled_row(
                name, str(rule.triple), rule, samples, seed + 13 * k,
                tables_mod._classified_as(family, rule, registry), f"{samples} samples classified",
            ))
    if scan:
        draws, drawn = reference_scan(entry.params, count, seed + 9999)
        gap = _per_tuple_uncovered(family, registry, draws)
        name, expected = f"{family} coverage scan", "every tuple falls in a listed row"
        report.rows.append(RowReport(name, expected, gap, "mismatch") if gap
                           else RowReport(name, expected, f"{drawn} covered", "match"))


def reference_table(table_id, samples, seed):
    registry = default_registry()
    if table_id == 4:
        return reference_table4(samples, seed, registry)
    data = tables_mod._table_data()[str(table_id)]
    report = TableReport(table_id, data["title"])
    for family in data.get("families", [data.get("family")]):
        if registry.get(family).template is None:
            report.rows.extend(RowReport(f"{family} {r.triple}", str(r.triple), "-",
                                         "skipped: no template")
                               for r in registry.get(family).rules)
        else:
            reference_family_rows(report, family, samples, seed, registry, table_id != 7)
    return report


def _rows(report):
    return [(r.name, r.expected, r.computed, r.verdict) for r in report.rows]


@pytest.mark.parametrize("table_id", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("seed", [2, 19])
def test_rows_match_the_per_tuple_route(quick_scans, table_id, seed):
    for samples in (1, 4):
        got = run_table(table_id, samples, seed)
        assert _rows(got) == _rows(reference_table(table_id, samples, seed))


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_failing_rows_match_the_per_tuple_route(quick_scans, case):
    family, registry, scan = FAILURE_CASES[case]
    for samples, seed in ((1, 3), (2, 30)):
        got, want = TableReport(0, "probe"), TableReport(0, "probe")
        tables_mod._run_family_rows(got, family, samples, seed, registry(), scan)
        reference_family_rows(want, family, samples, seed, registry(), scan)
        assert _rows(got) == _rows(want)


@pytest.mark.parametrize("case", sorted(TABLE4_CASES))
def test_failing_split_rows_match_the_per_tuple_route(case):
    registry = _g_abcd_registry(TABLE4_CASES[case])
    for samples, seed in ((1, 3), (4, 30)):
        got = run_table(4, samples, seed, registry)
        assert _rows(got) == _rows(reference_table4(samples, seed, registry))


def _wrong_sampled_triple(monkeypatch, shift):
    """Make ``rank_triples`` read one sampled tuple's triple wrong: the
    ``shift``-th sampled tuple of the stack.  Returns the list that
    receives that tuple's values."""
    real_init, real_triples, stacks, seen = tables_mod._Scan.__init__, rank_triples, [], []

    def init(self, *args, **kwargs):
        stacks.append(self)
        real_init(self, *args, **kwargs)

    def wrong(template, nums, dens):
        out = real_triples(template, nums, dens)
        stack = stacks[-1]
        t = len(stack.grid) + shift
        out[t] = [3, 3, 3] if out[t].tolist() == [4, 4, 4] else [4, 4, 4]
        seen.append(stack.sampled[shift])
        return out

    monkeypatch.setattr(tables_mod._Scan, "__init__", init)
    monkeypatch.setattr(tables_mod, "rank_triples", wrong)
    return seen


@pytest.mark.parametrize("shift", [0, 3, 7])
def test_one_wrong_sampled_triple_sends_that_tuple_to_the_per_tuple_check(monkeypatch, shift):
    # ghz_ab: 222 on a, b != 0; the wrong triple is 444 or 333, never the row's
    registry = _ghz_family([{"triple": "222", "predicate": "a!=0 & b!=0"},
                            {"triple": "111", "predicate": "a=0 & b!=0 | b=0 & a!=0"}])
    checked = []
    real = tables_mod._classified_as

    def spy(family, rule, reg):
        check = real(family, rule, reg)
        return lambda values: checked.append(values) or check(values)

    monkeypatch.setattr(tables_mod, "_classified_as", spy)
    seen = _wrong_sampled_triple(monkeypatch, shift)
    report = TableReport(0, "probe")
    tables_mod._run_family_rows(report, "ghz_ab", 5, 4, registry, scan=False)
    # the rows still match: the per-tuple check ranks the tuple right ...
    assert report.passed and seen
    # ... and it was the only tuple the stack did not prove
    assert checked == [seen[0]]


def test_one_wrong_sampled_triple_fails_the_row_at_that_tuple(monkeypatch):
    # with the per-tuple route wrong on every tuple, the row fails at the one
    # tuple the stack did not prove, with the per-tuple text
    seen = _wrong_sampled_triple(monkeypatch, 6)
    monkeypatch.setattr(families, "rank_triple", lambda psi, **kwargs: RankTriple(3, 3, 3))
    report = TableReport(0, "probe")
    registry = _ghz_family([{"triple": "222", "predicate": "a!=0 & b!=0"}])
    tables_mod._run_family_rows(report, "ghz_ab", 10, 4, registry, scan=False)
    (row,) = report.rows
    values = seen[0]
    assert row.verdict == "mismatch"
    assert row.computed == (
        f"params {values}: library defect: ghz_ab row 222 matched but the computed triple is 333"
    )


@pytest.mark.parametrize("seed", [0, 41, 10000])
@pytest.mark.parametrize("params", [("a",), ("a", "b", "c", "d")])
def test_grid_positions_are_the_grid_rational_draws(seed, params):
    positions = tables_mod._grid_tuples(params, 300, seed)
    assert positions.shape == (300, len(params)) and positions.dtype == np.int64
    rng = random.Random(seed)
    want = [tuple(grid_rational(rng) for _ in params) for _ in range(300)]
    assert [tuple(GRID_VALUES[i] for i in row) for row in positions.tolist()] == want


def test_stack_numerators_and_denominators_are_the_tuples():
    registry = default_registry()
    draws, _ = tables_mod._scan_draws(("a", "b", "c"), 200, [5, 6])
    sampled = {0: [(Fraction(7, 2), Fraction(-12), Fraction(0))]}
    stack = tables_mod._Scan("L_abc2", draws, registry, sampled)
    assert stack.nums.dtype == stack.dens.dtype == np.int64
    for t in range(len(stack.nums)):
        values = stack.values(t)
        assert stack.nums[t].tolist() == [v.numerator for v in values]
        assert stack.dens[t].tolist() == [v.denominator for v in values]
    assert stack.values(len(stack.grid)) == sampled[0][0]
    for s in (5, 6):
        got = [stack.values(t) for t in stack.positions[s].tolist()]
        assert got == [tuple(GRID_VALUES[i] for i in row) for row in draws[s].tolist()]


def test_samples_above_the_bound_are_refused_before_drawing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew tuples")

    monkeypatch.setattr(tables_mod, "sample_predicate", refuse)
    monkeypatch.setattr(tables_mod, "_grid_tuples", refuse)
    for samples in (MAX_SAMPLES + 1, 10**20):
        for table_id in tables_mod.TABLE_IDS:
            with pytest.raises(ValueError, match=f"samples must be at most {MAX_SAMPLES}"):
                run_table(table_id, samples=samples)


@pytest.mark.parametrize("samples", [str(MAX_SAMPLES + 1), "99999999999999999999"])
def test_cli_refuses_samples_above_the_bound(monkeypatch, capsys, samples):
    monkeypatch.setattr(tables_mod, "sample_predicate", None)
    monkeypatch.setattr(tables_mod, "_grid_tuples", None)
    assert main(["table", "5", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert f"must be an integer <= {MAX_SAMPLES}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_a_sampled_tuple_of_another_row_is_not_proven(monkeypatch):
    # sampling that hands every row a tuple of row 222 must fail row 111
    registry = _ghz_family([{"triple": "222", "predicate": "a!=0 & b!=0"},
                            {"triple": "111", "predicate": "a=0 & b!=0 | b=0 & a!=0"}])
    other = (Fraction(1), Fraction(2))
    monkeypatch.setattr(tables_mod, "sample_predicate", lambda rule, count, seed: [other] * count)
    report = TableReport(0, "probe")
    tables_mod._run_family_rows(report, "ghz_ab", 2, 0, registry, scan=False)
    assert [r.computed for r in report.rows] == [
        "2 samples classified", f"params {other}: matched row 222",
    ]
