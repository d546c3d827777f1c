"""Reference-grid reproduction and the structural rank rule engine."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import sloccrank.tables as tables_mod
from sloccrank.coeffmatrix import rank_signature
from sloccrank.families import (
    GRID_VALUES,
    ClassificationError,
    FamilyError,
    FamilyRegistry,
    classify_subfamily,
    default_registry,
    grid_rational,
    instantiate,
    _builtin_data,
    rank_triple,
)
from sloccrank.scalars import ExactScalar
from sloccrank.tables import (
    TABLE_IDS,
    build_representative,
    expected_rank_set,
    run_table,
    table_title,
)


def test_table_ids_and_titles():
    assert TABLE_IDS == (1, 2, 3, 4, 5, 6, 7, 8)
    for tid in TABLE_IDS:
        assert table_title(tid)


def test_tables_1_and_2_match():
    for tid in (1, 2):
        report = run_table(tid)
        assert report.passed
        assert all(r.verdict == "match" for r in report.rows)
    assert len(run_table(1).rows) == 5
    assert len(run_table(2).rows) == 15


def test_fixture_grids_agree_with_rule_engine():
    # the checked-in expected ranks are re-derivable from the block rule
    data = tables_mod._table_data()
    for tid, labels in (("1", ("A", "B", "C")), ("2", ("A", "B", "C", "D"))):
        for row in data[tid]["rows"]:
            if len(row["blocks"]) == 1:
                continue  # genuinely entangled rows carry template-specific ranks
            blocks = [
                tuple(labels.index(ch) + 1 for ch in block) for block in row["blocks"]
            ]
            psi = build_representative(row["blocks"], labels)
            sig = rank_signature(psi)
            for key, got in sig.items():
                allowed = expected_rank_set(blocks, key)
                assert got in allowed


def test_expected_rank_set_rules():
    blocks = [(1,), (2, 3), (4, 5)]
    assert expected_rank_set(blocks, (1,)) == {1}
    assert expected_rank_set(blocks, (2,)) == {2}
    assert expected_rank_set(blocks, (2, 3)) == {1}
    assert expected_rank_set(blocks, (2, 4)) == {4}
    assert expected_rank_set(blocks, (1, 2)) == {2}
    big = [(1,), (2, 3, 4, 5)]
    assert expected_rank_set(big, (2, 3)) == {2, 3, 4}
    assert expected_rank_set(big, (1, 2)) == {2}
    whole = [(1, 2, 3, 4, 5)]
    assert expected_rank_set(whole, (1, 2)) == {2, 3, 4}
    assert expected_rank_set(whole, (3,)) == {2}


def test_table_3_structural_rules():
    report = run_table(3, samples=4, seed=11)
    assert report.passed, [r.computed for r in report.rows if not r.passed]
    assert len(report.rows) == 7


def test_table_4_per_split_rows(quick_scans):
    report = run_table(4, samples=6, seed=12)
    assert report.passed, [(r.name, r.computed) for r in report.rows if not r.passed]
    assert len(report.rows) == 12


def _g_abcd_registry(split_rules):
    """A registry holding only the bundled G_abcd, without its rule rows,
    with ``split_rules`` in place of its own (None: without any)."""
    data = next(e for e in _builtin_data() if e["name"] == "G_abcd")
    data = {k: v for k, v in data.items() if k not in ("rules", "split_rules")}
    if split_rules is not None:
        data["split_rules"] = split_rules
    registry = FamilyRegistry(include_builtin=False)
    registry.register_entry(data)
    return registry


def test_table_4_reports_overlapping_split_rows_as_mismatches(quick_scans):
    rows = next(e for e in _builtin_data() if e["name"] == "G_abcd")["split_rules"]
    overlapping = dict(rows, AB=rows["AB"][:3] + ["c!=±d"])  # row 4 now meets row 3
    report = run_table(4, samples=3, seed=1, registry=_g_abcd_registry(overlapping))
    assert not report.passed
    row = next(r for r in report.rows if r.name == "F3^AB")
    assert row.verdict == "mismatch"
    assert "per-split rows [3, 4] of G_abcd/AB match simultaneously" in row.computed


def test_table_4_classifies_into_the_family_its_data_names(monkeypatch, quick_scans):
    data = next(e for e in _builtin_data() if e["name"] == "G_abcd")
    registry = FamilyRegistry(include_builtin=False)
    registry.register_entry(dict(data, name="G_renamed"))
    tables = dict(tables_mod._table_data())
    tables["4"] = dict(tables["4"], family="G_renamed")
    monkeypatch.setattr(tables_mod, "_table_data", lambda: tables)
    report = run_table(4, samples=3, seed=1, registry=registry)
    assert report.passed and len(report.rows) == 12


def test_table_4_without_split_rules_is_a_family_error():
    with pytest.raises(FamilyError, match="'G_abcd' has no per-split rules"):
        run_table(4, samples=3, seed=1, registry=_g_abcd_registry(None))


def test_tables_5_6_8_rows_and_scans(quick_scans):
    for tid, row_count in ((5, 13), (6, 13), (8, 8)):
        report = run_table(tid, samples=6, seed=13)
        assert report.passed, [(r.name, r.computed) for r in report.rows if not r.passed]
        assert len(report.rows) == row_count


def test_table_7_skips_rules_only_families(quick_scans):
    report = run_table(7, samples=6, seed=14)
    assert report.passed
    skipped = [r for r in report.rows if r.verdict.startswith("skipped")]
    validated = [r for r in report.rows if r.verdict == "match"]
    assert len(skipped) == 11
    assert len(validated) == 7  # the ten-amplitude family rows


def test_table_7_validates_registered_template(quick_scans, tmp_path):
    registry = FamilyRegistry()
    # stand-in template exercising the registration path; built so that
    # its rank triples actually satisfy the bundled rows for L_a4
    fake = {
        "name": "L_a4",
        "params": ["a"],
        "amps": ["1*a", "1", "0", "0", "0", "1*a", "1", "0",
                 "0", "0", "1*a", "1", "0", "0", "0", "1*a"],
    }
    path = tmp_path / "reg.json"
    path.write_text(json.dumps([fake]))
    registry.load_file(path)
    report = run_table(7, samples=6, seed=15, registry=registry)
    rows = {r.name: r for r in report.rows}
    assert rows["L_a4 434"].verdict in ("match", "mismatch")


def test_mismatch_detection(quick_scans):
    registry = FamilyRegistry()
    # wrong rule table: claims the equal-parameter point has triple 444
    registry.register_entry(
        {
            "name": "broken",
            "params": ["a", "b"],
            "amps": ["1*a", "1/2*i*r2", "1/2*i*r2", "0",
                     "0", "1/2*a + 1/2*b", "1/2*a - 1/2*b", "-1/2*i*r2",
                     "0", "1/2*a - 1/2*b", "1/2*a + 1/2*b", "-1/2*i*r2",
                     "0", "0", "0", "1*a"],
            "rules": [{"triple": "444", "predicate": "a=b & a!=0"}],
        }
    )
    report = tables_mod.TableReport(0, "probe")
    tables_mod._run_family_rows(report, "broken", 4, 0, registry, scan=False)
    assert not report.passed


def test_unknown_table_id():
    with pytest.raises(ValueError):
        run_table(9)


def test_grid_rational_draws_like_randint_and_choice():
    """The scans' parameter stream is the one tables were always drawn from."""
    shared, old = random.Random(5), random.Random(5)
    for _ in range(2000):
        assert grid_rational(shared) == Fraction(old.randint(-6, 6), old.choice((1, 2, 3)))
    assert shared.random() == old.random()


def test_table_gate_fails_when_no_row_was_validated():
    skipped = tables_mod.RowReport("L_a4 434", "434", "-", "skipped: no template")
    assert not tables_mod.TableReport(9, "empty").passed
    assert not tables_mod.TableReport(7, "all skipped", [skipped]).passed
    matched = tables_mod.RowReport("ABC", "2 2 2", "2 2 2", "match")
    assert tables_mod.TableReport(7, "one validated", [skipped, matched]).passed


def _ghz_family(rules):
    """a|0000> + b|1111>: triple 222 when a, b != 0, 111 when exactly one is zero."""
    registry = FamilyRegistry(include_builtin=False)
    registry.register_entry({
        "name": "ghz_ab",
        "params": ["a", "b"],
        "amps": ["1*a"] + ["0"] * 14 + ["1*b"],
        "rules": rules,
    })
    return registry


ZERO = GRID_VALUES.index(0)  # the grid index of the value 0


def _fractions(positions):
    """Grid-index rows as the tuples of Fractions they stand for."""
    return [tuple(GRID_VALUES[i] for i in row) for row in positions.tolist()]


def test_coverage_scan_goes_through_classify_subfamily(quick_scans):
    seed = 1
    draws = tables_mod._grid_tuples(("a", "b"), 40, seed + 9999).tolist()
    assert [ZERO, ZERO] in draws  # the all-zero tuple is drawn and must be skipped
    assert any(a == ZERO and b != ZERO for a, b in draws)
    generic = {"triple": "222", "predicate": "a!=0 & b!=0"}
    one_zero = {"triple": "111", "predicate": "a=0 & b!=0 | b=0 & a!=0"}
    report = tables_mod.TableReport(0, "probe")
    tables_mod._run_family_rows(report, "ghz_ab", 1, seed, _ghz_family([generic, one_zero]),
                                scan=True)
    assert report.passed, [(r.name, r.computed) for r in report.rows]
    assert report.rows[-1].computed == "40 tuples covered"

    gap = tables_mod.TableReport(0, "probe")
    tables_mod._run_family_rows(gap, "ghz_ab", 1, seed, _ghz_family([generic]), scan=True)
    scan = gap.rows[-1]
    assert scan.name == "ghz_ab coverage scan" and scan.verdict == "mismatch"
    assert "no predicate row of ghz_ab matches" in scan.computed and "(triple 111)" in scan.computed


def test_run_table_rejects_samples_below_one():
    # samples=0 used to pass every table with "0 samples classified" rows
    for tid in TABLE_IDS:
        for samples in (0, -3):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                run_table(tid, samples=samples)


def test_small_grid_is_scanned_whole():
    assert len(GRID_VALUES) == 27
    report = run_table(8, samples=2, seed=3)
    assert report.passed, [(r.name, r.computed) for r in report.rows if not r.passed]
    rows = {r.name: r.computed for r in report.rows}
    assert rows["L_ab3' 424"] == rows["L_ab3' 442"] == "not hit in all 729 grid tuples"
    assert rows["L_ab3' coverage scan"] == "all 729 grid tuples covered"
    # a grid larger than the scan stays on seeded draws
    assert run_table(6, samples=2, seed=3).rows[-1].computed == "1000 tuples covered"


# --- the batched scan against the per-tuple route ------------------------------


def _per_tuple_hit(family, registry, draws, triple):
    for values in draws:
        try:
            psi = instantiate(family, values, registry)
        except FamilyError:
            continue
        if rank_triple(psi) == triple:
            return f"hit at {values}"
    return None


def _per_tuple_uncovered(family, registry, draws):
    for values in draws:
        try:
            classify_subfamily(family, values, registry)
        except FamilyError:
            continue
        except ClassificationError as exc:
            return f"params {values}: {exc}"
    return None


def _assert_scan_follows_tuples(family, registry, positions, batched=True):
    """Triples, predicate masks, matched rows, skips and messages, tuple by tuple."""
    entry = registry.get(family)
    scan = tables_mod._Scan(family, {0: positions}, registry)
    assert scan.batched == batched
    draws = _fractions(positions)
    assert len(scan.grid) == len(set(draws))
    assert sorted(map(scan.values, range(len(scan.grid)))) == sorted(set(draws))
    rules = [r for r in entry.rules if r.predicate is not None]
    masks = scan.masks
    for t in range(len(scan.grid)):
        values = scan.values(t)
        bindings = {s: ExactScalar._coerce(v) for s, v in zip(entry.params, values)}
        assert [m[t] for m in masks] == [r.predicate.holds(bindings) for r in rules]
        try:
            want = rank_triple(instantiate(family, values, registry)).as_tuple()
        except FamilyError:
            want = (0, 0, 0)  # the zero vector, skipped by both routes
        assert tuple(scan.triples[t]) == want
        assert scan.zero[t] == (want == (0, 0, 0))
        try:
            rule, _ = classify_subfamily(family, values, registry)
        except (FamilyError, ClassificationError):
            continue
        assert [r for r, m in zip(rules, masks) if m[t]] == [rule]
    for rule in entry.rules:
        assert scan.hit(0, rule.triple) == _per_tuple_hit(family, registry, draws, rule.triple)
    assert scan.uncovered(0) == _per_tuple_uncovered(family, registry, draws)


def test_batched_scan_on_the_whole_l_ab3_prime_grid():
    draws, drawn = tables_mod._scan_draws(("a", "b"), 729, [0])
    assert drawn == "all 729 grid tuples" and len(set(_fractions(draws[0]))) == 729
    _assert_scan_follows_tuples("L_ab3'", default_registry(), draws[0])


@pytest.mark.parametrize("family, count", [("G_abcd", 400), ("L_abc2", 400), ("L_ab3", 300)])
def test_batched_scan_on_seeded_draws(family, count):
    registry = default_registry()
    draws = tables_mod._grid_tuples(registry.get(family).params, count, 21)
    if family == "G_abcd":
        draws = np.vstack([draws, [[ZERO] * 4]])  # the zero vector
    _assert_scan_follows_tuples(family, registry, draws)


def test_batched_scan_reports_each_gap_as_the_per_tuple_route_does():
    draws = tables_mod._grid_tuples(("a", "b"), 40, 10000)
    assert [ZERO, ZERO] in draws.tolist()
    generic = {"triple": "222", "predicate": "a!=0 & b!=0"}
    one_zero = {"triple": "111", "predicate": "a=0 & b!=0 | b=0 & a!=0"}
    wrong = {"triple": "222", "predicate": "a=0 & b!=0 | b=0 & a!=0"}
    overlap = {"triple": "111", "predicate": "a=0 & b!=0 | b=0 & a!=0 | a=b"}
    messages = []
    for rules in ([generic, one_zero], [generic], [generic, wrong], [generic, overlap], []):
        _assert_scan_follows_tuples("ghz_ab", _ghz_family(rules), draws)
        messages.append(tables_mod._Scan("ghz_ab", {0: draws}, _ghz_family(rules)).uncovered(0))
    assert messages[0] is None
    assert "no predicate row of ghz_ab matches" in messages[1]
    assert "library defect" in messages[2]
    assert "rule table defect" in messages[3]
    assert "no predicate row of ghz_ab matches" in messages[4]


def test_batched_scan_on_coefficients_beyond_int64():
    # a template beyond int64 takes the per-tuple route for the whole family
    registry = FamilyRegistry(include_builtin=False)
    amps = ["0"] * 16
    amps[0], amps[3], amps[12] = f"{10**20}*a", "1*b", "1*b"
    amps[15], amps[6] = f"{2**70}*a + 1", "1*a - 3*b"
    registry.register_entry({"name": "big", "params": ["a", "b"], "amps": amps, "rules": [
        {"triple": "444", "predicate": "a!=0 & b!=0"},
    ]})
    assert registry.get("big").template.integer_form is None
    draws = tables_mod._grid_tuples(("a", "b"), 60, 4)
    _assert_scan_follows_tuples("big", registry, draws, batched=False)
    # and so does one that fits int64 until the tuples scale it
    amps[0], amps[15] = "1*a", f"{2**60}*a + 1"
    registry.register_entry({"name": "scaled", "params": ["a", "b"], "amps": amps, "rules": [
        {"triple": "444", "predicate": "a!=0 & b!=0"},
    ]})
    assert registry.get("scaled").template.integer_form is not None
    _assert_scan_follows_tuples("scaled", registry, draws, batched=False)


def test_batched_scan_on_predicate_coefficients_beyond_int64_products():
    # so does a predicate whose cross-multiplied products could pass int64
    draws = tables_mod._grid_tuples(("a", "b"), 40, 10000)
    rules = [{"triple": "222", "predicate": "a!=0 & b!=0"},
             {"triple": "111", "predicate": f"a=0 & b!=0 | b=0 & a!=0 | a=±{2**40}b"}]
    _assert_scan_follows_tuples("ghz_ab", _ghz_family(rules), draws, batched=False)
    rules[1]["predicate"] = "a=0 & b!=0 | b=0 & a!=0"
    _assert_scan_follows_tuples("ghz_ab", _ghz_family(rules), draws, batched=True)
