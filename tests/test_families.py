"""Templates, predicate tables, sampling, registry, permutation analysis."""

import dataclasses
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import sloccrank.families as families
from sloccrank.families import (
    ALL_PERMUTATIONS,
    MASK_FACTOR_LIMIT,
    ClassificationError,
    FamilyError,
    FamilyRegistry,
    FamilyTemplate,
    KAPPA_PERMUTATIONS,
    PI_PERMUTATIONS,
    RankTriple,
    SamplingError,
    SubfamilyRule,
    classify_g_split,
    classify_subfamily,
    default_registry,
    fits_int64,
    full_permutation_scan,
    instantiate,
    match_template,
    parse_affine,
    parse_predicate,
    permutation_analysis,
    rank_triple,
    sample_predicate,
)
from sloccrank.scalars import ExactScalar, I_OVER_SQRT2
from sloccrank.separability import separability_partition
from sloccrank.slocc import (
    I_IDENTITY,
    LocalOperatorSet,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    apply_local,
)
from sloccrank.states import QubitPermutation, permute_qubits, state
from sloccrank.tables import TableReport, _run_family_rows, ghz, run_table


# --- templates -----------------------------------------------------------------


def test_template_supports():
    reg = default_registry()
    assert reg.get("G_abcd").template.support() == (0, 3, 5, 6, 9, 10, 12, 15)
    assert reg.get("L_abc2").template.support() == (0, 3, 5, 6, 10, 12, 15)
    for name in ("L_ab3", "L_ab3'"):
        assert reg.get(name).template.support() == (0, 1, 2, 5, 6, 7, 9, 10, 11, 15)


def test_primed_family_differs_only_in_two_signs():
    plain = default_registry().get("L_ab3").template
    primed = default_registry().get("L_ab3'").template
    for idx in range(16):
        if idx in (7, 11):
            assert plain.amps[idx].const == -primed.amps[idx].const
        else:
            assert plain.amps[idx] == primed.amps[idx]


def test_instantiate_examples():
    assert instantiate("G_abcd", (1, 0, 0, 0)).amps == ghz(4).amps
    product = instantiate("L_abc2", (0, 0, 0))
    assert product.amps == state(4, [0] * 6 + [1] + [0] * 9).amps
    w_like = instantiate("L_ab3", (0, 0))
    assert [i for i, a in enumerate(w_like.amps) if not a.is_zero()] == [1, 2, 7, 11]
    assert w_like.amps[1] == I_OVER_SQRT2


def test_instantiate_zero_rejected():
    with pytest.raises(FamilyError):
        instantiate("G_abcd", (0, 0, 0, 0))


def test_classify_zero_tuple_is_not_a_state():
    with pytest.raises(FamilyError, match="zero vector"):
        classify_subfamily("G_abcd", (0, 0, 0, 0))


def test_instantiate_validation():
    with pytest.raises(FamilyError):
        instantiate("nope", (1,))
    with pytest.raises(FamilyError):
        instantiate("G_abcd", (1, 2))
    with pytest.raises(FamilyError):
        instantiate("G_abcd", {"a": 1, "b": 0, "c": 0, "x": 2})
    with pytest.raises(FamilyError):
        instantiate("L_a4", (1,))  # rules only, no template


def test_rank_triple_examples():
    assert rank_triple(instantiate("G_abcd", (1, 1, 1, 1))).as_tuple() == (2, 2, 2)
    assert rank_triple(instantiate("G_abcd", (1, 1, 0, 0))).as_tuple() == (1, 4, 4)
    assert rank_triple(instantiate("L_ab3'", (1, 1))).as_tuple() == (4, 3, 4)


def test_parse_affine_parameter_named_e_keeps_terms_apart():
    expr = parse_affine("1*e - 1*f", ("e", "f"))
    assert expr.const == 0
    assert expr.coeffs == (("e", ExactScalar(1)), ("f", ExactScalar(-1)))
    expr = parse_affine("e+2 - 1/2*i*r2*E", ("e", "E"))
    assert expr.const == 2
    assert expr.coeffs == (("E", ExactScalar(0, 0, 0, -1, 2)), ("e", ExactScalar(1)))


# --- predicates ------------------------------------------------------------------


def test_predicate_atoms():
    pred = parse_predicate("a=b & a!=0 | b=-3a & a!=0")
    bind = lambda a, b: {"a": ExactScalar._coerce(a), "b": ExactScalar._coerce(b)}
    assert pred.holds(bind(2, 2))
    assert pred.holds(bind(1, -3))
    assert not pred.holds(bind(0, 0))
    assert not pred.holds(bind(1, 3))


def test_predicate_plus_minus_semantics():
    eq = parse_predicate("a=±b")
    neq = parse_predicate("a!=±b")
    bind = lambda a, b: {"a": ExactScalar._coerce(a), "b": ExactScalar._coerce(b)}
    assert eq.holds(bind(2, -2)) and eq.holds(bind(2, 2))
    assert not eq.holds(bind(2, 1))
    assert neq.holds(bind(2, 1))
    assert not neq.holds(bind(2, -2))
    coef = parse_predicate("b!=±3a")
    assert coef.holds(bind(1, 2))
    assert not coef.holds(bind(1, -3))


def test_predicate_empty_means_always():
    assert parse_predicate("").holds({})
    assert parse_predicate("  ").holds({})


def test_predicate_mask_follows_holds():
    """The vectorised int64 test equals ``holds``."""
    values = [Fraction(n, d) for n in (-7, -3, -1, 0, 1, 2, 3, 6) for d in (1, 2, 3)]
    values.append(Fraction(MASK_FACTOR_LIMIT - 1, MASK_FACTOR_LIMIT - 2))
    texts = ("a=b & a!=0 | b=-3a & a!=0", "a!=±b & b!=0", f"b=±{MASK_FACTOR_LIMIT - 1}a", "",
             "a=0 | b=±3a")
    tuples = [(a, b) for a in values for b in values]
    nums = np.array([[a.numerator, b.numerator] for a, b in tuples])
    dens = np.array([[a.denominator, b.denominator] for a, b in tuples])
    for text in texts:
        pred = parse_predicate(text)
        want = [pred.holds({"a": ExactScalar._coerce(a), "b": ExactScalar._coerce(b)})
                for a, b in tuples]
        assert pred.mask(("a", "b"), nums, dens).tolist() == want


def test_predicate_mask_on_python_ints_follows_holds():
    """Object arrays are exact where int64 products would wrap: factors at
    and above ``MASK_FACTOR_LIMIT``, and numerators beyond int64."""
    big = MASK_FACTOR_LIMIT
    values = [Fraction(n, d) for n in (-3, 0, 1, 2) for d in (1, 3)]
    values += [Fraction(big, big + 1), Fraction(-big * 5, 3), Fraction(2**70, 7),
               Fraction(-(2**70) * 3, 7), Fraction(3**50 + 1, 2**64 + 1)]
    texts = ("a=b & a!=0 | b=-3a & a!=0", f"a!=±{big}b & b!=0", f"b=±{big}a", "",
             "a=0 | b=±3a", f"b=-{2**80}a")
    tuples = [(a, b) for a in values for b in values]
    tuples.append((Fraction(1), Fraction(-(2**80))))
    nums = np.array([[a.numerator, b.numerator] for a, b in tuples], dtype=object)
    dens = np.array([[a.denominator, b.denominator] for a, b in tuples], dtype=object)
    for text in texts:
        pred = parse_predicate(text)
        want = [pred.holds({"a": ExactScalar._coerce(a), "b": ExactScalar._coerce(b)})
                for a, b in tuples]
        assert pred.mask(("a", "b"), nums, dens).tolist() == want


def test_fits_int64_bounds_every_int64_product():
    """One check covers the template, the instantiated stack and the predicate products."""

    def entry(amp="1*a + 2*b", predicate="a!=0 & b!=0"):
        registry = FamilyRegistry(include_builtin=False)
        registry.register_entry({"name": "f", "params": ["a", "b"],
                                 "amps": [amp] + ["1*b"] * 15,
                                 "rules": [{"triple": "111", "predicate": predicate}]})
        return registry.get("f")

    small = np.array([[6, -6], [1, 0]]), np.array([[3, 2], [1, 1]])
    assert fits_int64(entry(), *small)
    assert fits_int64(entry(predicate=f"a=±{MASK_FACTOR_LIMIT - 1}b"), *small)
    assert not fits_int64(entry(predicate=f"a=±{MASK_FACTOR_LIMIT}b"), *small)
    assert not fits_int64(entry(), np.array([[MASK_FACTOR_LIMIT, 1]]), np.array([[1, 1]]))
    assert not fits_int64(entry(), np.array([[1, 1]]), np.array([[MASK_FACTOR_LIMIT, 1]]))
    # components: beyond int64 in the template, or once scaled by the tuples
    assert entry(amp=f"{2**63}*a").template.integer_form[0].dtype == object
    assert not fits_int64(entry(amp=f"{2**63}*a"), *small)
    assert fits_int64(entry(amp=f"{2**58}*a"), np.array([[6, 1]]), np.array([[1, 1]]))
    assert not fits_int64(entry(amp=f"{2**58}*a"), *small)


def test_predicate_parse_errors():
    cases = [
        ("a==b", "bad predicate atom"),
        ("a<b", "bad predicate atom"),
        # x = 0*y says x = 0, and no sampler can divide by it
        ("a=0b", "zero coefficient"),
        ("a=-0b & b!=0", "zero coefficient"),
        ("a!=±0*b", "zero coefficient"),
        ("a=00c", "zero coefficient"),
        (f"a=±{'9' * 5000}b", "coefficient too long"),  # beyond Python's int-string limit
    ]
    for text, message in cases:
        with pytest.raises(FamilyError, match=message):
            parse_predicate(text)


# --- classification ---------------------------------------------------------------


def test_classify_examples():
    rule, triple = classify_subfamily("L_ab3", (1, -3))
    assert str(rule.triple) == "434" and str(triple) == "434"
    rule, _ = classify_subfamily("L_abc2", (0, 1, 1))
    assert str(rule.triple) == "442"
    rule, _ = classify_subfamily("L_ab3'", (1, 5))
    assert str(rule.triple) == "444"


def test_classify_full_separable_row():
    rule, triple = classify_subfamily("L_abc2", (0, 0, 0))
    assert str(rule.triple) == "111" and rule.biseparable == "A–B–C–D"
    psi = instantiate("L_abc2", (0, 0, 0))
    assert separability_partition(psi).label() == "A–B–C–D"


def test_classify_requires_template():
    with pytest.raises(FamilyError):
        classify_subfamily("L_a4", (1,))


def test_classify_surfaces_rule_defects():
    registry = FamilyRegistry(include_builtin=False)
    registry.register_entry(
        {
            "name": "bogus",
            "params": ["a", "b"],
            "amps": ["1*a", "0", "0", "1*b", "0", "0", "0", "0",
                     "0", "0", "0", "0", "1*b", "0", "0", "1*a"],
            "rules": [{"triple": "444", "predicate": "a!=0 & b!=0"}],
        }
    )
    with pytest.raises(ClassificationError):
        # computed triple cannot be 444 for this thin template
        classify_subfamily("bogus", (1, 2), registry)
    with pytest.raises(ClassificationError):
        # predicate gap: no row matches a=0
        classify_subfamily("bogus", (0, 2), registry)


def test_classify_g_split_matches_rank():
    rng = random.Random(113)
    for _ in range(40):
        values = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        try:
            psi = instantiate("G_abcd", values)
        except FamilyError:
            continue
        from sloccrank.coeffmatrix import coefficient_matrix, rank

        for split, bits in (("AB", (1, 2)), ("AC", (1, 3)), ("AD", (1, 4))):
            idx = classify_g_split(split, values)
            assert rank(coefficient_matrix(psi, bits)) == idx


# --- sampling ----------------------------------------------------------------------


def test_sample_predicate_examples():
    reg = default_registry()
    rules = {str(r.triple): r for r in reg.get("L_ab3").rules}
    for values in sample_predicate(rules["442"], 10, seed=1):
        a, b = values
        assert a == -b != 0
    for values in sample_predicate(rules["434"], 10, seed=2):
        a, b = values
        assert b == -3 * a and a != 0
    for values in sample_predicate(rules["444"], 10, seed=3):
        a, b = values
        assert a * b != 0 and b not in (a, -a, 3 * a, -3 * a)


def test_sample_predicate_deterministic():
    rule = default_registry().get("L_ab3").rules[2]
    assert sample_predicate(rule, 5, seed=9) == sample_predicate(rule, 5, seed=9)


def test_sample_predicate_solves_chained_equalities():
    rule = [r for r in default_registry().get("L_abc2").rules if str(r.triple) == "333"][0]
    for values in sample_predicate(rule, 10, seed=4):
        a, b, c = values
        assert abs(a) == abs(b) == abs(c) != 0


def test_sample_unreachable_row_raises():
    empty = [r for r in default_registry().get("L_ab3'").rules if r.empty][0]
    with pytest.raises(SamplingError):
        sample_predicate(empty, 1, seed=0)


def test_sample_unsatisfiable_predicate_raises(monkeypatch):
    from sloccrank.families import SubfamilyRule, parse_predicate

    rule = SubfamilyRule(
        family="x",
        triple=RankTriple(1, 1, 1),
        predicate=parse_predicate("a=0 & a!=0"),
        symbols=("a",),
    )
    monkeypatch.setattr(families, "MAX_ATTEMPTS", 200)
    with pytest.raises(SamplingError):
        sample_predicate(rule, 1, seed=0)


def test_sample_predicate_budget_is_per_tuple(monkeypatch):
    rule = SubfamilyRule("x", RankTriple(1, 1, 1), parse_predicate(""), ("a", "b"))
    drawn = sample_predicate(rule, 3, seed=0)
    monkeypatch.setattr(families, "MAX_ATTEMPTS", 1)  # one draw per tuple suffices
    assert sample_predicate(rule, 3, seed=0) == drawn
    rule = SubfamilyRule("x", RankTriple(1, 1, 1), parse_predicate("a!=0"), ("a",))
    monkeypatch.setattr(families, "MAX_ATTEMPTS", 20)
    assert len(sample_predicate(rule, 40, seed=1)) == 40


# --- registry ------------------------------------------------------------------------


def test_builtin_name_collision_rejected():
    registry = FamilyRegistry()
    with pytest.raises(FamilyError):
        registry.register_entry({"name": "G_abcd", "params": ["a"], "amps": ["1*a"] * 16})


def test_register_template_for_rules_only_family(tmp_path):
    registry = FamilyRegistry()
    assert registry.get("L_a2b2").template is None
    # stand-in formula for exercising the plumbing: not the real normal form
    fake = {
        "name": "L_a2b2",
        "params": ["a", "b"],
        "amps": ["1*a", "0", "0", "1*b", "0", "1", "0", "0",
                 "0", "0", "1", "0", "1*b", "0", "0", "1*a"],
    }
    path = tmp_path / "registry.json"
    path.write_text(json.dumps([fake]))
    registry.load_file(path)
    assert registry.get("L_a2b2").template is not None
    psi = instantiate("L_a2b2", (1, 2), registry)
    assert psi.amps[5] == ExactScalar(1)


def test_registry_entries_are_frozen():
    """An entry the shared registry hands out cannot change a later table:
    dropping an L_ab3 row used to leave table 7 with 6 L_ab3 rows, passing."""
    entry = default_registry().get("L_ab3")
    with pytest.raises(AttributeError):
        entry.rules.pop()
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.rules = ()
    g_abcd = default_registry().get("G_abcd")
    with pytest.raises(TypeError):
        g_abcd.split_rules["AB"] = ()
    with pytest.raises(AttributeError):
        g_abcd.split_rules["AB"].append(g_abcd.split_rules["AB"][0])
    rows = [r for r in run_table(7, 1, 0).rows if r.name.split()[0] == "L_ab3"]
    assert len(rows) == 7 and all(r.verdict == "match" for r in rows)


# a stand-in template for exercising the registry plumbing
STAND_IN_AMPS = ("1*a", "0", "0", "1*b", "0", "1", "0", "0",
                 "0", "0", "1", "0", "1*b", "0", "0", "1*a")


def _stand_in(name, params=("a", "b")):
    return FamilyTemplate(name, params, tuple(parse_affine(t, params) for t in STAND_IN_AMPS))


def test_register_family_fills_rules_only_entry():
    registry = FamilyRegistry()
    rows = [str(r.triple) for r in registry.get("L_a2b2").rules]
    template = _stand_in("L_a2b2")
    entry = registry.register_family(template)
    assert entry is registry.get("L_a2b2")
    assert entry.template is template
    assert [str(r.triple) for r in entry.rules] == rows
    assert instantiate("L_a2b2", (1, 2), registry).amps[5] == ExactScalar(1)


def test_register_family_rejects_duplicate():
    registry = FamilyRegistry()
    with pytest.raises(FamilyError, match="already registered"):
        registry.register_family(_stand_in("G_abcd", ("a", "b", "c", "d")))
    registry.register_family(_stand_in("fresh"))
    with pytest.raises(FamilyError, match="already registered"):
        registry.register_family(_stand_in("fresh"))


def test_register_family_rejects_mismatched_parameters():
    registry = FamilyRegistry()
    with pytest.raises(FamilyError, match="do not match"):
        registry.register_family(_stand_in("L_a4", ("a", "b")))
    assert registry.get("L_a4").template is None


def test_register_family_rejects_rule_on_undeclared_parameter():
    registry = FamilyRegistry()
    rule = SubfamilyRule("fresh", RankTriple(2, 2, 2), parse_predicate("z!=0"), ("a", "b"))
    with pytest.raises(FamilyError, match="undeclared"):
        registry.register_family(_stand_in("fresh"), [rule])
    assert "fresh" not in registry.names()


def test_register_family_rejects_rows_binding_another_order():
    # a row's tuples are drawn in its symbols' order but ranked in the
    # family's: with L_ab3's rows bound as (b, a), rows 434 and 443 would
    # draw tuples that match row 444
    registry = FamilyRegistry()
    source = registry.get("L_ab3")
    template = FamilyTemplate("L_x", source.params, source.template.amps)
    swapped = [dataclasses.replace(r, family="L_x", symbols=("b", "a")) for r in source.rules]
    with pytest.raises(FamilyError, match=r"row 222 binds \('b', 'a'\), not \('a', 'b'\)"):
        registry.register_family(template, swapped)
    assert "L_x" not in registry.names()
    renamed = [dataclasses.replace(r, family="L_x") for r in source.rules]
    registry.register_family(template, renamed)
    report = TableReport(7, "L_ab3 under another name")
    _run_family_rows(report, "L_x", 5, 0, registry, scan=False)
    assert report.passed, [(r.name, r.computed) for r in report.rows if not r.passed]


def test_filling_a_rules_only_entry_keeps_the_split_rules_it_brings():
    registry = FamilyRegistry()
    entry = registry.register_entry({
        "name": "L_a4", "params": ["a"], "amps": ["1*a"] + ["0"] * 14 + ["1"],
        "split_rules": {"AB": ["a=0", "a!=0"]},
    })
    assert entry is registry.get("L_a4")
    assert [str(r.triple) for r in entry.rules] == ["323", "434"]
    assert classify_g_split("AB", (1,), registry, family="L_a4") == 2


def test_filling_a_rules_only_entry_refuses_a_second_set_of_split_rules():
    registry = FamilyRegistry(include_builtin=False)
    registry.register_entry({"name": "x", "params": ["a"], "split_rules": {"AB": ["a=0", "a!=0"]}})
    fill = {"name": "x", "params": ["a"], "amps": ["1*a"] + ["0"] * 14 + ["1"]}
    with pytest.raises(FamilyError, match="'x' already has split rules"):
        registry.register_entry(dict(fill, split_rules={"AC": ["a=0", "a!=0"]}))
    assert registry.get("x").template is None
    registry.register_entry(fill)  # the entry's own split rules are kept
    assert classify_g_split("AB", (0,), registry, family="x") == 1


@pytest.mark.parametrize("data, message", [
    (1, "must be a JSON object"),
    ({"params": ["a"]}, "no 'name'"),
    ({"name": 3}, "'name' must be a JSON string"),
    ({"name": "x", "params": "ab"}, "'params' must be a JSON array"),
    ({"name": "x", "amps": [1] * 16}, "'amps' must hold strings only"),
    ({"name": "x", "rules": {"triple": "444"}}, "'rules' must be a JSON array"),
    ({"name": "x", "rules": [{"predicate": ""}]}, "no 'triple'"),
    ({"name": "x", "rules": [{"triple": 444}]}, "'triple' must be a JSON string"),
    ({"name": "x", "rules": [{"triple": "444", "predicate": 0}]}, "'predicate' must be"),
    ({"name": "x", "rules": ["444"]}, "must be a JSON object"),
    ({"name": "x", "split_rules": {"AB": ["a=0"]}, "params": ["a"],
      "rules": [{"triple": "111", "intersect": {"AB": 0}}]}, "no split rule"),
    ({"name": "x", "split_rules": {"AB": ["a=0"]}, "params": ["a"],
      "rules": [{"triple": "111", "intersect": {"AC": 1}}]}, "no split rule"),
    ({"name": "x", "params": ["a"], "rules": [{"triple": "111", "predicate": "a!=±b"}]},
     "undeclared"),
    ({"name": "x", "params": ["a"], "split_rules": {"AB": ["z=0"]}}, "undeclared"),
    ({"name": "x", "params": ["a", "a"]}, "repeat"),
    ({"name": "x", "rules": [{"triple": "444", "empty": "no"}]}, "'empty' must be a JSON boolean"),
    ({"name": "x", "rules": [{"triple": "444", "bisep": 5}]}, "'bisep' must be a JSON boolean or"),
    ({"name": "x", "split_rules": {"AB": ["a=0"]}, "params": ["a"],
      "rules": [{"triple": "111", "intersect": {"AB": True}}]}, "no split rule AB #True"),
    ({"name": "x", "params": ["a"], "split_rules": {"XY": ["a=0"]}}, "splits must be among"),
    ({"name": "x", "rules": [{"triple": "444", "empty": None}]}, "'empty' must be a JSON boolean"),
    ({"name": "x", "rules": [{"triple": None}]}, "'triple' must be a JSON string"),
    ({"name": "x", "amps": None}, "'amps' must be a JSON array"),
])
def test_malformed_registry_entry_raises_family_error(data, message):
    with pytest.raises(FamilyError, match=message):
        FamilyRegistry(include_builtin=False).register_entry(data)


def test_registry_file_that_is_not_json_raises_family_error(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text('[{"name": ')
    with pytest.raises(FamilyError, match="not valid JSON"):
        FamilyRegistry().load_file(path)


def test_registered_family_classification_round_trip():
    registry = FamilyRegistry()
    clone = {
        "name": "G_clone",
        "params": ["a", "b", "c", "d"],
        "amps": ["1*a", "0", "0", "1*b", "0", "1*c", "1*d", "0",
                 "0", "1*d", "1*c", "0", "1*b", "0", "0", "1*a"],
        "rules": [
            {"triple": "222", "predicate": "a=±b & a!=0 & c=±d & c!=0"},
            {"triple": "144", "predicate": "a=±b & a!=0 & c=0 & d=0", "bisep": "AB–CD"},
        ],
    }
    registry.register_entry(clone)
    rule, triple = classify_subfamily("G_clone", (1, 1, 0, 0), registry)
    assert str(rule.triple) == "144"
    for values in sample_predicate(rule, 5, seed=5):
        matched, _ = classify_subfamily("G_clone", values, registry)
        assert matched.triple == rule.triple


def test_rules_only_rows_carry_expected_triples():
    rows = {str(r.triple) for r in default_registry().get("L_a4").rules}
    assert rows == {"323", "434"}


def test_rule_tables_exhaustive_on_integer_grid():
    # every nonzero tuple on a small grid hits exactly one row whose
    # expected triple matches the computed one (classify raises otherwise)
    from itertools import product as iproduct

    grids = {
        "L_ab3": iproduct(range(-3, 4), repeat=2),
        "L_ab3'": iproduct(range(-3, 4), repeat=2),
        "L_abc2": iproduct(range(-2, 3), repeat=3),
        "G_abcd": iproduct(range(-2, 3), repeat=4),
    }
    for family, grid in grids.items():
        classified = 0
        for values in grid:
            try:
                instantiate(family, values)
            except FamilyError:
                continue  # the all-zero tuple
            classify_subfamily(family, values)
            classified += 1
        assert classified > 0


# --- permutations -----------------------------------------------------------------


def test_builtin_permutation_lists():
    assert len(KAPPA_PERMUTATIONS) == 6
    assert len(PI_PERMUTATIONS) == 12
    assert len(ALL_PERMUTATIONS) == 24
    assert KAPPA_PERMUTATIONS[0].image == (1, 2, 3, 4)


def test_kappa_list_is_a_transversal_for_special_point():
    psi = instantiate("L_ab3'", (1, 0))
    states = {tuple(permute_qubits(psi, k).amps) for k in KAPPA_PERMUTATIONS}
    assert len(states) == 6
    scan = full_permutation_scan(psi)
    assert len(scan) == 6


def test_pi_list_is_a_transversal_for_generic_point():
    psi = instantiate("L_ab3'", (1, 5))
    states = {tuple(permute_qubits(psi, p).amps) for p in PI_PERMUTATIONS}
    assert len(states) == 12
    assert len(full_permutation_scan(psi)) == 12


def test_permutation_analysis_identity_row():
    rows = permutation_analysis("L_ab3'", (1, 1), perms=[QubitPermutation.identity(4)])
    assert rows[0][1] == rank_triple(instantiate("L_ab3'", (1, 1)))


def test_kappa_scan_rank_triples():
    rows = permutation_analysis("L_ab3'", (1, 0), perms=KAPPA_PERMUTATIONS)
    triples = sorted(str(t) for _, t in rows)
    assert triples == ["344", "344", "434", "434", "443", "443"]


# --- template pattern matching -------------------------------------------------------


def test_match_template_recovers_parameters():
    psi = instantiate("L_ab3", (2, 5))
    scale_value, bindings = match_template(psi, "L_ab3")
    assert scale_value == 1
    assert bindings["a"] == 2 and bindings["b"] == 5


def test_match_template_handles_global_scale():
    from sloccrank.states import scale as scale_state

    psi = scale_state(instantiate("L_abc2", (1, 2, 3)), ExactScalar(0, 3))
    scale_value, bindings = match_template(psi, "L_abc2")
    assert scale_value == ExactScalar(0, 3)
    assert bindings["a"] == 1 and bindings["c"] == 3


def test_match_template_rejects_non_members():
    assert match_template(ghz(4), "L_ab3") is None
    assert match_template(instantiate("L_ab3", (1, 1)), "L_ab3'") is None


@pytest.mark.parametrize("value", [1.5, "x", None])
def test_match_template_refuses_an_inexact_fixed_value(value):
    with pytest.raises(FamilyError, match="parameter 'a' must be an exact scalar"):
        match_template(instantiate("L_ab3", (1, 1)), "L_ab3", fixed={"a": value})


def test_match_template_homogeneous_family_absorbs_scale():
    from sloccrank.states import scale as scale_state

    psi = scale_state(instantiate("G_abcd", (1, 2, 0, 0)), 5)
    scale_value, bindings = match_template(psi, "G_abcd")
    assert scale_value == 1
    assert bindings["a"] == 5 and bindings["b"] == 10


def test_permuted_primed_state_matches_plain_template():
    # the equal-parameter primed state, qubits 1 and 4 swapped, then the
    # fixed operator word, lands exactly on the plain template with a = 0
    ops = LocalOperatorSet((SIGMA_X, SIGMA_Z, I_IDENTITY, SIGMA_Y))
    for a in range(1, 11):
        psi = instantiate("L_ab3'", (a, a))
        moved = permute_qubits(psi, QubitPermutation.transposition(4, 1, 4))
        out = apply_local(moved, ops)
        hit = match_template(out, "L_ab3", fixed={"a": 0})
        assert hit is not None
        scale_value, bindings = hit
        assert bindings["a"].is_zero()
        assert not bindings["b"].is_zero()
        assert bindings["b"] == -2 * a
        assert scale_value == -1
