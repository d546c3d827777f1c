"""``sample_predicate`` draws the tuples the ratio union-find drew.

The sampler solves a conjunction's equalities with one map from each
symbol to its class's root and multiplier, where a union-find once did.
Both make the same root choice, so they call the generator in the same
order.  The golden file holds the union-find sampler's 20 tuples at seeds
0, 6 and 41 for every reachable built-in row and every G_abcd per-split
rule; a differential suite compares the two samplers on random
conjunctions; and an equality chain longer than the recursion limit,
which the union-find's recursive ``find`` could not walk, samples too.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank.families as families
from _oracles import ref_sample_predicate
from sloccrank.families import (
    RankTriple,
    SamplingError,
    SubfamilyRule,
    default_registry,
    grid_rational,
    parse_predicate,
    sample_predicate,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "sample_predicate_golden.json").read_text())


def _builtin_rules() -> dict[str, SubfamilyRule]:
    """Each reachable built-in row and each per-split rule, by its golden key."""
    registry = default_registry()
    rules = {}
    for name in registry.names():
        entry = registry.get(name)
        for rule in entry.rules:
            if not rule.empty:
                rules[f"{name} {rule.triple}"] = rule
        for split, preds in (entry.split_rules or {}).items():
            for idx, pred in enumerate(preds, start=1):
                rules[f"{name} {split}#{idx}"] = SubfamilyRule(
                    name, RankTriple(idx, idx, idx), pred, entry.params
                )
    return rules


def test_golden_covers_every_row_and_split_rule():
    assert sorted(_builtin_rules()) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_builtin_draws_match_the_golden(key):
    rule = _builtin_rules()[key]
    for seed, want in GOLDEN[key].items():
        got = [" ".join(map(str, t)) for t in sample_predicate(rule, 20, int(seed))]
        assert got == want, (key, seed)


SYMBOLS = ("a", "b", "c", "d")


@st.composite
def conjunctions(draw):
    """A predicate over 2-4 symbols: 1-3 clauses of 1-4 atoms x=0, x!=0,
    x=±Ny or x!=±Ny, N in 1..5 with sign "", "-" or "±"."""
    symbols = SYMBOLS[: draw(st.integers(2, 4))]
    sym = st.sampled_from(symbols)
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        atoms = []
        for _ in range(draw(st.integers(1, 4))):
            op = draw(st.sampled_from(("=", "!=")))
            if draw(st.booleans()):
                rhs = "0"
            else:
                sign = draw(st.sampled_from(("", "-", "±")))
                rhs = f"{sign}{draw(st.integers(1, 5))}{draw(sym)}"
            atoms.append(f"{draw(sym)}{op}{rhs}")
        clauses.append(" & ".join(atoms))
    return symbols, " | ".join(clauses)


def _outcome(sampler, rule, count, seed):
    try:
        return sampler(rule, count, seed)
    except SamplingError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(conjunctions(), st.integers(1, 4), st.integers(0, 2**16))
def test_same_draws_as_the_union_find(case, count, seed):
    symbols, text = case
    rule = SubfamilyRule("f", RankTriple(1, 1, 1), parse_predicate(text), symbols)
    with pytest.MonkeyPatch.context() as patch:
        # fewer draws before giving up, for both: an unsatisfiable case stays quick
        patch.setattr(families, "MAX_ATTEMPTS", 300)
        assert _outcome(sample_predicate, rule, count, seed) == _outcome(
            ref_sample_predicate, rule, count, seed
        )


def test_equality_chain_beyond_the_recursion_limit():
    # p0 = p1, p1 = p2, ...: each class joins the next root, so p1199 is the
    # root of one class and the whole tuple takes one grid value
    symbols = tuple(f"p{k}" for k in range(1200))
    text = " & ".join(f"{x}={y}" for x, y in zip(symbols, symbols[1:]))
    rule = SubfamilyRule("chain", RankTriple(1, 1, 1), parse_predicate(text), symbols)
    rng = random.Random(5)
    rng.randrange(1)  # the one conjunction
    assert sample_predicate(rule, 1, 5) == [(grid_rational(rng),) * len(symbols)]

