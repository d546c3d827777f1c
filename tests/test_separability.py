"""Recursive rank formula, biseparability criterion, finest partitions."""

import random

import pytest

from sloccrank.checks import check_kron_rank
from sloccrank.coeffmatrix import coefficient_matrix, rank, rank_signature
from sloccrank.separability import (
    degenerate_family,
    is_biseparable_across,
    recursive_rank,
    separability_partition,
)
from sloccrank.slocc import apply_local, random_invertible_local
from sloccrank.states import product_state, random_exact_state, scale, state
from sloccrank.tables import build_representative, epr, ghz, w_state
from sloccrank.tables import _table_data


def ket0():
    return state(1, [1, 0])


def test_recursive_rank_base_cases():
    factors = [(ket0(), (1,)), (ket0(), (2,))]
    assert recursive_rank(factors, (1,)) == 1
    b_ac = [(state(1, [2, 5]), (2,)), (epr(), (1, 3))]
    assert recursive_rank(b_ac, (3,)) == 2
    eprepr = [(epr(), (1, 2)), (epr(), (3, 4))]
    assert recursive_rank(eprepr, (1, 3)) == 4


def test_recursive_rank_equals_direct_rank():
    result = check_kron_rank(trials=100, seed=1)
    assert result.passed, result.failures


def test_recursive_rank_rejects_overlap():
    with pytest.raises(ValueError):
        recursive_rank([(epr(), (1, 2)), (epr(), (2, 3))], (1,))


@pytest.mark.parametrize(
    "row_bits, message",
    [((1, 5), "out of range"), ((0, 2), "out of range"), ((1, 1, 3), "duplicate")],
)
def test_recursive_rank_rejects_bad_row_bits(row_bits, message):
    factors = [(ghz(2), (1, 2)), (ghz(2), (3, 4))]
    with pytest.raises(ValueError, match=message):
        recursive_rank(factors, row_bits)


def test_biseparability_examples():
    flag, _ = is_biseparable_across(ghz(4), (1, 2))
    assert not flag
    eprepr = product_state([(epr(), (1, 2)), (epr(), (3, 4))], 4)
    flag, factors = is_biseparable_across(eprepr, (1, 2))
    assert flag
    left, right = factors
    assert left.amps == epr().amps and right.amps == epr().amps
    product = state(4, [1] + [0] * 15)
    for subset in ((1,), (2, 3), (1, 4)):
        assert is_biseparable_across(product, subset)[0]


def test_biseparability_factors_reconstruct_up_to_scale():
    rng = random.Random(71)
    for trial in range(30):
        n = rng.randint(3, 5)
        split_size = rng.randint(1, n - 1)
        subset = tuple(sorted(rng.sample(range(1, n + 1), split_size)))
        comp = tuple(p for p in range(1, n + 1) if p not in subset)
        psi = product_state(
            [
                (random_exact_state(len(subset), rng), subset),
                (random_exact_state(len(comp), rng), comp),
            ],
            n,
        )
        flag, (left, right) = is_biseparable_across(psi, subset)
        assert flag
        rebuilt = product_state([(left, subset), (right, comp)], n)
        # rebuilt equals pivot * psi: find the pivot from any nonzero amp
        pivot = None
        for a, b in zip(rebuilt.amps, psi.amps):
            if not b.is_zero():
                pivot = a * b.inverse()
                break
        assert pivot is not None and not pivot.is_zero()
        assert rebuilt.amps == scale(psi, pivot).amps


def test_subset_bounds_checked():
    with pytest.raises(ValueError):
        is_biseparable_across(ghz(3), ())
    with pytest.raises(ValueError):
        is_biseparable_across(ghz(3), (1, 2, 3))


def test_partition_examples():
    a_w = product_state([(ket0(), (1,)), (w_state(3), (2, 3, 4))], 4)
    assert separability_partition(a_w).blocks == ((1,), (2, 3, 4))
    eprepr = product_state([(epr(), (1, 2)), (epr(), (3, 4))], 4)
    assert separability_partition(eprepr).blocks == ((1, 2), (3, 4))
    assert separability_partition(ghz(4)).blocks == ((1, 2, 3, 4),)
    assert separability_partition(ghz(4)).is_genuinely_entangled()


def test_one_qubit_is_not_genuinely_entangled():
    partition = separability_partition(state(1, [1, 1]))
    assert partition.blocks == ((1,),)
    assert partition.label() == "A"
    assert not partition.is_genuinely_entangled()
    assert separability_partition(epr()).is_genuinely_entangled()


def test_partition_invariant_under_local_ops():
    rng = random.Random(73)
    cases = [
        product_state([(ket0(), (2,)), (epr(), (1, 3))], 3),
        product_state([(epr(), (1, 4)), (epr(), (2, 3))], 4),
        ghz(4),
        product_state([(ket0(), (1,)), (ghz(3), (2, 3, 4))], 4),
    ]
    for psi in cases:
        blocks = separability_partition(psi).blocks
        for trial in range(10):
            ops = random_invertible_local(psi.n, 900 + trial)
            assert separability_partition(apply_local(psi, ops)).blocks == blocks


def test_family_labels():
    b_ac = product_state([(state(1, [3, 4]), (2,)), (epr(), (1, 3))], 3)
    label = degenerate_family(b_ac)
    assert str(label) == "B–AC"
    assert rank_signature(b_ac).as_tuple() == (2, 1, 2)
    five = product_state(
        [(ket0(), (3,)), (epr(), (1, 2)), (epr(), (4, 5))], 5
    )
    assert str(degenerate_family(five)) == "C–AB–DE"
    assert str(degenerate_family(ghz(4))) == "ABCD"


def test_finest_partition_invariant():
    # unions of blocks are rank-1 splits, block-splitting subsets are not
    from itertools import chain, combinations

    from sloccrank.tables import random_entangled_block

    rng = random.Random(83)
    layouts = [((1, 3), (2, 4, 5)), ((1,), (2, 5), (3, 4)), ((1, 2), (3, 4))]
    for blocks in layouts:
        n = sum(len(b) for b in blocks)
        factors = [(random_entangled_block(len(b), rng), b) for b in blocks]
        psi = product_state(factors, n)
        assert separability_partition(psi).blocks == tuple(sorted(blocks))
        for count in range(1, len(blocks)):
            for chosen in combinations(blocks, count):
                union = tuple(sorted(chain.from_iterable(chosen)))
                assert rank(coefficient_matrix(psi, union)) == 1
        for block in blocks:
            if len(block) < 2:
                continue
            splitter = (block[0],)
            assert rank(coefficient_matrix(psi, splitter)) > 1


def test_degenerate_signatures_pairwise_distinct():
    table1 = _table_data()["1"]["rows"]
    all_sigs3 = []
    sigs3 = []
    for row in table1:
        psi = build_representative(row["blocks"], ("A", "B", "C"))
        all_sigs3.append(rank_signature(psi).as_tuple())
        if len(row["blocks"]) > 1:
            sigs3.append(rank_signature(psi).as_tuple())
    assert len(set(sigs3)) == len(sigs3) == 4
    assert len(set(all_sigs3)) == 5  # the genuine row differs from all of them
    table2 = _table_data()["2"]["rows"]
    sigs4 = []
    for row in table2:
        if len(row["blocks"]) == 1:
            continue
        psi = build_representative(row["blocks"], ("A", "B", "C", "D"))
        sigs4.append(rank_signature(psi).as_tuple())
    assert len(set(sigs4)) == len(sigs4) == 14


def test_tensor_split_always_rank_one():
    rng = random.Random(79)
    for trial in range(20):
        n = rng.randint(2, 5)
        size = rng.randint(1, n - 1)
        subset = tuple(sorted(rng.sample(range(1, n + 1), size)))
        comp = tuple(p for p in range(1, n + 1) if p not in subset)
        psi = product_state(
            [
                (random_exact_state(size, rng), subset),
                (random_exact_state(n - size, rng), comp),
            ],
            n,
        )
        assert rank(coefficient_matrix(psi, subset)) == 1
