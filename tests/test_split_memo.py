"""Split plans and per-state split ranks: cached, invisible and rank-preserving.

``coeffmatrix.split_plan`` validates a split once and caches it;
``PureState.split_ranks`` keeps each exact rank of a state once it is
computed.  Neither may change a rank, an equality, a hash or a ``repr``,
and neither may keep a failure or a tolerance-dependent answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank.coeffmatrix import (
    coefficient_matrix,
    enumerate_bipartitions,
    rank,
    rank_signature,
    split_plan,
    split_rank,
)
from sloccrank.families import rank_triple
from sloccrank.scalars import ExactScalar
from sloccrank.separability import is_biseparable_across, recursive_rank
from sloccrank.states import parse_state, product_state, render_state, state

SMALL = st.integers(-2, 2)
SCALARS = st.builds(ExactScalar, SMALL, SMALL, SMALL, SMALL, st.integers(1, 3))


@st.composite
def exact_states(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    amps = draw(st.lists(SCALARS, min_size=1 << n, max_size=1 << n))
    if not any(amps):
        amps[0] = ExactScalar(1)
    return state(n, amps)


@st.composite
def product_factors(draw, max_n=6):
    """(factor, placement) pairs partitioning a register of 2..max_n qubits."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=2)))
    factors = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        positions = tuple(sorted(order[lo:hi]))
        factors.append((draw(exact_states(len(positions), len(positions))), positions))
    return n, factors


def direct_rank(psi, row_bits):
    return rank(coefficient_matrix(psi, row_bits))


@settings(max_examples=40, deadline=None)
@given(product_factors(), st.booleans())
def test_recursive_rank_equals_direct_rank_cold_and_warm(drawn, warm):
    n, factors = drawn
    psi = product_state(factors, n)
    if warm:  # every factor's memo full before the first product
        for f, _ in factors:
            rank_signature(f)
    for _ in range(2):  # the second sweep reads what the first one kept
        for bp in enumerate_bipartitions(n):
            assert recursive_rank(factors, bp.row_bits) == direct_rank(psi, bp.row_bits)


def test_recursive_rank_builds_no_matrix_for_a_factor_on_one_side():
    left, right = state(2, [1, 0, 0, 1]), state(2, [1, 2, 2, 4])
    factors = [(left, (1, 3)), (right, (2, 4))]
    assert recursive_rank(factors, (1, 3)) == 1
    assert "split_ranks" not in vars(left) and "split_ranks" not in vars(right)
    assert recursive_rank(factors, (1, 2)) == 2 * 1
    assert left.split_ranks == {(1,): 2} and right.split_ranks == {(1,): 1}


def test_recursive_rank_rejects_a_placement_of_the_wrong_size():
    with pytest.raises(ValueError, match="placement size"):
        recursive_rank([(state(2, [1, 0, 0, 1]), (1,)), (state(1, [1, 1]), (2,))], (1,))


@settings(max_examples=40, deadline=None)
@given(exact_states())
def test_signature_is_the_same_on_a_fresh_and_a_full_memo(psi):
    text = render_state(psi)
    first = rank_signature(psi)
    assert psi.split_ranks == first.ranks
    again = rank_signature(psi)
    assert again == first and again is not first and again.ranks is not first.ranks
    assert rank_signature(parse_state(text)) == first


@settings(max_examples=40, deadline=None)
@given(exact_states(min_n=2))
def test_memo_is_invisible_to_equality_hash_and_repr(psi):
    text = render_state(psi)
    warm, cold = parse_state(text), parse_state(text)
    rank_signature(warm)
    assert warm.split_ranks and "split_ranks" not in vars(cold)
    assert warm == cold and cold == warm
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert {warm: 1}[cold] == 1


def test_memo_serves_every_reader_and_is_shared_by_both_sides():
    psi = state(4, list(range(1, 17)))
    rank_triple(psi)
    assert set(psi.split_ranks) == {(1, 2), (1, 3), (1, 4)}
    # rows (3, 4) name the split (1, 2) from its other side
    assert split_rank(psi, (3, 4)) == psi.split_ranks[(1, 2)] == 2
    assert is_biseparable_across(psi, (1,)) == (False, None)
    assert psi.split_ranks[(1,)] == 2


def test_floating_ranks_follow_the_tolerance_and_are_never_kept():
    psi = state(2, [1, 0, 0, ExactScalar(1, 0, 0, 0, 10**6)]).to_float()
    assert split_rank(psi, (1,)) == 2
    assert split_rank(psi, (1,), tolerance=1e-3) == 1
    assert rank_signature(psi, tolerance=1e-3)[(1,)] == 1
    assert rank_signature(psi)[(1,)] == 2
    assert "split_ranks" not in vars(psi)


@pytest.mark.parametrize("tolerance", [-1.0, float("nan"), 1.0])
def test_every_rank_entry_refuses_a_tolerance_outside_zero_to_one(tolerance):
    exact = state(2, [1, 0, 0, 1])
    for psi in (exact, exact.to_float()):
        with pytest.raises(ValueError, match="tolerance"):
            rank(coefficient_matrix(psi, (1,)), tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            split_rank(psi, (1,), tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            rank_signature(psi, tolerance=tolerance)
    rank_signature(exact)  # a full memo does not lift the check
    with pytest.raises(ValueError, match="tolerance"):
        rank_signature(exact, tolerance=tolerance)


@pytest.mark.parametrize("row_bits", [(1, 1), (0,), (5,), (1, 2, 3, 4, 5)])
def test_a_bad_split_raises_on_every_call(row_bits):
    psi = state(4, list(range(1, 17)))
    for _ in range(3):
        with pytest.raises(ValueError):
            split_plan(4, row_bits)
        with pytest.raises(ValueError):
            coefficient_matrix(psi, row_bits)
        with pytest.raises(ValueError):
            split_rank(psi, row_bits)
    assert "split_ranks" not in vars(psi)


def test_a_plan_is_built_once_and_matches_its_bipartition():
    plan = split_plan(4, [1, 4])
    assert split_plan(4, (1, 4)) is plan
    assert plan.bipartition.row_bits == (1, 4) and plan.bipartition.col_bits == (3, 2)
    assert plan.key == (1, 4) and plan.axes == (0, 3, 2, 1) and (plan.rows, plan.cols) == (4, 4)
    assert split_plan(4, (2, 3)).key == (1, 4)
    assert enumerate_bipartitions(5) == enumerate_bipartitions(5)
    with pytest.raises(ValueError, match="qubit count"):
        enumerate_bipartitions(0)
