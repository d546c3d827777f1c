"""``rank_signatures`` of a batch equals ``rank_signature`` state by state.

The batch ranks every split its states' memos lack mod Q in one stack per
split shape across all the states, and proves each shortfall with
``stacked_rank``, or on the lone route when its split is too large to
share a stack or its state is beyond int64; ``rank_signature`` ranks one
state on its lone route.
Each case below ranks one batch and compares it with the lone route on
fresh copies of the same states, so neither reads the other's memo.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank._kernels as kernels
import sloccrank.coeffmatrix as coeffmatrix
from sloccrank import rank_signatures
from sloccrank.checks import _corpus
from sloccrank.coeffmatrix import SHORTFALL_CELLS, _canonical_plans, rank_signature, split_rank
from sloccrank.slocc import apply_local, random_invertible_local
from sloccrank.states import PureState, product_state, random_exact_state, state
from sloccrank.tables import ghz, w_state

SEEDS = st.integers(0, 2**32)


def _fresh(psi):
    return PureState(psi.n, psi.amps, psi.labels)


def _lone(batch, tolerance=None):
    """The signatures of fresh copies of ``batch``, one ``rank_signature`` each."""
    return [rank_signature(_fresh(psi), tolerance=tolerance) for psi in batch]


def _same(batched, lone):
    assert [(s.n, s.labels, s.ranks) for s in batched] == [(s.n, s.labels, s.ranks) for s in lone]


def _states(n):
    """Representative states of n = 2..6 qubits: the rank-invariance corpus, or
    GHZ, W and a product for n = 6, which it lacks."""
    if n <= 5:
        return _corpus(n)
    return [ghz(6), w_state(6), product_state([(ghz(3), (1, 4, 5)), (w_state(3), (2, 3, 6))], 6)]


def _shuffled_product(n, rng):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
    return product_state(
        [
            (random_exact_state(hi - lo, rng), tuple(sorted(order[lo:hi])))
            for lo, hi in zip([0] + cuts, cuts + [n])
        ],
        n,
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_representative_states_under_local_operators(n):
    batch = [
        apply_local(psi, random_invertible_local(n, 100 * n + k))
        for k, psi in enumerate(_states(n) * 3)
    ]
    batch += _states(n)
    _same(rank_signatures(batch), _lone(batch))


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 8), SEEDS)
def test_shuffled_products_and_random_states(n, seed):
    rng = random.Random(seed)
    batch = [_shuffled_product(n, rng) for _ in range(3)] + [random_exact_state(n, rng)]
    _same(rank_signatures(batch), _lone(batch))


def test_a_batch_of_mixed_sizes():
    rng = random.Random(3)
    batch = [random_exact_state(n, rng) for n in range(1, 8)]
    batch += [_shuffled_product(n, rng) for n in range(2, 8)]
    sigs = rank_signatures(batch)
    _same(sigs, _lone(batch))
    assert sigs[0].ranks == {}  # one qubit has no split


def test_the_same_state_twice(monkeypatch):
    psi = apply_local(ghz(5), random_invertible_local(5, 9))
    seen = []
    real = coeffmatrix._stacked_floors
    monkeypatch.setattr(
        coeffmatrix, "_stacked_floors", lambda pairs: seen.append(len(pairs)) or real(pairs)
    )
    first, second = rank_signatures([psi, psi])
    assert seen == [len(_canonical_plans(5))]  # each split is ranked once
    _same([first, second], _lone([psi, psi]))


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 7), SEEDS)
def test_partly_filled_memos(n, seed):
    rng = random.Random(seed)
    batch = [_shuffled_product(n, rng), random_exact_state(n, rng)]
    batch.append(apply_local(ghz(n), random_invertible_local(n, seed)))
    plans = _canonical_plans(n)
    for psi in batch:
        for plan in rng.sample(plans, len(plans) // 2):
            split_rank(psi, plan.bipartition.row_bits)
    _same(rank_signatures(batch), _lone(batch))


def test_a_component_beyond_int64_takes_the_lone_route(monkeypatch):
    big = 2**70 + 3
    rank_one = state(3, [big, 1, big, 1, 2 * big, 2, 2 * big, 2])  # every split has rank 1
    small = apply_local(w_state(3), random_invertible_local(3, 4))
    lone = []
    real = coeffmatrix._split_rank
    monkeypatch.setattr(
        coeffmatrix, "_split_rank", lambda psi, *args: lone.append(psi) or real(psi, *args)
    )
    sigs = rank_signatures([rank_one, small])
    assert lone and all(psi is rank_one for psi in lone)
    assert set(sigs[0].ranks.values()) == {1}
    monkeypatch.setattr(coeffmatrix, "_split_rank", real)
    _same(sigs, _lone([rank_one, small]))


def test_floating_states_take_the_tolerance():
    near = state(2, [1.0, 0.0, 0.0, 1e-8])  # rank 1 at tolerance 1e-6, rank 2 at the default
    exact = apply_local(ghz(3), random_invertible_local(3, 2))
    batch = [near, exact.to_float(), exact]
    for tolerance in (None, 1e-6):
        _same(rank_signatures(batch, tolerance=tolerance), _lone(batch, tolerance))
    assert rank_signatures([near], tolerance=1e-6)[0].ranks == {(1,): 1}
    assert rank_signatures([near])[0].ranks == {(1,): 2}
    with pytest.raises(ValueError):
        rank_signatures([exact], tolerance=1.0)


def test_an_empty_batch():
    assert rank_signatures([]) == []


def test_a_rank_invariance_batch_eliminates_nothing_and_keeps_to_its_budget(monkeypatch):
    eliminated, stacks = [], []
    real_eliminate, real_stacked = kernels._eliminate, coeffmatrix.stacked_rank
    monkeypatch.setattr(
        kernels, "_eliminate", lambda *args: eliminated.append(args) or real_eliminate(*args)
    )
    monkeypatch.setattr(
        coeffmatrix, "stacked_rank", lambda q: stacks.append(q.shape) or real_stacked(q)
    )
    batch = []
    for n in (2, 3, 4, 5):
        for k, psi in enumerate(_corpus(n) * 20):
            batch += [psi, apply_local(psi, random_invertible_local(n, 1000 * k + n))]
    sigs = rank_signatures(batch)
    assert eliminated == []
    assert stacks and max(b for b, *_ in stacks) > 1  # the shortfalls were stacked
    assert all(b * rows * cols <= SHORTFALL_CELLS for b, rows, cols, _ in stacks)
    assert all(before == after for before, after in zip(sigs[::2], sigs[1::2]))


def test_a_stacked_rank_below_the_floor_raises(monkeypatch):
    psi = apply_local(ghz(4), random_invertible_local(4, 6))
    monkeypatch.setattr(coeffmatrix, "stacked_rank", lambda q: np.zeros(len(q), dtype=np.int64))
    with pytest.raises(ArithmeticError, match="below the floor"):
        rank_signatures([psi])


def test_splits_too_large_to_share_a_stack_take_the_lone_route(monkeypatch):
    # the 16 cells of an n = 4 split fit twice, the 32 of an n = 5 split once
    monkeypatch.setattr(coeffmatrix, "SHORTFALL_CELLS", 32)
    stacks, lone = [], []
    real_stacked, real_lone = coeffmatrix.stacked_rank, coeffmatrix._split_rank
    monkeypatch.setattr(
        coeffmatrix, "stacked_rank", lambda q: stacks.append(q.shape) or real_stacked(q)
    )
    monkeypatch.setattr(
        coeffmatrix,
        "_split_rank",
        lambda psi, plan, *args: lone.append(plan) or real_lone(psi, plan, *args),
    )
    batch = [apply_local(psi, random_invertible_local(psi.n, 7)) for psi in _corpus(4) + _corpus(5)]
    sigs = rank_signatures(batch)
    assert stacks and all(2 * rows * cols <= 32 for _, rows, cols, _ in stacks)
    assert lone and all(2 * plan.rows * plan.cols > 32 for plan in lone)
    monkeypatch.setattr(coeffmatrix, "_split_rank", real_lone)
    _same(sigs, _lone(batch))


def test_sparse_states_from_the_stack_size_on_take_rank_signature(monkeypatch):
    """GHZ-10, W-8 and a sparse n=6 state fail ``_stacks``: none of their
    splits enters the stacks, and each takes ``rank_signature`` (which alone
    looks for qubit symmetry); the n=4 state below the stack size and the
    dense n=6 one stay in the batch."""
    sparse = [ghz(10), w_state(8), state(6, [k % 5 + 1 if k % 11 == 0 else 0 for k in range(64)])]
    batched = [apply_local(ghz(4), random_invertible_local(4, 3))]
    batched.append(random_exact_state(6, random.Random(8)))
    stacked, detected = [], []
    real_stacked, real_classes = coeffmatrix._stacked_floors, coeffmatrix._qubit_classes
    monkeypatch.setattr(
        coeffmatrix,
        "_stacked_floors",
        lambda pairs: stacked.extend(p for p, _ in pairs) or real_stacked(pairs),
    )
    monkeypatch.setattr(
        coeffmatrix, "_qubit_classes", lambda psi: detected.append(psi) or real_classes(psi)
    )
    batch = sparse + batched
    sigs = rank_signatures(batch)
    assert {id(psi) for psi in stacked} == {id(psi) for psi in batched}
    assert [id(psi) for psi in detected] == [id(psi) for psi in sparse]
    _same(sigs, _lone(batch))
