"""Stacked and lone exact signatures agree, for n = 5..10.

``rank_signature`` ranks the splits of a dense exact state mod Q in one
stack per split shape first (``coeffmatrix._stacked_floors``) and hands
each split's rank mod Q to its ``bareiss`` call as a floor; a sparse state
or a small one ranks every split alone.  Each case below ranks fresh copies
of one state both ways, with the route forced through
``coeffmatrix._stacks``: random dense states, products on shuffled qubits,
Dicke states (with their known ranks), states whose memo was partly filled
first, and states whose amplitudes vanish mod Q.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank.coeffmatrix as coeffmatrix
from sloccrank._kernels import Q
from sloccrank.coeffmatrix import _canonical_plans, rank_signature, split_rank
from sloccrank.scalars import ExactScalar
from sloccrank.separability import is_biseparable_across
from sloccrank.states import PureState, product_state, random_exact_state, state

SEEDS = st.integers(0, 2**32)


def _both_routes(psi, prepare=None):
    """The signatures of two fresh copies of ``psi``, stacked and lone."""
    out = []
    for stacked in (True, False):
        fresh = PureState(psi.n, psi.amps, psi.labels)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coeffmatrix, "_stacks", lambda n, support: stacked)
            if prepare is not None:
                prepare(fresh)
            out.append(rank_signature(fresh))
    return out


def _numeric(psi):
    return rank_signature(psi.to_float()).ranks


@settings(max_examples=12, deadline=None)
@given(st.integers(5, 10), SEEDS)
def test_random_dense_states(n, seed):
    stacked, lone = _both_routes(random_exact_state(n, random.Random(seed)))
    assert stacked == lone


def _shuffled_product(n, rng):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
    factors = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        factors.append((random_exact_state(hi - lo, rng), tuple(sorted(order[lo:hi]))))
    return product_state(factors, n)


@settings(max_examples=12, deadline=None)
@given(st.integers(5, 10), SEEDS)
def test_shuffled_products(n, seed):
    psi = _shuffled_product(n, random.Random(seed))
    stacked, lone = _both_routes(psi)
    assert stacked == lone
    assert stacked.ranks == _numeric(psi)


def _dicke(n, k):
    return state(n, [1 if bin(w).count("1") == k else 0 for w in range(1 << n)])


@pytest.mark.parametrize("n", range(5, 11))
def test_dicke_states(n):
    for k in sorted({1, 2, n // 2}):
        stacked, lone = _both_routes(_dicke(n, k))
        assert stacked == lone
        for key, r in stacked.items():
            a = len(key)
            assert r == min(a, k) - max(0, k - (n - a)) + 1  # weights j on side A, k - j off it


def _fill_some(rng):
    def prepare(psi):
        plans = _canonical_plans(psi.n)
        for plan in rng.sample(plans, len(plans) // 3):
            split_rank(psi, plan.bipartition.row_bits)
        is_biseparable_across(psi, (1, 2))
    return prepare


@settings(max_examples=10, deadline=None)
@given(st.integers(5, 9), SEEDS, st.booleans())
def test_memo_filled_first(n, seed, product):
    rng = random.Random(seed)
    psi = _shuffled_product(n, rng) if product else random_exact_state(n, rng)
    stacked, lone = _both_routes(psi, _fill_some(random.Random(seed)))
    assert stacked == lone
    assert stacked.ranks == _numeric(psi)


def test_only_the_splits_the_memo_lacks_are_stacked(monkeypatch):
    psi = random_exact_state(7, random.Random(11))
    plans = _canonical_plans(7)
    for plan in plans[::2]:
        split_rank(psi, plan.bipartition.row_bits)
    seen = []
    real = coeffmatrix._stacked_floors
    monkeypatch.setattr(
        coeffmatrix,
        "_stacked_floors",
        lambda pairs: seen.append([plan for _, plan in pairs]) or real(pairs),
    )
    rank_signature(psi)
    assert seen == [list(plans[1::2])]
    rank_signature(psi)  # a full memo builds no stack
    assert len(seen) == 1


def test_floors_that_vanish_mod_q_still_give_exact_ranks():
    """1 + Q times a dense state in every amplitude: every split has rank 1
    mod Q and a larger exact rank, so every floor falls short and F_P decides."""
    noise = random_exact_state(7, random.Random(12))
    psi = state(7, [ExactScalar(1) + ExactScalar(Q) * b for b in noise.amps])
    plans = _canonical_plans(7)
    floors = coeffmatrix._stacked_floors([(psi, plan) for plan in plans])
    floors = dict(zip((plan.key for plan in plans), floors))
    assert set(floors.values()) == {1}
    stacked, lone = _both_routes(psi)
    assert stacked == lone
    assert all(floors[k] < r for k, r in stacked.items())
    assert stacked.ranks == _numeric(psi)


@pytest.mark.parametrize(
    "psi, stacks",
    [
        (random_exact_state(6, random.Random(1)), True),
        (random_exact_state(5, random.Random(1)), False),  # below STACK_MIN_QUBITS
        (_dicke(8, 4), True),  # 70 nonzero amplitudes, at least 2**4
        (_dicke(8, 1), False),  # W: 8 nonzero amplitudes, fewer than 2**4
        (state(8, [1] + [0] * 254 + [1]), False),  # GHZ
        (random_exact_state(8, random.Random(2)).to_float(), False),  # floating
    ],
)
def test_the_stack_criterion(monkeypatch, psi, stacks):
    calls = []
    real = coeffmatrix._stacked_floors
    monkeypatch.setattr(
        coeffmatrix, "_stacked_floors", lambda pairs: calls.append(len(pairs)) or real(pairs)
    )
    rank_signature(psi)
    assert bool(calls) == stacks
