"""The stacked exact local-operator kernel agrees with the per-index loop.

``slocc`` applies exact operator sets as stacks of 8 x 8 integer matrices
(``_kernels.operator_stack`` and ``apply_single_qubit``), in int64 under a
proven bound and as Python ints otherwise.  Every result here is compared
with ``_oracles.ref_apply_local``, a 2x2 pass per qubit in ``ExactScalar``
arithmetic, or with ``_oracles.ref_transform`` for coefficient matrices.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank.slocc as slocc
from sloccrank._kernels import INT64_BOUND
from sloccrank.coeffmatrix import coefficient_matrix, enumerate_bipartitions
from sloccrank.scalars import ExactScalar
from sloccrank.slocc import (
    STACK_JOBS,
    LocalOperator,
    LocalOperatorSet,
    apply_local,
    apply_local_many,
    random_invertible_local,
    transform_coefficient_matrices,
    transform_coefficient_matrix,
)
from sloccrank.states import random_exact_state, state
from _oracles import _floating, ref_apply_local, ref_transform

SMALL = st.integers(-3, 3)
SCALARS = st.builds(ExactScalar, SMALL, SMALL, SMALL, SMALL, st.integers(1, 4))
INV_SQRT2 = ExactScalar(0, 0, 1, 0, 2)  # 1/sqrt2 = sqrt2/2
OP_ENTRIES = st.one_of(
    SCALARS, st.sampled_from([INV_SQRT2, -INV_SQRT2, INV_SQRT2 * ExactScalar(0, 1)])
)


@st.composite
def exact_states(draw, n):
    amps = draw(st.lists(SCALARS, min_size=1 << n, max_size=1 << n))
    if not any(amps):
        amps[0] = ExactScalar(1)
    return state(n, amps)


@st.composite
def operators(draw):
    a, b, c, d = (draw(OP_ENTRIES) for _ in range(4))
    if (a * d - b * c).is_zero():
        a, c, d = ExactScalar(1), ExactScalar(0), INV_SQRT2  # upper triangular, invertible
    return LocalOperator(((a, b), (c, d)))


@st.composite
def jobs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    ops = LocalOperatorSet(tuple(draw(operators()) for _ in range(n)))
    return draw(exact_states(n)), ops


def _reference(psi, ops):
    return ref_apply_local(list(psi.amps), psi.n, [op.entries for op in ops.ops])


@pytest.fixture
def stacks(monkeypatch):
    """(dtype, stack size, target) of every ``apply_single_qubit`` call in ``slocc``."""
    calls = []
    real = slocc.apply_single_qubit

    def spy(x, target, mats):
        assert mats.dtype == x.dtype and mats.shape == (len(x), 8, 8)
        calls.append((x.dtype, len(x), target))
        return real(x, target, mats)

    monkeypatch.setattr(slocc, "apply_single_qubit", spy)
    return calls


@settings(max_examples=40, deadline=None)
@given(jobs())
def test_one_state_matches_the_per_index_loop(job):
    psi, ops = job
    phi = apply_local(psi, ops)
    assert phi.is_exact
    assert list(phi.amps) == _reference(psi, ops)


@settings(max_examples=15, deadline=None)
@given(st.lists(jobs(max_n=5), min_size=1, max_size=12))
def test_a_mixed_batch_matches_one_loop_per_state(batch):
    calls = []
    real = slocc._apply_exact

    def spy(jobs):
        calls.append(len(jobs))
        return real(jobs)

    slocc._apply_exact = spy
    try:
        got = apply_local_many(batch)
    finally:
        slocc._apply_exact = real
    assert calls == [len(batch)]  # every qubit count in one call
    assert [list(phi.amps) for phi in got] == [_reference(psi, ops) for psi, ops in batch]


def test_operators_with_denominators(stacks):
    rng = random.Random(3)
    hadamard = LocalOperator(((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2)))
    for n in (1, 3, 6):
        psi = random_exact_state(n, rng)
        ops = LocalOperatorSet(
            tuple(hadamard if t % 2 else random_invertible_local(1, t)[0] for t in range(n))
        )
        assert list(apply_local(psi, ops).amps) == _reference(psi, ops)
    assert {dtype for dtype, _, _ in stacks} == {np.dtype(np.int64)}


def _all_plus(n, m):
    """Every amplitude ``m``: the all-plus operator doubles it on each qubit."""
    return state(n, [m] * (1 << n))


PLUS = LocalOperator(((1, 1), (1, -1)))  # largest absolute row sum 2


@pytest.mark.parametrize("n", [1, 2, 5])
def test_the_int64_cutoff(stacks, n):
    top = INT64_BOUND >> n  # bound = top * 2**n = INT64_BOUND exactly
    ops = LocalOperatorSet((PLUS,) * n)
    below, at = _all_plus(n, top - 1), _all_plus(n, top)
    got = apply_local_many([(below, ops), (at, ops)])
    assert [dtype for dtype, _, t in stacks if t == 0] == [np.dtype(np.int64), np.dtype(object)]
    # amplitude 0 of the first is (top - 1) * 2**n, the largest int64 value the bound allows
    assert got[0].amps[0] == (top - 1) << n == INT64_BOUND - (1 << n)
    for (psi, _), phi in zip([(below, ops), (at, ops)], got):
        assert list(phi.amps) == _reference(psi, ops)


def test_a_sqrt2_row_sum_reaches_its_bound(stacks):
    # entries (1, 1, 1, 1) weigh 1 + 1 + 2 + 2 = 6, so a row sums to 12; the
    # signs of x = (m, -m, m, -m) make the first component of both products 6m
    one = ExactScalar(1, 1, 1, 1)
    ops = LocalOperatorSet((LocalOperator(((one, one), (one, -one))),))
    top = (INT64_BOUND - 1) // 12
    pairs = [(state(1, [ExactScalar(m, -m, m, -m)] * 2), ops) for m in (top, top + 1)]
    got = apply_local_many(pairs)
    assert [dtype for dtype, _, _ in stacks] == [np.dtype(np.int64), np.dtype(object)]
    assert got[0].amps[0].a == 12 * top
    for (psi, _), phi in zip(pairs, got):
        assert list(phi.amps) == _reference(psi, ops)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_states_beyond_int64_take_python_ints(stacks, n):
    rng = random.Random(n)
    psi = random_exact_state(n, rng)
    big = state(n, [a * ExactScalar(2**70) for a in psi.amps])
    ops = random_invertible_local(n, 17)
    got = apply_local(big, ops)
    assert {dtype for dtype, _, _ in stacks} == {np.dtype(object)}
    assert list(got.amps) == _reference(big, ops)
    assert list(got.amps) == [a * ExactScalar(2**70) for a in apply_local(psi, ops).amps]


def test_stacks_hold_at_most_stack_jobs(stacks):
    rng = random.Random(5)
    batch = [(random_exact_state(2, rng), random_invertible_local(2, k)) for k in range(150)]
    got = apply_local_many(batch)
    sizes = [size for _, size, t in stacks if t == 0]
    assert sizes == [STACK_JOBS, STACK_JOBS, 150 - 2 * STACK_JOBS]
    assert [list(phi.amps) for phi in got] == [_reference(psi, ops) for psi, ops in batch]


def test_floating_pairs_still_contract(monkeypatch, stacks):
    contracted = []
    real = slocc._contract

    def spy(amps, ops):
        contracted.append(amps.shape)
        return real(amps, ops)

    monkeypatch.setattr(slocc, "_contract", spy)
    rng = random.Random(9)
    exact = random_exact_state(3, rng)
    ops = random_invertible_local(3, 4)
    pairs = [(exact.to_float(), ops), (exact, _floating(ops)), (exact, ops)]
    got = apply_local_many(pairs)
    assert contracted == [(2, 2, 2), (2, 2, 2)]
    assert [size for _, size, t in stacks if t == 0] == [1]  # the exact pair alone
    expect = [a.to_complex() for a in _reference(exact, ops)]
    for phi in got[:2]:
        assert not phi.is_exact
        assert np.allclose(phi.amps, expect)
    assert got[2].is_exact and list(got[2].amps) == _reference(exact, ops)


def test_batched_matrix_transform_matches_one_call_per_matrix():
    rng = random.Random(11)
    pairs = []
    for k in range(12):
        n = 2 + k % 4
        psi = random_exact_state(n, rng)
        ops = random_invertible_local(n, 50 + k)
        for bp in enumerate_bipartitions(n):
            pairs.append((coefficient_matrix(psi, bp.row_bits, bp.col_bits), ops))
    got = transform_coefficient_matrices(pairs)
    assert [C.entries for C in got] == [
        transform_coefficient_matrix(C, ops).entries for C, ops in pairs
    ]
    one, zero = ExactScalar(1), ExactScalar(0)
    for (C, ops), out in zip(pairs, got):
        bp = C.bipartition
        assert out.bipartition == bp and (out.rows, out.cols) == (C.rows, C.cols)
        expect = ref_transform(
            [list(row) for row in C.entries],
            [ops[b - 1].entries for b in bp.row_bits],
            [ops[b - 1].entries for b in bp.col_bits],
            one,
            zero,
        )
        assert [list(row) for row in out.entries] == expect
