"""The stacked exact rank agrees with exact Bareiss elimination, matrix by matrix.

``stacked_rank`` ranks each matrix mod P, its live rows moved first, and
proves a rank R below full by R steps of row reduction modulo the table
primes that the ``_norm_bits`` bound on its (R+1)-minors needs.  Every
case compares it with ``_eliminate`` on each matrix of a stack that mixes
ranks; the fixed cases sit on the edges of the proof: a minor vanishing
mod every prime but the last one the bound needs, components up to the
ends of int64, and a bound beyond the table.  The last cases pin the lone
route, a stack of one with its F_P pivot lines first, and the work that
neither route may add.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rank_certificate import _outer_sum, _small, _two_rows_with_minor, _vanishing_under
from test_stack_certificate import _route_spies

import sloccrank._kernels as kernels
from sloccrank._kernels import (
    I_P,
    PRIME_BITS,
    PRIME_TABLE,
    S_P,
    ZERO4,
    P,
    _eliminate,
    _h2,
    _norm_bits,
    _pivots_mod_p_int64,
    bareiss,
    residues_mod,
    stacked_rank,
)
from _oracles import residues_p

ONES = (1, 0, 0, 0)
P_ROW = (P, I_P, S_P)


def _matrix(rng, rows, cols, rank, span):
    """A sum of ``rank`` outer products of quadruples drawn from [-span, span]."""
    left = [[_small(rng, span) for _ in range(rank)] for _ in range(rows)]
    right = [[_small(rng, span) for _ in range(cols)] for _ in range(rank)]
    return _outer_sum(left, right) if rank else [ZERO4] * (rows * cols)


def _exact_ranks(stack, rows, cols):
    return [_eliminate(flat, rows, cols)[0] for flat in stack]


def _array(stack, rows, cols, dtype=np.int64):
    return np.array(stack, dtype=dtype).reshape(len(stack), rows, cols, 4)


def _primes_needed(stack, rows, cols):
    """The table primes after P that each matrix's proof needs: none at full rank."""
    ranks = np.array(_exact_ranks(stack, rows, cols))
    totals = _h2(_array(stack, rows, cols)).sum(axis=(1, 2))
    need = np.ceil(np.maximum(_norm_bits(totals, ranks + 1) - PRIME_BITS, 0) / PRIME_BITS)
    return np.where(ranks < min(rows, cols), need, 0).astype(int)


@st.composite
def mixed_stacks(draw):
    """Stacks of one shape whose matrices have ranks 0..min(r, c), some lines zeroed."""
    rows, cols = draw(st.sampled_from(((4, 4), (4, 4), (2, 5), (5, 3), (6, 6))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    span = draw(st.sampled_from((1, 3, 1000, 2**20)))
    stack = []
    for _ in range(draw(st.integers(1, 24))):
        flat = _matrix(rng, rows, cols, rng.randint(0, min(rows, cols)), span)
        if rng.random() < 0.3:  # a zero row and a zero column
            i, j = rng.randrange(rows), rng.randrange(cols)
            flat = [ZERO4 if k // cols == i or k % cols == j else x for k, x in enumerate(flat)]
        stack.append(flat)
    return stack, rows, cols


@settings(max_examples=80, deadline=None)
@given(mixed_stacks())
def test_stacks_agree_with_elimination(case):
    stack, rows, cols = case
    ranks = stacked_rank(_array(stack, rows, cols)).tolist()
    assert ranks == _exact_ranks(stack, rows, cols)
    assert [bareiss(flat, rows, cols, det=False)[0] for flat in stack] == ranks


def test_one_stack_holds_every_rank_and_needs_several_primes(eliminate_calls):
    rng = random.Random(3)
    stack = [_matrix(rng, 4, 4, r, span) for r in range(5) for span in (1, 3, 1000)]
    stack.append([ZERO4] * 12 + [ONES] * 4)  # three zero rows
    stack.append([ONES if k % 4 == 2 else ZERO4 for k in range(16)])  # three zero columns
    assert stacked_rank(_array(stack, 4, 4)).tolist() == _exact_ranks(stack, 4, 4)
    assert sorted(set(_exact_ranks(stack, 4, 4))) == [0, 1, 2, 3, 4]
    assert _primes_needed(stack, 4, 4).max() >= 3
    assert eliminate_calls == []


def test_minor_vanishing_mod_all_but_the_last_needed_prime(monkeypatch, eliminate_calls):
    """Rows (t, 1, ..., 1) and (c, d, ..., d) whose nonzero 2-minors are all x.

    x vanishes mod the first k - 1 primes, P among them, where the bound
    needs k; a stack that stopped one prime short would call it rank 1.
    The last prime finds the row below the pivot row nonzero, and the
    matrix is eliminated.
    """
    reads = []  # the primes of each ``residues_mod`` call

    def spy(q, primes):
        reads.append(len(primes))
        return residues_mod(q, primes)

    monkeypatch.setattr(kernels, "residues_mod", spy)
    found = []
    for k in range(2, 7):
        x = _vanishing_under((P_ROW,) + PRIME_TABLE[: k - 2])
        table_primes, flat = _two_rows_with_minor(x)  # the bound's primes after P
        if table_primes + 1 == k:
            found.append(k)
            rng = random.Random(k)
            stack = [_matrix(rng, 2, 32, 1, 1), flat, [ZERO4] * 64]
            reads.clear()
            assert stacked_rank(_array(stack, 2, 32)).tolist() == [1, 2, 0]
            assert reads == [1, k - 1]  # P, then the table primes the bound asks for
    assert found  # the bound is tight enough for at least one k to land exactly
    assert eliminate_calls == [(2, 32)] * len(found)


def test_components_beyond_int64_are_refused():
    # such a stack cannot be int64; the rule-table scans rank its family tuple by
    # tuple instead (tests/test_tables.py::test_batched_scan_on_coefficients_beyond_int64)
    rng = random.Random(7)
    stack = [_matrix(rng, 4, 4, r, 3) for r in (1, 2, 3)]
    stack[1] = [(2**70, 0, 0, 0) if k == 0 else x for k, x in enumerate(stack[1])]
    with pytest.raises(OverflowError):
        _array(stack, 4, 4)
    with pytest.raises(TypeError, match="int64"):
        stacked_rank(_array(stack, 4, 4, dtype=object))


def test_bound_beyond_the_table_takes_elimination(eliminate_calls):
    rng = random.Random(8)
    big = [_matrix(rng, 16, 16, 8, 2**28), _matrix(rng, 16, 16, 3, 1)]
    need = _primes_needed(big, 16, 16)
    assert need[0] > len(PRIME_TABLE) >= need[1]
    assert stacked_rank(_array(big, 16, 16)).tolist() == [8, 3]
    assert eliminate_calls == [(16, 16)]


def test_residues_of_large_components():
    # each component is reduced before it is weighted, so any int64 value is exact
    rng = random.Random(9)
    stack = [_matrix(rng, 4, 4, r, 2**28) for r in (1, 2, 3, 4)]
    stack.append([tuple(-(2**63) if c == 0 else 0 for c in range(4))] * 16)
    assert math.log2(max(abs(v) for flat in stack for x in flat for v in x)) >= 30
    assert stacked_rank(_array(stack, 4, 4)).tolist() == _exact_ranks(stack, 4, 4)


# every quadruple over components at the ends of int64, at +-2**31 and next to P
EDGE_QUADS = list(itertools.product(
    (2**63 - 1, -(2**63 - 1), -(2**63), 2**31, -(2**31), P + 1, P - 1, 0), repeat=4
))
EDGE_PRIMES = (P_ROW, PRIME_TABLE[0], PRIME_TABLE[-1])


@pytest.mark.parametrize("shape", [(4096,), (64, 64), (16, 16, 16)])
def test_residues_mod_matches_python_ints(shape):
    q = np.array(EDGE_QUADS, dtype=np.int64).reshape(*shape, 4)
    got = residues_mod(q, np.array(EDGE_PRIMES, dtype=np.int64))
    assert got.shape == (len(EDGE_PRIMES),) + shape
    # Python-int components are reduced first, to the same residues
    assert np.array_equal(residues_mod(q.astype(object), np.array(EDGE_PRIMES)), got)
    got = got.reshape(len(EDGE_PRIMES), -1).tolist()
    assert got[0] == (residues_p(EDGE_QUADS) % P).tolist()
    for row, (p, i_p, s_p) in zip(got, EDGE_PRIMES):
        assert row == [(a + b * i_p + c * s_p + d * i_p * s_p) % p for a, b, c, d in EDGE_QUADS]


# --- the lone route, and no extra work --------------------------------------------


def _pivots_first(q):
    """The matrices of an int64 stack with the F_P pivot lines of the wide
    orientation first, and their ranks mod P."""
    tall = q.shape[1] > q.shape[2]
    out, ranks = [], []
    for m in q.swapaxes(1, 2) if tall else q:
        res = residues_p(m.reshape(-1, 4).tolist()).reshape(m.shape[:2])
        pivots = _pivots_mod_p_int64(res)[0]
        out.append(m[pivots + [i for i in range(len(m)) if i not in pivots]])
        ranks.append(len(pivots))
    out = np.stack(out)
    return out.swapaxes(1, 2) if tall else out, ranks


@settings(max_examples=40, deadline=None)
@given(mixed_stacks())
def test_given_ranks_match_the_ranks_the_stack_finds(case):
    stack, rows, cols = case
    q = _array(stack, rows, cols)
    ordered, ranks = _pivots_first(q)
    assert stacked_rank(ordered, ranks).tolist() == stacked_rank(q).tolist()


@st.composite
def lone_shortfalls(draw):
    """Rank-deficient matrices from 2 x 2 up, wide or tall once their zero
    lines are dropped; some lines copy the one before, so that the first
    lines of either orientation are often dependent."""
    rows, cols = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    span = draw(st.sampled_from((1, 3, 1000)))
    flat = _matrix(rng, rows, cols, rng.randint(1, min(rows, cols) - 1), span)
    m = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    for i in range(1, rows):
        if rng.random() < 0.3:
            m[i] = list(m[i - 1])
    for j in range(1, cols):
        if rng.random() < 0.3:
            for row in m:
                row[j] = row[j - 1]
    zero_rows = {i for i in range(rows) if rng.random() < 0.15}
    zero_cols = {j for j in range(cols) if rng.random() < 0.15}
    cells = [ZERO4 if i in zero_rows or j in zero_cols else m[i][j]
             for i in range(rows) for j in range(cols)]
    return cells, rows, cols


@settings(max_examples=120, deadline=None)
@given(lone_shortfalls())
def test_lone_shortfalls_agree_with_elimination(case):
    """A pivot line of the wrong orientation first leaves a row below the
    first r nonzero, and the spy then sees an elimination."""
    flat, rows, cols = case
    with _route_spies() as (_, eliminated):
        rank = bareiss(flat, rows, cols, det=False)[0]
    assert eliminated == []
    assert rank == _eliminate(flat, rows, cols)[0]


def test_full_rank_stack_reduces_mod_p_alone(monkeypatch, eliminate_calls):
    calls = []

    def spy(q, primes):
        calls.append(primes[:, 0].tolist())
        return residues_mod(q, primes)

    monkeypatch.setattr(kernels, "residues_mod", spy)
    rng = random.Random(4)
    stack = [_matrix(rng, 4, 6, 4, 3) for _ in range(8)]
    assert _exact_ranks(stack, 4, 6) == [4] * 8
    assert stacked_rank(_array(stack, 4, 6)).tolist() == [4] * 8
    assert calls == [[P]] and eliminate_calls == []


def test_lone_shortfall_takes_as_many_steps_as_its_rank(monkeypatch, eliminate_calls):
    """A 64 x 64 rank-2 shortfall: 2 steps of ``_reduce_mod`` over the table
    primes, not 64 (a full elimination over them cost lowrank_signatures
    18-25%), and no reduction mod P: the F_P pivots give the rank."""
    steps = []
    real = kernels._reduce_mod
    monkeypatch.setattr(kernels, "_reduce_mod", lambda m, p, k: steps.append(k) or real(m, p, k))
    flat = _matrix(random.Random(6), 64, 64, 2, 3)
    assert bareiss(flat, 64, 64, det=False) == (2, None)
    assert steps == [2] and eliminate_calls == []
