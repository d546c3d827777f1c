"""The certified mod-P rank route agrees with the exact Bareiss elimination.

Small matrices are also checked against the pivot count of ``echelon``,
the elimination loop behind ``_eliminate``, and an independent rational
rank.  Larger ones mix small quadruples with entries that are nonzero but
vanish mod P and with entries whose residues sit just below P, the values
that would overflow an int64 product if an update were left unreduced;
their F_P pivots are checked against a reference rank mod P.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank._kernels import (
    I_P,
    P,
    P_ROW,
    S_P,
    ZERO4,
    _eliminate,
    _pivots_mod_p_int64,
    bareiss,
    echelon,
    mul4,
    quad_array,
    residues_mod,
)
from _oracles import quad_matrix_to_scalars, ref_rank_exact, residues_p
from test_rank_certificate import _outer_sum, _small

MAX_DIM = 6
# Nonzero in Z[i, sqrt2] but zero mod P.
VANISHING_MOD_P = [(P, 0, 0, 0), (I_P, -1, 0, 0), (S_P, 0, -1, 0)]
NEAR_P = [(-1, 0, 0, 0), (-2, 0, 0, 0), (P - 1, 0, 0, 0), (2 * P - 3, 0, 0, 0)]
SPECIAL = VANISHING_MOD_P + NEAR_P
SHAPES = [(2, 4), (4, 4), (4, 7), (8, 32), (16, 16), (2, 128), (32, 32), (32, 8), (128, 2)]
# cells come from a seeded generator: drawing 1024 of them one by one overruns hypothesis
SEEDS = st.integers(0, 2**32)


def _to_field(q):
    a, b, c, d = q
    return (a + b * I_P + c * S_P + d * (I_P * S_P % P)) % P


def _assert_ranks_agree(flat, rows, cols):
    rank, det = bareiss(list(flat), rows, cols, det=False)
    assert det is None
    assert rank == _eliminate(list(flat), rows, cols)[0]
    assert rank == len(echelon(list(flat), rows, cols)[1])
    assert rank == ref_rank_exact(quad_matrix_to_scalars(flat, rows, cols))


def _small_quads(span):
    return st.tuples(*[st.integers(-span, span)] * 4)


@st.composite
def matrices(draw, entries):
    rows = draw(st.integers(1, MAX_DIM))
    cols = draw(st.integers(1, MAX_DIM))
    flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return flat, rows, cols


@st.composite
def outer_product_sums(draw):
    rows = draw(st.integers(1, MAX_DIM))
    cols = draw(st.integers(1, MAX_DIM))
    r = draw(st.integers(0, min(rows, cols)))
    quads = _small_quads(2)
    left = draw(st.lists(st.lists(quads, min_size=r, max_size=r), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(quads, min_size=cols, max_size=cols), min_size=r, max_size=r))
    flat = []
    for i in range(rows):
        for j in range(cols):
            acc = ZERO4
            for k in range(r):
                t = mul4(left[i][k], right[k][j])
                acc = tuple(x + y for x, y in zip(acc, t))
            flat.append(acc)
    return flat, rows, cols


@st.composite
def sparse_matrices(draw):
    """GHZ/W-like support: a few nonzero cells, whole zero rows and columns."""
    rows = draw(st.integers(1, MAX_DIM))
    cols = draw(st.integers(1, MAX_DIM))
    cells = draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), _small_quads(2)),
        max_size=rows + cols,
    ))
    flat = [ZERO4] * (rows * cols)
    for i, j, q in cells:
        flat[i * cols + j] = q
    return flat, rows, cols


@settings(max_examples=150, deadline=None)
@given(matrices(_small_quads(3)))
def test_random_matrices(case):
    _assert_ranks_agree(*case)


@settings(max_examples=150, deadline=None)
@given(outer_product_sums())
def test_sums_of_outer_products(case):
    _assert_ranks_agree(*case)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_matrices_with_zero_rows_and_columns(case):
    _assert_ranks_agree(*case)


@settings(max_examples=60, deadline=None)
@given(matrices(st.tuples(*[st.integers(-(2**80), 2**80)] * 4)))
def test_entries_up_to_2_to_the_80(case):
    _assert_ranks_agree(*case)


def test_constants():
    assert P < 2**31 and P % 8 == 1
    assert all(P % d for d in range(2, int(P**0.5) + 1))
    assert I_P * I_P % P == P - 1
    assert S_P * S_P % P == 2


def test_field_map_is_a_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(500):
        x = tuple(rng.randint(-(2**40), 2**40) for _ in range(4))
        y = tuple(rng.randint(-(2**40), 2**40) for _ in range(4))
        assert _to_field(mul4(x, y)) == _to_field(x) * _to_field(y) % P
        s = tuple(u + v for u, v in zip(x, y))
        assert _to_field(s) == (_to_field(x) + _to_field(y)) % P


@pytest.mark.parametrize("q", VANISHING_MOD_P)
def test_fallback_runs_when_mod_p_rank_falls_short(q, eliminate_calls):
    assert _to_field(q) == 0
    one = (1, 0, 0, 0)
    assert bareiss([q, ZERO4, ZERO4, one], 2, 2, det=False) == (2, None)
    assert eliminate_calls == [(2, 2)]
    # zero rows and columns are dropped before the fallback sees the matrix
    flat = [q, ZERO4, ZERO4, ZERO4, ZERO4, ZERO4, ZERO4, ZERO4, one]
    assert bareiss(flat, 3, 3, det=False) == (2, None)
    assert bareiss(flat[:6] + [ZERO4, ZERO4], 2, 4)[0] == 1
    assert eliminate_calls == [(2, 2), (2, 2)]


def test_rank_deficient_matrix_takes_the_stacked_proof(eliminate_calls, stacked_ranks):
    row = [(1, 2, 0, -1), (3, 0, 1, 0), (0, 0, 0, 5)]
    assert bareiss(row + row, 2, 3, det=False) == (1, None)
    assert stacked_ranks == [[1]] and eliminate_calls == []


def test_full_rank_matrix_is_certified_without_fallback(eliminate_calls):
    rng = random.Random(3)
    flat = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(16 * 16)]
    assert bareiss(flat, 16, 16, det=False) == (16, None)
    assert bareiss(flat[: 4 * 16], 4, 16, det=False) == (4, None)
    assert eliminate_calls == []


def test_determinants_come_only_from_exact_elimination(eliminate_calls):
    rng = random.Random(5)
    for n in range(1, 5):
        flat = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(n * n)]
        assert bareiss(flat, n, n) == _eliminate(flat, n, n)
    assert eliminate_calls == [(n, n) for n in range(1, 5)]
    flat = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(6)]
    assert bareiss(flat, 2, 3) == (2, ZERO4)
    assert bareiss(flat, 3, 2, det=False) == (2, None)


def _cell(rng, special):
    return rng.choice(SPECIAL) if rng.random() < special else _small(rng)


@st.composite
def special_matrices(draw):
    rows, cols = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(SEEDS))
    special = draw(st.sampled_from((0.0, 0.05, 0.5, 1.0)))
    return [_cell(rng, special) for _ in range(rows * cols)], rows, cols


@st.composite
def special_outer_product_sums(draw):
    """Rank at most r: sums of r outer products, some of them special."""
    rows, cols = draw(st.sampled_from(SHAPES))
    r = draw(st.integers(0, min(rows, cols, 12)))
    rng = random.Random(draw(SEEDS))
    special = draw(st.sampled_from((0.0, 0.1)))
    left = [[_cell(rng, special) for _ in range(r)] for _ in range(rows)]
    right = [[_cell(rng, special) for _ in range(cols)] for _ in range(r)]
    return _outer_sum(left, right) if r else [ZERO4] * (rows * cols), rows, cols


@st.composite
def special_sparse_matrices(draw):
    """GHZ/W-like support, some cells special."""
    rows, cols = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(SEEDS))
    count = draw(st.integers(rows + cols, 4 * (rows + cols)))
    flat = [ZERO4] * (rows * cols)
    for _ in range(count):
        flat[rng.randrange(rows * cols)] = _cell(rng, 0.3)
    return flat, rows, cols


def _rank_mod_p(lines):
    """Reference rank mod P of an int matrix, by plain Gaussian elimination."""
    rows = [[v % P for v in line] for line in lines]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((k for k in range(rank, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        inv = pow(rows[rank][c], -1, P)
        for other in rows[rank + 1:]:
            f = other[c] * inv % P
            other[:] = [(v - f * w) % P for v, w in zip(other, rows[rank])]
        rank += 1
    return rank


def _assert_pivots_agree(flat, rows, cols):
    rank, det = bareiss(list(flat), rows, cols, det=False)
    assert det is None
    assert rank == _eliminate(list(flat), rows, cols)[0]
    res = residues_p(flat)
    assert residues_mod(quad_array(flat), P_ROW)[0].tolist() == (res % P).tolist()
    assert res.dtype == np.int64 and 0 <= res.min() and res.max() <= P
    assert (res != 0).tolist() == [any(q) for q in flat]  # the support is exact
    assert bareiss(list(flat), rows, cols, det=False, res=res) == (rank, None)
    m = res.reshape(rows, cols)
    pivot_rows, pivot_cols = _pivots_mod_p_int64(m)
    r = len(pivot_rows)
    assert r == len(pivot_cols) == _rank_mod_p(m.tolist()) <= rank
    assert _rank_mod_p(m[pivot_rows][:, pivot_cols].tolist()) == r  # det != 0 mod P
    assert np.array_equal(m, residues_p(flat).reshape(rows, cols))  # not modified


@settings(max_examples=40, deadline=None)
@given(special_matrices())
def test_random_matrices_with_special_cells(case):
    _assert_pivots_agree(*case)


@settings(max_examples=40, deadline=None)
@given(special_outer_product_sums())
def test_sums_of_outer_products_with_special_cells(case):
    _assert_pivots_agree(*case)


@settings(max_examples=40, deadline=None)
@given(special_sparse_matrices())
def test_sparse_matrices_with_special_cells(case):
    _assert_pivots_agree(*case)


def test_residues_near_p_stay_reduced():
    # every cell at P - 1: the first update multiplies (P - 1) by (P - 1)
    flat = [(-1, 0, 0, 0)] * (16 * 16)
    assert residues_mod(quad_array(flat[:1]), P_ROW)[0].tolist() == [P - 1]
    m = np.full((16, 16), P - 1, dtype=np.int64)
    assert _pivots_mod_p_int64(m) == ([0], [0])
    assert bareiss(flat, 16, 16, det=False) == (1, None)
    m[np.arange(16), np.arange(16)] = P - 2  # -(J + I), of determinant 17 mod P
    assert len(_pivots_mod_p_int64(m)[0]) == 16


def test_vanishing_line_falls_back_to_exact_rank():
    # row 5 is nonzero exactly but zero mod P, so F_P sees rank 15 of 16
    flat = [((i * 16 + j) % 7 - 3 + 20 * (i == j), 0, 0, 0) for i in range(16) for j in range(16)]
    flat[5 * 16:6 * 16] = [VANISHING_MOD_P[j % 3] for j in range(16)]
    m = residues_p(flat).reshape(16, 16)
    assert m[5].tolist() == [P] * 16  # nonzero, but 0 mod P
    pivot_rows, pivot_cols = _pivots_mod_p_int64(m)
    assert len(pivot_rows) == 15 and 5 not in pivot_rows
    assert bareiss(flat, 16, 16, det=False)[0] == _eliminate(flat, 16, 16)[0] == 16
    # the same line as a column survives the support check too
    transposed = [flat[j * 16 + i] for i in range(16) for j in range(16)]
    assert bareiss(transposed, 16, 16, det=False)[0] == 16
