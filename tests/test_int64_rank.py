"""The int64 F_P route agrees with the list route and with exact elimination.

``tests/test_modular_rank.py`` stays below ``INT64_MIN_CELLS``; these
matrices are large enough that ``_certified_rank`` takes the int64 route.
Cells mix small quadruples with entries that are nonzero but vanish mod P
and with entries whose residues sit just below P, the values that would
overflow an int64 product if an update were left unreduced.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank._kernels as kernels
from sloccrank._kernels import (
    I_P,
    INT64_MIN_CELLS,
    P,
    S_P,
    ZERO4,
    _eliminate,
    _full_rank_mod_p,
    _pivots_mod_p_int64,
    bareiss,
    mul4,
    residues,
)

# Nonzero in Z[i, sqrt2] but zero mod P (as in test_modular_rank.py).
VANISHING_MOD_P = [(P, 0, 0, 0), (I_P, -1, 0, 0), (S_P, 0, -1, 0)]
NEAR_P = [(-1, 0, 0, 0), (-2, 0, 0, 0), (P - 1, 0, 0, 0), (2 * P - 3, 0, 0, 0)]
SPECIAL = VANISHING_MOD_P + NEAR_P
SHAPES = [(8, 32), (16, 16), (2, 128), (32, 32), (32, 8), (128, 2)]
# cells come from a seeded generator: drawing 1024 of them one by one overruns hypothesis
SEEDS = st.integers(0, 2**32)


def _small(rng, span=3):
    return tuple(rng.randint(-span, span) for _ in range(4))


def _cell(rng, special):
    return rng.choice(SPECIAL) if rng.random() < special else _small(rng)


@st.composite
def random_matrices(draw):
    rows, cols = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(SEEDS))
    special = draw(st.sampled_from((0.0, 0.05, 0.5, 1.0)))
    return [_cell(rng, special) for _ in range(rows * cols)], rows, cols


@st.composite
def outer_product_sums(draw):
    """Rank at most r: sums of r outer products, some of them special."""
    rows, cols = draw(st.sampled_from(SHAPES))
    r = draw(st.integers(0, min(rows, cols, 12)))
    rng = random.Random(draw(SEEDS))
    special = draw(st.sampled_from((0.0, 0.1)))
    left = [[_cell(rng, special) for _ in range(r)] for _ in range(rows)]
    right = [[_cell(rng, special) for _ in range(cols)] for _ in range(r)]
    flat = []
    for i in range(rows):
        for j in range(cols):
            acc = ZERO4
            for k in range(r):
                t = mul4(left[i][k], right[k][j])
                acc = (acc[0] + t[0], acc[1] + t[1], acc[2] + t[2], acc[3] + t[3])
            flat.append(acc)
    return flat, rows, cols


@st.composite
def sparse_matrices(draw):
    """GHZ/W-like support, with enough nonzero cells to stay on the int64 route."""
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


def _compressed_cells(flat, rows, cols):
    nonzero_rows = sum(1 for i in range(rows) if any(map(any, flat[i * cols:(i + 1) * cols])))
    nonzero_cols = sum(1 for j in range(cols) if any(map(any, flat[j::cols])))
    return nonzero_rows * nonzero_cols


def _assert_routes_agree(flat, rows, cols):
    rank, det = bareiss(list(flat), rows, cols, det=False)
    assert det is None
    assert rank == _eliminate(list(flat), rows, cols)[0]
    res = residues(flat)
    assert res.dtype == np.int64 and 0 <= res.min() and res.max() <= P
    assert (res != 0).tolist() == [any(q) for q in flat]  # the support is exact
    assert bareiss(list(flat), rows, cols, det=False, res=res) == (rank, None)
    m = res.reshape(rows, cols)
    pivot_rows, pivot_cols = _pivots_mod_p_int64(m)
    r = len(pivot_rows)
    assert (r == min(rows, cols)) == _full_rank_mod_p(m.tolist(), cols)
    assert r == len(pivot_cols) == _rank_mod_p(m.tolist()) <= rank
    assert _full_rank_mod_p(m[np.ix_(pivot_rows, pivot_cols)].tolist(), r)  # det != 0 mod P
    assert np.array_equal(m, residues(flat).reshape(rows, cols))  # not modified


@settings(max_examples=40, deadline=None)
@given(random_matrices())
def test_random_matrices(case):
    assert _compressed_cells(*case) >= INT64_MIN_CELLS
    _assert_routes_agree(*case)


@settings(max_examples=40, deadline=None)
@given(outer_product_sums())
def test_sums_of_outer_products(case):
    _assert_routes_agree(*case)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices())
def test_sparse_matrices(case):
    assert _compressed_cells(*case) >= INT64_MIN_CELLS
    _assert_routes_agree(*case)


def test_residues_near_p_stay_reduced():
    # every cell at P - 1: the first update multiplies (P - 1) by (P - 1)
    flat = [(-1, 0, 0, 0)] * (16 * 16)
    assert residues(flat[:1]).tolist() == [P - 1]
    m = np.full((16, 16), P - 1, dtype=np.int64)
    assert _pivots_mod_p_int64(m) == ([0], [0])
    assert bareiss(flat, 16, 16, det=False) == (1, None)
    m[np.arange(16), np.arange(16)] = P - 2  # -(J + I), of determinant 17 mod P
    assert len(_pivots_mod_p_int64(m)[0]) == 16


def test_vanishing_line_falls_back_to_exact_rank():
    # row 5 is nonzero exactly but zero mod P, so F_P sees rank 15 of 16
    flat = [((i * 16 + j) % 7 - 3 + 20 * (i == j), 0, 0, 0) for i in range(16) for j in range(16)]
    flat[5 * 16:6 * 16] = [VANISHING_MOD_P[j % 3] for j in range(16)]
    m = residues(flat).reshape(16, 16)
    assert m[5].tolist() == [P] * 16  # nonzero, but 0 mod P
    pivot_rows, pivot_cols = _pivots_mod_p_int64(m)
    assert len(pivot_rows) == 15 and 5 not in pivot_rows
    assert not _full_rank_mod_p(m.tolist(), 16)
    assert bareiss(flat, 16, 16, det=False)[0] == _eliminate(flat, 16, 16)[0] == 16
    # the same line as a column survives the support check too
    transposed = [flat[j * 16 + i] for i in range(16) for j in range(16)]
    assert bareiss(transposed, 16, 16, det=False)[0] == 16


def _dense_block(rows, cols, pad=0):
    """J + I on a rows x cols block (no zero cell, full rank), padded by zero lines."""
    return [
        (1 + (i == j), 0, 0, 0) if i < rows and j < cols else ZERO4
        for i in range(rows + pad)
        for j in range(cols + pad)
    ]


def test_route_follows_the_compressed_size(monkeypatch):
    calls = []
    for name in ("_full_rank_mod_p", "_pivots_mod_p_int64"):
        def spy(*args, _name=name, _real=getattr(kernels, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(kernels, name, spy)
    assert INT64_MIN_CELLS == 32
    assert bareiss(_dense_block(4, 8), 4, 8, det=False) == (4, None)
    # zero rows and columns do not count towards the size
    assert bareiss(_dense_block(4, 8, pad=4), 8, 12, det=False) == (4, None)
    assert calls == ["_pivots_mod_p_int64"] * 2
    calls.clear()
    assert bareiss(_dense_block(4, 7), 4, 7, det=False) == (4, None)
    assert bareiss(_dense_block(4, 7, pad=4), 8, 11, det=False) == (4, None)
    assert calls == ["_full_rank_mod_p"] * 2
