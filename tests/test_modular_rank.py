"""The certified mod-P rank route agrees with the exact Bareiss elimination.

Each matrix is also checked against the pivot count of ``echelon``, the
elimination loop behind ``_eliminate``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank._kernels as kernels
from sloccrank._kernels import I_P, IS_P, P, S_P, ZERO4, _eliminate, bareiss, echelon, mul4
from _oracles import quad_matrix_to_scalars, ref_rank_exact

MAX_DIM = 6


def _to_field(q):
    a, b, c, d = q
    return (a + b * I_P + c * S_P + d * IS_P) % P


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
    assert IS_P == I_P * S_P % P


def test_field_map_is_a_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(500):
        x = tuple(rng.randint(-(2**40), 2**40) for _ in range(4))
        y = tuple(rng.randint(-(2**40), 2**40) for _ in range(4))
        assert _to_field(mul4(x, y)) == _to_field(x) * _to_field(y) % P
        s = tuple(u + v for u, v in zip(x, y))
        assert _to_field(s) == (_to_field(x) + _to_field(y)) % P


@pytest.fixture
def eliminate_calls(monkeypatch):
    calls = []

    def spy(entries, nrows, ncols):
        calls.append((nrows, ncols))
        return _eliminate(entries, nrows, ncols)

    monkeypatch.setattr(kernels, "_eliminate", spy)
    return calls


# Each of these is nonzero in Z[i, sqrt2] but vanishes mod P.
VANISHING_MOD_P = [(P, 0, 0, 0), (I_P, -1, 0, 0), (S_P, 0, -1, 0)]


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


def test_rank_deficient_matrix_takes_the_fallback(eliminate_calls):
    row = [(1, 2, 0, -1), (3, 0, 1, 0), (0, 0, 0, 5)]
    assert bareiss(row + row, 2, 3, det=False) == (1, None)
    assert eliminate_calls == [(2, 3)]


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
