"""The stacked rank mod Q agrees with plain elimination mod Q and is only a floor.

``ranks_mod_q`` ranks a (B, rows, cols) stack with delayed reduction: only
the pivot row and the pivot column are reduced mod Q, every other entry
grows by less than Q**2 per update.  Each stack below mixes ranks in one
batch (sums of r outer products, r drawn per matrix, zero matrices
included) in tall, square and wide shapes, and is compared with a plain
Gaussian elimination mod Q, with ``_eliminate`` and with
``_pivots_mod_p_int64``.  On small entries a rank mod Q falls short of the
exact rank with probability about 1/Q per matrix, so there they must agree;
with cells that vanish mod Q but not mod P the rank mod Q may fall short,
and ``bareiss`` given it as ``floor`` must still return the exact rank,
through the F_P route.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank._kernels as kernels
from sloccrank._kernels import (
    I_Q,
    P,
    P_ROW,
    Q,
    Q_ROW,
    S_Q,
    ZERO4,
    _eliminate,
    _pivots_mod_p_int64,
    bareiss,
    quad_array,
    ranks_mod_q,
    residues_mod,
)
from _oracles import residues_p, residues_q
from sloccrank.states import QUBIT_CAP
from test_rank_certificate import _outer_sum, _small

SHAPES = [(1, 5), (4, 4), (4, 8), (8, 4), (8, 32), (16, 16), (32, 8), (2, 64), (64, 2)]
SEEDS = st.integers(0, 2**32)  # cells come from a seeded generator, as in test_modular_rank
# nonzero in Z[i, sqrt2] but zero mod Q (each is nonzero mod P)
VANISHING_MOD_Q = [(Q, 0, 0, 0), (I_Q, -1, 0, 0), (S_Q, 0, -1, 0), (0, Q, 0, 0)]


def _rank_mod(lines, p):
    """Reference rank mod p of an int matrix, by plain Gaussian elimination."""
    rows = [[v % p for v in line] for line in lines]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((k for k in range(rank, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for other in rows[rank + 1:]:
            f = other[c] * inv % p
            other[:] = [(v - f * w) % p for v, w in zip(other, rows[rank])]
        rank += 1
    return rank


def _stack_case(rng, rows, cols, count, special):
    """``count`` matrices, each a sum of its own number of outer products
    (0 gives a zero matrix); a cell of a factor is special (vanishing mod
    Q) with probability ``special``."""
    def cell():
        return rng.choice(VANISHING_MOD_Q) if rng.random() < special else _small(rng, 2)

    out = []
    for _ in range(count):
        r = rng.randint(0, min(rows, cols, 6))
        left = [[cell() for _ in range(r)] for _ in range(rows)]
        right = [[cell() for _ in range(cols)] for _ in range(r)]
        out.append(_outer_sum(left, right) if r else [ZERO4] * (rows * cols))
    return out


@st.composite
def stacks(draw, special):
    rows, cols = draw(st.sampled_from(SHAPES))
    count = draw(st.integers(1, 5))
    return _stack_case(random.Random(draw(SEEDS)), rows, cols, count, special), rows, cols


def _floors(flats, rows, cols):
    m = residues_mod(quad_array(flats), Q_ROW)[0]
    assert m.tolist() == [residues_q(flat).tolist() for flat in flats]
    m = m.reshape(-1, rows, cols)
    floors = ranks_mod_q(m.copy()).tolist()
    assert floors == [_rank_mod(x.tolist(), Q) for x in m]
    return floors


@settings(max_examples=80, deadline=None)
@given(stacks(special=0.0))
def test_mixed_rank_stacks_agree_with_exact_and_f_p_ranks(case):
    flats, rows, cols = case
    floors = _floors(flats, rows, cols)
    for flat, floor in zip(flats, floors):
        exact = _eliminate(flat, rows, cols)[0]
        assert floor == exact
        assert len(_pivots_mod_p_int64(residues_p(flat).reshape(rows, cols))[0]) == exact
        assert bareiss(flat, rows, cols, det=False, floor=floor) == (exact, None)


@settings(max_examples=60, deadline=None)
@given(stacks(special=0.3))
def test_cells_vanishing_mod_q_still_give_the_exact_rank(case):
    flats, rows, cols = case
    for flat, floor in zip(flats, _floors(flats, rows, cols)):
        exact = _eliminate(flat, rows, cols)[0]
        assert floor <= exact
        assert bareiss(flat, rows, cols, det=False, floor=floor) == (exact, None)


def test_a_spurious_floor_takes_the_f_p_route(monkeypatch):
    """A diagonal entry Q is 0 mod Q only: the floor falls one short, and F_P decides."""
    flat = [(1, 0, 0, 0) if i == j else ZERO4 for i in range(4) for j in range(4)]
    flat[5] = (Q, 0, 0, 0)
    floor = int(ranks_mod_q(residues_q(flat).reshape(1, 4, 4))[0])
    assert floor == 3
    calls = []
    real = kernels._pivots_mod_p_int64
    monkeypatch.setattr(kernels, "_pivots_mod_p_int64", lambda m: calls.append(m) or real(m))
    assert bareiss(flat, 4, 4, det=False, floor=floor) == (4, None)
    assert len(calls) == 1


def test_full_floor_runs_no_f_p_elimination(monkeypatch):
    monkeypatch.setattr(kernels, "_pivots_mod_p_int64", lambda m: pytest.fail("ran F_P"))
    rng = random.Random(4)
    flat = [_small(rng) for _ in range(4 * 8)]
    flat[3 * 8:] = [ZERO4] * 8  # a zero row: full is min(3, 8)
    assert bareiss(flat, 4, 8, det=False, floor=3) == (3, None)


def test_a_bound_equal_to_the_floor_proves_it_without_f_p(monkeypatch):
    """A 4 x 4 cross (row 0 and column 0, as in a W state's splits): term rank 2."""
    monkeypatch.setattr(kernels, "_pivots_mod_p_int64", lambda m: pytest.fail("ran F_P"))
    flat = [ZERO4] * 16
    for k in range(4):
        flat[k * 4] = (k + 1, 0, 0, 0)
        flat[k] = (k + 1, 1, 0, 0)
    assert bareiss(flat, 4, 4, det=False, floor=2) == (2, None)
    assert bareiss(flat, 4, 4, det=False, cap=lambda r: 2, floor=2) == (2, None)


def test_a_bound_below_the_floor_raises():
    rng = random.Random(5)
    flat = [_small(rng) for _ in range(8 * 8)]
    with pytest.raises(ArithmeticError, match="below the floor 3"):
        bareiss(flat, 8, 8, det=False, cap=lambda r: 2, floor=3)


def test_residues_near_q_stay_exact_under_delayed_reduction():
    """Entries Q - 1 and Q - 2 give the largest updates; 32 rows of them."""
    rng = np.random.default_rng(7)
    m = Q - 1 - rng.integers(0, 2, size=(6, 32, 48), dtype=np.int64)
    m[1, 5] = m[1, 2]  # rank 31
    m[2] = 0
    m[3, :, :] = m[3, :1, :]  # rank 1
    want = [_rank_mod(x.tolist(), Q) for x in m]
    assert ranks_mod_q(m.copy()).tolist() == want
    assert want[2] == 0 and want[3] == 1 and want[1] <= 31


def test_tall_and_empty_stacks():
    rng = np.random.default_rng(8)
    m = rng.integers(0, Q, size=(3, 9, 4), dtype=np.int64)
    assert ranks_mod_q(m.copy()).tolist() == [4, 4, 4]
    assert ranks_mod_q(np.zeros((0, 4, 4), dtype=np.int64)).tolist() == []
    assert ranks_mod_q(np.zeros((2, 0, 3), dtype=np.int64)).tolist() == [0, 0]


def test_constants():
    assert Q < 2**20 and Q % 8 == 1
    assert all(Q % d for d in range(2, int(Q**0.5) + 1))
    assert I_Q * I_Q % Q == Q - 1
    assert S_Q * S_Q % Q == 2
    assert Q != P
    # delayed reduction: a wide split matrix of a QUBIT_CAP-qubit state has at
    # most 2**(QUBIT_CAP // 2) rows, each entry taking at most one update per row
    assert Q + (1 << (QUBIT_CAP // 2)) * (Q - 1) ** 2 < 2**63


def test_field_map_mod_q_is_a_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(200):
        x, y = _small(rng, 50), _small(rng, 50)
        prod = kernels.mul4(x, y)
        got = residues_mod(quad_array([x, y, prod]), Q_ROW)[0].tolist()
        assert got == residues_q([x, y, prod]).tolist()
        assert got[2] == got[0] * got[1] % Q
    vanishing = quad_array(VANISHING_MOD_Q)
    assert residues_mod(vanishing, Q_ROW)[0].tolist() == [0] * len(VANISHING_MOD_Q)
    assert all(residues_mod(vanishing, P_ROW)[0])  # nonzero mod P
