"""The exact kernel agrees with reference oracles."""

import random

import numpy as np

from sloccrank._kernels import apply_single_qubit, bareiss, echelon, operator_stack
from sloccrank.scalars import ExactScalar
from _oracles import quad_matrix_to_scalars, ref_det_leibniz, ref_rank_exact


def _random_flat(rng, rows, cols, span=5):
    return [tuple(rng.randint(-span, span) for _ in range(4)) for _ in range(rows * cols)]


def test_rank_matches_division_based_elimination():
    rng = random.Random(23)
    for _ in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        flat = _random_flat(rng, rows, cols)
        got, _ = bareiss(list(flat), rows, cols)
        assert got == ref_rank_exact(quad_matrix_to_scalars(flat, rows, cols))


def test_det_matches_leibniz_expansion():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 4)
        flat = _random_flat(rng, n, n, span=3)
        _, det4 = bareiss(list(flat), n, n)
        assert ExactScalar(*det4) == ref_det_leibniz(quad_matrix_to_scalars(flat, n, n))


def test_rank_deficient_matrices():
    # duplicated rows force rank collapse
    row = [(1, 2, 0, -1), (3, 0, 1, 0)]
    flat = row + row
    assert bareiss(list(flat), 2, 2) == (1, (0, 0, 0, 0))
    zeros = [(0, 0, 0, 0)] * 6
    assert bareiss(zeros, 2, 3)[0] == 0


def test_unit_pivots_are_divided_out():
    # pivot i in step 1, then 1 + r2 in step 2: both have norm 1, but only
    # the sentinel before step 1 divides as the identity
    unit_i, one_plus_r2 = (0, 1, 0, 0), (1, 0, 1, 0)
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(3, 5)
        flat = _random_flat(rng, n, n, span=3)
        flat[0] = unit_i
        flat[n] = (0, 0, 0, 0)
        flat[n + 1] = (0, -1, 0, -1)  # i * (-i - i*r2) = 1 + r2
        m, pivots, sign = echelon(list(flat), n, n)
        assert m[0] == unit_i and m[n + 1] == one_plus_r2
        scalars = quad_matrix_to_scalars(flat, n, n)
        assert len(pivots) == ref_rank_exact(scalars)
        rank, det4 = bareiss(list(flat), n, n)
        assert rank == len(pivots)
        assert ExactScalar(*det4) == ref_det_leibniz(scalars)


def test_structured_low_rank_matrices():
    # sums of r rank-one outer products have rank exactly r (generically);
    # compare against the reference elimination instead of assuming it
    rng = random.Random(61)
    for _ in range(120):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 6)
        r = rng.randint(1, min(rows, cols))
        left = [[ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(r)]
                for _ in range(rows)]
        right = [[ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(cols)]
                 for _ in range(r)]
        entries = [
            [
                sum((left[i][k] * right[k][j] for k in range(r)), ExactScalar(0))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        flat = [e.quad for row_ in entries for e in row_]
        got, _ = bareiss(flat, rows, cols)
        assert got == ref_rank_exact(entries)
        assert got <= r


def test_apply_single_qubit_matches_field_arithmetic():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 4)
        b = rng.randint(1, 3)
        amps = [
            [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(1 << n)] for _ in range(b)
        ]
        ops = [[tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(4)] for _ in range(b)]
        target = rng.randrange(n)
        mats = operator_stack(np.array(ops, dtype=np.int64).reshape(b, 2, 2, 4))
        got = apply_single_qubit(np.array(amps, dtype=np.int64), target, mats).tolist()
        bit = 1 << (n - 1 - target)
        for vec, op, out in zip(amps, ops, got):
            o00, o01, o10, o11 = (ExactScalar(*q) for q in op)
            for w in range(1 << n):
                if w & bit:
                    continue
                x0, x1 = ExactScalar(*vec[w]), ExactScalar(*vec[w | bit])
                assert ExactScalar(*out[w]) == o00 * x0 + o01 * x1
                assert ExactScalar(*out[w | bit]) == o10 * x0 + o11 * x1
