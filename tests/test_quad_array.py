"""An exact state's quadruple array at the edges of int64.

``PureState.cleared`` stores the quadruples as int64 only when every
component lies strictly inside (-2**63, 2**63).  Each state below has one
component of 2**63 - 1 (the largest int64), of -2**63 (an int64 whose
``np.abs`` is itself, so it must be stored as Python ints) or of 2**70
(beyond int64), and is run through every route that reads the array:
the signatures, one lone and one batched (its floors and its shortfalls),
``det_coeff`` and ``apply_local``.  Each is checked against a reference
that never reads the array: ``ref_rank_exact`` and ``ref_det_leibniz`` on
the coefficient matrix's scalars, and the per-index operator loop.
"""

import random

import numpy as np
import pytest

from sloccrank._kernels import quad_array
from sloccrank.coeffmatrix import (
    coefficient_matrix,
    det_coeff,
    enumerate_bipartitions,
    rank_signature,
    rank_signatures,
)
from sloccrank.scalars import ExactScalar
from sloccrank.slocc import apply_local, random_invertible_local
from sloccrank.states import state
from _oracles import ref_apply_local, ref_det_leibniz, ref_rank_exact

EDGES = {2**63 - 1: np.int64, -(2**63): object, 2**70: object}


def _dense(v, rng):
    """Four qubits, small random amplitudes and ``v`` on |0000>: full rank."""
    amps = [ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(16)]
    return state(4, [ExactScalar(v)] + amps[1:])


def _product(v):
    """(v, 1) on qubit 1 times a signed 3-qubit vector: every component is
    +-v or +-1, and every split that separates qubit 1 has rank 1."""
    signs = [1, -1, 1, 1, -1, 1, 1, 1]
    return state(4, [x * s for x in (v, 1) for s in signs])


def _ghz_like(v):
    """v|0000> + |0011> + |1100> + |1111>: rank 2 on the splits 12|34 and 13|24
    below their full support, so they take a shortfall proof."""
    amps = [0] * 16
    amps[0], amps[3], amps[12], amps[15] = v, 1, 1, 1
    return state(4, amps)


def _states(v):
    return [_dense(v, random.Random(v % 1000)), _product(v), _ghz_like(v)]


def _reference_signature(psi):
    return {
        bp.canonical_key(): ref_rank_exact(coefficient_matrix(psi, bp.row_bits).entries)
        for bp in enumerate_bipartitions(psi.n)
    }


@pytest.mark.parametrize("v", sorted(EDGES))
def test_the_cleared_dtype(v):
    for psi in _states(v):
        quads, den = psi.cleared
        assert quads.dtype == EDGES[v] and quads.shape == (2, 2, 2, 2, 4)
        assert den == 1 and v in quads.reshape(-1).tolist()
    assert quad_array([(v, 0, 0, 0)]).dtype == EDGES[v]


@pytest.mark.parametrize("v", sorted(EDGES))
def test_signatures_lone_and_batched(v):
    lone, batched = _states(v), _states(v)
    want = [_reference_signature(psi) for psi in lone]
    assert any(r < 4 for sig in want for r in sig.values())  # shortfalls exist
    assert [rank_signature(psi).ranks for psi in lone] == want
    assert [sig.ranks for sig in rank_signatures(batched)] == want


@pytest.mark.parametrize("v", sorted(EDGES))
def test_det_coeff(v):
    for psi in _states(v):
        for half in ((1, 2), (1, 3), (1, 4)):
            assert det_coeff(psi, half) == ref_det_leibniz(coefficient_matrix(psi, half).entries)


@pytest.mark.parametrize("v", sorted(EDGES))
def test_apply_local(v):
    for seed, psi in enumerate(_states(v)):
        ops = random_invertible_local(4, seed)
        want = ref_apply_local(psi.amps, 4, [op.entries for op in ops.ops])
        assert list(apply_local(psi, ops).amps) == want
