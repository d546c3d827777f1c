"""The cleared form cached on exact states is invisible and rank-preserving.

``PureState.cleared`` (integer quadruples over one denominator, as one
(2, ..., 2, 4) array) is computed once per state and is the state's only
cleared form, and ``PureState.residues`` (its F_P images) is computed from
it on first use: ``split_rank`` and ``det_coeff`` read a split's cells
from them, while ``rank`` and ``transform_coefficient_matrix`` clear a
coefficient matrix's own entries.  The cache may not change equality,
hashing or ``repr``, and both routes must give the same ranks,
determinants and transforms.
"""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
from _oracles import residues_p
from sloccrank.coeffmatrix import (
    _det,
    coefficient_matrix,
    det_coeff,
    enumerate_bipartitions,
    rank,
    rank_signatures,
    split_rank,
)
from sloccrank.scalars import ExactScalar, common_denominator
from sloccrank.slocc import (
    apply_local,
    apply_local_many,
    random_invertible_local,
    transform_coefficient_matrix,
)
from sloccrank.states import (
    QubitPermutation,
    parse_state,
    permute_qubits,
    product_state,
    random_exact_state,
    render_state,
    state,
)

SMALL = st.integers(-3, 3)
SCALARS = st.builds(ExactScalar, SMALL, SMALL, SMALL, SMALL, st.integers(1, 4))


@st.composite
def exact_states(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    amps = draw(st.lists(SCALARS, min_size=1 << n, max_size=1 << n))
    if not any(amps):
        amps[0] = ExactScalar(1)
    return state(n, amps)


@settings(max_examples=60, deadline=None)
@given(exact_states())
def test_cleared_form_matches_the_amplitudes(psi):
    quads, den = psi.cleared
    assert quads.shape == (2,) * psi.n + (4,) and quads.dtype == np.int64  # qubit p on axis p - 1
    flat = quads.reshape(-1, 4).tolist()
    assert [ExactScalar(*q, den) for q in flat] == list(psi.amps)
    assert psi.residues.shape == (2,) * psi.n
    assert psi.residues.ravel().tolist() == residues_p(flat).tolist()
    assert psi.cleared is psi.cleared and psi.residues is psi.residues  # computed once


@settings(max_examples=60, deadline=None)
@given(exact_states())
def test_cache_is_invisible_to_equality_hash_and_repr(psi):
    text = render_state(psi)
    warm = parse_state(text)
    warm.residues
    cold = parse_state(text)
    assert {"cleared", "residues"} <= vars(warm).keys() and "cleared" not in vars(cold)
    assert warm == cold and cold == warm
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert {warm: 1}[cold] == 1


@settings(max_examples=40, deadline=None)
@given(exact_states(), st.data())
def test_matrix_routes_agree_with_the_state_routes(psi, data):
    n = psi.n
    for bp in enumerate_bipartitions(n):
        assert rank(coefficient_matrix(psi, bp.row_bits)) == split_rank(psi, bp.row_bits)
    if n % 2 == 0:
        for half in combinations(range(1, n + 1), n // 2):
            C = coefficient_matrix(psi, half)
            quads, den = common_denominator([e for row in C.entries for e in row])
            assert det_coeff(psi, half) == _det(quads, den, C.rows)
    row_bits = tuple(data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(0, n))])
    ops = random_invertible_local(n, data.draw(st.integers(0, 1 << 16)))
    T = coefficient_matrix(psi, row_bits).transpose()
    bp = T.bipartition
    rebuilt = coefficient_matrix(apply_local(psi, ops), bp.row_bits, bp.col_bits)
    assert transform_coefficient_matrix(T, ops) == rebuilt


@settings(max_examples=40, deadline=None)
@given(exact_states(max_n=5), st.data())
def test_ranks_follow_a_qubit_permutation(psi, data):
    n = psi.n
    perm = QubitPermutation(n, tuple(data.draw(st.permutations(range(1, n + 1)))))
    psi.cleared  # the original's cache is warm, the permuted state's is not
    phi = permute_qubits(psi, perm)
    for bp in enumerate_bipartitions(n):
        # qubit p of psi sits at position image[p - 1] of phi
        moved = tuple(perm.image[b - 1] for b in bp.row_bits)
        assert rank(coefficient_matrix(phi, moved)) == rank(coefficient_matrix(psi, bp.row_bits))


def test_applying_and_batch_ranking_compute_no_residues():
    """States only passed through ``apply_local_many``, or only ranked in a
    ``rank_signatures`` batch (floors and shortfalls), never compute their
    residues mod P."""
    rng = random.Random(3)
    states = [random_exact_state(n, rng) for n in (2, 3, 4, 5) for _ in range(3)]
    ops = [random_invertible_local(psi.n, k) for k, psi in enumerate(states)]
    moved = apply_local_many(list(zip(states, ops)))
    assert all("cleared" in vars(psi) and "residues" not in vars(psi) for psi in states)
    products = [product_state([(moved[k], (1, 3)), (moved[k + 1], (2, 4))], 4) for k in (0, 1)]
    signatures = rank_signatures(moved + products)
    assert all(sig[(1, 3)] == 1 for sig in signatures[-2:])  # shortfalls, proved in the batch
    assert all("residues" not in vars(psi) for psi in moved + products)
