"""The cleared form cached on exact states is invisible and rank-preserving.

``PureState.cleared`` (integer quadruples over one denominator plus F_P
residues) is computed once per state and gathered into each coefficient
matrix.  Neither the cache nor the gathered payload may change equality,
hashing, ``repr`` or any rank.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank._kernels import residues
from sloccrank.coeffmatrix import (
    CoefficientMatrix,
    coefficient_matrix,
    enumerate_bipartitions,
    rank,
)
from sloccrank.scalars import ExactScalar
from sloccrank.states import QubitPermutation, parse_state, permute_qubits, render_state, state

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
    quads, den, res = psi.cleared
    assert [ExactScalar(*q, den) for q in quads] == list(psi.amps)
    assert res.tolist() == residues(quads).tolist()
    assert psi.cleared is psi.cleared  # computed once


@settings(max_examples=60, deadline=None)
@given(exact_states())
def test_cache_is_invisible_to_equality_hash_and_repr(psi):
    text = render_state(psi)
    warm = parse_state(text)
    warm.cleared
    cold = parse_state(text)
    assert "cleared" in vars(warm) and "cleared" not in vars(cold)
    assert warm == cold and cold == warm
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert {warm: 1}[cold] == 1


@settings(max_examples=60, deadline=None)
@given(exact_states(), st.data())
def test_matrix_equality_ignores_the_gathered_payload(psi, data):
    n = psi.n
    row_bits = tuple(data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(0, n))])
    C = coefficient_matrix(psi, row_bits)
    assert C.cleared is not None
    bare = dataclasses.replace(C, cleared=None)
    assert C == bare and hash(C) == hash(bare) and repr(C) == repr(bare)
    assert isinstance(bare, CoefficientMatrix)
    # the gathered residues and the matrix's own clearing give the same rank
    assert rank(C) == rank(bare)
    quads, den, res = C.cleared
    flat = [e for row in C.entries for e in row]
    assert [ExactScalar(*q, den) for q in quads] == flat
    assert res.tolist() == residues(quads).tolist()


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
