"""Qubit classes and separability blocks against their union-find references.

``separability.partition_from_signature`` groups the qubits by their
membership over the rank-1 splits, and ``coeffmatrix._qubit_classes``
tests each qubit against the first qubit of each class found so far.
Both must give what the union-finds in ``_oracles`` give, with the same
numbering, and ``_qubit_classes`` must run no more swap tests
(``np.array_equal``) than its reference.
"""

import random
import string
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ref_partition_blocks, ref_qubit_classes
from sloccrank.coeffmatrix import RankSignature, _qubit_classes, enumerate_bipartitions
from sloccrank.separability import partition_from_signature
from sloccrank.states import QubitPermutation, permute_qubits, product_state, random_exact_state, state
from test_qubit_symmetry import SEEDS, SYMMETRIC, products_of_equal_blocks


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.data())
def test_blocks_of_any_rank_one_splits_match_union_find(n, data):
    keys = [bp.canonical_key() for bp in enumerate_bipartitions(n)]
    ones = data.draw(st.sets(st.sampled_from(keys), max_size=6)) if keys else set()
    sig = RankSignature(n, string.ascii_uppercase[:n], {k: 1 if k in ones else 2 for k in keys})
    assert partition_from_signature(sig).blocks == ref_partition_blocks(sig)


def _classes_and_swap_tests(classes, psi):
    calls = []
    real = np.array_equal
    with mock.patch.object(np, "array_equal", lambda *a, **k: calls.append(1) or real(*a, **k)):
        return classes(psi), len(calls)


def _assert_classes_match(psi):
    """The same classes as the reference, from no more swap tests."""
    psi.cleared  # built outside the spy
    want, ref_tests = _classes_and_swap_tests(ref_qubit_classes, psi)
    got, tests = _classes_and_swap_tests(_qubit_classes, psi)
    assert got == want and tests <= ref_tests
    return got


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), SEEDS)
def test_classes_of_random_states(n, seed):
    _assert_classes_match(random_exact_state(n, random.Random(seed)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SYMMETRIC)), st.integers(2, 8), st.integers(0, 3), SEEDS)
def test_classes_of_permuted_symmetric_states(kind, k, extra, seed):
    """A GHZ, W or Dicke block of k qubits beside ``extra`` random qubits,
    under a random permutation of all of them."""
    rng = random.Random(seed)
    n = k + extra
    factors = [(SYMMETRIC[kind](k, rng), tuple(range(1, k + 1)))]
    if extra:
        factors.append((random_exact_state(extra, rng), tuple(range(k + 1, n + 1))))
    image = list(range(1, n + 1))
    rng.shuffle(image)
    psi = permute_qubits(product_state(factors, n), QubitPermutation(n, tuple(image)))
    classes = _assert_classes_match(psi)
    assert len({classes[image[p] - 1] for p in range(k)}) == 1


@settings(max_examples=30, deadline=None)
@given(products_of_equal_blocks())
def test_classes_of_products_of_equal_blocks(psi):
    _assert_classes_match(psi)


def test_classes_of_a_state_beyond_int64():
    amps = [0] * 32
    amps[0b11000], amps[0b00100], amps[0b00011] = 2**70 + 1, 3, 1
    psi = state(5, amps)
    assert psi.cleared[0].dtype == object
    assert _assert_classes_match(psi) == (0, 0, 1, 2, 2)
