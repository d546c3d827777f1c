"""``rank_signature`` ranks one split per qubit-symmetry orbit.

The swaps of qubits that fix a state's exact amplitude tensor join its
qubits into classes (``coeffmatrix._qubit_classes``), and a split's rank
then depends only on how many qubits of each class it takes
(``coeffmatrix._orbits``).  The classes are checked against every swap
applied by ``permute_qubits``, the orbits against every class-keeping
permutation, and each orbit-reduced signature against the full one, with
detection patched off, on fresh copies of the same state.
"""

import itertools
import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank.coeffmatrix as coeffmatrix
from sloccrank._kernels import P
from sloccrank.coeffmatrix import (
    _canonical_plans,
    _orbits,
    _qubit_classes,
    _split_key,
    rank_signature,
)
from sloccrank.scalars import ExactScalar
from sloccrank.states import (
    PureState,
    QubitPermutation,
    permute_qubits,
    product_state,
    random_exact_state,
    state,
)
from test_stack_certificate import _dicke, _scalar

SEEDS = st.integers(0, 2**32)


def _ghz(n, rng):
    return state(n, [_scalar(rng)] + [0] * ((1 << n) - 2) + [_scalar(rng)])


def _w(n, rng):
    """The W state with one common weight: symmetric, unlike distinct weights."""
    common = _scalar(rng)
    return state(n, [common if i and not i & (i - 1) else 0 for i in range(1 << n)])


def _dicke_state(n, rng):
    return _dicke(n, rng.randint(1, n - 1), _scalar(rng))


SYMMETRIC = {"ghz": _ghz, "w": _w, "dicke": _dicke_state}


@contextmanager
def _no_detection():
    """Every qubit its own class: ``rank_signature`` ranks every split."""
    with mock.patch.object(coeffmatrix, "_qubit_classes", lambda psi: tuple(range(psi.n))):
        yield


def _fresh(psi):
    return PureState(psi.n, psi.amps, psi.labels)


def _swap_classes(psi):
    """The classes of qubits joined by the swaps that fix ``psi``, each swap
    applied by ``permute_qubits``, numbered as ``_qubit_classes`` numbers them."""
    parent = list(range(psi.n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(psi.n), 2):
        swap = QubitPermutation.transposition(psi.n, i + 1, j + 1)
        if permute_qubits(psi, swap).amps == psi.amps:
            parent[find(j)] = find(i)
    ids = {}
    return tuple(ids.setdefault(find(i), len(ids)) for i in range(psi.n))


def _assert_orbit_reduced_matches_full(psi):
    classes = _qubit_classes(psi)
    assert classes == _swap_classes(psi)
    reduced = rank_signature(_fresh(psi))
    with _no_detection():
        full = rank_signature(_fresh(psi))
    assert reduced == full and reduced.ranks == full.ranks
    return classes


@st.composite
def symmetric_states(draw, n_range=(2, 10)):
    kind = draw(st.sampled_from(sorted(SYMMETRIC)))
    return SYMMETRIC[kind](draw(st.integers(*n_range)), random.Random(draw(SEEDS)))


@st.composite
def products_of_equal_blocks(draw):
    """m >= 2 copies of one block of b qubits on shuffled qubits, m * b <= 10;
    the block is GHZ, equal-weight W, Dicke or random (no symmetry)."""
    b = draw(st.integers(1, 4))
    m = draw(st.integers(2, 10 // b))
    rng = random.Random(draw(SEEDS))
    kind = draw(st.sampled_from(sorted(SYMMETRIC) + ["random"]))
    if b == 1 or kind == "random":
        block = random_exact_state(b, rng)
    else:
        block = SYMMETRIC[kind](b, rng)
    order = list(range(1, m * b + 1))
    rng.shuffle(order)
    factors = [(block, tuple(sorted(order[k * b:(k + 1) * b]))) for k in range(m)]
    return product_state(factors, m * b)


@settings(max_examples=30, deadline=None)
@given(symmetric_states())
def test_symmetric_states_are_one_class_and_match_the_full_signature(psi):
    assert _assert_orbit_reduced_matches_full(psi) == (0,) * psi.n


@settings(max_examples=30, deadline=None)
@given(products_of_equal_blocks())
def test_products_of_equal_blocks_match_the_full_signature(psi):
    _assert_orbit_reduced_matches_full(psi)


@settings(max_examples=30, deadline=None)
@given(symmetric_states(n_range=(3, 10)), SEEDS)
def test_one_amplitude_off_symmetric_splits_the_qubits_it_tells_apart(psi, seed):
    """Changing the amplitude of |x> keeps only the swaps within the qubits
    x sets and within those it clears; no class may join the two."""
    rng = random.Random(seed)
    x = rng.randrange(1, (1 << psi.n) - 1)
    amps = list(psi.amps)
    amps[x] = amps[x] + _scalar(rng)
    if not any(amps):
        return
    near = state(psi.n, amps)
    classes = _assert_orbit_reduced_matches_full(near)
    bits = [x >> (psi.n - 1 - i) & 1 for i in range(psi.n)]
    for i, j in itertools.combinations(range(psi.n), 2):
        if bits[i] != bits[j]:
            assert classes[i] != classes[j]


def test_a_symmetric_state_off_by_its_weights_finds_no_class():
    """W_5 with weights 1..5: every swap moves a weight, so no class forms."""
    psi = state(5, [(i).bit_length() if i and not i & (i - 1) else 0 for i in range(32)])
    assert _assert_orbit_reduced_matches_full(psi) == tuple(range(5))


@pytest.mark.parametrize("n, plus_p, weight_one, classes", [
    (2, 1, [2], (0, 1)),
    (4, 1, [2], (0, 1, 2, 2)),
    (6, 4, [1, 2, 3, 5, 6], (0, 0, 0, 1, 0, 0)),
])
def test_residues_that_match_do_not_merge_unequal_quadruples(n, plus_p, weight_one, classes):
    """Amplitude 1 + P on |e_plus_p> and 1 on each |e_q>, q in ``weight_one``:
    every amplitude is 1 mod P, so the residues pass every swap of those
    qubits, and only the exact quadruples keep ``plus_p`` apart."""
    amps = [0] * (1 << n)
    amps[1 << (n - plus_p)] = 1 + P
    for q in weight_one:
        amps[1 << (n - q)] = 1
    psi = state(n, amps)
    res = psi.residues
    assert all(np.array_equal(res, res.swapaxes(plus_p - 1, q - 1)) for q in weight_one)
    assert _assert_orbit_reduced_matches_full(psi) == classes


def _brute_force_orbits(n, classes):
    """The orbits of the canonical splits under every class-keeping
    permutation of the qubits, as sets of canonical keys."""
    perms = [
        p for p in itertools.permutations(range(n))
        if all(classes[p[i]] == classes[i] for i in range(n))
    ]
    everyone = set(range(1, n + 1))
    orbits = set()
    for plan in _canonical_plans(n):
        images = set()
        for p in perms:
            side = tuple(p[b - 1] + 1 for b in plan.key)
            images.add(_split_key(side, tuple(everyone - set(side))))
        orbits.add(frozenset(images))
    return orbits


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
def test_orbits_are_those_of_every_class_keeping_permutation(labels):
    n = len(labels)
    ids = {}
    classes = tuple(ids.setdefault(c, len(ids)) for c in labels)
    plans = _canonical_plans(n)
    orbits = _orbits(n, classes)
    assert sorted(i for orbit in orbits for i in orbit) == list(range(len(plans)))
    assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
    assert all(list(orbit) == sorted(orbit) for orbit in orbits)
    got = {frozenset(plans[i].key for i in orbit) for orbit in orbits}
    assert got == _brute_force_orbits(n, classes)


def test_a_symmetric_signature_ranks_one_split_per_orbit(monkeypatch):
    """D(10, 4) is dense enough for the mod-Q stacks: only its five orbit
    representatives enter them, and five splits are ranked."""
    psi = _dicke(10, 4, ExactScalar(1))
    floors, ranked = [], []
    stacked, split_rank = coeffmatrix._stacked_floors, coeffmatrix._split_rank
    monkeypatch.setattr(
        coeffmatrix, "_stacked_floors", lambda pairs: floors.extend(pairs) or stacked(pairs)
    )
    monkeypatch.setattr(
        coeffmatrix,
        "_split_rank",
        lambda psi, plan, *a: ranked.append(plan.key) or split_rank(psi, plan, *a),
    )
    signature = rank_signature(psi)
    representatives = [tuple(range(1, s + 1)) for s in range(1, 6)]
    assert [plan.key for _, plan in floors] == ranked == representatives
    for key, r in signature.items():
        assert r == min(len(key), 10 - len(key), 4, 6) + 1
