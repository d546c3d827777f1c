"""Rank shortfalls of state splits are proved from each split's own cells.

``stacked_rank`` takes the split's compressed cells, the F_P pivot lines
first, as a stack of one and reduces them modulo the table primes its
bound asks for; every split holds each amplitude of the state once, so
one bound per state, (T/s)**(2s) on the norm of every s-minor, covers
them all.  The differential suites compare every split rank with
``_eliminate`` on the split's cells; on products the upper bounds
(tested in ``test_rank_caps``) are switched off, so every shortfall
takes the proof, and a spy checks that it answered without elimination.
Dicke states keep shortfalls that no bound proves.  The fixed cases
repeat the edges of ``test_rank_certificate`` on state splits, and the
last ones pin what the proof reads and the work it must not add.
"""

import itertools
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank._kernels as kernels
from sloccrank._kernels import (
    I_P,
    P,
    PRIME_TABLE,
    S_P,
    _eliminate,
    _norm_bits,
    _pivots_mod_p_int64,
    adjoint_and_norm,
    residues_mod,
)
from _oracles import residues_p
from sloccrank.coeffmatrix import SplitCells, _canonical_plans, rank_signature, split_rank
from sloccrank.scalars import ExactScalar
from sloccrank.states import product_state, random_exact_state, state
from test_rank_certificate import (
    ONES,
    _add,
    _nonzero,
    _ones_with_corner,
    _outer_sum,
    _table_primes_needed,
    _total,
    _two_rows_with_minor,
    _vanishing_under,
)

SEEDS = st.integers(0, 2**32)


@pytest.fixture
def reduced(monkeypatch):
    """(index in ``PRIME_TABLE`` of the first prime, count) of every ``residues_mod`` call."""
    table = [p for p, _, _ in PRIME_TABLE]
    calls = []

    def spy(q, primes):
        calls.append((table.index(int(primes[0, 0])), len(primes)))
        return residues_mod(q, primes)

    monkeypatch.setattr(kernels, "residues_mod", spy)
    return calls


def _scalar(rng, span=2):
    """A nonzero scalar; about half of them with nonzero sqrt2 and i*sqrt2 parts."""
    while True:
        parts = [rng.randint(-span, span) for _ in range(4)]
        if rng.random() < 0.5:
            parts[2:] = 0, 0
        if any(parts):
            return ExactScalar(*parts)


def _factor(kind, size, rng):
    """A factor state of ``size`` qubits with at least two nonzero amplitudes."""
    amps = [ExactScalar(0)] * (1 << size)
    if kind == "ghz":
        support = [0, (1 << size) - 1]
    elif kind == "w":
        support = [1 << k for k in range(size)]
    elif kind == "dicke":
        weight = rng.randint(1, size - 1)
        support = [i for i in range(1 << size) if bin(i).count("1") == weight]
    elif kind == "sparse":
        support = rng.sample(range(1 << size), rng.randint(2, max(2, (1 << size) // 3)))
    else:  # dense
        support = range(1 << size)
    common = _scalar(rng)  # a Dicke state is symmetric: one amplitude on its support
    for i in support:
        amps[i] = common if kind == "dicke" else _scalar(rng)
    return state(size, amps)


KINDS = ("dense", "ghz", "w", "dicke", "sparse")


@st.composite
def shuffled_products(draw, n_range=(4, 9), min_factor=2, kinds=KINDS):
    """Products of 2-3 factors of ``min_factor`` qubits or more on shuffled qubits."""
    n = draw(st.integers(*n_range))
    rng = random.Random(draw(SEEDS))
    sizes = [rng.randint(min_factor, n - min_factor)]
    if n - sizes[0] >= 2 * min_factor and rng.random() < 0.5:
        sizes.append(rng.randint(min_factor, n - sizes[0] - min_factor))
    sizes.append(n - sum(sizes))
    order = list(range(1, n + 1))
    rng.shuffle(order)
    factors, at = [], 0
    for size in sizes:
        kind = draw(st.sampled_from(kinds))
        factors.append((_factor(kind, size, rng), tuple(sorted(order[at:at + size]))))
        at += size
    return product_state(factors, n)


def _dicke(n, weight, common):
    """``common`` times the unnormalised Dicke state D(n, weight)."""
    zero = ExactScalar(0)
    return state(n, [common if bin(i).count("1") == weight else zero for i in range(1 << n)])


@st.composite
def dicke_states(draw, n_range=(4, 9)):
    n = draw(st.integers(*n_range))
    weight = draw(st.integers(2, n - 2))
    return _dicke(n, weight, _scalar(random.Random(draw(SEEDS))))


@contextmanager
def _route_spies(bounds=True):
    """Spies on the ranks each ``stacked_rank`` call returns and on
    ``_eliminate``'s shapes, for hypothesis tests (which take no
    function-scoped fixture); ``bounds`` False leaves every shortfall to
    ``stacked_rank``."""
    calls, eliminated = [], []
    real_stacked, real_eliminate = kernels.stacked_rank, kernels._eliminate

    def stacked(q, ranks=None):
        out = real_stacked(q, ranks)
        calls.append(out.tolist())
        return out

    def eliminate(entries, nrows, ncols):
        eliminated.append((nrows, ncols))
        return real_eliminate(entries, nrows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        if not bounds:
            mp.setattr(kernels, "_upper_bounds", lambda support, r, cap: iter(()))
        mp.setattr(kernels, "stacked_rank", stacked)
        mp.setattr(kernels, "_eliminate", eliminate)
        yield calls, eliminated


def _assert_signature_matches_elimination(psi):
    signature = rank_signature(psi)
    for plan in _canonical_plans(psi.n):
        quads = SplitCells(psi.cleared[0], plan.axes)
        assert signature.ranks[plan.key] == _eliminate(quads, plan.rows, plan.cols)[0], plan.key


def _assert_proved_without_elimination(stacked, eliminate_calls):
    assert stacked
    assert eliminate_calls == []  # every shortfall was proved by ``stacked_rank``


# --- differential suites -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(shuffled_products())
def test_product_signatures_from_the_stack_match_elimination(psi):
    # the bounds would prove most product shortfalls: every one takes the proof
    with _route_spies(bounds=False) as (calls, eliminated):
        _assert_signature_matches_elimination(psi)
    _assert_proved_without_elimination(calls, eliminated)


@settings(max_examples=15, deadline=None)
@given(dicke_states())
def test_dicke_signatures_from_the_stack_match_elimination(psi):
    with _route_spies() as (calls, eliminated):  # no shortfall is eliminated
        _assert_signature_matches_elimination(psi)
    _assert_proved_without_elimination(calls, eliminated)


@settings(max_examples=10, deadline=None)
@given(dicke_states(n_range=(8, 9)))
def test_default_cutoff_certifies_large_shortfalls_from_the_stack(psi):
    """At the default settings no shortfall of any size is eliminated.

    Dicke states, since D(8, 2), D(9, 2) and D(9, 3) keep 119, 246 and 246
    shortfalls that neither the term rank nor subadditivity proves.
    """
    with _route_spies() as (calls, eliminated):
        _assert_signature_matches_elimination(psi)
    _assert_proved_without_elimination(calls, eliminated)


# --- the bound ----------------------------------------------------------------


def _compressed(psi, plan):
    """The split's cells without its zero rows and columns, as a (rows, cols, 4) int64 array."""
    q = np.asarray(SplitCells(psi.cleared[0], plan.axes)).reshape(plan.rows, plan.cols, 4)
    assert q.dtype == np.int64
    mod = q.any(axis=2)
    return q[mod.any(axis=1)][:, mod.any(axis=0)]


@st.composite
def full_component_states(draw):
    """States of 2-4 qubits whose amplitudes have all four components nonzero."""
    n = draw(st.integers(2, 4))
    rng = random.Random(draw(SEEDS))
    span = draw(st.sampled_from((1, 3, 2**20)))
    comp = lambda: rng.choice((-1, 1)) * rng.randint(1, span)  # noqa: E731
    return state(n, [ExactScalar(comp(), comp(), comp(), comp()) for _ in range(1 << n)])


@settings(max_examples=25, deadline=None)
@given(full_component_states())
def test_state_bound_covers_every_minor_of_every_split(psi):
    total = _total(psi.cleared[0].reshape(-1, 4).tolist())
    for plan in _canonical_plans(psi.n):
        quads = SplitCells(psi.cleared[0], plan.axes)
        # the split's own T, the one its proof computes, is the state's
        assert math.isclose(_total(_compressed(psi, plan)), total, rel_tol=1e-12)
        for size in range(1, min(plan.rows, plan.cols) + 1):
            bits = _norm_bits(total, size)
            for ri in itertools.combinations(range(plan.rows), size):
                for ci in itertools.combinations(range(plan.cols), size):
                    minor = [quads[i * plan.cols + j] for i in ri for j in ci]
                    det = _eliminate(minor, size, size)[1]
                    assert abs(adjoint_and_norm(det)[1]) < 2**bits


# --- the edges of the proof, on state splits ------------------------------------


def _state_of(flat):
    return state(len(flat).bit_length() - 1, [ExactScalar(*q) for q in flat])


def test_split_minor_vanishing_mod_p_only_is_not_certified(eliminate_calls, stacked_ranks):
    psi = _state_of(_ones_with_corner((P, 0, 0, 0)))  # the 3|3 split is the 8 x 8 matrix
    assert split_rank(psi, (1, 2, 3)) == 2
    assert len(stacked_ranks) == 1 and eliminate_calls == [(8, 8)]
    # the algebraic x = I_P - i, on a 2 x 32 split and its transpose
    flat = _ones_with_corner((I_P, -1, 0, 0), 2, 32)
    assert split_rank(_state_of(flat), (1,)) == 2
    assert split_rank(_state_of(flat), (2, 3, 4, 5, 6), (1,)) == 2  # a fresh state: no memo
    assert len(stacked_ranks) == 3
    assert eliminate_calls == [(8, 8), (2, 32), (2, 32)]  # the 32 x 2 split is ranked wide


def test_split_minor_vanishing_mod_all_but_the_last_needed_prime(
    eliminate_calls, stacked_ranks, reduced
):
    found = []
    for k in range(2, 6):
        x = _vanishing_under([(P, I_P, S_P)] + list(PRIME_TABLE[: k - 1]))
        needed, flat = _two_rows_with_minor(x)
        if needed == k:
            found.append(k)
            reduced.clear()
            assert split_rank(_state_of(flat), (1,)) == 2
            assert reduced == [(0, k)]  # it read every needed prime
    assert found
    assert len(stacked_ranks) == len(found)
    assert eliminate_calls == [(2, 32)] * len(found)


def test_split_pivot_vanishing_mod_a_table_prime_takes_elimination(
    eliminate_calls, stacked_ranks, reduced
):
    y = _vanishing_under(PRIME_TABLE[:1])  # 0 mod the first table prime, not mod P
    rng = random.Random(5)
    left = [[y]] + [[_nonzero(rng)] for _ in range(7)]
    flat = _outer_sum(left, [[ONES] * 8])
    needed = _table_primes_needed(flat, 1)
    assert needed >= 1
    assert split_rank(_state_of(flat), (1, 2, 3)) == 1
    assert reduced == [(0, needed)]
    assert eliminate_calls == [(8, 8)]  # the rows below the dead pivot stay nonzero
    flat[-1] = _add(flat[-1], ONES)
    assert split_rank(_state_of(flat), (1, 2, 3)) == 2  # rank 2 mod P
    assert len(stacked_ranks) == 2 and eliminate_calls == [(8, 8)] * 2


def test_split_components_beyond_int64_take_elimination(
    eliminate_calls, stacked_ranks, reduced
):
    flat = [(2**62 + 1, 0, 0, 0)] * 64
    flat[0] = (2**63 + 1, 0, 0, 0)
    flat[9] = (-(2**63) - 1, 0, 0, 0)
    assert split_rank(_state_of(flat), (1, 2, 3)) == 3
    assert stacked_ranks == [] and reduced == [] and eliminate_calls == [(8, 8)]


# --- what the proof reads, and no extra work --------------------------------------


def test_certificate_reads_only_its_own_split(monkeypatch):
    """Each proof of D(8, 2) sees its split's compressed cells, the F_P pivot
    lines of the wide orientation first."""
    seen = []
    real = kernels.stacked_rank

    def spy(q, ranks=None):
        assert len(q) == 1 and len(ranks) == 1
        seen.append((q[0].copy(), ranks[0]))
        return real(q, ranks)

    monkeypatch.setattr(kernels, "stacked_rank", spy)
    psi = _dicke(8, 2, ExactScalar(3, 1, 2, 1))
    total = _total(psi.cleared[0].reshape(-1, 4).tolist())
    checked = 0
    for plan in _canonical_plans(psi.n):
        seen.clear()
        rank = split_rank(psi, plan.bipartition.row_bits, plan.bipartition.col_bits)
        quads = SplitCells(psi.cleared[0], plan.axes)
        assert rank == _eliminate(quads, plan.rows, plan.cols)[0], plan.key
        own = _compressed(psi, plan)
        for q, r in seen:
            assert q.dtype == np.int64 and q.shape == own.shape and r == rank
            if q.shape[0] > q.shape[1]:  # tall: the pivot columns come first
                q, own = q.swapaxes(0, 1), own.swapaxes(0, 1)
            # the same rows, reordered
            assert sorted(map(str, q.tolist())) == sorted(map(str, own.tolist()))
            pivots = residues_p(q[:r].reshape(-1, 4).tolist()).reshape(r, -1)
            assert len(_pivots_mod_p_int64(pivots)[0]) == r
            assert math.isclose(_total(q.reshape(-1, 4)), total, rel_tol=1e-12)
            checked += 1
    assert checked


def test_full_rank_state_never_builds_the_stack(stacked_ranks, reduced):
    """A full-rank state runs no proof and reduces nothing mod the table primes."""
    psi = random_exact_state(7, random.Random(3))
    signature = rank_signature(psi)
    assert all(r == 1 << min(len(k), psi.n - len(k)) for k, r in signature.items())
    assert stacked_ranks == [] and reduced == []


def _lowrank_product(seed=8):
    rng = random.Random(seed)
    order = list(range(1, 9))
    rng.shuffle(order)
    factors = [
        (random_exact_state(size, rng), tuple(sorted(order[at:at + size])))
        for size, at in ((2, 0), (3, 2), (3, 5))
    ]
    return product_state(factors, 8)


def test_memoised_split_is_not_certified_again(monkeypatch, stacked_ranks):
    psi = _lowrank_product()
    first = rank_signature(psi)
    assert stacked_ranks
    pivots = []
    monkeypatch.setattr(kernels, "_pivots_mod_p_int64", lambda m: pivots.append(m) or ((), ()))
    count = len(stacked_ranks)
    assert rank_signature(psi) == first
    for plan in _canonical_plans(psi.n):
        assert split_rank(psi, plan.bipartition.row_bits) == first.ranks[plan.key]
    assert len(stacked_ranks) == count and pivots == []
