"""Rank shortfalls proved by upper bounds the state already implies.

The rank r mod P is a proven lower bound on the exact rank, so
``_kernels._certified_rank`` returns it at once when a proven upper bound
equals it: the term rank of the matrix's support, or a ``cap``, which for
a state's split is the least r(A) * r(B) over the cuts A + B of either
side whose ranks the state holds already (rank subadditivity,
``coeffmatrix._cut_cap``).  The differential suites compare every split
rank of ``rank_signature`` with ``_eliminate`` on the split's cells; the
spies on ``stacked_rank``, which proves every shortfall no bound proves,
and on ``_eliminate`` tell which shortfalls the bounds prove alone, and
the last cases pin the bounds themselves against brute force.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank._kernels as kernels
import sloccrank.coeffmatrix as coeffmatrix
from sloccrank._kernels import ONE4, P, ZERO4, _eliminate, _term_rank, bareiss
from sloccrank.coeffmatrix import _canonical_plans, _cut_cap, rank_signature, split_rank
from sloccrank.scalars import ExactScalar
from sloccrank.slocc import apply_local, random_invertible_local
from sloccrank.states import product_state, state
from test_rank_certificate import _nonzero, _outer_sum
from test_stack_certificate import (
    KINDS,
    _assert_signature_matches_elimination,
    _dicke,
    _factor,
    _route_spies,
    _scalar,
    dicke_states,
    shuffled_products,
)

SEEDS = st.integers(0, 2**32)


def _w(n, rng):
    amps = [ExactScalar(0)] * (1 << n)
    for k in range(n):
        amps[1 << k] = _scalar(rng)
    return state(n, amps)


def _shortfalls(psi):
    """The splits of ``psi`` whose rank is below their compressed size."""
    out = []
    for plan in _canonical_plans(psi.n):
        mod = psi.residues.transpose(plan.axes).reshape(plan.rows, plan.cols) != 0
        full = min(mod.any(axis=1).sum(), mod.any(axis=0).sum())
        if split_rank(psi, plan.bipartition.row_bits) < full:
            out.append(plan.key)
    return out


@st.composite
def w_states(draw, n_range=(3, 10)):
    return _w(draw(st.integers(*n_range)), random.Random(draw(SEEDS)))


@st.composite
def local_ghz_states(draw):
    """GHZ_n with random nonzero end amplitudes under random invertible local operators."""
    n = draw(st.integers(3, 7))
    rng = random.Random(draw(SEEDS))
    amps = [ExactScalar(0)] * (1 << n)
    amps[0], amps[-1] = _scalar(rng), _scalar(rng)
    return apply_local(state(n, amps), random_invertible_local(n, draw(SEEDS)))


@st.composite
def sparse_states(draw):
    n = draw(st.integers(4, 9))
    rng = random.Random(draw(SEEDS))
    support = rng.sample(range(1 << n), rng.randint(2, 3 * n))
    amps = [ExactScalar(0)] * (1 << n)
    for i in support:
        amps[i] = _scalar(rng)
    return state(n, amps)


@st.composite
def products_with_blocks(draw):
    """``(psi, blocks)``: a product of 2-3 factors on shuffled qubits and
    the qubits of each factor."""
    n = draw(st.integers(4, 9))
    rng = random.Random(draw(SEEDS))
    sizes = [rng.randint(2, n - 2)]
    if n - sizes[0] >= 4 and rng.random() < 0.5:
        sizes.append(rng.randint(2, n - sizes[0] - 2))
    sizes.append(n - sum(sizes))
    order = list(range(1, n + 1))
    rng.shuffle(order)
    factors, at = [], 0
    for size in sizes:
        kind = draw(st.sampled_from(KINDS))
        factors.append((_factor(kind, size, rng), tuple(sorted(order[at:at + size]))))
        at += size
    return product_state(factors, n), [set(pos) for _, pos in factors]


# --- differential suites -----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(shuffled_products())
def test_product_signatures_match_elimination(psi):
    _assert_signature_matches_elimination(psi)


@settings(max_examples=15, deadline=None)
@given(st.one_of(w_states(), dicke_states()))
def test_w_and_dicke_signatures_match_elimination(psi):
    _assert_signature_matches_elimination(psi)


@settings(max_examples=15, deadline=None)
@given(local_ghz_states())
def test_ghz_under_local_operators_signatures_match_elimination(psi):
    _assert_signature_matches_elimination(psi)


@settings(max_examples=25, deadline=None)
@given(sparse_states())
def test_sparse_support_signatures_match_elimination(psi):
    _assert_signature_matches_elimination(psi)


# --- which shortfalls the bounds prove -------------------------------------------


@settings(max_examples=10, deadline=None)
@given(w_states(n_range=(4, 10)))
def test_w_shortfalls_take_neither_certificate_nor_elimination(psi):
    """Every W split of k <= n/2 qubits has rank 2 and a term rank of 2."""
    with _route_spies() as (stacked, eliminated):
        signature = rank_signature(psi)
    assert stacked == [] and eliminated == []
    assert set(signature.ranks.values()) == {2}
    assert len(_shortfalls(psi)) == len(signature.ranks) - psi.n  # all but the 1-qubit splits


@settings(max_examples=15, deadline=None)
@given(products_with_blocks())
def test_product_shortfalls_are_capped_once_their_cuts_are_ranked(drawn):
    """With every other split ranked, each split of a product is proved
    by the cut along the factors, except the one between two factors."""
    psi, blocks = drawn
    ranks = rank_signature(psi).ranks
    memo = psi.split_ranks
    for plan in _canonical_plans(psi.n):
        side = set(plan.key)
        if len(blocks) == 2 and side in blocks:
            continue
        del memo[plan.key]
        with _route_spies() as (stacked, eliminated):
            assert split_rank(psi, plan.key) == ranks[plan.key]
        assert stacked == [] and eliminated == [], plan.key


def test_signature_order_caps_product_shortfalls():
    """In ``rank_signature``'s order most product shortfalls find their
    cuts ranked already; the few left take ``stacked_rank``, never elimination."""
    rng = random.Random(3)
    factors = [(_factor("dense", 3, rng), (1, 4, 7)), (_factor("dense", 3, rng), (2, 5, 8)),
               (_factor("dense", 2, rng), (3, 6))]
    psi = product_state(factors, 8)
    with _route_spies() as (stacked, eliminated):
        rank_signature(psi)
    assert eliminated == []
    shortfalls = _shortfalls(psi)
    assert len(stacked) < len(shortfalls) // 4


# --- the kernel's use of the bounds --------------------------------------------


def _rank_two_8x8(rng):
    """An 8 x 8 matrix of rank 2 with every cell a positive integer."""
    positive = lambda: (rng.randint(1, 9), 0, 0, 0)  # noqa: E731
    return _outer_sum([[positive(), positive()] for _ in range(8)],
                      [[positive() for _ in range(8)] for _ in range(2)])


@pytest.fixture
def term_ranks(monkeypatch):
    calls = []
    real = kernels._term_rank

    def spy(support, limit):
        calls.append(real(support, limit))
        return calls[-1]

    monkeypatch.setattr(kernels, "_term_rank", spy)
    return calls


def test_cap_equal_to_the_rank_mod_p_proves_it(term_ranks):
    flat = _rank_two_8x8(random.Random(1))
    assert all(any(q) for q in flat)
    floors = []
    with _route_spies() as (stacked, eliminated):
        assert bareiss(flat, 8, 8, det=False, cap=lambda r: floors.append(r) or 2)[0] == 2
    assert floors == [2] and stacked == [] and eliminated == []
    assert term_ranks == []  # 64 nonzero cells > 2 * 8: the term rank exceeds 2


def test_cap_above_the_rank_or_none_leaves_the_certificate(term_ranks):
    flat = _rank_two_8x8(random.Random(2))
    for cap in (lambda r: 3, lambda r: None):
        with _route_spies() as (stacked, eliminated):
            assert bareiss(flat, 8, 8, det=False, cap=cap)[0] == 2
        assert stacked == [[2]] and eliminated == []


def test_cap_below_the_rank_mod_p_raises():
    flat = _rank_two_8x8(random.Random(3))
    with pytest.raises(ArithmeticError, match="below the rank 2 mod P"):
        bareiss(flat, 8, 8, det=False, cap=lambda r: 1)


def test_full_rank_matrix_evaluates_no_bound(term_ranks):
    rng = random.Random(4)
    flat = [_nonzero(rng) for _ in range(64)]
    read = []
    assert bareiss(flat, 8, 8, det=False, cap=lambda r: read.append(r))[0] == 8
    assert read == [] and term_ranks == []


def test_term_rank_proves_a_sparse_lone_shortfall(term_ranks):
    """The 9 x 9 support of a W-like matrix: a full first row and column."""
    rng = random.Random(5)
    flat = [ZERO4] * 81
    for k in range(1, 9):
        flat[k] = _nonzero(rng)
        flat[9 * k] = _nonzero(rng)
    with _route_spies() as (stacked, eliminated):
        assert bareiss(flat, 9, 9, det=False)[0] == 2
    assert term_ranks == [2] and stacked == [] and eliminated == []


def test_term_rank_reads_entries_that_vanish_mod_p_as_nonzero():
    """(P, 0, 0, 0) is 0 mod P but not 0: the support keeps it, so the
    term rank is 2, above the rank 1 mod P, and elimination decides."""
    assert bareiss([(P, 0, 0, 0), ZERO4, ZERO4, ONE4], 2, 2, det=False)[0] == 2
    flat = [ZERO4] * 16
    flat[0], flat[5], flat[10] = (P, 0, 0, 0), ONE4, ONE4
    assert bareiss(flat, 4, 4, det=False)[0] == 3


# --- the bounds against brute force ---------------------------------------------


def _matching_brute_force(mask):
    """The largest matching of a small bool matrix, by trying every column per row."""
    rows, cols = mask.shape

    def best(i, used):
        if i == rows:
            return 0
        skip = best(i + 1, used)
        free = [j for j in range(cols) if mask[i, j] and j not in used]
        take = max((1 + best(i + 1, used | {j}) for j in free), default=0)
        return max(skip, take)

    return best(0, frozenset())


@st.composite
def masks(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    density = draw(st.sampled_from((0.2, 0.5, 0.8)))
    rng = np.random.default_rng(draw(SEEDS))
    return rng.random((rows, cols)) < density


@settings(max_examples=150, deadline=None)
@given(masks(), st.integers(1, 7))
def test_term_rank_is_the_largest_matching_up_to_its_limit(mask, limit):
    exact = _matching_brute_force(mask)
    assert _term_rank(mask, 7) == exact
    assert _term_rank(mask, limit) == min(exact, limit)


@settings(max_examples=60, deadline=None)
@given(masks(), SEEDS)
def test_term_rank_is_never_below_the_exact_rank(mask, seed):
    rng = random.Random(seed)
    rows, cols = mask.shape
    flat = [_nonzero(rng, 1) if mask[i, j] else ZERO4 for i in range(rows) for j in range(cols)]
    assert _eliminate(flat, rows, cols)[0] <= _term_rank(mask, 7)


def test_term_rank_follows_long_augmenting_paths_without_recursion():
    """Row m - 1 reaches only column 0, so its path passes every other row."""
    m = 3000
    mask = np.zeros((m, m), dtype=bool)
    idx = np.arange(m - 1)
    mask[idx, idx] = mask[idx, idx + 1] = True
    mask[m - 1, 0] = True
    assert _term_rank(mask, m + 1) == m


def _cut_cap_brute_force(psi, plan):
    """min r(A) * r(B) over every cut of either side, each rank asked of ``split_rank``."""
    products = []
    for side in (plan.bipartition.row_bits, plan.bipartition.col_bits):
        for size in range(1, len(side)):
            for part in itertools.combinations(side, size):
                rest = tuple(b for b in side if b not in part)
                products.append(split_rank(psi, part) * split_rank(psi, rest))
    return min(products, default=None)


@settings(max_examples=10, deadline=None)
@given(st.one_of(shuffled_products(n_range=(4, 7)), dicke_states()))
def test_cut_cap_is_the_least_product_over_every_cut(psi):
    rank_signature(psi)
    memo = psi.split_ranks
    for plan in _canonical_plans(psi.n):
        expected = _cut_cap_brute_force(psi, plan)
        assert _cut_cap(memo, plan, 0) == expected, plan.key  # floor 0: no early stop
        assert expected >= memo[plan.key]
        assert _cut_cap({}, plan, 0) is None


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_cut_cap_stops_at_its_floor():
    psi = _dicke(6, 3, ExactScalar(1))
    rank_signature(psi)
    plan = _canonical_plans(6)[-1]  # a 3 | 3 split
    memo = _CountingDict(psi.split_ranks)
    least = _cut_cap(memo, plan, 0)
    every = memo.reads
    assert every == 2 * 6  # three cuts of each side, two ranks per cut
    memo.reads = 0
    assert _cut_cap(memo, plan, least) == least and memo.reads <= every
    memo.reads = 0
    assert _cut_cap(memo, plan, 100) >= least and memo.reads == 2  # the first cut


def test_cut_cap_reads_no_cut_when_no_product_can_reach_the_floor(monkeypatch):
    """GHZ_8 under local operators: every split has rank 2 and a floor of 2,
    and every product of two ranks is 4, so no cut is ever enumerated."""
    rng = random.Random(5)
    amps = [ExactScalar(0)] * 256
    amps[0], amps[-1] = _scalar(rng), _scalar(rng)
    psi = apply_local(state(8, amps), random_invertible_local(8, 5))
    _canonical_plans(8)  # the plans' canonical keys are built before the spy
    calls, caps = [], []
    real_key, real_cap = coeffmatrix._split_key, coeffmatrix._cut_cap
    monkeypatch.setattr(coeffmatrix, "_split_key", lambda *a: calls.append(a) or real_key(*a))
    monkeypatch.setattr(coeffmatrix, "_cut_cap", lambda *a: caps.append(a[2]) or real_cap(*a))
    signature = rank_signature(psi)
    assert set(signature.ranks.values()) == {2}
    assert caps and set(caps) == {2} and calls == []
