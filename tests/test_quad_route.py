"""Exact data on integer quadruples, from draw to answer.

Random states and operators are drawn as integers (``states.random_ints``);
a state built from a quadruple array over denominator 1 has its cleared
form primed (``states._from_quads``); operators are applied, and
``dxy``, ``f1``, ``f2`` and ``reduced_density`` evaluated, on cleared
quadruples.  Each step is pinned here to the scalar route it replaced:
``randint``, ``common_denominator`` plus ``quad_array``, and the
ExactScalar formulas of ``_oracles``, on components beyond int64 too.
The last test is the paper's theorem itself, independent of every route.
"""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sloccrank.states as states
from _oracles import ref_coefficient_entries, ref_dxy, ref_f1, ref_f2, ref_gram, ref_product
from sloccrank._kernels import quad_array
from sloccrank.coeffmatrix import rank_signature, reduced_density
from sloccrank.invariants import dxy, f1, f2
from sloccrank.scalars import ExactScalar, common_denominator
from sloccrank.slocc import (
    LocalOperator,
    LocalOperatorSet,
    apply_local,
    apply_local_many,
    random_invertible_local,
)
from sloccrank.states import product_state, random_exact_state, random_ints, state


def _cleared_of_amps(psi):
    """``PureState.cleared`` as the lazy cache computes it from ``amps``."""
    quads, den = common_denominator(psi.amps)
    return quad_array(quads).reshape((2,) * psi.n + (4,)), den


def _assert_primed(psi):
    assert "cleared" in vars(psi)
    quads, den = psi.cleared
    want, want_den = _cleared_of_amps(psi)
    assert den == want_den
    assert quads.dtype == want.dtype and quads.shape == want.shape
    assert np.array_equal(quads, want)


@pytest.mark.parametrize("span", [1, 3, 4])
def test_random_ints_is_randint(span):
    for seed in range(1000):
        mine, theirs = random.Random(seed), random.Random(seed)
        count = 1 + seed % 37
        assert random_ints(mine, span, count) == [
            theirs.randint(-span, span) for _ in range(count)
        ]
        assert mine.random() == theirs.random()  # the two streams stay in step


def test_draws_reproduce_the_scalar_draws():
    refused = 0
    for seed in range(400):
        rng, ref = random.Random(seed), random.Random(seed)
        n = 1 + seed % 5
        psi = random_exact_state(n, rng)
        amps = [ExactScalar(ref.randint(-3, 3), ref.randint(-3, 3)) for _ in range(1 << n)]
        if any(amps):  # an all-zero draw is drawn again, by both
            assert psi.amps == tuple(amps)
        ops = random_invertible_local(4, seed)
        ref = random.Random(seed)
        want = []
        while len(want) < 4:
            a, b, c, d = [ExactScalar(ref.randint(-3, 3), ref.randint(-3, 3)) for _ in range(4)]
            if a * d != b * c:
                want.append(((a, b), (c, d)))
            else:
                refused += 1
        assert [op.entries for op in ops.ops] == want
    assert refused > 0  # singular draws were met and drawn again


def test_a_singular_draw_is_refused_in_integers():
    with pytest.raises(ValueError, match="zero determinant"):
        LocalOperator._from_quads([(1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0), (1, -1, 0, 0)])
    op = LocalOperator._from_quads([(1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)])
    assert op == LocalOperator.of(ExactScalar(1, 1), 2, 1, ExactScalar(1, 1))
    assert op.cleared == LocalOperator(op.entries).cleared


def test_primed_cleared_forms_equal_the_amplitudes_cleared():
    rng = random.Random(5)
    drawn = [random_exact_state(n, rng) for n in (1, 2, 3, 4, 5) for _ in range(4)]
    for psi in drawn:
        _assert_primed(psi)
    moved = apply_local_many(
        [(psi, random_invertible_local(psi.n, k)) for k, psi in enumerate(drawn)]
    )
    for psi in moved:
        _assert_primed(psi)
    _assert_primed(product_state([(drawn[4], (2, 4)), (drawn[8], (1, 3, 5))], 5))


def test_applied_states_are_never_cleared_again(monkeypatch):
    rng = random.Random(9)
    drawn = [random_exact_state(n, rng) for n in (2, 3, 4) for _ in range(5)]
    calls = []
    real = states.common_denominator
    monkeypatch.setattr(states, "common_denominator", lambda v: calls.append(1) or real(v))
    moved = apply_local_many(
        [(psi, random_invertible_local(psi.n, k)) for k, psi in enumerate(drawn)]
    )
    for psi in moved:
        psi.cleared
        rank_signature(psi)
    assert calls == []


def test_cache_stays_lazy_beyond_denominator_one_or_int64():
    psi = state(2, [1, 2, 3, 4])
    half = LocalOperatorSet((LocalOperator.of(ExactScalar(1, 0, 0, 0, 2), 0, 0, 1),) * 2)
    # a denominator of 4 on amplitudes 1/4, 2/2, 3/2, 4: not the least one
    over_four = apply_local(psi, half)
    # an object stack (bound 2**60 * 2 * 2 = INT64_BOUND) whose values fit in int64 after all
    big = state(2, [1 << 60, 0, 0, 0])
    double = LocalOperatorSet((LocalOperator.of(2, 0, 0, 1),) * 2)
    scaled = apply_local(big, double)
    # values beyond int64
    huge = apply_local(state(2, [1 << 70, 1, 0, 0]), double)
    for phi in (over_four, scaled, huge):
        assert "cleared" not in vars(phi)
        quads, den = phi.cleared
        want, want_den = _cleared_of_amps(phi)
        assert den == want_den and quads.dtype == want.dtype
        assert np.array_equal(quads, want)
    assert over_four.cleared[1] == 4 and scaled.cleared[0].dtype == np.int64
    assert huge.cleared[0].dtype == object


COMPONENTS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(1 << 31), 1 << 31),  # products beyond int64
    st.integers(-(1 << 80), 1 << 80),  # amplitudes beyond int64
)


@st.composite
def wide_scalars(draw):
    parts = [draw(COMPONENTS) for _ in range(4)]
    return ExactScalar(*parts, draw(st.integers(1, 6)))


@st.composite
def wide_states(draw, n):
    amps = draw(st.lists(wide_scalars(), min_size=1 << n, max_size=1 << n))
    if not any(amps):
        amps[0] = ExactScalar(1)
    return state(n, amps)


@settings(max_examples=80, deadline=None)
@given(wide_states(4))
def test_invariants_match_the_scalar_formulas(psi):
    assert dxy(psi) == ref_dxy(psi.amps)
    assert f1(psi) == ref_f1(psi.amps)
    assert f2(psi) == ref_f2(psi.amps)
    floating = psi.to_float()
    for ours, ref in ((dxy, ref_dxy), (f1, ref_f1), (f2, ref_f2)):
        value, want = ours(floating), ref(floating.amps)
        # the same operations in the same order: equal bit for bit
        assert type(value) is complex and repr(value) == repr(want)


def test_invariants_of_drawn_and_applied_states():
    rng = random.Random(17)
    for k in range(30):
        psi = random_exact_state(4, rng)
        phi = apply_local(psi, random_invertible_local(4, k))
        for chi in (psi, phi):
            assert (dxy(chi), f1(chi), f2(chi)) == (
                ref_dxy(chi.amps), ref_f1(chi.amps), ref_f2(chi.amps)
            )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(wide_states), st.data())
def test_reduced_density_matches_the_scalar_product(psi, data):
    size = data.draw(st.integers(1, psi.n))
    kept = data.draw(st.sampled_from(list(combinations(range(1, psi.n + 1), size))))
    rest = [b for b in range(1, psi.n + 1) if b not in kept]
    C = ref_coefficient_entries(psi.amps, psi.n, kept, rest)
    assert reduced_density(psi, kept) == tuple(map(tuple, ref_gram(C, ExactScalar(0))))


def test_products_at_the_int64_edge_are_exact():
    # x = (m, m, m, m): x * x has i-component 6 m**2, the bound, and
    # x * conj(x) = (6 m**2, 0, 4 m**2, 0); int64 would wrap in rho at
    # m = 2**30 (two of them summed) and in both at m = 3 * 2**30
    for m in (1 << 30, 3 << 30):
        x = ExactScalar(m, m, m, m)
        rho = reduced_density(state(2, [x] * 4), (1,))
        assert rho[0][0] == ExactScalar(12 * m * m, 0, 8 * m * m, 0)
        assert rho == tuple(map(tuple, ref_gram([[x, x], [x, x]], ExactScalar(0))))
        psi = product_state([(state(1, [x, x]), (1,)), (state(1, [x, 0]), (2,))], 2)
        assert psi.amps[0] == x * x and psi.amps[0].b == 6 * m * m


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(wide_states), st.integers(1, 3).flatmap(wide_states), st.data()
)
def test_product_state_matches_the_scalar_product(left, right, data):
    n = left.n + right.n
    order = data.draw(st.permutations(range(1, n + 1)))
    positions, rest = tuple(order[: left.n]), tuple(order[left.n:])
    psi = product_state([(left, positions), (right, rest)], n)
    assert psi.amps == tuple(ref_product([(left.amps, positions), (right.amps, rest)], n))


GAUSSIAN = st.builds(ExactScalar, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def states_and_operators(draw):
    n = draw(st.integers(1, 7))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9]))  # dense, half or mostly zero
    amps = [
        ExactScalar(0) if draw(st.floats(0, 1)) < zeros else draw(GAUSSIAN)
        for _ in range(1 << n)
    ]
    assume(any(amps))
    ops = []
    for _ in range(n):
        a, b, c, d = (draw(GAUSSIAN) for _ in range(4))
        assume(a * d != b * c)
        ops.append(LocalOperator.of(a, b, c, d))
    return state(n, amps), LocalOperatorSet(tuple(ops))


@settings(max_examples=60, deadline=None)
@given(states_and_operators())
def test_local_operators_preserve_every_rank(pair):
    """The paper's theorem: coefficient-matrix ranks are SLOCC invariants."""
    psi, ops = pair
    assert rank_signature(apply_local(psi, ops)) == rank_signature(psi)
