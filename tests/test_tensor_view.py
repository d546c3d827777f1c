"""The numpy tensor view of the amplitude vector against per-index loops.

Every re-indexing in the package goes through ``amplitude_tensor`` (qubit p
on axis p - 1).  Each public operation built on it is compared here with the
bit-arithmetic reference in ``_oracles``, on exact and floating states with
n = 1..6: exact results must be equal, floating ones equal up to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank.coeffmatrix import coefficient_matrix, reduced_density
from sloccrank.scalars import ExactScalar
from sloccrank.slocc import apply_local, random_invertible_local, transform_coefficient_matrix
from sloccrank.states import (
    QubitPermutation,
    amplitude_tensor,
    permute_qubits,
    product_state,
    state,
    tensor,
)
from _oracles import (
    _floating,
    ref_apply_local,
    ref_coefficient_entries,
    ref_gram,
    ref_permute,
    ref_product,
    ref_transform,
)

SMALL = st.integers(-3, 3)
EXACT_SCALARS = st.builds(ExactScalar, SMALL, SMALL, SMALL, SMALL, st.integers(1, 3))
# hundredths keep products of up to six factors far from underflow
FLOAT_PARTS = st.integers(-300, 300).map(lambda k: k / 100)
FLOAT_SCALARS = st.builds(complex, FLOAT_PARTS, FLOAT_PARTS)


@st.composite
def states(draw, n=None, exact=None):
    if n is None:
        n = draw(st.integers(1, 6))
    if exact is None:
        exact = draw(st.booleans())
    scalars = EXACT_SCALARS if exact else FLOAT_SCALARS
    amps = draw(st.lists(scalars, min_size=1 << n, max_size=1 << n))
    if not any(amps):
        amps[0] = ExactScalar(1) if exact else 1 + 0j
    return state(n, amps)


def _close(got, want, rel=1e-12):
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * max(np.max(np.abs(want)), 1.0)


def _as_complex(rows):
    return [[complex(x) for x in row] for row in rows]


@st.composite
def splits(draw, n):
    """Row bits in random order (often one or n - 1 of them), and column bits
    that are either left to the default order or given explicitly."""
    order = draw(st.permutations(range(1, n + 1)))
    size = draw(st.sampled_from((1, n - 1)) | st.integers(0, n))
    row_bits, rest = tuple(order[:size]), order[size:]
    col_bits = draw(st.none() | st.permutations(rest).map(tuple))
    return row_bits, col_bits


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_amplitude_tensor_axes(data):
    psi = data.draw(states())
    t = amplitude_tensor(psi)
    assert t.shape == (2,) * psi.n
    w = data.draw(st.integers(0, (1 << psi.n) - 1))
    bits = tuple((w >> (psi.n - p)) & 1 for p in range(1, psi.n + 1))
    assert t[bits] == psi.amps[w]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coefficient_matrix_matches_index_reference(data):
    psi = data.draw(states())
    row_bits, col_bits = data.draw(splits(psi.n))
    C = coefficient_matrix(psi, row_bits, col_bits)
    bp = C.bipartition
    assert bp.row_bits == row_bits
    if col_bits is not None:
        assert bp.col_bits == col_bits
    want = ref_coefficient_entries(psi.amps, psi.n, bp.row_bits, bp.col_bits)
    assert (C.rows, C.cols) == (1 << len(row_bits), 1 << (psi.n - len(row_bits)))
    if psi.is_exact:
        assert C.entries == tuple(map(tuple, want))
        assert all(type(row) is tuple for row in C.entries)
        assert C.transpose().entries == tuple(zip(*want))
    else:
        assert isinstance(C.entries, np.ndarray) and C.entries.dtype == complex
        assert np.array_equal(C.entries, np.array(want))
        assert np.array_equal(C.transpose().entries, np.array(want).T)
    assert np.array_equal(C.to_complex_array(), np.array(_as_complex(want)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_permute_qubits_matches_index_reference(data):
    psi = data.draw(states())
    image = tuple(data.draw(st.permutations(range(1, psi.n + 1))))
    out = permute_qubits(psi, QubitPermutation(psi.n, image))
    assert out.amps == tuple(ref_permute(psi.amps, psi.n, image))
    assert out.labels == psi.labels and out.is_exact == psi.is_exact


@st.composite
def placed_factors(draw):
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    blocks = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    return n, [(draw(states(n=len(pos))), pos) for pos in blocks]


@settings(max_examples=100, deadline=None)
@given(placed_factors())
def test_product_state_matches_index_reference(case):
    n, factors = case
    psi = product_state(factors, n)
    if all(f.is_exact for f, _ in factors):
        assert psi.is_exact
        assert psi.amps == tuple(ref_product([(f.amps, pos) for f, pos in factors], n))
    else:
        assert not psi.is_exact
        _close(psi.amps, ref_product([(f.to_float().amps, pos) for f, pos in factors], n))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tensor_matches_index_reference(data):
    n = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, n - 1))
    left, right = data.draw(states(n=k)), data.draw(states(n=n - k))
    positions = tuple(data.draw(st.permutations(range(1, n + 1)))[:k])
    rest = tuple(p for p in range(1, n + 1) if p not in positions)
    psi = tensor(left, right, positions)
    if left.is_exact and right.is_exact:
        assert psi.amps == tuple(ref_product([(left.amps, positions), (right.amps, rest)], n))
    else:
        want = ref_product([(left.to_float().amps, positions), (right.to_float().amps, rest)], n)
        _close(psi.amps, want)


def _operators(data, n):
    ops = random_invertible_local(n, data.draw(st.integers(0, 10**6)))
    return _floating(ops) if data.draw(st.booleans()) else ops


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_transform_coefficient_matrix_matches_loop_reference(data):
    psi = data.draw(states())
    row_bits, col_bits = data.draw(splits(psi.n))
    ops = _operators(data, psi.n)
    C = coefficient_matrix(psi, row_bits, col_bits)
    out = transform_coefficient_matrix(C, ops)
    bp = C.bipartition
    assert (out.rows, out.cols, out.bipartition) == (C.rows, C.cols, bp)
    rows = [list(row) for row in C.entries]
    row_mats = [ops[b - 1].entries for b in bp.row_bits]
    col_mats = [ops[b - 1].entries for b in bp.col_bits]
    if psi.is_exact and ops.is_exact:
        want = ref_transform(rows, row_mats, col_mats, ExactScalar(1), ExactScalar(0))
        assert out.entries == tuple(map(tuple, want))
    else:
        assert isinstance(out.entries, np.ndarray)
        row_mats, col_mats = list(map(_as_complex, row_mats)), list(map(_as_complex, col_mats))
        want = ref_transform(_as_complex(rows), row_mats, col_mats, 1 + 0j, 0j)
        _close(out.entries, want)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reduced_density_matches_loop_reference(data):
    psi = data.draw(states())
    kept, _ = data.draw(splits(psi.n))
    rho = reduced_density(psi, kept)
    rest = [b for b in range(1, psi.n + 1) if b not in kept]
    C = ref_coefficient_entries(psi.amps, psi.n, kept, rest)
    if psi.is_exact:
        assert type(rho) is tuple and all(type(row) is tuple for row in rho)
        assert rho == tuple(map(tuple, ref_gram(C, ExactScalar(0))))
    else:
        _close(rho, ref_gram(C, 0j))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_local_matches_loop_reference(data):
    psi = data.draw(states())
    ops = _operators(data, psi.n)
    out = apply_local(psi, ops)
    assert out.labels == psi.labels
    if psi.is_exact and ops.is_exact:
        assert out.amps == tuple(ref_apply_local(psi.amps, psi.n, [op.entries for op in ops.ops]))
    else:
        assert not out.is_exact
        mats = [_as_complex(op.entries) for op in ops.ops]
        _close(out.amps, ref_apply_local(psi.to_float().amps, psi.n, mats))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_float_apply_local_matches_exact(data):
    psi = data.draw(states(exact=True))
    ops = random_invertible_local(psi.n, data.draw(st.integers(0, 10**6)))
    exact = apply_local(psi, ops)
    assert exact.is_exact
    _close(apply_local(psi.to_float(), ops).amps, exact.to_float().amps, rel=1e-9)

