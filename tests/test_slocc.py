"""Local operator application, matrix transforms, sampling, invariance."""

import random
from fractions import Fraction

import numpy as np
import pytest

from sloccrank.checks import check_matrix_transform, check_rank_invariance
from sloccrank.coeffmatrix import coefficient_matrix, rank_signature, singular_values
from sloccrank.families import instantiate
from sloccrank.scalars import ExactScalar
from sloccrank.slocc import (
    IDENTITY_OP,
    I_SIGMA_Z,
    LocalOperator,
    LocalOperatorSet,
    apply_local,
    parse_operator_file,
    random_invertible_local,
    render_operator_file,
    transform_coefficient_matrix,
)
from sloccrank.states import random_exact_state, state
from sloccrank.tables import ghz
from _oracles import _floating


def identity_ops(n: int) -> LocalOperatorSet:
    return LocalOperatorSet((IDENTITY_OP,) * n)


def test_non_invertible_operator_rejected():
    with pytest.raises(ValueError):
        LocalOperator.of(1, 1, 1, 1)
    with pytest.raises(ValueError):
        LocalOperator.of(0, 0, 0, 0)


def test_exact_invertibility_test_matches_the_determinant():
    # the constructor compares ad and bc cleared of their denominators;
    # (1/2)(2) = (1)(1) is singular only with each side scaled correctly
    with pytest.raises(ValueError, match="zero determinant"):
        LocalOperator.of(Fraction(1, 2), 1, 1, 2)
    rng = random.Random(19)
    pool = [
        ExactScalar(rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(-1, 1), 0, rng.randint(1, 3))
        for _ in range(12)
    ]
    for _ in range(400):
        a, b, c = (rng.choice(pool) for _ in range(3))
        d = b * c * a.inverse() if a and rng.random() < 0.5 else rng.choice(pool)
        singular = (a * d - b * c).is_zero()
        try:
            LocalOperator(((a, b), (c, d)))
        except ValueError as exc:
            assert singular and "zero determinant" in str(exc)
        else:
            assert not singular


def test_operator_entries_are_coerced_like_amplitudes():
    assert LocalOperator.of(1, 0, 0, 1).is_exact
    mixed = LocalOperator.of(1, 0.5, 0, 1)
    assert all(isinstance(x, complex) for row in mixed.entries for x in row)
    with pytest.raises(TypeError):
        state(1, ["1", 0])
    with pytest.raises(TypeError):
        LocalOperator.of("1", 0, 0, 1)


def test_mixed_exact_operator_entries_are_all_coerced():
    # only entry [0][0] is an ExactScalar: the ints must be coerced too
    op = LocalOperator(((ExactScalar(1), 0), (0, ExactScalar(1))))
    psi = random_exact_state(2, random.Random(4))
    assert apply_local(psi, LocalOperatorSet((op, op))).amps == psi.amps
    assert all(isinstance(x, ExactScalar) for row in op.entries for x in row)


def test_all_int_operator_keeps_an_exact_state_exact():
    op = LocalOperator(((1, 0), (0, 1)))
    assert op.is_exact
    psi = random_exact_state(3, random.Random(8))
    phi = apply_local(psi, LocalOperatorSet((op,) * 3))
    assert phi.is_exact and phi.amps == psi.amps


def test_identity_application_is_exact_identity():
    psi = random_exact_state(3, random.Random(1))
    assert apply_local(psi, identity_ops(3)).amps == psi.amps


def test_apply_then_inverse_restores_exactly():
    rng = random.Random(2)
    for trial in range(25):
        n = rng.randint(1, 4)
        psi = random_exact_state(n, rng)
        ops = random_invertible_local(n, 100 + trial)
        back = apply_local(apply_local(psi, ops), ops.inverse())
        assert back.amps == psi.amps


def test_group_action_composition():
    rng = random.Random(3)
    for trial in range(25):
        n = rng.randint(1, 4)
        psi = random_exact_state(n, rng)
        ops_a = random_invertible_local(n, 200 + trial)
        ops_b = random_invertible_local(n, 300 + trial)
        chained = apply_local(apply_local(psi, ops_b), ops_a)
        combined = apply_local(psi, ops_a.compose(ops_b))
        assert chained.amps == combined.amps


def test_sign_flip_identity_between_families():
    ops = LocalOperatorSet((IDENTITY_OP, IDENTITY_OP, I_SIGMA_Z, I_SIGMA_Z))
    for b in range(-10, 10):
        lhs = apply_local(instantiate("L_ab3", (0, b)), ops)
        rhs = instantiate("L_ab3'", (0, b))
        assert lhs.amps == rhs.amps


def test_transform_matches_rebuild_on_all_splits():
    result = check_matrix_transform(trials=100, seed=0)
    assert result.passed, result.failures


def test_transform_identity_keeps_matrix():
    psi = random_exact_state(4, random.Random(5))
    C = coefficient_matrix(psi, (1, 3))
    out = transform_coefficient_matrix(C, identity_ops(4))
    assert out.entries == C.entries


def test_transform_column_operator_order_for_one_four_split():
    # columns of the rows-(1,4) matrix carry qubits (3, 2): the column
    # factor must use the qubit-3 operator before the qubit-2 one
    rng = random.Random(6)
    psi = random_exact_state(4, rng)
    ops = random_invertible_local(4, 77)
    C = coefficient_matrix(psi, (1, 4))
    direct = transform_coefficient_matrix(C, ops)
    rebuilt = coefficient_matrix(apply_local(psi, ops), (1, 4))
    assert direct.entries == rebuilt.entries
    assert C.bipartition.col_bits == (3, 2)


def test_random_operator_determinism_and_invertibility():
    a = random_invertible_local(4, 42)
    b = random_invertible_local(4, 42)
    assert a == b
    for op in a.ops:
        assert not op.det().is_zero()
    c = random_invertible_local(4, 43)
    assert a != c


def _reference_draw(n, seed, rejected):
    """The sampler with its determinant test in ``ExactScalar`` arithmetic."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        while True:
            vals = [ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            if not (vals[0] * vals[3] - vals[1] * vals[2]).is_zero():
                break
            rejected.append(seed)
        ops.append(LocalOperator(((vals[0], vals[1]), (vals[2], vals[3]))))
    return LocalOperatorSet(tuple(ops))


def test_random_operators_follow_the_exact_scalar_reference():
    rejected = []
    for n in (1, 2, 4):
        for seed in range(150):
            assert random_invertible_local(n, seed) == _reference_draw(n, seed, rejected)
    assert rejected  # some draws were singular and redrawn


def test_rank_invariance_theorem():
    result = check_rank_invariance(trials=200, seed=7)
    assert result.passed, result.failures


def test_singular_value_count_invariance_floating():
    rng = random.Random(13)
    for trial in range(20):
        psi = random_exact_state(3, rng).to_float()
        ops = _floating(random_invertible_local(3, 500 + trial))
        phi = apply_local(psi, ops)
        for bits in ((1,), (2,), (3,)):
            before = sum(s > 1e-9 for s in singular_values(coefficient_matrix(psi, bits)))
            after = sum(s > 1e-9 for s in singular_values(coefficient_matrix(phi, bits)))
            assert before == after


def test_float_application_matches_kron():
    rng = random.Random(15)
    psi = random_exact_state(2, rng).to_float()
    ops = _floating(random_invertible_local(2, 9))
    phi = apply_local(psi, ops)
    (a, b), (c, d) = ops[0].entries
    (e, f), (g, h) = ops[1].entries
    big = np.kron(np.array([[a, b], [c, d]]), np.array([[e, f], [g, h]]))
    expect = big @ np.array(psi.amps)
    assert np.allclose(np.array(phi.amps), expect)


def test_operator_file_round_trip():
    ops = random_invertible_local(3, 21)
    again = parse_operator_file(render_operator_file(ops))
    assert again == ops


@pytest.mark.parametrize(
    "text",
    [
        '[["12", ["1", "0"]]]',  # a string row is not a row of two cells
        '[[["1", "0"], ["0", 1]]]',
        '[[["1", "0"], ["0", null]]]',
        "[null]",
        "[1]",
        '[[["1", "0"], ["0", "1"]], "ab"]',
        # deeper than the JSON parser recurses
        pytest.param("[" * 200_000 + "]" * 200_000, id="deeply-nested"),
    ],
)
def test_malformed_operator_entries_raise_value_error(text):
    with pytest.raises(ValueError, match="operator"):
        parse_operator_file(text)


def test_operator_set_size_checked():
    psi = state(2, [1, 0, 0, 1])
    with pytest.raises(ValueError):
        apply_local(psi, identity_ops(3))


def test_exact_apply_handles_denominators():
    psi = instantiate("L_ab3", (1, 2))  # amplitudes with denominator 2
    ops = random_invertible_local(4, 31)
    phi = apply_local(psi, ops)
    direct = apply_local(psi.to_float(), ops)
    assert np.allclose(
        [a.to_complex() for a in phi.amps], np.array(direct.amps), atol=1e-12
    )


def test_ghz_signature_under_random_ops():
    sig = rank_signature(ghz(4))
    for trial in range(10):
        ops = random_invertible_local(4, 600 + trial)
        assert rank_signature(apply_local(ghz(4), ops)) == sig
