"""State construction, text format, tensor products, permutations, scaling."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank.coeffmatrix import coefficient_matrix, rank
from sloccrank.families import instantiate
from sloccrank.scalars import (
    ExactScalar,
    I_OVER_SQRT2,
    ScalarFormatError,
    is_float_literal,
    parse_exact,
    parse_float,
)
from sloccrank.states import (
    PureState,
    QubitPermutation,
    StateFormatError,
    basis_state,
    parse_state,
    permute_qubits,
    product_state,
    render_state,
    scale,
    state,
    tensor,
)


def epr():
    return state(2, [1, 0, 0, 1])


def test_parse_state_epr():
    psi = parse_state('{n:2, amps:["1","0","0","1"]}')
    assert psi.n == 2 and psi.is_exact
    assert psi.amps == (ExactScalar(1), ExactScalar(0), ExactScalar(0), ExactScalar(1))


def test_parse_state_exact_with_root_two():
    psi = parse_state('{n:1, amps:["1/2 + 1/2*i*r2","0"]}')
    assert psi.amps[0].p == Fraction(1, 2)
    assert psi.amps[0].s == Fraction(1, 2)


def test_parse_state_zero_rejected():
    with pytest.raises(StateFormatError):
        parse_state('{n:2, amps:["0","0","0","0"]}')


def test_parse_state_length_mismatch():
    with pytest.raises(StateFormatError):
        parse_state('{n:2, amps:["1","0"]}')


def test_parse_state_reports_position():
    try:
        parse_state('{n:2, amps:["1", "frog", "0", "0"]}')
    except StateFormatError as exc:
        assert exc.position > 0
    else:
        pytest.fail("expected a syntax error")


def test_parse_state_float_marking():
    psi = parse_state('{n:1, amps:["0.5", "1"]}')
    assert not psi.is_exact
    assert psi.amps == (0.5 + 0j, 1 + 0j)


LITERALS = ("0", "1", "-1", "i", "1/2", "r2", "1-i", "2*i*r2", "0.5", "1e-3", "frog", "1/0", "")


def _parse_item_by_item(text, items):
    """The amplitudes of ``text`` parsed one literal at a time, each at its
    own position: the floating parser when any literal is floating."""
    parse = parse_float if any(is_float_literal(s) for s in items) else parse_exact
    amps, at = [], 0
    for s in items:
        at = text.index(f'"{s}"', at) + 1
        try:
            amps.append(parse(s, at))
        except ScalarFormatError as exc:
            raise StateFormatError(str(exc), exc.position) from exc
        at += len(s) + 1
    return tuple(amps)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.sampled_from(LITERALS), min_size=1 << n, max_size=1 << n)))
def test_parse_state_parses_each_distinct_literal_once_as_item_by_item(items):
    body = ", ".join(f'"{s}"' for s in items)
    text = f"{{n: {len(items).bit_length() - 1}, amps: [{body}]}}"
    try:
        want = _parse_item_by_item(text, items)
    except StateFormatError as exc:
        with pytest.raises(StateFormatError) as got:
            parse_state(text)
        assert (str(got.value), got.value.position) == (str(exc), exc.position)
        return
    if not any(want):
        return  # the zero vector: no state, whichever way it is parsed
    assert parse_state(text).amps == want


def test_repeated_bad_literal_is_reported_at_its_first_position():
    text = '{n: 2, amps: ["1", "frog", "0", "frog"]}'
    with pytest.raises(StateFormatError) as exc:
        parse_state(text)
    assert exc.value.position == text.index("frog")


def test_round_trip_exact_states():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 3)
        amps = [
            ExactScalar.from_components(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            for _ in range(1 << n)
        ]
        if all(a.is_zero() for a in amps):
            continue
        psi = state(n, amps)
        assert parse_state(render_state(psi)).amps == psi.amps


def test_round_trip_keeps_labels():
    psi = state(2, [1, 0, 0, 1], labels=("X", "Y"))
    again = parse_state(render_state(psi))
    assert again.labels == ("X", "Y")


def test_state_vector_length_enforced():
    with pytest.raises(ValueError):
        PureState(2, (ExactScalar(1),) * 3, ("A", "B"))


def test_mixed_amplitude_kinds_rejected():
    with pytest.raises(ValueError, match="mix"):
        PureState(1, (ExactScalar(1), 1j), ("A",))
    with pytest.raises(ValueError, match="mix"):
        PureState(1, (1j, ExactScalar(1)), ("A",))


def test_qubit_cap():
    with pytest.raises(ValueError):
        state(21, [1] + [0] * ((1 << 21) - 1))


def test_tensor_basis_kets():
    left = basis_state(1, 0)
    right = basis_state(1, 0)
    assert tensor(left, right).amps[0] == ExactScalar(1)


def test_tensor_with_placement_builds_middle_factor():
    # single qubit placed at position 2 of a three-qubit register,
    # entangled pair on the outer two positions
    phi = state(1, [2, 3])
    out = tensor(phi, epr(), left_positions=(2,))
    # amplitude of |x1 x2 x3> = phi[x2] * epr[x1 x3]
    expect = {}
    for w in range(8):
        x1, x2, x3 = (w >> 2) & 1, (w >> 1) & 1, w & 1
        expect[w] = phi.amps[x2] * epr().amps[(x1 << 1) | x3]
    assert tuple(expect[w] for w in range(8)) == out.amps
    # the pair split is rank 1 across {2}
    assert rank(coefficient_matrix(out, (2,))) == 1
    assert rank(coefficient_matrix(out, (1,))) == 2


def test_tensor_associativity():
    a = state(1, [1, 2])
    b = state(1, [3, 5])
    c = state(2, [1, 0, 0, 7])
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.amps == right.amps


def test_tensor_placement_validation():
    with pytest.raises(ValueError):
        tensor(state(1, [1, 0]), epr(), left_positions=(1, 2))
    with pytest.raises(ValueError):
        tensor(state(1, [1, 0]), epr(), left_positions=(9,))


def test_underflowing_product_names_the_underflow():
    tiny = state(1, [0, 6.7e-241j])
    with pytest.raises(ValueError, match="underflow"):
        tensor(tiny, tiny)
    with pytest.raises(ValueError, match="underflow"):
        product_state([(tiny, (1,)), (tiny, (2,))], 2)


def test_product_state_requires_partition():
    with pytest.raises(ValueError):
        product_state([(epr(), (1, 2)), (epr(), (2, 3))], 4)


def test_permute_bit_swap():
    psi = basis_state(2, 0b01)
    swapped = permute_qubits(psi, QubitPermutation.transposition(2, 1, 2))
    assert swapped.amps == basis_state(2, 0b10).amps


def test_permute_identity_is_exact_identity():
    psi = state(2, [1, 2, 3, 4])
    assert permute_qubits(psi, QubitPermutation.identity(2)).amps == psi.amps


def test_permutation_group_action():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 5)
        image1 = list(range(1, n + 1))
        image2 = list(range(1, n + 1))
        rng.shuffle(image1)
        rng.shuffle(image2)
        p1 = QubitPermutation(n, tuple(image1))
        p2 = QubitPermutation(n, tuple(image2))
        amps = [ExactScalar(rng.randint(-3, 3)) for _ in range(1 << n)]
        if all(a.is_zero() for a in amps):
            amps[0] = ExactScalar(1)
        psi = state(n, amps)
        two_steps = permute_qubits(permute_qubits(psi, p1), p2)
        composed = permute_qubits(psi, p2.compose(p1))
        assert two_steps.amps == composed.amps
        back = permute_qubits(permute_qubits(psi, p1), p1.inverse())
        assert back.amps == psi.amps


def test_permute_one_four_on_primed_family_matches_direct_map():
    psi = instantiate("L_ab3'", (1, 1))
    perm = QubitPermutation.transposition(4, 1, 4)
    moved = permute_qubits(psi, perm)
    expect = [ExactScalar(0)] * 16
    for w in range(16):
        bits = [(w >> 3) & 1, (w >> 2) & 1, (w >> 1) & 1, w & 1]
        swapped = (bits[3] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[0]
        expect[swapped] = psi.amps[w]
    assert moved.amps == tuple(expect)


def test_scale_examples():
    psi = epr()
    doubled = scale(psi, 2)
    assert doubled.amps == (ExactScalar(2), ExactScalar(0), ExactScalar(0), ExactScalar(2))
    assert scale(psi, 1).amps == psi.amps
    with pytest.raises(ValueError):
        scale(psi, 0)


def test_scale_preserves_rank():
    psi = epr()
    assert rank(coefficient_matrix(scale(psi, 3), (1,))) == rank(
        coefficient_matrix(psi, (1,))
    )


def test_mixed_amplitudes_become_float():
    psi = state(1, [ExactScalar(1), 0.5])
    assert not psi.is_exact


def test_exact_scalar_constant_in_templates():
    w_like = instantiate("L_ab3", (0, 0))
    assert w_like.amps[1] == I_OVER_SQRT2
    assert w_like.amps[0].is_zero()


@pytest.mark.parametrize("labels", [
    ("A", "A", "B", "C"),  # repeated: two splits would share one label key
    ("AB", "C", "D", "E"),  # "AB" + "C" would read like qubits A+B+C
    ("A", "B", "C", ""),
])
def test_labels_must_be_distinct_single_characters(labels):
    with pytest.raises(ValueError, match="distinct single characters"):
        state(4, [1] + [0] * 14 + [1], labels=labels)
