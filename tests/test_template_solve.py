"""The echelon-based affine solve and ``match_template`` against oracles."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sloccrank.families import (
    FamilyError,
    _solve_affine_system,
    default_registry,
    instantiate,
    match_template,
)
from sloccrank.scalars import ExactScalar
from sloccrank.states import state
from _oracles import ref_rank_exact

ROWS = 16
ZERO = ExactScalar(0)
SYMS = ("p", "q", "r", "s")

quad_scalars = st.tuples(*[st.integers(-3, 3)] * 4).map(lambda q: ExactScalar(*q))
sparse_scalars = st.one_of(st.just(ZERO), quad_scalars)


@st.composite
def coefficient_columns(draw):
    """Up to four columns over Z[i, sqrt2]: dense, sparse, zero or a multiple of an earlier one."""
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("dense", "sparse", "zero", "repeat")))
        if kind == "repeat" and cols:
            factor = draw(quad_scalars)
            cols.append([factor * x for x in draw(st.sampled_from(cols))])
        elif kind == "zero":
            cols.append([ZERO] * ROWS)
        else:
            cells = quad_scalars if kind == "dense" else sparse_scalars
            cols.append(draw(st.lists(cells, min_size=ROWS, max_size=ROWS)))
    return [[col[i] for col in cols] for i in range(ROWS)]


def _times(A, x):
    return [sum((a * v for a, v in zip(row, x)), ZERO) for row in A]


def _solve(A, b):
    k = len(A[0])
    solution = _solve_affine_system(list(zip(A, b)), SYMS[:k])
    return None if solution is None else [solution[s] for s in SYMS[:k]]


@settings(max_examples=150, deadline=None)
@given(coefficient_columns(), st.data())
def test_consistent_system_is_solved(A, data):
    x0 = data.draw(st.lists(quad_scalars, min_size=len(A[0]), max_size=len(A[0])))
    b = _times(A, x0)
    x = _solve(A, b)
    assert x is not None
    assert _times(A, x) == b


@settings(max_examples=150, deadline=None)
@given(coefficient_columns(), st.lists(sparse_scalars, min_size=ROWS, max_size=ROWS))
def test_inconsistent_system_has_no_solution(A, b):
    assume(ref_rank_exact([row + [v] for row, v in zip(A, b)]) > ref_rank_exact(A))
    assert _solve(A, b) is None


TEMPLATED = ("G_abcd", "L_abc2", "L_ab3", "L_ab3'")
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
)
nonzero_scales = st.builds(
    ExactScalar.from_components, rationals, rationals, rationals, rationals
).filter(lambda x: not x.is_zero())


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(TEMPLATED), st.data())
def test_match_template_round_trip(family, data):
    template = default_registry().get(family).template
    values = {p: data.draw(rationals) for p in template.params}
    try:
        base = instantiate(family, values)
    except FamilyError:
        assume(False)  # the zero vector is not a state
    s = data.draw(nonzero_scales)
    psi = state(4, [s * a for a in base.amps])
    # a template without constant terms absorbs the scale into its parameters
    homogeneous = all(e.const.is_zero() for e in template.amps)
    truth = {p: s * v if homogeneous else ExactScalar._coerce(v) for p, v in values.items()}
    pinned = data.draw(st.lists(st.sampled_from(template.params), unique=True))
    fixed = {p: truth[p] for p in pinned}

    hit = match_template(psi, family, fixed=fixed)

    assert hit is not None
    scale_value, bindings = hit
    assert all(bindings[p] == truth[p] for p in pinned)
    assert [scale_value * e.evaluate(bindings) for e in template.amps] == list(psi.amps)
