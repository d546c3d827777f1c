"""The degree-6 invariant, the two semi-invariants, and their orbit laws."""

import random
from fractions import Fraction

import pytest

from sloccrank.checks import check_det_identity, check_dxy_covariance, check_semi_invariants
from sloccrank.families import instantiate
from sloccrank.invariants import (
    closed_form_dxy,
    dxy,
    dxy_covariance_factor,
    f1,
    f2,
    invariant_report,
)
from sloccrank.scalars import ExactScalar
from sloccrank.slocc import IDENTITY_OP, LocalOperator, LocalOperatorSet, random_invertible_local
from sloccrank.states import state


FLOAT_ZERO_TOL = 1e-9  # relative cutoff for zero tests on floating values


def exact(v):
    return ExactScalar._coerce(Fraction(v))


def invariant_is_zero(value, reference: float = 1.0) -> bool:
    """Zero test: exact for ExactScalar, relative 1e-9 for floats."""
    if isinstance(value, ExactScalar):
        return value.is_zero()
    return abs(value) <= FLOAT_ZERO_TOL * max(1.0, abs(reference))


def test_dxy_anchor_values():
    assert dxy(instantiate("L_ab3", (1, 3))) == 16
    assert dxy(instantiate("L_ab3'", (1, 1))).is_zero()
    assert dxy(instantiate("G_abcd", (1, 2, 3, 4))) == 2800


def test_dxy_on_non_four_qubit_rejected():
    with pytest.raises(ValueError):
        dxy(state(3, [1] + [0] * 7))


def test_closed_forms_match_determinant_expansion():
    rng = random.Random(101)

    def tuples(k):
        for _ in range(50):
            yield tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(k))

    for values in tuples(4):
        try:
            psi = instantiate("G_abcd", values)
        except Exception:
            continue
        params = dict(zip("abcd", map(exact, values)))
        assert dxy(psi) == closed_form_dxy("G_abcd", params)
    for values in tuples(3):
        psi = instantiate("L_abc2", values)
        params = dict(zip("abc", map(exact, values)))
        assert dxy(psi) == closed_form_dxy("L_abc2", params)
    for family in ("L_ab3", "L_ab3'"):
        for values in tuples(2):
            psi = instantiate(family, values)
            params = dict(zip("ab", map(exact, values)))
            assert dxy(psi) == closed_form_dxy(family, params)


def test_closed_form_special_points():
    assert closed_form_dxy("L_abc2", {"a": exact(0), "b": exact(1), "c": exact(2)}).is_zero()
    assert closed_form_dxy("L_ab3", {"a": exact(2), "b": exact(2)}).is_zero()
    params = {k: exact(1) for k in "abcd"}
    assert closed_form_dxy("G_abcd", params).is_zero()
    with pytest.raises(ValueError):
        closed_form_dxy("nope", {})


def test_covariance_factor_examples():
    identity = LocalOperatorSet((IDENTITY_OP,) * 4)
    assert dxy_covariance_factor(identity) == 1
    doubled = (LocalOperator.of(2, 0, 0, 1),) + identity.ops[1:]
    assert dxy_covariance_factor(LocalOperatorSet(doubled)) == 8


def test_dxy_covariance_law():
    result = check_dxy_covariance(trials=100, seed=2)
    assert result.passed, result.failures


def test_dxy_invariant_under_unit_determinant_ops():
    from sloccrank.slocc import apply_local

    shear = LocalOperator.of(1, 1, 0, 1)
    lower = LocalOperator.of(1, 0, ExactScalar(0, 2), 1)
    ops = LocalOperatorSet((shear, lower, shear, lower))
    assert dxy_covariance_factor(ops) == 1
    psi = instantiate("G_abcd", (1, 2, 3, 4))
    assert dxy(apply_local(psi, ops)) == dxy(psi)


def test_invariant_is_zero_modes():
    assert invariant_is_zero(ExactScalar(0))
    assert not invariant_is_zero(ExactScalar(1, 0, 0, 0, 10**9))
    assert invariant_is_zero(1e-12 + 0j)
    assert not invariant_is_zero(1e-6 + 0j)


def test_vanishing_dichotomy():
    rng = random.Random(103)
    zero_state = instantiate("L_ab3'", (1, 1))  # invariant vanishes here
    nonzero_state = instantiate("L_ab3", (1, 3))
    for trial in range(20):
        ops = random_invertible_local(4, 700 + trial)
        from sloccrank.slocc import apply_local

        assert dxy(apply_local(zero_state, ops)).is_zero()
        assert not dxy(apply_local(nonzero_state, ops)).is_zero()


def test_semi_invariant_frozen_values():
    psi = instantiate("L_ab3", (1, 0))
    assert f1(psi) == ExactScalar(1, 0, 0, 0, 2)
    assert f2(psi).is_zero()
    primed = instantiate("L_ab3'", (1, -1))
    assert f1(primed) == -2
    assert f2(primed).is_zero()
    vac = state(4, [1] + [0] * 15)
    assert f1(vac).is_zero() and f2(vac).is_zero()


def test_semi_invariants_at_identity_follow_orbit_laws():
    # identity operators: first family gives (a^2-b^2)/2 and 0,
    # the primed family gives -(3a^2+b^2)/2 and 0
    for a, b in ((1, 2), (2, -1), (3, 3), (0, 4)):
        psi = instantiate("L_ab3", (a, b))
        half = ExactScalar(1, 0, 0, 0, 2)
        assert f1(psi) == half * (exact(a * a - b * b))
        assert f2(psi).is_zero()
        primed = instantiate("L_ab3'", (a, b))
        assert f1(primed) == -(half * exact(3 * a * a + b * b))
        assert f2(primed).is_zero()


def test_orbit_laws_and_annihilator():
    result = check_semi_invariants(trials=100, seed=3)
    assert result.passed, result.failures


def test_invariant_report_all_zero_for_basis_product():
    rep = invariant_report(state(4, [1] + [0] * 15))
    assert all(v.is_zero() for v in rep.as_dict().values())


def test_invariant_report_fields():
    rep = invariant_report(instantiate("L_ab3", (1, 3)))
    data = rep.as_dict()
    assert set(data) == {"dxy", "f1", "f2", "detAB", "detAC", "detAD"}
    assert data["dxy"] == 16
    # determinant identity links the report to the density route
    assert data["detAB"] * data["detAB"].conjugate() == check_det_value(1, 3)


def check_det_value(a, b):
    from sloccrank.coeffmatrix import det_density_exact, reduced_density

    psi = instantiate("L_ab3", (a, b))
    return det_density_exact(reduced_density(psi, (1, 2)))


def test_det_identity_property():
    result = check_det_identity(trials=100, seed=4)
    assert result.passed, result.failures
