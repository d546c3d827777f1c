"""The batched checks report what the per-trial loop reports, and fail on
one wrong rank or one wrong amplitude.

The references below are the per-trial loops the checks ran before they
batched their work.  Rank-invariance and kron-rank ranked each trial's
states on the lone route (``rank_signature``, ``split_rank``,
``recursive_rank``) as it was drawn; rank-invariance, matrix-transform,
dxy-covariance and semi-invariants applied each trial's operators with
its own ``apply_local`` (and ``transform_coefficient_matrix``) call.  A
wrong rank injected into one trial, through the state or through
``stacked_rank``, and a wrong amplitude injected into one trial's applied
state must fail the batched check at that trial, so a gate that ranked or
applied nothing could not pass.
"""

import random

import numpy as np
import pytest

import sloccrank.checks as checks
import sloccrank.coeffmatrix as coeffmatrix
from sloccrank.checks import CheckResult, _corpus, run_check
from sloccrank.coeffmatrix import (
    _canonical_plans,
    coefficient_matrix,
    enumerate_bipartitions,
    rank_signature,
    split_rank,
)
from sloccrank.families import default_registry, instantiate
from sloccrank.invariants import dxy, dxy_covariance_factor, f1, f2
from sloccrank.scalars import ExactScalar
from sloccrank.separability import recursive_rank
from sloccrank.slocc import (
    LocalOperator,
    LocalOperatorSet,
    apply_local,
    random_invertible_local,
    transform_coefficient_matrix,
)
from sloccrank.states import PureState, product_state, random_exact_state, state
from sloccrank.tables import ghz

SEEDS = (0, 7, 2024)
SIZES = (2, 3, 4, 5)


def _invariance_draws(trials, seed):
    """(t, n, psi, op seed) per trial, drawn as ``check_rank_invariance`` draws them."""
    corpus = {n: _corpus(n) for n in SIZES}
    rng = random.Random(seed)
    for t in range(trials):
        n = SIZES[t % len(SIZES)]
        yield t, n, corpus[n][rng.randrange(len(corpus[n]))], seed + 1000 * t + 1


def reference_rank_invariance(trials=200, seed=0):
    failures = []
    for t, n, psi, op_seed in _invariance_draws(trials, seed):
        sig = rank_signature(psi)
        if rank_signature(apply_local(psi, random_invertible_local(n, op_seed))) != sig:
            failures.append(f"trial {t}: signature changed (n={n}, op seed {op_seed})")
    return CheckResult("rank-invariance", trials, seed, not failures, failures)


def _kron_draws(trials, seed):
    """(factors, product) per trial, drawn as ``check_kron_rank`` draws them."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.choice((3, 4, 5, 6))
        order = list(range(1, n + 1))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), k=min(rng.choice((1, 2)), n - 1)))
        parts = []
        prev = 0
        for cut in cuts + [n]:
            parts.append(tuple(sorted(order[prev:cut])))
            prev = cut
        factors = [(random_exact_state(len(p), rng), p) for p in parts]
        yield factors, product_state(factors, n)


def reference_kron_rank(trials=100, seed=0):
    failures = []
    for t, (factors, psi) in enumerate(_kron_draws(trials, seed)):
        for bp in enumerate_bipartitions(psi.n):
            via_product = recursive_rank(factors, bp.row_bits)
            direct = split_rank(psi, bp.row_bits, bp.col_bits)
            if via_product != direct:
                failures.append(
                    f"trial {t}: split {bp.canonical_key()} product {via_product} != {direct}"
                )
                break
    return CheckResult("kron-rank", trials, seed, not failures, failures)


def reference_matrix_transform(trials=100, seed=0):
    failures = []
    rng = random.Random(seed)
    for t in range(trials):
        n = rng.choice((2, 3, 4))
        psi = random_exact_state(n, rng)
        ops = random_invertible_local(n, seed + 7919 * t + 3)
        phi = apply_local(psi, ops)
        for bp in enumerate_bipartitions(n):
            C = coefficient_matrix(psi, bp.row_bits, bp.col_bits)
            direct = transform_coefficient_matrix(C, ops)
            rebuilt = coefficient_matrix(phi, bp.row_bits, bp.col_bits)
            if direct.entries != rebuilt.entries:
                failures.append(f"trial {t}: mismatch at split {bp.canonical_key()}")
                break
    return CheckResult("matrix-transform", trials, seed, not failures, failures)


def reference_dxy_covariance(trials=100, seed=0):
    failures = []
    rng = random.Random(seed)
    for t in range(trials):
        psi = random_exact_state(4, rng)
        ops = random_invertible_local(4, seed + 104729 * t + 11)
        lhs = dxy(apply_local(psi, ops))
        before = dxy(psi)
        rhs = before * dxy_covariance_factor(ops)
        if lhs != rhs:
            failures.append(f"trial {t}: covariance violated (op seed {seed + 104729 * t + 11})")
        elif before.is_zero() != lhs.is_zero():
            failures.append(f"trial {t}: vanishing not preserved")
    return CheckResult("dxy-covariance", trials, seed, not failures, failures)


def reference_semi_invariants(trials=100, seed=0):
    failures = []
    rng = random.Random(seed)
    reg = default_registry()
    for t in range(trials):
        a = ExactScalar(rng.randint(-4, 4))
        b = ExactScalar(rng.randint(-4, 4))
        ops = random_invertible_local(4, seed + 65537 * t + 7)
        alpha = ops[0].entries
        a1, a2 = alpha[0]
        a3, a4 = alpha[1]
        rest = ops[1].det() * ops[2].det() * ops[3].det()
        rest2 = rest * rest
        psi = apply_local(instantiate("L_ab3", {"a": a, "b": b}, reg), ops)
        lead = checks._semi_half(a * a - b * b)
        if f1(psi) != lead * (a1 * a1 * a1 * a1) * rest2:
            failures.append(f"trial {t}: first-family f1 law violated")
        if f2(psi) != lead * (a3 * a3 * a3 * a3) * rest2:
            failures.append(f"trial {t}: first-family f2 law violated")
        phi = apply_local(instantiate("L_ab3'", {"a": a, "b": b}, reg), ops)
        front = ExactScalar(0, -1, 0, 0) * ExactScalar(0, 0, 1, 0, 4)
        m_sq = ExactScalar(3) * a * a + b * b
        m_cu = ExactScalar(8) * a * (a * a - b * b)
        inner1 = ExactScalar(0, 0, 0, -1) * m_sq * a1 + m_cu * a2
        inner2 = ExactScalar(0, 0, 0, -1) * m_sq * a3 + m_cu * a4
        if f1(phi) != front * (a1 * a1 * a1) * inner1 * rest2:
            failures.append(f"trial {t}: primed-family f1 law violated")
        if f2(phi) != front * (a3 * a3 * a3) * inner2 * rest2:
            failures.append(f"trial {t}: primed-family f2 law violated")
    count = 0
    attempt = 0
    while count < 20:
        attempt += 1
        a = ExactScalar(rng.randint(-4, 4))
        b = ExactScalar(rng.randint(-4, 4))
        guard = a * (a * a - b * b)
        if guard.is_zero():
            continue
        count += 1
        alpha1 = ExactScalar(rng.randint(1, 3))
        alpha4 = ExactScalar(rng.randint(1, 3))
        m_sq = ExactScalar(3) * a * a + b * b
        alpha2 = ExactScalar(0, 0, 0, 1) * m_sq * alpha1 / (ExactScalar(8) * guard)
        star = LocalOperator(((alpha1, alpha2), (ExactScalar(0), alpha4)))
        tail = random_invertible_local(3, seed + 31 * attempt)
        ops = LocalOperatorSet((star,) + tail.ops)
        phi = apply_local(instantiate("L_ab3'", {"a": a, "b": b}, reg), ops)
        if not (f1(phi).is_zero() and f2(phi).is_zero()):
            failures.append(f"annihilator failed at a={a}, b={b}")
    return CheckResult("semi-invariants", trials, seed, not failures, failures)


def _fields(result):
    return result.name, result.trials, result.seed, result.passed, result.failures


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name, reference",
    [("rank-invariance", reference_rank_invariance), ("kron-rank", reference_kron_rank)],
)
def test_the_batched_check_reports_what_the_loop_reports(name, reference, seed):
    assert _fields(run_check(name, seed=seed)) == _fields(reference(seed=seed))


APPLYING = {
    "matrix-transform": reference_matrix_transform,
    "dxy-covariance": reference_dxy_covariance,
    "semi-invariants": reference_semi_invariants,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(APPLYING))
def test_the_batched_applications_report_what_the_loop_reports(name, seed):
    assert _fields(run_check(name, trials=15, seed=seed)) == _fields(
        APPLYING[name](trials=15, seed=seed)
    )


def _one_amplitude_off(psi):
    """``psi`` with its first amplitude raised by one."""
    return PureState(psi.n, (psi.amps[0] + 1,) + psi.amps[1:], psi.labels)


def _wrong_application(monkeypatch, index):
    """``apply_local_many`` with one wrong amplitude in its ``index``-th state."""
    real = checks.apply_local_many

    def wrong(pairs):
        out = real(pairs)
        out[index] = _one_amplitude_off(out[index])
        return out

    monkeypatch.setattr(checks, "apply_local_many", wrong)


def _split_matrices(psi):
    """The bytes of each canonical split's int64 quadruple matrix, as ``stacked_rank`` sees it."""
    quads = psi.cleared[0]
    assert quads.dtype == np.int64
    return {
        quads.transpose(plan.axes + (psi.n,)).reshape(plan.rows, plan.cols, 4).tobytes()
        for plan in _canonical_plans(psi.n)
    }


def _one_more_on(monkeypatch, target):
    """``stacked_rank`` reading one more than the rank of each matrix of ``target``."""
    real = coeffmatrix.stacked_rank

    def wrong(q):
        ranks = real(q)
        for b in range(len(q)):
            ranks[b] += q[b].tobytes() in target
        return ranks

    monkeypatch.setattr(coeffmatrix, "stacked_rank", wrong)


def _deficient(psi):
    sig = rank_signature(psi)
    return any(sig.ranks[p.key] < min(p.rows, p.cols) for p in _canonical_plans(psi.n))


def _names(result):
    return [failure.split(":")[0] for failure in result.failures]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_wrong_stacked_rank_fails_rank_invariance_at_its_trial(monkeypatch, seed):
    # the first trial with a shortfall, whose split ranks come from stacked_rank
    t, n, psi, op_seed = next(d for d in _invariance_draws(200, seed) if _deficient(d[2]))
    moved = apply_local(psi, random_invertible_local(n, op_seed))
    _one_more_on(monkeypatch, _split_matrices(moved))
    result = run_check("rank-invariance", seed=seed)
    assert not result.passed
    assert _names(result) == [f"trial {t}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_wrong_stacked_rank_fails_kron_rank_at_its_trial(monkeypatch, seed):
    t = 3  # every product has at least two factors, so some split falls short
    _, psi = list(_kron_draws(t + 1, seed))[t]
    _one_more_on(monkeypatch, _split_matrices(psi))
    result = run_check("kron-rank", seed=seed)
    assert not result.passed
    assert _names(result) == [f"trial {t}"]


def test_a_wrong_state_fails_rank_invariance_at_its_trial(monkeypatch):
    target = 13
    real = checks.apply_local_many

    def wrong(pairs):
        out = real(pairs)
        psi = pairs[target][0]
        basis = state(psi.n, [1] + [0] * ((1 << psi.n) - 1))  # every rank 1
        out[target] = ghz(psi.n) if rank_signature(psi) == rank_signature(basis) else basis
        return out

    monkeypatch.setattr(checks, "apply_local_many", wrong)
    result = run_check("rank-invariance", seed=5)
    assert not result.passed
    assert _names(result) == [f"trial {target}"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name, index",
    [
        ("matrix-transform", lambda t: t),
        ("dxy-covariance", lambda t: t),
        ("semi-invariants", lambda t: 2 * t),  # each trial applies two states
    ],
    ids=["matrix-transform", "dxy-covariance", "semi-invariants"],
)
def test_one_wrong_amplitude_fails_the_check_at_its_trial(monkeypatch, name, index, seed):
    target = 6
    _wrong_application(monkeypatch, index(target))
    result = run_check(name, trials=15, seed=seed)
    assert not result.passed
    assert set(_names(result)) == {f"trial {target}"}


def test_semi_invariants_builds_each_family_state_once(monkeypatch):
    """One ``instantiate`` per (family, a, b) of a call, however many trials
    and annihilators share it; the result is that of the per-trial loop."""
    built = []
    real = checks.instantiate

    def counted(name, values, reg):
        built.append((name, values["a"], values["b"]))
        return real(name, values, reg)

    monkeypatch.setattr(checks, "instantiate", counted)
    result = run_check("semi-invariants", trials=60, seed=5)
    assert len(built) == len(set(built)) <= 2 * 81
    assert len(built) < 2 * 60 + 20  # some pair was drawn twice and built once
    assert _fields(result) == _fields(reference_semi_invariants(trials=60, seed=5))

