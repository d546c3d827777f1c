"""The batched rank-invariance and kron-rank checks report what the
per-trial loop reports, and fail on one wrong rank.

The references below are the per-trial loops the two checks ran before
they ranked their states in one ``rank_signatures`` batch: each trial
ranks its states on the lone route (``rank_signature``, ``split_rank``,
``recursive_rank``) as it is drawn.  A wrong rank injected into one trial,
through the state or through ``stacked_rank``, must fail the batched check
at that trial, so a gate that ranked nothing could not pass.
"""

import random

import pytest

import sloccrank.checks as checks
import sloccrank.coeffmatrix as coeffmatrix
from sloccrank.checks import CheckResult, _corpus, run_check
from sloccrank.coeffmatrix import (
    _canonical_plans,
    _int64_quads,
    enumerate_bipartitions,
    rank_signature,
    split_rank,
)
from sloccrank.separability import recursive_rank
from sloccrank.slocc import apply_local, random_invertible_local
from sloccrank.states import product_state, random_exact_state, state
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


def _fields(result):
    return result.name, result.trials, result.seed, result.passed, result.failures


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name, reference",
    [("rank-invariance", reference_rank_invariance), ("kron-rank", reference_kron_rank)],
)
def test_the_batched_check_reports_what_the_loop_reports(name, reference, seed):
    assert _fields(run_check(name, seed=seed)) == _fields(reference(seed=seed))


def _split_matrices(psi):
    """The bytes of each canonical split's int64 quadruple matrix, as ``stacked_rank`` sees it."""
    quads = _int64_quads(psi)
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
    calls = []
    real = checks.apply_local

    def wrong(psi, ops):
        calls.append(None)
        out = real(psi, ops)
        if len(calls) - 1 != target:
            return out
        basis = state(psi.n, [1] + [0] * ((1 << psi.n) - 1))  # every rank 1
        return ghz(psi.n) if rank_signature(psi) == rank_signature(basis) else basis

    monkeypatch.setattr(checks, "apply_local", wrong)
    result = run_check("rank-invariance", seed=5)
    assert not result.passed
    assert _names(result) == [f"trial {target}"]
