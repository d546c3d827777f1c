"""Named property checks: randomised verification of the core identities.

Each check runs a number of seeded trials and evaluates one identity by
two independent routes; any disagreement is reported with the seed that
reproduces it.  The CLI ``verify`` command and the acceptance suite both
drive these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .coeffmatrix import (
    coefficient_matrix,
    det_coeff,
    det_density_exact,
    enumerate_bipartitions,
    rank_signatures,
    reduced_density,
)
from .families import default_registry, instantiate
from .invariants import dxy, dxy_covariance_factor, f1, f2
from .scalars import ExactScalar
from .separability import recursive_rank
from .slocc import (
    LocalOperator,
    LocalOperatorSet,
    apply_local_many,
    random_invertible_local,
    transform_coefficient_matrices,
)
from .states import product_state, random_exact_state
from .tables import epr, ghz, w_state


@dataclass
class CheckResult:
    name: str
    trials: int
    seed: int
    passed: bool
    failures: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{status} {self.name} (trials={self.trials}, seed={self.seed})"
        if self.failures:
            out += "\n  " + "\n  ".join(self.failures[:5])
        return out


def _corpus(n: int):
    """Fixed representative states of n qubits for invariance trials."""
    if n == 2:
        return [epr(), product_state([(ghz(1), (1,)), (ghz(1), (2,))], 2)]
    if n == 3:
        return [ghz(3), w_state(3), product_state([(ghz(1), (1,)), (epr(), (2, 3))], 3)]
    if n == 4:
        reg = default_registry()
        return [
            ghz(4),
            w_state(4),
            product_state([(epr(), (1, 2)), (epr(), (3, 4))], 4),
            product_state([(ghz(1), (1,)), (ghz(3), (2, 3, 4))], 4),
            instantiate("G_abcd", (1, 2, 3, 4), reg),
            instantiate("L_ab3", (1, 2), reg),
            instantiate("L_ab3'", (1, 1), reg),
            instantiate("L_abc2", (1, 2, 3), reg),
        ]
    if n == 5:
        return [
            ghz(5),
            w_state(5),
            product_state([(epr(), (1, 3)), (ghz(3), (2, 4, 5))], 5),
        ]
    raise ValueError(f"no corpus for n={n}")


def check_rank_invariance(trials: int = 200, seed: int = 0) -> CheckResult:
    """Rank signatures are unchanged by invertible local operators.

    Every trial is drawn first; the operators are applied in one
    ``apply_local_many`` call, and the corpus states and the transformed
    ones are ranked in one ``rank_signatures`` batch.
    """
    failures = []
    sizes = (2, 3, 4, 5)
    corpus = {n: _corpus(n) for n in sizes}
    rng = random.Random(seed)
    drawn = []
    for t in range(trials):
        n = sizes[t % len(sizes)]
        psi = corpus[n][rng.randrange(len(corpus[n]))]
        drawn.append((psi, random_invertible_local(n, seed + 1000 * t + 1)))
    sigs = rank_signatures([psi for psi, _ in drawn] + apply_local_many(drawn))
    for t, (sig, moved) in enumerate(zip(sigs[:trials], sigs[trials:])):
        if moved != sig:
            n = sizes[t % len(sizes)]
            failures.append(f"trial {t}: signature changed (n={n}, op seed {seed + 1000 * t + 1})")
    return CheckResult("rank-invariance", trials, seed, not failures, failures)


MATRIX_BATCH = 10  # trials whose coefficient matrices are transformed in one call


def check_matrix_transform(trials: int = 100, seed: int = 0) -> CheckResult:
    """Transforming the matrix equals rebuilding it from the transformed state.

    Every trial is drawn first and the states are transformed in one
    ``apply_local_many`` call; the matrices of every split are then
    transformed ``MATRIX_BATCH`` trials at a time.
    """
    failures = []
    rng = random.Random(seed)
    drawn = []
    for t in range(trials):
        n = rng.choice((2, 3, 4))
        drawn.append((random_exact_state(n, rng), random_invertible_local(n, seed + 7919 * t + 3)))
    moved = apply_local_many(drawn)
    for start in range(0, trials, MATRIX_BATCH):
        batch = range(start, min(start + MATRIX_BATCH, trials))
        jobs = [
            (t, bp, coefficient_matrix(drawn[t][0], bp.row_bits, bp.col_bits))
            for t in batch
            for bp in enumerate_bipartitions(drawn[t][0].n)
        ]
        directs = transform_coefficient_matrices([(C, drawn[t][1]) for t, _, C in jobs])
        failed = set()
        for (t, bp, _), direct in zip(jobs, directs):
            if t in failed:
                continue
            rebuilt = coefficient_matrix(moved[t], bp.row_bits, bp.col_bits)
            if direct.entries != rebuilt.entries:
                failures.append(f"trial {t}: mismatch at split {bp.canonical_key()}")
                failed.add(t)
    return CheckResult("matrix-transform", trials, seed, not failures, failures)


def check_kron_rank(trials: int = 100, seed: int = 0) -> CheckResult:
    """Blockwise rank products equal direct ranks of the assembled state.

    Every trial is drawn first; the products and their factors are then
    ranked in one ``rank_signatures`` batch, so ``recursive_rank`` reads
    the factors' memos.
    """
    failures = []
    rng = random.Random(seed)
    drawn = []
    for _ in range(trials):
        n = rng.choice((3, 4, 5, 6))
        # random partition of 1..n into up to three parts
        order = list(range(1, n + 1))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), k=min(rng.choice((1, 2)), n - 1)))
        parts = []
        prev = 0
        for cut in cuts + [n]:
            parts.append(tuple(sorted(order[prev:cut])))
            prev = cut
        factors = [(random_exact_state(len(p), rng), p) for p in parts]
        drawn.append((factors, product_state(factors, n)))
    sigs = rank_signatures(
        [psi for _, psi in drawn] + [f for factors, _ in drawn for f, _ in factors]
    )
    for t, ((factors, psi), sig) in enumerate(zip(drawn, sigs)):
        for bp in enumerate_bipartitions(psi.n):
            via_product = recursive_rank(factors, bp.row_bits)
            direct = sig.ranks[bp.canonical_key()]
            if via_product != direct:
                failures.append(
                    f"trial {t}: split {bp.canonical_key()} product {via_product} != {direct}"
                )
                break
    return CheckResult("kron-rank", trials, seed, not failures, failures)


def check_det_identity(trials: int = 100, seed: int = 0) -> CheckResult:
    """det(rho_S) equals |det C_S|^2, exactly on exact states."""
    failures = []
    rng = random.Random(seed)
    for t in range(trials):
        psi = random_exact_state(4, rng)
        half = tuple(sorted(rng.sample(range(1, 5), 2)))
        det_c = det_coeff(psi, half)
        rho = reduced_density(psi, half)
        lhs = det_density_exact(rho)
        rhs = det_c * det_c.conjugate()
        if lhs != rhs:
            failures.append(f"trial {t}: half {half} det mismatch")
    return CheckResult("det-identity", trials, seed, not failures, failures)


def check_dxy_covariance(trials: int = 100, seed: int = 0) -> CheckResult:
    """dxy picks up exactly the cubed determinant product.

    Every trial is drawn first and transformed in one ``apply_local_many`` call.
    """
    failures = []
    rng = random.Random(seed)
    drawn = [
        (random_exact_state(4, rng), random_invertible_local(4, seed + 104729 * t + 11))
        for t in range(trials)
    ]
    for t, ((psi, ops), phi) in enumerate(zip(drawn, apply_local_many(drawn))):
        lhs = dxy(phi)
        before = dxy(psi)
        rhs = before * dxy_covariance_factor(ops)
        if lhs != rhs:
            failures.append(f"trial {t}: covariance violated (op seed {seed + 104729 * t + 11})")
        elif before.is_zero() != lhs.is_zero():
            failures.append(f"trial {t}: vanishing not preserved")
    return CheckResult("dxy-covariance", trials, seed, not failures, failures)


def _semi_half(v: ExactScalar) -> ExactScalar:
    return v * ExactScalar(1, 0, 0, 0, 2)


def check_semi_invariants(trials: int = 100, seed: int = 0) -> CheckResult:
    """Orbit laws of f1/f2 on both ten-amplitude families, plus the annihilator.

    Every trial and every annihilator is drawn first; each family state is
    built once per (family, a, b), and the operators are applied in one
    ``apply_local_many`` call.
    """
    failures = []
    rng = random.Random(seed)
    reg = default_registry()
    drawn = []
    for t in range(trials):
        a = ExactScalar(rng.randint(-4, 4))
        b = ExactScalar(rng.randint(-4, 4))
        drawn.append((a, b, random_invertible_local(4, seed + 65537 * t + 7)))
    # annihilating operator: alpha2 chosen so both semi-invariants vanish
    annihilators = []
    attempt = 0
    while len(annihilators) < 20:
        attempt += 1
        a = ExactScalar(rng.randint(-4, 4))
        b = ExactScalar(rng.randint(-4, 4))
        guard = a * (a * a - b * b)
        if guard.is_zero():
            continue
        alpha1 = ExactScalar(rng.randint(1, 3))
        alpha4 = ExactScalar(rng.randint(1, 3))
        m_sq = ExactScalar(3) * a * a + b * b
        alpha2 = ExactScalar(0, 0, 0, 1) * m_sq * alpha1 / (ExactScalar(8) * guard)
        star = LocalOperator(((alpha1, alpha2), (ExactScalar(0), alpha4)))
        tail = random_invertible_local(3, seed + 31 * attempt)
        annihilators.append((a, b, LocalOperatorSet((star,) + tail.ops)))
    jobs = [((f, a, b), ops) for a, b, ops in drawn for f in ("L_ab3", "L_ab3'")]
    jobs += [(("L_ab3'", a, b), ops) for a, b, ops in annihilators]
    built = {}
    for key, _ in jobs:
        if key not in built:
            built[key] = instantiate(key[0], {"a": key[1], "b": key[2]}, reg)
    moved = apply_local_many([(built[key], ops) for key, ops in jobs])
    for t, (a, b, ops) in enumerate(drawn):
        alpha = ops[0].entries
        a1, a2 = alpha[0]
        a3, a4 = alpha[1]
        rest = ops[1].det() * ops[2].det() * ops[3].det()
        rest2 = rest * rest
        # first family: f1 = (a^2 - b^2)/2 * alpha1^4 * rest^2 and alpha3^4 for f2
        psi = moved[2 * t]
        lead = _semi_half(a * a - b * b)
        if f1(psi) != lead * (a1 * a1 * a1 * a1) * rest2:
            failures.append(f"trial {t}: first-family f1 law violated")
        if f2(psi) != lead * (a3 * a3 * a3 * a3) * rest2:
            failures.append(f"trial {t}: first-family f2 law violated")
        # primed family: f1 = -i/(2*sqrt2) * alpha1^3 *
        #   (-i*sqrt2*(3a^2+b^2)*alpha1 + 8a(a^2-b^2)*alpha2) * rest^2
        phi = moved[2 * t + 1]
        front = ExactScalar(0, -1, 0, 0) * ExactScalar(0, 0, 1, 0, 4)  # -i/(2*sqrt2)
        m_sq = ExactScalar(3) * a * a + b * b
        m_cu = ExactScalar(8) * a * (a * a - b * b)
        inner1 = ExactScalar(0, 0, 0, -1) * m_sq * a1 + m_cu * a2
        inner2 = ExactScalar(0, 0, 0, -1) * m_sq * a3 + m_cu * a4
        if f1(phi) != front * (a1 * a1 * a1) * inner1 * rest2:
            failures.append(f"trial {t}: primed-family f1 law violated")
        if f2(phi) != front * (a3 * a3 * a3) * inner2 * rest2:
            failures.append(f"trial {t}: primed-family f2 law violated")
    for (a, b, _), phi in zip(annihilators, moved[2 * trials:]):
        if not (f1(phi).is_zero() and f2(phi).is_zero()):
            failures.append(f"annihilator failed at a={a}, b={b}")
    return CheckResult("semi-invariants", trials, seed, not failures, failures)


CHECKS = {
    "rank-invariance": check_rank_invariance,
    "matrix-transform": check_matrix_transform,
    "kron-rank": check_kron_rank,
    "det-identity": check_det_identity,
    "dxy-covariance": check_dxy_covariance,
    "semi-invariants": check_semi_invariants,
}


MAX_TRIALS = 10_000  # every check but det-identity holds all its draws at once


def run_check(name: str, trials: int | None = None, seed: int = 0) -> CheckResult:
    """Run one check with ``trials`` trials (its default when ``None``), from 1
    to ``MAX_TRIALS``: a check that ran nothing must not pass, and the draws
    of ``MAX_TRIALS`` trials must fit in memory."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    fn = CHECKS[name]
    if trials is None:
        return fn(seed=seed)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    return fn(trials=trials, seed=seed)
