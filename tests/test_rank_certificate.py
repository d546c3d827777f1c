"""The proof of a rank shortfall agrees with exact Bareiss elimination.

A lone matrix whose rank r mod P falls short, and which no upper bound
proves, is not eliminated exactly: ``stacked_rank`` takes it as a stack
of one, its F_P pivot lines first.  The pivot minor proves rank >= r and
the (r+1)-minors, checked mod enough table primes to pass the
``_norm_bits`` bound on their norms, prove rank <= r.  Every case
compares ``bareiss(det=False)`` with ``_eliminate``; the fixed cases also
pin which route answered, and the hand-built ones sit on the edges of the
proof: a minor vanishing mod P only, a minor vanishing mod every prime but
the last one the bound needs, a pivot vanishing mod a table prime, and
components too large for int64.  These matrices are lone (not a state's
split); ``test_stack_certificate`` repeats the edges on state splits,
which take the same route.
"""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sloccrank._kernels as kernels
from sloccrank._kernels import (
    I_P,
    I_Q,
    P,
    PRIME_BITS,
    PRIME_TABLE,
    S_P,
    S_Q,
    Q,
    ZERO4,
    _eliminate,
    _h2,
    _norm_bits,
    adjoint_and_norm,
    bareiss,
    mul4,
)

SHAPES = [(8, 8), (16, 16), (8, 32), (32, 8)]
SEEDS = st.integers(0, 2**32)  # cells come from a seeded generator, as in test_modular_rank
ONES = (1, 0, 0, 0)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def _outer_sum(left, right):
    """Row-major sum of the outer products left[:, k] x right[k, :]."""
    flat = []
    for row in left:
        for j in range(len(right[0]) if right else 0):
            acc = ZERO4
            for k, x in enumerate(row):
                acc = _add(acc, mul4(x, right[k][j]))
            flat.append(acc)
    return flat


def _small(rng, span=3):
    return tuple(rng.randint(-span, span) for _ in range(4))


def _nonzero(rng, span=3):
    x = _small(rng, span)
    return x if any(x) else ONES


def _assert_ranks_agree(flat, rows, cols):
    rank, det = bareiss(list(flat), rows, cols, det=False)
    assert det is None
    assert rank == _eliminate(list(flat), rows, cols)[0]
    return rank


# --- the prime table --------------------------------------------------------


def _is_prime(n):
    """Miller-Rabin with bases 2, 3, 5 and 7, deterministic below 3,215,031,751."""
    if n < 11:
        return n in (2, 3, 5, 7)
    if any(n % a == 0 for a in (2, 3, 5, 7)):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_table():
    primes = [p for p, _, _ in PRIME_TABLE]
    assert len(set(primes + [P])) == len(primes) + 1 >= 60  # distinct, and none is P
    for p, i_p, s_p in PRIME_TABLE + ((P, I_P, S_P),):
        assert _is_prime(p) and p % 8 == 1
        assert i_p * i_p % p == p - 1
        assert s_p * s_p % p == 2
        assert 2**PRIME_BITS < p < 2**31  # so every product of two residues is below 2**62


def _eighth_root_images(p):
    """(I_p, S_p) = (z**2, z + z**7) for z = g**((p - 1) / 8), g the least
    quadratic non-residue mod p: z is a primitive 8th root of unity, so
    z**2 is a square root of -1 and (z + z**-1)**2 = 2."""
    g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
    z = pow(g, (p - 1) // 8, p)
    return z * z % p, (z + pow(z, 7, p)) % p


def _primes_1_mod_8_below(bound):
    return (p for p in range(bound - 1 - (bound - 2) % 8, 1, -8) if _is_prime(p))


def test_prime_table_is_the_eighth_root_construction():
    """The table is the 64 primes = 1 (mod 8) next below P, none skipped, each
    with the images of the eighth-root construction; P is the largest such
    prime below 2**31 and Q the largest below 2**20.  I_P and I_Q may be
    either root of -1."""
    below_p = _primes_1_mod_8_below(P)
    assert PRIME_TABLE == tuple((p, *_eighth_root_images(p)) for p, _ in zip(below_p, range(64)))
    for bound, (p, i_p, s_p) in ((2**31, (P, I_P, S_P)), (2**20, (Q, I_Q, S_Q))):
        assert next(_primes_1_mod_8_below(bound)) == p
        i_z, s_z = _eighth_root_images(p)
        assert i_p in (i_z, p - i_z) and s_p == s_z


def test_miller_rabin_helper():
    assert [n for n in range(60) if _is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59
    ]
    assert _is_prime(2147483647) and not _is_prime(2147483647 * 3)
    assert not _is_prime(2047)  # the strong pseudoprime to base 2
    assert max(p for p, _, _ in PRIME_TABLE) < P < 3215031751


# --- the norm bound ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 4), st.sampled_from((1, 3, 2**20)))
def test_norm_bits_bound_every_minor_norm(seed, size, span):
    rng = random.Random(seed)
    rows, cols = size + rng.randint(0, 3), size + rng.randint(0, 3)
    q = np.array([_small(rng, span) for _ in range(rows * cols)]).reshape(rows, cols, 4)
    bits = _norm_bits(float(_h2(q).sum()), size)
    for _ in range(5):
        u = rng.randint(1, size)  # the bound covers every minor of at most size rows
        ri = sorted(rng.sample(range(rows), u))
        ci = sorted(rng.sample(range(cols), u))
        minor = [tuple(int(v) for v in q[i, j]) for i in ri for j in ci]
        det = _eliminate(minor, u, u)[1]
        assert abs(adjoint_and_norm(det)[1]) < 2**bits


def test_norm_bits_covers_smaller_minors_of_a_small_total():
    # a lone 2 in a 4 x 4: T = 4 = size, and its 1-minor has norm 16 > (T / size)**8 = 1
    assert adjoint_and_norm((2, 0, 0, 0))[1] == 16 < 2 ** _norm_bits(4.0, 4)
    totals = np.array([0.0, 4.0, 1e6])  # one bound per matrix, a zero matrix among them
    assert _norm_bits(totals, 4).tolist() == [_norm_bits(t, 4) for t in totals.tolist()]


# --- differential suites ----------------------------------------------------


@st.composite
def outer_product_sums(draw):
    """Rank at most r: sums of r outer products of small quadruples."""
    rows, cols = draw(st.sampled_from(SHAPES))
    r = draw(st.integers(0, min(rows, cols, 10)))
    rng = random.Random(draw(SEEDS))
    span = draw(st.sampled_from((1, 3, 1000)))
    left = [[_small(rng, span) for _ in range(r)] for _ in range(rows)]
    right = [[_small(rng, span) for _ in range(cols)] for _ in range(r)]
    flat = _outer_sum(left, right) if r else [ZERO4] * (rows * cols)
    return flat, rows, cols


@settings(max_examples=60, deadline=None)
@given(outer_product_sums())
def test_sums_of_outer_products(case):
    _assert_ranks_agree(*case)


@st.composite
def product_like_matrices(draw):
    """Kronecker products of small factors, some lines zeroed: product-state splits."""
    rng = random.Random(draw(SEEDS))
    shape_a = draw(st.sampled_from(((2, 4), (4, 2), (4, 4), (2, 8))))
    shape_b = draw(st.sampled_from(((4, 4), (2, 4), (4, 2), (8, 4))))
    zeros = draw(st.sampled_from((0.0, 0.25)))
    factors = []
    for fr, fc in (shape_a, shape_b):
        rank = rng.randint(1, min(fr, fc))
        left = [[_small(rng) for _ in range(rank)] for _ in range(fr)]
        right = [[_small(rng) for _ in range(fc)] for _ in range(rank)]
        cells = _outer_sum(left, right)
        factors.append([ZERO4 if rng.random() < zeros else x for x in cells])
    (ar, ac), (br, bc) = shape_a, shape_b
    a, b = factors
    flat = [
        mul4(a[(i // br) * ac + j // bc], b[(i % br) * bc + j % bc])
        for i in range(ar * br)
        for j in range(ac * bc)
    ]
    return flat, ar * br, ac * bc


@settings(max_examples=40, deadline=None)
@given(product_like_matrices())
def test_sparse_product_like_matrices(case):
    _assert_ranks_agree(*case)


# --- fixed cases on the edges of the proof ------------------------------------


def test_rank_deficient_matrices_are_certified_without_elimination(eliminate_calls):
    rng = random.Random(11)
    for (rows, cols), r in zip(SHAPES, (4, 8, 4, 3)):
        left = [[_small(rng) for _ in range(r)] for _ in range(rows)]
        right = [[_small(rng) for _ in range(cols)] for _ in range(r)]
        assert bareiss(_outer_sum(left, right), rows, cols, det=False) == (r, None)
    assert eliminate_calls == []


def test_small_matrices_take_the_stacked_proof(eliminate_calls, stacked_ranks):
    flat = [ONES] * 64
    assert bareiss(flat[:4], 2, 2, det=False) == (1, None)
    assert bareiss(flat[:32], 4, 8, det=False) == (1, None)
    assert bareiss(flat, 8, 8, det=False) == (1, None)
    assert stacked_ranks == [[1]] * 3 and eliminate_calls == []


def _ones_with_corner(x, rows=8, cols=8):
    """All ones but the last cell, 1 + x: rank 2, and its one nonzero 2-minor is x."""
    flat = [ONES] * (rows * cols)
    flat[-1] = _add(ONES, x)
    return flat


def test_minor_vanishing_mod_p_only_is_not_certified(eliminate_calls):
    # x = P vanishes mod P, so F_P sees rank 1, but no table prime divides it
    flat = _ones_with_corner((P, 0, 0, 0))
    assert bareiss(flat, 8, 8, det=False) == (2, None)
    assert eliminate_calls == [(8, 8)]
    # the same with an algebraic x = I_P - i, and in a wide and a tall shape
    for rows, cols in ((8, 32), (32, 8)):
        flat = _ones_with_corner((I_P, -1, 0, 0), rows, cols)
        assert _assert_ranks_agree(flat, rows, cols) == 2


def _lll(basis):
    """LLL-reduced basis (delta 3/4) of the lattice spanned by the integer rows."""
    b = [list(v) for v in basis]
    n = len(b)

    def gram_schmidt():
        star, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = sum(Fraction(x) * y for x, y in zip(b[i], star[j])) / sum(
                    y * y for y in star[j]
                )
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
        return star, mu

    star, mu = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            c = round(mu[k][j])
            if c:
                b[k] = [x - c * y for x, y in zip(b[k], b[j])]
                star, mu = gram_schmidt()
        norm_k = sum(x * x for x in star[k])
        norm_k1 = sum(x * x for x in star[k - 1])
        if norm_k >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norm_k1:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = gram_schmidt()
            k = max(k - 1, 1)
    return b


def _vanishing_under(primes):
    """A short nonzero quadruple whose image is 0 mod every (p, I_p, S_p) given.

    The images a + b I + c S + d I S (mod Q = prod p) of such quadruples
    form a lattice of determinant Q, so LLL finds one of size about Q**(1/4).
    """
    q = math.prod(p for p, _, _ in primes)
    i_q = s_q = 0
    for p, i_p, s_p in primes:  # CRT: one pair (I, S) for all the primes
        e = (q // p) * pow(q // p, -1, p)
        i_q, s_q = (i_q + i_p * e) % q, (s_q + s_p * e) % q
    basis = [(q, 0, 0, 0), (-i_q % q, 1, 0, 0), (-s_q % q, 0, 1, 0), (-(i_q * s_q) % q, 0, 0, 1)]
    x = tuple(min(_lll(basis), key=lambda v: sum(t * t for t in v)))
    for p, i_p, s_p in primes:
        assert (x[0] + x[1] * i_p + x[2] * s_p + x[3] * i_p * s_p) % p == 0
    return x


def _total(quads):
    """T, the sum of h**2 over the int quadruples ``quads`` (see ``_norm_bits``)."""
    return float(_h2(np.array(quads, dtype=np.int64)).sum())


def _table_primes_needed(flat, r):
    """Table primes (after P) the bound of a rank-r shortfall asks for."""
    return math.ceil((_norm_bits(_total(flat), r + 1) - PRIME_BITS) / PRIME_BITS)


def _two_rows_with_minor(x, cols=32):
    """Rows (t, 1, ..., 1) and (c, d, ..., d), with d = x / t rounded and c = t d - x.

    Every nonzero 2-minor is t d - c = x, and t is chosen so that the
    entries' h**2 sum T, and with it the bound (T/2)**4 on N(x), is least:
    balanced rows keep the bound within a prime of the norm of a short x.
    """
    best = None
    for e in range(21):
        t = max(1, round(max(map(abs, x)) ** (e / 40)))
        d = tuple(round(v / t) for v in x)
        c = tuple(t * dv - xv for dv, xv in zip(d, x))
        flat = [(t, 0, 0, 0)] + [ONES] * (cols - 1) + [c] + [d] * (cols - 1)
        needed = _table_primes_needed(flat, 1)
        if best is None or needed < best[0]:
            best = (needed, flat)
    return best


def test_minor_vanishing_mod_all_but_the_last_needed_prime(eliminate_calls):
    """x vanishes mod P and the first k - 1 table primes, where the bound needs k.

    A proof that stopped one prime short would call this rank 1.
    """
    found = []
    for k in range(2, 6):
        x = _vanishing_under([(P, I_P, S_P)] + list(PRIME_TABLE[: k - 1]))
        needed, flat = _two_rows_with_minor(x)
        if needed == k:
            found.append(k)
            assert bareiss(flat, 2, 32, det=False) == (2, None)
    assert found  # the bound is tight enough for at least one k to land exactly
    assert eliminate_calls == [(2, 32)] * len(found)


def test_row_nonzero_only_left_of_the_pivot_column_is_seen(eliminate_calls):
    """Rows (1, 2, ..., 2) and (1 + P, 2, ..., 2): rank 2, and rank 1 mod P.

    Mod a table prime the first row pivots on its largest residue, 2 in
    column 1, which leaves the second row nonzero in column 0 only: a check
    of the columns from r on alone would call this rank 1.
    """
    two = (2, 0, 0, 0)
    flat = [ONES] + [two] * 31 + [(1 + P, 0, 0, 0)] + [two] * 31
    assert bareiss(flat, 2, 32, det=False) == (2, None)
    assert eliminate_calls == [(2, 32)]


def test_pivot_vanishing_mod_a_table_prime_takes_elimination(eliminate_calls):
    # row 0 is all y, so y is the first pivot; y is 0 mod the first table prime
    y = _vanishing_under(PRIME_TABLE[:1])
    assert kernels.residues_mod(kernels.quad_array([y]), kernels.P_ROW)[0, 0] != 0  # but not mod P
    rng = random.Random(5)
    left = [[y]] + [[_nonzero(rng)] for _ in range(7)]
    flat = _outer_sum(left, [[ONES] * 8])
    assert _table_primes_needed(flat, 1) >= 1  # the first table prime is needed
    assert bareiss(flat, 8, 8, det=False) == (1, None)
    assert eliminate_calls == [(8, 8)]  # the rows below the dead pivot stay nonzero
    # and a rank-2 matrix with that pivot still reaches the exact rank
    flat[-1] = _add(flat[-1], ONES)
    assert bareiss(flat, 8, 8, det=False) == (2, None)
    assert eliminate_calls == [(8, 8)] * 2


def test_entries_near_2_31_are_certified(eliminate_calls):
    rng = random.Random(9)
    big = [2**31 - 1, 2**31 + 1, P - 1, P + 1, -(2**31)]
    for (rows, cols), r in zip(SHAPES, (2, 3, 2, 1)):
        left = [[tuple(rng.choice(big) * rng.choice((0, 1)) for _ in range(4)) for _ in range(r)]
                for _ in range(rows)]
        for row in left:
            row[0] = (rng.choice(big), 0, 0, 0)  # no zero row
        right = [[(1 + rng.randint(0, 2), 0, 0, rng.randint(-1, 1)) for _ in range(cols)]
                 for _ in range(r)]
        assert _assert_ranks_agree(_outer_sum(left, right), rows, cols) <= r
    assert eliminate_calls == []


def test_components_beyond_int64_take_elimination(eliminate_calls):
    flat = [(2**62 + 1, 0, 0, 0)] * 64
    flat[0] = (2**63 + 1, 0, 0, 0)  # beyond int64, and rows 0 and 1 leave the span of the rest
    flat[9] = (-(2**63) - 1, 0, 0, 0)
    assert _assert_ranks_agree(flat, 8, 8) == 3
    assert eliminate_calls == [(8, 8)]
