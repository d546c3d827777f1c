"""Independent reference implementations used only by the tests.

These deliberately avoid the package's fraction-free kernel: rank by
division-based Gaussian elimination with field inverses, determinant by
the permutation-sum expansion.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from sloccrank.scalars import ExactScalar


def random_exact_scalar(rng: random.Random, span: int = 5) -> ExactScalar:
    return ExactScalar.from_components(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def ref_rank_exact(rows: list[list[ExactScalar]]) -> int:
    """Gaussian elimination with explicit field inverses."""
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        for i in range(r + 1, nrows):
            if m[i][c].is_zero():
                continue
            factor = m[i][c] * inv
            for j in range(c, ncols):
                m[i][j] = m[i][j] - factor * m[r][j]
        rank += 1
        r += 1
    return rank


def ref_det_leibniz(rows: list[list[ExactScalar]]) -> ExactScalar:
    """Permutation-sum determinant; fine for sizes up to 4."""
    n = len(rows)
    total = ExactScalar(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ExactScalar(sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def quad_matrix_to_scalars(flat, nrows, ncols):
    return [
        [
            ExactScalar(*flat[i * ncols + j])
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


# --- per-index references for the tensor view of the amplitude vector --------
#
# Qubit p is bit n - p of the basis index.  These loops are the index maps the
# package used before it re-indexed through numpy; they work on plain
# sequences of ExactScalar or complex values and use no numpy.


def _bit_offsets(n: int, bits) -> list[int]:
    """Basis-index offsets of ``bits``, the first bit most significant."""
    out = [0]
    for b in bits:
        out = [w | y for w in out for y in (0, 1 << (n - b))]
    return out


def ref_coefficient_entries(amps, n: int, row_bits, col_bits) -> list[list]:
    """Entry (u, v) is the amplitude with row bits spelling u, column bits v."""
    return [[amps[r | c] for c in _bit_offsets(n, col_bits)] for r in _bit_offsets(n, row_bits)]


def ref_permute(amps, n: int, image) -> list:
    """Amplitude of ``w`` moves to the index with bit ``image[p-1]`` set for
    every set bit p of ``w``."""
    out = list(amps)
    for w, a in enumerate(amps):
        target = 0
        for p in range(1, n + 1):
            if (w >> (n - p)) & 1:
                target |= 1 << (n - image[p - 1])
        out[target] = a
    return out


def ref_product(factors, n: int) -> list:
    """Amplitudes of the product of ``(amps, positions)`` factors."""
    out = []
    for w in range(1 << n):
        prod = None
        for amps, pos in factors:
            u = 0
            for t, p in enumerate(pos):
                if (w >> (n - p)) & 1:
                    u |= 1 << (len(pos) - 1 - t)
            prod = amps[u] if prod is None else prod * amps[u]
        out.append(prod)
    return out


def ref_kron(mats, one) -> list[list]:
    """Kronecker product of 2x2 matrices; ``one`` for an empty list."""
    out = [[one]]
    for m in mats:
        out = [
            [out[i][j] * m[bi][bj] for j in range(len(out)) for bj in range(2)]
            for i in range(len(out))
            for bi in range(2)
        ]
    return out


def ref_matmul(A, B, zero) -> list[list]:
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), zero) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def ref_transform(entries, row_mats, col_mats, one, zero) -> list[list]:
    """``kron(row_mats) @ C @ kron(col_mats)^T`` by explicit loops."""
    R = ref_kron(col_mats, one)
    Rt = [list(col) for col in zip(*R)]
    return ref_matmul(ref_matmul(ref_kron(row_mats, one), entries, zero), Rt, zero)


def ref_gram(entries, zero) -> list[list]:
    """``C @ C^dagger``."""
    return [
        [sum((x * y.conjugate() for x, y in zip(a, b)), zero) for b in entries] for a in entries
    ]


def ref_apply_local(amps, n: int, mats) -> list:
    """One 2x2 pass per qubit over the amplitude list."""
    out = list(amps)
    for t, ((a, b), (c, d)) in enumerate(mats):
        bit = 1 << (n - 1 - t)
        for w in range(1 << n):
            if w & bit:
                continue
            x0, x1 = out[w], out[w | bit]
            out[w] = a * x0 + b * x1
            out[w | bit] = c * x0 + d * x1
    return out
