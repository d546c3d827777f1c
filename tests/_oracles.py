"""Independent reference implementations used only by the tests.

These deliberately avoid the package's fraction-free kernel: rank by
division-based Gaussian elimination with field inverses, determinant by
the permutation-sum expansion; its term scanner: the scalar text
grammar as a split-then-match parser over Fractions; its array
residues: one Python-int image per quadruple; its equivalence
classes of qubits: the union-finds that the direct tests replaced; and
its predicate sampler: the ratio union-find that the one-dict solver
replaced; and its invariants: the hand-expanded formulas over ExactScalar
(or complex) amplitudes that the index tables replaced.
"""

from __future__ import annotations

import cmath
import itertools
import random
import re
from fractions import Fraction

import numpy as np

from sloccrank._kernels import I_P, I_Q, P, Q, S_P, S_Q
import sloccrank.families as families
from sloccrank.families import AffineExpr, FamilyError, SamplingError, grid_rational
from sloccrank.scalars import SQRT2_FLOAT, ExactScalar, ScalarFormatError
from sloccrank.slocc import LocalOperator, LocalOperatorSet


def random_exact_scalar(rng: random.Random, span: int = 5) -> ExactScalar:
    return ExactScalar.from_components(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def residues_p(quads) -> np.ndarray:
    """The images ``a + b*I_P + c*S_P + d*I_P*S_P`` in F_P, as an int64 array;
    a nonzero quadruple whose image is 0 is stored as P, as in
    ``PureState.residues``."""
    return np.array(
        [
            (a + b * I_P + c * S_P + d * I_P * S_P) % P or (P if a or b or c or d else 0)
            for a, b, c, d in quads
        ],
        dtype=np.int64,
    )


def residues_q(quads) -> np.ndarray:
    """The images ``a + b*I_Q + c*S_Q + d*I_Q*S_Q`` in F_Q, as an int64 array in [0, Q)."""
    return np.array([(a + b * I_Q + c * S_Q + d * I_Q * S_Q) % Q for a, b, c, d in quads], np.int64)


def ref_partition_blocks(sig) -> tuple[tuple[int, ...], ...]:
    """The blocks of ``separability.partition_from_signature``, by union-find
    over every pair of qubits that no rank-1 split of ``sig`` separates."""
    separators = [set(k) for k in sig.rank_one_splits()]
    parent = list(range(sig.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, sig.n + 1):
        for j in range(i + 1, sig.n + 1):
            if all((i in s) == (j in s) for s in separators):
                rx, ry = find(i), find(j)
                if rx != ry:
                    parent[rx] = ry
    groups: dict[int, list[int]] = {}
    for p in range(1, sig.n + 1):
        groups.setdefault(find(p), []).append(p)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def ref_qubit_classes(psi) -> tuple[int, ...]:
    """``coeffmatrix._qubit_classes`` by union-find: each qubit is tested
    against every earlier qubit of another class, filter first, then by
    ``np.array_equal`` on the swapped quadruple array."""
    quads = psi.cleared[0]
    n = psi.n
    image = quads @ np.array([1, 3, 5, 7])
    ones = [int(image.reshape(1 << i, 2, -1)[:, 1].sum()) for i in range(n)]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for j in range(1, n):
        for i in range(j):
            if ones[i] != ones[j] or find(i) == find(j):
                continue
            if np.array_equal(quads, quads.swapaxes(i, j)):
                parent[find(j)] = find(i)
    ids = {}
    return tuple(ids.setdefault(find(i), len(ids)) for i in range(n))


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


def _floating(ops: LocalOperatorSet) -> LocalOperatorSet:
    """The same operators with complex entries."""
    return LocalOperatorSet(
        tuple(LocalOperator.of(*(complex(x) for row in op.entries for x in row)) for op in ops.ops)
    )


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


def ref_dxy(a):
    """Degree-6 invariant of 16 amplitudes: the 3x3 determinant of quadratic forms."""
    d11 = a[0] * a[3] - a[1] * a[2]
    d12 = a[0] * a[7] - a[1] * a[6] - a[2] * a[5] + a[3] * a[4]
    d13 = a[4] * a[7] - a[5] * a[6]
    d21 = a[0] * a[11] - a[1] * a[10] - a[2] * a[9] + a[3] * a[8]
    d22 = (
        a[0] * a[15] - a[1] * a[14] - a[2] * a[13] + a[3] * a[12]
        + a[4] * a[11] - a[5] * a[10] - a[6] * a[9] + a[7] * a[8]
    )
    d23 = a[4] * a[15] - a[5] * a[14] - a[6] * a[13] + a[7] * a[12]
    d31 = a[8] * a[11] - a[9] * a[10]
    d32 = a[8] * a[15] - a[9] * a[14] - a[10] * a[13] + a[11] * a[12]
    d33 = a[12] * a[15] - a[13] * a[14]
    return (
        d11 * (d22 * d33 - d23 * d32)
        - d12 * (d21 * d33 - d23 * d31)
        + d13 * (d21 * d32 - d22 * d31)
    )


def ref_f1(c):
    """Degree-4 semi-invariant over amplitudes 0..7."""
    head = c[0] * c[7] - c[2] * c[5] + c[1] * c[6] - c[3] * c[4]
    return head * head - 4 * ((c[2] * c[4] - c[0] * c[6]) * (c[3] * c[5] - c[1] * c[7]))


def ref_f2(c):
    """Degree-4 semi-invariant over amplitudes 8..15."""
    head = c[8] * c[15] - c[11] * c[12] + c[9] * c[14] - c[10] * c[13]
    return head * head - 4 * (
        (c[11] * c[13] - c[9] * c[15]) * (c[10] * c[12] - c[8] * c[14])
    )


# --- the scalar text grammar as a split-then-match parser --------------------
#
# The parsers the package used before its single-pass term scanner: compact
# the text character by character, split it at every '+' or '-' that does not
# follow a glue character, then full-match each term body and sum the terms
# as Fractions.  Values and errors (message and position) are the reference.

_REF_NUMBER = {
    False: r"\d+(?:/\d+)?",
    True: r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|\d+/\d+",
}
_REF_TERM = {
    floating: re.compile(rf"({number})((?:\*i)?(?:\*r2)?)|(i(?:\*r2)?|r2)")
    for floating, number in _REF_NUMBER.items()
}


def ref_signed_terms(text: str, base_pos: int = 0, floating: bool = False):
    """Split scalar text into ``(sign, body, position)`` terms."""
    compact = []
    positions = []
    for idx, ch in enumerate(text):
        if not ch.isspace():
            compact.append(ch)
            positions.append(base_pos + idx)
    if not compact:
        raise ScalarFormatError("empty scalar literal", base_pos)
    glue = "eE+-*/" if floating else "+-*/"
    starts = [0]
    starts += [k for k in range(1, len(compact)) if compact[k] in "+-" and compact[k - 1] not in glue]
    for start, end in zip(starts, starts[1:] + [len(compact)]):
        sign = -1 if compact[start] == "-" else 1
        body = "".join(compact[start + (compact[start] in "+-") : end])
        if not body:
            raise ScalarFormatError("dangling sign in scalar literal", positions[start])
        yield sign, body, positions[start]


def _ref_scalar_terms(text: str, base_pos: int, floating: bool):
    term = _REF_TERM[floating]
    for sign, body, pos in ref_signed_terms(text, base_pos, floating):
        m = term.fullmatch(body)
        if not m:
            raise ScalarFormatError(f"bad scalar term {body!r}", pos)
        number, unit, bare = m.groups()
        unit = bare or unit
        yield sign, number, ("i" in unit) + 2 * ("r2" in unit), pos


def ref_parse_exact(text: str, base_pos: int = 0) -> ExactScalar:
    comps = [Fraction(0)] * 4
    for sign, number, slot, pos in _ref_scalar_terms(text, base_pos, False):
        num, _, den = (number or "1").partition("/")
        den = int(den or 1)
        if den == 0:
            raise ScalarFormatError("zero denominator", pos)
        comps[slot] += Fraction(sign * int(num), den)
    return ExactScalar.from_components(*comps)


def ref_parse_float(text: str, base_pos: int = 0) -> complex:
    total = 0j
    for sign, number, slot, pos in _ref_scalar_terms(text, base_pos, True):
        if number is None:
            value = 1.0
        elif "/" in number:
            num, den = number.split("/")
            if float(den) == 0:
                raise ScalarFormatError("zero denominator", pos)
            value = float(num) / float(den)
        else:
            value = float(number)
        value *= sign
        if slot & 2:
            value *= SQRT2_FLOAT
        total += complex(0.0, value) if slot & 1 else complex(value, 0.0)
    if not cmath.isfinite(total):
        raise ScalarFormatError(f"non-finite scalar literal {text.strip()!r}", base_pos)
    return total


def ref_parse_affine(text: str, symbols) -> AffineExpr:
    symbols = set(symbols)
    const = ExactScalar(0)
    coeffs: dict[str, ExactScalar] = {}
    try:
        for sign, term, _ in ref_signed_terms(text):
            parts = term.split("*")
            sym = None
            if parts[-1] not in ("i", "r2") and not re.fullmatch(r"\d+(?:/\d+)?", parts[-1]):
                sym = parts[-1]
                if sym not in symbols:
                    raise FamilyError(f"unknown parameter {sym!r} in {text!r}")
                parts = parts[:-1]
            coeff = ref_parse_exact("*".join(parts)) if parts else ExactScalar(1)
            if sign < 0:
                coeff = -coeff
            if sym is None:
                const = const + coeff
            else:
                coeffs[sym] = coeffs.get(sym, ExactScalar(0)) + coeff
    except ScalarFormatError as exc:
        raise FamilyError(f"bad amplitude expression {text!r}: {exc}") from exc
    ordered = tuple((s, coeffs[s]) for s in sorted(coeffs) if not coeffs[s].is_zero())
    return AffineExpr(const, ordered)


class _RatioUnionFind:
    """Union-find tracking value[sym] = mult * value[root], with zero roots."""

    def __init__(self, symbols):
        self.parent = {s: s for s in symbols}
        self.mult = {s: Fraction(1) for s in symbols}
        self.zero: set[str] = set()

    def find(self, x):
        if self.parent[x] == x:
            return x, Fraction(1)
        root, m = self.find(self.parent[x])
        self.mult[x] = self.mult[x] * m
        self.parent[x] = root
        return root, self.mult[x]

    def relate(self, x, k: Fraction, y):
        """Impose value[x] = k * value[y]."""
        rx, mx = self.find(x)
        ry, my = self.find(y)
        if rx == ry:
            if mx != k * my:
                self.zero.add(rx)  # only zero solves it
            return
        self.parent[rx] = ry  # value[rx] = (k * my / mx) * value[ry]
        self.mult[rx] = k * my / mx
        if rx in self.zero:
            self.zero.discard(rx)
            self.zero.add(ry)

    def value(self, x, root_values):
        root, m = self.find(x)
        return Fraction(0) if root in self.zero else m * root_values[root]


def ref_sample_predicate(rule, count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """``families.sample_predicate`` as it was with the ratio union-find: the
    same draws in the same order, so the same tuples or the same error.  It
    reads ``families.MAX_ATTEMPTS`` when called, as the sampler does."""
    if rule.predicate is None:
        raise SamplingError(f"row {rule.triple} of {rule.family} is unreachable")
    symbols = rule.symbols
    rng = random.Random(seed)
    out: list[tuple[Fraction, ...]] = []
    attempts = 0
    conjunctions = rule.predicate.conjunctions or ((),)
    while len(out) < count:
        attempts += 1
        if attempts > families.MAX_ATTEMPTS:
            raise SamplingError(
                f"could not satisfy predicate {rule.predicate.render()!r} within"
                f" {families.MAX_ATTEMPTS} attempts"
            )
        conj = conjunctions[rng.randrange(len(conjunctions))]
        uf = _RatioUnionFind(symbols)
        for atom in conj:
            if not atom.equal:
                continue
            if atom.rhs_sym is None:
                uf.zero.add(uf.find(atom.lhs)[0])
            else:
                coef = atom.coef
                if atom.plus_minus and rng.random() < 0.5:
                    coef = -coef
                uf.relate(atom.lhs, coef, atom.rhs_sym)
        root_values = {}
        for s in symbols:
            root, _ = uf.find(s)
            if root not in root_values:
                root_values[root] = grid_rational(rng)
        values = {s: uf.value(s, root_values) for s in symbols}
        bindings = {s: ExactScalar._coerce(v) for s, v in values.items()}
        if all(atom.holds(bindings) for atom in conj):
            out.append(tuple(values[s] for s in symbols))
            attempts = 0
    return out
