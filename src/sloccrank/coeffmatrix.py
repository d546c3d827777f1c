"""Coefficient matrices of bipartitions, exact/numeric ranks, reduced densities.

For row bits (q1..ql) the matrix entry (u, v) is the amplitude whose bit
at position q_t equals bit t of u, with the column bits filled in the
order produced by swapping the row bits into the leading slots of the
register.  That ordering reproduces the standard printed layouts: rows
(1,2) give columns (3,4), rows (1,3) give (2,4), rows (1,4) give (3,2).
Ranks are insensitive to the column order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

import numpy as np

from ._kernels import bareiss
from .scalars import ExactScalar, common_denominator, render_exact, render_float
from .states import QUBIT_CAP, PureState, amplitude_tensor

DEFAULT_TOL_SCALE = 1e-10
TOL_FLOOR = 1e-12


def _swap_into_place_complement(n: int, row_bits) -> tuple[int, ...]:
    arr = list(range(1, n + 1))
    for t, b in enumerate(row_bits):
        idx = arr.index(b)
        arr[t], arr[idx] = arr[idx], arr[t]
    return tuple(arr[len(row_bits):])


@dataclass(frozen=True)
class Bipartition:
    n: int
    row_bits: tuple[int, ...]
    col_bits: tuple[int, ...]

    def __post_init__(self):
        bits = sorted(self.row_bits + self.col_bits)
        if bits != list(range(1, self.n + 1)):
            raise ValueError("row and column bits must partition 1..n")

    @classmethod
    def from_row_bits(cls, n: int, row_bits, col_bits=None) -> Bipartition:
        row_bits = tuple(row_bits)
        if len(set(row_bits)) != len(row_bits):
            raise ValueError("duplicate row bits")
        if not all(1 <= b <= n for b in row_bits):
            raise ValueError("row bit out of range")
        if col_bits is None:
            col_bits = _swap_into_place_complement(n, row_bits)
        return cls(n, row_bits, tuple(col_bits))

    def canonical_key(self) -> tuple[int, ...]:
        """The unordered split, keyed by the smaller side (ties: side with
        qubit 1), bits ascending."""
        side = frozenset(self.row_bits)
        other = frozenset(self.col_bits)
        if len(side) > len(other) or (len(side) == len(other) and 1 not in side):
            side = other
        return tuple(sorted(side))

    def label(self, labels) -> str:
        return "".join(labels[b - 1] for b in self.canonical_key())

    def swapped(self) -> Bipartition:
        return Bipartition(self.n, self.col_bits, self.row_bits)


@dataclass(frozen=True)
class CoefficientMatrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples (exact) or np.ndarray (float)
    bipartition: Bipartition
    # (quads, den, res) row-major, as ``PureState.cleared``; set only on
    # matrices gathered from a state, and not part of ``==``
    cleared: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.entries, np.ndarray)

    def transpose(self) -> CoefficientMatrix:
        entries = _entries(np.asarray(self.entries).T)
        return CoefficientMatrix(self.cols, self.rows, entries, self.bipartition.swapped())

    def to_complex_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=complex)

    def to_tsv(self) -> str:
        bp = self.bipartition
        header = (
            f"# rows={self.rows} cols={self.cols}"
            f" row_bits={','.join(map(str, bp.row_bits))}"
            f" col_bits={','.join(map(str, bp.col_bits))}"
        )
        render = render_exact if self.is_exact else render_float
        lines = [header]
        for u in range(self.rows):
            lines.append("\t".join(render(self.entries[u][v]) for v in range(self.cols)))
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _indices(n: int) -> tuple[int, ...]:
    return tuple(range(1 << n))


@lru_cache(maxsize=256)
def _gather(n: int, axes: tuple[int, ...]) -> tuple[itemgetter, np.ndarray]:
    """Picks a matricisation's entries, row-major, out of a flat amplitude vector.

    The index order is that of ``amplitude_tensor`` transposed to
    ``axes``, as an ``itemgetter`` for lists and an index array for
    numpy.  It depends on the split only, so it is built once per
    ``(n, axes)`` and shared by every state.  The orders of one ``n``
    share their index objects (``_indices``), so a full cache holds
    16 MB at n = 12.
    """
    order = np.arange(1 << n).reshape((2,) * n).transpose(axes).ravel()
    return itemgetter(*itemgetter(*order.tolist())(_indices(n))), order


def coefficient_matrix(psi: PureState, row_bits, col_bits=None) -> CoefficientMatrix:
    """Matricise the amplitude vector with ``row_bits`` indexing rows.

    An exact state's matrix also carries the split's share of the
    state's cleared form (``PureState.cleared``) for ``rank``.
    """
    bp = Bipartition.from_row_bits(psi.n, row_bits, col_bits)
    axes = tuple(b - 1 for b in bp.row_bits + bp.col_bits)
    rows, cols = 1 << len(bp.row_bits), 1 << len(bp.col_bits)
    if not psi.is_exact:
        m = amplitude_tensor(psi).transpose(axes).reshape(rows, cols)
        return CoefficientMatrix(rows, cols, m, bp)
    take, order = _gather(psi.n, axes)
    flat = take(psi.amps)
    entries = tuple(flat[i:i + cols] for i in range(0, rows * cols, cols))
    quads, den, res = psi.cleared
    return CoefficientMatrix(rows, cols, entries, bp, (take(quads), den, res[order]))


def _entries(m: np.ndarray):
    """Storage of a 2-d array: exact (object) entries as a tuple of row tuples."""
    return tuple(map(tuple, m.tolist())) if m.dtype == object else m


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """The 2**(n-1) - 1 canonical splits, by size then lexicographic."""
    if not 1 <= n <= QUBIT_CAP:
        raise ValueError(f"qubit count {n} outside 1..{QUBIT_CAP}")
    out = []
    from itertools import combinations

    for size in range(1, n // 2 + 1):
        for subset in combinations(range(1, n + 1), size):
            if 2 * size == n and 1 not in subset:
                continue  # keep one representative of each unordered split
            out.append(Bipartition.from_row_bits(n, subset))
    return out


def default_tolerance(rows: int, cols: int) -> float:
    return DEFAULT_TOL_SCALE * max(rows, cols)


def singular_values(C: CoefficientMatrix) -> list[float]:
    """Descending singular values (exact input is evaluated to floats)."""
    return [float(s) for s in np.linalg.svd(C.to_complex_array(), compute_uv=False)]


def rank(C: CoefficientMatrix, *, tolerance: float | None = None) -> int:
    """Rank of a coefficient matrix, by the kind of its entries.

    Exact entries run fraction-free elimination over Q(i, sqrt2);
    floating entries count singular values above ``tolerance * sigma_max``.
    A tolerance must satisfy 0 <= t < 1: from 1 on the cutoff is at or
    above sigma_max, so every rank would read 0.
    """
    if tolerance is not None and not 0 <= tolerance < 1:  # also refuses nan
        raise ValueError(f"tolerance must satisfy 0 <= t < 1, got {tolerance!r}")
    if C.is_exact:
        quads, _, res = _cleared(C)
        return bareiss(quads, C.rows, C.cols, det=False, res=res)[0]
    svals = singular_values(C)
    if tolerance is None:
        tolerance = default_tolerance(C.rows, C.cols)
    smax = svals[0] if svals else 0.0
    thresh = tolerance * smax if smax >= TOL_FLOOR else TOL_FLOOR
    return sum(1 for s in svals if s > thresh)


class RankSignature:
    """Map from canonical bipartition to rank, in enumeration order."""

    def __init__(self, n: int, labels, ranks: dict[tuple[int, ...], int]):
        self.n = n
        self.labels = tuple(labels)
        self.ranks = dict(ranks)

    def __getitem__(self, key) -> int:
        """Rank of a split named by either side, as labels (``"CD"``) or bits."""
        if isinstance(key, str):
            for ch in key:
                if ch not in self.labels:
                    raise KeyError(f"no qubit labelled {ch!r} (labels: {''.join(self.labels)})")
            key = [self.labels.index(ch) + 1 for ch in key]
        rest = tuple(b for b in range(1, self.n + 1) if b not in key)
        try:
            return self.ranks[Bipartition(self.n, tuple(key), rest).canonical_key()]
        except ValueError:
            raise KeyError(tuple(key)) from None

    def __eq__(self, other) -> bool:
        return isinstance(other, RankSignature) and self.ranks == other.ranks

    def __hash__(self):
        return hash(tuple(sorted(self.ranks.items())))

    def items(self):
        return self.ranks.items()

    def as_tuple(self) -> tuple[int, ...]:
        keys = sorted(self.ranks, key=lambda k: (len(k), k))
        return tuple(self.ranks[k] for k in keys)

    def label_map(self) -> dict[str, int]:
        """Rank per split label; the labels are interned, so maps kept
        together (one per state of a batch) share their key strings."""
        keys = sorted(self.ranks, key=lambda k: (len(k), k))
        return {
            sys.intern("".join(self.labels[b - 1] for b in k)): self.ranks[k] for k in keys
        }

    def rank_one_splits(self) -> list[tuple[int, ...]]:
        return [k for k, r in self.ranks.items() if r == 1]

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.label_map().items())
        return f"RankSignature({body})"


def rank_signature(psi: PureState, *, tolerance: float | None = None) -> RankSignature:
    """Ranks across all canonical bipartitions of the register."""
    ranks = {}
    for bp in enumerate_bipartitions(psi.n):
        C = coefficient_matrix(psi, bp.row_bits, bp.col_bits)
        ranks[bp.canonical_key()] = rank(C, tolerance=tolerance)
    return RankSignature(psi.n, psi.labels, ranks)


def reduced_density(psi: PureState, kept_bits):
    """``rho = C C^dagger`` for the kept qubits; Hermitian PSD by construction."""
    m = np.asarray(coefficient_matrix(psi, tuple(kept_bits)).entries)
    return _entries(m @ m.conj().T)


def _cleared(C: CoefficientMatrix) -> tuple:
    """``(quads, den, res)`` of an exact matrix; ``res`` is None unless gathered."""
    if C.cleared is not None:
        return C.cleared
    quads, den = common_denominator([e for row in C.entries for e in row])
    return quads, den, None


def _det(quads, den: int, size: int) -> ExactScalar:
    _, det4 = bareiss(quads, size, size)
    return ExactScalar(*det4, den**size)


def det_coeff(psi: PureState, half_bits):
    """Determinant of the square half-register coefficient matrix.

    Its squared absolute value equals det of the reduced density of the
    same qubits.
    """
    half_bits = tuple(half_bits)
    if psi.n % 2 != 0:
        raise ValueError("det_coeff needs an even qubit count")
    if len(half_bits) != psi.n // 2:
        raise ValueError("half_bits must select exactly half the qubits")
    C = coefficient_matrix(psi, half_bits)
    if C.is_exact:
        quads, den, _ = _cleared(C)
        return _det(quads, den, C.rows)
    return complex(np.linalg.det(C.to_complex_array()))


def det_density_exact(rho) -> ExactScalar:
    """Exact determinant of a Hermitian ExactScalar matrix (nested tuples)."""
    return _det(*common_denominator([e for row in rho for e in row]), len(rho))
