"""Coefficient matrices of bipartitions, exact/numeric ranks, reduced densities.

For row bits (q1..ql) the matrix entry (u, v) is the amplitude whose bit
at position q_t equals bit t of u, with the column bits filled in the
order produced by swapping the row bits into the leading slots of the
register.  That ordering reproduces the standard printed layouts: rows
(1,2) give columns (3,4), rows (1,3) give (2,4), rows (1,4) give (3,2).
Ranks are insensitive to the column order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import bareiss
from .scalars import ExactScalar, common_denominator, render_exact, render_float
from .states import QUBIT_CAP, PureState, amplitude_tensor

DEFAULT_TOL_SCALE = 1e-10
TOL_FLOOR = 1e-12


class ModeError(ValueError):
    """Raised when the exact path is requested for floating data."""


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


def coefficient_matrix(psi: PureState, row_bits, col_bits=None) -> CoefficientMatrix:
    """Matricise the amplitude vector with ``row_bits`` indexing rows."""
    bp = Bipartition.from_row_bits(psi.n, row_bits, col_bits)
    axes = [b - 1 for b in bp.row_bits + bp.col_bits]
    m = amplitude_tensor(psi).transpose(axes).reshape(1 << len(bp.row_bits), -1)
    return CoefficientMatrix(*m.shape, _entries(m), bp)


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


def rank(C: CoefficientMatrix, mode: str = "exact", tolerance: float | None = None) -> int:
    """Rank of a coefficient matrix.

    ``exact`` runs fraction-free elimination over Q(i, sqrt2) and needs
    exact entries; ``numeric`` counts singular values above
    ``tolerance * sigma_max``.
    """
    if mode == "exact":
        if not C.is_exact:
            raise ModeError("exact rank requested for floating entries")
        quads, _ = common_denominator([e for row in C.entries for e in row])
        return bareiss(quads, C.rows, C.cols, det=False)[0]
    if mode == "numeric":
        svals = singular_values(C)
        if tolerance is None:
            tolerance = default_tolerance(C.rows, C.cols)
        smax = svals[0] if svals else 0.0
        thresh = tolerance * smax if smax >= TOL_FLOOR else TOL_FLOOR
        return sum(1 for s in svals if s > thresh)
    raise ValueError(f"unknown rank mode {mode!r}")


class RankSignature:
    """Map from canonical bipartition to rank, in enumeration order."""

    def __init__(self, n: int, labels, ranks: dict[tuple[int, ...], int]):
        self.n = n
        self.labels = tuple(labels)
        self.ranks = dict(ranks)

    def __getitem__(self, key) -> int:
        if isinstance(key, str):
            key = tuple(sorted(self.labels.index(ch) + 1 for ch in key))
        return self.ranks[tuple(key)]

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
        keys = sorted(self.ranks, key=lambda k: (len(k), k))
        return {
            "".join(self.labels[b - 1] for b in k): self.ranks[k] for k in keys
        }

    def rank_one_splits(self) -> list[tuple[int, ...]]:
        return [k for k, r in self.ranks.items() if r == 1]

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.label_map().items())
        return f"RankSignature({body})"


def rank_signature(
    psi: PureState, mode: str = "exact", tolerance: float | None = None
) -> RankSignature:
    """Ranks across all canonical bipartitions of the register."""
    ranks = {}
    for bp in enumerate_bipartitions(psi.n):
        C = coefficient_matrix(psi, bp.row_bits, bp.col_bits)
        ranks[bp.canonical_key()] = rank(C, mode, tolerance)
    return RankSignature(psi.n, psi.labels, ranks)


def reduced_density(psi: PureState, kept_bits):
    """``rho = C C^dagger`` for the kept qubits; Hermitian PSD by construction."""
    m = np.asarray(coefficient_matrix(psi, tuple(kept_bits)).entries)
    return _entries(m @ m.conj().T)


def det_exact(C: CoefficientMatrix) -> ExactScalar:
    """Exact determinant of a square coefficient matrix."""
    if not C.is_exact:
        raise ModeError("exact determinant requested for floating entries")
    if C.rows != C.cols:
        raise ValueError("determinant needs a square matrix")
    return _det_of_rows(C.entries, C.rows)


def _det_of_rows(rows, size: int) -> ExactScalar:
    quads, den = common_denominator([e for row in rows for e in row])
    _, det4 = bareiss(quads, size, size)
    return ExactScalar(*det4, den**size)


def det_coeff(psi: PureState, half_bits, mode: str | None = None):
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
    if mode is None:
        mode = "exact" if C.is_exact else "numeric"
    if mode == "exact":
        return det_exact(C)
    return complex(np.linalg.det(C.to_complex_array()))


def det_density_exact(rho) -> ExactScalar:
    """Exact determinant of a Hermitian ExactScalar matrix (nested tuples)."""
    return _det_of_rows(rho, len(rho))
