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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby
from typing import NamedTuple

import numpy as np

from ._kernels import bareiss, ranks_mod_q, residues_q
from .scalars import ExactScalar, common_denominator, render_exact, render_float
from .states import QUBIT_CAP, PureState, amplitude_tensor

DEFAULT_TOL_SCALE = 1e-10
TOL_FLOOR = 1e-12
STACK_MIN_QUBITS = 6  # below this a signature ranks each split alone (crossover in ``_kernels``)
STACK_CELLS = 1 << 17  # cells per chunk of a mod-Q stack: 1 MB of int64


def _swap_into_place_complement(n: int, row_bits) -> tuple[int, ...]:
    arr = list(range(1, n + 1))
    for t, b in enumerate(row_bits):
        idx = arr.index(b)
        arr[t], arr[idx] = arr[idx], arr[t]
    return tuple(arr[len(row_bits):])


def _split_key(side, other) -> tuple[int, ...]:
    """The unordered split ``side | other``, keyed by the smaller side
    (ties: side with qubit 1), bits ascending."""
    if len(side) > len(other) or (len(side) == len(other) and 1 not in side):
        side = other
    return tuple(sorted(side))


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
        return _split_key(self.row_bits, self.col_bits)

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


class SplitPlan(NamedTuple):
    """A validated split with its canonical key and its matricisation:
    ``amplitude_tensor(psi).transpose(axes).reshape(rows, cols)``."""

    bipartition: Bipartition
    key: tuple[int, ...]
    axes: tuple[int, ...]
    rows: int
    cols: int


@lru_cache(maxsize=1 << 13)
def _plan(n: int, row_bits: tuple, col_bits: tuple | None) -> SplitPlan:
    bp = Bipartition.from_row_bits(n, row_bits, col_bits)
    axes = tuple(b - 1 for b in bp.row_bits + bp.col_bits)
    return SplitPlan(bp, bp.canonical_key(), axes, 1 << len(bp.row_bits), 1 << len(bp.col_bits))


def split_plan(n: int, row_bits, col_bits=None) -> SplitPlan:
    """The plan of a split, built on first use and cached (8,192 most recent).

    Invalid bits raise on every call: an exception is never cached.
    """
    return _plan(n, tuple(row_bits), None if col_bits is None else tuple(col_bits))


def _array(psi: PureState, plan: SplitPlan) -> np.ndarray:
    return amplitude_tensor(psi).transpose(plan.axes).reshape(plan.rows, plan.cols)


class SplitCells(Sequence):
    """The row-major quadruples of one split, listed only when first read.

    A read-only sequence over ``quads``, the 2 x ... x 2 quadruple array of
    ``PureState.cleared``, and a split's ``SplitPlan.axes``: ``len`` is
    rows * cols, and the first ``__iter__`` or ``__getitem__`` lists
    ``quads.transpose(axes).ravel()`` and keeps the list.  ``bareiss`` reads
    its entries only for a certificate, ``_eliminate`` or a determinant, so
    a split that its floor, its rank mod P or an upper bound decides is
    never listed.
    """

    __slots__ = ("_quads", "_axes", "_cells")

    def __init__(self, quads: np.ndarray, axes: tuple[int, ...]):
        self._quads = quads
        self._axes = axes
        self._cells = None

    def __len__(self) -> int:
        return self._quads.size

    def _listed(self) -> list:
        if self._cells is None:
            self._cells = self._quads.transpose(self._axes).ravel().tolist()
        return self._cells

    def __iter__(self):
        return iter(self._listed())

    def __getitem__(self, index):
        return self._listed()[index]


def coefficient_matrix(psi: PureState, row_bits, col_bits=None) -> CoefficientMatrix:
    """Matricise the amplitude vector with ``row_bits`` indexing rows.

    Exact entries are ExactScalars, which ``rank`` clears itself;
    ``split_rank`` reads the state's cleared form and builds no matrix.
    """
    plan = split_plan(psi.n, row_bits, col_bits)
    return CoefficientMatrix(plan.rows, plan.cols, _entries(_array(psi, plan)), plan.bipartition)


def _entries(m: np.ndarray):
    """Storage of a 2-d array: exact (object) entries as a tuple of row tuples."""
    return tuple(map(tuple, m.tolist())) if m.dtype == object else m


@lru_cache(maxsize=8)
def _canonical_plans(n: int) -> tuple[SplitPlan, ...]:
    if not 1 <= n <= QUBIT_CAP:
        raise ValueError(f"qubit count {n} outside 1..{QUBIT_CAP}")
    return tuple(
        split_plan(n, subset)
        for size in range(1, n // 2 + 1)
        for subset in combinations(range(1, n + 1), size)
        # keep one representative of each unordered split
        if 2 * size < n or 1 in subset
    )


def enumerate_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """The 2**(n-1) - 1 canonical splits, by size then lexicographic.

    Their plans are built once per ``n`` and kept for the eight most
    recent ``n``, at about 1 KB per split.
    """
    return tuple(plan.bipartition for plan in _canonical_plans(n))


def default_tolerance(rows: int, cols: int) -> float:
    return DEFAULT_TOL_SCALE * max(rows, cols)


def singular_values(C: CoefficientMatrix) -> list[float]:
    """Descending singular values (exact input is evaluated to floats)."""
    return [float(s) for s in np.linalg.svd(C.to_complex_array(), compute_uv=False)]


def _check_tolerance(tolerance: float | None) -> None:
    if tolerance is not None and not 0 <= tolerance < 1:  # also refuses nan
        raise ValueError(f"tolerance must satisfy 0 <= t < 1, got {tolerance!r}")


def rank(C: CoefficientMatrix, *, tolerance: float | None = None) -> int:
    """Rank of a coefficient matrix, by the kind of its entries.

    Exact entries run fraction-free elimination over Q(i, sqrt2);
    floating entries count singular values above ``tolerance * sigma_max``.
    A tolerance must satisfy 0 <= t < 1: from 1 on the cutoff is at or
    above sigma_max, so every rank would read 0.
    """
    _check_tolerance(tolerance)
    if C.is_exact:
        quads, _ = common_denominator([e for row in C.entries for e in row])
        return bareiss(quads, C.rows, C.cols, det=False)[0]
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
        """Rank per split label, as a read-only ``dict`` (mutating it raises
        ``TypeError``; ``dict(m)`` is a mutable copy).  Signatures with equal
        labels and ranks share one map, from a cache of the 32 most recent,
        and every map shares its interned key strings."""
        keys = tuple(sorted(self.ranks, key=lambda k: (len(k), k)))
        return _label_map(self.labels, keys, tuple(self.ranks[k] for k in keys))

    def rank_one_splits(self) -> list[tuple[int, ...]]:
        return [k for k, r in self.ranks.items() if r == 1]

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.label_map().items())
        return f"RankSignature({body})"


class _LabelMap(dict):
    """A ``dict`` that refuses every mutation, so that one can be shared."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a label map is read-only; copy it with dict() to change it")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


@lru_cache(maxsize=32)
def _label_map(labels: tuple, keys: tuple, ranks: tuple) -> _LabelMap:
    return _LabelMap(
        (sys.intern("".join(labels[b - 1] for b in k)), r) for k, r in zip(keys, ranks)
    )


def _cut_cap(memo: dict, plan: SplitPlan, floor: int) -> int | None:
    """The least r(A) * r(B) over the cuts A + B of either side of the
    split whose two ranks ``memo`` (``PureState.split_ranks``) holds
    already, or None.

    By rank subadditivity (see ``_kernels``) each product bounds the
    split's rank from above.  The cuts are enumerated on demand, smaller
    part first, and the search stops at the first product at or below
    ``floor``, the rank the split is known to reach.
    """
    bp = plan.bipartition
    best = None
    for side, other in (bp.row_bits, bp.col_bits), (bp.col_bits, bp.row_bits):
        side = tuple(sorted(side))
        for size in range(1, len(side) // 2 + 1):
            for part in combinations(side, size):
                if 2 * size == len(side) and part[0] != side[0]:
                    continue  # the cut was met as its other part
                rest = tuple(b for b in side if b not in part)
                r_part = memo.get(_split_key(part, rest + other))
                if r_part is None:
                    continue
                r_rest = memo.get(_split_key(rest, other + part))
                if r_rest is not None and (best is None or r_part * r_rest < best):
                    best = r_part * r_rest
                    if best <= floor:
                        return best
    return best


def _split_rank(
    psi: PureState, plan: SplitPlan, tolerance: float | None, floor: int | None = None
) -> int:
    """Rank of one split of a state; an exact state's is memoised on it.

    An exact rank is computed once per state and split
    (``PureState.split_ranks``), by one ``bareiss`` call on the split's
    ``SplitCells`` and a transposed view of the state's residues.
    ``floor``, a proven lower bound such as the split's rank mod Q
    (``_stacked_floors``), decides a full rank without reading either.
    A shortfall is proved first by the upper bounds of ``_kernels``: the
    term rank of the split's support, then subadditivity over the ranks
    the memo already holds (``_cut_cap``); only a certificate or an
    elimination it still needs lists the split's cells.  A floating rank
    depends on ``tolerance`` and is never kept.
    """
    if not psi.is_exact:
        bp = plan.bipartition
        return rank(coefficient_matrix(psi, bp.row_bits, bp.col_bits), tolerance=tolerance)
    memo = psi.split_ranks
    value = memo.get(plan.key)
    if value is None:
        quads, _, res = psi.cleared
        value = memo[plan.key] = bareiss(
            SplitCells(quads, plan.axes), plan.rows, plan.cols, det=False,
            res=res.transpose(plan.axes), cap=lambda r: _cut_cap(memo, plan, r), floor=floor,
        )[0]
    return value


def _stacks(n: int, support: int) -> bool:
    """Whether the splits of an exact state with ``support`` nonzero
    amplitudes of ``n`` qubits are ranked mod Q in stacks first: from
    ``STACK_MIN_QUBITS`` on, and only for a support of at least
    2**(n / 2) (see the crossover table in ``_kernels``)."""
    return n >= STACK_MIN_QUBITS and support * support >= 1 << n


def _stacked_floors(psi: PureState, plans) -> dict[tuple[int, ...], int]:
    """The rank mod Q of each split of ``plans``, by ``ranks_mod_q`` over one
    stack per shape, at most ``STACK_CELLS`` cells per chunk.

    Each matrix is one transpose of the state's residues mod Q, which are
    computed once here from ``PureState.cleared``; a canonical split has
    at most as many rows as columns, the wide orientation the kernel takes.
    """
    res = residues_q(psi.cleared[0].ravel().tolist()).reshape((2,) * psi.n)
    floors = {}
    for (rows, cols), group in groupby(plans, key=lambda plan: (plan.rows, plan.cols)):
        group = list(group)
        per = max(1, STACK_CELLS // (rows * cols))
        for start in range(0, len(group), per):
            chunk = group[start:start + per]
            m = np.empty((len(chunk), rows, cols), dtype=np.int64)
            for b, plan in enumerate(chunk):
                m[b] = res.transpose(plan.axes).reshape(rows, cols)
            floors.update(zip((plan.key for plan in chunk), ranks_mod_q(m).tolist()))
    return floors


def split_rank(psi: PureState, row_bits, col_bits=None, *, tolerance: float | None = None) -> int:
    """``rank(coefficient_matrix(psi, row_bits, col_bits))``, without building
    the matrix of an exact state or ranking one of its splits twice."""
    _check_tolerance(tolerance)
    return _split_rank(psi, split_plan(psi.n, row_bits, col_bits), tolerance)


def rank_signature(psi: PureState, *, tolerance: float | None = None) -> RankSignature:
    """Ranks across all canonical bipartitions of the register."""
    _check_tolerance(tolerance)
    plans = _canonical_plans(psi.n)
    floors = {}
    if psi.is_exact:
        todo = [plan for plan in plans if plan.key not in psi.split_ranks]
        if todo and _stacks(psi.n, int(np.count_nonzero(psi.cleared[2]))):
            floors = _stacked_floors(psi, todo)
    ranks = {plan.key: _split_rank(psi, plan, tolerance, floors.get(plan.key)) for plan in plans}
    return RankSignature(psi.n, psi.labels, ranks)


def reduced_density(psi: PureState, kept_bits):
    """``rho = C C^dagger`` for the kept qubits; Hermitian PSD by construction."""
    m = _array(psi, split_plan(psi.n, kept_bits))
    return _entries(m @ m.conj().T)


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
    plan = split_plan(psi.n, half_bits)
    if psi.is_exact:
        quads, den, _ = psi.cleared
        return _det(SplitCells(quads, plan.axes), den, plan.rows)
    return complex(np.linalg.det(_array(psi, plan)))


def det_density_exact(rho) -> ExactScalar:
    """Exact determinant of a Hermitian ExactScalar matrix (nested tuples)."""
    return _det(*common_denominator([e for row in rho for e in row]), len(rho))
