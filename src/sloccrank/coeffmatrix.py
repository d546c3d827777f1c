"""Coefficient matrices of bipartitions, exact/numeric ranks, reduced densities.

For row bits (q1..ql) the matrix entry (u, v) is the amplitude whose bit
at position q_t equals bit t of u, with the column bits filled in the
order produced by swapping the row bits into the leading slots of the
register.  That ordering reproduces the standard printed layouts: rows
(1,2) give columns (3,4), rows (1,3) give (2,4), rows (1,4) give (3,2).
Ranks are insensitive to the column order.

An exact state's signature ranks one split per qubit-symmetry orbit
(``rank_signature``).  The swaps of qubits that fix the amplitude tensor
join the qubits into classes (``_qubit_classes``); a split's rank then
depends only on how many qubits of each class it takes, and on that
count or its complement's (``_orbits``), so one representative per orbit
is ranked and its rank copied to the rest of the memo.  The paper's
representatives are built from GHZ, W and EPR blocks, whose qubits are
interchangeable: GHZ-16 ranks 8 of its 32,767 splits.  A random state
pays the detection only: about 50 us at n = 12, on one core of a 2-CPU
x86-64 host.

Many small states are ranked at once by ``rank_signatures``.  Every
split that a state's memo lacks is ranked mod Q in one stack per split
shape across all the states (``_stacked_floors``, which also gives
``rank_signature`` its floors on one dense state), and a floor equal to
min(rows, cols) is the rank.  Every shortfall is then ranked by
``stacked_rank``, the one proof of every rank shortfall, one stack per
shape in chunks of ``SHORTFALL_CELLS`` input cells: unchunked, one
process running the 36 verify-all items of the benchmark's seed 5
peaked at 35.9 MB against 33.1 MB (32.8 MB with every state ranked
alone).  A state whose splits are too large for two to share a chunk
(n >= 11) takes ``rank_signature`` instead, since a stack of one lacks
the term-rank and cut bounds of the lone route: a shuffled 4+4+3
product took 2.3-2.6 s through stacks of one against 0.15-0.22 s alone
(CPU time, two runs).

``rank_signature`` keeps its lone route for one state, as does a sparse
state of ``rank_signatures`` from ``STACK_MIN_QUBITS`` qubits on: there
support compression, the term rank and the cut bounds settle most
shortfalls of a sparse or low-rank split before any elimination.  The
15 low-rank n = 8 states of the benchmark's seed 5 took 0.08-0.10 s one
by one on the lone route against 0.26-0.29 s through
``rank_signatures`` one state at a time, while the 1,200 transformed
states of six rank-invariance checks, with their corpus, took
0.39-0.52 s lone and 0.13-0.18 s batched (CPU time, one core of a 2-CPU
x86-64 host, Python 3.11, numpy 2.4).  So a caller with one state calls
``rank_signature``, and one with many small ones ``rank_signatures``.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from ._kernels import Q_ROW, bareiss, ranks_mod_q, residues_mod, stacked_rank
from .scalars import ExactScalar, common_denominator, render_exact, render_float
from .states import QUBIT_CAP, PureState, amplitude_tensor

DEFAULT_TOL_SCALE = 1e-10
TOL_FLOOR = 1e-12
STACK_MIN_QUBITS = 6  # below this a signature ranks each split alone (crossover in ``_kernels``)
STACK_CELLS = 1 << 17  # cells per chunk of a mod-Q stack: 1 MB of int64
SHORTFALL_CELLS = STACK_CELLS >> 6  # input cells per ``stacked_rank`` call of ``rank_signatures``


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
    """The row-major quadruples of one split, read only on demand.

    A read-only sequence over ``quads``, the (2, ..., 2, 4) quadruple array
    of ``PureState.cleared``, and a split's ``SplitPlan.axes``: ``len`` is
    rows * cols, ``np.asarray`` gives the (rows * cols, 4) transpose of
    ``quads`` (a proof gathers its submatrix from it), and the first
    ``__iter__`` or ``__getitem__`` lists its cells as tuples of Python
    ints (what ``_eliminate`` and a determinant read) and keeps the list.
    A split that its floor, its rank mod P or an upper bound decides is
    never read.
    """

    __slots__ = ("_quads", "_axes", "_cells")

    def __init__(self, quads: np.ndarray, axes: tuple[int, ...]):
        self._quads = quads
        self._axes = axes
        self._cells = None

    def __len__(self) -> int:
        return self._quads.size >> 2

    def __array__(self, dtype=None, copy=None):
        cells = self._quads.transpose(self._axes + (len(self._axes),)).reshape(-1, 4)
        return cells if dtype is None else cells.astype(dtype)

    def _listed(self) -> list:
        if self._cells is None:
            self._cells = list(map(tuple, np.asarray(self).tolist()))
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
    ``floor``, the rank the split is known to reach.  A positive floor
    below the square of every rank in the memo returns None before any
    cut is read: no product can reach it, so no cut would prove it (GHZ
    and W states under local operators, whose every rank is 2, ask for
    floor 2 on every split).
    """
    if floor > 0 and (not memo or min(memo.values()) ** 2 > floor):
        return None
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
    ``SplitCells`` and a transposed view of ``PureState.residues``.
    ``floor``, a proven lower bound such as the split's rank mod Q
    (``_stacked_floors``), decides a full rank without reading either, and
    then the residues are not computed.
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
        res = None if floor == min(plan.rows, plan.cols) else psi.residues.transpose(plan.axes)
        value = memo[plan.key] = bareiss(
            SplitCells(psi.cleared[0], plan.axes), plan.rows, plan.cols, det=False,
            res=res, cap=lambda r: _cut_cap(memo, plan, r), floor=floor,
        )[0]
    return value


def _support(psi: PureState) -> int:
    """The number of nonzero amplitudes of an exact state."""
    return int(np.count_nonzero(psi.cleared[0].any(axis=-1)))


def _stacks(n: int, support: int) -> bool:
    """Whether the splits of an exact state with ``support`` nonzero
    amplitudes of ``n`` qubits are ranked mod Q in stacks first: from
    ``STACK_MIN_QUBITS`` on, and only for a support of at least
    2**(n / 2) (see the crossover table in ``_kernels``)."""
    return n >= STACK_MIN_QUBITS and support * support >= 1 << n


def _by_shape(plans) -> dict[tuple[int, int], list[int]]:
    """The positions of ``plans``, grouped by split shape."""
    groups = {}
    for i, plan in enumerate(plans):
        groups.setdefault((plan.rows, plan.cols), []).append(i)
    return groups


def _chunks(indices: list[int], cells: int, budget: int):
    """``indices`` in runs of at most ``budget`` cells of ``cells`` each (one at least)."""
    per = max(1, budget // cells)
    for start in range(0, len(indices), per):
        yield indices[start:start + per]


def _stacked_floors(pairs) -> list[int]:
    """The rank mod Q of the split of each (state, plan) pair, by
    ``ranks_mod_q`` over one stack per split shape across all the pairs, at
    most ``STACK_CELLS`` cells per chunk.

    Each matrix is one transpose of its state's residues mod Q, computed
    here from ``PureState.cleared`` by one ``residues_mod`` call per qubit
    count and dtype of the states; a canonical split has at most as many
    rows as columns, the wide orientation the kernel takes.
    """
    groups = {}
    for key, psi in {id(psi): psi for psi, _ in pairs}.items():
        groups.setdefault((psi.n, psi.cleared[0].dtype), {})[key] = psi.cleared[0]
    res = {}
    for group in groups.values():
        res.update(zip(group, residues_mod(np.stack(list(group.values())), Q_ROW)[0]))
    floors = [0] * len(pairs)
    for (rows, cols), group in _by_shape(plan for _, plan in pairs).items():
        for chunk in _chunks(group, rows * cols, STACK_CELLS):
            m = np.empty((len(chunk), rows, cols), dtype=np.int64)
            for b, i in enumerate(chunk):
                psi, plan = pairs[i]
                m[b] = res[id(psi)].transpose(plan.axes).reshape(rows, cols)
            for i, floor in zip(chunk, ranks_mod_q(m).tolist()):
                floors[i] = floor
    return floors


def _stacked_shortfalls(short) -> None:
    """Rank the split of each (state, plan, floor) triple of ``short``, whose
    floor mod Q fell short, into the state's memo.

    The splits of states whose quadruples are int64 are ranked by
    ``stacked_rank``, one stack per split shape, at most
    ``SHORTFALL_CELLS`` input cells per call.  The splits of any other
    state take the lone route of ``_split_rank`` after the stacks, so that
    its cut bounds read the stacked ranks.
    """
    stackable, lone = [], []
    for item in short:
        (stackable if item[0].cleared[0].dtype == np.int64 else lone).append(item)
    for (rows, cols), group in _by_shape(plan for _, plan, _ in stackable).items():
        for chunk in _chunks(group, rows * cols, SHORTFALL_CELLS):
            q = np.empty((len(chunk), rows, cols, 4), dtype=np.int64)
            for b, i in enumerate(chunk):
                psi, plan, _ = stackable[i]
                q[b] = psi.cleared[0].transpose(plan.axes + (psi.n,)).reshape(rows, cols, 4)
            for i, r in zip(chunk, stacked_rank(q).tolist()):
                psi, plan, floor = stackable[i]
                if r < floor:
                    raise ArithmeticError(f"stacked rank {r} is below the floor {floor}")
                psi.split_ranks[plan.key] = r
    for psi, plan, floor in lone:
        _split_rank(psi, plan, None, floor)


def split_rank(psi: PureState, row_bits, col_bits=None, *, tolerance: float | None = None) -> int:
    """``rank(coefficient_matrix(psi, row_bits, col_bits))``, without building
    the matrix of an exact state or ranking one of its splits twice."""
    _check_tolerance(tolerance)
    return _split_rank(psi, split_plan(psi.n, row_bits, col_bits), tolerance)


def _qubit_classes(psi: PureState) -> tuple[int, ...]:
    """The class of each qubit of an exact state under the swaps that fix
    its amplitude tensor, numbered 0, 1, ... in order of first qubit.

    If (i j) and (j k) fix the tensor, so does (i k) = (i j)(j k)(i j),
    so the fixing swaps are an equivalence on the qubits, and a qubit
    joins a class exactly when its swap with the class's first qubit
    fixes the tensor.  Each qubit is tested against the first qubit of
    each class found so far, in two steps, cheapest first: per qubit, the
    sum of one integer image of each quadruple at the indices that set
    its bit (equal for i and j when (i j) fixes the tensor, also where
    int64 wraps, so a random state stops here), then the quadruple array
    against its swapped axes, which alone proves the swap.
    """
    quads = psi.cleared[0]
    image = quads @ np.array([1, 3, 5, 7])  # one reduction per qubit below, not four
    ones = [int(image.reshape(1 << i, 2, -1)[:, 1].sum()) for i in range(psi.n)]
    firsts: list[int] = []
    classes = []
    for j in range(psi.n):
        for c, i in enumerate(firsts):
            if ones[i] == ones[j] and np.array_equal(quads, quads.swapaxes(i, j)):
                classes.append(c)
                break
        else:
            classes.append(len(firsts))
            firsts.append(j)
    return tuple(classes)


@lru_cache(maxsize=32)
def _orbits(n: int, classes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The orbits of the canonical splits of ``n`` qubits under the qubit
    permutations that keep each class of ``classes`` (``_qubit_classes``),
    as positions in ``_canonical_plans(n)``: each orbit ascending, so its
    representative first, and the orbits in order of representative.

    Such a permutation maps a split S to any split with as many qubits of
    each class as S, and one of S or its complement to any split whose
    count vector is that of S or of the complement; a split and its
    complement have one rank.  So a split's orbit is keyed by the
    unordered pair {counts(S), counts(complement)}, here the smaller of
    their two codes in the mixed radix of the class sizes.  The map is
    kept per (n, classes) for the 32 most recent pairs.
    """
    keys = [plan.key for plan in _canonical_plans(n)]
    sizes = np.bincount(classes)
    radix = np.cumprod(np.concatenate(([1], sizes[:-1] + 1)))
    weight = radix[list(classes)]  # a qubit adds its class's digit
    lengths = np.fromiter(map(len, keys), np.int64, len(keys))
    bits = np.fromiter(chain.from_iterable(keys), np.int64, int(lengths.sum())) - 1
    code = np.add.reduceat(weight[bits], np.cumsum(lengths) - lengths)
    orbit_key = np.minimum(code, int(weight.sum()) - code)
    _, inverse = np.unique(orbit_key, return_inverse=True)
    members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    return tuple(sorted(tuple(m.tolist()) for m in members))


def _rank_orbits(psi: PureState, plans: tuple[SplitPlan, ...]) -> None:
    """Fill an exact state's memo with the rank of every split in
    ``plans`` (``_canonical_plans(psi.n)``), ranking one split per
    qubit-symmetry orbit (``_orbits``) and copying its rank to the rest.

    The representatives a memo lacks are ranked mod Q in stacks first
    when the state is dense (``_stacks``), then each in enumeration
    order by ``_split_rank``, so that the cut bounds of a larger split
    read the ranks of every orbit before it.
    """
    memo = psi.split_ranks
    orbits = _orbits(psi.n, _qubit_classes(psi))
    todo = [plans[orbit[0]] for orbit in orbits if plans[orbit[0]].key not in memo]
    floors = {}
    if todo and _stacks(psi.n, _support(psi)):
        floors = _stacked_floors([(psi, plan) for plan in todo])
        floors = dict(zip((plan.key for plan in todo), floors))
    for orbit in orbits:
        rep = plans[orbit[0]]
        value = _split_rank(psi, rep, None, floors.get(rep.key))
        for i in orbit[1:]:
            memo[plans[i].key] = value


def rank_signature(psi: PureState, *, tolerance: float | None = None) -> RankSignature:
    """Ranks across all canonical bipartitions of the register.

    An exact state ranks one split per qubit-symmetry orbit
    (``_rank_orbits``): a GHZ state of n qubits ranks n // 2 splits.
    """
    _check_tolerance(tolerance)
    plans = _canonical_plans(psi.n)
    if not psi.is_exact:
        ranks = {plan.key: _split_rank(psi, plan, tolerance) for plan in plans}
        return RankSignature(psi.n, psi.labels, ranks)
    memo = psi.split_ranks
    if len(memo) < len(plans):  # the memo holds canonical keys of psi.n only
        _rank_orbits(psi, plans)
    return RankSignature(psi.n, psi.labels, {plan.key: memo[plan.key] for plan in plans})


def _batched(psi: PureState) -> bool:
    """Whether ``rank_signatures`` ranks an exact state in its stacks: when
    two of its splits fit one shortfall stack (n <= 10), and it has fewer
    than ``STACK_MIN_QUBITS`` qubits or a dense support (``_stacks``)."""
    if 2 << psi.n > SHORTFALL_CELLS:
        return False
    return psi.n < STACK_MIN_QUBITS or _stacks(psi.n, _support(psi))


def rank_signatures(states, *, tolerance: float | None = None) -> list[RankSignature]:
    """``[rank_signature(psi, tolerance=tolerance) for psi in states]``, with
    the splits of the small exact states ranked together.

    Every split of a ``_batched`` state that its memo
    (``PureState.split_ranks``) lacks is ranked mod Q in one stack per
    split shape across all the states (``_stacked_floors``); a floor equal
    to min(rows, cols) is the rank, and the shortfalls are ranked by
    ``stacked_rank``, or on the lone route when a state is beyond int64
    (``_stacked_shortfalls``).  Each rank is kept in its state's memo; a
    state given twice is ranked once.  The batch finds no qubit symmetry:
    its many small states are mostly images under random local operators,
    which have none.  Every other state takes ``rank_signature``, a
    floating one with ``tolerance``.  A sparse state from
    ``STACK_MIN_QUBITS`` qubits on gains nothing from the stacks
    (``rank_signatures([ghz(14)])`` took 9.7 s through them against 0.95 s
    alone, before orbits), nor does one of more than 10 qubits, whose
    every shortfall took the lone route anyway: D(12, 4) took 4.4 s in the
    batch against 0.026 s on ``rank_signature``, which ranks 6 of its
    2,047 splits.
    """
    _check_tolerance(tolerance)
    states = list(states)
    batch = {id(psi): psi for psi in states if psi.is_exact and _batched(psi)}
    pairs = [
        (psi, plan)
        for psi in batch.values()
        for plan in _canonical_plans(psi.n)
        if plan.key not in psi.split_ranks
    ]
    short = []
    for (psi, plan), floor in zip(pairs, _stacked_floors(pairs)):
        if floor == min(plan.rows, plan.cols):
            psi.split_ranks[plan.key] = floor
        else:
            short.append((psi, plan, floor))
    _stacked_shortfalls(short)
    out = []
    for psi in states:
        if id(psi) in batch:
            memo = psi.split_ranks
            ranks = {plan.key: memo[plan.key] for plan in _canonical_plans(psi.n)}
            out.append(RankSignature(psi.n, psi.labels, ranks))
        else:
            out.append(rank_signature(psi, tolerance=tolerance))
    return out


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
        quads, den = psi.cleared
        return _det(SplitCells(quads, plan.axes), den, plan.rows)
    return complex(np.linalg.det(_array(psi, plan)))


def det_density_exact(rho) -> ExactScalar:
    """Exact determinant of a Hermitian ExactScalar matrix (nested tuples)."""
    return _det(*common_denominator([e for row in rho for e in row]), len(rho))
