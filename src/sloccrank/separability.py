"""Biseparability detection and degenerate-family labelling.

A state is biseparable across a subset S exactly when the coefficient
matrix with S as row bits has rank 1; the finest partition of the
register follows by intersecting the separations of all rank-1 splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffmatrix import coefficient_matrix, rank, rank_signature
from .states import PureState, state

EN_DASH = "–"


@dataclass(frozen=True)
class SeparabilityPartition:
    """Finest partition: blocks are entangled groups or singletons."""

    n: int
    blocks: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        flat = sorted(b for block in self.blocks for b in block)
        if flat != list(range(1, self.n + 1)):
            raise ValueError("blocks must partition 1..n")

    def block_flags(self) -> tuple[bool, ...]:
        """True where a block is entangled (size > 1)."""
        return tuple(len(b) > 1 for b in self.blocks)

    def block_label(self, block) -> str:
        return "".join(self.labels[b - 1] for b in sorted(block))

    def label(self) -> str:
        parts = sorted(
            (self.block_label(b) for b in self.blocks), key=lambda s: (len(s), s)
        )
        return EN_DASH.join(parts)

    def is_genuinely_entangled(self) -> bool:
        return len(self.blocks) == 1

    def is_fully_separable(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)


@dataclass(frozen=True)
class DegenerateFamilyLabel:
    name: str

    def __str__(self):
        return self.name


def recursive_rank(factors, row_bits, mode: str = "exact") -> int:
    """Rank of a split of a product state as the product of factor ranks.

    ``factors`` is a list of (state, placement) pairs whose placements
    partition the combined register; ``row_bits`` refer to combined
    positions.
    """
    placements = [tuple(pos) for _, pos in factors]
    cover = sorted(p for pos in placements for p in pos)
    n = len(cover)
    if cover != list(range(1, n + 1)):
        raise ValueError("placements must partition 1..n")
    row_set = set(row_bits)
    out = 1
    for psi, pos in factors:
        local_rows = tuple(t + 1 for t, p in enumerate(pos) if p in row_set)
        C = coefficient_matrix(psi, local_rows)
        out *= rank(C, mode)
    return out


def is_biseparable_across(psi: PureState, subset, mode: str = "exact", tolerance=None):
    """Rank-1 test across ``subset``; on success also returns the factors.

    Returns ``(flag, factors)`` where ``factors`` is a pair of states on
    the subset and its complement (ascending qubit order) whose tensor
    product reproduces the input up to global scale, or ``None``.
    """
    subset = tuple(sorted(set(subset)))
    if not subset or len(subset) >= psi.n:
        raise ValueError("subset must be a proper nonempty part of the register")
    comp = tuple(p for p in range(1, psi.n + 1) if p not in subset)
    C = coefficient_matrix(psi, subset, comp)
    if rank(C, mode, tolerance) != 1:
        return False, None
    if C.is_exact:
        pivot = None
        for u in range(C.rows):
            for v in range(C.cols):
                if not C.entries[u][v].is_zero():
                    pivot = (u, v)
                    break
            if pivot:
                break
    else:
        arr = np.abs(C.entries)
        pivot = np.unravel_index(int(arr.argmax()), arr.shape)
    u0, v0 = pivot
    col = [C.entries[u][v0] for u in range(C.rows)]
    row = [C.entries[u0][v] for v in range(C.cols)]
    left = state(len(subset), col, labels=[psi.labels[b - 1] for b in subset])
    right = state(len(comp), row, labels=[psi.labels[b - 1] for b in comp])
    return True, (left, right)


def separability_partition(
    psi: PureState, mode: str = "exact", tolerance=None
) -> SeparabilityPartition:
    """Finest partition: two qubits share a block unless some rank-1 split
    separates them."""
    sig = rank_signature(psi, mode, tolerance)
    separators = [set(k) for k in sig.rank_one_splits()]
    parent = list(range(psi.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i in range(1, psi.n + 1):
        for j in range(i + 1, psi.n + 1):
            if all((i in s) == (j in s) for s in separators):
                union(i, j)
    groups: dict[int, list[int]] = {}
    for p in range(1, psi.n + 1):
        groups.setdefault(find(p), []).append(p)
    blocks = tuple(sorted((tuple(sorted(g)) for g in groups.values())))
    return SeparabilityPartition(psi.n, blocks, psi.labels)


def degenerate_family(
    psi: PureState, mode: str = "exact", tolerance=None
) -> DegenerateFamilyLabel:
    """Canonical partition label, e.g. ``A–B–CD`` or ``ABCD``."""
    if psi.n < 2:
        raise ValueError("family labels need at least two qubits")
    return DegenerateFamilyLabel(separability_partition(psi, mode, tolerance).label())
