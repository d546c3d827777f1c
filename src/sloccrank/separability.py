"""Biseparability detection and degenerate-family labelling.

A state is biseparable across a subset S exactly when the coefficient
matrix with S as row bits has rank 1; the finest partition of the
register follows by intersecting the separations of all rank-1 splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffmatrix import RankSignature, coefficient_matrix, rank_signature, split_plan, split_rank
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

    def block_label(self, block) -> str:
        return "".join(self.labels[b - 1] for b in sorted(block))

    def label(self) -> str:
        parts = sorted(
            (self.block_label(b) for b in self.blocks), key=lambda s: (len(s), s)
        )
        return EN_DASH.join(parts)

    def is_genuinely_entangled(self) -> bool:
        """One block of at least two qubits; a single qubit entangles with nothing."""
        return self.n > 1 and len(self.blocks) == 1


@dataclass(frozen=True)
class DegenerateFamilyLabel:
    name: str

    def __str__(self):
        return self.name


def recursive_rank(factors, row_bits) -> int:
    """Rank of a split of a product state as the product of factor ranks.

    ``factors`` is a list of (state, placement) pairs whose placements
    partition the combined register; ``row_bits`` refer to combined
    positions and are checked as ``split_rank`` checks them.  A factor
    wholly on one side of the split has rank 1 there (it is nonzero), so
    no matrix is built for it.
    """
    placements = [tuple(pos) for _, pos in factors]
    cover = sorted(p for pos in placements for p in pos)
    n = len(cover)
    if cover != list(range(1, n + 1)):
        raise ValueError("placements must partition 1..n")
    row_set = set(split_plan(n, row_bits).bipartition.row_bits)
    out = 1
    for psi, pos in factors:
        if len(pos) != psi.n:
            raise ValueError("placement size does not match factor")
        local_rows = tuple(t + 1 for t, p in enumerate(pos) if p in row_set)
        if 0 < len(local_rows) < psi.n:
            out *= split_rank(psi, local_rows)
    return out


def is_biseparable_across(psi: PureState, subset, *, tolerance=None):
    """Rank-1 test across ``subset``; on success also returns the factors.

    Returns ``(flag, factors)`` where ``factors`` is a pair of states on
    the subset and its complement (ascending qubit order) whose tensor
    product reproduces the input up to global scale, or ``None``.
    """
    subset = tuple(sorted(set(subset)))
    if not subset or len(subset) >= psi.n:
        raise ValueError("subset must be a proper nonempty part of the register")
    comp = tuple(p for p in range(1, psi.n + 1) if p not in subset)
    if split_rank(psi, subset, comp, tolerance=tolerance) != 1:
        return False, None
    C = coefficient_matrix(psi, subset, comp)
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


def separability_partition(psi: PureState, *, tolerance=None) -> SeparabilityPartition:
    """Finest partition of the register (see ``partition_from_signature``)."""
    return partition_from_signature(rank_signature(psi, tolerance=tolerance))


def partition_from_signature(sig: RankSignature) -> SeparabilityPartition:
    """Finest partition: two qubits share a block exactly when every rank-1
    split holds both of them or neither, so a block is the set of qubits
    with one membership vector over the rank-1 splits."""
    separators = [set(k) for k in sig.rank_one_splits()]
    groups: dict[tuple[bool, ...], list[int]] = {}
    for p in range(1, sig.n + 1):
        groups.setdefault(tuple(p in s for s in separators), []).append(p)
    return SeparabilityPartition(sig.n, tuple(sorted(map(tuple, groups.values()))), sig.labels)


def degenerate_family(psi: PureState, *, tolerance=None) -> DegenerateFamilyLabel:
    """Canonical partition label, e.g. ``A–B–CD`` or ``ABCD``."""
    if psi.n < 2:
        raise ValueError("family labels need at least two qubits")
    return DegenerateFamilyLabel(separability_partition(psi, tolerance=tolerance).label())
