"""Local invertible operators: state transforms, matrix transforms, sampling.

An operator set acts on exact amplitudes without the 2^n x 2^n Kronecker
product: each 2x2 operator becomes the 8x8 integer matrix of its action
on a pair of quadruples (``_kernels.operator_stack``), and a stack of
amplitude vectors of one qubit count takes one batched matrix product per
qubit (``_kernels.apply_single_qubit``).  ``apply_local_many`` and
``transform_coefficient_matrices`` stack many products at once;
``apply_local`` and ``transform_coefficient_matrix`` are stacks of one.
Exact results stay quadruple arrays until the API edge: an applied
state over denominator 1 is built by ``states._from_quads`` with its
``cleared`` form primed, and each operator keeps its cleared entries and
their row sum.  Anything floating contracts complex arrays instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import (
    INT64_BOUND, apply_single_qubit, mul4, operator_row_sum, operator_stack, quad_array,
)
from .coeffmatrix import CoefficientMatrix
from .scalars import (
    ExactScalar,
    common_denominator,
    is_float_literal,
    parse_exact,
    parse_float,
    render_exact,
    render_float,
    scalars_of,
)
from .states import (
    PureState, _from_quads, _from_tensor, amplitude_tensor, coerce_amplitudes, random_ints,
)


@dataclass(frozen=True)
class LocalOperator:
    """Invertible 2x2 operator acting on a single qubit.

    The entries are coerced as amplitudes are (``coerce_amplitudes``): all
    exact, or all complex once any of them is floating.
    """

    entries: tuple  # ((a, b), (c, d))

    def __post_init__(self):
        if len(self.entries) != 2 or any(len(r) != 2 for r in self.entries):
            raise ValueError("operator must be 2x2")
        vals = [x for row in self.entries for x in row]
        if not all(isinstance(x, ExactScalar) for x in vals):
            vals = coerce_amplitudes(vals)
        a, b, c, d = vals
        object.__setattr__(self, "entries", ((a, b), (c, d)))
        self._require_invertible()

    def _require_invertible(self):
        if self.is_exact:
            q = self.cleared[0]  # ad == bc over one denominator: no ExactScalar is built
            singular = mul4(q[0], q[3]) == mul4(q[1], q[2])
        else:
            singular = self.det() == 0
        if singular:
            raise ValueError("operator must be invertible (zero determinant)")

    @classmethod
    def _from_quads(cls, quads) -> LocalOperator:
        """The exact operator whose entries a, b, c, d are the four integer
        quadruples ``quads`` over denominator 1, with ``cleared`` and
        ``row_sum`` primed; a singular one raises ``ValueError`` as the
        constructor does."""
        op = cls.__new__(cls)
        a, b, c, d = scalars_of(quads)
        object.__setattr__(op, "entries", ((a, b), (c, d)))
        cache = vars(op)  # what the cached properties would store
        cache["cleared"] = (list(quads), 1)
        op._require_invertible()
        cache["row_sum"] = operator_row_sum(quads)
        return op

    @cached_property
    def cleared(self) -> tuple[list[tuple[int, int, int, int]], int]:
        """``common_denominator`` of the exact entries a, b, c, d, cached as in ``PureState``."""
        (a, b), (c, d) = self.entries
        return common_denominator([a, b, c, d])

    @cached_property
    def row_sum(self) -> int:
        """``operator_row_sum`` of the cleared entries, cached: it bounds every image."""
        return operator_row_sum(self.cleared[0])

    @classmethod
    def of(cls, a, b, c, d) -> LocalOperator:
        return cls(((a, b), (c, d)))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.entries[0][0], ExactScalar)

    def det(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def inverse(self) -> LocalOperator:
        (a, b), (c, d) = self.entries
        inv = 1 / self.det()
        return LocalOperator(((d * inv, -(b * inv)), (-(c * inv), a * inv)))

    def matmul(self, other: LocalOperator) -> LocalOperator:
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return LocalOperator(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))


@dataclass(frozen=True)
class LocalOperatorSet:
    ops: tuple[LocalOperator, ...]

    def __post_init__(self):
        if not self.ops:
            raise ValueError("empty operator set")

    def __len__(self):
        return len(self.ops)

    def __getitem__(self, k) -> LocalOperator:
        return self.ops[k]

    @property
    def is_exact(self) -> bool:
        return all(op.is_exact for op in self.ops)

    def det_product(self):
        out = None
        for op in self.ops:
            d = op.det()
            out = d if out is None else out * d
        return out

    def inverse(self) -> LocalOperatorSet:
        return LocalOperatorSet(tuple(op.inverse() for op in self.ops))

    def compose(self, other: LocalOperatorSet) -> LocalOperatorSet:
        """Per-qubit matrix product: self after other."""
        if len(self.ops) != len(other.ops):
            raise ValueError("size mismatch")
        return LocalOperatorSet(
            tuple(a.matmul(b) for a, b in zip(self.ops, other.ops))
        )


IDENTITY_OP = LocalOperator.of(1, 0, 0, 1)
SIGMA_X = LocalOperator.of(0, 1, 1, 0)
SIGMA_Y = LocalOperator.of(0, -ExactScalar(0, 1), ExactScalar(0, 1), 0)
SIGMA_Z = LocalOperator.of(1, 0, 0, -1)
I_IDENTITY = LocalOperator.of(ExactScalar(0, 1), 0, 0, ExactScalar(0, 1))
I_SIGMA_Z = LocalOperator.of(ExactScalar(0, 1), 0, 0, -ExactScalar(0, 1))


def _contract(amps: np.ndarray, ops) -> np.ndarray:
    """Apply ``ops[t]`` to axis ``t`` of a complex 2 x ... x 2 tensor."""
    for t, op in enumerate(ops):
        amps = np.moveaxis(np.tensordot(np.array(op.entries, complex), amps, (1, t)), 0, t)
    return amps


STACK_JOBS = 64  # amplitude vectors per stack: bounds the arrays and the scalars held at once


def _apply_exact(jobs) -> list[tuple[np.ndarray, int]]:
    """Apply exact operators to many amplitude vectors, as stacks.

    Each job is ``(quads, den, ops)``: the amplitude vector ``quads / den``,
    ``quads`` a (2**n, 4) array of integer quadruples as
    ``_kernels.quad_array`` returns, and ``ops[t]`` the operator of qubit
    ``t``, the ``t``-th most significant index bit.  Each image is returned
    the same way, as ``(quads, den)``.  Jobs of one qubit count and dtype
    are stacked, ``STACK_JOBS`` at a time.  A job is stacked in int64 when
    its bound, max |x| times the largest absolute row sum of every qubit's
    8x8 matrix, is below ``INT64_BOUND``: no partial sum of any of its
    products can then exceed it.  Any other job is stacked as Python ints
    (object dtype).  ``np.abs`` gives max |x| exactly on either dtype, since
    int64 storage excludes -2**63.
    """
    groups = {}
    for j, (quads, den, ops) in enumerate(jobs):
        bound = int(np.abs(quads).max())
        for op in ops:
            bound *= op.row_sum
            den *= op.cleared[1]
        key = (len(ops), bound < INT64_BOUND)
        groups.setdefault(key, []).append((j, quads, ops, den))
    out = [None] * len(jobs)
    for (n, small), members in groups.items():
        dtype = np.int64 if small else object
        for start in range(0, len(members), STACK_JOBS):
            part = members[start:start + STACK_JOBS]
            x = np.stack([quads for _, quads, _, _ in part]).astype(dtype, copy=False)
            op_quads = [op.cleared[0] for _, _, ops, _ in part for op in ops]
            mats = operator_stack(np.array(op_quads, dtype=dtype).reshape(len(part), n, 2, 2, 4))
            for t in range(n):
                x = apply_single_qubit(x, t, mats[:, t])
            for (j, _, _, den), image in zip(part, x):
                out[j] = (image, den)
    return out


def apply_local_many(pairs) -> list[PureState]:
    """``apply_local`` of each ``(psi, ops)`` pair, the exact pairs stacked."""
    out = [None] * len(pairs)
    exact = []
    for k, (psi, ops) in enumerate(pairs):
        if len(ops) != psi.n:
            raise ValueError("operator count does not match qubit count")
        if psi.is_exact and ops.is_exact:
            quads, den = psi.cleared
            exact.append((k, (quads.reshape(-1, 4), den, ops.ops)))
        else:
            phi = psi.to_float()
            out[k] = _from_tensor(_contract(amplitude_tensor(phi), ops.ops), phi.labels)
    for (k, _), (quads, den) in zip(exact, _apply_exact([job for _, job in exact])):
        psi = pairs[k][0]
        out[k] = _from_quads(quads.reshape((2,) * psi.n + (4,)), den, psi.labels)
    return out


def apply_local(psi: PureState, ops: LocalOperatorSet) -> PureState:
    """Transform the state by the tensor product of the per-qubit operators."""
    return apply_local_many([(psi, ops)])[0]


def transform_coefficient_matrices(pairs) -> list[CoefficientMatrix]:
    """``transform_coefficient_matrix`` of each ``(C, ops)`` pair, the exact pairs stacked.

    Read as states through ``apply_local_many``, matrix-transform's matrices at seeds
    41-46 took 133-196 ms CPU, not 112-162 (min of 15, one core of a 2-CPU x86-64
    host): building a ``PureState`` per matrix costs more than the jobs built here.
    """
    out = [None] * len(pairs)
    exact = []
    for k, (C, ops) in enumerate(pairs):
        bp = C.bipartition
        if len(ops) != bp.n:
            raise ValueError("operator count does not match qubit count")
        ordered = [ops[b - 1] for b in bp.row_bits + bp.col_bits]
        if C.is_exact and ops.is_exact:
            quads, den = common_denominator([e for row in C.entries for e in row])
            exact.append((k, (quad_array(quads), den, ordered)))
        else:
            amps = np.asarray(C.entries, complex).reshape((2,) * bp.n)
            entries = _contract(amps, ordered).reshape(C.rows, C.cols)
            out[k] = CoefficientMatrix(C.rows, C.cols, entries, bp)
    for (k, _), (quads, den) in zip(exact, _apply_exact([job for _, job in exact])):
        C = pairs[k][0]
        flat = scalars_of(quads.tolist(), den)
        entries = tuple(flat[i:i + C.cols] for i in range(0, len(flat), C.cols))
        out[k] = CoefficientMatrix(C.rows, C.cols, entries, C.bipartition)
    return out


def transform_coefficient_matrix(
    C: CoefficientMatrix, ops: LocalOperatorSet
) -> CoefficientMatrix:
    """(row ops kron) @ C @ (col ops kron)^T, operator order per stored bits.

    C is read as an amplitude vector whose qubit ``t`` is stored bit
    ``(row_bits + col_bits)[t]``, and transformed as ``apply_local`` does.
    """
    return transform_coefficient_matrices([(C, ops)])[0]


def random_invertible_local(n: int, seed: int) -> LocalOperatorSet:
    """Deterministic per-seed sample of n invertible 2x2 operators.

    Each operator's entries a, b, c, d are Gaussian integers from
    {-3..3} + {-3..3}i, real part first (``states.random_ints``), redrawn
    while ad == bc.
    """
    rng = random.Random(seed)
    ops = []
    while len(ops) < n:
        parts = random_ints(rng, 3, 8 * (n - len(ops)))  # a refused draw is made again
        for k in range(0, len(parts), 8):
            quads = [(x, y, 0, 0) for x, y in zip(parts[k:k + 8:2], parts[k + 1:k + 8:2])]
            try:
                ops.append(LocalOperator._from_quads(quads))
            except ValueError:
                pass
    return LocalOperatorSet(tuple(ops))


# --- operator file format ----------------------------------------------------


def _is_operator_entry(entry) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and all(
            isinstance(row, list) and len(row) == 2 and all(isinstance(cell, str) for cell in row)
            for row in entry
        )
    )


def parse_operator_file(text: str) -> LocalOperatorSet:
    """Array of n entries, each a 2x2 array of scalar strings.

    Every malformed file raises ``ValueError`` (JSON syntax or nesting
    depth, shape, cell type, scalar syntax or a singular operator).
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("operator file nests too deeply") from None
    if not isinstance(data, list) or not data:
        raise ValueError("operator file must be a non-empty array")
    for k, entry in enumerate(data, 1):
        if not _is_operator_entry(entry):
            raise ValueError(
                f"operator {k} must be a 2x2 array of scalar strings, got {json.dumps(entry)}"
            )
    floating = any(is_float_literal(cell) for entry in data for row in entry for cell in row)
    parse = parse_float if floating else parse_exact
    ops = []
    for entry in data:
        (a, b), (c, d) = entry
        ops.append(LocalOperator(((parse(a), parse(b)), (parse(c), parse(d)))))
    return LocalOperatorSet(tuple(ops))


def render_operator_file(ops: LocalOperatorSet) -> str:
    render = render_exact if ops.is_exact else render_float
    data = [
        [[render(op.entries[0][0]), render(op.entries[0][1])],
         [render(op.entries[1][0]), render(op.entries[1][1])]]
        for op in ops.ops
    ]
    return json.dumps(data, indent=1)
