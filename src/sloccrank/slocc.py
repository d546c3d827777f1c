"""Local invertible operators: state transforms, matrix transforms, sampling.

An operator set acts on exact amplitudes without the 2^n x 2^n Kronecker
product: each 2x2 operator becomes the 8x8 integer matrix of its action
on a pair of quadruples (``_kernels.operator_stack``), and a stack of
amplitude vectors of one qubit count takes one batched matrix product per
qubit (``_kernels.apply_single_qubit``).  ``apply_local_many`` and
``transform_coefficient_matrices`` stack many products at once;
``apply_local`` and ``transform_coefficient_matrix`` are stacks of one.
Anything floating contracts complex arrays instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

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
)
from .states import PureState, _from_tensor, amplitude_tensor, coerce_amplitudes


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
        if isinstance(a, ExactScalar):
            # ad == bc, cleared of denominators: no ExactScalar is built
            ad, bc = mul4(a.quad, d.quad), mul4(b.quad, c.quad)
            left, right = b.den * c.den, a.den * d.den
            singular = all(x * left == y * right for x, y in zip(ad, bc))
        else:
            singular = self.det() == 0
        if singular:
            raise ValueError("operator must be invertible (zero determinant)")

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


def identity_ops(n: int) -> LocalOperatorSet:
    return LocalOperatorSet(tuple(IDENTITY_OP for _ in range(n)))


def _contract(amps: np.ndarray, ops) -> np.ndarray:
    """Apply ``ops[t]`` to axis ``t`` of a complex 2 x ... x 2 tensor."""
    for t, op in enumerate(ops):
        amps = np.moveaxis(np.tensordot(np.array(op.entries, complex), amps, (1, t)), 0, t)
    return amps


STACK_JOBS = 64  # amplitude vectors per stack: bounds the arrays and the scalars held at once


def _apply_exact(jobs) -> list[tuple[ExactScalar, ...]]:
    """Apply exact operators to many amplitude vectors, as stacks.

    Each job is ``(quads, den, ops)``: the amplitude vector ``quads / den``,
    ``quads`` a (2**n, 4) array of integer quadruples as
    ``_kernels.quad_array`` returns, and ``ops[t]`` the operator of qubit
    ``t``, the ``t``-th most significant index bit.  Jobs of one qubit
    count and dtype are stacked, ``STACK_JOBS`` at a time.  A job is
    stacked in int64 when its bound, max |x| times the largest absolute
    row sum of every qubit's 8x8 matrix, is below ``INT64_BOUND``: no
    partial sum of any of its products can then exceed it.  Any other job
    is stacked as Python ints (object dtype).  ``np.abs`` gives max |x|
    exactly on either dtype, since int64 storage excludes -2**63.
    """
    groups = {}
    for j, (quads, den, ops) in enumerate(jobs):
        bound = int(np.abs(quads).max())
        op_quads = []
        for op in ops:
            (a, b), (c, d) = op.entries
            q, op_den = common_denominator([a, b, c, d])
            op_quads.append(q)
            bound *= operator_row_sum(q)
            den *= op_den
        key = (len(ops), bound < INT64_BOUND)
        groups.setdefault(key, []).append((j, quads, op_quads, den))
    out = [None] * len(jobs)
    for (n, small), members in groups.items():
        dtype = np.int64 if small else object
        for start in range(0, len(members), STACK_JOBS):
            part = members[start:start + STACK_JOBS]
            x = np.stack([quads for _, quads, _, _ in part]).astype(dtype, copy=False)
            mats = operator_stack(
                np.array([q for _, _, q, _ in part], dtype=dtype).reshape(len(part), n, 2, 2, 4)
            )
            for t in range(n):
                x = apply_single_qubit(x, t, mats[:, t])
            for (j, _, _, den), amps in zip(part, x.tolist()):
                out[j] = tuple(ExactScalar(*q, den) for q in amps)
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
    for (k, _), amps in zip(exact, _apply_exact([job for _, job in exact])):
        psi = pairs[k][0]
        out[k] = PureState(psi.n, amps, psi.labels)
    return out


def apply_local(psi: PureState, ops: LocalOperatorSet) -> PureState:
    """Transform the state by the tensor product of the per-qubit operators."""
    return apply_local_many([(psi, ops)])[0]


def transform_coefficient_matrices(pairs) -> list[CoefficientMatrix]:
    """``transform_coefficient_matrix`` of each ``(C, ops)`` pair, the exact pairs stacked."""
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
    for (k, _), flat in zip(exact, _apply_exact([job for _, job in exact])):
        C = pairs[k][0]
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

    Each operator's entries are Gaussian integers from {-3..3} + {-3..3}i,
    redrawn until the determinant ad - bc, tested in integers, is nonzero.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        while True:
            a, b, c, d = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            re = a[0] * d[0] - a[1] * d[1] - b[0] * c[0] + b[1] * c[1]
            im = a[0] * d[1] + a[1] * d[0] - b[0] * c[1] - b[1] * c[0]
            if re or im:
                break
        a, b, c, d = [ExactScalar(*z) for z in (a, b, c, d)]
        ops.append(LocalOperator(((a, b), (c, d))))
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

    Every malformed file raises ``ValueError`` (JSON syntax, shape, cell
    type, scalar syntax or a singular operator).
    """
    data = json.loads(text)
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
