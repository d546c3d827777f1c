"""Local invertible operators: state transforms, matrix transforms, sampling.

Applying an operator set is done qubit by qubit (n passes of 2x2
multiplications over the amplitude vector) instead of materialising the
2^n x 2^n Kronecker product.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._kernels import apply_single_qubit
from .coeffmatrix import CoefficientMatrix, _entries
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
    """Invertible 2x2 operator acting on a single qubit."""

    entries: tuple  # ((a, b), (c, d))

    def __post_init__(self):
        if len(self.entries) != 2 or any(len(r) != 2 for r in self.entries):
            raise ValueError("operator must be 2x2")
        det = self.det()
        if isinstance(det, ExactScalar):
            if det.is_zero():
                raise ValueError("operator must be invertible (zero determinant)")
        elif det == 0:
            raise ValueError("operator must be invertible (zero determinant)")

    @classmethod
    def of(cls, a, b, c, d) -> LocalOperator:
        vals = coerce_amplitudes((a, b, c, d))
        return cls(((vals[0], vals[1]), (vals[2], vals[3])))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.entries[0][0], ExactScalar)

    def det(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def inverse(self) -> LocalOperator:
        (a, b), (c, d) = self.entries
        det = self.det()
        if isinstance(det, ExactScalar):
            inv = det.inverse()
        else:
            inv = 1.0 / det
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


def apply_local(psi: PureState, ops: LocalOperatorSet) -> PureState:
    """Transform the state by the tensor product of the per-qubit operators."""
    if len(ops) != psi.n:
        raise ValueError("operator count does not match qubit count")
    if psi.is_exact and ops.is_exact:
        # bring all amplitudes over one shared denominator for the kernel
        quads, den = common_denominator(psi.amps)
        for t, op in enumerate(ops.ops):
            (a, b), (c, d) = op.entries
            op_quads, op_den = common_denominator([a, b, c, d])
            quads = apply_single_qubit(quads, psi.n, t, tuple(op_quads))
            den *= op_den
        amps = tuple(ExactScalar(q[0], q[1], q[2], q[3], den) for q in quads)
        return PureState(psi.n, amps, psi.labels)
    psi = psi.to_float()
    amps = amplitude_tensor(psi)
    for t, op in enumerate(ops.ops):
        amps = np.tensordot(np.array(op.entries, dtype=complex), amps, (1, t))
        amps = np.moveaxis(amps, 0, t)
    return _from_tensor(amps, psi.labels)


def transform_coefficient_matrix(
    C: CoefficientMatrix, ops: LocalOperatorSet
) -> CoefficientMatrix:
    """(row ops kron) @ C @ (col ops kron)^T, operator order per stored bits."""
    bp = C.bipartition
    if len(ops) != bp.n:
        raise ValueError("operator count does not match qubit count")
    dtype = object if C.is_exact and ops.is_exact else complex
    one = np.eye(1, dtype=dtype)
    L, R = (
        reduce(np.kron, [np.array(ops[b - 1].entries, dtype) for b in bits], one)
        for bits in (bp.row_bits, bp.col_bits)
    )
    out = L @ np.asarray(C.entries, dtype) @ R.T
    return CoefficientMatrix(C.rows, C.cols, _entries(out), bp)


def random_invertible_local(
    n: int, seed: int, mode: str = "exact", max_attempts: int = 1000
) -> LocalOperatorSet:
    """Deterministic per-seed sample of n invertible 2x2 operators.

    Exact mode draws Gaussian integers from {-3..3} + {-3..3}i and
    redraws until the determinant is nonzero; floating mode draws
    standard-normal components and requires |det| > 1e-3.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        for attempt in range(max_attempts):
            if mode == "exact":
                vals = [
                    ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3))
                    for _ in range(4)
                ]
                det = vals[0] * vals[3] - vals[1] * vals[2]
                if not det.is_zero():
                    ops.append(LocalOperator(((vals[0], vals[1]), (vals[2], vals[3]))))
                    break
            elif mode == "float" or mode == "floating":
                vals = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
                det = vals[0] * vals[3] - vals[1] * vals[2]
                if abs(det) > 1e-3:
                    ops.append(LocalOperator(((vals[0], vals[1]), (vals[2], vals[3]))))
                    break
            else:
                raise ValueError(f"unknown sampling mode {mode!r}")
        else:
            raise RuntimeError("failed to sample an invertible operator")
    return LocalOperatorSet(tuple(ops))


# --- operator file format ----------------------------------------------------


def parse_operator_file(text: str) -> LocalOperatorSet:
    """Array of n entries, each a 2x2 array of scalar strings."""
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("operator file must be a non-empty array")
    floating = any(
        is_float_literal(cell)
        for entry in data
        for row in entry
        for cell in row
    )
    parse = parse_float if floating else parse_exact
    ops = []
    for entry in data:
        if len(entry) != 2 or any(len(row) != 2 for row in entry):
            raise ValueError("each operator must be a 2x2 array")
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
