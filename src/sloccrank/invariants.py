"""Polynomial invariants of four-qubit states.

``dxy`` is a degree-6 invariant, covariant under local operators with
factor (product of determinants) cubed; ``f1``/``f2`` are degree-4
semi-invariants over the first and last eight amplitudes.  All formulas
work on exact or floating amplitudes alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffmatrix import det_coeff
from .scalars import ExactScalar
from .slocc import LocalOperatorSet
from .states import PureState


FLOAT_ZERO_TOL = 1e-9  # relative cutoff for zero tests on floating values


def _require_four_qubits(psi: PureState):
    if psi.n != 4:
        raise ValueError("invariant is defined for four-qubit states")


def invariant_is_zero(value, reference: float = 1.0) -> bool:
    """Zero test: exact for ExactScalar, relative 1e-9 for floats."""
    if isinstance(value, ExactScalar):
        return value.is_zero()
    return abs(value) <= FLOAT_ZERO_TOL * max(1.0, abs(reference))


def dxy(psi: PureState):
    """Degree-6 invariant: 3x3 determinant of quadratic forms in the amplitudes."""
    _require_four_qubits(psi)
    a = psi.amps
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


def f1(psi: PureState):
    """Degree-4 semi-invariant over amplitudes 0..7."""
    _require_four_qubits(psi)
    c = psi.amps
    head = c[0] * c[7] - c[2] * c[5] + c[1] * c[6] - c[3] * c[4]
    return head * head - 4 * ((c[2] * c[4] - c[0] * c[6]) * (c[3] * c[5] - c[1] * c[7]))


def f2(psi: PureState):
    """Degree-4 semi-invariant over amplitudes 8..15."""
    _require_four_qubits(psi)
    c = psi.amps
    head = c[8] * c[15] - c[11] * c[12] + c[9] * c[14] - c[10] * c[13]
    return head * head - 4 * (
        (c[11] * c[13] - c[9] * c[15]) * (c[10] * c[12] - c[8] * c[14])
    )


def dxy_covariance_factor(ops: LocalOperatorSet):
    """(product of operator determinants) cubed."""
    if len(ops) != 4:
        raise ValueError("need exactly four local operators")
    d = ops.det_product()
    return d * d * d


def closed_form_dxy(family: str, params: dict):
    """Closed form of the invariant on a built-in family template."""
    if family == "G_abcd":
        a, b, c, d = (params[k] for k in ("a", "b", "c", "d"))
        return (a * b - c * d) * (a * b + c * d) * (a * a + b * b - c * c - d * d)
    if family == "L_abc2":
        a, b, c = (params[k] for k in ("a", "b", "c"))
        ab = a * b
        return ab * ab * (a * a - c * c + b * b)
    if family in ("L_ab3", "L_ab3'"):
        a, b = params["a"], params["b"]
        diff = a - b
        tot = a + b
        return -(diff * diff * diff) * (tot * tot * tot) / 32
    raise ValueError(f"no closed form registered for family {family!r}")


@dataclass(frozen=True)
class InvariantReport:
    dxy: object
    f1: object
    f2: object
    det_ab: object
    det_ac: object
    det_ad: object

    def as_dict(self) -> dict:
        return {
            "dxy": self.dxy,
            "f1": self.f1,
            "f2": self.f2,
            "detAB": self.det_ab,
            "detAC": self.det_ac,
            "detAD": self.det_ad,
        }


def invariant_report(psi: PureState) -> InvariantReport:
    """All six invariant values of a four-qubit state."""
    _require_four_qubits(psi)
    return InvariantReport(
        dxy=dxy(psi),
        f1=f1(psi),
        f2=f2(psi),
        det_ab=det_coeff(psi, (1, 2)),
        det_ac=det_coeff(psi, (1, 3)),
        det_ad=det_coeff(psi, (1, 4)),
    )
