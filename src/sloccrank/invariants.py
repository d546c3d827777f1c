"""Polynomial invariants of four-qubit states.

``dxy`` is a degree-6 invariant, covariant under local operators with
factor (product of determinants) cubed; ``f1``/``f2`` are degree-4
semi-invariants over the first and last eight amplitudes.

Each is written once, as a straight-line program of index tables
(``_evaluate``): every step is a signed sum of products of two values
already known, the amplitudes first and each step's result appended
after them.  An exact state runs it on its cleared integer quadruples
(``PureState.cleared``) with ``mul4``, so one ExactScalar is built, over
den**degree, at the end; a floating state runs it on complex amplitudes,
in the order the formulas below are written.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ._kernels import mul4
from .coeffmatrix import det_coeff
from .scalars import ExactScalar
from .slocc import LocalOperatorSet
from .states import PureState


# Amplitudes are values 0..15; the step written k-th (from 0) is value 16 + k.
# dxy = det [d_rc] by cofactors along its first row, each d_rc a quadratic form.
_DXY = (
    ((1, 0, 3), (-1, 1, 2)),  # 16: d11
    ((1, 0, 7), (-1, 1, 6), (-1, 2, 5), (1, 3, 4)),  # 17: d12
    ((1, 4, 7), (-1, 5, 6)),  # 18: d13
    ((1, 0, 11), (-1, 1, 10), (-1, 2, 9), (1, 3, 8)),  # 19: d21
    ((1, 0, 15), (-1, 1, 14), (-1, 2, 13), (1, 3, 12),
     (1, 4, 11), (-1, 5, 10), (-1, 6, 9), (1, 7, 8)),  # 20: d22
    ((1, 4, 15), (-1, 5, 14), (-1, 6, 13), (1, 7, 12)),  # 21: d23
    ((1, 8, 11), (-1, 9, 10)),  # 22: d31
    ((1, 8, 15), (-1, 9, 14), (-1, 10, 13), (1, 11, 12)),  # 23: d32
    ((1, 12, 15), (-1, 13, 14)),  # 24: d33
    ((1, 20, 24), (-1, 21, 23)),  # 25: d22 d33 - d23 d32
    ((1, 19, 24), (-1, 21, 22)),  # 26: d21 d33 - d23 d31
    ((1, 19, 23), (-1, 20, 22)),  # 27: d21 d32 - d22 d31
    ((1, 16, 25), (-1, 17, 26), (1, 18, 27)),  # 28: dxy
)
# f1 = h**2 - 4 u v over amplitudes 0..7, f2 the same shape over 8..15
_F1 = (
    ((1, 0, 7), (-1, 2, 5), (1, 1, 6), (-1, 3, 4)),  # 16: h
    ((1, 2, 4), (-1, 0, 6)),  # 17: u
    ((1, 3, 5), (-1, 1, 7)),  # 18: v
    ((1, 16, 16), (-4, 17, 18)),  # 19: f1
)
_F2 = (
    ((1, 8, 15), (-1, 11, 12), (1, 9, 14), (-1, 10, 13)),  # 16: h
    ((1, 11, 13), (-1, 9, 15)),  # 17: u
    ((1, 10, 12), (-1, 8, 14)),  # 18: v
    ((1, 16, 16), (-4, 17, 18)),  # 19: f2
)


def _require_four_qubits(psi: PureState):
    if psi.n != 4:
        raise ValueError("invariant is defined for four-qubit states")


def _sum4(terms):
    """Signed sum of quadruples: ``terms`` are (coefficient, quadruple) pairs."""
    a = b = c = d = 0
    for k, (p, q, r, s) in terms:
        a += k * p
        b += k * q
        c += k * r
        d += k * s
    return a, b, c, d


def _sum_complex(terms):
    """Signed sum of complex values, left to right from the first (whose
    coefficient is 1): ``x - k * y`` for a coefficient -k, as written."""
    terms = iter(terms)
    _, total = next(terms)
    for k, value in terms:
        if abs(k) != 1:
            value = abs(k) * value
        total = total + value if k > 0 else total - value
    return total


def _evaluate(program, values, mul, add):
    """Run ``program`` on ``values`` with the ring's product ``mul`` and
    signed sum ``add``; returns its last step."""
    values = list(values)
    for step in program:
        values.append(add([(k, mul(values[i], values[j])) for k, i, j in step]))
    return values[-1]


def _invariant(program, degree: int, psi: PureState):
    """``program``'s value on ``psi``; exact states give an ExactScalar over
    den**degree, ``degree`` the program's (each step is homogeneous)."""
    _require_four_qubits(psi)
    if not psi.is_exact:
        return _evaluate(program, psi.amps, operator.mul, _sum_complex)
    quads, den = psi.cleared
    value = _evaluate(program, quads.reshape(16, 4).tolist(), mul4, _sum4)
    return ExactScalar(*value, den**degree)


def dxy(psi: PureState):
    """Degree-6 invariant: 3x3 determinant of quadratic forms in the amplitudes."""
    return _invariant(_DXY, 6, psi)


def f1(psi: PureState):
    """Degree-4 semi-invariant over amplitudes 0..7."""
    return _invariant(_F1, 4, psi)


def f2(psi: PureState):
    """Degree-4 semi-invariant over amplitudes 8..15."""
    return _invariant(_F2, 4, psi)


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
