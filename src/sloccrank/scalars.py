"""Exact arithmetic over the number field Q(i, sqrt2).

Every amplitude of the built-in four-qubit family templates lies in this
field once the parameters are rational, so it is the exact scalar domain
of the whole package.  A scalar is ``p + q*i + (r + s*i)*sqrt2`` with
rational components; internally the four components are kept as integer
numerators over one common positive denominator, which makes products
cheap (single gcd pass instead of one per component) and feeds the
elimination kernels directly.

Text grammar (used by state files and the family registry): a scalar is
a sum of signed terms, each ``RAT``, ``RAT*i``, ``RAT*r2`` or
``RAT*i*r2`` with ``RAT := INT | INT/POSINT``; whitespace is
insignificant.  A literal containing a decimal point or exponent is a
floating literal instead, and its value must be finite.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

from ._kernels import adjoint_and_norm, mul4

Rational = Fraction  # normalised, denominator > 0, arbitrary precision

SQRT2_FLOAT = math.sqrt(2.0)


class ScalarFormatError(ValueError):
    """Malformed scalar literal; ``position`` is the offset in the text."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


def _normalise(a: int, b: int, c: int, d: int, den: int):
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    g = math.gcd(g, den)
    if g > 1:
        a //= g
        b //= g
        c //= g
        d //= g
        den //= g
    return a, b, c, d, den


class ExactScalar:
    """Element of Q(i, sqrt2): ``(a + b*i + c*sqrt2 + d*i*sqrt2) / den``."""

    __slots__ = ("a", "b", "c", "d", "den")

    def __init__(self, a=0, b=0, c=0, d=0, den=1, _normalised=False):
        if not _normalised:
            a, b, c, d, den = _normalise(int(a), int(b), int(c), int(d), int(den))
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.den = den

    @classmethod
    def from_components(cls, p, q=0, r=0, s=0) -> ExactScalar:
        """Build from the rational components p + q*i + (r + s*i)*sqrt2."""
        p, q, r, s = Fraction(p), Fraction(q), Fraction(r), Fraction(s)
        den = math.lcm(p.denominator, q.denominator, r.denominator, s.denominator)
        return cls(
            p.numerator * (den // p.denominator),
            q.numerator * (den // q.denominator),
            r.numerator * (den // r.denominator),
            s.numerator * (den // s.denominator),
            den,
        )

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, int):
            return cls(x)
        if isinstance(x, Fraction):
            return cls(x.numerator, 0, 0, 0, x.denominator)
        return None

    # rational component views
    @property
    def p(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def q(self) -> Fraction:
        return Fraction(self.b, self.den)

    @property
    def r(self) -> Fraction:
        return Fraction(self.c, self.den)

    @property
    def s(self) -> Fraction:
        return Fraction(self.d, self.den)

    @property
    def quad(self):
        """Integer numerator quadruple (over ``den``) for the kernels."""
        return (self.a, self.b, self.c, self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
            and self.den == other.den
        )

    def __hash__(self):
        if not (self.b or self.c or self.d):
            # equal to an int or Fraction, so hash like one
            return hash(self.a if self.den == 1 else Fraction(self.a, self.den))
        return hash((self.a, self.b, self.c, self.d, self.den))

    def __neg__(self) -> ExactScalar:
        return ExactScalar(-self.a, -self.b, -self.c, -self.d, self.den, _normalised=True)

    def __add__(self, other) -> ExactScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.den, other.den
        return ExactScalar(
            self.a * d2 + other.a * d1,
            self.b * d2 + other.b * d1,
            self.c * d2 + other.c * d1,
            self.d * d2 + other.d * d1,
            d1 * d2,
        )

    __radd__ = __add__

    def __sub__(self, other) -> ExactScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> ExactScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> ExactScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = mul4((self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d))
        return ExactScalar(a, b, c, d, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> ExactScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> ExactScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def conjugate(self) -> ExactScalar:
        """Complex conjugate: negates the i and i*sqrt2 components."""
        return ExactScalar(self.a, -self.b, self.c, -self.d, self.den, _normalised=True)

    def inverse(self) -> ExactScalar:
        """Multiplicative inverse; every nonzero element has one."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        adj, norm = adjoint_and_norm(self.quad)
        den = self.den
        return ExactScalar(den * adj[0], den * adj[1], den * adj[2], den * adj[3], norm)

    def to_complex(self) -> complex:
        return complex(
            (self.a + self.c * SQRT2_FLOAT) / self.den,
            (self.b + self.d * SQRT2_FLOAT) / self.den,
        )

    __complex__ = to_complex

    def __str__(self) -> str:
        return render_exact(self)

    def __repr__(self) -> str:
        return f"ExactScalar({str(self)!r})"


I_OVER_SQRT2 = ExactScalar(0, 0, 0, 1, 2)  # i/sqrt2 == (1/2) * i * sqrt2


def common_denominator(values) -> tuple[list[tuple[int, int, int, int]], int]:
    """Rewrite ExactScalars over one shared denominator.

    Returns the integer quadruples and the denominator; used to feed the
    elimination kernels.
    """
    den = 1
    for v in values:
        den = math.lcm(den, v.den)
    quads = []
    for v in values:
        m = den // v.den
        quads.append((v.a * m, v.b * m, v.c * m, v.d * m))
    return quads, den


# --- text grammar -----------------------------------------------------------

_FLOAT_MARK = re.compile(r"[.eE]")

_NUMBER = {
    False: r"\d+(?:/\d+)?",
    True: r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|\d+/\d+",
}
# NUMBER with optional *i and *r2 units, or a bare unit
_TERM = {
    floating: re.compile(rf"({number})((?:\*i)?(?:\*r2)?)|(i(?:\*r2)?|r2)")
    for floating, number in _NUMBER.items()
}


def is_float_literal(text: str) -> bool:
    """Decimal point or exponent marks a floating literal."""
    return bool(_FLOAT_MARK.search(text))


def signed_terms(text: str, base_pos: int = 0, floating: bool = False):
    """Split scalar text into ``(sign, body, position)`` terms.

    Whitespace is insignificant.  A ``+`` or ``-`` starts a new term
    unless it follows ``+-*/`` or, in floating text only, an exponent
    marker ``e``/``E``; each term carries at most one leading sign.
    """
    compact = []
    positions = []
    for idx, ch in enumerate(text):
        if not ch.isspace():
            compact.append(ch)
            positions.append(base_pos + idx)
    if not compact:
        raise ScalarFormatError("empty scalar literal", base_pos)
    glue = "eE+-*/" if floating else "+-*/"
    starts = [0]
    starts += [k for k in range(1, len(compact)) if compact[k] in "+-" and compact[k - 1] not in glue]
    for start, end in zip(starts, starts[1:] + [len(compact)]):
        sign = -1 if compact[start] == "-" else 1
        body = "".join(compact[start + (compact[start] in "+-") : end])
        if not body:
            raise ScalarFormatError("dangling sign in scalar literal", positions[start])
        yield sign, body, positions[start]


def _scalar_terms(text: str, base_pos: int, floating: bool):
    """Yield ``(sign, number, slot, position)`` for each term of a scalar.

    ``number`` is the coefficient text (None for a bare unit) and
    ``slot`` indexes the basis ``(1, i, r2, i*r2)``.
    """
    term = _TERM[floating]
    for sign, body, pos in signed_terms(text, base_pos, floating):
        m = term.fullmatch(body)
        if not m:
            raise ScalarFormatError(f"bad scalar term {body!r}", pos)
        number, unit, bare = m.groups()
        unit = bare or unit
        yield sign, number, ("i" in unit) + 2 * ("r2" in unit), pos


def parse_exact(text: str, base_pos: int = 0) -> ExactScalar:
    """Parse an exact scalar literal; raises ScalarFormatError otherwise."""
    comps = [0, 0, 0, 0]
    for sign, number, slot, pos in _scalar_terms(text, base_pos, False):
        num, _, den = (number or "1").partition("/")
        den = int(den or 1)
        if den == 0:
            raise ScalarFormatError("zero denominator", pos)
        comps[slot] += Fraction(sign * int(num), den)
    return ExactScalar.from_components(*comps)


def parse_float(text: str, base_pos: int = 0) -> complex:
    """Parse a scalar literal to a finite complex float (`r2` -> 1.4142...)."""
    total = 0j
    for sign, number, slot, pos in _scalar_terms(text, base_pos, True):
        if number is None:
            value = 1.0
        elif "/" in number:
            num, den = number.split("/")
            if float(den) == 0:
                raise ScalarFormatError("zero denominator", pos)
            value = float(num) / float(den)
        else:
            value = float(number)
        value *= sign
        if slot & 2:
            value *= SQRT2_FLOAT
        total += complex(0.0, value) if slot & 1 else complex(value, 0.0)
    if not cmath.isfinite(total):
        raise ScalarFormatError(f"non-finite scalar literal {text.strip()!r}", base_pos)
    return total


def _render_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def render_exact(x: ExactScalar) -> str:
    """Canonical rendering: terms in (1, i, r2, i*r2) order, zeros omitted."""
    parts = []
    for comp, suffix in ((x.p, ""), (x.q, "*i"), (x.r, "*r2"), (x.s, "*i*r2")):
        if comp == 0:
            continue
        parts.append((comp, suffix))
    if not parts:
        return "0"
    out = []
    for k, (comp, suffix) in enumerate(parts):
        mag = _render_rat(abs(comp)) + suffix
        if k == 0:
            out.append(("-" if comp < 0 else "") + mag)
        else:
            out.append((" - " if comp < 0 else " + ") + mag)
    return "".join(out)


def render_float(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    if z.real == 0:
        return f"{z.imag!r}*i"
    op = " - " if z.imag < 0 else " + "
    return f"{z.real!r}{op}{abs(z.imag)!r}*i"
