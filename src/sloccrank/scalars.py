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
insignificant, even inside a number (``"1 2"`` is 12).  A literal
containing a decimal point or exponent is a floating literal instead,
and its value must be finite.  One scanner, ``TermScanner``, reads all
of it: it strips the whitespace once and matches each signed term with
one anchored regex; exact terms are summed as integer numerators over a
running lcm denominator.  Only on failure is the error position found,
by mapping the offset in the stripped text back to the original.
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
    if den == 1:  # gcd(a, b, c, d, 1) == 1: already normal
        return a, b, c, d, den
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = math.gcd(a, b, c, d, den)
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
        den = d1 * d2
        return ExactScalar(
            self.a * d2 + other.a * d1,
            self.b * d2 + other.b * d1,
            self.c * d2 + other.c * d1,
            self.d * d2 + other.d * d1,
            den,
            _normalised=den == 1,
        )

    __radd__ = __add__

    def __sub__(self, other) -> ExactScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.den, other.den
        den = d1 * d2
        return ExactScalar(
            self.a * d2 - other.a * d1,
            self.b * d2 - other.b * d1,
            self.c * d2 - other.c * d1,
            self.d * d2 - other.d * d1,
            den,
            _normalised=den == 1,
        )

    def __rsub__(self, other) -> ExactScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> ExactScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = mul4((self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d))
        den = self.den * other.den
        return ExactScalar(a, b, c, d, den, _normalised=den == 1)

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


def is_float_literal(text: str) -> bool:
    """Decimal point or exponent marks a floating literal."""
    return bool(_FLOAT_MARK.search(text))


class TermScanner:
    """Splits scalar text into signed terms, one anchored match per term.

    A ``+`` or ``-`` starts a new term unless it follows a character of
    ``glue``, so a term's extent runs to the next such sign.  ``body`` is
    the regex of a term after its sign and must match its whole extent;
    None accepts any non-empty extent, as group 2.
    """

    def __init__(self, body: str | None, glue: str):
        char = rf"(?:[^+\-]|(?<=[{re.escape(glue)}])[+-])"
        self._extent = rf"([+-]?)({char}*)"  # compiled on the first error only
        self._term = re.compile(rf"([+-]?)(?:{body or f'({char}+)'})(?=[+-]|\Z)")

    def terms(self, text: str, base_pos: int = 0):
        """Yield each term's match in the whitespace-free text; group 1 is the sign."""
        compact = "".join(text.split())
        if not compact:
            raise ScalarFormatError("empty scalar literal", base_pos)
        pos = 0
        while pos < len(compact):
            m = self._term.match(compact, pos)
            if m is None:
                body = re.compile(self._extent).match(compact, pos)[2]
                message = f"bad scalar term {body!r}" if body else "dangling sign in scalar literal"
                raise _error(message, text, pos, base_pos)
            yield m
            pos = m.end()


def _error(message: str, text: str, offset: int, base_pos: int) -> ScalarFormatError:
    """The error at the ``offset``-th non-whitespace character of ``text``."""
    kept = [idx for idx, ch in enumerate(text) if not ch.isspace()]
    return ScalarFormatError(message, base_pos + kept[offset])


# NUMBER (group 2) with optional *i and *r2 (group 3), or a bare unit (group 4)
_UNITS = r"((?:\*i)?(?:\*r2)?)|(i(?:\*r2)?|r2)"
RATIONAL = r"\d+(?:/\d+)?"
EXACT = TermScanner(rf"({RATIONAL}){_UNITS}", "+-*/")
FLOATING = TermScanner(
    rf"((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|\d+/\d+){_UNITS}", "eE+-*/"
)
_SLOT = {"": 0, "*i": 1, "*r2": 2, "*i*r2": 3, "i": 1, "r2": 2, "i*r2": 3}  # basis 1, i, r2, i*r2


def parse_exact(text: str, base_pos: int = 0) -> ExactScalar:
    """Parse an exact scalar literal; raises ScalarFormatError otherwise."""
    comps = [0, 0, 0, 0]
    den = 1  # running lcm of the term denominators
    for m in EXACT.terms(text, base_pos):
        num, _, q = (m[2] or "1").partition("/")
        try:
            num, q = int(num), int(q or 1)
        except ValueError:  # beyond Python's int-string limit
            raise _error("integer literal too long", text, m.start(2), base_pos) from None
        if q == 0:
            raise _error("zero denominator", text, m.start(), base_pos)
        if den % q:
            lcm = math.lcm(den, q)
            comps = [x * (lcm // den) for x in comps]
            den = lcm
        num *= den // q
        comps[_SLOT[m[4] or m[3]]] += -num if m[1] == "-" else num
    return ExactScalar(*comps, den, _normalised=den == 1)


def parse_float(text: str, base_pos: int = 0) -> complex:
    """Parse a scalar literal to a finite complex float (`r2` -> 1.4142...)."""
    total = 0j
    for m in FLOATING.terms(text, base_pos):
        num, _, den = (m[2] or "1").partition("/")
        if den and float(den) == 0:
            raise _error("zero denominator", text, m.start(), base_pos)
        value = float(num) / float(den) if den else float(num)
        if m[1] == "-":
            value = -value
        slot = _SLOT[m[4] or m[3]]
        if slot & 2:
            value *= SQRT2_FLOAT
        total += complex(0.0, value) if slot & 1 else complex(value, 0.0)
    if not cmath.isfinite(total):
        raise ScalarFormatError(f"non-finite scalar literal {text.strip()!r}", base_pos)
    return total


def render_exact(x: ExactScalar) -> str:
    """Canonical rendering: terms in (1, i, r2, i*r2) order, zeros omitted."""
    out = []
    for num, suffix in zip(x.quad, ("", "*i", "*r2", "*i*r2")):
        if num:
            g = math.gcd(num, x.den)
            mag = f"{abs(num) // g}" + (f"/{x.den // g}" if x.den > g else "") + suffix
            lead = (" - " if num < 0 else " + ") if out else ("-" if num < 0 else "")
            out.append(lead + mag)
    return "".join(out) or "0"


def render_float(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    if z.real == 0:
        return f"{z.imag!r}*i"
    op = " - " if z.imag < 0 else " + "
    return f"{z.real!r}{op}{abs(z.imag)!r}*i"
