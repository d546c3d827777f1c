"""n-qubit pure states: construction, text format, tensor products, permutations.

Index convention, used everywhere in the package: qubit 1 is the most
significant bit of the basis index, so ``amps[i]`` is the amplitude of
``|i>`` with the register read left to right; equivalently qubit p is
axis p - 1 of ``amplitude_tensor(psi)``, the one re-indexing view.
States are immutable and never normalised implicitly; the
classification is scale-invariant.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from ._kernels import P, P_ROW, quad_array, residues_mod
from .scalars import (
    ExactScalar,
    ScalarFormatError,
    common_denominator,
    is_float_literal,
    parse_exact,
    parse_float,
    render_exact,
    render_float,
)

QUBIT_CAP = 20  # dense amplitude storage: 2**20 entries max


class StateFormatError(ValueError):
    """Malformed state file; ``position`` is a character offset."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_uppercase[:n])


def _check_qubit_count(n: int) -> None:
    if not 1 <= n <= QUBIT_CAP:
        raise ValueError(f"qubit count {n} outside 1..{QUBIT_CAP}")


def _coerce_amp(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar._coerce(x)
    if isinstance(x, (complex, float)):
        return complex(x)
    raise TypeError(f"unsupported amplitude type {type(x).__name__}")


def coerce_amplitudes(values) -> list:
    """Exact scalars when every value is exact, complex floats otherwise.

    ExactScalar, int and Fraction are exact; any float or complex makes
    the whole list floating; other types raise TypeError.
    """
    coerced = [_coerce_amp(a) for a in values]
    if any(isinstance(a, complex) for a in coerced):
        coerced = [a.to_complex() if isinstance(a, ExactScalar) else a for a in coerced]
    return coerced


@dataclass(frozen=True)
class PureState:
    n: int
    amps: tuple
    labels: tuple[str, ...]

    def __post_init__(self):
        _check_qubit_count(self.n)
        if len(self.amps) != 1 << self.n:
            raise ValueError(
                f"amplitude vector has length {len(self.amps)}, expected {1 << self.n}"
            )
        if len(self.labels) != self.n:
            raise ValueError("label count does not match qubit count")
        if len(set(self.labels)) != self.n or not all(
            isinstance(ch, str) and len(ch) == 1 for ch in self.labels
        ):
            raise ValueError(f"labels must be distinct single characters, got {self.labels}")
        kinds = set(map(type, self.amps))
        if ExactScalar in kinds and len(kinds) > 1:
            raise ValueError("amplitudes mix exact and floating scalars")
        if not any(self.amps):
            raise ValueError("zero vector is not a state")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.amps[0], ExactScalar)

    @property
    def kind(self) -> str:
        return "exact" if self.is_exact else "float"

    @cached_property
    def cleared(self) -> tuple[np.ndarray, int]:
        """``(quads, den)`` of an exact state, computed once and cached.

        ``quads`` holds the amplitudes as integer quadruples over the one
        shared denominator ``den``, one (2, ..., 2, 4) ``quad_array`` with
        qubit p on axis p - 1, as ``amplitude_tensor``, so a split's
        row-major cells are one transpose of it.  The cache is not a field,
        so it is invisible to ``==``, ``hash`` and ``repr``.
        """
        quads, den = common_denominator(self.amps)
        return quad_array(quads).reshape((2,) * self.n + (4,)), den

    @cached_property
    def residues(self) -> np.ndarray:
        """``cleared``'s quadruples in F_P, a 2 x ... x 2 int64 array computed on
        first use, by the lone rank route only.  A nonzero quadruple that
        vanishes mod P is stored as P, so the nonzero cells are the support."""
        quads = self.cleared[0]
        res = residues_mod(quads, P_ROW)[0]
        res[(res == 0) & quads.any(axis=-1)] = P
        return res

    @cached_property
    def split_ranks(self) -> dict[tuple[int, ...], int]:
        """Exact ranks already computed, keyed by ``Bipartition.canonical_key``.

        ``coeffmatrix`` fills it for exact states only: a floating rank
        depends on its tolerance.  Like ``cleared`` it is not a field.
        """
        return {}

    def to_float(self) -> PureState:
        if not self.is_exact:
            return self
        return PureState(self.n, tuple(a.to_complex() for a in self.amps), self.labels)

    def position_of(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"no qubit labelled {label!r} (labels: {''.join(self.labels)})")
        return self.labels.index(label) + 1

    def __repr__(self):
        support = sum(1 for a in self.amps if a)
        return f"PureState(n={self.n}, kind={self.kind}, support={support})"


def state(n: int, amps, labels=None) -> PureState:
    """Build a PureState, deciding the scalar kind from the inputs.

    Exact when every amplitude is ExactScalar/int/Fraction, floating
    otherwise (any float or complex converts the whole vector).
    """
    _check_qubit_count(n)
    coerced = coerce_amplitudes(amps)
    if labels is None:
        labels = default_labels(n)
    return PureState(n, tuple(coerced), tuple(labels))


def basis_state(n: int, index: int) -> PureState:
    amps = [ExactScalar(0)] * (1 << n)
    amps[index] = ExactScalar(1)
    return state(n, amps)


@dataclass(frozen=True)
class QubitPermutation:
    """Bijection of qubit positions 1..n; ``image[p-1]`` is where p goes."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(1, self.n + 1)):
            raise ValueError("image is not a bijection on 1..n")

    @classmethod
    def identity(cls, n: int) -> QubitPermutation:
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> QubitPermutation:
        image = list(range(1, n + 1))
        image[i - 1], image[j - 1] = j, i
        return cls(n, tuple(image))

    def compose(self, other: QubitPermutation) -> QubitPermutation:
        """self after other: apply ``other`` first, then ``self``."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return QubitPermutation(
            self.n, tuple(self.image[other.image[p] - 1] for p in range(self.n))
        )

    def inverse(self) -> QubitPermutation:
        inv = [0] * self.n
        for p in range(1, self.n + 1):
            inv[self.image[p - 1] - 1] = p
        return QubitPermutation(self.n, tuple(inv))


def amplitude_tensor(psi: PureState) -> np.ndarray:
    """The amplitudes as a 2 x ... x 2 array with qubit p on axis p - 1.

    Exact states give an object array of their ExactScalars, so numpy's
    transposes, outer and matrix products use only their exact ``*``/``+``.
    """
    dtype = object if psi.is_exact else complex
    return np.fromiter(psi.amps, dtype=dtype, count=1 << psi.n).reshape((2,) * psi.n)


def _from_tensor(amps: np.ndarray, labels) -> PureState:
    return PureState(amps.ndim, tuple(amps.ravel().tolist()), labels)


def permute_qubits(psi: PureState, perm: QubitPermutation) -> PureState:
    """Amplitude at the permuted index equals the original amplitude."""
    if perm.n != psi.n:
        raise ValueError("permutation size does not match state")
    moved = np.moveaxis(amplitude_tensor(psi), range(psi.n), [p - 1 for p in perm.image])
    return _from_tensor(moved, psi.labels)


def tensor(left: PureState, right: PureState, left_positions=None) -> PureState:
    """Tensor product with ``left``'s qubits routed to ``left_positions``.

    The remaining register positions take ``right``'s qubits in order.
    """
    n = left.n + right.n
    if n > QUBIT_CAP:
        raise ValueError(f"combined state exceeds {QUBIT_CAP} qubits")
    if left_positions is None:
        left_positions = tuple(range(1, left.n + 1))
    left_positions = tuple(left_positions)
    if len(left_positions) != left.n:
        raise ValueError("placement size does not match left factor")
    if len(set(left_positions)) != left.n or not all(1 <= p <= n for p in left_positions):
        raise ValueError("placement must be injective into 1..n")
    right_positions = tuple(p for p in range(1, n + 1) if p not in left_positions)
    return product_state([(left, left_positions), (right, right_positions)], n)


def product_state(factors, n: int) -> PureState:
    """Assemble a state from (factor, positions) pairs covering 1..n."""
    cover = []
    for f, pos in factors:
        if len(pos) != f.n:
            raise ValueError("placement size does not match factor")
        cover.extend(pos)
    if sorted(cover) != list(range(1, n + 1)):
        raise ValueError("placements must partition 1..n")
    exact = all(f.is_exact for f, _ in factors)
    tensors = [amplitude_tensor(f if exact else f.to_float()) for f, _ in factors]
    outer = reduce(np.multiply.outer, tensors)
    if not exact and not outer.any():
        raise ValueError("amplitude products of the nonzero factors underflow to zero")
    return _from_tensor(np.moveaxis(outer, range(n), [p - 1 for p in cover]), default_labels(n))


def scale(psi: PureState, c) -> PureState:
    """Multiply every amplitude by the nonzero scalar ``c``."""
    *amps, c = coerce_amplitudes((*psi.amps, c))
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    return PureState(psi.n, tuple(a * c for a in amps), psi.labels)


AMP_SPAN = 3


def random_exact_state(n: int, rng: random.Random) -> PureState:
    """Random state with Gaussian-integer amplitudes, each real and imaginary
    part drawn from [-AMP_SPAN, AMP_SPAN]."""
    while True:
        amps = [
            ExactScalar(rng.randint(-AMP_SPAN, AMP_SPAN), rng.randint(-AMP_SPAN, AMP_SPAN))
            for _ in range(1 << n)
        ]
        if any(not a.is_zero() for a in amps):
            return state(n, amps)


# --- state file format -------------------------------------------------------


_WS = re.compile(r"\s*")
_KEY = re.compile(r"\w+")
_INTEGER = re.compile(r"-?\d+")  # \d: the decimal digits int() reads
_STRING = re.compile(r'"([^"]*)"')
# one array item: the string, then the ',' or ']' after it if there is one
_ARRAY_ITEM = re.compile(rf"\s*{_STRING.pattern}\s*([,\]]?)")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise StateFormatError(message, self.pos)

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def peek(self):
        self.skip_ws()
        return self.text[self.pos : self.pos + 1]

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def key(self) -> str:
        if self.peek() == '"':
            return self.string()
        m = _KEY.match(self.text, self.pos)
        if m is None:
            self.error("expected a key")
        self.pos = m.end()
        return m[0]

    def string(self) -> str:
        if self.peek() != '"':
            self.error("expected a string")
        m = _STRING.match(self.text, self.pos)
        if m is None:
            self.pos = len(self.text)
            self.error("unterminated string")
        self.pos = m.end()
        return m[1]

    def integer(self) -> int:
        self.skip_ws()
        m = _INTEGER.match(self.text, self.pos)
        if m is None:
            self.error("expected an integer")
        try:
            value = int(m[0])
        except ValueError:  # beyond Python's int-string limit
            self.error("integer literal too long")
        self.pos = m.end()
        return value

    def string_array(self) -> list[tuple[str, int]]:
        """A ``[...]`` array of strings as ``(value, position of its first character)`` pairs."""
        self.expect("[")
        items = []
        if self.peek() == "]":
            self.pos += 1
            return items
        while True:
            m = _ARRAY_ITEM.match(self.text, self.pos)
            if m is None:
                self.string()  # raises: no opening quote or no closing one
            items.append((m[1], m.start(1)))
            self.pos = m.end()
            if m[2] == "]":
                return items
            if not m[2]:
                self.error("expected ',' or ']'")


def parse_state(text: str) -> PureState:
    """Parse the state file format.

    ``{n: <int>, amps: ["...", ...], labels: [...]}`` with bare or quoted
    keys; whitespace is insignificant; a field given twice is an error.
    Exact scalars unless any amplitude literal carries a decimal point or
    exponent.
    """
    sc = _Scanner(text)
    sc.expect("{")
    n = None
    amp_items = None
    labels = None
    seen = set()
    while True:
        sc.skip_ws()
        at = sc.pos
        key = sc.key()
        if key in seen:
            raise StateFormatError(f"duplicate field {key!r}", at)
        seen.add(key)
        sc.expect(":")
        if key == "n":
            n = sc.integer()
        elif key == "amps":
            amp_items = sc.string_array()
        elif key == "labels":
            labels = [s for s, _ in sc.string_array()]
        else:
            sc.error(f"unknown field {key!r}")
        ch = sc.peek()
        if ch == ",":
            sc.pos += 1
            continue
        if ch == "}":
            sc.pos += 1
            break
        sc.error("expected ',' or '}'")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing characters after state")
    if n is None:
        raise StateFormatError("missing field 'n'", 0)
    if amp_items is None:
        raise StateFormatError("missing field 'amps'", 0)
    if not 1 <= n <= QUBIT_CAP:
        raise StateFormatError(f"qubit count {n} outside 1..{QUBIT_CAP}", 0)
    if len(amp_items) != 1 << n:
        raise StateFormatError(
            f"expected {1 << n} amplitudes for n={n}, found {len(amp_items)}", 0
        )
    first = {}  # each distinct literal at its first position, in file order
    for text_amp, pos in amp_items:
        first.setdefault(text_amp, pos)
    parse = parse_float if any(map(is_float_literal, first)) else parse_exact
    values = {}
    for text_amp, pos in first.items():
        try:
            values[text_amp] = parse(text_amp, pos)
        except ScalarFormatError as exc:
            raise StateFormatError(str(exc), exc.position) from exc
    amps = [values[text_amp] for text_amp, _ in amp_items]
    if labels is None:
        labels = default_labels(n)
    elif len(labels) != n:
        raise StateFormatError("label count does not match qubit count", 0)
    try:
        return PureState(n, tuple(amps), tuple(labels))
    except ValueError as exc:
        raise StateFormatError(str(exc), 0) from exc


def render_state(psi: PureState) -> str:
    """Canonical text rendering; exact round trip for exact states."""
    if psi.is_exact:
        amp_strs = [render_exact(a) for a in psi.amps]
    else:
        amp_strs = [render_float(a) for a in psi.amps]
    body = ", ".join(f'"{s}"' for s in amp_strs)
    out = f"{{n: {psi.n}, amps: [{body}]"
    if psi.labels != default_labels(psi.n):
        out += ", labels: [" + ", ".join(f'"{s}"' for s in psi.labels) + "]"
    return out + "}"
