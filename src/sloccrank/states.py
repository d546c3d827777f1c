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
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .scalars import (
    ExactScalar,
    ScalarFormatError,
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
    return _from_tensor(np.moveaxis(outer, range(n), [p - 1 for p in cover]), default_labels(n))


def scale(psi: PureState, c) -> PureState:
    """Multiply every amplitude by the nonzero scalar ``c``."""
    c = _coerce_amp(c)
    if isinstance(c, ExactScalar):
        if c.is_zero():
            raise ValueError("scale factor must be nonzero")
        if psi.is_exact:
            return PureState(psi.n, tuple(a * c for a in psi.amps), psi.labels)
        c = c.to_complex()
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    psi = psi.to_float()
    return PureState(psi.n, tuple(a * c for a in psi.amps), psi.labels)


def random_exact_state(n: int, rng: random.Random, span: int = 3) -> PureState:
    """Random state with Gaussian-integer amplitudes from a small grid."""
    while True:
        amps = [
            ExactScalar(rng.randint(-span, span), rng.randint(-span, span))
            for _ in range(1 << n)
        ]
        if any(not a.is_zero() for a in amps):
            return state(n, amps)


# --- state file format -------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise StateFormatError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def key(self) -> str:
        self.skip_ws()
        if self.peek() == '"':
            return self.string()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.error("expected a key")
        return self.text[start : self.pos]

    def string(self) -> str:
        self.skip_ws()
        if self.peek() != '"':
            self.error("expected a string")
        self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != '"':
            self.pos += 1
        if self.pos >= len(self.text):
            self.error("unterminated string")
        value = self.text[start : self.pos]
        self.pos += 1
        return value

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def string_array(self) -> list[tuple[str, int]]:
        self.expect("[")
        items = []
        if self.peek() == "]":
            self.pos += 1
            return items
        while True:
            self.skip_ws()
            pos = self.pos
            items.append((self.string(), pos))
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return items
            self.error("expected ',' or ']'")


def parse_state(text: str) -> PureState:
    """Parse the state file format.

    ``{n: <int>, amps: ["...", ...], labels: [...]}`` with bare or quoted
    keys; whitespace is insignificant.  Exact scalars unless any amplitude
    literal carries a decimal point or exponent.
    """
    sc = _Scanner(text)
    sc.expect("{")
    n = None
    amp_items = None
    labels = None
    while True:
        key = sc.key()
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
    floating = any(is_float_literal(s) for s, _ in amp_items)
    amps = []
    for text_amp, pos in amp_items:
        try:
            amps.append(
                parse_float(text_amp, pos) if floating else parse_exact(text_amp, pos)
            )
        except ScalarFormatError as exc:
            raise StateFormatError(str(exc), exc.position) from exc
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
