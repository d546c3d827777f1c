"""Four-qubit family templates, subfamily rule tables, and the registry.

A family template is a named list of sixteen amplitude expressions,
affine in the parameters with exact coefficients.  Rule tables attach a
predicate over the parameters to each reachable rank triple
(r_AB, r_AC, r_AD); predicates are restricted to the forms
``x=0, x!=0, x=±y, x!=±y, x=±Ny, x!=±Ny`` joined by ``&`` and ``|``
("±" means "for some sign" on equalities and "for all signs" on
inequalities).  Four templates ship built in (G_abcd, L_abc2, L_ab3,
L_ab3'); six more families carry rule rows only and accept a registered
template later.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources

import numpy as np

from ._kernels import echelon, quad_array, stacked_rank
from .coeffmatrix import split_rank
from .scalars import (
    RATIONAL,
    ExactScalar,
    ScalarFormatError,
    TermScanner,
    common_denominator,
    parse_exact,
)
from .states import PureState, QubitPermutation, permute_qubits, state


class FamilyError(ValueError):
    pass


class ClassificationError(RuntimeError):
    """Predicate gap or rule/rank disagreement; a table or library defect."""


class SamplingError(RuntimeError):
    pass


# --- affine amplitude expressions -------------------------------------------


@dataclass(frozen=True)
class AffineExpr:
    """``const + sum(coeffs[sym] * sym)`` with exact coefficients."""

    const: ExactScalar
    coeffs: tuple[tuple[str, ExactScalar], ...]

    def evaluate(self, bindings: dict[str, ExactScalar]) -> ExactScalar:
        out = self.const
        for sym, coeff in self.coeffs:
            out = out + coeff * bindings[sym]
        return out

    def symbols(self) -> set[str]:
        return {sym for sym, _ in self.coeffs}

    def substitute(self, fixed: dict[str, ExactScalar]) -> AffineExpr:
        const = self.const
        rest = []
        for sym, coeff in self.coeffs:
            if sym in fixed:
                const = const + coeff * fixed[sym]
            else:
                rest.append((sym, coeff))
        return AffineExpr(const, tuple(rest))


_RESERVED = {"i", "r2"}
_RATIONAL = re.compile(RATIONAL)
_AFFINE = TermScanner(None, "+-*/")  # any term, split as exact scalar text splits


def parse_affine(text: str, symbols) -> AffineExpr:
    """Parse ``COEFF`` / ``COEFF*SYMBOL`` terms (state-grammar coefficients).

    A term's last ``*``-factor is its symbol unless it is ``i``, ``r2``
    or a rational; the rest is the coefficient, parsed by ``parse_exact``.
    """
    symbols = set(symbols)
    const = ExactScalar(0)
    coeffs: dict[str, ExactScalar] = {}
    try:
        for m in _AFFINE.terms(text):
            body = m[2]
            head, star, sym = body.rpartition("*")
            if sym in _RESERVED or _RATIONAL.fullmatch(sym):
                coeff, sym = parse_exact(body), None
            elif sym in symbols:
                coeff = parse_exact(head) if star else ExactScalar(1)
            else:
                raise FamilyError(f"unknown parameter {sym!r} in {text!r}")
            if m[1] == "-":
                coeff = -coeff
            if sym is None:
                const = const + coeff
            else:
                coeffs[sym] = coeffs.get(sym, ExactScalar(0)) + coeff
    except ScalarFormatError as exc:
        raise FamilyError(f"bad amplitude expression {text!r}: {exc}") from exc
    ordered = tuple((s, coeffs[s]) for s in sorted(coeffs) if not coeffs[s].is_zero())
    return AffineExpr(const, ordered)


# --- predicate language -------------------------------------------------------

_ATOM_RE = re.compile(
    r"^(?P<lhs>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?P<op>!?=)"
    r"(?P<rhs>0|(?:±|\+-|-)?\d*\*?[A-Za-z_][A-Za-z0-9_]*)$"
)
_RHS_RE = re.compile(
    r"^(?P<sign>±|\+-|-)?(?P<coef>\d+)?\*?(?P<sym>[A-Za-z_][A-Za-z0-9_]*)$"
)


@dataclass(frozen=True)
class Atom:
    lhs: str
    equal: bool  # True for "=", False for "!="
    rhs_sym: str | None  # None means the literal 0
    coef: Fraction = Fraction(1)
    plus_minus: bool = False

    def holds(self, bindings) -> bool:
        lhs = bindings[self.lhs]
        if self.rhs_sym is None:
            hit = lhs.is_zero()
        else:
            rhs = bindings[self.rhs_sym] * self.coef
            hit = lhs == rhs or (self.plus_minus and lhs == -rhs)
        return hit == self.equal

    def render(self) -> str:
        op = "=" if self.equal else "!="
        if self.rhs_sym is None:
            return f"{self.lhs}{op}0"
        sign = "±" if self.plus_minus else ("-" if self.coef < 0 else "")
        coef = abs(self.coef)
        coef_s = "" if coef == 1 else str(coef)
        return f"{self.lhs}{op}{sign}{coef_s}{self.rhs_sym}"


@dataclass(frozen=True)
class Predicate:
    """Disjunction of conjunctions of atoms; empty means "always"."""

    conjunctions: tuple[tuple[Atom, ...], ...]

    def holds(self, bindings) -> bool:
        if not self.conjunctions:
            return True
        return any(all(a.holds(bindings) for a in conj) for conj in self.conjunctions)

    def mask(self, symbols, nums, dens) -> np.ndarray:
        """``holds`` on T rational tuples at once, as a boolean array.

        ``nums`` and ``dens`` are (T, len(symbols)) int64 arrays: the
        tuples' numerators and positive denominators, in ``symbols``
        order.  With x = xn/xd, y = yn/yd and N = n/d, the atom x = N*y
        holds exactly when xn * yd * d == n * yn * xd.  Every factor must
        be below ``MASK_FACTOR_LIMIT``, as ``fits_int64`` checks, so that
        the products fit int64.
        """
        if not self.conjunctions:
            return np.ones(len(nums), dtype=bool)
        atoms = {a for conj in self.conjunctions for a in conj}
        cols = {s: k for k, s in enumerate(symbols)}
        tests = {}  # x = 0 or x = ±N*y, shared by the atom and its negation
        masks = {}
        for a in atoms:
            key = (a.lhs, a.rhs_sym, a.coef, a.plus_minus)
            if key not in tests:
                xn, xd = nums[:, cols[a.lhs]], dens[:, cols[a.lhs]]
                if a.rhs_sym is None:
                    tests[key] = xn == 0
                else:
                    yn, yd = nums[:, cols[a.rhs_sym]], dens[:, cols[a.rhs_sym]]
                    left = xn * yd * a.coef.denominator
                    right = yn * xd * a.coef.numerator
                    hit = left == right
                    if a.plus_minus:
                        hit |= left == -right
                    tests[key] = hit
            masks[a] = tests[key] if a.equal else ~tests[key]
        out = np.zeros(len(nums), dtype=bool)
        for conj in self.conjunctions:
            out |= np.logical_and.reduce([masks[a] for a in conj])
        return out

    def symbols(self) -> set[str]:
        out = set()
        for conj in self.conjunctions:
            for a in conj:
                out.add(a.lhs)
                if a.rhs_sym:
                    out.add(a.rhs_sym)
        return out

    def conjoin(self, other: Predicate) -> Predicate:
        if not self.conjunctions:
            return other
        if not other.conjunctions:
            return self
        return Predicate(
            tuple(
                tuple(c1) + tuple(c2)
                for c1 in self.conjunctions
                for c2 in other.conjunctions
            )
        )

    def render(self) -> str:
        return " | ".join(
            " & ".join(a.render() for a in conj) for conj in self.conjunctions
        )


def parse_atom(text: str) -> Atom:
    compact = "".join(text.split())
    m = _ATOM_RE.match(compact)
    if not m:
        raise FamilyError(f"bad predicate atom {text!r}")
    lhs = m.group("lhs")
    equal = m.group("op") == "="
    rhs = m.group("rhs")
    if rhs == "0":
        return Atom(lhs, equal, None)
    rm = _RHS_RE.match(rhs)
    sign = rm.group("sign")
    coef = Fraction(int(rm.group("coef") or 1))
    plus_minus = sign in ("±", "+-")
    if sign == "-":
        coef = -coef
    return Atom(lhs, equal, rm.group("sym"), coef, plus_minus)


def parse_predicate(text: str) -> Predicate:
    if not text.strip():
        return Predicate(())
    conjunctions = []
    for clause in text.split("|"):
        atoms = tuple(parse_atom(part) for part in clause.split("&"))
        conjunctions.append(atoms)
    return Predicate(tuple(conjunctions))


# --- templates, rules, registry ----------------------------------------------


@dataclass(frozen=True)
class FamilyTemplate:
    name: str
    params: tuple[str, ...]
    amps: tuple[AffineExpr, ...]

    def __post_init__(self):
        if len(self.amps) != 16:
            raise FamilyError("a template needs exactly 16 amplitude expressions")
        if _RESERVED & set(self.params):
            raise FamilyError("parameter names 'i' and 'r2' are reserved")
        used = set().union(*(e.symbols() for e in self.amps)) if self.amps else set()
        if not used <= set(self.params):
            raise FamilyError("amplitude expressions use undeclared parameters")

    def support(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, e in enumerate(self.amps)
            if not e.const.is_zero() or e.coeffs
        )

    @cached_property
    def integer_form(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(const, coeffs)``: the template as int64 quadruple arrays.

        Over one common denominator, amplitude k at parameters v is
        ``const[k] + sum_j v_j * coeffs[j, k]``; ``const`` is (16, 4) and
        ``coeffs`` (len(params), 16, 4).  The dropped denominator scales
        the state, which changes no rank.  None when a component does not
        fit int64.
        """
        zero = ExactScalar(0)
        by_symbol = [dict(e.coeffs) for e in self.amps]
        values = [e.const for e in self.amps]
        values += [terms.get(s, zero) for s in self.params for terms in by_symbol]
        form = quad_array(common_denominator(values)[0]).reshape(1 + len(self.params), 16, 4)
        return (form[0], form[1:]) if form.dtype == np.int64 else None


@dataclass(frozen=True)
class RankTriple:
    r_ab: int
    r_ac: int
    r_ad: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.r_ab, self.r_ac, self.r_ad)

    def __str__(self):
        return f"{self.r_ab}{self.r_ac}{self.r_ad}"


@dataclass(frozen=True)
class SubfamilyRule:
    family: str
    triple: RankTriple
    predicate: Predicate | None  # None marks an unreachable (empty) row
    symbols: tuple[str, ...]
    biseparable: str | None = None  # expected partition label when biseparable
    note: str = ""

    @property
    def empty(self) -> bool:
        return self.predicate is None


@dataclass
class FamilyEntry:
    name: str
    params: tuple[str, ...]
    template: FamilyTemplate | None
    rules: list[SubfamilyRule] = field(default_factory=list)
    split_rules: dict[str, list[Predicate]] | None = None

    def __post_init__(self):
        owner = f"family {self.name!r}"
        if len(set(self.params)) != len(self.params):
            raise FamilyError(f"{owner}: parameter names {self.params} repeat")
        predicates = [r.predicate for r in self.rules if r.predicate is not None]
        for preds in (self.split_rules or {}).values():
            predicates.extend(preds)
        for pred in predicates:
            unknown = pred.symbols() - set(self.params)
            if unknown:
                raise FamilyError(
                    f"{owner}: predicate {pred.render()!r} uses undeclared {sorted(unknown)}"
                )


SPLIT_BITS = {"AB": (1, 2), "AC": (1, 3), "AD": (1, 4)}


def _triple_from_string(text: str) -> RankTriple:
    if not re.fullmatch(r"[1-4]{3}", text):
        raise FamilyError(f"bad rank triple {text!r}")
    return RankTriple(int(text[0]), int(text[1]), int(text[2]))


_JSON_KINDS = {dict: "object", list: "array", str: "string", bool: "boolean"}
_JSON_KINDS[bool, str] = "boolean or string"


def _field(data, key: str, owner: str, kind, default=None):
    """``data[key]`` checked to be a JSON ``kind``, else a FamilyError.

    ``data`` must be a JSON object; a missing key yields ``default``
    when one is given.  A key that is present holds a ``kind``, so a
    JSON ``null`` is refused as the wrong kind, not taken as missing.
    """
    if not isinstance(data, dict):
        raise FamilyError(f"{owner} must be a JSON object, got {data!r}")
    if key not in data:
        if default is None:
            raise FamilyError(f"{owner} has no {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind):
        raise FamilyError(f"{owner}: {key!r} must be a JSON {_JSON_KINDS[kind]}")
    return value


def _strings(data, key: str, owner: str, default=None) -> list[str]:
    """``data[key]`` checked to be a JSON array of strings."""
    value = _field(data, key, owner, list, default)
    if not all(isinstance(v, str) for v in value):
        raise FamilyError(f"{owner}: {key!r} must hold strings only")
    return value


def _entry_from_dict(data: dict) -> FamilyEntry:
    name = _field(data, "name", "registry entry", str)
    owner = f"family {name!r}"
    params = tuple(_strings(data, "params", owner, []))
    template = None
    if "amps" in data:
        amps = tuple(parse_affine(s, params) for s in _strings(data, "amps", owner))
        template = FamilyTemplate(name, params, amps)

    split_rules = None
    if "split_rules" in data:
        splits = _field(data, "split_rules", owner, dict)
        if not set(splits) <= set(SPLIT_BITS):
            raise FamilyError(f"{owner} split_rules: splits must be among {list(SPLIT_BITS)}")
        split_rules = {
            split: [parse_predicate(p) for p in _strings(splits, split, f"{owner} split_rules")]
            for split in splits
        }
    rules = []
    for raw in _field(data, "rules", owner, list, []):
        rule_owner = f"{owner} rule"
        triple = _triple_from_string(_field(raw, "triple", rule_owner, str))
        if _field(raw, "empty", rule_owner, bool, False):
            predicate = None
        elif "intersect" in raw:
            if split_rules is None:
                raise FamilyError(f"{name}: intersect rule without split_rules")
            predicate = Predicate(())
            for split, idx in _field(raw, "intersect", rule_owner, dict).items():
                preds = split_rules.get(split, ())
                if type(idx) is not int or not 1 <= idx <= len(preds):  # JSON true is no index
                    raise FamilyError(f"{name}: no split rule {split} #{idx!r} to intersect")
                predicate = predicate.conjoin(preds[idx - 1])
        else:
            predicate = parse_predicate(_field(raw, "predicate", rule_owner, str, ""))
        bisep = _field(raw, "bisep", rule_owner, (bool, str), False)
        if bisep is True:
            bisep = ""  # biseparable, no specific partition pinned
        elif bisep is False:
            bisep = None
        rules.append(
            SubfamilyRule(
                family=name,
                triple=triple,
                predicate=predicate,
                symbols=params,
                biseparable=bisep,
                note=_field(raw, "note", rule_owner, str, ""),
            )
        )
    return FamilyEntry(name, params, template, rules, split_rules)


class FamilyRegistry:
    """Append-only registry of family templates and rule tables."""

    def __init__(self, include_builtin: bool = True):
        self._entries: dict[str, FamilyEntry] = {}
        if include_builtin:
            for raw in _builtin_data():
                entry = _entry_from_dict(raw)
                self._entries[entry.name] = entry

    def names(self) -> list[str]:
        return list(self._entries)

    def get(self, name: str) -> FamilyEntry:
        if name not in self._entries:
            raise FamilyError(f"unknown family {name!r}")
        return self._entries[name]

    def templated_names(self) -> list[str]:
        return [n for n, e in self._entries.items() if e.template is not None]

    def register_family(
        self, template: FamilyTemplate, rules: list[SubfamilyRule] | None = None
    ) -> FamilyEntry:
        """Add a family; duplicate names are rejected.

        When the name already exists as a rules-only entry, the template
        fills the gap and validation of its rows becomes possible.
        """
        return self._add(FamilyEntry(template.name, template.params, template, list(rules or ())))

    def register_entry(self, data: dict) -> FamilyEntry:
        """Add a family from its JSON object, as ``register_family`` does."""
        return self._add(_entry_from_dict(data))

    def _add(self, entry: FamilyEntry) -> FamilyEntry:
        existing = self._entries.get(entry.name)
        if existing is None:
            self._entries[entry.name] = entry
            return entry
        if entry.template is None or existing.template is not None:
            raise FamilyError(f"family {entry.name!r} already registered")
        if tuple(existing.params) != tuple(entry.params):
            raise FamilyError(
                f"template parameters {entry.params} do not match the"
                f" rule table of {entry.name!r}"
            )
        existing.template = entry.template
        existing.rules.extend(entry.rules)
        return existing

    def load_file(self, path) -> list[FamilyEntry]:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise FamilyError(f"registry file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, list):
            raise FamilyError("registry file must contain an array of families")
        return [self.register_entry(item) for item in data]


_BUILTIN_CACHE = None


def _builtin_data():
    global _BUILTIN_CACHE
    if _BUILTIN_CACHE is None:
        text = (
            resources.files("sloccrank").joinpath("data/builtin_families.json").read_text()
        )
        _BUILTIN_CACHE = json.loads(text)
    return _BUILTIN_CACHE


_DEFAULT_REGISTRY = None


def default_registry() -> FamilyRegistry:
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = FamilyRegistry()
    return _DEFAULT_REGISTRY


def _bind(entry: FamilyEntry, params) -> dict[str, ExactScalar]:
    if isinstance(params, dict):
        raw = params
    else:
        values = tuple(params)
        if len(values) != len(entry.params):
            raise FamilyError(
                f"{entry.name} takes {len(entry.params)} parameters, got {len(values)}"
            )
        raw = dict(zip(entry.params, values))
    if set(raw) != set(entry.params):
        raise FamilyError(
            f"{entry.name} parameters are {entry.params}, got {tuple(raw)}"
        )
    return {sym: _exact_param(sym, value) for sym, value in raw.items()}


def _exact_param(sym: str, value) -> ExactScalar:
    coerced = ExactScalar._coerce(value)
    if coerced is None:
        raise FamilyError(f"parameter {sym!r} must be an exact scalar")
    return coerced


def instantiate(family: str, params, registry: FamilyRegistry | None = None) -> PureState:
    """Evaluate a family template at concrete exact parameter values."""
    registry = registry or default_registry()
    entry = registry.get(family)
    if entry.template is None:
        raise FamilyError(f"family {family!r} has no registered template")
    bindings = _bind(entry, params)
    amps = [expr.evaluate(bindings) for expr in entry.template.amps]
    if all(a.is_zero() for a in amps):
        raise FamilyError(f"{family}{tuple(str(v) for v in bindings.values())} is the zero vector")
    return state(4, amps)


def rank_triple(psi: PureState, *, tolerance=None) -> RankTriple:
    """(rank C_AB, rank C_AC, rank C_AD) of a four-qubit state."""
    if psi.n != 4:
        raise ValueError("rank triples are defined for four-qubit states")
    return RankTriple(*(split_rank(psi, bits, tolerance=tolerance) for bits in SPLIT_BITS.values()))


def classify_subfamily(
    family: str, params, registry: FamilyRegistry | None = None
) -> tuple[SubfamilyRule, RankTriple]:
    """Unique matching rule row; its triple must equal the computed one.

    The triple is computed first, so parameters that give the zero
    vector raise FamilyError rather than a ClassificationError.
    """
    registry = registry or default_registry()
    entry = registry.get(family)
    bindings = _bind(entry, params)
    triple = rank_triple(instantiate(family, bindings, registry))
    matches = [
        rule
        for rule in entry.rules
        if rule.predicate is not None and rule.predicate.holds(bindings)
    ]
    failure = classification_failure(family, bindings.values(), triple, matches)
    if failure:
        raise ClassificationError(failure)
    return matches[0], triple


def classification_failure(family: str, values, triple: RankTriple, matches) -> str | None:
    """Why a tuple with computed ``triple`` and matching rows ``matches`` fails to classify.

    None when exactly one row matches and its triple is the computed one;
    otherwise the text of the ``ClassificationError``.  ``values`` are the
    parameter values, in the family's parameter order.
    """
    if not matches:
        return (
            f"no predicate row of {family} matches parameters"
            f" {tuple(str(v) for v in values)} (triple {triple})"
        )
    if len(matches) > 1:
        triples = ", ".join(str(r.triple) for r in matches)
        return f"rule table defect: rows {triples} of {family} all match"
    if triple != matches[0].triple:
        return (
            f"library defect: {family} row {matches[0].triple} matched but the"
            f" computed triple is {triple}"
        )
    return None


# Tuples per stacked rank call.  Over rule-table passes in one process, 16 -> 32
# tuples cut a pass by about 9% for 0.25 MB more peak RSS, 32 -> 64 by at most
# 5% for 0.35 MB more, and one call per family holds 4 MB more.
TRIPLE_CHUNK = 32
MASK_FACTOR_LIMIT = 2**21  # a product of three factors below this fits int64
# the (3, 4, 4) picks of C_AB, C_AC and C_AD out of a four-qubit amplitude vector
_SPLIT_PICKS = np.stack([
    np.arange(16).reshape((2,) * 4).transpose([b - 1 for b in bits] + [
        q for q in range(4) if q + 1 not in bits
    ]).reshape(4, 4)
    for bits in SPLIT_BITS.values()
])


def fits_int64(entry: FamilyEntry, nums, dens) -> bool:
    """Whether ``rank_triples`` and the rules' ``Predicate.mask`` take these tuples in int64.

    ``nums`` and ``dens`` are as for ``_instantiate_stack``.  The template
    must have an ``integer_form``, a bound on every component and scale
    that ``_instantiate_stack`` forms must be below 2**63, and every
    factor of the predicates' cross-multiplied products below
    ``MASK_FACTOR_LIMIT``.  The bound is taken in Python ints.
    """
    form = entry.template.integer_form
    if form is None:
        return False
    const, coeffs = form

    def top(a):
        return int(np.abs(a).max(initial=0))

    scale_top = math.prod(int(d) for d in dens.max(axis=0, initial=1))
    weight_tops = [int(n) * scale_top for n in np.abs(nums).max(axis=0, initial=0)]
    bound = top(const) * scale_top + sum(top(c) * w for c, w in zip(coeffs, weight_tops))
    if max([bound, scale_top, *weight_tops]) >= 2**63:
        return False
    predicates = [r.predicate for r in entry.rules if r.predicate is not None]
    atoms = [a for pred in predicates for conj in pred.conjunctions for a in conj]
    factors = [top(nums), top(dens)]
    factors += [f for a in atoms for f in (abs(a.coef.numerator), a.coef.denominator)]
    return max(factors) < MASK_FACTOR_LIMIT


def _instantiate_stack(template: FamilyTemplate, nums, dens) -> np.ndarray:
    """Integer quadruple amplitudes of T rational parameter tuples, as (T, 16, 4).

    ``nums`` and ``dens`` are (T, len(params)) int64 arrays of the values'
    numerators and positive denominators, for which ``fits_int64`` holds.
    Row t is the template at tuple t times ``integer_form``'s denominator
    and the product D_t of the tuple's denominators, so it is integral and
    has the ranks of ``instantiate``'s state.
    """
    const, coeffs = template.integer_form
    scale = np.prod(dens, axis=1)
    weights = nums * (scale[:, None] // dens)
    amps = scale[:, None] * const.reshape(1, -1) + weights @ coeffs.reshape(len(coeffs), -1)
    return amps.reshape(-1, 16, 4)


def rank_triples(template: FamilyTemplate, nums, dens) -> np.ndarray:
    """``rank_triple`` of T parameter tuples at once, as a (T, 3) array.

    The tuples are given as for ``_instantiate_stack``, and their AB, AC
    and AD matrices go through ``stacked_rank`` ``TRIPLE_CHUNK`` tuples at
    a time.  A tuple giving the zero vector has triple (0, 0, 0).
    """
    out = np.zeros((len(nums), 3), dtype=np.int64)
    for start in range(0, len(nums), TRIPLE_CHUNK):
        end = start + TRIPLE_CHUNK
        amps = _instantiate_stack(template, nums[start:end], dens[start:end])
        mats = amps[:, _SPLIT_PICKS].reshape(-1, 4, 4, 4)
        out[start:end] = stacked_rank(mats).reshape(-1, 3)
    return out


def classify_g_split(
    split: str, params, registry: FamilyRegistry | None = None, family: str = "G_abcd"
) -> int:
    """Single-split subfamily index (1..4) from the per-split rule rows."""
    registry = registry or default_registry()
    entry = registry.get(family)
    if not entry.split_rules or split not in entry.split_rules:
        raise FamilyError(f"family {family!r} has no per-split rules for {split!r}")
    bindings = _bind(entry, params)
    hits = [
        idx + 1
        for idx, pred in enumerate(entry.split_rules[split])
        if pred.holds(bindings)
    ]
    if len(hits) != 1:
        raise ClassificationError(
            f"per-split rows {hits} of {family}/{split} match simultaneously"
        )
    return hits[0]


# --- predicate-directed sampling ---------------------------------------------

_GRID_NUMERATORS = tuple(range(-6, 7))
_GRID_DENOMINATORS = (1, 2, 3)


def grid_rational(rng: random.Random) -> Fraction:
    """One parameter value drawn from the sampling grid {-6..6} / {1, 2, 3}."""
    num = _GRID_NUMERATORS[rng.randrange(len(_GRID_NUMERATORS))]
    den = _GRID_DENOMINATORS[rng.randrange(len(_GRID_DENOMINATORS))]
    return Fraction(num, den)


# the distinct values of the grid, ascending
GRID_VALUES = tuple(sorted({Fraction(n, d) for n in _GRID_NUMERATORS for d in _GRID_DENOMINATORS}))
# GRID_VALUES index of grid_rational's value, by its two randrange draws
GRID_DRAWS = np.array(
    [[GRID_VALUES.index(Fraction(n, d)) for d in _GRID_DENOMINATORS] for n in _GRID_NUMERATORS]
)


class _RatioUnionFind:
    """Union-find tracking value[sym] = mult * value[root], with zero roots."""

    def __init__(self, symbols):
        self.parent = {s: s for s in symbols}
        self.mult = {s: Fraction(1) for s in symbols}
        self.zero: set[str] = set()

    def find(self, x):
        if self.parent[x] == x:
            return x, Fraction(1)
        root, m = self.find(self.parent[x])
        self.mult[x] = self.mult[x] * m
        self.parent[x] = root
        return root, self.mult[x]

    def set_zero(self, x):
        root, _ = self.find(x)
        self.zero.add(root)

    def relate(self, x, k: Fraction, y):
        """Impose value[x] = k * value[y]."""
        rx, mx = self.find(x)
        ry, my = self.find(y)
        if rx == ry:
            if mx != k * my:
                # only solution is zero
                self.zero.add(rx)
            return
        # value[rx] = (k * my / mx) * value[ry]
        self.parent[rx] = ry
        self.mult[rx] = k * my / mx
        if rx in self.zero:
            self.zero.discard(rx)
            self.zero.add(ry)

    def value(self, x, root_values):
        root, m = self.find(x)
        if root in self.zero:
            return Fraction(0)
        return m * root_values[root]


MAX_ATTEMPTS = 10000  # draws per tuple before ``sample_predicate`` gives up


def sample_predicate(rule: SubfamilyRule, count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Deterministic small-rational parameter tuples satisfying the rule.

    Equality constraints are solved by substitution; inequalities by
    rejection over a small grid, with at most ``MAX_ATTEMPTS`` draws for
    each tuple.
    """
    if rule.predicate is None:
        raise SamplingError(f"row {rule.triple} of {rule.family} is unreachable")
    symbols = rule.symbols
    rng = random.Random(seed)
    out: list[tuple[Fraction, ...]] = []
    attempts = 0
    conjunctions = rule.predicate.conjunctions or ((),)
    while len(out) < count:
        attempts += 1
        if attempts > MAX_ATTEMPTS:
            raise SamplingError(
                f"could not satisfy predicate {rule.predicate.render()!r} within"
                f" {MAX_ATTEMPTS} attempts"
            )
        conj = conjunctions[rng.randrange(len(conjunctions))]
        uf = _RatioUnionFind(symbols)
        for atom in conj:
            if not atom.equal:
                continue
            if atom.rhs_sym is None:
                uf.set_zero(atom.lhs)
            else:
                coef = atom.coef
                if atom.plus_minus and rng.random() < 0.5:
                    coef = -coef
                uf.relate(atom.lhs, coef, atom.rhs_sym)
        root_values = {}
        for s in symbols:
            root, _ = uf.find(s)
            if root not in root_values:
                root_values[root] = grid_rational(rng)
        values = {s: uf.value(s, root_values) for s in symbols}
        bindings = {s: ExactScalar._coerce(v) for s, v in values.items()}
        if all(atom.holds(bindings) for atom in conj):
            out.append(tuple(values[s] for s in symbols))
            attempts = 0
    return out


# --- qubit permutations of four-qubit states ----------------------------------


def _product(*transpositions) -> QubitPermutation:
    """Right-to-left product of transpositions (i, j) on four qubits."""
    perm = QubitPermutation.identity(4)
    for i, j in reversed(transpositions):
        perm = QubitPermutation.transposition(4, i, j).compose(perm)
    return perm


KAPPA_PERMUTATIONS: tuple[QubitPermutation, ...] = (
    _product(),
    _product((1, 3)),
    _product((1, 4)),
    _product((1, 2), (1, 3)),
    _product((1, 2), (1, 4)),
    _product((1, 4), (1, 2), (1, 3)),
)

PI_PERMUTATIONS: tuple[QubitPermutation, ...] = (
    _product(),
    _product((1, 2)),
    _product((1, 3)),
    _product((1, 4)),
    _product((1, 3), (1, 2)),
    _product((1, 4), (1, 2)),
    _product((1, 2), (1, 3)),
    _product((1, 2), (1, 4)),
    _product((1, 2), (1, 3), (1, 2)),
    _product((1, 2), (1, 4), (1, 2)),
    _product((1, 4), (1, 2), (1, 3)),
    _product((1, 4), (1, 2), (1, 3), (1, 2)),
)

ALL_PERMUTATIONS: tuple[QubitPermutation, ...] = tuple(
    QubitPermutation(4, image) for image in itertools.permutations((1, 2, 3, 4))
)


def permutation_analysis(
    family: str,
    params,
    perms=None,
    registry: FamilyRegistry | None = None,
) -> list[tuple[QubitPermutation, RankTriple]]:
    """Rank triples of the permuted template state, one per permutation."""
    psi = instantiate(family, params, registry)
    if perms is None:
        perms = ALL_PERMUTATIONS
    return [(perm, rank_triple(permute_qubits(psi, perm))) for perm in perms]


@dataclass(frozen=True)
class PermutationClass:
    """Permutations that yield one and the same amplitude vector."""

    representative: PureState
    perms: tuple[QubitPermutation, ...]
    triple: RankTriple


def full_permutation_scan(psi: PureState) -> list[PermutationClass]:
    """Group all 24 qubit permutations by the state they produce."""
    if psi.n != 4:
        raise ValueError("the permutation scan runs on four-qubit states")
    groups: dict[tuple, list[QubitPermutation]] = {}
    reps: dict[tuple, PureState] = {}
    for perm in ALL_PERMUTATIONS:
        permuted = permute_qubits(psi, perm)
        key = tuple(permuted.amps)
        groups.setdefault(key, []).append(perm)
        reps.setdefault(key, permuted)
    out = []
    for key, perms in groups.items():
        rep = reps[key]
        out.append(PermutationClass(rep, tuple(perms), rank_triple(rep)))
    return out


# --- template pattern matching -------------------------------------------------


def _solve_affine_system(rows, free_syms):
    """Exact solve of (coeff row, rhs) equations; frees default to zero.

    Eliminates the augmented matrix ``[A | b]`` fraction-free and
    back-substitutes.  Returns the assignment dict, or None when a pivot
    lands in the right-hand-side column (an inconsistent system).
    """
    k = len(free_syms)
    quads, _ = common_denominator([x for coeffs, rhs in rows for x in (*coeffs, rhs)])
    m, pivots, _ = echelon(quads, len(rows), k + 1)
    if k in pivots:
        return None
    values = [ExactScalar(0)] * k
    for r in reversed(range(len(pivots))):
        row = [ExactScalar(*q) for q in m[r * (k + 1) : (r + 1) * (k + 1)]]
        c = pivots[r]
        acc = row[k]
        for j in range(c + 1, k):
            acc = acc - row[j] * values[j]
        values[c] = acc / row[c]
    return dict(zip(free_syms, values))


def match_template(
    psi: PureState,
    family: str,
    fixed: dict | None = None,
    registry: FamilyRegistry | None = None,
):
    """Match ``psi == scale * template(params)`` exactly.

    ``fixed`` pins some parameters (e.g. a template with one parameter
    forced to zero and the rest free).  Returns ``(scale, bindings)`` or
    None.  The scale is read off the first constant-only support
    amplitude; templates without one are homogeneous in their parameters
    and absorb the scale (returned scale is then 1).
    """
    registry = registry or default_registry()
    entry = registry.get(family)
    if entry.template is None:
        raise FamilyError(f"family {family!r} has no registered template")
    if not psi.is_exact or psi.n != 4:
        return None
    fixed_bindings = {}
    for sym, value in (fixed or {}).items():
        if sym not in entry.params:
            raise FamilyError(f"unknown parameter {sym!r}")
        fixed_bindings[sym] = _exact_param(sym, value)
    exprs = [expr.substitute(fixed_bindings) for expr in entry.template.amps]
    free_syms = [s for s in entry.params if s not in fixed_bindings]
    scale_value = None
    for idx, expr in enumerate(exprs):
        if not expr.coeffs and not expr.const.is_zero():
            if psi.amps[idx].is_zero():
                return None
            scale_value = psi.amps[idx] / expr.const
            break
    if scale_value is None:
        scale_value = ExactScalar(1)
    inv_scale = scale_value.inverse()
    rows = []
    for idx, expr in enumerate(exprs):
        coeff_map = dict(expr.coeffs)
        coeffs = [coeff_map.get(s, ExactScalar(0)) for s in free_syms]
        rhs = psi.amps[idx] * inv_scale - expr.const
        rows.append((coeffs, rhs))
    solution = _solve_affine_system(rows, free_syms)
    if solution is None:
        return None
    bindings = dict(fixed_bindings)
    bindings.update(solution)
    candidate = [expr.evaluate(bindings) for expr in entry.template.amps]
    if any(c * scale_value != a for c, a in zip(candidate, psi.amps)):
        return None
    return scale_value, bindings
