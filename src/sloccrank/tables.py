"""Bundled reference grids and their reproduction as a regression gate.

Tables 1 and 2 pin the rank signatures of the degenerate three- and
four-qubit families; table 3 pins structural rank patterns of five-qubit
partitions; tables 4-8 validate the four-qubit subfamily rule tables by
predicate-directed sampling, and by scans of grid tuples that confirm
the unreachable rows and the coverage of the listed ones.  The expected
values ship as data, so the reproduction is a regression check rather
than a re-derivation.

Scans are drawn as indices into ``GRID_VALUES``.  One family's scan and
sampled tuples are ranked together in one stacked pass (``_Scan``); a
sampled tuple that the stack does not prove to land in its row is
classified on its own, in draw order, so every message names the first
failing tuple.  Table 4's per-split rows go tuple by tuple.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .coeffmatrix import enumerate_bipartitions, rank_signature, split_rank
from .families import (
    GRID_DRAWS,
    GRID_VALUES,
    MASK_FACTOR_LIMIT,
    SPLIT_BITS,
    ClassificationError,
    FamilyError,
    FamilyRegistry,
    RankTriple,
    SamplingError,
    SubfamilyRule,
    classification_failure,
    classify_g_split,
    classify_subfamily,
    default_registry,
    fits_int64,
    instantiate,
    rank_triple,
    rank_triples,
    sample_predicate,
)
from .scalars import ExactScalar
from .separability import separability_partition
from .states import PureState, product_state, random_exact_state, state

TABLE_IDS = (1, 2, 3, 4, 5, 6, 7, 8)
SCAN_PER_SAMPLE = 500  # empty/coverage scans draw samples * this many tuples
MAX_SAMPLES = 1000  # so that one scan draws at most 500,000 tuples

# the numerators and denominators of GRID_VALUES
_GRID_NUMS = np.array([v.numerator for v in GRID_VALUES], dtype=np.int64)
_GRID_DENS = np.array([v.denominator for v in GRID_VALUES], dtype=np.int64)

_TABLE_CACHE = None


def _table_data() -> dict:
    global _TABLE_CACHE
    if _TABLE_CACHE is None:
        text = resources.files("sloccrank").joinpath("data/paper_tables.json").read_text(
            encoding="utf-8"
        )
        _TABLE_CACHE = json.loads(text)
    return _TABLE_CACHE


def table_title(table_id: int) -> str:
    return _table_data()[str(table_id)]["title"]


# --- canonical factor states ---------------------------------------------------


def epr() -> PureState:
    return state(2, [1, 0, 0, 1])


def ghz(n: int) -> PureState:
    amps = [0] * (1 << n)
    amps[0] = 1
    amps[-1] = 1
    return state(n, amps)


def w_state(n: int) -> PureState:
    amps = [0] * (1 << n)
    for k in range(n):
        amps[1 << k] = 1
    return state(n, amps)


def ket0() -> PureState:
    return state(1, [1, 0])


def build_representative(blocks: list[list[str]], labels) -> PureState:
    """Blockwise product of |0>, EPR and GHZ factors for a partition."""
    labels = list(labels)
    n = sum(len(b) for b in blocks)
    factors = []
    for block in blocks:
        positions = tuple(sorted(labels.index(ch) + 1 for ch in block))
        size = len(positions)
        if size == 1:
            factor = ket0()
        elif size == 2:
            factor = epr()
        else:
            factor = ghz(size)
        factors.append((factor, positions))
    return product_state(factors, n)


def expected_rank_set(blocks, split) -> set[int]:
    """Structural rank rule for a blockwise product across one split.

    The rank factorises over blocks: untouched or swallowed blocks give
    1, a proper cut of a genuinely entangled block of up to three qubits
    gives 2, a one-qubit cut of a larger block gives 2, and deeper cuts
    of larger blocks can give 2, 3 or 4.
    """
    split = set(split)
    factor_sets = []
    for block in blocks:
        block = set(block)
        inter = len(block & split)
        size = len(block)
        if inter == 0 or inter == size:
            factor_sets.append({1})
        elif size <= 3 or inter in (1, size - 1):
            factor_sets.append({2})
        else:
            factor_sets.append({2, 3, 4})
    out = set()
    for combo in itertools.product(*factor_sets):
        prod = 1
        for v in combo:
            prod *= v
        out.add(prod)
    return out


def random_entangled_block(k: int, rng: random.Random) -> PureState:
    """Random exact k-qubit state with no rank-1 split (k = 1 is trivial)."""
    while True:
        psi = random_exact_state(k, rng)
        if k == 1:
            return psi
        sig = rank_signature(psi)
        if all(r > 1 for r in dict(sig.items()).values()):
            return psi


# --- reproduction reports -------------------------------------------------------


@dataclass
class RowReport:
    name: str
    expected: str
    computed: str
    verdict: str  # "match", "mismatch", "skipped: ..."

    def __post_init__(self):
        # reports repeat a few texts many times over; keep one copy of each
        self.name = sys.intern(self.name)
        self.expected = sys.intern(self.expected)
        self.computed = sys.intern(self.computed)
        self.verdict = sys.intern(self.verdict)

    @property
    def passed(self) -> bool:
        return self.verdict == "match" or self.verdict.startswith("skipped")


@dataclass
class TableReport:
    table_id: int
    title: str
    rows: list[RowReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every row passed and at least one was validated: a gate that checked nothing fails."""
        return any(r.verdict == "match" for r in self.rows) and all(r.passed for r in self.rows)


def _verdict_row(name: str, expected: str, failure: str | None, done: str) -> RowReport:
    """A mismatch reading ``failure``, or a match reading ``done`` when there is none."""
    if failure:
        return RowReport(name, expected, failure, "mismatch")
    return RowReport(name, expected, done, "match")


def _row(name: str, expected: str, inputs, check, done: str) -> RowReport:
    """First message ``check`` returns over ``inputs`` is a mismatch; none is a match."""
    return _verdict_row(name, expected, next(filter(None, map(check, inputs)), None), done)


def _rank_cell(expected, computed: int) -> bool:
    if isinstance(expected, dict):
        return computed >= expected["min"]
    return computed == expected


def _render_cells(cells) -> str:
    out = []
    for c in cells:
        out.append(f">={c['min']}" if isinstance(c, dict) else str(c))
    return " ".join(out)


def _run_grid_table(table_id: int) -> TableReport:
    data = _table_data()[str(table_id)]
    report = TableReport(table_id, data["title"])
    for row in data["rows"]:
        labels = sorted({ch for block in row["blocks"] for ch in block})
        psi = build_representative(row["blocks"], labels)
        sig = rank_signature(psi)
        computed = list(sig.as_tuple())
        ok = len(computed) == len(row["ranks"]) and all(
            _rank_cell(e, c) for e, c in zip(row["ranks"], computed)
        )
        report.rows.append(
            RowReport(
                name=row["family"],
                expected=_render_cells(row["ranks"]),
                computed=" ".join(map(str, computed)),
                verdict="match" if ok else "mismatch",
            )
        )
    return report


def _run_table3(samples: int, seed: int) -> TableReport:
    data = _table_data()["3"]
    report = TableReport(3, data["title"])
    rng = random.Random(seed)
    bipartitions = enumerate_bipartitions(5)

    def draws(sizes):
        for _ in range(samples):
            order = list(range(1, 6))
            rng.shuffle(order)
            blocks = []
            factors = []
            at = 0
            for size in sizes:
                positions = tuple(sorted(order[at : at + size]))
                at += size
                blocks.append(positions)
                factors.append((random_entangled_block(size, rng), positions))
            yield blocks, product_state(factors, 5)

    def check(draw):
        blocks, psi = draw
        for bp in bipartitions:
            allowed = expected_rank_set(blocks, bp.canonical_key())
            got = split_rank(psi, bp.row_bits, bp.col_bits)
            if got not in allowed:
                return (
                    f"split {bp.canonical_key()} of blocks {blocks}:"
                    f" rank {got} not in {sorted(allowed)}"
                )
        return None

    for shape in data["shapes"]:
        report.rows.append(
            _row(shape["family"], "structural rank pattern", draws(shape["sizes"]), check,
                 "as expected")
        )
    return report


def _draw_samples(rule: SubfamilyRule, samples: int, seed: int):
    """``sample_predicate``'s tuples for ``rule``, or the SamplingError it raised."""
    try:
        return sample_predicate(rule, samples, seed)
    except SamplingError as exc:
        return exc


def _sampled_row(name: str, expected: str, tuples, proven, check, done: str) -> RowReport:
    """``_row`` over the sampled ``tuples`` that the stack has not ``proven`` to pass.

    A sampling failure is a mismatch.  The other tuples, all of them
    when ``proven`` is None, go through ``check`` in draw order, so the
    row reports the first failing tuple.
    """
    if isinstance(tuples, SamplingError):
        return RowReport(name, expected, str(tuples), "mismatch")
    if proven is not None:
        tuples = [tuples[i] for i in np.flatnonzero(~proven)]
    return _row(name, expected, tuples, check, done)


def _run_table4(samples: int, seed: int, registry: FamilyRegistry) -> TableReport:
    data = _table_data()["4"]
    family = data["family"]
    report = TableReport(4, data["title"])
    entry = registry.get(family)
    if not entry.split_rules:
        raise FamilyError(f"family {family!r} has no per-split rules")
    for split, preds in entry.split_rules.items():
        bits = SPLIT_BITS[split]
        for idx, pred in enumerate(preds, start=1):
            rule = SubfamilyRule(
                family=family,
                triple=RankTriple(idx, idx, idx),  # placeholder, unused by sampling
                predicate=pred,
                symbols=entry.params,
            )

            def check(values):
                got = split_rank(instantiate(family, values, registry), bits)
                if got != idx:
                    return f"params {values}: rank {got}"
                try:
                    if classify_g_split(split, values, registry, family=family) != idx:
                        return f"params {values}: classified into another row"
                except ClassificationError as exc:
                    return f"params {values}: {exc}"
                return None

            tuples = _draw_samples(rule, samples, seed + idx * 101)
            report.rows.append(_sampled_row(
                f"F{idx}^{split}", f"rank {idx}", tuples, None, check,
                f"rank {idx} on {samples} samples",
            ))
    return report


def _classified_as(family: str, rule: SubfamilyRule, registry: FamilyRegistry):
    """Check that a sampled tuple lands in ``rule``'s row, and its partition if pinned."""

    def check(values):
        try:
            matched, _ = classify_subfamily(family, values, registry)
        except (ClassificationError, FamilyError) as exc:
            return f"params {values}: {exc}"
        if matched.triple != rule.triple:
            return f"params {values}: matched row {matched.triple}"
        if rule.biseparable is None:
            return None
        partition = separability_partition(instantiate(family, values, registry))
        if partition.is_genuinely_entangled():
            return f"params {values}: expected a biseparable state"
        if rule.biseparable and partition.label() != rule.biseparable:
            return f"params {values}: partition {partition.label()} != {rule.biseparable}"
        return None

    return check


def _grid_tuples(params, count: int, seed: int) -> np.ndarray:
    """``count`` tuples drawn as ``grid_rational`` draws them, as indices into ``GRID_VALUES``.

    The (count, len(params)) array holds one value per parameter; each
    value takes ``grid_rational``'s two ``randrange`` calls, in its order.
    """
    draw = random.Random(seed).randrange
    n_num, n_den = GRID_DRAWS.shape
    codes = [draw(n_num) * n_den + draw(n_den) for _ in range(count * len(params))]
    return GRID_DRAWS.ravel()[codes].reshape(count, len(params))


def _scan_draws(params, count: int, seeds) -> tuple[dict, str]:
    """Each seed's scan tuples as ``GRID_VALUES`` indices, and how the row texts name them.

    A scan draws ``count`` grid tuples from its seed, or takes the whole
    grid, in ascending order, when that has no more tuples than ``count``.
    """
    size = len(GRID_VALUES) ** len(params)
    if size <= count:
        grid = itertools.product(range(len(GRID_VALUES)), repeat=len(params))
        grid = np.array(list(grid), dtype=np.int64).reshape(size, len(params))
        return {s: grid for s in seeds}, f"all {size} grid tuples"
    return {s: _grid_tuples(params, count, s) for s in seeds}, f"{count} tuples"


class _Scan:
    """One family's scan and sampled tuples, ranked together.

    The stack holds the distinct tuples of every scan, given as
    ``GRID_VALUES`` indices, and then every sampled row's tuples.  When
    the family ``fits_int64`` on it, the whole stack is ranked in one
    stacked pass (``rank_triples``) and each predicate is masked at once
    (``Predicate.mask``).  Otherwise the scan tuples are ranked tuple by
    tuple through ``instantiate`` and ``rank_triple``, and no sampled tuple
    is proven.  A row reports the first of its own draws that fails, in
    draw order.
    """

    def __init__(self, family: str, draws: dict, registry: FamilyRegistry, sampled=None):
        self.entry = entry = registry.get(family)
        self.registry = registry
        width = len(entry.params)
        base = len(GRID_VALUES)
        weights = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
        codes = [d @ weights for d in draws.values()]
        distinct, inverse = np.unique(
            np.concatenate(codes or [np.zeros(0, np.int64)]), return_inverse=True
        )
        self.grid = distinct[:, None] // weights % base
        ends = np.cumsum([len(c) for c in codes], dtype=np.int64)
        self.positions = dict(zip(draws, np.split(inverse, ends[:-1])))
        sampled = sampled or {}
        self.sampled = [t for ts in sampled.values() for t in ts]
        ends = len(self.grid) + np.cumsum([0] + [len(ts) for ts in sampled.values()])
        self.sample_positions = {
            k: np.arange(a, b) for k, a, b in zip(sampled, ends[:-1], ends[1:])
        }
        values = [v for t in self.sampled for v in t]
        # a sampled value that fails fits_int64 this way might not fit an int64 array
        self.batched = entry.template is not None and all(
            max(abs(v.numerator), v.denominator) < MASK_FACTOR_LIMIT for v in values
        )
        if self.batched:
            shape = (len(self.sampled), width)
            self.nums = np.concatenate([
                _GRID_NUMS[self.grid], np.array([v.numerator for v in values], np.int64).reshape(shape)
            ])
            self.dens = np.concatenate([
                _GRID_DENS[self.grid], np.array([v.denominator for v in values], np.int64).reshape(shape)
            ])
            self.batched = fits_int64(entry, self.nums, self.dens)
        if self.batched:
            self.triples = rank_triples(entry.template, self.nums, self.dens)
        else:  # only the scan tuples, one by one
            triples = [self._exact_triple(self.values(t)) for t in range(len(self.grid))]
            self.triples = np.array(triples, np.int64).reshape(-1, 3)
        self.zero = ~self.triples.any(axis=1)  # the zero vector, which instantiate refuses
        self.rules = [r for r in entry.rules if r.predicate is not None]

    def values(self, t: int) -> tuple:
        """Stack tuple ``t`` as the row texts print it: a tuple of Fractions."""
        if t < len(self.grid):
            return tuple(GRID_VALUES[i] for i in self.grid[t])
        return self.sampled[t - len(self.grid)]

    def _exact_triple(self, values) -> tuple[int, int, int]:
        try:
            return rank_triple(instantiate(self.entry.name, values, self.registry)).as_tuple()
        except FamilyError:  # the zero vector
            return (0, 0, 0)

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """Whether each rule row with a predicate holds, as a (rows, T) array."""
        if self.batched:
            masks = [r.predicate.mask(self.entry.params, self.nums, self.dens) for r in self.rules]
        else:
            bindings = [
                {s: ExactScalar._coerce(v) for s, v in zip(self.entry.params, self.values(t))}
                for t in range(len(self.triples))
            ]
            masks = [[r.predicate.holds(b) for b in bindings] for r in self.rules]
        return np.array(masks, dtype=bool).reshape(len(self.rules), len(self.triples))

    @functools.cached_property
    def classified(self) -> np.ndarray:
        """Whether exactly one rule row matches each tuple and its triple is the computed one."""
        rows = np.array([r.triple.as_tuple() for r in self.rules]).reshape(len(self.rules), 3)
        single = self.masks.sum(axis=0) == 1
        return single & (self.masks.T.astype(np.int64) @ rows == self.triples).all(axis=1)

    def first(self, seed: int, bad: np.ndarray) -> int | None:
        """Stack index of the first tuple drawn from ``seed`` that ``bad`` flags, or None."""
        hits = np.flatnonzero(bad[self.positions[seed]])
        return int(self.positions[seed][hits[0]]) if hits.size else None

    def hit(self, seed: int, triple: RankTriple) -> str | None:
        t = self.first(seed, (self.triples == triple.as_tuple()).all(axis=1))
        return None if t is None else f"hit at {self.values(t)}"

    def uncovered(self, seed: int) -> str | None:
        t = self.first(seed, ~self.classified & ~self.zero)
        if t is None:
            return None
        values = self.values(t)
        failure = classification_failure(
            self.entry.name,
            [ExactScalar._coerce(v) for v in values],
            RankTriple(*self.triples[t].tolist()),
            [r for r, m in zip(self.rules, self.masks[:, t]) if m],
        )
        return f"params {values}: {failure}"

    def proven(self, k, rule: SubfamilyRule) -> np.ndarray:
        """Which of sampled row ``k``'s tuples surely land in ``rule``'s row.

        Those are the tuples that match exactly one row, whose triple is
        the computed one and ``rule``'s (so not the zero vector), when
        ``rule`` pins no biseparable partition.
        """
        positions = self.sample_positions[k]
        if not self.batched or rule.biseparable is not None:
            return np.zeros(len(positions), dtype=bool)
        right = (self.triples[positions] == rule.triple.as_tuple()).all(axis=1)
        return self.classified[positions] & right


def _run_family_rows(
    report: TableReport,
    family: str,
    samples: int,
    seed: int,
    registry: FamilyRegistry,
    scan: bool,
) -> None:
    entry = registry.get(family)
    if entry.template is None:
        report.rows.extend(
            RowReport(f"{family} {rule.triple}", str(rule.triple), "-", "skipped: no template")
            for rule in entry.rules
        )
        return
    # the reachable rows classify their sampled tuples, the empty rows are
    # confirmed unreachable and the coverage scan classifies grid tuples,
    # all ranked together in one stack
    sampled = {
        k: _draw_samples(rule, samples, seed + 13 * k)
        for k, rule in enumerate(entry.rules)
        if not rule.empty
    }
    seeds = [seed + 17 * k for k, rule in enumerate(entry.rules) if rule.empty]
    if scan:
        seeds.append(seed + 9999)
    draws, drawn = _scan_draws(entry.params, samples * SCAN_PER_SAMPLE, seeds)
    stacked = {k: [] if isinstance(ts, SamplingError) else ts for k, ts in sampled.items()}
    stack = _Scan(family, draws, registry, stacked)
    for k, rule in enumerate(entry.rules):
        name = f"{family} {rule.triple}"
        if rule.empty:
            report.rows.append(_verdict_row(
                name, "unreachable", stack.hit(seed + 17 * k, rule.triple), f"not hit in {drawn}"
            ))
        else:
            report.rows.append(_sampled_row(
                name, str(rule.triple), sampled[k], stack.proven(k, rule),
                _classified_as(family, rule, registry), f"{samples} samples classified",
            ))
    if scan:
        report.rows.append(_verdict_row(
            f"{family} coverage scan", "every tuple falls in a listed row",
            stack.uncovered(seed + 9999), f"{drawn} covered",
        ))


def run_table(
    table_id: int,
    samples: int = 20,
    seed: int = 0,
    registry: FamilyRegistry | None = None,
) -> TableReport:
    """Reproduce one bundled table; every row gets a verdict.

    ``samples`` must be at least 1: with none, every sampled row would
    pass having checked nothing.  It must be at most ``MAX_SAMPLES``,
    since each scan holds ``samples * SCAN_PER_SAMPLE`` tuples in memory.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    registry = registry or default_registry()
    if table_id in (1, 2):
        return _run_grid_table(table_id)
    if table_id == 3:
        return _run_table3(samples, seed)
    if table_id == 4:
        return _run_table4(samples, seed, registry)
    data = _table_data()[str(table_id)]
    report = TableReport(table_id, data["title"])
    if table_id in (5, 6, 8):
        _run_family_rows(report, data["family"], samples, seed, registry, scan=True)
    else:  # table 7
        for family in data["families"]:
            _run_family_rows(report, family, samples, seed, registry, scan=False)
    return report
