"""Bundled reference grids and their reproduction as a regression gate.

Tables 1 and 2 pin the rank signatures of the degenerate three- and
four-qubit families; table 3 pins structural rank patterns of five-qubit
partitions; tables 4-8 validate the four-qubit subfamily rule tables by
predicate-directed sampling, and by scans of grid tuples that confirm
the unreachable rows and the coverage of the listed ones.  The expected
values ship as data, so the reproduction is a regression check rather
than a re-derivation.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .coeffmatrix import enumerate_bipartitions, rank_signature, split_rank
from .families import (
    GRID_VALUES,
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
    grid_rational,
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


def _sampled_row(
    name: str, expected: str, rule, samples: int, seed: int, check, done: str
) -> RowReport:
    """``_row`` over ``sample_predicate`` tuples; a sampling failure is a mismatch."""
    try:
        tuples = sample_predicate(rule, samples, seed)
    except SamplingError as exc:
        return RowReport(name, expected, str(exc), "mismatch")
    return _row(name, expected, tuples, check, done)


def _grid_tuples(params, count: int, seed: int):
    """``count`` parameter tuples drawn from ``grid_rational``, one value per parameter."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(grid_rational(rng) for _ in params)


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
                    if classify_g_split(split, values, registry) != idx:
                        return f"params {values}: classified into another row"
                except ClassificationError as exc:
                    return f"params {values}: {exc}"
                return None

            report.rows.append(
                _sampled_row(f"F{idx}^{split}", f"rank {idx}", rule, samples,
                             seed + idx * 101, check, f"rank {idx} on {samples} samples")
            )
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


def _scan_draws(params, count: int, seeds) -> tuple[dict, str]:
    """Each seed's scan tuples, and how the row texts name them.

    A scan draws ``count`` grid tuples from its seed, or takes the whole
    grid, in ascending order, when that has no more tuples than ``count``.
    """
    size = len(GRID_VALUES) ** len(params)
    if size <= count:
        grid = list(itertools.product(GRID_VALUES, repeat=len(params)))
        return {s: grid for s in seeds}, f"all {size} grid tuples"
    return {s: list(_grid_tuples(params, count, s)) for s in seeds}, f"{count} tuples"


class _Scan:
    """One family's scan tuples, ranked together.

    Every distinct tuple of every scan is ranked once: in one stacked pass
    (``rank_triples``) when the family ``fits_int64`` on them, else tuple
    by tuple through ``instantiate`` and ``rank_triple``.  A row reports
    the first of its own draws that fails, in draw order.
    """

    def __init__(self, family: str, draws: dict, registry: FamilyRegistry):
        self.entry = registry.get(family)
        self.registry = registry
        distinct: dict = {}
        self.positions = {
            s: np.array([distinct.setdefault(t, len(distinct)) for t in ts], dtype=np.int64)
            for s, ts in draws.items()
        }
        self.tuples = list(distinct)
        shape = (len(self.tuples), len(self.entry.params))
        values = [v for t in self.tuples for v in t]
        self.nums = np.array([v.numerator for v in values], np.int64).reshape(shape)
        self.dens = np.array([v.denominator for v in values], np.int64).reshape(shape)
        self.batched = fits_int64(self.entry, self.nums, self.dens)
        if self.batched:
            self.triples = rank_triples(self.entry.template, self.nums, self.dens)
        else:
            triples = [self._exact_triple(t) for t in self.tuples]
            self.triples = np.array(triples, np.int64).reshape(-1, 3)
        self.zero = ~self.triples.any(axis=1)  # the zero vector, which instantiate refuses
        self.rules = [r for r in self.entry.rules if r.predicate is not None]

    def _exact_triple(self, values) -> tuple[int, int, int]:
        try:
            return rank_triple(instantiate(self.entry.name, values, self.registry)).as_tuple()
        except FamilyError:  # the zero vector
            return (0, 0, 0)

    def masks(self) -> np.ndarray:
        """Whether each rule row with a predicate holds, as a (rows, T) array."""
        if self.batched:
            masks = [r.predicate.mask(self.entry.params, self.nums, self.dens) for r in self.rules]
        else:
            bindings = [
                {s: ExactScalar._coerce(v) for s, v in zip(self.entry.params, t)}
                for t in self.tuples
            ]
            masks = [[r.predicate.holds(b) for b in bindings] for r in self.rules]
        return np.array(masks, dtype=bool).reshape(len(self.rules), len(self.tuples))

    def first(self, seed: int, bad: np.ndarray) -> int | None:
        """Distinct index of the first tuple drawn from ``seed`` that ``bad`` flags, or None."""
        hits = np.flatnonzero(bad[self.positions[seed]])
        return int(self.positions[seed][hits[0]]) if hits.size else None

    def hit(self, seed: int, triple: RankTriple) -> str | None:
        t = self.first(seed, (self.triples == triple.as_tuple()).all(axis=1))
        return None if t is None else f"hit at {self.tuples[t]}"

    def uncovered(self, seed: int) -> str | None:
        masks = self.masks()
        rows = np.array([r.triple.as_tuple() for r in self.rules]).reshape(len(self.rules), 3)
        single = masks.sum(axis=0) == 1
        agree = (masks.T.astype(np.int64) @ rows == self.triples).all(axis=1)  # when single
        t = self.first(seed, ~(single & agree) & ~self.zero)
        if t is None:
            return None
        values = self.tuples[t]
        failure = classification_failure(
            self.entry.name,
            [ExactScalar._coerce(v) for v in values],
            RankTriple(*self.triples[t].tolist()),
            [r for r, m in zip(self.rules, masks[:, t]) if m],
        )
        return f"params {values}: {failure}"


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
    # the empty rows are confirmed unreachable, and the coverage scan
    # classifies, on grid tuples that are ranked together
    seeds = [seed + 17 * k for k, rule in enumerate(entry.rules) if rule.empty]
    if scan:
        seeds.append(seed + 9999)
    if seeds:
        draws, drawn = _scan_draws(entry.params, samples * SCAN_PER_SAMPLE, seeds)
        scanned = _Scan(family, draws, registry)
    for k, rule in enumerate(entry.rules):
        name = f"{family} {rule.triple}"
        if rule.empty:
            report.rows.append(_verdict_row(
                name, "unreachable", scanned.hit(seed + 17 * k, rule.triple), f"not hit in {drawn}"
            ))
        else:
            report.rows.append(
                _sampled_row(name, str(rule.triple), rule, samples, seed + 13 * k,
                             _classified_as(family, rule, registry),
                             f"{samples} samples classified")
            )
    if scan:
        report.rows.append(_verdict_row(
            f"{family} coverage scan", "every tuple falls in a listed row",
            scanned.uncovered(seed + 9999), f"{drawn} covered",
        ))


def run_table(
    table_id: int,
    samples: int = 20,
    seed: int = 0,
    registry: FamilyRegistry | None = None,
) -> TableReport:
    """Reproduce one bundled table; every row gets a verdict.

    ``samples`` must be at least 1: with none, every sampled row would
    pass having checked nothing.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
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
