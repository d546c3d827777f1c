"""Bundled reference grids and their reproduction as a regression gate.

Tables 1 and 2 pin the rank signatures of the degenerate three- and
four-qubit families; table 3 pins structural rank patterns of five-qubit
partitions; tables 4-8 validate the four-qubit subfamily rule tables by
predicate-directed sampling.  The expected values ship as data, so the
reproduction is a regression check rather than a re-derivation.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from importlib import resources

from .coeffmatrix import coefficient_matrix, enumerate_bipartitions, rank, rank_signature
from .families import (
    SPLIT_BITS,
    ClassificationError,
    FamilyError,
    FamilyRegistry,
    RankTriple,
    SamplingError,
    SubfamilyRule,
    classify_g_split,
    classify_subfamily,
    default_registry,
    grid_rational,
    instantiate,
    rank_triple,
    sample_predicate,
)
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


def _row(name: str, expected: str, inputs, check, done: str) -> RowReport:
    """First message ``check`` returns over ``inputs`` is a mismatch; none is a match."""
    for x in inputs:
        bad = check(x)
        if bad:
            return RowReport(name, expected, bad, "mismatch")
    return RowReport(name, expected, done, "match")


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
            got = rank(coefficient_matrix(psi, bp.row_bits, bp.col_bits))
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
                got = rank(coefficient_matrix(instantiate(family, values, registry), bits))
                if got != idx:
                    return f"params {values}: rank {got}"
                if classify_g_split(split, values, registry) != idx:
                    return f"params {values}: classified into another row"
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


def _run_family_rows(
    report: TableReport,
    family: str,
    samples: int,
    seed: int,
    registry: FamilyRegistry,
    scan: bool,
) -> None:
    entry = registry.get(family)
    has_template = entry.template is not None
    count = samples * SCAN_PER_SAMPLE
    for k, rule in enumerate(entry.rules):
        name = f"{family} {rule.triple}"
        if not has_template:
            report.rows.append(
                RowReport(name, str(rule.triple), "-", "skipped: no template")
            )
        elif rule.empty:
            # confirmed unreachable by scanning random parameter tuples

            def hit(values):
                try:
                    psi = instantiate(family, values, registry)
                except FamilyError:
                    return None  # the all-zero tuple
                return f"hit at {values}" if rank_triple(psi) == rule.triple else None

            report.rows.append(
                _row(name, "unreachable", _grid_tuples(entry.params, count, seed + 17 * k),
                     hit, f"not hit in {count} tuples")
            )
        else:
            report.rows.append(
                _sampled_row(name, str(rule.triple), rule, samples, seed + 13 * k,
                             _classified_as(family, rule, registry),
                             f"{samples} samples classified")
            )
    if scan and has_template:

        def uncovered(values):
            try:
                classify_subfamily(family, values, registry)
            except FamilyError:
                pass  # the all-zero tuple
            except ClassificationError as exc:
                return f"params {values}: {exc}"
            return None

        report.rows.append(
            _row(f"{family} coverage scan", "every tuple falls in a listed row",
                 _grid_tuples(entry.params, count, seed + 9999), uncovered,
                 f"{count} tuples covered")
        )


def run_table(
    table_id: int,
    samples: int = 20,
    seed: int = 0,
    registry: FamilyRegistry | None = None,
) -> TableReport:
    """Reproduce one bundled table; every row gets a verdict."""
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id}")
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
