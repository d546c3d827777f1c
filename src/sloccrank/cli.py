"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 state parse error, 3 numeric or
mode failure, 4 verification/reproduction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import checks
from .checks import MAX_TRIALS
from .coeffmatrix import rank_signature, split_rank
from .families import (
    SPLIT_BITS,
    ClassificationError,
    FamilyError,
    FamilyRegistry,
    classify_subfamily,
    default_registry,
    match_template,
)
from .invariants import invariant_report
from .scalars import render_exact, render_float
from .separability import partition_from_signature
from .states import PureState, StateFormatError, parse_state
from .tables import MAX_SAMPLES, TABLE_IDS, run_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    """Invalid input from outside the argument list, such as the environment."""


class ModeError(ValueError):
    """``--mode exact`` on a floating state file."""


def _env_seed() -> int:
    raw = os.environ.get("SLOCC_RANK_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"SLOCC_RANK_SEED must be an integer, got {raw!r}") from None


def _count(limit: int):
    """A trial or sample count: at least 1, since a gate that ran nothing must
    not pass, and at most ``limit`` (``MAX_TRIALS``, ``MAX_SAMPLES``), so that
    its draws fit in memory."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be an integer <= {limit}, got {text!r}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """A relative singular-value cutoff: from 1 on it would drop sigma_max itself."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < 1:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be a number with 0 <= t < 1, got {text!r}")
    return value


_COMMON = {
    "mode": dict(choices=("exact", "numeric"), default=None,
                 help="override the scalar mode (default: exact when possible)"),
    "tolerance": dict(type=_tolerance, default=None,
                      help="relative singular-value cutoff for numeric ranks"),
    "seed": dict(type=int, default=None, help="RNG seed (falls back to SLOCC_RANK_SEED, then 0)"),
    "output": dict(choices=("text", "machine"), default="text"),
    "registry": dict(default=None, help="JSON file with additional family templates/rules"),
}


def _add_common(parser, *names):
    """The common flags ``names`` that the subcommand reads, and no other."""
    for name in names:
        parser.add_argument(f"--{name}", **_COMMON[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="sloccrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ranks", help="rank signature of a state file")
    p.add_argument("state_file")
    p.add_argument("--bits", default=None, help="single split by qubit letters, e.g. AB")
    _add_common(p, "mode", "tolerance", "output")

    p = sub.add_parser("classify", help="separability partition and subfamily")
    p.add_argument("state_file")
    _add_common(p, "mode", "tolerance", "output", "registry")

    p = sub.add_parser("invariants", help="dxy, f1, f2 and the three half determinants")
    p.add_argument("state_file")
    _add_common(p, "mode", "output")

    p = sub.add_parser("verify", help="run a named property check")
    p.add_argument("check", choices=sorted(checks.CHECKS) + ["all"])
    p.add_argument("--trials", type=_count(MAX_TRIALS), default=None)
    _add_common(p, "seed", "output")

    p = sub.add_parser("table", help="reproduce a bundled reference table")
    p.add_argument("table_id", type=int, choices=TABLE_IDS)
    p.add_argument("--samples", type=_count(MAX_SAMPLES), default=20)
    _add_common(p, "seed", "output", "registry")
    return parser


def _load_state(path: str, mode: str | None) -> tuple[PureState, str]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    psi = parse_state(text)
    if mode is None:
        mode = "exact" if psi.is_exact else "numeric"
    if mode == "numeric":
        psi = psi.to_float()
    elif not psi.is_exact:
        raise ModeError("exact mode requested for a floating state file")
    return psi, mode


def _registry_from(args) -> FamilyRegistry:
    if not args.registry:
        return default_registry()
    registry = FamilyRegistry()
    registry.load_file(args.registry)
    return registry


def _render_value(value) -> str:
    if isinstance(value, complex):
        return render_float(value)
    if isinstance(value, (int, float)):
        return repr(value)
    return render_exact(value)


def _split_bits(psi: PureState, letters: str) -> tuple[int, ...]:
    """Positions of the ``--bits`` qubits: distinct labels, a proper part of the register."""
    if not letters or len(set(letters)) != len(letters) or not set(letters) < set(psi.labels):
        raise UsageError(
            f"--bits must name distinct qubits of {''.join(psi.labels)}"
            f" and leave at least one out, got {letters!r}"
        )
    return tuple(sorted(psi.position_of(ch) for ch in letters))


def cmd_ranks(args) -> int:
    psi, mode = _load_state(args.state_file, args.mode)
    if args.bits is not None:
        positions = _split_bits(psi, args.bits)
        value = split_rank(psi, positions, tolerance=args.tolerance)
        if args.output == "machine":
            print(json.dumps({"bits": args.bits, "rank": value, "mode": mode}))
        else:
            print(value)
        return EXIT_OK
    sig = rank_signature(psi, tolerance=args.tolerance)
    if args.output == "machine":
        print(json.dumps({"n": psi.n, "mode": mode, "signature": sig.label_map()}))
    else:
        for bits, value in sig.label_map().items():
            print(f"{bits}\t{value}")
    return EXIT_OK


def cmd_classify(args) -> int:
    psi, mode = _load_state(args.state_file, args.mode)
    registry = _registry_from(args)
    sig = rank_signature(psi, tolerance=args.tolerance)
    partition = partition_from_signature(sig)
    result = {
        "partition": [partition.block_label(b) for b in partition.blocks],
        "label": partition.label(),
        "genuinely_entangled": partition.is_genuinely_entangled(),
        "signature": sig.label_map(),
        "mode": mode,
        "tolerance": args.tolerance,
    }
    if psi.n == 4:
        result["triple"] = [sig[bits] for bits in SPLIT_BITS.values()]
        matches = []
        if psi.is_exact:
            for name in registry.templated_names():
                hit = match_template(psi, name, registry=registry)
                if hit is None:
                    continue
                scale_value, bindings = hit
                entry = {
                    "family": name,
                    "scale": _render_value(scale_value),
                    "params": {k: _render_value(v) for k, v in bindings.items()},
                }
                try:
                    rule, _ = classify_subfamily(name, bindings, registry)
                    entry["rule"] = str(rule.triple)
                except ClassificationError as exc:
                    entry["rule_error"] = str(exc)
                matches.append(entry)
        result["template_matches"] = matches
    if args.output == "machine":
        print(json.dumps(result))
        return EXIT_OK
    if partition.is_genuinely_entangled():
        print("genuinely entangled")
    else:
        print(f"label: {result['label']}")
    print("partition: " + " ".join(result["partition"]))
    print("signature: " + " ".join(f"{k}={v}" for k, v in result["signature"].items()))
    if "triple" in result:
        print("triple: " + "".join(map(str, result["triple"])))
        for m in result.get("template_matches", ()):
            params = ", ".join(f"{k}={v}" for k, v in m["params"].items())
            rule = m.get("rule", m.get("rule_error", "?"))
            print(f"template: {m['family']}({params}) scale {m['scale']} row {rule}")
    return EXIT_OK


def cmd_invariants(args) -> int:
    psi, mode = _load_state(args.state_file, args.mode)
    if psi.n != 4:
        print("error: invariants are defined for four-qubit states", file=sys.stderr)
        return EXIT_NUMERIC
    report = invariant_report(psi)
    rendered = {k: _render_value(v) for k, v in report.as_dict().items()}
    if args.output == "machine":
        print(json.dumps(rendered))
    else:
        for key, value in rendered.items():
            print(f"{key}\t{value}")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    names = sorted(checks.CHECKS) if args.check == "all" else [args.check]
    results = [checks.run_check(name, trials=args.trials, seed=seed) for name in names]
    if args.output == "machine":
        print(json.dumps([
            {
                "check": r.name,
                "trials": r.trials,
                "seed": r.seed,
                "passed": r.passed,
                "failures": r.failures,
            }
            for r in results
        ]))
    else:
        for r in results:
            print(r.summary())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def cmd_table(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    registry = _registry_from(args)
    report = run_table(args.table_id, samples=args.samples, seed=seed, registry=registry)
    validated = sum(r.verdict == "match" for r in report.rows)
    skipped = sum(r.verdict.startswith("skipped") for r in report.rows)
    if args.output == "machine":
        print(json.dumps({
            "table": report.table_id,
            "title": report.title,
            "passed": report.passed,
            "validated": validated,
            "skipped": skipped,
            "rows": [
                {
                    "row": r.name,
                    "expected": r.expected,
                    "computed": r.computed,
                    "verdict": r.verdict,
                }
                for r in report.rows
            ],
        }))
    else:
        print(f"table {report.table_id}: {report.title}")
        for r in report.rows:
            print(f"{r.verdict:>24}  {r.name}  expected[{r.expected}]  got[{r.computed}]")
        print(f"validated {validated} rows, {skipped} skipped (no template)")
    return EXIT_OK if report.passed else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "ranks": cmd_ranks,
        "classify": cmd_classify,
        "invariants": cmd_invariants,
        "verify": cmd_verify,
        "table": cmd_table,
    }
    try:
        return handlers[args.command](args)
    except (StateFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ModeError, ClassificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, ModeError) else EXIT_VERIFY
    except (FamilyError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
