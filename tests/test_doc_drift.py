"""The docs name only kernel symbols that exist.

Every bare identifier in double backticks in the ``_kernels`` module
docstring, and every ``_kernels.<name>`` in README.md, must be an
attribute of ``sloccrank._kernels``, every ``coeffmatrix.<name>`` in
README.md one of ``sloccrank.coeffmatrix``, and every ``PureState.<name>``
in README.md one of ``PureState``: a constant, routine or cache deleted
from the code must not live on in the prose.  README's list of the flags
of each CLI subcommand must be the flags ``build_parser`` gives it.
"""

import argparse
import re
from pathlib import Path

import sloccrank._kernels as kernels
import sloccrank.coeffmatrix as coeffmatrix
from sloccrank.cli import build_parser
from sloccrank.states import PureState

README = Path(__file__).resolve().parents[1] / "README.md"


def _missing(names, module=kernels):
    return sorted(name for name in set(names) if not hasattr(module, name))


def test_kernel_docstring_names_existing_symbols():
    names = re.findall(r"``([A-Za-z_]\w*)``", kernels.__doc__)
    required = {
        "_certified_rank", "stacked_rank", "_pivots_mod_p_int64", "_reduce_mod", "_norm_bits",
        "ranks_mod_q", "residues_mod", "quad_array",
    }
    assert required <= set(names)
    assert _missing(names) == []


def test_readme_names_existing_kernel_symbols():
    names = re.findall(r"\b_kernels\.([A-Za-z_]\w*)", README.read_text())
    assert {
        "echelon", "stacked_rank", "_norm_bits", "residues_mod", "ranks_mod_q", "_reduce_mod",
        "_pivots_mod_p_int64",
    } <= set(names)
    assert _missing(names) == []


def test_readme_names_existing_coeffmatrix_symbols():
    names = re.findall(r"\bcoeffmatrix\.([A-Za-z_]\w*)", README.read_text())
    assert {"split_plan", "rank_signature"} <= set(names)
    assert _missing(names, coeffmatrix) == []


def test_readme_names_existing_pure_state_attributes():
    names = re.findall(r"\bPureState\.([A-Za-z_]\w*)", README.read_text())
    assert {"cleared", "residues", "split_ranks"} <= set(names)
    assert _missing(names, PureState) == []


def test_readme_lists_the_flags_of_each_subcommand():
    listed = {
        command: set(re.findall(r"`(--[\w-]+)", flags))
        for command, flags in re.findall(r"^- `(\w+) [A-Z]+`: (.*)$", README.read_text(), re.M)
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    given = {
        command: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        for command, parser in sub.choices.items()
    }
    assert listed == given
