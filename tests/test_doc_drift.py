"""The docs name only kernel symbols that exist.

Every bare identifier in double backticks in the ``_kernels`` module
docstring, and every ``_kernels.<name>`` in README.md, must be an
attribute of ``sloccrank._kernels``, every ``coeffmatrix.<name>`` in
README.md one of ``sloccrank.coeffmatrix``, and every ``PureState.<name>``
in README.md one of ``PureState``: a constant, routine or cache deleted
from the code must not live on in the prose.
"""

import re
from pathlib import Path

import sloccrank._kernels as kernels
import sloccrank.coeffmatrix as coeffmatrix
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
