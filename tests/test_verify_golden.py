"""``sloccrank verify all --output machine`` keeps its recorded bytes.

The files under ``tests/data/`` are the command's stdout, recorded once
from the per-trial checks; every later change to how the checks draw,
apply or rank must reproduce them byte for byte and exit 0.
"""

from pathlib import Path

import pytest

from sloccrank.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, args",
    [
        ("verify_all_seed3.json", ["--seed", "3"]),
        ("verify_all_seed0_trials25.json", ["--seed", "0", "--trials", "25"]),
        ("verify_all_seed11_trials25.json", ["--seed", "11", "--trials", "25"]),
    ],
)
def test_verify_all_output_is_byte_identical(capsys, name, args):
    assert main(["verify", "all", "--output", "machine"] + args) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()
