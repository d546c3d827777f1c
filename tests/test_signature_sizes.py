"""``tools/signature_sizes.py`` times and checks signatures; a wrong one fails it."""

import importlib.util
import random
from pathlib import Path

import pytest

from sloccrank import rank_signature

TOOL = Path(__file__).resolve().parents[1] / "tools" / "signature_sizes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("signature_sizes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_sizes_pass_their_checks(capsys):
    tool = _tool()
    assert tool.main(["--sizes", "3", "6", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 2 * len(tool.KINDS) == 12
    assert all(line.endswith(" ok") for line in lines)


def test_local_kinds_are_dense_and_of_rank_two():
    tool = _tool()
    for kind in ("ghz_local", "w_local"):
        psi = tool.KINDS[kind](6, random.Random(5))
        assert all(a != 0 for a in psi.amps)  # full support: the stacked-floor route
        assert rank_signature(psi).ranks == tool.rank_two_signature(6)


@pytest.mark.parametrize("kind", ["ghz_local", "w_local"])
def test_a_wrong_rank_two_reference_fails(kind, monkeypatch, capsys):
    tool = _tool()
    real = tool.rank_two_signature
    monkeypatch.setattr(tool, "rank_two_signature", lambda n: {k: 3 for k in real(n)})
    assert tool.main(["--sizes", "6", "--kinds", kind, "--repeats", "1"]) == 1
    assert "WRONG" in capsys.readouterr().out


def test_a_wrong_reference_fails(monkeypatch, capsys):
    tool = _tool()
    real = tool.svd_signature
    monkeypatch.setattr(tool, "svd_signature", lambda psi: {k: r + 1 for k, r in real(psi).items()})
    assert tool.main(["--sizes", "6", "--kinds", "random", "--repeats", "1"]) == 1
    assert "WRONG" in capsys.readouterr().out


def test_a_wrong_batched_signature_fails(monkeypatch, capsys):
    tool = _tool()
    real = tool.rank_signatures

    def wrong(states):
        sigs = real(states)
        key = next(iter(sigs[-1].ranks))
        sigs[-1].ranks[key] += 1
        return sigs

    monkeypatch.setattr(tool, "rank_signatures", wrong)
    assert tool.main(["--sizes", "6", "--repeats", "1"]) == 1
    out = capsys.readouterr().out
    assert out.count("WRONG") == 1 and "w_local" in out.splitlines()[-1]
