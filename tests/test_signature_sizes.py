"""``tools/signature_sizes.py`` times and checks signatures; a wrong one fails it."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "signature_sizes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("signature_sizes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_sizes_pass_their_checks(capsys):
    assert _tool().main(["--sizes", "3", "6", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 8
    assert all(line.endswith(" ok") for line in lines)


def test_a_wrong_reference_fails(monkeypatch, capsys):
    tool = _tool()
    real = tool.svd_signature
    monkeypatch.setattr(tool, "svd_signature", lambda psi: {k: r + 1 for k, r in real(psi).items()})
    assert tool.main(["--sizes", "6", "--kinds", "random", "--repeats", "1"]) == 1
    assert "WRONG" in capsys.readouterr().out
