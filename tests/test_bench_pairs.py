"""``tools/bench_pairs.py`` refuses to write a BENCH file without a claim."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_claim_is_required_before_anything_runs(tmp_path, monkeypatch, capsys):
    tool = _bench_pairs()
    monkeypatch.setattr(tool, "run_once", lambda *a: pytest.fail("ran a benchmark"))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workloads", "verify_all",
            "--seed", "1", "--pairs", "2", "--output", str(out)]
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    assert "--claim" in capsys.readouterr().err
    assert not out.exists()
