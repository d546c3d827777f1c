"""``tools/bench_pairs.py`` refuses to write a BENCH file without a claim,
or from two checkouts whose benchmark code differs."""

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


def _checkout(root, run_py=b"print(1)\n", spec=b"{}\n"):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_bytes(run_py)
    (root / "BENCHMARK.json").write_bytes(spec)
    return root


@pytest.mark.parametrize("edit", ["perfbench", "BENCHMARK.json", "added file"])
def test_a_benchmark_that_differs_is_refused_before_anything_runs(edit, tmp_path, monkeypatch, capsys):
    tool = _bench_pairs()
    monkeypatch.setattr(tool, "run_once", lambda *a: pytest.fail("ran a benchmark"))
    parent = _checkout(tmp_path / "parent")
    if edit == "perfbench":
        change = _checkout(tmp_path / "change", run_py=b"print(2)\n")
    elif edit == "BENCHMARK.json":
        change = _checkout(tmp_path / "change", spec=b'{"paths": []}\n')
    else:
        change = _checkout(tmp_path / "change")
        (change / "perfbench" / "extra.py").write_bytes(b"")
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workloads", "verify_all",
            "--seed", "1", "--pairs", "2", "--claim", "none", "--output", str(out)]
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    assert "the benchmark differs" in capsys.readouterr().err
    assert not out.exists()


def test_bytecode_caches_do_not_count_as_a_difference(tmp_path, monkeypatch):
    tool = _bench_pairs()

    def run_once(*args):
        raise RuntimeError("past the check")

    monkeypatch.setattr(tool, "run_once", run_once)
    parent = _checkout(tmp_path / "parent")
    change = _checkout(tmp_path / "change")
    (change / "perfbench" / "__pycache__").mkdir()
    (change / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    argv = ["--parent", str(parent), "--change", str(change), "--workloads", "verify_all",
            "--seed", "1", "--pairs", "2", "--claim", "none", "--output", str(tmp_path / "B.json")]
    with pytest.raises(RuntimeError, match="past the check"):
        tool.main(argv)
