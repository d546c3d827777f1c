"""End-to-end CLI behaviour and the exit-code contract."""

import json

import pytest

import sloccrank.tables as tables_mod
from sloccrank.cli import main
from sloccrank.families import instantiate
from sloccrank.states import product_state, render_state, state
from sloccrank.tables import epr, ghz


@pytest.fixture
def ghz4_file(tmp_path):
    path = tmp_path / "ghz4.state"
    path.write_text(render_state(ghz(4)))
    return str(path)


@pytest.fixture
def eprepr_file(tmp_path):
    psi = product_state([(epr(), (1, 2)), (epr(), (3, 4))], 4)
    path = tmp_path / "eprepr.state"
    path.write_text(render_state(psi))
    return str(path)


def test_ranks_ghz4(ghz4_file, capsys):
    assert main(["ranks", ghz4_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.split("\t")[1] == "2" for line in lines)


def test_ranks_bits_flag(eprepr_file, capsys):
    assert main(["ranks", eprepr_file, "--bits", "AB"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_ranks_machine_output_round_trips(ghz4_file, capsys):
    assert main(["ranks", ghz4_file, "--output", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["signature"] == {k: 2 for k in ("A", "B", "C", "D", "AB", "AC", "AD")}
    assert data["mode"] == "exact"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.state"
    bad.write_text('{n: 2, amps: ["1", "?", "0", "0"]}')
    assert main(["ranks", str(bad)]) == 2
    assert "bad scalar term" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["ranks", "/nonexistent/state"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["verify", "not-a-check"]) == 1
    assert main(["nonsense"]) == 1


def test_exact_mode_on_float_file(tmp_path, capsys):
    path = tmp_path / "f.state"
    path.write_text('{n: 1, amps: ["0.5", "0.5"]}')
    assert main(["ranks", str(path), "--mode", "exact"]) == 3
    assert main(["ranks", str(path)]) == 0  # numeric fallback by default


def test_non_finite_amplitude_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "inf.state"
    path.write_text('{n: 1, amps: ["1e999", "0.5"]}')
    assert main(["ranks", str(path)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "Traceback" not in err


def test_classify_eprepr(eprepr_file, capsys):
    assert main(["classify", eprepr_file]) == 0
    out = capsys.readouterr().out
    assert "AB–CD" in out
    assert "triple: 144" in out
    assert "G_abcd" in out


def test_classify_ghz4_genuinely_entangled(ghz4_file, capsys):
    assert main(["classify", ghz4_file]) == 0
    out = capsys.readouterr().out
    assert "genuinely entangled" in out
    assert "triple: 222" in out


def test_classify_machine_fields(eprepr_file, capsys):
    assert main(["classify", eprepr_file, "--output", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["label"] == "AB–CD"
    assert data["partition"] == ["AB", "CD"]
    assert data["triple"] == [1, 4, 4]
    assert data["mode"] == "exact"
    families = {m["family"] for m in data["template_matches"]}
    assert "G_abcd" in families


def test_classify_four_qubit_degenerate_label(tmp_path, capsys):
    w3 = state(3, [0, 1, 1, 0, 1, 0, 0, 0])
    psi = product_state([(state(1, [1, 0]), (1,)), (w3, (2, 3, 4))], 4)
    path = tmp_path / "aw.state"
    path.write_text(render_state(psi))
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "A–BCD" in out


def test_invariants_command(tmp_path, capsys):
    path = tmp_path / "l13.state"
    path.write_text(render_state(instantiate("L_ab3", (1, 3))))
    assert main(["invariants", str(path), "--output", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dxy"] == "16"
    assert set(data) == {"dxy", "f1", "f2", "detAB", "detAC", "detAD"}


def test_invariants_requires_four_qubits(tmp_path, capsys):
    path = tmp_path / "epr.state"
    path.write_text(render_state(epr()))
    assert main(["invariants", str(path)]) == 3


def test_verify_pass_and_exit_codes(capsys):
    assert main(["verify", "dxy-covariance", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pass dxy-covariance")


def test_verify_machine_output(capsys):
    assert main(["verify", "kron-rank", "--trials", "5", "--output", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["check"] == "kron-rank" and data[0]["passed"]


def test_verify_counterexample_exit_code(monkeypatch, capsys):
    import sloccrank.checks as checks_mod
    from sloccrank.checks import CheckResult

    def failing(trials=1, seed=0):
        return CheckResult("kron-rank", trials, seed, False, ["trial 0: boom"])

    monkeypatch.setitem(checks_mod.CHECKS, "kron-rank", failing)
    assert main(["verify", "kron-rank", "--trials", "1", "--seed", "5"]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out and "seed=5" in out


def test_verify_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("SLOCC_RANK_SEED", "99")
    assert main(["verify", "matrix-transform", "--trials", "3"]) == 0
    assert "seed=99" in capsys.readouterr().out


def test_table_command(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("match") == 5


def test_table_command_machine(monkeypatch, capsys):
    monkeypatch.setattr(tables_mod, "SCAN_PER_SAMPLE", 20)
    assert main(["table", "8", "--samples", "4", "--output", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["table"] == 8 and data["passed"]
    verdicts = {row["row"]: row["verdict"] for row in data["rows"]}
    assert verdicts["L_ab3' 424"] == "match"  # unreachable row confirmed


def test_table_exit_code_on_mismatch(monkeypatch, capsys):
    import sloccrank.cli as cli_mod

    class FakeReport:
        table_id = 1
        title = "probe"
        passed = False
        rows = []

    monkeypatch.setattr(cli_mod, "run_table", lambda *a, **k: FakeReport())
    assert main(["table", "1"]) == 4


def test_registry_flag_extends_families(tmp_path, capsys):
    clone = [{
        "name": "G_clone",
        "params": ["a", "b", "c", "d"],
        "amps": ["1*a", "0", "0", "1*b", "0", "1*c", "1*d", "0",
                 "0", "1*d", "1*c", "0", "1*b", "0", "0", "1*a"],
    }]
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps(clone))
    state_path = tmp_path / "g.state"
    state_path.write_text(render_state(instantiate("G_abcd", (1, 2, 3, 4))))
    assert main([
        "classify", str(state_path), "--registry", str(reg_path), "--output", "machine",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    families = {m["family"] for m in data["template_matches"]}
    assert families == {"G_abcd", "G_clone"}
