"""End-to-end CLI behaviour and the exit-code contract."""

import json

import pytest

import sloccrank.tables as tables_mod
from sloccrank.cli import build_parser, main
from sloccrank.coeffmatrix import enumerate_bipartitions
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


@pytest.mark.parametrize("text, message, position", [
    ("{n: \u00b2, amps: []}", "expected an integer", 4),
    ("{n: -, amps: []}", "expected an integer", 4),
    ("{n: " + "1" * 5000 + ", amps: []}", "integer literal too long", 4),
    ('{n: 1, amps: ["1", "2 + ' + "3" * 5000 + '*i"]}', "integer literal too long", 24),
], ids=["superscript-qubit-count", "sign-only-qubit-count", "long-qubit-count", "long-amplitude"])
def test_unreadable_integer_is_a_parse_error(text, message, position, tmp_path, capsys):
    path = tmp_path / "int.state"
    path.write_text(text, encoding="utf-8")
    assert main(["ranks", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} (at position {position})\n"


@pytest.mark.parametrize("text, field, position", [
    ('{n: 2, n: 2, amps: ["1", "0", "0", "1"]}', "n", 7),
    ('{n: 2, amps: ["1","0","0","1"], amps: ["1","0","0","0"]}', "amps", 32),
    ('{n: 1, amps: ["1", "1"], labels: ["A"], "labels": ["B"]}', "labels", 40),
], ids=["n", "amps", "quoted-labels"])
def test_repeated_field_is_a_parse_error(text, field, position, tmp_path, capsys):
    path = tmp_path / "repeated.state"
    path.write_text(text)
    assert main(["ranks", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: duplicate field '{field}' (at position {position})\n"


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


def test_classify_one_qubit_is_not_genuinely_entangled(tmp_path, capsys):
    path = tmp_path / "one.state"
    path.write_text('{n: 1, amps: ["1", "i"]}')
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "genuinely entangled" not in out
    assert out.splitlines()[0] == "label: A"
    assert main(["classify", str(path), "--output", "machine"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["genuinely_entangled"] is False
    assert result["label"] == "A" and result["signature"] == {}


@pytest.mark.parametrize("mode", [[], ["--mode", "numeric"]])
def test_classify_computes_one_signature(mode, tmp_path, monkeypatch, capsys):
    from sloccrank import coeffmatrix

    path = tmp_path / "counter.state"
    path.write_text(render_state(state(4, list(range(1, 17)))))
    splits = []
    real_split_rank = coeffmatrix._split_rank

    def spy(psi, plan, *rest):
        splits.append(plan.key)
        return real_split_rank(psi, plan, *rest)

    # every split rank of a state, exact or floating, memoised or not, asks here
    monkeypatch.setattr(coeffmatrix, "_split_rank", spy)
    assert main(["classify", str(path), "--output", "machine", *mode]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["template_matches"] == []
    assert data["triple"] == [2, 2, 2]
    assert sorted(splits) == sorted(bp.canonical_key() for bp in enumerate_bipartitions(4))


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


@pytest.mark.parametrize("trials", [0, -5])
def test_run_check_rejects_empty_trial_counts(trials):
    from sloccrank.checks import run_check

    with pytest.raises(ValueError, match="trials"):
        run_check("kron-rank", trials=trials)


def _refuse_to_run(monkeypatch):
    """Every check fails the test if it is run, so nothing is drawn."""
    import sloccrank.checks as checks_mod

    def refuse(*args, **kwargs):
        raise AssertionError("ran a check")

    for name in checks_mod.CHECKS:
        monkeypatch.setitem(checks_mod.CHECKS, name, refuse)


@pytest.mark.parametrize("excess", [1, 10**20])
def test_run_check_refuses_trials_above_the_bound_before_drawing(excess, monkeypatch):
    from sloccrank.checks import CHECKS, MAX_TRIALS, run_check

    _refuse_to_run(monkeypatch)
    for name in CHECKS:
        with pytest.raises(ValueError, match=f"trials must be at most {MAX_TRIALS}"):
            run_check(name, trials=MAX_TRIALS + excess)


@pytest.mark.parametrize("excess", [1, 10**20])
def test_cli_refuses_trials_above_the_bound(excess, monkeypatch, capsys):
    from sloccrank.checks import MAX_TRIALS

    _refuse_to_run(monkeypatch)
    assert main(["verify", "all", "--trials", str(MAX_TRIALS + excess)]) == 1
    captured = capsys.readouterr()
    assert f"must be an integer <= {MAX_TRIALS}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert build_parser().parse_args(["verify", "all", "--trials", str(MAX_TRIALS)]).trials == MAX_TRIALS


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


@pytest.mark.parametrize("argv", [
    ["verify", "kron-rank", "--trials", "0"],
    ["verify", "kron-rank", "--trials", "-1"],
    ["verify", "all", "--trials", "x"],
    ["table", "5", "--samples", "0"],
    ["table", "5", "--samples", "-3"],
])
def test_gate_that_checks_nothing_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "must be an integer >= 1" in captured.err
    assert "pass" not in captured.out and "match" not in captured.out
    assert "Traceback" not in captured.err


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.state"
    path.write_text('{n: 2, amps: ["1", "0", "0", "1"]}')
    return str(path)


# "1" and "2" would put the cutoff at or above sigma_max, so every rank would read 0
@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-inf", "abc", "1", "2"])
def test_tolerance_must_be_finite_and_non_negative(bell_file, tolerance, capsys):
    assert main(["ranks", bell_file, "--mode", "numeric", "--tolerance", tolerance]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tolerance" in captured.err
    assert "Traceback" not in captured.err


def test_zero_tolerance_is_accepted(bell_file, capsys):
    assert main(["ranks", bell_file, "--mode", "numeric", "--tolerance", "0"]) == 0
    assert capsys.readouterr().out.split() == ["A", "2"]


@pytest.mark.parametrize("argv", [
    ["verify", "matrix-transform", "--trials", "3"],
    ["table", "1"],
])
def test_malformed_env_seed_is_a_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setenv("SLOCC_RANK_SEED", "abc")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "SLOCC_RANK_SEED" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_explicit_seed_ignores_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("SLOCC_RANK_SEED", "abc")
    assert main(["verify", "matrix-transform", "--trials", "3", "--seed", "7"]) == 0
    assert "seed=7" in capsys.readouterr().out


REGISTRY_DEFECTS = {
    "malformed-json": "[{",
    "non-object-entry": "[1]",
    "entry-without-name": '[{"params": ["a"]}]',
    "rule-without-triple": '[{"name": "x", "rules": [{"predicate": ""}]}]',
    "intersect-out-of-range": json.dumps([{
        "name": "x",
        "params": ["a"],
        "split_rules": {"AB": ["a=0", "a!=0"]},
        "rules": [{"triple": "111", "intersect": {"AB": 3}}],
    }]),
    "undeclared-predicate-symbol": json.dumps([{
        "name": "x",
        "params": ["a"],
        "rules": [{"triple": "111", "predicate": "z!=0"}],
    }]),
    "repeated-parameter": json.dumps([{
        "name": "x",
        "params": ["a", "a"],
        "amps": ["1*a"] + ["0"] * 14 + ["1"],
    }]),
    "empty-not-boolean": json.dumps([{"name": "x", "rules": [{"triple": "444", "empty": "no"}]}]),
    "bisep-not-boolean-or-string": json.dumps([{
        "name": "x",
        "rules": [{"triple": "444", "predicate": "", "bisep": 5}],
    }]),
    "intersect-index-boolean": json.dumps([{
        "name": "x",
        "params": ["a"],
        "split_rules": {"AB": ["a=0", "a!=0"]},
        "rules": [{"triple": "111", "intersect": {"AB": True}}],
    }]),
    "unknown-split": json.dumps([{"name": "x", "params": ["a"], "split_rules": {"XY": ["a=0"]}}]),
}


@pytest.mark.parametrize("text", REGISTRY_DEFECTS.values(), ids=REGISTRY_DEFECTS)
def test_malformed_registry_is_a_usage_error(text, ghz4_file, tmp_path, capsys):
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(text)
    assert main(["classify", ghz4_file, "--registry", str(reg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_registry_null_is_refused_as_the_wrong_kind(ghz4_file, tmp_path, capsys):
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps([{"name": "x", "rules": [{"triple": "444", "bisep": None}]}]))
    assert main(["classify", ghz4_file, "--registry", str(reg_path)]) == 1
    assert capsys.readouterr().err == (
        "error: family 'x' rule: 'bisep' must be a JSON boolean or string\n"
    )


@pytest.mark.parametrize("bits", ["AX", "AA", "ABCD", ""])
def test_bits_must_name_a_proper_split(bits, ghz4_file, capsys):
    assert main(["ranks", ghz4_file, "--bits", bits]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bits" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("case", [
    "state-is-directory", "registry-is-directory", "state-not-utf8", "registry-not-utf8",
])
def test_unreadable_input_file_is_a_parse_error(case, ghz4_file, tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe{n: 1}")
    argv = {
        "state-is-directory": ["ranks", str(tmp_path)],
        "registry-is-directory": ["classify", ghz4_file, "--registry", str(tmp_path)],
        "state-not-utf8": ["ranks", str(binary)],
        "registry-not-utf8": ["classify", ghz4_file, "--registry", str(binary)],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("rows", [
    [],
    [tables_mod.RowReport("L_a4 434", "434", "-", "skipped: no template")],
], ids=["empty", "all-skipped"])
def test_table_that_validated_nothing_exits_4(rows, monkeypatch, capsys):
    import sloccrank.cli as cli_mod

    report = tables_mod.TableReport(7, "probe", rows)
    monkeypatch.setattr(cli_mod, "run_table", lambda *a, **k: report)
    assert main(["table", "7"]) == 4
    out = capsys.readouterr().out
    assert out.endswith(f"validated 0 rows, {len(rows)} skipped (no template)\n")
    assert main(["table", "7", "--output", "machine"]) == 4
    data = json.loads(capsys.readouterr().out)
    assert (data["passed"], data["validated"], data["skipped"]) == (False, 0, len(rows))


def test_table_command_counts_validated_rows(capsys):
    assert main(["table", "1", "--output", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["validated"], data["skipped"]) == (5, 0)


@pytest.mark.parametrize("labels", ['["A", "A", "B", "C"]', '["AB", "C", "D", "E"]'])
def test_colliding_labels_are_a_parse_error(labels, tmp_path, capsys):
    path = tmp_path / "labels.state"
    path.write_text('{n: 4, amps: ["1"' + ', "0"' * 14 + ', "1"], labels: ' + labels + "}")
    assert main(["ranks", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "distinct single characters" in captured.err and "Traceback" not in captured.err


# the common flags each subcommand reads; every other one is refused
READS = {
    "ranks": ("mode", "tolerance", "output"),
    "classify": ("mode", "tolerance", "output", "registry"),
    "invariants": ("mode", "output"),
    "verify": ("seed", "output"),
    "table": ("seed", "output", "registry"),
}
COMMON = {"mode": "exact", "tolerance": "0.1", "seed": "3", "output": "machine", "registry": None}


def _command(name, ghz4_file):
    return {"verify": ["verify", "kron-rank"], "table": ["table", "1"]}.get(name, [name, ghz4_file])


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in READS.items() for flag in COMMON if flag not in flags
])
def test_a_common_flag_the_subcommand_does_not_read_is_refused(command, flag, ghz4_file, capsys):
    value = COMMON[flag] or ghz4_file
    assert main(_command(command, ghz4_file) + [f"--{flag}", value]) == 1
    captured = capsys.readouterr()
    assert f"unrecognized arguments: --{flag}" in captured.err and captured.out == ""


def test_each_subcommand_reads_its_common_flags(ghz4_file):
    assert sum(len(flags) for flags in READS.values()) == 14
    parser = build_parser()
    for command, flags in READS.items():
        argv = _command(command, ghz4_file)
        for flag in flags:
            args = parser.parse_args(argv + [f"--{flag}", COMMON[flag] or ghz4_file])
            assert getattr(args, flag) is not None
