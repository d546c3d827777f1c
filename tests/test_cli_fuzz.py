"""Mutated state and registry files end in a documented exit code (0-4), never a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sloccrank.cli import main
from sloccrank.states import render_state
from sloccrank.tables import ghz

VALID_STATES = (
    '{n: 2, amps: ["1", "0", "0", "1"]}',
    '{n: 1, amps: ["1/2 + 1/2*i*r2", "-3*i"], labels: ["Q"]}',
    '{"n": 3, "amps": ["0.5", "0", "0", "1e-3", "0", "-2.5*i", "0", "1.0"]}',
    '{n: 4, amps: ["1", "0", "0", "r2", "0", "0", "0", "0",'
    ' "0", "0", "0", "0", "-i", "0", "0", "1/3"], labels: ["W", "X", "Y", "Z"]}',
)
# characters that move a mutation across the grammar: structure, numbers,
# scalar terms and qubit labels
ALPHABET = '{}[]:,"' + " \n" + "0123456789" + "+-*/.eEi" + "nr2" + "ABWXYZ" + "±é"

# a template for the rules-only family L_a2b2 of table 7, and a family with
# every rule form: predicate, intersect of split rules, bisep and empty
VALID_REGISTRY = json.dumps([
    {
        "name": "L_a2b2",
        "params": ["a", "b"],
        "amps": ["1*a", "0", "0", "1", "0", "1*b", "1", "0",
                 "0", "0", "1*b", "0", "0", "0", "0", "1*a"],
    },
    {
        "name": "X_ab",
        "params": ["a", "b"],
        "amps": ["1*a", "0", "0", "1*b", "0", "0", "0", "0",
                 "0", "0", "0", "0", "1*b", "0", "0", "1*a"],
        "split_rules": {"AB": ["a=0", "a!=0"]},
        "rules": [
            {"triple": "222", "predicate": "a!=±b & b!=0", "note": "generic"},
            {"triple": "144", "intersect": {"AB": 1}, "bisep": True},
            {"triple": "444", "empty": True},
        ],
    },
], indent=1)
# JSON structure and literals, template terms and the predicate grammar
REGISTRY_ALPHABET = '{}[]:,"' + " " + "01234" + "+-*/" + "=!&|±" + "abz_" + "ir2" + "Ltrue"


edits = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "replace")),
        st.integers(min_value=0, max_value=200),
        st.sampled_from(ALPHABET),
    ),
    min_size=1,
    max_size=4,
)
registry_edits = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "replace")),
        st.integers(min_value=0, max_value=len(VALID_REGISTRY)),
        st.sampled_from(REGISTRY_ALPHABET),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(text: str, ops) -> str:
    for op, at, ch in ops:
        at %= len(text) + 1
        if op == "insert":
            text = text[:at] + ch + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + ch + text[at + 1 :]
    return text


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(VALID_STATES), ops=edits, bits=st.sampled_from(("A", "AB", "X")))
def test_mutated_state_files_end_in_a_documented_exit_code(tmp_path_factory, base, ops, bits):
    path = tmp_path_factory.mktemp("fuzz") / "psi.state"
    path.write_text(_mutate(base, ops), encoding="utf-8")
    commands = (["ranks"], ["ranks", "--bits", bits], ["classify"], ["invariants"])
    for command in commands:
        for mode in ([], ["--mode", "numeric"]):
            argv = [command[0], str(path), *command[1:], *mode]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3, 4), (argv, code)


def _assert_documented_exit(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=registry_edits)
def test_mutated_registry_files_end_in_a_documented_exit_code(tmp_path_factory, ops):
    folder = tmp_path_factory.mktemp("fuzz")
    state_path = folder / "ghz4.state"
    state_path.write_text(render_state(ghz(4)), encoding="utf-8")
    registry = folder / "registry.json"
    registry.write_text(_mutate(VALID_REGISTRY, ops), encoding="utf-8")
    _assert_documented_exit(["classify", str(state_path), "--registry", str(registry)])
    _assert_documented_exit(["table", "7", "--samples", "1", "--registry", str(registry)])

