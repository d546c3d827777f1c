"""Mutated state files end in a documented exit code (0-4), never a traceback."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sloccrank.cli import main

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

edits = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "replace")),
        st.integers(min_value=0, max_value=200),
        st.sampled_from(ALPHABET),
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
