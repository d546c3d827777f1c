"""Mutated operator files parse or raise ``ValueError``, never another error.

Two mutation kinds: character edits of the file text (as in
``test_cli_fuzz``), and replacing one JSON node by another JSON value,
which reaches the entry and cell type checks that character edits
rarely reach.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank.slocc import (
    LocalOperatorSet,
    parse_operator_file,
    random_invertible_local,
    render_operator_file,
)
from _oracles import _floating
from test_cli_fuzz import _mutate


VALID_OPERATORS = (
    render_operator_file(random_invertible_local(2, 3)),
    render_operator_file(_floating(random_invertible_local(1, 5))),
    '[[["1/2", "r2"], ["-i", "1 + i*r2"]], [["0", "1"], ["1", "0"]]]',
)
# JSON structure and literals, scalar terms
OPERATOR_ALPHABET = '{}[]:,"' + " " + "0123456789" + "+-*/.eEi" + "r2" + "nul" + "±"
operator_edits = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "replace")),
        st.integers(min_value=0, max_value=max(map(len, VALID_OPERATORS))),
        st.sampled_from(OPERATOR_ALPHABET),
    ),
    min_size=1,
    max_size=4,
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(("1", "0", "12", "i", "")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.just("a"), inner, max_size=1),
    max_leaves=6,
)


def _replace_node(text: str, path, value) -> str:
    """Replace the JSON node reached by ``path`` (indices taken modulo length)."""
    data = json.loads(text)
    parent, key = None, None
    node = data
    for step in path:
        if not isinstance(node, list) or not node:
            break
        parent, key = node, step % len(node)
        node = node[key]
    if parent is None:
        return json.dumps(value)
    parent[key] = value
    return json.dumps(data)


mutated_operator_files = st.one_of(
    st.builds(_mutate, st.sampled_from(VALID_OPERATORS), operator_edits),
    st.builds(
        _replace_node,
        st.sampled_from(VALID_OPERATORS),
        st.lists(st.integers(0, 3), max_size=3),
        JSON_VALUES,
    ),
)


@settings(max_examples=300, deadline=None)
@given(mutated_operator_files)
def test_mutated_operator_files_parse_or_raise_value_error(text):
    try:
        parsed = parse_operator_file(text)
    except ValueError:
        return
    assert isinstance(parsed, LocalOperatorSet)
