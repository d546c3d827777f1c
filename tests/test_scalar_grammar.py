"""The term scanner against the split-then-match grammar of ``_oracles``.

Every input must give the same value, or the same error with the same
message and position, from ``parse_exact``, ``parse_float`` and
``parse_affine`` as from their references.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank.families import FamilyError, parse_affine
from sloccrank.scalars import ScalarFormatError, parse_exact, parse_float
from sloccrank.states import StateFormatError, parse_state
from _oracles import ref_parse_affine, ref_parse_exact, ref_parse_float

SYMBOLS = ("a", "b", "e", "E")
ALPHABET = "0123456789+-*/ ir2.eEab"

EXAMPLES = (
    "1 2", "1+-2", "1+-2*a", "-+2*a", "+-*a", "1/2/3", "r2*i", "2*i*i", "1/0", "0/0",
    " 1 / 00 ", "", " ", "-", "+", "1+", "1 + - ", "--1", "1e5", "1e+5*i", "2E-1",
    "1.5/2", "1./2", ".5e-3*i*r2", "1e999", "1e999 - 1e999", "1/2*i*r2", "i", "i*r2",
    "r2", "*i", "2*-3", "2*-3*a", "e", "e+2", "1*e - 1*f", "2*e*E", "1e5*e", "*a",
    "2*i*", "a*i", "i*2", "2a", "1/2*a + -1/2*b", "3 4 / 5 6*i - 7*r2",
)


def _outcome(parse, *args):
    try:
        return "value", parse(*args)
    except ScalarFormatError as exc:
        return "ScalarFormatError", str(exc), exc.position
    except FamilyError as exc:
        return "FamilyError", str(exc)


def _assert_same(text, base_pos=0):
    assert _outcome(parse_exact, text, base_pos) == _outcome(ref_parse_exact, text, base_pos)
    assert _outcome(parse_float, text, base_pos) == _outcome(ref_parse_float, text, base_pos)
    assert _outcome(parse_affine, text, SYMBOLS) == _outcome(ref_parse_affine, text, SYMBOLS)


@pytest.mark.parametrize("text", EXAMPLES)
def test_examples_match_reference(text):
    _assert_same(text)
    _assert_same(text, base_pos=7)


@st.composite
def term_strings(draw):
    """Well-formed sums of signed terms, whitespace anywhere."""
    terms = []
    for k in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(("", "-", "+") if k == 0 else ("+", "-")))
        number = str(draw(st.integers(0, 10**6)))
        if draw(st.booleans()):
            number += "/" + str(draw(st.integers(0, 50)))
        elif draw(st.booleans()):
            number += draw(st.sampled_from((".5", "e3", "E-2", ".25e+1")))
        unit = draw(st.sampled_from(("", "*i", "*r2", "*i*r2", "*a", "*e", "*E")))
        if draw(st.booleans()):
            number, unit = "", draw(st.sampled_from(("i", "r2", "i*r2", "a", "e")))
        terms.append(sign + number + unit)
    text = "".join(terms)
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=4)))
    for cut in reversed(cuts):
        text = text[:cut] + draw(st.sampled_from((" ", "  ", "\t"))) + text[cut:]
    return text


@st.composite
def mutated_strings(draw):
    """Well-formed strings with characters inserted, deleted or replaced."""
    text = draw(term_strings())
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(ALPHABET))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            text = text[:k] + ch + text[k:]
        elif edit == "delete":
            text = text[:k] + text[k + 1 :]
        else:
            text = text[:k] + ch + text[k + 1 :]
    return text


@settings(max_examples=400, deadline=None)
@given(term_strings(), st.integers(0, 40))
def test_well_formed_strings_match_reference(text, base_pos):
    _assert_same(text, base_pos)


@settings(max_examples=1500, deadline=None)
@given(mutated_strings(), st.integers(0, 40))
def test_mutated_strings_match_reference(text, base_pos):
    _assert_same(text, base_pos)


@settings(max_examples=1500, deadline=None)
@given(st.text(ALPHABET, max_size=12))
def test_random_strings_match_reference(text):
    _assert_same(text)


def test_whitespace_inside_a_number_joins_it():
    assert parse_exact("1 2") == 12
    assert parse_exact("3 4 / 5 6*i") == parse_exact("34/56*i")


# an amplitude's scalar error is at its faulty character, counted from the
# character after the opening quote (an empty literal: that character)
@pytest.mark.parametrize(
    "text, message, position",
    [
        ('{n: 1, amps: ["1", "2*x"]}', "bad scalar term '2*x'", 20),
        ('{n: 1, amps: ["1",  "1 +"]}', "dangling sign in scalar literal", 23),
        ('{n: 1, amps: ["1", " 1 / 0"]}', "zero denominator", 21),
        ('{n: 1, amps: ["1", "  "]}', "empty scalar literal", 20),
        ('{n: 1, amps: ["1.5", "1e999"]}', "non-finite scalar literal '1e999'", 22),
        ('{n: 1, amps: ["1", "0}', "unterminated string", 22),
        ('{n: 1, amps: ["1", "0" }', "expected ',' or ']'", 23),
        ('{n: 1, amps: ["1", "0"', "expected ',' or ']'", 22),
        ('{n: 1, amps: ["1", 0]}', "expected a string", 19),
        ('{n: 1, amps: ["1",]}', "expected a string", 18),
        ('{n: 1, amps: "1"}', "expected '['", 13),
    ],
)
def test_parse_state_error_positions(text, message, position):
    with pytest.raises(StateFormatError) as info:
        parse_state(text)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"
