"""Field arithmetic and the scalar text grammar."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccrank.scalars import (
    ExactScalar,
    ScalarFormatError,
    I_OVER_SQRT2,
    common_denominator,
    is_float_literal,
    parse_exact,
    parse_float,
    render_exact,
)
from _oracles import random_exact_scalar

SQRT2 = math.sqrt(2.0)


def test_components_round_trip():
    x = ExactScalar.from_components(Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 6))
    assert (x.p, x.q, x.r, x.s) == (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 6))


def test_zero_iff_all_components_zero():
    assert ExactScalar(0).is_zero()
    assert not ExactScalar(0, 0, 0, 1).is_zero()
    assert ExactScalar(0) == 0


def test_arithmetic_matches_complex_evaluation():
    rng = random.Random(11)
    for _ in range(500):
        x = random_exact_scalar(rng)
        y = random_exact_scalar(rng)
        for op in ("add", "sub", "mul"):
            exact = getattr(x, f"__{op}__")(y)
            approx = {
                "add": x.to_complex() + y.to_complex(),
                "sub": x.to_complex() - y.to_complex(),
                "mul": x.to_complex() * y.to_complex(),
            }[op]
            assert abs(exact.to_complex() - approx) < 1e-9 * (1 + abs(approx))


def test_field_inverse_and_conjugation_1000_random():
    rng = random.Random(7)
    done = 0
    while done < 1000:
        x = random_exact_scalar(rng)
        y = random_exact_scalar(rng)
        if y.is_zero():
            continue
        done += 1
        assert (x * y) * y.inverse() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_conjugate_negates_imaginary_components():
    x = ExactScalar.from_components(1, 2, 3, 4)
    c = x.conjugate()
    assert (c.p, c.q, c.r, c.s) == (Fraction(1), Fraction(-2), Fraction(3), Fraction(-4))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ExactScalar(0).inverse()


def test_sqrt2_squares_to_two():
    r2 = ExactScalar(0, 0, 1, 0)
    assert r2 * r2 == 2
    assert I_OVER_SQRT2 * I_OVER_SQRT2 == ExactScalar(-1, 0, 0, 0, 2)


def test_parse_grammar_examples():
    x = parse_exact("1/2 + 1/2*i*r2")
    assert (x.p, x.q, x.r, x.s) == (Fraction(1, 2), 0, 0, Fraction(1, 2))
    assert parse_exact("1") == ExactScalar(1)
    assert parse_exact("-3/4*i") == ExactScalar.from_components(0, Fraction(-3, 4))
    assert parse_exact("2*r2 - 1*i*r2") == ExactScalar(0, 0, 2, -1)
    assert parse_exact(" 1 / 2 ") == ExactScalar(1, 0, 0, 0, 2)


def test_parse_rejects_bad_terms():
    for bad in ("", "1+", "x", "1**i", "1/0", "2.5"):
        with pytest.raises(ScalarFormatError):
            parse_exact(bad)


def _random_term_string(rng):
    bodies = ("{n}", "{n}/{d}", "{n}*i", "{n}/{d}*i", "{n}*r2", "{n}/{d}*r2", "{n}*i*r2",
              "{n}/{d}*i*r2", "i", "r2", "i*r2")
    out = []
    for k in range(rng.randint(1, 5)):
        sign = rng.choice(("", "-") if k == 0 else ("+", "-"))
        body = rng.choice(bodies).format(n=rng.randint(0, 40), d=rng.randint(1, 9))
        out.append(rng.choice(("", " ")) + sign + rng.choice(("", " ")) + body)
    return "".join(out)


def test_exact_and_float_parsers_agree_on_random_terms():
    rng = random.Random(5)
    for _ in range(500):
        text = _random_term_string(rng)
        exact = parse_exact(text).to_complex()
        assert abs(parse_float(text) - exact) < 1e-12 * (1 + abs(exact)), text


def test_exponent_is_not_exact_grammar():
    for bad in ("1e5", "1e+5", "1E-2*i"):
        with pytest.raises(ScalarFormatError):
            parse_exact(bad)
    assert parse_float("1e+5 - 2E-1*i") == complex(1e5, -0.2)


def test_float_literal_detection():
    assert is_float_literal("0.5")
    assert is_float_literal("1e-3")
    assert not is_float_literal("1/2 + 1/2*i*r2")


def test_parse_float_rejects_non_finite_values():
    for bad in ("1e999", "-1e999*i", "1e308 + 1e308", "1e999 - 1e999"):
        with pytest.raises(ScalarFormatError, match="non-finite"):
            parse_float(bad)
    assert parse_float("1e308") == 1e308


def test_parse_float_values():
    assert parse_float("0.5 + 2*i") == 0.5 + 2j
    assert abs(parse_float("1*r2") - SQRT2) < 1e-15
    assert abs(parse_float("-1/2*i*r2") - complex(0, -SQRT2 / 2)) < 1e-15


@st.composite
def exact_scalars(draw):
    def rat():
        return Fraction(
            draw(st.integers(min_value=-50, max_value=50)),
            draw(st.integers(min_value=1, max_value=20)),
        )

    return ExactScalar.from_components(rat(), rat(), rat(), rat())


@settings(max_examples=200, deadline=None)
@given(exact_scalars())
def test_render_parse_round_trip(x):
    assert parse_exact(render_exact(x)) == x


def test_render_canonical_forms():
    assert render_exact(ExactScalar(0)) == "0"
    assert render_exact(I_OVER_SQRT2) == "1/2*i*r2"
    assert render_exact(ExactScalar.from_components(Fraction(1, 2), 0, 0, Fraction(1, 2))) == (
        "1/2 + 1/2*i*r2"
    )
    assert render_exact(ExactScalar(-1, -1)) == "-1 - 1*i"


def test_common_denominator():
    vals = [ExactScalar(1, 0, 0, 0, 2), ExactScalar(0, 1, 0, 0, 3)]
    quads, den = common_denominator(vals)
    assert den == 6
    assert quads == [(3, 0, 0, 0), (0, 2, 0, 0)]


def test_hash_consistent_with_equality():
    a = ExactScalar(2, 4, 6, 8, 2)
    b = ExactScalar(1, 2, 3, 4)
    assert a == b and hash(a) == hash(b)


def test_rational_scalars_hash_like_int_and_fraction():
    assert 1 in {ExactScalar(1)}
    assert ExactScalar(1) in {1}
    assert Fraction(1, 2) in {ExactScalar(1, 0, 0, 0, 2)}
    assert ExactScalar(-3, 0, 0, 0, 4) in {Fraction(-3, 4)}
    table = {ExactScalar(0): "zero", ExactScalar(5, 0, 0, 0, 10): "half", I_OVER_SQRT2: "i/r2"}
    assert table[0] == "zero"
    assert table[Fraction(1, 2)] == "half"
    assert table[ExactScalar(0, 0, 0, 1, 2)] == "i/r2"
    assert {ExactScalar(2), 2, Fraction(4, 2)} == {2}


def _fraction_product(x, y):
    """(p, q, r, s) of x * y from the rational components, with i**2 = -1, sqrt2**2 = 2."""
    p1, q1, r1, s1 = x
    p2, q2, r2, s2 = y
    return (
        p1 * p2 - q1 * q2 + 2 * (r1 * r2 - s1 * s2),
        p1 * q2 + q1 * p2 + 2 * (r1 * s2 + s1 * r2),
        p1 * r2 + r1 * p2 - q1 * s2 - s1 * q2,
        p1 * s2 + s1 * p2 + q1 * r2 + r1 * q2,
    )


COMPONENT = st.integers(-60, 60)
DENOMINATOR = st.one_of(st.just(1), st.just(-1), st.integers(-12, 12).filter(bool))
RAW = st.tuples(COMPONENT, COMPONENT, COMPONENT, COMPONENT, DENOMINATOR)


@settings(max_examples=400, deadline=None)
@given(RAW, RAW)
def test_sum_difference_and_product_are_fully_normalised(raw_x, raw_y):
    x, y = ExactScalar(*raw_x), ExactScalar(*raw_y)
    fx = tuple(Fraction(c, raw_x[4]) for c in raw_x[:4])
    fy = tuple(Fraction(c, raw_y[4]) for c in raw_y[:4])
    want = {
        "+": tuple(a + b for a, b in zip(fx, fy)),
        "-": tuple(a - b for a, b in zip(fx, fy)),
        "*": _fraction_product(fx, fy),
    }
    for op, got in (("+", x + y), ("-", x - y), ("*", x * y)):
        assert got.den > 0
        assert math.gcd(got.a, got.b, got.c, got.d, got.den) == 1
        assert (got.p, got.q, got.r, got.s) == want[op]
        # the normal form is unique, so it matches a construction from the components
        assert got == ExactScalar.from_components(*want[op])
    assert (x - y) == x + (-y) and (3 - x) == ExactScalar(3) + (-x)
