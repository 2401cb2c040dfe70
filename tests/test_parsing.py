"""Expression grammar: inputs, error positions, round trips."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from hilali import Element, ParseError, format_element, parse_expression, universe

from dense_oracle import _normalize_word
from modelgen import random_element


@pytest.fixture
def uni():
    return universe([("x1", 2), ("x2", 6), ("y1", 11), ("y2", 17), ("y3", 13)])


def test_two_term_polynomial(uni):
    e = parse_expression("x1^6 + x2^2", uni)
    assert len(e.terms) == 2
    assert all(c == 1 for c in e.terms.values())
    assert e.degree() == 12


def test_zero(uni):
    assert parse_expression("0", uni).is_zero
    assert parse_expression(" 0 ", uni).is_zero


def test_coefficients_combine_across_commuting_factors(uni):
    e = parse_expression("3/2*x1*y1 - y1*x1", uni)
    expected = Element.from_monomial(
        uni, uni.monomial({"x1": 1}, ("y1",)), Fraction(1, 2))
    assert e == expected


def test_written_odd_order_normalizes_with_sign(uni):
    assert parse_expression("y2*y1", uni) == parse_expression("-y1*y2", uni)
    assert parse_expression("y3*y1*y2", uni) == parse_expression("y1*y2*y3", uni)


def test_every_written_order_of_three_odds_takes_the_oracle_sign(uni):
    for order in permutations(("y1", "y2", "y3")):
        for word in (order, order[:1] + ("x1",) + order[1:]):
            sign, mono = _normalize_word(uni, [uni.by_name[n] for n in word])
            assert parse_expression("*".join(word), uni) == \
                Element.from_monomial(uni, mono, sign), word


def test_unknown_generator_positioned(uni):
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + qq^2", uni)
    assert err.value.position == 5


def test_repeated_odd_generator_rejected(uni):
    with pytest.raises(ParseError):
        parse_expression("y1*y1", uni)
    with pytest.raises(ParseError):
        parse_expression("y1^2", uni)
    with pytest.raises(ParseError):
        parse_expression("y1*x1*y1", uni)


def test_malformed_syntax_positioned(uni):
    for text, pos in [("x1 + ", 5), ("^2", 0), ("x1 * * x2", 5), ("1/0", 2)]:
        with pytest.raises(ParseError) as err:
            parse_expression(text, uni)
        assert err.value.position == pos
    with pytest.raises(ParseError):
        parse_expression("", uni)


def test_rational_coefficients(uni):
    e = parse_expression("-5/3", uni)
    assert e == Element.one(uni).scale(Fraction(-5, 3))
    e = parse_expression("2*x1 - 1/2*x1", uni)
    assert e == Element.generator(uni, "x1").scale(Fraction(3, 2))


def test_whitespace_insignificant(uni):
    assert parse_expression("x1^6+x2^2", uni) == parse_expression(" x1^6  +  x2 ^ 2 ", uni)


def test_round_trip_random():
    rng = random.Random(23)
    uni = universe([("a", 2), ("b", 4), ("u", 3), ("v", 5), ("w", 7)])
    for _ in range(120):
        parts = Element.zero(uni)
        for _ in range(rng.randint(1, 3)):
            parts = parts + random_element(rng, uni, rng.randint(0, 12))
        text = format_element(parts)
        assert parse_expression(text, uni) == parts


def test_fuzz_never_crashes_with_foreign_exceptions():
    # any garbage must either parse or raise ParseError, nothing else
    rng = random.Random(99)
    uni = universe([("x1", 2), ("y1", 3)])
    alphabet = "x1y ^*+-/()23qz_"
    for _ in range(400):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 14)))
        try:
            parse_expression(text, uni)
        except ParseError:
            pass
