"""Graded-commutative arithmetic: signs, bases, canonical order."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from hilali import (Element, EngineError, UniverseMismatchError, basis,
                    dimension_series, format_element, parse_expression,
                    universe)
from hilali.algebra import KEY_BITS, Monomial, restrict_element
from hilali.errors import InhomogeneousError

from modelgen import random_element


def gen(uni, name):
    return Element.generator(uni, name)


def homogeneous_parts(e):
    """The element split by degree, as ``{degree: Element}``."""
    parts = {}
    for m, c in e.terms.items():
        d = e.universe.degree_of(m)
        parts.setdefault(d, Element(e.universe)).terms[m] = c
    return parts


@pytest.fixture
def mixed():
    return universe([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 5)])


def test_even_generators_commute(mixed):
    x1, x2 = gen(mixed, "x1"), gen(mixed, "x2")
    assert x1 * x1 == Element(mixed, {mixed.monomial({"x1": 2}): Fraction(1)})
    assert x1 * x2 == x2 * x1


def test_odd_generators_anticommute_and_square_to_zero(mixed):
    y1, y2 = gen(mixed, "y1"), gen(mixed, "y2")
    assert y2 * y1 == -(y1 * y2)
    assert (y1 * y1).is_zero
    assert ((y1 * y2) * (y1 * y2)).is_zero


def test_koszul_sign_even_times_odd(mixed):
    x1, y1 = gen(mixed, "x1"), gen(mixed, "y1")
    assert x1 * y1 == y1 * x1


def test_graded_commutativity_random():
    rng = random.Random(11)
    uni = universe([("a", 2), ("b", 4), ("u", 3), ("v", 5), ("w", 3)])
    for _ in range(40):
        da, db = rng.randint(2, 9), rng.randint(2, 9)
        a = random_element(rng, uni, da)
        b = random_element(rng, uni, db)
        sign = -1 if (da % 2) and (db % 2) else 1
        assert a * b == (b * a).scale(sign)


def test_associativity_random():
    rng = random.Random(12)
    uni = universe([("a", 2), ("u", 3), ("v", 5)])
    for _ in range(40):
        a = random_element(rng, uni, rng.randint(2, 8))
        b = random_element(rng, uni, rng.randint(2, 8))
        c = random_element(rng, uni, rng.randint(2, 8))
        assert (a * b) * c == a * (b * c)


def test_universe_mismatch_rejected():
    u1 = universe([("x", 2)])
    u2 = universe([("x", 4)])
    with pytest.raises(UniverseMismatchError):
        Element.generator(u1, "x") * Element.generator(u2, "x")


def test_basis_single_even():
    uni = universe([("x", 2)])
    assert [uni.format_monomial(m) for m in basis(uni, 4)] == ["x^2"]
    assert basis(uni, 3) == []
    assert [uni.format_monomial(m) for m in basis(uni, 0)] == ["1"]


def test_basis_mixed_pair():
    uni = universe([("x", 2), ("y", 3)])
    assert [uni.format_monomial(m) for m in basis(uni, 5)] == ["x*y"]


def test_basis_three_quadratics():
    uni = universe([("x1", 2), ("x2", 2), ("x3", 2)])
    names = {uni.format_monomial(m) for m in basis(uni, 4)}
    assert names == {"x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2"}


def test_basis_counts_match_generating_function():
    rng = random.Random(5)
    for _ in range(10):
        count = rng.randint(1, 5)
        specs = [(f"g{i}", rng.randint(2, 6)) for i in range(count)]
        uni = universe(specs)
        series = dimension_series(uni, 12)
        for d in range(13):
            assert len(basis(uni, d)) == series[d]


def test_basis_exact_degree_and_order(mixed):
    for d in range(12):
        monos = basis(mixed, d)
        assert all(mixed.degree_of(m) == d for m in monos)
        keys = [mixed.sort_key(m) for m in monos]
        assert keys == sorted(keys)
        assert len(set(monos)) == len(monos)


def test_basis_is_every_monomial_of_its_degree_in_canonical_order():
    # y3 (11) and y0*y1*y2 (3+3+5) share a degree, so subsets of different
    # sizes interleave in (exps, odds) order
    rng = random.Random(21)
    universes = [universe([("x1", 2), ("x2", 4), ("y0", 3), ("y1", 3),
                           ("y2", 5), ("y3", 11)])]
    for _ in range(8):
        universes.append(universe([(f"g{i}", rng.randint(2, 7))
                                   for i in range(rng.randint(1, 6))]))
    for uni in universes:
        evens = [g.degree for g in uni.evens]
        odds = [g.degree for g in uni.odds]
        for d in range(16):
            vectors = itertools.product(*[range(d // e + 1) for e in evens])
            subsets = [s for k in range(len(odds) + 1)
                       for s in itertools.combinations(range(len(odds)), k)]
            expected = sorted(
                (v, s) for v in vectors for s in subsets
                if sum(map(operator.mul, v, evens))
                + sum(odds[k] for k in s) == d)
            assert [(m.exps, m.odds) for m in basis(uni, d)] == expected, \
                (uni, d)


def test_degree_queries(mixed):
    e = gen(mixed, "x1") + gen(mixed, "x2")
    assert e.degree() == 2
    assert Element.zero(mixed).degree() is None
    inhomogeneous = gen(mixed, "x1") + gen(mixed, "y1")
    with pytest.raises(InhomogeneousError):
        inhomogeneous.degree()
    assert homogeneous_parts(inhomogeneous)[3] == gen(mixed, "y1")


def test_zero_coefficients_never_stored(mixed):
    x1 = gen(mixed, "x1")
    assert (x1 - x1).terms == {}
    assert x1.scale(0).is_zero


def test_unique_names_required():
    with pytest.raises(EngineError):
        universe([("x", 2), ("x", 4)])


def test_format_element_deterministic(mixed):
    e = gen(mixed, "y1") * gen(mixed, "y2") + gen(mixed, "x1").scale(Fraction(-3, 2)) * gen(mixed, "x2")
    assert format_element(e) == "-3/2*x1*x2 + y1*y2"


def test_monomial_takes_odd_names_in_universe_order_only(mixed):
    # a monomial carries no sign, and y2*y1 = -y1*y2
    assert mixed.monomial({"x1": 1}, ("y1", "y3")).odds == (0, 2)
    with pytest.raises(EngineError, match="not in universe order"):
        mixed.monomial(odd_names=("y2", "y1"))
    with pytest.raises(EngineError, match="appears twice"):
        mixed.monomial(odd_names=("y1", "y1"))


def test_restrict_element_into_reordered_odds_equals_parsing_there(mixed):
    texts = ["y1*y2", "x1*y1*y2*y3 - 2*y2*y3", "3/2*x2*y3*y1 + y1",
             "x1^2*y2 - y3*y2*y1"]
    for order in itertools.permutations(["y1", "y2", "y3"]):
        target = universe([("x2", 2)]
                          + [(name, mixed.by_name[name].degree)
                             for name in order] + [("x1", 2)])
        for text in texts:
            assert restrict_element(parse_expression(text, mixed), target) \
                == parse_expression(text, target), (order, text)
    dropped = universe([("x1", 2), ("y3", 5), ("y1", 3)])
    assert restrict_element(parse_expression("y1*y3 + x1*y1*y2", mixed),
                            dropped) == parse_expression("-y3*y1", dropped)


def test_key_divisibility_lcm_and_decoding_follow_the_exponents():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        ring = universe([(f"x{i}", 2 * rng.randint(1, 4)) for i in range(n)])
        monomials = [Monomial(tuple(rng.randint(0, 5) for _ in range(n)), ())
                     for _ in range(12)]
        for a in monomials:
            ka = ring.key(a)
            assert ring.key_exps(ka) == a.exps
            assert ring.key_degree(ka) == ring.degree_of(a)
            for b in monomials:
                kb = ring.key(b)
                assert ring.divides(ka, kb) == all(map(operator.le, a.exps,
                                                       b.exps)), (a, b)
                top = Monomial(tuple(map(max, a.exps, b.exps)), ())
                assert ring.lcm(ka, kb) == ring.key(top), (a, b)


def test_packed_key_rejects_a_degree_that_could_overflow_a_field():
    uni = universe([("x", 2), ("z", 4), ("y", 3)])
    # x^e y: the degree above the fields of x and z, each with its guard
    # bit, above one odd-index bit
    e = (1 << KEY_BITS) - 2
    top = Monomial((e, 0), (0,))
    width = KEY_BITS + 1
    assert uni.key(top) == ((2 * e + 3) << (2 * width + 1)) \
        + (e << (width + 1)) + 1
    for m in (Monomial((1 << KEY_BITS, 0), ()),
              # z's exponent fits, but x's could overflow in that degree
              Monomial((0, 1 << (KEY_BITS - 1)), ())):
        with pytest.raises(EngineError):
            uni.key(m)
    limit = 2 << KEY_BITS
    assert uni.key_weights(limit - 1)
    with pytest.raises(EngineError):
        uni.key_weights(limit)
    # no even generator, no exponent field
    assert universe([("y", 3)]).key_weights(10 ** 9) == ()
