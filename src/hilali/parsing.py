"""Expression grammar for elements of a generator universe.

    expr     := term (('+'|'-') term)*
    term     := [rational ('*')?] factor ('*' factor)*   |   rational
    factor   := name ('^' posint)?
    rational := int ('/' posint)?

Whitespace is insignificant; names match ``[A-Za-z][A-Za-z0-9_]*``.  Parsing
the output of :func:`hilali.algebra.format_element` is the identity.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, GeneratorUniverse, Monomial, _merge_odds
from .errors import ParseError


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
        elif ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, universe: GeneratorUniverse):
        self.tokens = _tokenize(text)
        self.universe = universe
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def take(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_number(self) -> int:
        tok = self.take()
        if tok.kind != "number":
            raise ParseError(f"expected a number, found {tok.text!r}", tok.pos)
        return int(tok.text)

    def parse(self) -> Element:
        total = Element.zero(self.universe)
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.take()
            sign = -1 if tok.text == "-" else 1
        total = total + self.parse_term(sign)
        while True:
            tok = self.peek()
            if tok.kind == "end":
                return total
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                total = total + self.parse_term(-1 if tok.text == "-" else 1)
            else:
                raise ParseError(f"expected '+' or '-', found {tok.text!r}", tok.pos)

    def parse_rational(self) -> Fraction:
        num = self.expect_number()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "/":
            self.take()
            dpos = self.peek().pos
            den = self.expect_number()
            if den == 0:
                raise ParseError("zero denominator", dpos)
            return Fraction(num, den)
        return Fraction(num)

    def parse_term(self, sign: int) -> Element:
        coeff = Fraction(sign)
        tok = self.peek()
        if tok.kind == "number":
            coeff *= self.parse_rational()
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.take()
                tok = self.peek()
                if tok.kind != "name":
                    raise ParseError("expected a generator after '*'", tok.pos)
            elif tok.kind != "name":
                # bare rational term
                return Element.one(self.universe).scale(coeff)
        elif tok.kind != "name":
            raise ParseError(f"expected a term, found {tok.text!r}", tok.pos)

        even_powers: dict[str, int] = {}
        odds: tuple[int, ...] = ()
        while True:
            tok = self.peek()
            if tok.kind != "name":
                break
            self.take()
            gen = self.universe.by_name.get(tok.text)
            if gen is None:
                raise ParseError(f"unknown generator {tok.text!r}", tok.pos)
            exp = 1
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "^":
                self.take()
                epos = self.peek().pos
                exp = self.expect_number()
                if exp < 1:
                    raise ParseError("exponent must be positive", epos)
            if gen.is_odd:
                # merge the factor into the ordered odd part; a swap of two
                # odd factors gives -1
                merged = None if exp > 1 else _merge_odds(
                    odds, self.universe.monomial(odd_names=(tok.text,)).odds)
                if merged is None:
                    raise ParseError(
                        f"odd generator {tok.text!r} repeated within one monomial", tok.pos)
                odd_sign, odds = merged
                coeff *= odd_sign
            else:
                even_powers[tok.text] = even_powers.get(tok.text, 0) + exp
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.take()
                tok = self.peek()
                if tok.kind != "name" and tok.kind != "number":
                    raise ParseError("expected a factor after '*'", tok.pos)
                if tok.kind == "number":
                    raise ParseError("coefficient must come first in a term", tok.pos)
            else:
                break
        mono = Monomial(self.universe.monomial(even_powers).exps, odds)
        return Element.from_monomial(self.universe, mono, coeff)


def parse_expression(text: str, universe: GeneratorUniverse) -> Element:
    """Parse ``text`` into an element of the universe.

    Raises :class:`ParseError` (with a character position) on malformed
    syntax, unknown generator names, or an odd generator repeated within one
    written monomial.
    """
    if text.strip() == "":
        raise ParseError("empty expression", 0)
    return _Parser(text, universe).parse()
