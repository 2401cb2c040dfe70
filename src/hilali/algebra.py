"""Exact arithmetic in a free graded-commutative algebra over the rationals.

A universe fixes an ordered list of named generators.  Generators of even
degree behave like polynomial variables; generators of odd degree square to
zero and anticommute with each other.  Monomials are kept in a canonical form
(even exponent vector plus an ascending tuple of odd factors), so signs are
normalized eagerly and never accumulate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from .errors import EngineError, InhomogeneousError, UniverseMismatchError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

KEY_BITS = 16       # width of one even exponent's field in a packed key


@dataclass(frozen=True)
class Generator:
    """A named graded variable.  Parity is derived from the degree."""

    name: str
    degree: int
    index: int

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


@dataclass(frozen=True)
class Monomial:
    """Canonical product of generators.

    ``exps`` lists exponents of the even generators in universe order;
    ``odds`` lists positions (into the universe's odd sub-list) of the odd
    factors, strictly ascending.  The empty monomial is the algebra unit.
    """

    exps: tuple[int, ...]
    odds: tuple[int, ...]

    @property
    def word_length(self) -> int:
        return sum(self.exps) + len(self.odds)


class GeneratorUniverse:
    """An ordered, immutable family of generators with unique names."""

    def __init__(self, generators: tuple[Generator, ...]):
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise EngineError("generator names must be unique")
        for g in generators:
            if g.degree < 1:
                raise EngineError(f"generator {g.name} has degree {g.degree} < 1")
            if not _NAME_RE.match(g.name):
                raise EngineError(f"invalid generator name {g.name!r}")
        self.generators = generators
        self.evens = tuple(g for g in generators if not g.is_odd)
        self.odds = tuple(g for g in generators if g.is_odd)
        self.by_name = {g.name: g for g in generators}
        self._even_pos = {g.index: i for i, g in enumerate(self.evens)}
        self._odd_pos = {g.index: i for i, g in enumerate(self.odds)}
        self.unit = Monomial((0,) * len(self.evens), ())
        self._basis_cache: dict[int, list[Monomial]] = {}
        self._odd_by_degree: dict[int, list[tuple[int, ...]]] | None = None
        self._odd_keys: dict[tuple[int, ...], int] = {}
        # below the degree, the k-th even exponent's field, with its guard
        # bit, sits (KEY_BITS + 1) * (n - 1 - k) bits above the odd-subset
        # index, which takes len(odds) bits
        width, n, r = KEY_BITS + 1, len(self.evens), len(self.odds)
        self._key_shifts = tuple(range(r + width * (n - 1), r - 1, -width))
        self._degree_shift = r + width * n
        self._key_weights = tuple((g.degree << self._degree_shift) + (1 << s)
                                  for g, s in zip(self.evens, self._key_shifts))
        self._key_guards = sum(1 << (s + KEY_BITS) for s in self._key_shifts)
        self._key_limit = min((g.degree << KEY_BITS for g in self.evens),
                              default=None)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorUniverse) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"GeneratorUniverse({gens})"

    # -- monomial helpers --------------------------------------------------

    def monomial(self, even_powers: dict[str, int] | None = None,
                 odd_names: tuple[str, ...] = ()) -> Monomial:
        """Build a monomial from generator names.

        Odd names must come in universe order: a monomial carries no sign,
        and reordering odd factors changes the sign.
        """
        exps = [0] * len(self.evens)
        for name, e in (even_powers or {}).items():
            g = self.by_name[name]
            if g.is_odd:
                raise EngineError(f"{name} is odd; it cannot carry an exponent map entry")
            exps[self._even_pos[g.index]] = e
        positions = []
        for name in odd_names:
            g = self.by_name[name]
            if not g.is_odd:
                raise EngineError(f"{name} is even; list it in even_powers")
            positions.append(self._odd_pos[g.index])
        if len(set(positions)) != len(positions):
            raise EngineError("an odd generator appears twice in one monomial")
        if any(a > b for a, b in zip(positions, positions[1:])):
            raise EngineError(f"odd generators {odd_names} are not in universe "
                              "order")
        return Monomial(tuple(exps), tuple(positions))

    def degree_of(self, m: Monomial) -> int:
        d = 0
        for e, g in zip(m.exps, self.evens):
            d += e * g.degree
        for k in m.odds:
            d += self.odds[k].degree
        return d

    def sort_key(self, m: Monomial):
        """Canonical order: graded, then lex by exponent vector, then odd set."""
        return (self.degree_of(m), m.exps, m.odds)

    def format_monomial(self, m: Monomial) -> str:
        factors = []
        for e, g in zip(m.exps, self.evens):
            if e == 1:
                factors.append(g.name)
            elif e > 1:
                factors.append(f"{g.name}^{e}")
        for k in m.odds:
            factors.append(self.odds[k].name)
        return "*".join(factors) if factors else "1"

    # -- degree-indexed bases ---------------------------------------------

    def _odd_subsets_by_degree(self) -> dict[int, list[tuple[int, ...]]]:
        # Ascending odd subsets by degree, and the key of each subset: its
        # degree above its index in the lexicographic order of all of them,
        # built once per universe.
        if self._odd_by_degree is None:
            r = len(self.odds)
            subsets = sorted(subset for size in range(r + 1)
                             for subset in combinations(range(r), size))
            table: dict[int, list[tuple[int, ...]]] = {}
            for i, subset in enumerate(subsets):
                d = sum(self.odds[k].degree for k in subset)
                self._odd_keys[subset] = (d << self._degree_shift) + i
                table.setdefault(d, []).append(subset)
            self._odd_by_degree = table
        return self._odd_by_degree

    # -- packed monomial keys ----------------------------------------------

    def key_weights(self, top_degree: int) -> tuple[int, ...]:
        """The weight of each even exponent in :meth:`key`, for monomials
        of degree at most ``top_degree``: ``key(m)`` is the dot product of
        ``m.exps`` with the weights plus the key of ``m.odds``.  A degree
        in which an exponent could overflow its field raises
        :class:`EngineError`."""
        if self._key_limit is not None and top_degree >= self._key_limit:
            raise EngineError(f"degree {top_degree} is too large for packed "
                              f"monomial keys ({KEY_BITS}-bit exponents)")
        return self._key_weights

    def key(self, m: Monomial) -> int:
        """One integer label for a monomial, the engine's one key format.

        From the top: the weighted degree; one field per even exponent,
        the first most significant, each ``KEY_BITS`` wide with a guard
        bit above; the index of the odd subset in the lexicographic order
        of ascending tuples.  Keys therefore order monomials canonically
        (:meth:`sort_key`), and multiplying by an even monomial f, which
        leaves the odd part alone, adds its key: key(f*m) = key(f) +
        key(m).  :meth:`divides`, :meth:`lcm`, :meth:`key_exps` and
        :meth:`key_degree` read keys back.
        """
        self._odd_subsets_by_degree()       # fills self._odd_keys
        key = sum(map(mul, m.exps, self._key_weights)) + self._odd_keys[m.odds]
        # the degree field reads at least the degree, and exactly it unless
        # an exponent overflows, which the guard rejects either way
        self.key_weights(key >> self._degree_shift)
        return key

    def key_exps(self, key: int) -> tuple[int, ...]:
        """The even exponents of the monomial with this key."""
        mask = (1 << KEY_BITS) - 1
        return tuple((key >> s) & mask for s in self._key_shifts)

    def key_degree(self, key: int) -> int:
        """The degree of the monomial with this key."""
        return key >> self._degree_shift

    def divides(self, a: int, b: int) -> bool:
        """Whether the monomial with key a divides the one with key b, for
        monomials without odd factors: no exponent field of b - a borrows
        from its guard bit."""
        guards = self._key_guards
        return ((b | guards) - a) & guards == guards

    def lcm(self, a: int, b: int) -> int:
        """The key of the lcm of two monomials without odd factors."""
        return sum(map(mul, map(max, self.key_exps(a), self.key_exps(b)),
                       self._key_weights))

    def basis_keys(self, degree: int) -> list[int]:
        """:meth:`key` of each monomial of :meth:`basis`, in basis order.
        The basis keeps the monomials of one even exponent vector f
        together, so key(f) is a dot product once per f and each key one
        addition."""
        weights = self.key_weights(degree)
        odd_keys = self._odd_keys       # filled by basis()
        keys = []
        f = None
        for m in self._basis(degree):
            if m.exps is not f:
                f = m.exps
                shift = sum(map(mul, f, weights))
            keys.append(shift + odd_keys[m.odds])
        return keys

    def basis(self, degree: int) -> list[Monomial]:
        """All monomials of exactly the given degree, canonically ordered.

        The even exponent vectors are enumerated once, in ascending lex
        order, each with the degree left for its odd factors: every
        exponent but the last runs over all values that fit, and the last
        is solved for each odd-subset degree, in ascending order of that
        exponent.  Each vector then takes the ascending odd subsets of its
        degree.  That is the (exps, odds) order, so nothing is sorted.
        """
        return list(self._basis(degree))

    def _basis(self, degree: int) -> list[Monomial]:
        """The cached list behind :meth:`basis`, for readers that only
        count or scan it; it must not be mutated."""
        if degree < 0:
            raise EngineError("degree must be non-negative")
        if degree not in self._basis_cache:
            odd_table = self._odd_subsets_by_degree()
            partial = [((), degree)]        # (exponent prefix, degree left)
            for g in self.evens[:-1]:
                partial = [(prefix + (e,), left - e * g.degree)
                           for prefix, left in partial
                           for e in range(left // g.degree + 1)]
            if self.evens:
                last = self.evens[-1].degree
                odd_degrees = sorted(odd_table, reverse=True)
                partial = [(prefix + ((left - k) // last,), k)
                           for prefix, left in partial for k in odd_degrees
                           if k <= left and not (left - k) % last]
            self._basis_cache[degree] = [
                Monomial(exps, subset) for exps, left in partial
                for subset in odd_table.get(left, ())]
        return self._basis_cache[degree]


def universe(specs: list[tuple[str, int]]) -> GeneratorUniverse:
    """Build a universe from ``(name, degree)`` pairs in the given order."""
    gens = tuple(Generator(name, degree, i) for i, (name, degree) in enumerate(specs))
    return GeneratorUniverse(gens)


def _merge_odds(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two ascending odd tuples; return (sign, merged) or None if a
    factor repeats.  Each transposition of two odd factors contributes -1.
    This is the one sign rule for odd factors: products, the Leibniz
    kernel, the parser and :func:`restrict_element` all order through it."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    sign = 1
    merged = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i odd factors of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def _mul_monomials(a: Monomial, b: Monomial):
    odd = _merge_odds(a.odds, b.odds)
    if odd is None:
        return None
    sign, odds = odd
    exps = tuple(map(int.__add__, a.exps, b.exps))
    return sign, Monomial(exps, odds)


class Element:
    """Exact-rational linear combination of monomials over one universe."""

    __slots__ = ("universe", "terms")

    def __init__(self, universe: GeneratorUniverse,
                 terms: dict[Monomial, Fraction] | None = None):
        self.universe = universe
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c != 0:
                    self.terms[m] = Fraction(c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, universe: GeneratorUniverse,
             terms: dict[Monomial, Fraction]) -> "Element":
        # internal fast path: terms must already be nonzero Fractions
        out = cls.__new__(cls)
        out.universe = universe
        out.terms = terms
        return out

    @staticmethod
    def zero(universe: GeneratorUniverse) -> "Element":
        return Element(universe)

    @staticmethod
    def one(universe: GeneratorUniverse) -> "Element":
        return Element(universe, {universe.unit: Fraction(1)})

    @staticmethod
    def from_monomial(universe: GeneratorUniverse, m: Monomial,
                      coeff=Fraction(1)) -> "Element":
        return Element(universe, {m: Fraction(coeff)})

    @staticmethod
    def generator(universe: GeneratorUniverse, name: str) -> "Element":
        g = universe.by_name[name]
        if g.is_odd:
            m = universe.monomial(odd_names=(name,))
        else:
            m = universe.monomial({name: 1})
        return Element.from_monomial(universe, m)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Common degree of all terms; None for zero, error when mixed."""
        if not self.terms:
            return None
        degs = {self.universe.degree_of(m) for m in self.terms}
        if len(degs) > 1:
            raise InhomogeneousError(f"element mixes degrees {sorted(degs)}")
        return degs.pop()

    @property
    def is_homogeneous(self) -> bool:
        return len({self.universe.degree_of(m) for m in self.terms}) <= 1

    def top_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(self.universe.degree_of(m) for m in self.terms)

    def split_by_odd_count(self) -> dict[int, "Element"]:
        """Split by the number of odd factors (the lower grading)."""
        parts: dict[int, Element] = {}
        for m, c in self.terms.items():
            q = len(m.odds)
            parts.setdefault(q, Element(self.universe)).terms[m] = c
        return parts

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Element"):
        if self.universe != other.universe:
            raise UniverseMismatchError("operands live over different universes")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Element._raw(self.universe, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._raw(self.universe,
                            {m: -c for m, c in self.terms.items()})

    def scale(self, scalar) -> "Element":
        s = Fraction(scalar)
        if s == 0:
            return Element(self.universe)
        return Element._raw(self.universe,
                            {m: c * s for m, c in self.terms.items()})

    def __rmul__(self, scalar) -> "Element":
        return self.scale(scalar)

    def __mul__(self, other) -> "Element":
        if not isinstance(other, Element):
            return self.scale(other)
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                prod = _mul_monomials(ma, mb)
                if prod is None:
                    continue
                sign, m = prod
                s = out.get(m, 0) + (ca * cb if sign > 0 else -ca * cb)
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Element._raw(self.universe, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def format_element(e: Element) -> str:
    """Canonical text form; re-parsing it reproduces the element exactly."""
    if e.is_zero:
        return "0"
    uni = e.universe
    parts = []
    for m in sorted(e.terms, key=uni.sort_key):
        c = e.terms[m]
        mono = uni.format_monomial(m)
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def basis(uni: GeneratorUniverse, degree: int) -> list[Monomial]:
    """Complete, duplicate-free, canonically ordered basis in one degree."""
    return uni.basis(degree)


def dimension_series(uni: GeneratorUniverse, max_degree: int) -> list[int]:
    """Graded dimensions up to ``max_degree`` via the generating function
    prod 1/(1-t^deg x) * prod (1+t^deg y), truncated.  Independent of
    :func:`basis`; used to cross-check enumeration."""
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    for g in uni.evens:
        # multiply by 1/(1-t^d): running sums with stride d
        for i in range(g.degree, max_degree + 1):
            coeffs[i] += coeffs[i - g.degree]
    for g in uni.odds:
        for i in range(max_degree, g.degree - 1, -1):
            coeffs[i] += coeffs[i - g.degree]
    return coeffs


def restrict_element(e: Element, target: GeneratorUniverse) -> Element:
    """Project onto a sub-universe: monomials using a dropped generator are
    sent to zero; all kept generators must exist in the target (same names
    and degrees).  Kept odd factors are put in the target's order by
    :func:`_merge_odds`, so a reordered target takes the swap signs."""
    def positions(gens, target_pos):
        out = []
        for g in gens:
            tg = target.by_name.get(g.name)
            out.append(None if tg is None or tg.degree != g.degree
                       else target_pos[tg.index])
        return out

    even_map = positions(e.universe.evens, target._even_pos)
    odd_map = positions(e.universe.odds, target._odd_pos)
    terms = {}
    for m, c in e.terms.items():
        if any(x and even_map[i] is None for i, x in enumerate(m.exps)) or \
                any(odd_map[k] is None for k in m.odds):
            continue
        exps = [0] * len(target.evens)
        for x, i in zip(m.exps, even_map):
            if x:
                exps[i] = x
        sign, odds = 1, ()
        for k in m.odds:
            s, odds = _merge_odds(odds, (odd_map[k],))
            sign *= s
        # the map is injective, so no two terms land on one monomial
        terms[Monomial(tuple(exps), odds)] = c if sign > 0 else -c
    return Element._raw(target, terms)
