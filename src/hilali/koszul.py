"""Finite-length quotients of a polynomial ring, regular sequences, the
odd-basis search for pure models, Koszul homology and the Tor table, and the
complete-intersection duality pairing.

The central primitive is :func:`quotient_basis`: ``R/(P_1..P_k)`` with the
monomial basis of a Groebner basis G of the ideal I, computed by
Buchberger's algorithm on integer, primitive polynomials in the order of
``GeneratorUniverse.basis`` (weighted degree, then lex on exponent
vectors), a degree-compatible monomial order.  By Macaulay's basis theorem
the monomials that no leading term of G divides are a basis of R/I, for
filtered (inhomogeneous) relations as for graded ones, and R/I has finite
length exactly when every variable has a pure power among the leading
terms (B. Buchberger, PhD thesis, Innsbruck 1965; Cox, Little and O'Shea,
*Ideals, Varieties, and Algorithms*, ch. 2 §6-§10 and ch. 5 §3).

Reductions modulo I go through an :class:`~hilali.linalg.Rref` span whose
columns are the negated packed keys of the monomials, so each row's pivot
is its leading monomial.  The span holds one fully reduced row per
non-standard monomial m that a reduction has reached: a primitive multiple
of m - NF(m), NF the normal form modulo G, built when first needed from
x^shift * g, for the first g in G whose leading term divides m.  Its only
non-standard column is its pivot, so a vector is reduced by one
elimination per non-standard term, and its canonical remainder is its
normal form.  By Macaulay's basis theorem that row is unique: no row is
ever dependent, and no remainder or scale depends on which rows were built
first.

A multiplication matrix is integer columns and one denominator, and every
row that reaches elimination is an integer row.  The Koszul complex
``M (x) Lambda^* W`` behind :func:`tor_table` is built from the integer
columns, which changes no Tor dimension.  The k faces of a k-subset are k
distinct (k-1)-subsets, so each row of d_k is the signed columns of its k
actions placed in disjoint blocks, and no entry is ever summed.  The
complex is cleared top-down: a row of d_k at a pivot column of d_{k+1} is
never built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, product
from math import comb, gcd, lcm

from .algebra import (Element, GeneratorUniverse, Monomial, restrict_element,
                      universe)
from .errors import (ContradictionError, EngineError, IndeterminateError,
                     ModelError, NotFiniteLengthError, UniverseMismatchError)
from .linalg import Rref, intify, rank_of_rows
from .model import Model, classify


def _subtract(f: dict[int, int], a: int, g: dict[int, int], shift: int,
              c: int) -> dict[int, int]:
    """a * f - c * x^shift * g, for integer polynomials on keys; f is
    updated in place when a is 1."""
    out = {k: a * v for k, v in f.items()} if a != 1 else f
    for k, v in g.items():
        k += shift
        w = out.get(k, 0) - c * v
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def _normal_form(ring: GeneratorUniverse, f: dict[int, int],
                 basis: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """The remainder of an integer polynomial f on the keys of ``ring``,
    on division by the ``(lead, poly)`` pairs of ``basis``, fraction-free:
    each step cancels the largest term a lead divides by the smallest
    integer multiples, and drops the content a non-unit multiple leaves.
    It is primitive with a positive leading coefficient, or ``{}``."""
    f, rest = dict(f), {}
    while f:
        top = max(f)
        for lead, g in basis:
            if ring.divides(lead, top):
                break
        else:
            rest[top] = f.pop(top)
            continue
        h = gcd(g[lead], f[top])
        a, c = g[lead] // h, f[top] // h
        f = _subtract(f, a, g, top - lead, c)
        if a != 1:
            rest = {k: a * v for k, v in rest.items()}
            h = gcd(*f.values(), *rest.values())
            if h > 1:
                f = {k: v // h for k, v in f.items()}
                rest = {k: v // h for k, v in rest.items()}
    if not rest:
        return rest
    h = gcd(*rest.values())
    if rest[max(rest)] < 0:
        h = -h
    return {k: v // h for k, v in rest.items()} if h != 1 else rest


def _groebner(ring: GeneratorUniverse, polys: list[dict[int, int]], reach
              ) -> list[tuple[int, dict[int, int]]]:
    """The reduced Groebner basis of the integer ``polys``, as ``(lead,
    poly)`` pairs in increasing lead order.

    Buchberger's algorithm as Cox, Little and O'Shea improve it (ch. 2
    §10): pairs go in increasing lcm order, skipping those whose leads are
    coprime (the product criterion) or whose lcm a third lead divides with
    both of its pairs with them treated (the chain criterion).
    ``reach(degree)`` gets the lcm degree of every pair reduced.
    """
    basis: list[tuple[int, dict[int, int]]] = []
    pairs: list[tuple[int, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def add(poly):
        lead = max(poly)
        j = len(basis)
        for i, (other, _) in enumerate(basis):
            heappush(pairs, (ring.lcm(other, lead), i, j))
            pending.add((i, j))
        basis.append((lead, poly))

    for poly in polys:
        poly = _normal_form(ring, poly, basis)
        if poly:
            add(poly)
    while pairs:
        top, i, j = heappop(pairs)
        pending.discard((i, j))
        (a, f), (b, g) = basis[i], basis[j]
        if top == a + b or any(
                ring.divides(c, top) and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                for k, (c, _) in enumerate(basis) if k != i and k != j):
            continue
        reach(ring.key_degree(top))
        h = gcd(f[a], g[b])
        s = _subtract({k + top - a: v for k, v in f.items()}, g[b] // h,
                      g, top - b, f[a] // h)
        poly = _normal_form(ring, s, basis)
        if poly:
            add(poly)
    minimal = [(lead, poly) for lead, poly in basis
               if not any(other != lead and ring.divides(other, lead)
                          for other, _ in basis)]
    return sorted((lead, _normal_form(ring, poly, [
        pair for pair in minimal if pair[0] != lead]))
        for lead, poly in minimal)


class QuotientModule:
    """``R/(P_1..P_k)`` with its monomial basis, built by
    :func:`quotient_basis` from the reduced Groebner basis G of the ideal.

    ``standard_basis`` is the monomials that no leading term of G divides,
    in the order of ``GeneratorUniverse.basis``.  ``graded`` says whether
    every relation is homogeneous: :func:`duality_pairing` then pairs
    graded pieces.  The span holds a row for each non-standard monomial a
    reduction has reached, and for no other (see the module docstring).  A
    reduced vector is an integer vector, scaled once where it is formed,
    and comes back as an integer remainder with one scale: :meth:`reduce`
    divides at the end, and :meth:`multiplication_matrix` keeps integer
    columns and one denominator.
    """

    def __init__(self, ring: GeneratorUniverse, relations: list[Element],
                 groebner: list[tuple[int, dict[int, int]]],
                 standard: list[int]):
        self.ring = ring
        self.relations = relations
        self.graded = all(r.is_homogeneous for r in relations)
        self._groebner = groebner
        self._rref = Rref()
        self.standard_basis = [Monomial(ring.key_exps(k), ())
                               for k in standard]
        self.basis_positions = {-k: i for i, k in enumerate(standard)}
        self.length = len(standard)
        self._degrees = [ring.key_degree(k) for k in standard]
        self.socle_degree = max(self._degrees, default=0)

    def basis_by_degree(self) -> dict[int, list[Monomial]]:
        table: dict[int, list[Monomial]] = {}
        for m, degree in zip(self.standard_basis, self._degrees):
            table.setdefault(degree, []).append(m)
        return table

    def _reduce(self, vector: dict[int, int]) -> tuple[dict[int, int], int]:
        """The normal form of an integer vector on negated keys, as
        ``(remainder, scale)`` from :meth:`Rref.reduce`, on standard
        columns only.  Each non-standard monomial m of the vector without a
        row gets one first, and so does each such monomial in the tail of
        x^shift * g, g the first element of G whose leading term divides m:
        a stack collects them all.  The tail lies below m, so the rows are
        built smallest monomial first, each x^shift * g reduced through
        the span before it is added."""
        rows, standard = self._rref.pivots, self.basis_positions
        multiples: dict[int, dict[int, int]] = {}
        stack = [j for j in vector if j not in standard and j not in rows]
        while stack:
            j = stack.pop()
            if j in multiples:
                continue
            for lead, g in self._groebner:
                if self.ring.divides(lead, -j):
                    break
            shift = -j - lead
            multiples[j] = row = {-k - shift: c for k, c in g.items()}
            stack += [c for c in row if c not in standard and c not in rows
                      and c not in multiples]
        for j in sorted(multiples, reverse=True):   # the smallest m first
            self._rref.add(self._rref.reduce(multiples[j])[0])
        return self._rref.reduce(vector)

    def reduce(self, e: Element) -> dict[Monomial, Fraction]:
        """Coordinates of the class of ``e`` over the standard basis.  The
        element is scaled to integers once, and the coordinates are divided
        by both scales at the end."""
        if e.universe != self.ring:
            raise UniverseMismatchError("element lives over a different ring")
        if e.is_zero:
            return {}
        vector, denom = intify({-self.ring.key(m): c
                                for m, c in e.terms.items()})
        reduced, scale = self._reduce(vector)
        denom *= scale
        basis, positions = self.standard_basis, self.basis_positions
        return {basis[positions[j]]: Fraction(c, denom)
                for j, c in reduced.items()}

    def multiplication_matrix(self, poly: Element
                              ) -> tuple[list[dict[int, int]], int]:
        """Multiplication by ``poly`` on the standard basis, as integer
        columns and one positive denominator D: the matrix is the columns
        divided by D, column j the coordinates of b_j * poly by basis
        position.  poly's terms are scaled to integers once, each product
        b * poly is formed on keys and reduced as :meth:`reduce` would, and
        each column is brought to the lcm of the reductions' scales.
        """
        if poly.universe != self.ring:
            raise UniverseMismatchError("operands live over different universes")
        top = poly.top_degree()
        if top is None:
            return [{} for _ in self.standard_basis], 1
        # the products reach degree socle + top: their keys must not overflow
        self.ring.key_weights(self.socle_degree + top)
        scaled, denom = intify(poly.terms)
        positions = self.basis_positions     # the basis columns, in order
        terms = [(self.ring.key(m), c) for m, c in scaled.items()]
        reduced = [self._reduce({col - k: c for k, c in terms})
                   for col in positions]
        common = lcm(*[scale for _, scale in reduced])
        return [{positions[j]: c for j, c in row.items()} if scale == common
                else {positions[j]: c * (common // scale)
                      for j, c in row.items()}
                for row, scale in reduced], denom * common


def quotient_basis(ring: GeneratorUniverse, relations: list[Element],
                   max_probe: int | None = None) -> QuotientModule:
    """``R/(P_1..P_k)`` with the monomial basis of its reduced Groebner
    basis (see the module docstring).

    Raises :class:`NotFiniteLengthError` when the quotient has infinite
    length: with fewer relations than variables, or when a variable has no
    pure power among the leading terms.  Under ``max_probe``, a relation's
    degree, the lcm degree of an S-pair reduced, or the socle degree + 1
    above it raises :class:`IndeterminateError`; without one nothing is
    capped, since Buchberger's algorithm terminates.
    """
    if max_probe is not None and max_probe < 0:
        raise ModelError(f"max_probe must be at least 0, not {max_probe}")
    if ring.odds:
        raise EngineError("quotient rings are built over even generators only")
    relations = [r for r in relations if not r.is_zero]
    for r in relations:
        if r.universe != ring:
            raise UniverseMismatchError("relation lives over a different ring")
    n = len(ring.evens)
    if len(relations) < n:
        raise NotFiniteLengthError(
            f"{len(relations)} relations cannot cut {n} variables down to "
            "finite length")

    def reach(degree: int) -> None:
        if max_probe is not None and degree > max_probe:
            raise IndeterminateError(
                f"the Groebner basis reaches degree {degree}, above the "
                f"probe ceiling {max_probe}")
        ring.key_weights(degree)

    polys = []
    for rel in relations:
        reach(rel.top_degree())
        polys.append({ring.key(m): c for m, c in intify(rel.terms)[0].items()})
    groebner = _groebner(ring, polys, reach)
    leads = [ring.key_exps(lead) for lead, _ in groebner]
    bounds = []
    for i, g in enumerate(ring.evens):
        powers = [e[i] for e in leads if not any(e[:i] + e[i + 1:])]
        if not powers:
            raise NotFiniteLengthError(
                f"no pure power of {g.name} among the leading terms of a "
                "Groebner basis: the quotient has infinite length")
        bounds.append(min(powers))
    # keys add under multiplication, so a box monomial's key is the sum of
    # the keys e * w of its pure powers, each below a pure power that leads
    weights = ring.key_weights(max(
        (bound * g.degree for g, bound in zip(ring.evens, bounds)), default=0))
    pure_keys = [range(0, bound * w, w) for bound, w in zip(bounds, weights)]
    standard = sorted(key for key in map(sum, product(*pure_keys))
                      if not any(ring.divides(lead, key)
                                 for lead, _ in groebner))
    reach((ring.key_degree(standard[-1]) if standard else 0) + 1)
    return QuotientModule(ring, relations, groebner, standard)


def is_regular_sequence(ring: GeneratorUniverse, relations: list[Element],
                        max_probe: int | None = None) -> bool:
    """Finite-length criterion: for k relations in k variables, regularity is
    equivalent to the quotient having finite length."""
    relations = [r for r in relations if not r.is_zero]
    if len(relations) != len(ring.evens):
        raise ModelError("regular-sequence test requires as many relations as variables")
    try:
        quotient_basis(ring, relations, max_probe=max_probe)
        return True
    except NotFiniteLengthError:
        return False


# -- the S-module structure and Tor ------------------------------------------


class SModuleStructure:
    """Module structure over Q[lambda_1..lambda_r]: lambda_i acts on the
    quotient as multiplication by a ring polynomial."""

    def __init__(self, module: QuotientModule, action_polys: list[Element]):
        self.module = module
        self.action_polys = list(action_polys)
        self._matrices: list[list[dict[int, int]]] | None = None

    @property
    def parameter_count(self) -> int:
        return len(self.action_polys)

    def matrices(self) -> list[list[dict[int, int]]]:
        """The integer columns of each action: D_i times its matrix, with
        D_i the denominator :meth:`QuotientModule.multiplication_matrix`
        returns.  :func:`tor_table` says why the D_i change no Tor
        dimension."""
        if self._matrices is None:
            self._matrices = [self.module.multiplication_matrix(p)[0]
                              for p in self.action_polys]
        return self._matrices


@dataclass(frozen=True)
class TorTable:
    dims: dict[int, int]
    total: int

    def __getitem__(self, k: int) -> int:
        return self.dims.get(k, 0)


def koszul_differential_rows(s: SModuleStructure, k: int,
                             skip: set[int] | frozenset[int] = frozenset()):
    """Integer rows of d_k : M (x) Lambda^k W -> M (x) Lambda^{k-1} W, with
    lambda_i acting by the integer columns of :meth:`SModuleStructure.matrices`.

    d(m (x) w_{i_1}...w_{i_k}) = sum_l (-1)^{l-1} (lambda_{i_l} m) (x) (drop i_l).

    Chains are ordered subset-major: basis position i of the p-th ascending
    k-subset is chain position ``p * dim + i``.  The rows at the chain
    positions in ``skip`` are not built; the others come in chain order.
    The k faces of a k-subset are distinct (k-1)-subsets, so a row is the
    signed columns ``mats[lambda_l][i]`` in disjoint blocks and no two
    entries merge.
    """
    mats = s.matrices()
    dim = s.module.length
    r = s.parameter_count
    face = {rest: pos * dim
            for pos, rest in enumerate(combinations(range(r), k - 1))}
    return [{face[subset[:l] + subset[l + 1:]] + t: -c if l % 2 else c
             for l, lam in enumerate(subset) for t, c in mats[lam][i].items()}
            for pos, (subset, i) in enumerate(
                product(combinations(range(r), k), range(dim)))
            if pos not in skip]


def tor_table(module: QuotientModule, s: SModuleStructure) -> TorTable:
    """Homology dimensions of the Koszul complex M (x) Lambda^* W.

    ``dims[k] = dim Tor^k`` for k in [0, r]; everything is exact linear
    algebra over the rationals on the standard basis.

    The complex is built from the integer columns D_i M_i of the actions
    (:meth:`SModuleStructure.matrices`).  The map
    m (x) w_S -> (prod of D_i over i in S) m (x) w_S is an isomorphism of
    complexes from K(D_1 M_1, ..., D_r M_r) onto K(M_1, ..., M_r), so every
    dimension is that of the M_i.

    Clearing, top-down: d_r is eliminated first, and each lower d_k leaves
    out the rows at the pivot columns of d_{k+1}, which are chain positions
    of M (x) Lambda^k, the row indexes of d_k.  Each row a of the echelon
    basis of im(d_{k+1}) pivots on its smallest column e, and d_k(a) = 0
    makes the row of d_k at e a combination of the rows at columns above e.
    From the largest pivot down, every row at a pivot lies in the span of
    the rows kept, so rank d_k is their rank.  This needs d_k d_{k+1} = 0,
    which holds because the actions commute: each is multiplication by a
    polynomial in the commutative quotient, and scaling keeps them
    commuting.
    """
    if s.module is not module:
        raise EngineError("the S-structure was built over a different module")
    r = s.parameter_count
    dim = module.length
    ranks = {}
    pivots: set[int] = set()
    for k in range(r, 0, -1):
        cleared, pivots = pivots, set()
        ranks[k] = rank_of_rows(koszul_differential_rows(s, k, cleared),
                                pivots)
    dims = {}
    for k in range(r + 1):
        chain_dim = dim * comb(r, k)
        dims[k] = chain_dim - ranks.get(k, 0) - ranks.get(k + 1, 0)
    return TorTable(dims, sum(dims.values()))


@dataclass(frozen=True)
class TorBoundsReport:
    n: int
    r: int
    tor_bottom: int
    tor_top: int
    length: int
    bottom_ok: bool
    top_ok: bool
    length_ok: bool   # r = 0 only: length >= 2n
    passes: bool


def tor_bounds_check(module: QuotientModule, table: TorTable) -> TorBoundsReport:
    """Endpoint bounds on the Tor table of ``module``: dim Tor^0 >= n+1 and
    dim Tor^r >= n+1; for r = 0 the quadratic-count bound length >= 2n."""
    n = len(module.ring.evens)
    r = max(table.dims)
    bottom_ok = table[0] >= n + 1
    top_ok = table[r] >= n + 1
    length_ok = module.length >= 2 * n if r == 0 else True
    passes = bottom_ok and top_ok and length_ok
    if not passes:
        raise ContradictionError(
            f"Tor endpoint bounds failed: Tor^0={table[0]}, Tor^{r}={table[r]}, "
            f"n={n}, length={module.length}")
    return TorBoundsReport(n, r, table[0], table[r], module.length,
                           bottom_ok, top_ok, length_ok, passes)


# -- duality pairing ----------------------------------------------------------


_PAIRING_ATTEMPTS = 8


@dataclass(frozen=True)
class PairingReport:
    perfect: bool
    mode: str                 # "graded" or "functional"
    socle_dimension: int
    detail: str = ""


def duality_pairing(module: QuotientModule, seed: int = 0) -> PairingReport:
    """Certify the multiplication pairing of a complete-intersection quotient.

    Graded quotients: the top degree must be one-dimensional and each block
    ``M_a x M_{s-a} -> M_s`` nondegenerate.  Filtered quotients (relations of
    mixed degrees): sample up to eight linear functionals and certify that
    some Gram matrix ``phi(b_i b_j)`` is nonsingular.
    """
    if len(module.relations) != len(module.ring.evens):
        raise ModelError("duality pairing requires a complete intersection "
                         "(as many relations as variables)")
    if module.length == 0:
        return PairingReport(False, "graded", 0, "zero module")
    if module.graded:
        return _graded_pairing(module)
    return _functional_pairing(module, seed)


def _graded_pairing(module: QuotientModule) -> PairingReport:
    table = module.basis_by_degree()
    socle = module.socle_degree
    top = table.get(socle, [])
    if len(top) != 1:
        return PairingReport(False, "graded", len(top),
                             f"top degree {socle} has dimension {len(top)}")
    socle_monomial = top[0]
    for a in sorted(table):
        b = socle - a
        left = table.get(a, [])
        right = table.get(b, [])
        if len(left) != len(right):
            return PairingReport(False, "graded", 1,
                                 f"dim M_{a}={len(left)} != dim M_{b}={len(right)}")
        rows = []
        for u in left:
            row = {}
            for j, v in enumerate(right):
                prod = Element.from_monomial(module.ring, Monomial(
                    tuple(map(int.__add__, u.exps, v.exps)), ()))
                coeff = module.reduce(prod).get(socle_monomial, Fraction(0))
                if coeff:
                    row[j] = coeff
            rows.append(intify(row)[0])
        if rank_of_rows(rows) != len(left):
            return PairingReport(False, "graded", 1,
                                 f"degenerate block at degree {a}")
    return PairingReport(True, "graded", 1,
                         f"socle degree {socle}, all blocks nondegenerate")


def _functional_pairing(module: QuotientModule, seed: int) -> PairingReport:
    dim = module.length
    socle_dim = _socle_dimension(module)
    # products[i][j]: D_i times the reduced vector of b_j * b_i, so Gram
    # row i below is D_i times the row of phi(b_i b_j), of the same rank
    products = [module.multiplication_matrix(Element.from_monomial(
        module.ring, u))[0] for u in module.standard_basis]
    rng = random.Random(seed)
    for attempt in range(_PAIRING_ATTEMPTS):
        phi = [rng.randint(-9, 9) for _ in range(dim)]
        rows = []
        for i in range(dim):
            row = {}
            for j in range(dim):
                val = sum(c * phi[k] for k, c in products[i][j].items())
                if val:
                    row[j] = val
            rows.append(row)
        if rank_of_rows(rows) == dim:
            return PairingReport(True, "functional", socle_dim,
                                 f"nonsingular Gram matrix at attempt {attempt}")
    return PairingReport(False, "functional", socle_dim,
                         f"no certifying functional in {_PAIRING_ATTEMPTS} "
                         "attempts")


def _socle_dimension(module: QuotientModule) -> int:
    """Dimension of the common kernel of all variable multiplications; the
    integer columns scale each block of the stacked map by a nonzero
    factor, which leaves its kernel alone."""
    dim = module.length
    if not module.ring.evens:
        return dim
    mats = [module.multiplication_matrix(
        Element.generator(module.ring, g.name))[0] for g in module.ring.evens]
    rows = []
    for i in range(dim):
        combined: dict[int, int] = {}
        for j, mat in enumerate(mats):
            for k, c in mat[i].items():
                combined[j * dim + k] = c
        rows.append(combined)
    return dim - rank_of_rows(rows)


# -- odd-basis search for pure models -----------------------------------------


@dataclass(frozen=True)
class HalperinBasis:
    """Odd-generator combinations whose first n images cut a finite quotient."""

    combinations: list[Element]     # z_j as combinations of the odd generators
    images: list[Element]           # d z_j, elements of the even subring
    module: QuotientModule          # the finite-length certificate for the first n
    structure: SModuleStructure     # the last r images acting on the module
    attempts: int
    strategy: str


def even_subring(model: Model) -> GeneratorUniverse:
    return universe([(g.name, g.degree) for g in model.universe.evens])


def odd_images(model: Model) -> tuple[GeneratorUniverse, list[Element]]:
    """The even subring and the odd generators' images restricted to it,
    which drops every term with an odd factor (the pure part)."""
    ring = even_subring(model)
    return ring, [restrict_element(model.d.of_generator(g.name), ring)
                  for g in model.universe.odds]


def halperin_basis(model: Model, seed: int = 0, budget: int = 64,
                   max_probe: int | None = None) -> HalperinBasis:
    """Find a basis z_1..z_{n+r} of the odd generators (rational-coefficient
    combinations, lower grading preserved) whose first n differential images
    form a regular sequence in the even subring.

    Search order: the identity, then permutations induced by regular
    n-subsets of the given images, then random invertible integer matrices
    with entries in [-3, 3].  Deterministic for a fixed seed.  A random
    draw whose fibers have more than one point where the actions vanish is
    rejected and counted as an attempt (see
    :func:`_several_fiber_points`); the given images are never rejected.
    The model must be certified elliptic.  The basis is kept in
    ``model.d.memo`` by arguments, with its module and action matrices.
    """
    key = ("odd basis", seed, budget, max_probe)
    if key not in model.d.memo:
        model.d.memo[key] = _search(model, seed, budget, max_probe)
    return model.d.memo[key]


def _search(model: Model, seed: int, budget: int,
            max_probe: int | None) -> HalperinBasis:
    if budget < 0:
        raise ModelError(f"budget must be at least 0, not {budget}")
    if not classify(model).is_pure:
        raise ModelError("the odd-basis search requires a pure model")
    from .cohomology import require_elliptic
    require_elliptic(model)
    ring, images = odd_images(model)
    n = len(ring.evens)
    size = len(images)
    attempts = 0

    def test(first_n: list[Element]):
        nonlocal attempts
        attempts += 1
        if any(p.is_zero for p in first_n):
            return None
        try:
            return quotient_basis(ring, first_n, max_probe=max_probe)
        except (NotFiniteLengthError, IndeterminateError):
            return None

    # Stage 1: subsets of the given images, identity order first.
    for subset in combinations(range(size), n):
        module = test([images[i] for i in subset])
        if module is not None:
            order = list(subset) + [i for i in range(size) if i not in subset]
            matrix = [[int(j == order[i]) for j in range(size)]
                      for i in range(size)]
            strategy = ("permutation" if list(subset) != list(range(n))
                        else "identity")
            return _assemble(model, matrix, images, module, attempts,
                             strategy)

    # Stage 2: random invertible integer matrices.
    rng = random.Random(seed)
    while attempts < budget:
        matrix = [[rng.randint(-3, 3) for _ in range(size)]
                  for _ in range(size)]
        if rank_of_rows([{j: c for j, c in enumerate(row) if c}
                         for row in matrix]) != size:
            attempts += 1
            continue
        z_images = [_combination(row, images, ring) for row in matrix]
        module = test(z_images[:n])
        if module is not None and not _several_fiber_points(
                ring, z_images[:n], z_images[n:]):
            return _assemble(model, matrix, images, module, attempts,
                             "random")
    raise IndeterminateError(
        f"no regular odd basis found within {budget} attempts (seed {seed})")


def _several_fiber_points(ring: GeneratorUniverse, forms: list[Element],
                          actions: list[Element]) -> bool:
    """Whether the P_i are forms of one polynomial degree, every A_j is a
    form, and ``Q[x]/(P_i + x_i, A_j)`` has a length c > 1.

    The fiber of the family ``(P_i + t x_i)`` at t is carried onto the one
    at t = 1 by x -> lambda x with lambda^(deg P - 1) = t, which moves no
    length (over an extension of Q) and keeps each ideal ``(A_j)``.  So c
    is Tor_0 of the fiber under the actions at every t != 0: the number of
    fiber points where every action vanishes, counted with multiplicity.
    With c > 1 no sampled Tor table has the binomial pattern, whose Tor_0
    is 1.
    """
    degrees = {sum(m.exps) for p in forms for m in p.terms}
    if len(degrees) != 1 or any(len({sum(m.exps) for m in a.terms}) > 1
                                for a in actions):
        return False
    relations = [p + Element.generator(ring, g.name)
                 for p, g in zip(forms, ring.evens)]
    try:
        return quotient_basis(ring, relations + actions).length > 1
    except NotFiniteLengthError:
        return False


def _combination(row: list[int], elements: list[Element],
                 uni: GeneratorUniverse) -> Element:
    """sum_j row[j] * elements[j], an element of ``uni``."""
    return sum((e.scale(c) for c, e in zip(row, elements) if c),
               Element.zero(uni))


def _assemble(model: Model, matrix, images: list[Element],
              module: QuotientModule, attempts: int,
              strategy: str) -> HalperinBasis:
    """The basis z_i = sum_j matrix[i][j] y_j of the odd generators y_j, with
    ``images`` the restricted images of the y_j; since d and restriction
    are linear, each z_i's image is the same combination of them."""
    uni, ring = model.universe, module.ring
    gens = [Element.generator(uni, g.name) for g in uni.odds]
    combos = [_combination(row, gens, uni) for row in matrix]
    z_images = [_combination(row, images, ring) for row in matrix]
    structure = SModuleStructure(module, z_images[len(ring.evens):])
    return HalperinBasis(combos, z_images, module, structure, attempts,
                         strategy)


@dataclass(frozen=True)
class CrossCheckReport:
    total_cohomology: int
    total_tor: int
    by_odd_count: tuple[tuple[int, int, int], ...]  # (q, dim H_q, dim Tor^q)
    passes: bool


def tor_via_model_cross_check(model: Model, basis: HalperinBasis,
                              table: TorTable) -> CrossCheckReport:
    """Compare ``table``, the Tor table of an odd basis's quotient module
    (``tor_table(basis.module, basis.structure)``), against the directly
    computed cohomology, totals and per odd count.

    A mismatch contradicts the structural isomorphism between the cohomology
    of a pure elliptic model and the Tor table of its quotient module, so it
    raises :class:`ContradictionError`.
    """
    from .cohomology import betti_by_odd_count
    per_q = betti_by_odd_count(model)
    total = sum(per_q.values())
    r = basis.structure.parameter_count
    rows = []
    ok = total == table.total
    for q in range(max(r, max(per_q, default=0)) + 1):
        hq = per_q.get(q, 0)
        tq = table[q]
        rows.append((q, hq, tq))
        ok = ok and hq == tq
    if not ok:
        raise ContradictionError(
            f"cohomology/Tor mismatch: total H = {total}, total Tor = "
            f"{table.total}, by odd count {rows}")
    return CrossCheckReport(total, table.total, tuple(rows), True)
