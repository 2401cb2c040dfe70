"""Independent dense oracle for cohomology dimensions.

Everything here is deliberately naive and shares no code path with the
engine's sparse machinery: monomials are expanded into explicit factor
sequences, signs come from bubble-sorting odd factors, the differential is
the textbook Leibniz sum over factor positions, and ranks come from dense
fraction Gaussian elimination.

The one exception is :func:`betti_below`, the windowed table: it reads the
engine's direct :func:`~hilali.cohomology.betti`, which eliminates every
degree and reflects none, and checks the vanishing window above a bound.
"""

from __future__ import annotations

from fractions import Fraction

from hilali import BettiTable, ContradictionError, betti
from hilali.algebra import Monomial


def _expand_factors(universe, mono):
    """A monomial as an explicit list of generators, evens repeated."""
    factors = []
    for exp, g in zip(mono.exps, universe.evens):
        factors.extend([g] * exp)
    for k in mono.odds:
        factors.append(universe.odds[k])
    return factors


def _normalize_word(universe, factors):
    """Sort a factor word into canonical form by adjacent transpositions.

    Returns (sign, Monomial) or None when an odd factor repeats.  Swapping
    two odd factors contributes -1; swaps involving an even factor are free.
    """
    word = list(factors)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a.index > b.index:
                word[i], word[i + 1] = b, a
                if a.is_odd and b.is_odd:
                    sign = -sign
                changed = True
    exps = [0] * len(universe.evens)
    even_pos = {g.index: i for i, g in enumerate(universe.evens)}
    odd_pos = {g.index: i for i, g in enumerate(universe.odds)}
    odds = []
    for g in word:
        if g.is_odd:
            odds.append(odd_pos[g.index])
        else:
            exps[even_pos[g.index]] += 1
    for i in range(len(odds) - 1):
        if odds[i] == odds[i + 1]:
            return None
    return sign, Monomial(tuple(exps), tuple(odds))


def naive_differential(model, mono):
    """d(mono) as {Monomial: Fraction}, via the position-by-position Leibniz
    sum with explicit sign accumulation."""
    universe = model.universe
    factors = _expand_factors(universe, mono)
    out: dict[Monomial, Fraction] = {}
    prefix_degree = 0
    for i, g in enumerate(factors):
        image = model.d.of_generator(g.name)
        if not image.is_zero:
            position_sign = -1 if prefix_degree % 2 else 1
            for im, coeff in image.terms.items():
                word = (factors[:i] + _expand_factors(universe, im)
                        + factors[i + 1:])
                normalized = _normalize_word(universe, word)
                if normalized is None:
                    continue
                sign, result = normalized
                total = out.get(result, Fraction(0)) + coeff * sign * position_sign
                if total:
                    out[result] = total
                elif result in out:
                    del out[result]
        prefix_degree += g.degree
    return out


def dense_rank(matrix: list[list[Fraction]]) -> int:
    """Row rank by plain Gaussian elimination over Fraction."""
    if not matrix or not matrix[0]:
        return 0
    m = [row[:] for row in matrix]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def betti_dense(model, max_degree: int) -> dict[int, int]:
    """Cohomology dimensions 0..max_degree via the naive differential and
    dense elimination."""
    universe = model.universe
    ranks = {}
    for p in range(max_degree + 1):
        source = universe.basis(p)
        target = universe.basis(p + 1)
        index = {m: i for i, m in enumerate(target)}
        if not source or not target:
            ranks[p] = 0
            continue
        matrix = []
        for mono in source:
            row = [Fraction(0)] * len(target)
            for t, c in naive_differential(model, mono).items():
                row[index[t]] = c
            matrix.append(row)
        ranks[p] = dense_rank(matrix)
    dims = {}
    for p in range(max_degree + 1):
        d = len(universe.basis(p)) - ranks.get(p, 0) - ranks.get(p - 1, 0)
        if d:
            dims[p] = d
    return dims


def betti_below(model, bound: int, window: int) -> BettiTable:
    """Betti table through ``bound``, marked complete after checking that
    cohomology vanishes in the ``window`` degrees above it; a nonzero class
    there raises :class:`ContradictionError`."""
    bound = max(bound, 0)
    table = betti(model, bound + window)
    for p in range(bound + 1, bound + window + 1):
        if table[p] != 0:
            raise ContradictionError(
                f"nonzero cohomology in degree {p} above the bound {bound} "
                f"of {model.name or 'the model'}; the truncation cannot be "
                "trusted")
    dims = {p: d for p, d in table.dims.items() if p <= bound}
    return BettiTable(dims, bound, sum(dims.values()), True)
