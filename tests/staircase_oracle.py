"""The degree-by-degree staircase that ``quotient_basis`` used before it
computed a Groebner basis, kept as a test oracle.

It spans every relation multiple m * P_i degree by degree (skipping those
of Buchberger's product criterion), reads the standard monomials as the
non-pivot columns, and stops once they stay unchanged for a window of
degrees and a closure check passes: every x_j * b reduces back into the
span of the candidate basis.  Inhomogeneous relations get a slack of
their top degree above each reduction, and the top of the staircase is
judged below a trailing cut.  It decides graded ideals exactly and
filtered ones in practice; the tests compare it with the Groebner
staircase on every quotient they build.
"""

from __future__ import annotations

from hilali import IndeterminateError, NotFiniteLengthError
from hilali.linalg import Rref, intify


class _Staircase:
    def __init__(self, ring, relations):
        self.ring = ring
        self.graded = all(r.is_homogeneous for r in relations)
        self.cols: dict[tuple[int, ...], int] = {}
        self.monomials = []
        self.ends: list[int] = []       # ends[d]: monomials of degree <= d
        self.terms = []                 # (top degree, leading exps, terms)
        for rel in relations:
            top = rel.top_degree()
            self.extend_index(top)
            terms = [(m.exps, c) for m, c in intify(rel.terms)[0].items()]
            lead = min(terms, key=lambda t: self.cols[t[0]])[0]
            self.terms.append((top, lead, terms))
        self.slack = 0 if self.graded else max(
            (top for top, _, _ in self.terms), default=0)
        self.rref = Rref()
        self.span_extent = -1
        self.basis_columns: set[int] = set()

    def extend_index(self, degree):
        while len(self.ends) <= degree:
            for m in self.ring.basis(len(self.ends)):
                self.monomials.append(m)
                self.cols[m.exps] = -len(self.monomials)
            self.ends.append(len(self.monomials))

    def product(self, exps, terms):
        return {self.cols[tuple(map(int.__add__, exps, e))]: c
                for e, c in terms}

    def extend_span(self, degree):
        while self.span_extent < degree:
            self.span_extent += 1
            d = self.span_extent
            self.extend_index(d)
            leads = []
            for top, lead, terms in self.terms:
                if top <= d:
                    for m in self.ring.basis(d - top):
                        if not any(all(map(int.__ge__, m.exps, earlier))
                                   for earlier in leads):
                            self.rref.add(self.product(m.exps, terms))
                leads.append(lead)

    def standard(self, top):
        if top < 0:
            return []
        self.extend_index(top)
        return [m for i, m in enumerate(self.monomials[:self.ends[top]])
                if -(i + 1) not in self.rref.pivots]

    def closed(self, basis):
        """Whether every x_j * b reduces onto the columns of ``basis``."""
        columns = {self.cols[m.exps] for m in basis}
        degrees = [self.ring.degree_of(m) for m in basis]
        for g in self.ring.evens:
            unit = tuple(int(h is g) for h in self.ring.evens)
            for b, degree in zip(basis, degrees):
                self.extend_span(degree + g.degree + self.slack)
                reduced, _ = self.rref.reduce(self.product(b.exps, [(unit, 1)]))
                if not columns.issuperset(reduced) or \
                        not columns.isdisjoint(self.rref.pivots):
                    return False
        return True


def staircase(ring, relations, max_probe=None):
    """The standard monomials of ``R/(relations)`` in index order, by the
    degree-by-degree staircase; raises as ``quotient_basis`` did."""
    relations = [r for r in relations if not r.is_zero]
    n = len(ring.evens)
    if len(relations) < n:
        raise NotFiniteLengthError("fewer relations than variables")
    stair = _Staircase(ring, relations)
    graded = stair.graded
    degs = sorted((rel.top_degree() for rel in relations), reverse=True)
    prediction = sum(degs[:n]) - sum(g.degree for g in ring.evens) if n else 0
    is_ci = len(relations) == n
    window = max((g.degree for g in ring.evens), default=1) + 1
    if max_probe is None:
        top = max((r.top_degree() or 0 for r in relations), default=0)
        max_probe = prediction + 2 * top + window
    lag = 0 if graded else window
    wait_past = prediction if is_ci else -1
    previous = []
    stable_run = 0
    for degree in range(max_probe + 1):
        stair.extend_span(degree)
        current = stair.standard(degree - lag)
        if graded and is_ci and degree > prediction and \
                len(current) > len(previous):
            raise NotFiniteLengthError(f"nonzero class in degree {degree}")
        stable_run = stable_run + 1 if current == previous else 0
        previous = current
        if stable_run >= window and degree > wait_past and (graded or current):
            if stair.closed(current):
                return current
            if graded:
                raise IndeterminateError("closure failed")
            stable_run = 0
    raise IndeterminateError(f"no stable staircase by degree {max_probe}")
