"""Degreewise exact cohomology of a model: Betti tables, Euler
characteristics, ellipticity certification, explicit cocycle and coboundary
bases, and the dimension-inequality verdict; certified tables and verdicts
are for simply connected models."""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import mul

from .algebra import Element, Monomial
from .errors import (EngineError, IndeterminateError, ModelError,
                     NotFiniteLengthError, UniverseMismatchError)
from .linalg import Rref, intify, kernel_of_rows, rank_of_rows
from .koszul import odd_images, quotient_basis
from .model import (Model, _leibniz, check_differential, check_minimal,
                    classify, pure_part)


@dataclass(frozen=True)
class BettiTable:
    dims: dict[int, int]
    max_degree_computed: int
    total_dim: int
    complete: bool

    def __getitem__(self, degree: int) -> int:
        return self.dims.get(degree, 0)


class ChainComplex:
    """Per-degree bases and differential ranks of one model.

    In a pure model d lowers the odd-factor count q by one, so each degree
    splits into q-blocks and ranks are taken block by block; ``q=None``
    means the whole degree.  A non-pure model has one block per degree.

    The ranks are memoized on the model's differential (``model.d.ranks``),
    not on the complex, so every complex built over one model object
    eliminates each degree once and classifies the model once (in
    ``model.d.memo``).  The ranks are only ints and refer back to
    nothing, so a model and its ranks are freed together.
    """

    def __init__(self, model: Model):
        self.model = model
        if "pure" not in model.d.memo:
            model.d.memo["pure"] = classify(model).is_pure
        self.pure = model.d.memo["pure"]
        self._ranks = model.d.ranks
        self._tables = model.d.tables()
        self._zeros = model.universe.unit.exps
        # D times d(y_S) as (label, c) pairs, by odd subset S
        self._odd_images: dict[tuple[int, ...], list[tuple]] = {}
        # the last degree this complex eliminated and its pivot columns
        # (None where clearing is not valid); see rank
        self._pivots: tuple[int, set[int] | None] = (-1, None)

    def basis(self, degree: int):
        return self.model.universe.basis(degree)

    def rows(self, degree: int, monomials: list[Monomial] | None = None
             ) -> list[dict[int, int]]:
        """Images of the degree-p basis, or of the given degree-p monomials
        in basis order, as integer vectors over the (p+1)-basis: D times
        the differential, read from the integer image tables of
        :meth:`~hilali.model.Derivation.tables`, with no element or
        fraction per term.  The common scale D changes no rank,
        kernel or span.

        A column is labelled -key(m) for the (p+1)-monomial m (see
        :meth:`~hilali.algebra.GeneratorUniverse.key`), so labels run
        against the canonical order: an :class:`~hilali.linalg.Echelon`,
        which pivots on its smallest column, clears the largest basis index
        first.  A degree whose keys could overflow raises
        :class:`EngineError`.

        When every even generator is closed (every hyperelliptic model),
        d(f y_S) = f d(y_S) for an even monomial f and an odd monomial y_S,
        and multiplying by f adds key(f) to every key.  So the Leibniz
        kernel runs once per odd subset S, d(y_S) is kept on the complex as
        (label, coefficient) pairs, and each row is that list with key(f)
        subtracted from every label.  A model with a nonzero even image
        (possible only under ``assume_elliptic``) runs the kernel once per
        row.
        """
        uni = self.model.universe
        weights = uni.key_weights(degree + 1)
        key, tables = uni.key, self._tables
        if monomials is None:
            monomials = self.basis(degree)
        if any(tables[1]):
            return [{-key(Monomial(exps, odds)): c for (exps, odds), c
                     in _leibniz(tables, m.exps, m.odds).items()}
                    for m in monomials]
        images = self._odd_images
        rows = []
        f = None
        for m in monomials:
            image = images.get(m.odds)
            if image is None:
                image = images[m.odds] = [
                    (-key(Monomial(exps, odds)), c) for (exps, odds), c
                    in _leibniz(tables, self._zeros, m.odds).items()]
            if m.exps is not f:     # the basis keeps each f's rows together
                f = m.exps
                shift = sum(map(mul, f, weights))
            rows.append({lab - shift: c for lab, c in image})
        return rows

    def rank(self, degree: int, q: int | None = None) -> int:
        """Rank of d in one degree, or in its q-block of a pure model.

        The blocks of :meth:`rows` go to elimination as they are, over
        their labels; every basis or remainder that is returned maps the
        labels back to canonical indexes through the basis.

        Clearing: when this complex has just eliminated degree p-1, the
        rows of d_p whose label is a pivot column of d_{p-1} are neither
        assembled nor eliminated.  The pivots P of d_{p-1} come from an
        echelon basis E of im(d_{p-1}), each row a of E pivoting on its
        smallest label e, and d(d(c)) = 0 gives sum_l a_l d(l) = 0: the row
        of d_p at e is a combination of the rows at labels above e.  From
        the largest pivot down, every row at P lies in the span of the rows
        outside P, so rank d_p is the rank of those rows.  In a pure model
        d maps the (q+1)-block of degree p-1 into the q-block of degree p,
        so the argument holds block by block.  It needs d^2 = 0, which
        :func:`~hilali.model.check_differential` checks once per model; a
        complex over a model that fails it eliminates every row.
        """
        if q is not None and not self.pure:
            raise ModelError("the odd-count split needs a pure model")
        if degree < 0:
            return 0
        if degree not in self._ranks:
            basis = kept = self.basis(degree)
            below, cleared = self._pivots
            if below == degree - 1 and cleared:
                keys = self.model.universe.basis_keys(degree)
                kept = [m for m, k in zip(basis, keys) if -k not in cleared]
            rows = self.rows(degree, kept)
            if self.pure:
                blocks: dict[int | None, list] = {len(m.odds): []
                                                  for m in basis}
                for m, row in zip(kept, rows):
                    blocks[len(m.odds)].append(row)
            else:
                blocks = {None: rows}
            pivots = set() if check_differential(self.model).passed else None
            self._ranks[degree] = {key: rank_of_rows(block, pivots)
                                   for key, block in blocks.items()}
            self._pivots = (degree, pivots)
        ranks = self._ranks[degree]
        return sum(ranks.values()) if q is None else ranks.get(q, 0)

    def chain_dim(self, degree: int, q: int | None = None) -> int:
        basis = self.model.universe._basis(degree)      # counted, not copied
        if q is None:
            return len(basis)
        return sum(1 for m in basis if len(m.odds) == q)

    def betti_number(self, degree: int, q: int | None = None) -> int:
        if degree < 0:
            return 0
        below = None if q is None else q + 1
        return (self.chain_dim(degree, q) - self.rank(degree, q)
                - self.rank(degree - 1, below))


def betti(model: Model, max_degree: int) -> BettiTable:
    """Cohomology dimensions for degrees 0..max_degree.

    dims[p] = dim ker(d_p) - rank(d_{p-1}), by exact row reduction over the
    canonical monomial bases.  The table is not marked complete; see
    :func:`betti_complete` for certified truncations.
    """
    if max_degree < 0:
        raise EngineError("max_degree must be non-negative")
    cx = ChainComplex(model)
    dims = {}
    for p in range(max_degree + 1):
        b = cx.betti_number(p)
        if b:
            dims[p] = b
    return BettiTable(dims, max_degree, sum(dims.values()), False)


@dataclass(frozen=True)
class EllipticityCertificate:
    elliptic: bool
    formal_dimension_bound: int
    evidence: str
    length: int | None = None
    socle_degree: int | None = None
    indeterminate: bool = False     # not certified because the probe budget ran out


def formal_dimension_bound(model: Model) -> int:
    """Truncation degree sum(deg y) - sum(deg x - 1); cohomology of an
    elliptic model vanishes above it."""
    uni = model.universe
    return sum(g.degree for g in uni.odds) - sum(g.degree - 1 for g in uni.evens)


def certify_elliptic(model: Model, max_probe: int | None = None) -> EllipticityCertificate:
    """Certify finite-dimensional cohomology of a hyperelliptic model.

    Criterion: the quotient of the even polynomial subring by every
    zero-odd-factor component of the differential images has finite length,
    which :func:`~hilali.koszul.quotient_basis` decides exactly.  Infinite
    length proves the model not elliptic; a computation that would pass
    ``max_probe`` marks the certificate ``indeterminate``.  It is made once
    per model and ``max_probe``, and kept in ``model.d.memo``.
    """
    key = ("certificate", max_probe)
    if key in model.d.memo:
        return model.d.memo[key]
    if not classify(model).is_hyperelliptic:
        raise ModelError("ellipticity certification requires a hyperelliptic model")
    bound = formal_dimension_bound(model)
    ring, relations = odd_images(pure_part(model))
    try:
        module = quotient_basis(ring, relations, max_probe=max_probe)
        certificate = EllipticityCertificate(
            True, bound, f"pure-part quotient has finite length "
            f"{module.length} (socle degree {module.socle_degree})",
            module.length, module.socle_degree)
    except NotFiniteLengthError as exc:
        certificate = EllipticityCertificate(False, bound, f"not elliptic: {exc}")
    except IndeterminateError as exc:
        certificate = EllipticityCertificate(
            False, bound, f"not certified: {exc}", indeterminate=True)
    model.d.memo[key] = certificate
    return certificate


def require_elliptic(model: Model,
                     max_probe: int | None = None) -> EllipticityCertificate:
    """The certificate of a model certified elliptic.  A certification whose
    probe budget ran out raises :class:`IndeterminateError`; any other failed
    certification raises :class:`ModelError`."""
    certificate = certify_elliptic(model, max_probe=max_probe)
    if not certificate.elliptic:
        error = IndeterminateError if certificate.indeterminate else ModelError
        raise error(f"not certified elliptic: {certificate.evidence}")
    return certificate


def cohomology_table(model: Model, *, assume_elliptic: bool = False,
                     max_degree: int | None = None,
                     max_probe: int | None = None
                     ) -> tuple[BettiTable, EllipticityCertificate | None]:
    """The complete Betti table and the certificate behind it: through the
    formal dimension bound of a simply connected model certified elliptic
    (see :func:`require_elliptic`), by :func:`betti_complete`, which
    reflects its lower half; or, under ``assume_elliptic``, through an
    explicit ``max_degree``, every degree computed directly, complete by
    assumption, with no certificate.  ``max_degree`` without
    ``assume_elliptic`` raises :class:`ModelError`."""
    if assume_elliptic:
        if max_degree is None:
            raise ModelError("assume_elliptic requires an explicit max_degree")
        return replace(betti(model, max_degree), complete=True), None
    if max_degree is not None:
        raise ModelError("max_degree truncates only under assume_elliptic")
    certificate = require_elliptic(model, max_probe)
    return betti_complete(model, certificate), certificate


def simply_connected(model: Model) -> bool:
    """Does every generator have degree at least 2?  Then the cohomology of
    a model certified elliptic is a Poincaré duality algebra (see
    :func:`betti_complete`), read from its lower half."""
    return all(g.degree >= 2 for g in model.universe.generators)


def betti_complete(model: Model,
                   certificate: EllipticityCertificate) -> BettiTable:
    """Betti table through the formal dimension bound N of a simply
    connected model certified elliptic, marked complete.

    Every generator has degree at least 2, so the model is a simply
    connected Sullivan algebra, elliptic by the certificate, and its
    cohomology is a Poincaré duality algebra of formal dimension N
    (S. Halperin, "Finiteness in the minimal models of Sullivan", Trans.
    AMS 230 (1977); Félix, Halperin and Thomas, *Rational Homotopy Theory*,
    Prop. 38.3): b_p = b_(N-p), and H vanishes above N.  Only degrees
    0..N//2 are computed, and b_(N-p) is read as b_p.  A model with a
    degree-1 generator is outside the theorem and raises
    :class:`ModelError`; its table is computed directly only under
    ``assume_elliptic`` (see :func:`cohomology_table`).
    """
    if not certificate.elliptic:
        raise ModelError("a complete table requires an ellipticity certificate")
    if not simply_connected(model):
        low = next(g for g in model.universe.generators if g.degree < 2)
        raise ModelError(
            f"generator {low.name} has degree {low.degree}; a certified "
            "table needs a simply connected model")
    bound = certificate.formal_dimension_bound
    half = betti(model, bound // 2)
    reflected = {p: half[min(p, bound - p)] for p in range(bound + 1)}
    dims = {p: b for p, b in reflected.items() if b}
    return BettiTable(dims, bound, sum(dims.values()), True)


def euler_characteristics(model: Model, table: BettiTable) -> tuple[int, int]:
    """chi = alternating sum of the Betti numbers (complete tables only);
    chi_pi = (number of even generators) - (number of odd generators)."""
    if not table.complete:
        raise EngineError("Euler characteristic needs a complete Betti table")
    chi = sum((-1 if p % 2 else 1) * d for p, d in table.dims.items())
    uni = model.universe
    return chi, len(uni.evens) - len(uni.odds)


def cocycle_basis(model: Model, degree: int) -> list[Element]:
    """Echelonized basis of ker(d) in one degree."""
    cx = ChainComplex(model)
    basis = cx.basis(degree)
    # the tag columns ncols + i lie above every label, which is negative
    vectors = kernel_of_rows(cx.rows(degree), len(cx.basis(degree + 1)))
    return [Element(model.universe, {basis[j]: c for j, c in vec.items()})
            for vec in vectors]


def _coboundary_span(model: Model, degree: int) -> tuple[list, Rref]:
    """The basis of one degree and the span of im(d) in it, over canonical
    basis indexes: each row's labels go back to indexes through the basis."""
    cx = ChainComplex(model)
    basis = cx.basis(degree)
    index = {-k: i for i, k in enumerate(model.universe.basis_keys(degree))}
    rref = Rref()
    for row in cx.rows(degree - 1):
        rref.add({index[lab]: c for lab, c in row.items()})
    return basis, rref


def coboundary_basis(model: Model, degree: int) -> list[Element]:
    """Echelonized basis of im(d) in one degree."""
    if degree == 0:
        return []
    basis, rref = _coboundary_span(model, degree)
    return [Element(model.universe, {basis[j]: c for j, c in row.items()})
            for row in rref.reduced().values()]


def is_exact(model: Model, e: Element) -> bool:
    """Does a homogeneous cocycle bound?  Checks membership in im(d)."""
    if e.universe != model.universe:
        raise UniverseMismatchError(
            "the element and the model live over different universes")
    degree = e.degree()
    if degree is None:
        return True
    if degree == 0:
        return False        # im(d) is zero in degree 0
    basis, rref = _coboundary_span(model, degree)
    index = {m: i for i, m in enumerate(basis)}
    residue, _ = rref.reduce(intify({index[m]: c
                                     for m, c in e.terms.items()})[0])
    return not residue


def betti_by_odd_count(model: Model) -> dict[int, int]:
    """Total cohomology dimension split by the lower grading (odd factor
    count): the block Betti numbers of every degree through the formal
    dimension bound of a model certified elliptic (its own certificate, by
    :func:`require_elliptic`), each eliminated directly, so the
    cohomology/Tor cross-check never reads a table reflected by
    :func:`betti_complete`.  Requires a pure model, where d maps each
    piece q to q-1 and the complex splits."""
    cx = ChainComplex(model)
    if not cx.pure:
        raise ModelError("the lower-grading split of cohomology needs a pure model")
    bound = require_elliptic(model).formal_dimension_bound
    totals: dict[int, int] = {}
    for q in range(len(model.universe.odds) + 1):
        total = sum(cx.betti_number(p, q) for p in range(bound + 1))
        if total:
            totals[q] = total
    return totals


@dataclass(frozen=True)
class Verdict:
    dim_v: int
    dim_h: int
    holds: bool
    chi: int
    chi_pi: int
    signs_ok: bool          # chi >= 0, chi_pi <= 0, and (chi_pi < 0 iff chi = 0)
    assumed_elliptic: bool
    table: BettiTable
    certificate: EllipticityCertificate | None


def hilali_verdict(model: Model, *, assume_elliptic: bool = False,
                   max_degree: int | None = None,
                   max_probe: int | None = None) -> Verdict:
    """Compare dim V against the total cohomology dimension.

    Requires a minimal simply connected model certified elliptic (or an
    explicit truncation degree under ``assume_elliptic``).  Also evaluates
    the Euler characteristic sign constraints of elliptic models.
    Certification failures raise as in :func:`require_elliptic`.
    """
    report = check_differential(model)
    if not report.passed:
        raise ModelError("the differential fails validation; run check_differential")
    if not check_minimal(model):
        raise ModelError("the verdict is defined for minimal models only")
    table, certificate = cohomology_table(
        model, assume_elliptic=assume_elliptic, max_degree=max_degree,
        max_probe=max_probe)
    chi, chi_pi = euler_characteristics(model, table)
    signs_ok = chi >= 0 and chi_pi <= 0 and ((chi_pi < 0) == (chi == 0))
    dim_v = len(model.universe.generators)
    return Verdict(dim_v, table.total_dim, dim_v <= table.total_dim,
                   chi, chi_pi, signs_ok, assume_elliptic, table, certificate)
