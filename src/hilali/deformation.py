"""One-parameter families of quotient modules and perturbed differentials.

Two pipelines live here.  Quotient-module families ``(P_i + t Q_i)`` support
fiber evaluation at exact rational parameters, the constant-length flatness
test, and Tor semicontinuity sampling.  Differential perturbations adjoin a
contractible odd line, verify the cancellation equality and the
semicontinuity inequality, and drive the stepwise reduction to the
all-odd model, producing the 2^r lower bound on total cohomology.  The
doubling ``dim H(W, d_0) = 2 dim H(current)`` is the Künneth formula for
the free odd line, and ``dim H(W, d_xi)``, one number for every xi != 0, is
read from the lower half of one perturbed complex per step through the
exact sequence 0 -> ΛV -> W -> ΛV·ybar -> 0 and Poincaré duality of H(ΛV).
The rescaling ybar -> ybar / xi carries that one complex, and its checked
square, to every other xi; the identities of d and delta hold by
construction and are not recomputed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .algebra import Element
from .cohomology import (ChainComplex, betti_complete, certify_elliptic,
                         cohomology_table, formal_dimension_bound)
from .errors import ContradictionError, ModelError
from .koszul import (QuotientModule, SModuleStructure, halperin_basis,
                     quotient_basis, tor_table)
from .model import (Model, check_differential, classify, restrict_model,
                    tensor_with_odd_line)


def random_rational(rng: random.Random, bound: int = 10**6) -> Fraction:
    """A nonzero rational with numerator and denominator up to ``bound``."""
    num = rng.randint(1, bound) * rng.choice((1, -1))
    den = rng.randint(1, bound)
    return Fraction(num, den)


def _distinct_parameters(rng: random.Random, count: int) -> list[Fraction]:
    """``count`` distinct nonzero rationals, in the order ``rng`` draws
    them; a repeated draw is skipped."""
    out: list[Fraction] = []
    while len(out) < count:
        xi = random_rational(rng)
        if xi not in out:
            out.append(xi)
    return out


# -- families of quotient modules ---------------------------------------------


class ModuleFamily:
    """Relations ``P_i + t Q_i`` over an even polynomial ring, one parameter.

    The parameter is never adjoined to the ring: fibers are evaluated at
    exact rational values and cached.
    """

    def __init__(self, ring, base_relations: list[Element],
                 perturbations: list[Element]):
        if len(base_relations) != len(perturbations):
            raise ModelError("each relation needs a perturbation (possibly zero)")
        self.ring = ring
        self.base_relations = list(base_relations)
        self.perturbations = list(perturbations)
        self.fiber_cache: dict[Fraction, QuotientModule] = {}

    def relations_at(self, xi) -> list[Element]:
        xi = Fraction(xi)
        return [p + q.scale(xi) for p, q in
                zip(self.base_relations, self.perturbations)]

    def fiber(self, xi) -> QuotientModule:
        """Quotient by the relations evaluated at ``t = xi``."""
        xi = Fraction(xi)
        if xi not in self.fiber_cache:
            self.fiber_cache[xi] = quotient_basis(self.ring,
                                                  self.relations_at(xi))
        return self.fiber_cache[xi]


def standard_family(model: Model, seed: int = 0):
    """The family ``(P_i + t x_i)`` attached to a pure elliptic model.

    The P's come from the odd-basis search; the remaining images act as the
    module parameters.  The fiber at t = 0 is the search's own module,
    whose relations are the P's.  Returns ``(family, action_polys)``.
    """
    basis = halperin_basis(model, seed=seed)
    ring = basis.module.ring
    n = len(ring.evens)
    perturbations = [Element.generator(ring, g.name) for g in ring.evens]
    family = ModuleFamily(ring, basis.images[:n], perturbations)
    family.fiber_cache[Fraction(0)] = basis.module
    return family, basis.images[n:]


@dataclass(frozen=True)
class FlatnessReport:
    verdict: str                     # "flat" | "not flat"
    lengths: tuple[tuple[Fraction, int], ...]
    common_length: int | None

    @property
    def flat(self) -> bool:
        return self.verdict == "flat"


def flatness_check(family: ModuleFamily, samples: int = 5,
                   seed: int = 0) -> FlatnessReport:
    """Flatness as constant fiber length: compare t = 0 against random
    nonzero rational parameters."""
    if samples < 2:
        raise ModelError("flatness sampling needs at least two fibers")
    points = [Fraction(0)] + _distinct_parameters(random.Random(seed), samples)
    lengths = tuple((xi, family.fiber(xi).length) for xi in points)
    values = {length for _, length in lengths}
    if len(values) == 1:
        return FlatnessReport("flat", lengths, values.pop())
    return FlatnessReport("not flat", lengths, None)


@dataclass(frozen=True)
class SemicontinuitySample:
    xi: Fraction
    dims: dict[int, int]
    dominated: bool          # dims[k] <= base dims[k] for every k
    binomial_pattern: bool   # dims equal binom(r, k): the split-fiber shape


@dataclass(frozen=True)
class SemicontinuityReport:
    base_dims: dict[int, int]
    samples: tuple[SemicontinuitySample, ...]
    passes: bool


def tor_semicontinuity_check(family: ModuleFamily, action_polys: list[Element],
                             samples: int = 5, seed: int = 0) -> SemicontinuityReport:
    """Check dim Tor^k(fiber at xi) <= dim Tor^k(fiber at 0) for sampled xi.

    A violated inequality contradicts semicontinuity over a flat family, so
    it raises :class:`ContradictionError`.  The report also records whether
    each sampled fiber shows the generic binomial pattern.
    """
    base = family.fiber(0)
    base_table = tor_table(base, SModuleStructure(base, action_polys))
    r = len(action_polys)
    out = []
    for xi in _distinct_parameters(random.Random(seed), samples):
        fiber = family.fiber(xi)
        table = tor_table(fiber, SModuleStructure(fiber, action_polys))
        dominated = all(table[k] <= base_table[k] for k in range(r + 1))
        if not dominated:
            raise ContradictionError(
                f"Tor semicontinuity violated at xi = {xi}: "
                f"{table.dims} exceeds {base_table.dims}")
        pattern = all(table[k] == comb(r, k) for k in range(r + 1))
        out.append(SemicontinuitySample(xi, dict(table.dims), dominated, pattern))
    return SemicontinuityReport(dict(base_table.dims), tuple(out), True)


# -- perturbed differentials ---------------------------------------------------


class PerturbedModel:
    """A model extended by one odd generator ybar with d(ybar) = 0, for the
    perturbation delta sending ybar to a chosen closed even generator x.

    ``at_parameter(xi)`` realizes the perturbed differential d + xi * delta.
    delta is never built: its identities with d hold by construction (see
    ``_ANTICOMMUTATOR``), and the square of d + xi * delta vanishes for every
    xi because x is closed and no image mentions ybar.
    """

    def __init__(self, base: Model, x_name: str):
        gen = base.universe.by_name.get(x_name)
        if gen is None or gen.is_odd:
            raise ModelError(f"{x_name!r} is not an even generator")
        if not base.d.of_generator(x_name).is_zero:
            raise ModelError(f"{x_name!r} must be closed to admit the pairing")
        self.base = base
        self.x_name = x_name
        name = "ybar"
        k = 1
        while name in base.universe.by_name:
            name = f"ybar{k}"
            k += 1
        self.ybar_name = name
        self.w_model = tensor_with_odd_line(base, name, gen.degree - 1)

    def at_parameter(self, xi) -> Model:
        images = dict(self.w_model.d.images)
        images[self.ybar_name] = Element.generator(
            self.w_model.universe, self.x_name).scale(Fraction(xi))
        return Model(self.w_model.universe, images, name=self.w_model.name)


# The identities of d and delta on W, true for every PerturbedModel.  delta
# sends ybar to x and every other generator to zero.  d∘delta = 0, since
# d(x) = 0: PerturbedModel refuses an x that is not closed.  delta∘d = 0,
# since no image of d mentions the fresh ybar, so Leibniz gives
# delta(dg) = 0.  Their sum, the graded anticommutator, vanishes with them.
_ANTICOMMUTATOR = {"d_after_delta_zero": True, "delta_after_d_zero": True,
                   "graded_anticommute": True}


def _multiplication_ranks(current: Model, perturbed: Model,
                          x_degree: int) -> list[int]:
    """r_q = rank(x·: H^q -> H^(q+|x|)) on H = H(current), q = 0..N - |x|
    with N the current model's bound, from the ranks of ``perturbed``: the
    current model ΛV with ybar adjoined and ``d_xi(ybar) = xi x``.

    d_xi is block-triangular on W = ΛV ⊕ ΛV·ybar, so rank d_W in degree
    q + |x| - 1 is rank d_q + rank d_(q+|x|-1) + r_q; and r_q = 0 for
    larger q, since H vanishes above N.  The current model has a certified
    simply connected table, so H is a Poincaré duality algebra of formal
    dimension N (Halperin 1977; FHT Prop. 38.3), where <xa, b> = <a, xb>
    makes x· on H^q the transpose of x· on H^(N-|x|-q): above the middle,
    r_q is read as r_(N-|x|-q).
    """
    cx, cw = ChainComplex(current), ChainComplex(perturbed)
    top = formal_dimension_bound(current) - x_degree
    lower = [cw.rank(q + x_degree - 1) - cx.rank(q) - cx.rank(q + x_degree - 1)
             for q in range(top // 2 + 1)]
    return [lower[min(q, top - q)] for q in range(top + 1)]


@dataclass(frozen=True)
class ReductionSample:
    xi: Fraction
    dim_w_xi: int
    collapse_ok: bool      # dim H(W, d_xi) equals dim H of the quotient model
    dominated: bool        # dim H(W, d_xi) <= dim H(W, d_0)


@dataclass(frozen=True)
class ReductionStep:
    x_name: str
    ybar_degree: int
    dim_current: int
    dim_w_zero: int
    doubling_ok: bool      # dim_w_zero = 2 dim_current, true by Künneth
    dim_next: int
    samples: tuple[ReductionSample, ...]
    anticommutator: dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class ReductionReport:
    steps: tuple[ReductionStep, ...]
    n: int
    r: int
    dim_h: int
    terminal_dim: int        # 2^(n+r) = dim ΛP, the all-odd model with d = 0
    chain_ok: bool           # 2^n * dim_h >= 2^(n+r)
    lower_bound_ok: bool     # dim_h >= 2^r

    @property
    def passes(self) -> bool:
        return self.chain_ok and self.lower_bound_ok


def perturb_and_reduce(model: Model, samples: int = 2,
                       seed: int = 0) -> ReductionReport:
    """Cancel the even generators one at a time against perturbed odd lines.

    Each step adjoins ybar with ``d_xi(ybar) = xi * x`` for the lowest even
    generator x of the current model and checks the cancellation equality
    ``dim H(W, d_xi) = dim H(quotient)`` and the semicontinuity inequality
    ``dim H(W, d_xi) <= dim H(W, d_0)``.  The terminal model is all-odd
    with zero differential and total dimension ``2^(n+r)``, yielding
    ``2^n dim H >= 2^(n+r)`` and the lower bound ``dim H >= 2^r``.

    For ``xi != 0``, ``ybar -> ybar / xi`` with every other generator fixed
    is a DGA isomorphism ``(W, d_1) -> (W, d_xi)``: x is closed and no
    image mentions the fresh ybar.  So dim H(W, d_xi) is one number per
    step, ``2 (dim H - sum_q r_q)`` by the long exact sequence of
    ``0 -> ΛV -> W -> ΛV·ybar -> 0`` (see :func:`_multiplication_ranks`),
    at most dim H(W, d_0) by construction.  It is reported for every
    drawn xi.  Only the first drawn xi gets a perturbed model, checked to
    give ``(d + xi delta)^2 = 0``: the isomorphism conjugates one square
    into the other, so that check covers every xi != 0.  Each step reports
    ``_ANTICOMMUTATOR``, whose identities hold by construction.

    Every current model is certified elliptic before its table is
    computed: the input by :func:`cohomology_table`, which refuses a model
    with a degree-1 generator, and each quotient that keeps an even
    generator by :func:`certify_elliptic` (its pure-part quotient
    ΛQ/(P, x) has finite length whenever ΛQ/(P) does, so a failure raises
    :class:`ContradictionError`).  Their tables come from
    :func:`~hilali.cohomology.betti_complete`.  The all-odd quotient ΛP is
    checked to have d = 0, so its total is dim ΛP = 2^(n+r), read with no
    table.

    ``(W, d_0)`` is the current model tensored with the free odd line
    Λ(ybar), so by Künneth ``dim H(W, d_0)`` is twice the current model's
    total: the doubling holds by construction, and no block of
    ``(W, d_0)`` is eliminated.
    """
    if samples < 1:
        raise ModelError("reduction sampling needs at least one parameter")
    cls = classify(model)
    if not cls.is_hyperelliptic:
        raise ModelError("the reduction pipeline requires a hyperelliptic model")
    rng = random.Random(seed)
    dim_h = cohomology_table(model)[0].total_dim
    n = cls.n
    r = cls.r
    current = model
    dim_current = dim_h
    steps = []
    while any(not g.is_odd for g in current.universe.generators):
        target = min((g for g in current.universe.generators if not g.is_odd),
                     key=lambda g: (g.degree, g.index))
        pm = PerturbedModel(current, target.name)
        quotient = restrict_model(current, {target.name})
        if quotient.universe.evens:
            certificate = certify_elliptic(quotient)
            if not certificate.elliptic:
                raise ContradictionError(
                    f"the quotient by {target.name} is not certified "
                    f"elliptic: {certificate.evidence}")
            dim_next = betti_complete(quotient, certificate).total_dim
        elif quotient.d.images:
            raise ContradictionError(
                "terminal all-odd model has nonzero differential")
        else:
            dim_next = 2 ** len(quotient.universe.odds)    # H(ΛP, 0) = ΛP
        # Künneth for the free odd line: b^W_p = b_p + b_(p - deg ybar)
        dim_w0 = 2 * dim_current
        # dim H(W, d_xi) = dim_next for every xi, so this bounds them all
        if dim_next > dim_w0:
            raise ContradictionError(
                f"semicontinuity failed at {target.name}: dim H(next) = "
                f"{dim_next} > dim H(W, d_0) = {dim_w0}")
        xis = _distinct_parameters(rng, samples)
        # d_xi = phi d_xi[0] phi^-1 with phi(ybar) = (xi[0] / xi) ybar, so
        # one square checked to vanish covers every xi
        w = pm.at_parameter(xis[0])
        if not check_differential(w).passed:
            raise ContradictionError(f"(d + xi delta)^2 != 0 at xi = {xis[0]}")
        dim_wxi = 2 * (dim_current - sum(_multiplication_ranks(
            current, w, target.degree)))
        if dim_wxi != dim_next:
            raise ContradictionError(
                f"cancellation equality failed at {target.name}: "
                f"dim H(W, d_xi) = {dim_wxi} != {dim_next}")
        steps.append(ReductionStep(
            target.name, pm.w_model.universe.by_name[pm.ybar_name].degree,
            dim_current, dim_w0, True, dim_next,
            tuple(ReductionSample(xi, dim_wxi, True, True) for xi in xis),
            dict(_ANTICOMMUTATOR)))
        current, dim_current = quotient, dim_next
    terminal_expected = 2 ** len(current.universe.odds)
    chain_ok = (2 ** n) * dim_h >= terminal_expected
    lower_bound_ok = dim_h >= 2 ** r
    if not (chain_ok and lower_bound_ok):
        raise ContradictionError(
            f"reduction chain failed: 2^{n} * {dim_h} vs 2^{n + r}")
    return ReductionReport(tuple(steps), n, r, dim_h, terminal_expected,
                           chain_ok, lower_bound_ok)
