"""Families, flatness, Tor semicontinuity, and the perturbation pipeline."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hilali import (ContradictionError, Derivation, Element, Model,
                    ModelError, ModuleFamily, PerturbedModel, certify_elliptic,
                    check_differential, classify, flatness_check,
                    formal_dimension_bound, parse_expression,
                    perturb_and_reduce, random_rational, restrict_model,
                    standard_family, tor_semicontinuity_check, universe)
from hilali import coboundary_basis, cocycle_basis, deformation
from hilali.cohomology import ChainComplex, betti, simply_connected
from hilali.linalg import intify, rank_of_rows

from dense_oracle import betti_below
from free_odd_line import FreeOddLineComplex
from modelgen import (certified_models, fresh_copy,
                      random_hyperelliptic_model)


def pe(text, uni):
    return parse_expression(text, uni)


def single_variable_family():
    ring = universe([("x", 2)])
    return ModuleFamily(ring, [pe("x^2", ring)],
                        [Element.generator(ring, "x")])


def test_fiber_lengths():
    family = single_variable_family()
    assert family.fiber(0).length == 2
    assert family.fiber(1).length == 2
    assert family.fiber(Fraction(-3, 7)).length == 2


def test_fiber_at_zero_matches_undeformed():
    family = single_variable_family()
    from hilali import quotient_basis
    ring = family.ring
    direct = quotient_basis(ring, [pe("x^2", ring)])
    assert family.fiber(0).length == direct.length
    assert family.fiber(0).standard_basis == direct.standard_basis


def test_product_family_lengths():
    ring = universe([("x1", 2), ("x2", 2)])
    family = ModuleFamily(ring, [pe("x1^2", ring), pe("x2^2", ring)],
                          [Element.generator(ring, "x1"),
                           Element.generator(ring, "x2")])
    for xi in (0, 1, Fraction(2, 3)):
        assert family.fiber(xi).length == 4


def test_constant_perturbation_flat():
    ring = universe([("x", 2)])
    family = ModuleFamily(ring, [pe("x^2", ring)], [Element.one(ring)])
    report = flatness_check(family, samples=4, seed=2)
    assert report.flat and report.common_length == 2


def test_scaling_family_flat_with_probability_one():
    ring = universe([("x", 2)])
    # x^2 * (1 + t): length 2 away from t = -1; sampling misses the bad point
    family = ModuleFamily(ring, [pe("x^2", ring)], [pe("x^2", ring)])
    report = flatness_check(family, samples=5, seed=3)
    assert report.flat and report.common_length == 2


def test_flatness_needs_two_samples():
    with pytest.raises(ModelError):
        flatness_check(single_variable_family(), samples=1)


def test_standard_family_flat_for_mixed_powers(corpus_models):
    family, actions = standard_family(corpus_models["pairwise-nonregular-n2r1"])
    report = flatness_check(family, samples=3, seed=0)
    assert report.flat
    assert report.common_length == 18


@pytest.mark.parametrize("name", ["n1r1-powers", "entangled-pairs-n2r1"])
def test_standard_family_fiber_at_zero_is_the_odd_basis_module(corpus_models,
                                                               name):
    # The fiber at t = 0 has the P's as its relations, so it is the odd
    # basis's own module, not a second quotient built from them.
    from hilali import halperin_basis
    model = fresh_copy(corpus_models[name])
    family, _ = standard_family(model)
    basis = halperin_basis(model)
    assert family.fiber(0) is basis.module
    assert family.relations_at(0) == basis.module.relations


def test_semicontinuity_strict_for_n1r1():
    ring = universe([("x", 2)])
    family = ModuleFamily(ring, [pe("x^2", ring)], [Element.generator(ring, "x")])
    report = tor_semicontinuity_check(family, [pe("x^3", ring)], samples=5, seed=1)
    assert report.passes
    assert report.base_dims == {0: 2, 1: 2}
    for sample in report.samples:
        assert sample.dims == {0: 1, 1: 1}
        assert sample.binomial_pattern


def test_semicontinuity_equality_for_trivial_family():
    ring = universe([("x", 2)])
    family = ModuleFamily(ring, [pe("x^2", ring)], [Element.zero(ring)])
    report = tor_semicontinuity_check(family, [pe("x^3", ring)], samples=3, seed=1)
    assert report.passes
    for sample in report.samples:
        assert sample.dims == report.base_dims


def test_semicontinuity_stable_across_seeds(corpus_models):
    family, actions = standard_family(corpus_models["n1r1-powers"])
    verdicts = []
    for seed in (0, 1, 2):
        report = tor_semicontinuity_check(family, actions, samples=5, seed=seed)
        verdicts.append((report.passes,
                         all(s.binomial_pattern for s in report.samples)))
    assert verdicts == [(True, True)] * 3


def _delta_composites(pm):
    """For each generator g of W, ``(d(delta(g)), delta(d(g)))``, with delta
    the derivation sending ybar to x and every other generator to zero."""
    uni = pm.w_model.universe
    d = pm.w_model.d
    delta = Derivation(uni, {pm.ybar_name: Element.generator(uni, pm.x_name)})
    gens = [Element.generator(uni, g.name) for g in uni.generators]
    return [(d(delta(g)), delta(d(g))) for g in gens]


def test_perturbed_model_structure():
    uni = universe([("x", 2), ("y", 3)])
    m = Model(uni, {"y": pe("x^2", uni)})
    pm = PerturbedModel(m, "x")
    assert pm.ybar_name == "ybar"
    assert pm.w_model.universe.by_name["ybar"].degree == 1
    composites = _delta_composites(pm)
    assert len(composites) == 3
    assert all(dd.is_zero and sd.is_zero for dd, sd in composites)
    rng = random.Random(4)
    for _ in range(5):
        xi = random_rational(rng, 1000)
        perturbed = pm.at_parameter(xi)
        assert check_differential(perturbed).passed


def test_perturbed_model_requires_closed_even_generator():
    uni = universe([("x", 2), ("y", 3)])
    m = Model(uni, {"y": pe("x^2", uni)})
    with pytest.raises(ModelError):
        PerturbedModel(m, "y")


def test_reduce_single_step():
    uni = universe([("x", 2), ("y", 3)])
    m = Model(uni, {"y": pe("x^2", uni)})
    report = perturb_and_reduce(m, samples=2, seed=0)
    assert report.dim_h == 2
    assert report.terminal_dim == 2
    [step] = report.steps
    assert step.dim_w_zero == 4
    assert step.dim_next == 2
    assert all(s.dim_w_xi == 2 for s in step.samples)
    assert report.passes


def test_reduce_all_odd_is_empty_pipeline():
    uni = universe([("y1", 3), ("y2", 5)])
    m = Model(uni, {})
    report = perturb_and_reduce(m, seed=0)
    assert report.steps == ()
    assert report.dim_h == report.terminal_dim == 4
    assert report.passes


def test_reduce_mixed_powers_chain(corpus_models):
    report = perturb_and_reduce(corpus_models["pairwise-nonregular-n2r1"],
                                samples=2, seed=0)
    assert report.passes
    assert report.dim_h >= 2 ** report.r
    assert report.terminal_dim == 2 ** (report.n + report.r)


def test_reduce_requires_hyperelliptic():
    uni = universe([("y1", 3), ("y2", 3), ("y", 5)])
    m = Model(uni, {"y": pe("y1*y2", uni)})
    with pytest.raises(ModelError):
        perturb_and_reduce(m)


def test_reduce_requires_elliptic(corpus_models):
    with pytest.raises(ModelError):
        perturb_and_reduce(corpus_models["nonelliptic-pair"])


def test_reduce_stable_across_seeds():
    uni = universe([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 3)])
    m = Model(uni, {"y1": pe("x1^2", uni), "y2": pe("x2^2", uni),
                    "y3": pe("x1*x2", uni)})
    results = {perturb_and_reduce(m, samples=2, seed=seed).dim_h
               for seed in (0, 1, 2)}
    assert results == {6}


def _reducible_models(corpus_models):
    """Every hyperelliptic corpus model certified elliptic, and the
    hyperelliptic models of ``tests/modelgen.py`` seeds 0-4 that certify."""
    models = [*corpus_models.values()]
    models += [random_hyperelliptic_model(random.Random(seed))
               for seed in range(5)]
    return [m for m in models if classify(m).is_hyperelliptic
            and certify_elliptic(m).elliptic]


def test_reduce_dimensions_match_whole_complexes(corpus_models):
    """dim H(W, d_0) from the block split, and dim H(W, d_xi) read from the
    lower half of W for every sample, equal the whole complexes of W
    eliminated directly with their vanishing windows."""
    models = _reducible_models(corpus_models)
    assert len(models) >= 15
    for model in models:
        for seed in range(5):
            current = model
            report = perturb_and_reduce(current, samples=3, seed=seed)
            for step in report.steps:
                pm = PerturbedModel(current, step.x_name)
                bound = formal_dimension_bound(pm.w_model)
                window = max(g.degree for g in pm.w_model.universe.generators)
                assert step.dim_w_zero == \
                    betti_below(pm.w_model, bound, window).total_dim
                assert len(step.samples) == 3
                for sample in step.samples:
                    assert sample.dim_w_xi == betti_below(
                        pm.at_parameter(sample.xi), bound, window).total_dim
                current = restrict_model(current, {step.x_name})


def test_reduce_identities_hold_on_every_step(corpus_models):
    """What each step reports without computing it: d∘delta = 0 and
    delta∘d = 0 on every generator of W, and (d + xi delta)^2 = 0 for every
    drawn xi, not only the first one that ``reduce`` checks."""
    steps = 0
    for model in _reducible_models(corpus_models):
        for seed in range(5):
            current = model
            report = perturb_and_reduce(current, samples=3, seed=seed)
            for step in report.steps:
                assert step.anticommutator == {
                    "d_after_delta_zero": True, "delta_after_d_zero": True,
                    "graded_anticommute": True}
                pm = PerturbedModel(current, step.x_name)
                for dd, sd in _delta_composites(pm):
                    assert dd.is_zero and sd.is_zero
                assert len(step.samples) == 3
                for sample in step.samples:
                    assert check_differential(
                        pm.at_parameter(sample.xi)).passed
                current = restrict_model(current, {step.x_name})
                steps += 1
    assert steps >= 100


def test_reduce_raises_on_a_quotient_that_fails_certification(
        corpus_models, monkeypatch):
    """The input is certified through ``cohomology_table``; each quotient
    by ``certify_elliptic`` as the deformation module binds it, so a
    failure there can only come from a quotient, and it is a
    contradiction."""
    model = fresh_copy(corpus_models["pairwise-nonregular-n2r1"])
    certified = []

    def failing(quotient):
        certified.append(quotient)
        return replace(certify_elliptic(quotient), elliptic=False)

    monkeypatch.setattr(deformation, "certify_elliptic", failing)
    with pytest.raises(ContradictionError, match="not certified elliptic"):
        perturb_and_reduce(model, seed=0)
    [quotient] = certified
    assert len(quotient.universe.generators) == \
        len(model.universe.generators) - 1


@pytest.mark.parametrize("passing", [0, 1])
def test_reduce_certifies_each_quotient_before_its_table(
        corpus_models, monkeypatch, passing):
    """The quotient whose certification fails raises before any degree of
    its table is eliminated; the quotients before it were certified and
    then computed."""
    model = fresh_copy(corpus_models["all-quadrics-n3r3"])
    certified = []

    def certify(quotient, max_probe=None):
        certified.append(quotient)
        certificate = certify_elliptic(quotient)
        return replace(certificate, elliptic=len(certified) <= passing)

    monkeypatch.setattr(deformation, "certify_elliptic", certify)
    with pytest.raises(ContradictionError, match="not certified elliptic"):
        perturb_and_reduce(model, seed=0)
    assert len(certified) == passing + 1
    assert certified[-1].d.ranks == {}
    assert all(quotient.d.ranks for quotient in certified[:-1])


def test_terminal_quotient_table_is_its_chain_dimensions(corpus_models):
    """``reduce`` reads the all-odd quotient's total as dim ΛP = 2^(n+r)
    once its d is checked to be zero; its table, computed directly
    through its bound, has that total."""
    for model in _reducible_models(corpus_models):
        report = perturb_and_reduce(model, samples=1, seed=0)
        terminal = restrict_model(
            model, {g.name for g in model.universe.evens})
        assert terminal.d.images == {} and not terminal.universe.evens
        total = betti(terminal, formal_dimension_bound(terminal)).total_dim
        assert total == report.terminal_dim == 2 ** (report.n + report.r)
        if report.steps:
            assert report.steps[-1].dim_next == total


def test_reduce_tables_equal_the_direct_complexes():
    """Each step's dim H(W, d_0), from Künneth and the current model's
    reflected table, equals the free-odd-line complex over the current
    model, ranked directly through W's bound; and each quotient's reflected
    total equals its table eliminated directly, with its window."""
    steps = 0
    for name, model in certified_models():
        report = perturb_and_reduce(model, samples=1, seed=0)
        current = Model(model.universe, model.d.images)
        for step in report.steps:
            pm = PerturbedModel(current, step.x_name)
            bound = formal_dimension_bound(pm.w_model)
            split = FreeOddLineComplex(pm.w_model, ChainComplex(current),
                                       pm.ybar_name)
            assert step.doubling_ok, name
            assert step.dim_w_zero == sum(
                split.betti_number(p) for p in range(bound + 1)), name
            current = restrict_model(current, {step.x_name})
            window = max(g.degree for g in current.universe.generators)
            assert step.dim_next == \
                betti_below(current, bound, window).total_dim, name
            steps += 1
    assert steps >= 300


def test_perturbed_models_are_assembled_only_through_the_bound(
        corpus_models, monkeypatch):
    """With every generator of degree at least 2, no (W, d_xi) row is
    assembled above degree (N - |x|) // 2 + |x| - 1, with N the current
    model's bound: r_q is ranked for q up to the middle of 0..N - |x| only,
    and read by duality above it."""
    # id -> (model, highest degree of W whose rows may be assembled) and
    # id -> (model, highest degree assembled); holding the model keeps
    # every id distinct
    limits = {}
    top = {}
    at_parameter, rows = PerturbedModel.at_parameter, ChainComplex.rows

    def recorded(self, xi):
        perturbed = at_parameter(self, xi)
        e = self.base.universe.by_name[self.x_name].degree
        limits[id(perturbed)] = (
            perturbed, (formal_dimension_bound(self.base) - e) // 2 + e - 1)
        return perturbed

    def assembling(self, degree, *monomials):
        _, highest = top.get(id(self.model), (None, -1))
        top[id(self.model)] = (self.model, max(highest, degree))
        return rows(self, degree, *monomials)

    monkeypatch.setattr(PerturbedModel, "at_parameter", recorded)
    monkeypatch.setattr(ChainComplex, "rows", assembling)
    for model in _reducible_models(corpus_models):
        assert simply_connected(model)
        limits.clear()
        report = perturb_and_reduce(model, samples=2, seed=0)
        assert len(limits) == len(report.steps)
        assembled = [(top[key][1], limit)
                     for key, (_, limit) in limits.items() if key in top]
        assert len(assembled) == len(report.steps)
        assert all(degree <= limit for degree, limit in assembled)


def _x_rank_by_cocycles(model, x_name, q):
    """rank(x·: H^q -> H^(q+|x|)), counted from explicit bases: the
    cocycles of degree q times x, modulo the coboundaries of degree
    q + |x|."""
    uni = model.universe
    x = Element.generator(uni, x_name)
    target = q + uni.by_name[x_name].degree
    index = {m: i for i, m in enumerate(uni.basis(target))}

    def row(e):
        return intify({index[m]: c for m, c in e.terms.items()})[0]
    boundaries = [row(b) for b in coboundary_basis(model, target)]
    products = [row(x * z) for z in cocycle_basis(model, q)]
    return rank_of_rows(boundaries + products) - len(boundaries)


def test_multiplication_ranks_match_cocycle_counts():
    """Every r_q that ``reduce`` reads from the block-triangular ranks of
    (W, d_xi), q = 0..N - |x|, equals the rank of x· counted from cocycle
    and coboundary bases in every degree; since every current model is
    simply connected, that count also equals the count at N - |x| - q."""
    rng = random.Random(36)
    steps = 0
    for name, model in certified_models():
        current = fresh_copy(model)
        while current.universe.evens:
            x = min(current.universe.evens, key=lambda g: (g.degree, g.index))
            pm = PerturbedModel(current, x.name)
            ranks = deformation._multiplication_ranks(
                current, pm.at_parameter(random_rational(rng)), x.degree)
            top = formal_dimension_bound(current) - x.degree
            counted = [_x_rank_by_cocycles(current, x.name, q)
                       for q in range(top + 1)]
            assert ranks == counted, (name, x.name)
            assert simply_connected(current), name
            assert counted == counted[::-1], (name, x.name)
            current = restrict_model(current, {x.name})
            steps += 1
    assert steps >= 300


def test_reduce_refuses_a_degree_one_generator(monkeypatch):
    """With a degree-1 generator the current model has no certified table
    (no cited duality holds), so ``reduce`` raises before it builds a
    perturbed complex."""
    uni = universe([("x", 2), ("z", 1), ("y", 3)])
    model = Model(uni, {"y": pe("x^2", uni)})
    assert not simply_connected(model) and certify_elliptic(model).elliptic
    perturbed = []
    at_parameter = PerturbedModel.at_parameter

    def recorded(self, xi):
        perturbed.append(at_parameter(self, xi))
        return perturbed[-1]

    monkeypatch.setattr(PerturbedModel, "at_parameter", recorded)
    with pytest.raises(ModelError, match="generator z has degree 1"):
        perturb_and_reduce(model, samples=2, seed=0)
    assert perturbed == [] and model.d.ranks == {}


def test_perturbed_complex_is_eliminated_once_per_step(corpus_models,
                                                       monkeypatch):
    perturbed = []
    extended = []
    assembled = {}      # id -> model, which keeps every id distinct
    at_parameter, rows = PerturbedModel.at_parameter, ChainComplex.rows
    init = PerturbedModel.__init__

    def recorded(self, xi):
        perturbed.append(at_parameter(self, xi))
        return perturbed[-1]

    def extending(self, base, x_name):
        init(self, base, x_name)
        extended.append(self.w_model)

    def assembling(self, degree, *monomials):
        assembled[id(self.model)] = self.model
        return rows(self, degree, *monomials)

    monkeypatch.setattr(PerturbedModel, "at_parameter", recorded)
    monkeypatch.setattr(PerturbedModel, "__init__", extending)
    monkeypatch.setattr(ChainComplex, "rows", assembling)
    for samples in (1, 2, 4):
        perturbed.clear()
        extended.clear()
        report = perturb_and_reduce(corpus_models["pairwise-nonregular-n2r1"],
                                    samples=samples, seed=0)
        assert len(perturbed) == len(report.steps) == 2
        eliminated = [m for m in perturbed if id(m) in assembled]
        assert len(eliminated) == len(report.steps)
        # (W, d_0) is read from the current model's ranks, never assembled
        assert len(extended) == len(report.steps)
        assert not any(id(w) in assembled for w in extended)


def test_reduce_needs_one_sample():
    uni = universe([("x", 2), ("y", 3)])
    with pytest.raises(ModelError):
        perturb_and_reduce(Model(uni, {"y": pe("x^2", uni)}), samples=0)


def test_semicontinuity_on_random_pure_models():
    from hilali import check_minimal
    rng = random.Random(910)
    checked = 0
    while checked < 4:
        m = random_hyperelliptic_model(rng, n_max=2, r_max=2)
        if not classify(m).is_pure or not check_minimal(m):
            continue
        if not certify_elliptic(m).elliptic:
            continue
        family, actions = standard_family(m, seed=0)
        flat = flatness_check(family, samples=3, seed=0)
        assert flat.flat, m.name
        semi = tor_semicontinuity_check(family, actions, samples=3, seed=0)
        assert semi.passes, m.name
        checked += 1


def test_random_rational_bounds():
    rng = random.Random(0)
    for _ in range(100):
        q = random_rational(rng, 50)
        assert q != 0
        assert abs(q.numerator) <= 50 * 50 and q.denominator <= 50 * 50
