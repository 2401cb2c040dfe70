"""Betti tables, ellipticity certificates, Euler signs, explicit bases."""

import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import hilali.cohomology
from hilali import (ContradictionError, Element, EngineError, Model,
                    ModelError, PerturbedModel, UniverseMismatchError, betti,
                    betti_by_odd_count, betti_complete, certify_elliptic,
                    check_differential,
                    coboundary_basis, cocycle_basis, euler_characteristics,
                    classify, cohomology_table, formal_dimension_bound,
                    hilali_verdict, is_exact, parse_expression,
                    perturb_and_reduce, tensor_with_odd_line, universe)
from hilali.algebra import Monomial
from hilali.cohomology import ChainComplex
from hilali.linalg import Echelon, intify, kernel_of_rows, rank_of_rows
from hilali.model import _leibniz

from dense_oracle import (betti_below, betti_dense, dense_rank,
                          naive_differential)
from free_odd_line import FreeOddLineComplex
from modelgen import (certified_models, fresh_copy,
                      random_hyperelliptic_model, random_model)


def build(specs, diff_texts, **kw):
    uni = universe(specs)
    return Model(uni, {k: parse_expression(v, uni) for k, v in diff_texts.items()}, **kw)


def test_odd_sphere():
    m = build([("y", 3)], {})
    table = betti(m, 6)
    assert table.dims == {0: 1, 3: 1}
    assert table.total_dim == 2


def test_even_sphere_model():
    m = build([("x", 2), ("y", 3)], {"y": "x^2"})
    cert = certify_elliptic(m)
    assert cert.elliptic and cert.formal_dimension_bound == 2
    table = betti_complete(m, cert)
    assert table.dims == {0: 1, 2: 1}
    assert table.complete


def test_all_odd_total_is_power_of_two():
    for degrees in [(3,), (3, 3), (3, 5, 7), (3, 3, 5, 5)]:
        m = build([(f"y{i}", d) for i, d in enumerate(degrees)], {})
        table = betti(m, sum(degrees))
        assert table.total_dim == 2 ** len(degrees)


def test_rank_nullity_per_degree():
    m = build([("x1", 2), ("x2", 6), ("y1", 11), ("y2", 17), ("y3", 13)],
              {"y1": "x1^6 + x2^2", "y2": "x1^9 + x2^3", "y3": "x1^4*x2 + x1*x2^2"})
    cx = ChainComplex(m)
    for p in range(12):
        kernel_dim = cx.chain_dim(p) - cx.rank(p)
        assert kernel_dim + cx.rank(p) == cx.chain_dim(p)
        assert cx.betti_number(p) == kernel_dim - cx.rank(p - 1)


def test_euler_characteristics_examples():
    m = build([("x", 2), ("y", 3)], {"y": "x^2"})
    cert = certify_elliptic(m)
    table = betti_complete(m, cert)
    assert euler_characteristics(m, table) == (2, 0)

    sphere = build([("y", 3)], {})
    cert = certify_elliptic(sphere)
    assert euler_characteristics(sphere, betti_complete(sphere, cert)) == (0, -1)


def test_euler_characteristics_requires_complete():
    m = build([("x", 2), ("y", 3)], {"y": "x^2"})
    with pytest.raises(EngineError):
        euler_characteristics(m, betti(m, 4))


def test_chi_vanishes_when_chi_pi_negative():
    m = build([("x1", 2), ("x2", 6), ("y1", 11), ("y2", 17), ("y3", 13)],
              {"y1": "x1^6 + x2^2", "y2": "x1^9 + x2^3", "y3": "x1^4*x2 + x1*x2^2"})
    cert = certify_elliptic(m)
    chi, chi_pi = euler_characteristics(m, betti_complete(m, cert))
    assert chi_pi == -1
    assert chi == 0


def test_certify_rejects_the_nonregular_pair_submodel():
    m = build([("x1", 2), ("x2", 6), ("y2", 17), ("y3", 13)],
              {"y2": "x1^9 + x2^3", "y3": "x1^4*x2 + x1*x2^2"})
    cert = certify_elliptic(m)
    assert not cert.elliptic


def test_certify_accepts_the_other_pair_submodels():
    # The two remaining pair sub-models of the mixed-powers example are
    # genuinely elliptic: a pure power of each generator lands in the ideal
    # (for instance 2 x1^12 = x1^6 P1 + (x2 + x1^3)(P2 - x2 P1)).
    for diff in ({"y1": "x1^6 + x2^2", "y2": "x1^9 + x2^3"},
                 {"y1": "x1^6 + x2^2", "y3": "x1^4*x2 + x1*x2^2"}):
        gens = [("x1", 2), ("x2", 6)] + \
            [(n, {"y1": 11, "y2": 17, "y3": 13}[n]) for n in diff]
        m = build(gens, diff)
        assert certify_elliptic(m).elliptic


def test_certify_rejects_even_only():
    m = build([("x", 2)], {})
    cert = certify_elliptic(m)
    assert not cert.elliptic


def test_certify_requires_hyperelliptic():
    m = build([("y1", 3), ("y2", 3), ("y", 5)], {"y": "y1*y2"})
    with pytest.raises(ModelError):
        certify_elliptic(m)


def test_vanishing_window_above_bound(corpus_models):
    for name in ("n1r1-powers", "pure-n2r1-diag", "squarefree-n2"):
        m = corpus_models[name]
        cert = certify_elliptic(m)
        bound = cert.formal_dimension_bound
        window = max(g.degree for g in m.universe.generators)
        table = betti(m, bound + window)
        for p in range(bound + 1, bound + window + 1):
            assert table[p] == 0


def test_betti_below_raises_on_a_class_above_its_bound(corpus_models):
    # nonelliptic-pair has H^25 = 1; truncated at 24, the degrees through 24
    # read as a palindrome, and only the window shows the class
    m = corpus_models["nonelliptic-pair"]
    window = max(g.degree for g in m.universe.generators)
    truncated = betti(m, 24)
    assert all(truncated[p] == truncated[24 - p] for p in range(25))
    with pytest.raises(ContradictionError, match="degree 25 above the bound 24"):
        betti_below(m, 24, window)


def test_reflected_tables_equal_the_direct_windowed_tables():
    """Poincaré duality as an oracle: every certified table, eliminated
    only through N // 2 and reflected, equals the table eliminated directly
    in every degree through N, whose window of one maximal generator degree
    above N is zero."""
    checked = 0
    for name, m in certified_models():
        cert = certify_elliptic(m)
        bound = cert.formal_dimension_bound
        table = betti_complete(m, cert)
        assert max(m.d.ranks) == bound // 2, name
        window = max(g.degree for g in m.universe.generators)
        fresh = fresh_copy(m)
        assert table == betti_below(fresh, bound, window), name
        assert max(fresh.d.ranks) == bound + window
        checked += 1
    assert checked >= 250


def test_tables_outside_the_duality_theorem_are_computed_above_half():
    # under assume_elliptic there is no certificate: every degree is direct
    m = build([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 5)],
              {"y1": "x1^2", "y2": "x2^2", "y3": "x1^2*x2"})
    bound = formal_dimension_bound(m)
    table, cert = cohomology_table(m, assume_elliptic=True, max_degree=bound)
    assert cert is None and max(m.d.ranks) == bound > bound // 2
    assert table.dims == betti_complete(fresh_copy(m),
                                        certify_elliptic(m)).dims
    # a degree-1 generator: no certified table, but the assumed one is
    # direct in every degree and equals the table with its vanishing window
    m = build([("x", 2), ("z", 1), ("y", 3)], {"y": "x^2"})
    table, cert = cohomology_table(m, assume_elliptic=True, max_degree=3)
    assert cert is None and max(m.d.ranks) == 3
    assert table == betti_below(fresh_copy(m), 3, 3)
    assert table.dims == {0: 1, 1: 1, 2: 1, 3: 1}


def test_certified_tables_refuse_a_degree_one_generator():
    """Halperin's duality theorem is for simply connected models, so a
    certified table, a verdict and a reduction all refuse a model with a
    degree-1 generator, even one certified elliptic; no degree of it is
    eliminated."""
    m = build([("x", 2), ("z", 1), ("y", 3)], {"y": "x^2"})
    cert = certify_elliptic(m)
    assert cert.elliptic and cert.formal_dimension_bound == 3
    refusal = "generator z has degree 1; a certified table needs a simply "
    with pytest.raises(ModelError, match=refusal):
        betti_complete(m, cert)
    for compute in (cohomology_table, hilali_verdict, perturb_and_reduce):
        with pytest.raises(ModelError, match=refusal):
            compute(m)
    assert m.d.ranks == {}
    # a failed certificate never gives a table
    with pytest.raises(ModelError, match="requires an ellipticity"):
        betti_complete(m, replace(cert, elliptic=False))


def test_odd_count_split_reads_no_reflected_table(corpus_models, monkeypatch):
    def reflected(*args):
        raise AssertionError("the cross-check read a reflected table")

    names = ("n1r1-powers", "squarefree-n3", "pure-n2r1-diag")
    totals = [cohomology_table(corpus_models[name])[0].total_dim
              for name in names]
    monkeypatch.setattr(hilali.cohomology, "betti_complete", reflected)
    for name, total in zip(names, totals):
        m = fresh_copy(corpus_models[name])
        cert = certify_elliptic(m)
        assert sum(betti_by_odd_count(m).values()) == total
        assert max(m.d.ranks) == cert.formal_dimension_bound


def test_euler_signs_on_certified_corpus(corpus_models):
    for m in corpus_models.values():
        cls = classify(m)
        if not (cls.is_hyperelliptic and cls.r >= 0):
            continue
        cert = certify_elliptic(m)
        if not cert.elliptic:
            continue
        chi, chi_pi = euler_characteristics(m, betti_complete(m, cert))
        assert chi >= 0
        assert chi_pi <= 0
        assert (chi_pi < 0) == (chi == 0)


def test_cocycles_alpha_classes():
    m = build([("x1", 2), ("x2", 2), ("x3", 2)] + [(f"y{i}", 3) for i in range(1, 6)],
              {"y1": "x1^2", "y2": "x1*x2", "y3": "x2^2",
               "y4": "x1*x3", "y5": "x2*x3"})
    a1 = parse_expression("x3*y2*y3 + x1*y3*y5 - x2*y2*y5", m.universe)
    a2 = parse_expression("x3*y1*y2 - x2*y1*y4 + x1*y2*y4", m.universe)
    assert m.apply(a1).is_zero and m.apply(a2).is_zero
    cycles = cocycle_basis(m, 8)
    from hilali.linalg import Rref
    index = {mono: i for i, mono in enumerate(m.universe.basis(8))}
    span = Rref()
    for e in cycles:
        span.add(intify({index[mono]: c for mono, c in e.terms.items()})[0])
    for alpha in (a1, a2):
        remainder, _ = span.reduce(
            intify({index[mono]: c for mono, c in alpha.terms.items()})[0])
        assert remainder == {}


def test_boundary_of_triple_product_in_coboundary_span():
    m = build([("x1", 2), ("x2", 2), ("x3", 2)] + [(f"y{i}", 3) for i in range(1, 7)],
              {"y1": "x1^2", "y2": "x1*x2", "y3": "x2^2",
               "y4": "x1*x3", "y5": "x2*x3", "y6": "x3^2"})
    boundary = m.apply(parse_expression("y1*y2*y3", m.universe))
    assert is_exact(m, boundary)


def test_degree_zero_element_is_not_exact():
    # im(d) is zero in degree 0, so no nonzero constant bounds
    m = build([("x", 2), ("y", 3)], {"y": "x^2"})
    assert not is_exact(m, parse_expression("1", m.universe))
    assert coboundary_basis(m, 0) == []


def test_is_exact_rejects_an_element_over_another_universe(corpus_models):
    m = corpus_models["sphere-s3"]
    for specs, name in (([("a", 3)], "a"), ([("a", 2), ("b", 5)], "b")):
        e = Element.generator(universe(specs), name)
        with pytest.raises(UniverseMismatchError):
            is_exact(m, e)


def test_cocycle_span_contains_coboundary_span():
    m = build([("x1", 2), ("y1", 3), ("y2", 5)], {"y1": "x1^2", "y2": "x1^3"})
    from hilali.linalg import Rref
    for degree in range(2, 9):
        index = {mono: i for i, mono in enumerate(m.universe.basis(degree))}
        span = Rref()
        for e in cocycle_basis(m, degree):
            span.add(intify({index[mono]: c for mono, c in e.terms.items()})[0])
        for e in coboundary_basis(m, degree):
            remainder, _ = span.reduce(
                intify({index[mono]: c for mono, c in e.terms.items()})[0])
            assert remainder == {}
        # and every basis element is closed
        for e in cocycle_basis(m, degree):
            assert m.apply(e).is_zero


def test_doubling_with_free_odd_line(corpus_models):
    m = corpus_models["pure-n2r1-diag"]
    cert = certify_elliptic(m)
    base = betti_complete(m, cert)
    extended = tensor_with_odd_line(m, "ybar", 3)
    bound = cert.formal_dimension_bound + 3
    window = max(g.degree for g in extended.universe.generators)
    table = betti(extended, bound + window)
    assert table.total_dim == 2 * base.total_dim


@pytest.mark.parametrize("name, shift", [
    *(pytest.param(name, 3, id=name)
      for name in ("pure-n2r1-diag", "squarefree-n2", "odd-triple",
                   "hyper-nonpure-n3r4")),
    # the shift reduce uses for a degree-2 x; degree 0 lies below it
    pytest.param("pure-n2r1-diag", 1, id="pure-n2r1-diag-ybar-degree-1")])
def test_free_odd_line_blocks_add_up_to_the_whole_complex(corpus_models,
                                                          monkeypatch, name,
                                                          shift):
    m = corpus_models[name]
    extended = tensor_with_odd_line(m, "ybar", shift)
    base = ChainComplex(m)
    split = FreeOddLineComplex(extended, base, "ybar")
    whole = ChainComplex(extended)
    assert split.pure == whole.pure
    blocks = range(len(extended.universe.odds) + 1) if whole.pure else ()

    def numbers(cx):
        return [(cx.chain_dim(p), cx.rank(p), cx.betti_number(p),
                 [(cx.chain_dim(p, q), cx.rank(p, q), cx.betti_number(p, q))
                  for q in blocks]) for p in range(16)]

    expected = numbers(whole)
    for p in range(16):
        base.rank(p)
    # once the base is ranked, the split assembles nothing
    rows = ChainComplex.rows
    assembled = []

    def recorded(self, degree, *monomials):
        assembled.append(degree)
        return rows(self, degree, *monomials)

    monkeypatch.setattr(ChainComplex, "rows", recorded)
    assert numbers(split) == expected
    assert assembled == []


def test_complexes_of_one_model_share_its_ranks(corpus_models, monkeypatch):
    models = [fresh_copy(corpus_models[name])
              for name in ("squarefree-n2", "hyper-nonpure-n3r4")]
    first = ChainComplex(models[0]), ChainComplex(models[1])
    ranks = [[cx.rank(p) for p in range(16)] for cx in first]
    rows = ChainComplex.rows
    assembled = []

    def recorded(self, degree, *monomials):
        assembled.append(degree)
        return rows(self, degree, *monomials)

    monkeypatch.setattr(ChainComplex, "rows", recorded)
    assert [[ChainComplex(m).rank(p) for p in range(16)]
            for m in models] == ranks
    assert assembled == []


def test_complexes_of_one_model_classify_it_once(corpus_models, monkeypatch):
    import hilali.cohomology
    calls = []

    def counted(model):
        calls.append(model)
        return classify(model)

    monkeypatch.setattr(hilali.cohomology, "classify", counted)
    for name, pure in (("squarefree-n2", True), ("hyper-nonpure-n3r4", False)):
        m = fresh_copy(corpus_models[name])
        assert [ChainComplex(m).pure for _ in range(2)] == [pure, pure]
        assert calls.count(m) == 1 and m.d.memo["pure"] is pure


def test_differential_keeps_only_images_and_ranks(corpus_models):
    # monomial images are computed and dropped; only the ranks and the
    # memo stay, and a certified table leaves in the memo only the model's
    # purity, its validation report and its certificate
    m = fresh_copy(corpus_models["all-quadrics-n3r3"])
    table, cert = cohomology_table(m)
    assert table.complete and m.d.ranks
    assert set(vars(m.d)) == {"universe", "images", "ranks", "memo"}
    assert m.d.memo == {"pure": True, "validation": check_differential(m),
                        ("certificate", None): cert}


def test_certificates_are_kept_per_probe_ceiling(corpus_models):
    m = fresh_copy(corpus_models["all-quadrics-n3r3"])
    assert certify_elliptic(m, max_probe=1).indeterminate
    cert = certify_elliptic(m)
    assert cert.elliptic and cert.length == 4
    assert certify_elliptic(m, max_probe=1).indeterminate
    assert certify_elliptic(m) is cert


@pytest.mark.parametrize("name", ["pure-n2r1-diag", "hyper-nonpure-n3r4"])
def test_free_odd_line_ranks_stay_out_of_the_shared_memo(corpus_models, name):
    m = corpus_models[name]
    w = tensor_with_odd_line(m, "ybar", 3)
    split = FreeOddLineComplex(w, ChainComplex(m), "ybar")
    for p in range(16):
        split.rank(p)
    assert w.d.ranks == {}
    for p in range(16):
        assert ChainComplex(w).rank(p) == rank_of_rows(ChainComplex(w).rows(p))


def test_free_odd_line_needs_the_base_with_a_closed_line(corpus_models):
    m = corpus_models["pure-n2r1-diag"]
    extended = tensor_with_odd_line(m, "ybar", 3)
    other = corpus_models["squarefree-n2"]
    with pytest.raises(ModelError):
        FreeOddLineComplex(extended, ChainComplex(other), "ybar")
    uni = extended.universe
    x = uni.evens[0].name
    perturbed = Model(uni, {**extended.d.images,
                           "ybar": parse_expression(x + "^2", uni)})
    with pytest.raises(ModelError):
        FreeOddLineComplex(perturbed, ChainComplex(m), "ybar")


def test_betti_by_odd_count_sums_to_total(corpus_models):
    m = corpus_models["n1r1-powers"]
    cert = certify_elliptic(m)
    per_q = betti_by_odd_count(m)
    assert per_q == {0: 2, 1: 2}
    assert sum(per_q.values()) == betti_complete(m, cert).total_dim


def test_odd_count_split_needs_pure_model(corpus_models):
    m = corpus_models["hyper-nonpure-n3r4"]
    with pytest.raises(ModelError):
        ChainComplex(m).rank(3, 1)
    with pytest.raises(ModelError):
        betti_by_odd_count(m)


def test_betti_by_odd_count_needs_a_certified_model():
    # pure, with an image that leaves the quotient infinite
    m = build([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3)],
              {"y1": "x1^2", "y2": "x1*x2"})
    assert classify(m).is_pure and not certify_elliptic(m).elliptic
    with pytest.raises(ModelError, match="not certified elliptic"):
        betti_by_odd_count(m)


def _dense_block_betti(m, bound):
    """Betti numbers per (degree p, odd count q) through ``bound``, from the
    naive differential and dense elimination of each block."""
    uni = m.universe

    def block(p, q):
        return [b for b in uni.basis(p) if len(b.odds) == q]

    def rank(p, q):
        if p < 0:
            return 0
        source, target = block(p, q), block(p + 1, q - 1)
        if not source or not target:
            return 0
        index = {t: i for i, t in enumerate(target)}
        matrix = []
        for mono in source:
            row = [Fraction(0)] * len(target)
            for t, c in naive_differential(m, mono).items():
                row[index[t]] = c
            matrix.append(row)
        return dense_rank(matrix)

    return {(p, q): len(block(p, q)) - rank(p, q) - rank(p - 1, q + 1)
            for p in range(bound + 1) for q in range(len(uni.odds) + 1)}


def test_betti_by_odd_count_matches_dense_blocks(corpus_models):
    checked = 0
    for name, m in corpus_models.items():
        if not classify(m).is_pure:
            continue
        cert = certify_elliptic(m)
        if not cert.elliptic:
            continue
        oracle = _dense_block_betti(m, cert.formal_dimension_bound)
        cx = ChainComplex(m)
        assert {key: cx.betti_number(*key) for key in oracle} == oracle, name
        per_q = {}
        for (p, q), dim in oracle.items():
            per_q[q] = per_q.get(q, 0) + dim
        assert betti_by_odd_count(m) == \
            {q: dim for q, dim in per_q.items() if dim}, name
        checked += 1
    assert checked == 11


def test_verdict_requires_minimal():
    m = build([("x", 2), ("y2", 3), ("y", 5)], {"y2": "x^2", "y": "x*y2"})
    # make a non-minimal model: image with a linear monomial
    bad = build([("x", 2), ("z", 1)], {"z": "x"})
    with pytest.raises(ModelError):
        hilali_verdict(bad)


def test_verdict_examples(corpus_models):
    v = hilali_verdict(corpus_models["pairwise-nonregular-n2r1"])
    assert v.dim_v == 5 and v.dim_h >= 5 and v.holds
    v = hilali_verdict(corpus_models["sphere-s3"])
    assert (v.dim_v, v.dim_h, v.holds) == (1, 2, True)
    v = hilali_verdict(corpus_models["all-quadrics-n3r3"])
    assert v.dim_v == 9 and v.dim_h >= 10 and v.holds


def test_verdict_assume_elliptic_path():
    m = build([("x", 2), ("y", 3)], {"y": "x^2"})
    v = hilali_verdict(m, assume_elliptic=True, max_degree=8)
    assert v.assumed_elliptic and v.holds
    with pytest.raises(ModelError):
        hilali_verdict(m, assume_elliptic=True)


def test_betti_against_dense_oracle_fixed_models():
    rng = random.Random(501)
    for _ in range(6):
        m = random_model(rng)
        maxdeg = rng.randint(4, 10)
        assert betti(m, maxdeg).dims == betti_dense(m, maxdeg)


def _check_rows_against_oracle(m, cap=200):
    """In every degree through N + w (and at least through 10) with at most
    ``cap`` monomials, each assembled row is an integer row equal to D times
    the naive differential, over the labels -key(t), and ``apply_monomial``
    is the naive differential itself.  Returns the number of rows
    checked."""
    cx = ChainComplex(m)
    denom = m.d.tables()[0]
    top = max(formal_dimension_bound(m)
              + max(g.degree for g in m.universe.generators), 10)
    checked = 0
    for p in range(top + 1):
        source = cx.basis(p)
        if len(source) > cap:
            continue
        index = _labels(cx, p + 1)
        for mono, row in zip(source, cx.rows(p)):
            naive = naive_differential(m, mono)
            assert all(type(c) is int for c in row.values()), (m, mono)
            assert row == {index[t]: denom * c for t, c in naive.items()}, \
                (m, mono)
            assert m.d.apply_monomial(mono).terms == naive, (m, mono)
            checked += 1
    return checked


def test_rows_are_the_scaled_naive_differential_on_the_corpus(corpus_models):
    for name, m in corpus_models.items():
        assert _check_rows_against_oracle(m), name


def test_rows_are_the_scaled_naive_differential_on_a_perturbed_model(
        corpus_models):
    m = corpus_models["hyper-nonpure-n3r4"]
    w = PerturbedModel(m, m.universe.evens[0].name).at_parameter(
        Fraction(-37, 11))
    assert m.d.tables()[0] == 1 and w.d.tables()[0] == 11
    assert _check_rows_against_oracle(w)


def test_rows_are_the_scaled_naive_differential_on_random_models():
    for seed in range(6):
        assert _check_rows_against_oracle(random_model(random.Random(seed)))


def _labels(cx, p):
    """The column label -key(t) of each degree-p monomial t."""
    return {t: -cx.model.universe.key(t) for t in cx.basis(p)}


def _per_row_rows(cx, p):
    """The rows of degree p by one Leibniz kernel call per basis monomial,
    over the labels -key(t)."""
    tables = cx.model.d.tables()
    target = {(t.exps, t.odds): lab for t, lab in _labels(cx, p + 1).items()}
    return [{target[key]: c
             for key, c in _leibniz(tables, m.exps, m.odds).items()}
            for m in cx.basis(p)]


def _assembly_models(corpus_models):
    """Every corpus model and the generated models of seeds 0-4, each with
    the top degree N + w of its vanishing window."""
    models = [*corpus_models.values()]
    for seed in range(5):
        models += [random_hyperelliptic_model(random.Random(seed)),
                   random_model(random.Random(seed))]
    return [(m, max(formal_dimension_bound(m), 0)
             + max(g.degree for g in m.universe.generators))
            for m in models]


def test_rows_from_odd_subset_images_equal_the_per_row_kernel(corpus_models):
    for m, top in _assembly_models(corpus_models):
        cx = ChainComplex(m)
        for p in range(top + 1):
            assert cx.rows(p) == _per_row_rows(cx, p), (m.name, p)


def test_packed_keys_order_each_degree_and_add_under_even_shifts(
        corpus_models):
    for m, top in _assembly_models(corpus_models):
        uni = m.universe
        key = uni.key
        units = [Monomial(tuple(int(i == k) for i in range(len(uni.evens))),
                          ()) for k in range(len(uni.evens))]
        for p in range(top + 1):
            basis = uni.basis(p)
            keys = [key(b) for b in basis]
            assert sorted(basis, key=key) == basis == sorted(
                basis, key=lambda b: (b.exps, b.odds)), (m.name, p)
            assert len(set(keys)) == len(keys), (m.name, p)
            for b, k in zip(basis, keys):
                even = Monomial(b.exps, ())
                odd = Monomial(uni.unit.exps, b.odds)
                assert k == key(even) + key(odd), (m.name, b)
                for x in units:
                    shifted = Monomial(tuple(map(operator.add, b.exps,
                                                 x.exps)), b.odds)
                    assert key(shifted) == key(x) + k, (m.name, b, x)
        # the degree sits above every exponent field, so keys order the
        # monomials of all degrees canonically, not only those of one
        monomials = [b for p in range(top + 1) for b in uni.basis(p)]
        assert sorted(monomials, key=key) == sorted(
            monomials, key=uni.sort_key) == monomials, m.name


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (exps, odds) of every Leibniz kernel call ``ChainComplex`` makes."""
    calls = []

    def counted(tables, exps, odds):
        calls.append((exps, odds))
        return _leibniz(tables, exps, odds)

    monkeypatch.setattr(hilali.cohomology, "_leibniz", counted)
    return calls


def test_rows_run_the_kernel_once_per_odd_subset(kernel_calls, corpus_models):
    m = corpus_models["hyper-nonpure-n3r4"]
    cx = ChainComplex(m)
    rows = sum(len(cx.rows(p)) for p in range(30))
    zeros = m.universe.unit.exps
    assert rows > 10 * len(kernel_calls)
    assert sorted(kernel_calls) == sorted(
        {(zeros, odds) for _, odds in kernel_calls})


def test_a_nonzero_even_image_takes_the_per_row_kernel(kernel_calls):
    m = build([("w", 2), ("y", 3), ("x", 6)], {"x": "w^2*y"})
    assert not classify(m).is_hyperelliptic and check_differential(m).passed
    cx = ChainComplex(m)
    for p in range(16):
        kernel_calls.clear()
        assert cx.rows(p) == _per_row_rows(cx, p)
        assert kernel_calls == [(b.exps, b.odds) for b in cx.basis(p)]
    table, _ = cohomology_table(m, assume_elliptic=True, max_degree=16)
    assert table.dims == betti_dense(m, 16)


def test_rank_with_relabelled_columns_equals_the_canonical_rank(
        corpus_models):
    for m, top in _assembly_models(corpus_models):
        cx = ChainComplex(m)
        for p in range(top + 1):
            index = {lab: i for i, lab
                     in enumerate(_labels(cx, p + 1).values())}
            blocks = {}
            for b, row in zip(cx.basis(p), _per_row_rows(cx, p)):
                blocks.setdefault(len(b.odds) if cx.pure else None, []
                                  ).append({index[lab]: c
                                            for lab, c in row.items()})
            for q, block in blocks.items():
                assert cx.rank(p, q) == rank_of_rows(block), (m.name, p, q)


def test_cocycle_basis_over_labels_equals_the_canonical_kernel(
        corpus_models):
    # the kernel's tag columns ncols + i lie above every (negative) label,
    # so the labels leave the canonical kernel basis as it is
    for m, top in _assembly_models(corpus_models):
        cx = ChainComplex(m)
        for p in range(top + 1):
            if len(cx.basis(p)) > 200:
                continue
            index = {lab: i for i, lab
                     in enumerate(_labels(cx, p + 1).values())}
            assert all(lab < 0 for lab in index)
            canonical = [{index[lab]: c for lab, c in row.items()}
                         for row in cx.rows(p)]
            basis = cx.basis(p)
            assert cocycle_basis(m, p) == [
                Element(m.universe, {basis[j]: c for j, c in vec.items()})
                for vec in kernel_of_rows(canonical, len(index))], (m.name, p)


def test_coboundary_basis_keeps_the_canonical_column_order():
    # im d in degree 4 is spanned by x1^2 + x1*x2 and x1*x2 + x2^2; over the
    # canonical order x2^2 < x1*x2 < x1^2 its reduced echelon basis pivots
    # on x2^2 and x1*x2, and pivoting on x1^2 first would give another one
    m = build([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3)],
              {"y1": "x1^2 + x1*x2", "y2": "x1*x2 + x2^2"})
    uni = m.universe
    assert ChainComplex(m).rank(3) == 2
    assert coboundary_basis(m, 4) == [parse_expression(text, uni) for text in
                                      ("x2^2 - x1^2", "x1*x2 + x1^2")]


def _cleared_models(corpus_models):
    """The assembly models, a perturbed (W, d_xi) model of a pure and of a
    non-pure corpus model, and the model with a nonzero even image (under
    ``assume_elliptic`` its table runs to degree 16), each with a top
    degree."""
    models = _assembly_models(corpus_models)
    for name in ("pure-n2r1-diag", "hyper-nonpure-n3r4"):
        m = corpus_models[name]
        w = PerturbedModel(m, m.universe.evens[0].name).at_parameter(
            Fraction(-37, 11))
        models.append((w, formal_dimension_bound(w)
                       + max(g.degree for g in w.universe.generators)))
    even_image = build([("w", 2), ("y", 3), ("x", 6)], {"x": "w^2*y"})
    table, _ = cohomology_table(even_image, assume_elliptic=True,
                                max_degree=16)
    assert table.dims == betti_dense(even_image, 16)
    return models + [(even_image, 16)]


@pytest.fixture
def requested(monkeypatch):
    """(degree, monomials) of every ``ChainComplex.rows`` call."""
    calls = []
    rows = ChainComplex.rows

    def recorded(self, degree, monomials=None):
        calls.append((degree, monomials))
        return rows(self, degree, monomials)

    monkeypatch.setattr(ChainComplex, "rows", recorded)
    return calls


def _full_blocks(cx, p):
    """Every row of degree p, by block (None for a non-pure model)."""
    blocks = {}
    for b, row in zip(cx.basis(p), ChainComplex(cx.model).rows(p)):
        blocks.setdefault(len(b.odds) if cx.pure else None, []).append(row)
    return blocks


def test_cleared_ranks_equal_the_full_row_ranks(corpus_models, requested):
    cleared = 0
    for m, top in _cleared_models(corpus_models):
        m = fresh_copy(m)
        cx = ChainComplex(m)
        for p in range(top + 1):
            full = _full_blocks(cx, p)
            requested.clear()
            assert {q: cx.rank(p, q) for q in full} == {
                q: rank_of_rows(block) for q, block in full.items()}, (
                    m.name, p)
            cleared += sum(len(cx.basis(p)) - len(kept)
                           for _, kept in requested if kept is not None)
    assert cleared > 1000


def test_every_cleared_row_reduces_to_zero_modulo_the_kept_rows(
        corpus_models, requested):
    checked = 0
    for m, top in _cleared_models(corpus_models):
        m = fresh_copy(m)
        cx = ChainComplex(m)
        for p in range(top + 1):
            if len(cx.basis(p)) > 150:
                continue
            requested.clear()
            cx.rank(p)
            (degree, kept), = requested
            if kept is None:
                continue
            basis, kept = cx.basis(p), set(kept)
            echelons, rows = {}, ChainComplex(m).rows(p)
            for b, row in zip(basis, rows):
                if b in kept:
                    echelons.setdefault(len(b.odds) if cx.pure else None,
                                        Echelon()).add(row)
            for b, row in zip(basis, rows):
                if b not in kept:
                    echelon = echelons.get(len(b.odds) if cx.pure else None,
                                           Echelon())
                    assert not echelon.reduce(row), (m.name, p, b)
                    checked += 1
    assert checked > 100


def test_the_kernel_runs_only_for_odd_subsets_with_a_kept_row(
        corpus_models, requested, kernel_calls):
    for m, top in _cleared_models(corpus_models):
        if any(m.d.tables()[1]):
            continue            # the per-row kernel: one call per kept row
        m = fresh_copy(m)
        cx = ChainComplex(m)
        for p in range(top + 1):
            requested.clear()
            kernel_calls.clear()
            cx.rank(p)
            (degree, kept), = requested
            kept = cx.basis(p) if kept is None else kept
            assert {odds for _, odds in kernel_calls} <= {
                b.odds for b in kept}, (m.name, p)
    # in degree 55 the one row, x^7 y3, is d(x^5 y1 y3); a complex that
    # starts at degree 54 never meets y3 in a kept row, so never runs the
    # kernel for it
    m = build([("x", 6), ("y1", 11), ("y2", 17), ("y3", 13)],
              {"y1": "x^2", "y2": "x^3"})
    cx = ChainComplex(m)
    cx.rank(54)
    kernel_calls.clear()
    assert [b.odds for b in cx.basis(55)] == [(2,)]
    assert cx.rank(55) == 0 and requested[-1] == (55, [])
    assert kernel_calls == []


def test_a_model_with_nonzero_square_eliminates_every_row():
    # d(d w) = d(x y) = x^3: the pivots of d_4 would clear the one row of
    # d_5 that carries its rank
    m = build([("x", 2), ("y", 3), ("w", 4)], {"y": "x^2", "w": "x*y"})
    assert not check_differential(m).passed
    cx = ChainComplex(m)
    assert [cx.rank(p) for p in range(14)] == [
        rank_of_rows(ChainComplex(m).rows(p)) for p in range(14)]
    pivots = set()
    rank_of_rows(cx.rows(4), pivots)
    labels = [-k for k in m.universe.basis_keys(5)]
    assert cx.rank(5) == 1 and rank_of_rows(
        [row for lab, row in zip(labels, cx.rows(5))
         if lab not in pivots]) == 0
