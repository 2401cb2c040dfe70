"""Quotient bases, regular sequences, the odd-basis search, Tor tables,
endpoint bounds, and the duality pairing."""

import contextlib
import functools
import io
import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod
from operator import add, ge, sub

import pytest

from hilali import (Element, IndeterminateError, Model, ModelError,
                    NotFiniteLengthError, QuotientModule, SModuleStructure,
                    duality_pairing, halperin_basis, is_regular_sequence,
                    parse_expression, quotient_basis, tor_bounds_check,
                    tor_table, tor_via_model_cross_check, universe)
from hilali import cli, cohomology, deformation, koszul
from hilali.algebra import Monomial, restrict_element
from hilali.errors import EngineError, UniverseMismatchError
from hilali.koszul import koszul_differential_rows
from hilali.linalg import Echelon, Rref, rank_of_rows

from conftest import CORPUS
from dense_oracle import dense_rank
from modelgen import benchmark_documents, fresh_copy


def ring2():
    return universe([("x1", 2), ("x2", 6)])


def pe(text, uni):
    return parse_expression(text, uni)


def reduce_vector(module, e):
    """Coordinates of the class of ``e`` by standard basis position."""
    return {module.standard_basis.index(m): c
            for m, c in module.reduce(e).items()}


def _compose(m1, m2, dim):
    # columns of m1 after m2 (both column lists over basis indices)
    out = []
    for j in range(dim):
        col: dict[int, Fraction] = {}
        for k, c in m2[j].items():
            for i, d in m1[k].items():
                s = col.get(i, Fraction(0)) + c * d
                if s:
                    col[i] = s
                elif i in col:
                    del col[i]
        out.append(col)
    return out


def actions_commute(structure):
    """Whether the action matrices of an S-module structure commute."""
    mats = structure.matrices()
    dim = structure.module.length
    for a, b in combinations(range(len(mats)), 2):
        if _compose(mats[a], mats[b], dim) != _compose(mats[b], mats[a], dim):
            return False
    return True


def test_single_variable_square():
    ring = universe([("x", 2)])
    module = quotient_basis(ring, [pe("x^2", ring)])
    assert module.length == 2
    assert module.socle_degree == 2
    names = [ring.format_monomial(m) for m in module.standard_basis]
    assert names == ["1", "x"]


def test_squarefree_lengths():
    for n in range(1, 5):
        ring = universe([(f"x{i}", 2) for i in range(1, n + 1)])
        rels = [pe(f"x{i}^2", ring) for i in range(1, n + 1)]
        module = quotient_basis(ring, rels)
        assert module.length == 2 ** n


def test_mixed_powers_pairs():
    # Of the three pairwise combinations of the bundled mixed-powers images,
    # exactly the highest-degree pair fails to be regular: those two share
    # the branch x2 = -x1^3.  The other two pairs have Bezout-sized quotients.
    ring = ring2()
    P1 = pe("x1^6 + x2^2", ring)
    P2 = pe("x1^9 + x2^3", ring)
    P3 = pe("x1^4*x2 + x1*x2^2", ring)
    assert quotient_basis(ring, [P1, P2]).length == 12 * 18 // 12
    assert quotient_basis(ring, [P1, P3]).length == 12 * 14 // 12
    with pytest.raises(NotFiniteLengthError):
        quotient_basis(ring, [P2, P3])
    assert is_regular_sequence(ring, [P1, P2])
    assert is_regular_sequence(ring, [P1, P3])
    assert not is_regular_sequence(ring, [P2, P3])


def test_not_finite_when_variable_escapes():
    ring = universe([("x1", 2), ("x2", 2)])
    with pytest.raises(NotFiniteLengthError):
        quotient_basis(ring, [pe("x1^2", ring), pe("x1*x2", ring)])
    assert not is_regular_sequence(ring, [pe("x1^2", ring), pe("x1*x2", ring)])


def test_too_few_relations_is_definite():
    ring = universe([("x1", 2), ("x2", 2)])
    with pytest.raises(NotFiniteLengthError):
        quotient_basis(ring, [pe("x1^2", ring)])


def test_probe_exhaustion_is_indeterminate():
    ring = ring2()
    with pytest.raises(IndeterminateError):
        quotient_basis(ring, [pe("x1^6 + x2^2", ring), pe("x1^9 + x2^3", ring)],
                       max_probe=6)


def test_only_an_s_pair_passes_the_probe_ceiling():
    # The relations have degree 4 and the socle degree + 1 is 5, but the
    # S-polynomial of the pair, x2^3, comes from its lcm x1^2*x2 of degree 6.
    ring = universe([("x1", 2), ("x2", 2)])
    relations = [pe("x1*x2", ring), pe("x1^2 + x2^2", ring)]
    module = quotient_basis(ring, relations)
    assert (module.length, module.socle_degree) == (4, 4)
    with pytest.raises(IndeterminateError, match="degree 6"):
        quotient_basis(ring, relations, max_probe=5)
    assert quotient_basis(ring, relations, max_probe=8).length == 4


def test_chain_criterion_waits_for_pending_pairs():
    # The leads x*y, x*z and y*z each divide the lcm x*y*z of the other
    # two; a pair may be skipped for a third lead only once both of its
    # pairs with that lead are treated, or the basis misses an element.
    ring = universe([("x", 2), ("y", 2), ("z", 2)])
    relations = [pe(t, ring) for t in ("x*y - 2*y^2 + 2*z^2",
                                       "x*z + y^2 + 2*y*z - z^2", "y*z",
                                       "x^3", "y^3")]
    module = quotient_basis(ring, relations)
    assert module.length == 7
    assert [ring.format_monomial(m) for m in module.standard_basis] == \
        ["1", "z", "y", "x", "z^2", "y^2", "x^2"]


@pytest.fixture(scope="module")
def built_quotients(tmp_path_factory):
    """Every quotient that ``hilali corpus corpus --seed 0`` and the koszul
    benchmark items (``tor`` and ``deform``) of seeds 0-4 build, once per
    relation set, as ``(ring, relations, module or the error raised)``;
    and the number of rows added to quotient spans, and of those that were
    dependent."""
    built, rows = {}, {"added": 0, "dependent": 0}
    original = koszul.quotient_basis

    def recording(ring, relations, max_probe=None):
        assert max_probe is None
        key = (ring, tuple(frozenset(r.terms.items()) for r in relations))
        try:
            module = original(ring, relations)
        except EngineError as exc:
            built[key] = (ring, relations, exc)
            raise
        built[key] = (ring, relations, module)
        return module

    class CountingRref(Rref):
        def add(self, row):
            col = Rref.add(self, row)
            rows["added"] += 1
            rows["dependent"] += col is None
            return col

    runs = [["corpus", str(CORPUS), "--seed", "0", "--jobs", "1"]]
    directory = tmp_path_factory.mktemp("koszul")
    for seed in range(5):
        for key, doc in benchmark_documents("koszul", seed):
            path = directory / f"{seed}-{key}.model.json"
            path.write_text(json.dumps(doc))
            runs += [[command, str(path), "--seed", str(seed)]
                     for command in ("tor", "deform")]
    with pytest.MonkeyPatch.context() as patch:
        for module in (koszul, cohomology, deformation):
            patch.setattr(module, "quotient_basis", recording)
        patch.setattr(koszul, "Rref", CountingRref)
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    return list(built.values()), rows


def _remainder(f, basis, order):
    """The remainder of ``{exps: Fraction}`` f on division by ``basis``,
    leading terms taken by ``order``."""
    f, rest = dict(f), {}
    leads = [max(g, key=order) for g in basis]
    while f:
        top = max(f, key=order)
        divisors = [(g, lead) for g, lead in zip(basis, leads)
                    if all(map(ge, top, lead))]
        if not divisors:
            rest[top] = f.pop(top)
            continue
        g, lead = divisors[0]
        factor, shift = f[top] / g[lead], tuple(map(sub, top, lead))
        for e, c in g.items():
            e = tuple(map(add, e, shift))
            v = f.get(e, 0) - factor * c
            if v:
                f[e] = v
            else:
                del f[e]
    return rest


def _s_polynomial(f, g, order):
    lead_f, lead_g = max(f, key=order), max(g, key=order)
    top = tuple(map(max, lead_f, lead_g))
    out = {}
    for h, lead, sign in ((f, lead_f, 1), (g, lead_g, -1)):
        shift = tuple(map(sub, top, lead))
        for e, c in h.items():
            e = tuple(map(add, e, shift))
            out[e] = out.get(e, 0) + sign * Fraction(c, h[lead])
    return {e: c for e, c in out.items() if c}


def test_every_s_pair_of_the_groebner_basis_reduces_to_zero(built_quotients):
    # Buchberger's criterion, checked in Fraction arithmetic with leading
    # terms in the ring's canonical order: G is a Groebner basis.  It is
    # also reduced: no leading term divides a term of another element.
    built, _ = built_quotients
    pairs = 0
    for ring, _, module in built:
        if not isinstance(module, QuotientModule):
            continue

        def order(e):
            return ring.sort_key(Monomial(e, ()))
        basis = [{ring.key_exps(k): c for k, c in g.items()}
                 for _, g in module._groebner]
        leads = [max(g, key=order) for g in basis]
        assert [ring.key_exps(lead) for lead, _ in module._groebner] == leads
        assert not any(all(map(ge, e, lead)) for i, g in enumerate(basis)
                       for e in g for j, lead in enumerate(leads) if i != j)
        for f, g in combinations(basis, 2):
            assert not _remainder(_s_polynomial(f, g, order), basis, order)
            pairs += 1
    assert pairs


def _in_span_of_multiples(ring, relations, targets, cap):
    """Whether every polynomial of ``targets`` ({exps: c}) is a combination
    of products m * P of monomials m and relations P of top degree at most
    ``cap``, by elimination in Fraction arithmetic, one degree at a time."""
    def order(e):
        return ring.sort_key(Monomial(e, ()))
    rows = {}       # leading exponents -> row scaled to leading coefficient 1

    def remainder(f):
        f = dict(f)
        while f and (row := rows.get(lead := max(f, key=order))) is not None:
            c = f[lead]
            for e, v in row.items():
                w = f.get(e, 0) - c * v
                if w:
                    f[e] = w
                else:
                    del f[e]
        return f

    for degree in range(cap + 1):
        for rel in relations:
            if rel.top_degree() <= degree:
                for m in ring.basis(degree - rel.top_degree()):
                    f = remainder({tuple(map(add, m.exps, e.exps)): Fraction(c)
                                   for e, c in rel.terms.items()})
                    if f:
                        lead = max(f, key=order)
                        rows[lead] = {e: v / f[lead] for e, v in f.items()}
        targets = [t for t in targets if remainder(t)]
        if not targets:
            return True
    return False


def test_groebner_basis_generates_the_ideal_of_its_relations(
        built_quotients):
    # (G) = I: each relation leaves remainder 0 on Fraction division by G,
    # and each element of G is a combination of monomial multiples of the
    # relations.  With the S-pair test, G is the reduced Groebner basis of
    # I, so the standard basis is every monomial that no lead divides,
    # inside the box cut by the leads that are pure powers.
    built, _ = built_quotients
    kinds = set()
    for ring, relations, module in built:
        if not isinstance(module, QuotientModule):
            continue
        kinds.add(module.graded)

        def order(e):
            return ring.sort_key(Monomial(e, ()))
        relations = [r for r in relations if not r.is_zero]
        basis = [{ring.key_exps(k): c for k, c in g.items()}
                 for _, g in module._groebner]
        for rel in relations:
            assert not _remainder({m.exps: c for m, c in rel.terms.items()},
                                  basis, order)
        top = max([ring.degree_of(Monomial(e, ())) for g in basis for e in g]
                  + [r.top_degree() for r in relations], default=0)
        assert _in_span_of_multiples(ring, relations, basis, 2 * top)
        leads = [max(g, key=order) for g in basis]
        bounds = [min(lead[i] for lead in leads
                      if not any(lead[:i] + lead[i + 1:]))
                  for i in range(len(ring.evens))]
        standard = sorted((e for e in product(*map(range, bounds))
                           if not any(all(map(ge, e, lead))
                                      for lead in leads)), key=order)
        assert [m.exps for m in module.standard_basis] == standard
    assert kinds == {True, False}


def test_every_refused_quotient_has_infinite_length(built_quotients):
    # A refused quotient has fewer relations than variables, or graded
    # relations that vanish at a nonzero point a: then x_i -> a_i
    # t^deg(x_i) maps R/I onto an infinite-dimensional subring of Q[t].
    built, _ = built_quotients
    refused = 0
    for ring, relations, result in built:
        if isinstance(result, QuotientModule):
            continue
        assert isinstance(result, NotFiniteLengthError)
        refused += 1
        relations = [r for r in relations if not r.is_zero]
        if len(relations) < len(ring.evens):
            continue
        assert all(r.is_homogeneous for r in relations)

        def vanish(point):
            return all(sum(c * prod(map(pow, point, m.exps))
                           for m, c in r.terms.items()) == 0
                       for r in relations)
        assert any(vanish(point) for point in
                   product((-1, 0, 1), repeat=len(ring.evens)) if any(point))
    assert refused


def test_no_staircase_row_is_dependent(built_quotients):
    # One row per non-standard monomial a reduction reaches, led by that
    # monomial: every row added to a quotient span is a new pivot.
    _, rows = built_quotients
    assert rows["added"] and not rows["dependent"]


def test_each_span_row_is_a_monomial_minus_its_normal_form(built_quotients):
    # A stored row is a * (m - NF(m)): its one non-standard column is its
    # pivot, the negated key of m.
    built, _ = built_quotients
    stored = 0
    for _, _, module in built:
        if isinstance(module, QuotientModule):
            for col, row in module._rref.pivots.items():
                assert [c for c in row if c not in module.basis_positions] \
                    == [col]
                stored += 1
    assert stored


def test_products_match_fraction_division_by_the_groebner_basis(
        built_quotients):
    # An oracle apart from the span: every multiplication column, over its
    # denominator, and every reduction of b * p is the remainder of b * p
    # on Fraction division by the module's G, for p a variable and a
    # mixed polynomial with fractional coefficients.
    built, _ = built_quotients
    kinds = set()
    for ring, _, module in built:
        if not isinstance(module, QuotientModule):
            continue
        kinds.add(module.graded)

        @functools.cache
        def order(e):
            return ring.sort_key(Monomial(e, ()))
        basis = [{ring.key_exps(k): c for k, c in g.items()}
                 for _, g in module._groebner]
        position = {m.exps: i for i, m in enumerate(module.standard_basis)}
        gens = [Element.generator(ring, g.name) for g in ring.evens]
        mixed = sum(((x * gens[i - 1]).scale(Fraction(i + 1, 3))
                     for i, x in enumerate(gens)),
                    Element.one(ring).scale(Fraction(1, 2)))
        for p in gens[-1:] + [mixed]:
            cols, denom = module.multiplication_matrix(p)
            for b, col in zip(module.standard_basis, cols):
                product = {tuple(map(add, b.exps, m.exps)): c
                           for m, c in p.terms.items()}
                expected = {position[e]: c for e, c in
                            _remainder(product, basis, order).items()}
                assert {j: Fraction(c, denom) for j, c in col.items()} \
                    == expected
                assert reduce_vector(
                    module, Element.from_monomial(ring, b) * p) == expected
    assert kinds == {True, False}


def test_regular_sequence_requires_count_match():
    ring = ring2()
    with pytest.raises(ModelError):
        is_regular_sequence(ring, [pe("x1^2", ring)])


def test_quotient_invariant_under_relation_shuffle():
    rng = random.Random(41)
    ring = universe([("x1", 2), ("x2", 2)])
    rels = [pe("x1^2 + x1*x2", ring), pe("x2^3 + x1^2*x2", ring)]
    base = quotient_basis(ring, rels)
    per_degree = {d: len(v) for d, v in base.basis_by_degree().items()}
    for _ in range(6):
        shuffled = rels[:]
        rng.shuffle(shuffled)
        # invertible rational recombination
        a = Fraction(rng.randint(1, 3))
        b = Fraction(rng.randint(0, 2))
        recombined = [shuffled[0].scale(a) + shuffled[1].scale(b), shuffled[1]]
        again = quotient_basis(ring, recombined)
        assert again.length == base.length
        assert {d: len(v) for d, v in again.basis_by_degree().items()} == per_degree


def test_reduction_is_multiplicative_closure():
    ring = universe([("x", 2)])
    module = quotient_basis(ring, [pe("x^2 + x", ring)])
    assert module.length == 2
    x = Element.generator(ring, "x")
    coords = module.reduce(x * x)
    assert coords == {ring.monomial({"x": 1}): Fraction(-1)}


def test_reduce_and_products_reject_an_element_over_another_ring():
    module = quotient_basis(ring2(), [pe("x1^2", ring2()), pe("x2^2", ring2())])
    other = universe([("x1", 2), ("x2", 4)])
    for method in (module.reduce, module.multiplication_matrix):
        with pytest.raises(UniverseMismatchError):
            method(pe("x1", other))
    with pytest.raises(UniverseMismatchError):
        quotient_basis(ring2(), [pe("x1^2", ring2()), pe("x2^2", other)])


def test_tor_of_augmentation_is_binomial():
    ring = universe([])
    module = quotient_basis(ring, [])
    for r in range(6):
        s = SModuleStructure(module, [Element.zero(ring)] * r)
        table = tor_table(module, s)
        assert table.dims == {k: comb(r, k) for k in range(r + 1)}
        assert table.total == 2 ** r


def test_tor_r0_is_module_length():
    ring = universe([("x1", 2), ("x2", 2)])
    module = quotient_basis(ring, [pe("x1^2", ring), pe("x2^2", ring)])
    table = tor_table(module, SModuleStructure(module, []))
    assert table.dims == {0: module.length}


def test_tor_n1r1():
    ring = universe([("x", 2)])
    module = quotient_basis(ring, [pe("x^2", ring)])
    s = SModuleStructure(module, [pe("x^3", ring)])
    table = tor_table(module, s)
    assert table.dims == {0: 2, 1: 2}
    assert table.total == 4


def test_koszul_differential_squares_to_zero():
    ring = universe([("x1", 2), ("x2", 2)])
    module = quotient_basis(ring, [pe("x1^2", ring), pe("x2^2", ring)])
    s = SModuleStructure(module, [pe("x1*x2", ring), pe("x1^2 + x2^2", ring)])
    assert actions_commute(s)
    rows2 = koszul_differential_rows(s, 2)
    rows1 = koszul_differential_rows(s, 1)
    # compose: image of each degree-2 chain basis vector, pushed through d1
    dim0 = module.length
    for row in rows2:
        out = {}
        for col, c in row.items():
            for col2, c2 in rows1[col].items():
                out[col2] = out.get(col2, Fraction(0)) + c * c2
        assert all(v == 0 for v in out.values())


def test_alternating_sums_match_chain_level():
    ring = universe([("x", 2)])
    module = quotient_basis(ring, [pe("x^3", ring)])
    s = SModuleStructure(module, [pe("x^2", ring)])
    table = tor_table(module, s)
    r = s.parameter_count
    chain = sum((-1) ** k * module.length * comb(r, k) for k in range(r + 1))
    homology = sum((-1) ** k * table[k] for k in range(r + 1))
    assert chain == homology


def test_tor_bounds_examples():
    ring = universe([("x", 2)])
    module = quotient_basis(ring, [pe("x^2", ring)])
    s = SModuleStructure(module, [pe("x^3", ring)])
    report = tor_bounds_check(module, tor_table(module, s))
    assert report.passes and report.tor_bottom == 2 and report.tor_top == 2

    ring2v = universe([("x1", 2), ("x2", 2)])
    module2 = quotient_basis(ring2v, [pe("x1^2", ring2v), pe("x2^2", ring2v)])
    report = tor_bounds_check(module2,
                              tor_table(module2, SModuleStructure(module2, [])))
    assert report.passes and report.length == 4 >= 2 * 2

    empty = universe([])
    one = quotient_basis(empty, [])
    report = tor_bounds_check(one, tor_table(one, SModuleStructure(one, [])))
    assert report.passes and report.tor_bottom == 1


def test_duality_single_variable():
    ring = universe([("x", 2)])
    module = quotient_basis(ring, [pe("x^2", ring)])
    report = duality_pairing(module)
    assert report.perfect and report.mode == "graded" and report.socle_dimension == 1


def test_duality_squarefree_two_variables():
    ring = universe([("x1", 2), ("x2", 2)])
    module = quotient_basis(ring, [pe("x1^2", ring), pe("x2^2", ring)])
    report = duality_pairing(module)
    assert report.perfect


def test_duality_requires_complete_intersection():
    ring = universe([("x1", 2), ("x2", 2)])
    module = quotient_basis(
        ring, [pe("x1^2", ring), pe("x1*x2", ring), pe("x2^2", ring)])
    with pytest.raises(ModelError):
        duality_pairing(module)


def test_duality_functional_on_inhomogeneous():
    ring = universe([("x", 2)])
    module = quotient_basis(ring, [pe("x^2 + x", ring)])
    report = duality_pairing(module)
    assert report.perfect and report.mode == "functional"


def test_halperin_identity_when_first_block_regular(corpus_models):
    basis = halperin_basis(corpus_models["pure-n2r1-diag"])
    assert basis.strategy == "identity"
    assert basis.module.length == 4


def test_halperin_single_variable():
    uni = universe([("x", 2), ("y1", 3), ("y2", 5)])
    m = Model(uni, {"y1": pe("x^2", uni), "y2": pe("x^3", uni)})
    basis = halperin_basis(m)
    assert basis.strategy == "identity"
    assert basis.module.length == 2


def test_halperin_requires_pure_elliptic(corpus_models):
    with pytest.raises(ModelError):
        halperin_basis(corpus_models["hyper-nonpure-n3r4"])
    with pytest.raises(ModelError):
        halperin_basis(corpus_models["nonelliptic-pair"])


def test_halperin_permutation_on_quadrics(corpus_models):
    basis = halperin_basis(corpus_models["all-quadrics-n3r3"])
    assert basis.strategy in ("identity", "permutation", "random")
    ring = basis.module.ring
    assert is_regular_sequence(ring, basis.images[:3])
    # the combinations stay inside the odd generators (lower grading 1)
    for z in basis.combinations:
        assert all(len(mono.odds) == 1 and sum(mono.exps) == 0
                   for mono in z.terms)


def test_halperin_random_stage_certificate():
    rng = random.Random(3)
    uni = universe([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 3)])
    # no single pair of these images is regular, forcing combinations
    m = Model(uni, {"y1": pe("x1^2", uni), "y2": pe("x1*x2", uni),
                    "y3": pe("x2^2 + x1*x2", uni)})
    from hilali import certify_elliptic, classify
    assert classify(m).is_pure
    assert certify_elliptic(m).elliptic
    basis = halperin_basis(m, seed=5)
    ring = basis.module.ring
    assert is_regular_sequence(ring, basis.images[:2])


def test_cross_check_on_pure_corpus(corpus_models):
    for name in ("sphere-s3", "squarefree-n2", "n1r1-powers"):
        m = corpus_models[name]
        basis = halperin_basis(m)
        table = tor_table(basis.module, basis.structure)
        report = tor_via_model_cross_check(m, basis, table)
        assert report.passes
        assert report.total_cohomology == report.total_tor


def test_halperin_random_stage_on_entangled_pairs(corpus_models):
    # no pair of the given images is regular, so subsets cannot work and the
    # search must take random invertible combinations
    basis = halperin_basis(corpus_models["entangled-pairs-n2r1"], seed=0)
    assert basis.strategy == "random"
    assert is_regular_sequence(basis.module.ring, basis.images[:2])


def _fiber_length(basis):
    """The length of Q[x]/(P_i + x_i, A_j) for a basis's images: the fiber
    at t = 1 of its standard family, cut by its action polynomials."""
    ring = basis.module.ring
    n = len(ring.evens)
    relations = [p + Element.generator(ring, g.name)
                 for p, g in zip(basis.images[:n], ring.evens)]
    return quotient_basis(ring, relations + basis.images[n:]).length


def test_random_stage_returns_a_basis_with_one_fiber_point(corpus_models,
                                                           monkeypatch):
    model = corpus_models["entangled-pairs-n2r1"]
    for seed in (0, 1, 14, 69, 81, 144, 392):
        basis = halperin_basis(model, seed=seed)
        assert basis.strategy == "random"
        assert _fiber_length(basis) == 1, seed
    # without the check, seed 14's first regular draw has two fiber points;
    # the search rejects it and counts it as an attempt
    monkeypatch.setattr(koszul, "_several_fiber_points", lambda *args: False)
    first = halperin_basis(fresh_copy(model), seed=14)
    monkeypatch.undo()
    assert _fiber_length(first) == 2
    assert halperin_basis(model, seed=14).attempts == first.attempts + 1


def test_odd_bases_are_kept_per_search_arguments(corpus_models):
    entangled = fresh_copy(corpus_models["entangled-pairs-n2r1"])
    with pytest.raises(IndeterminateError):
        halperin_basis(entangled, budget=0)
    basis = halperin_basis(entangled)
    assert basis.strategy == "random"
    # a kept basis answers only its own arguments; a raised search is
    # searched again
    with pytest.raises(IndeterminateError):
        halperin_basis(entangled, budget=0)
    assert halperin_basis(entangled) is basis


def test_each_seed_searches_its_own_odd_basis(corpus_models):
    entangled = fresh_copy(corpus_models["entangled-pairs-n2r1"])
    basis = halperin_basis(entangled, seed=0)
    assert halperin_basis(entangled, seed=0) is basis
    other = halperin_basis(entangled, seed=1)
    assert other is not basis
    assert other.combinations == halperin_basis(
        fresh_copy(entangled), seed=1).combinations != basis.combinations


def test_given_images_are_kept_whatever_their_fiber_length(corpus_models):
    for name, strategy, attempts, length in (
            ("squarefree-n1", "identity", 1, 2),
            ("pure-n2r1-diag", "identity", 1, 3),
            ("all-quadrics-n3r3", "permutation", 7, 4)):
        basis = halperin_basis(corpus_models[name], seed=0)
        assert (basis.strategy, basis.attempts) == (strategy, attempts), name
        assert _fiber_length(basis) == length, name


def _ci_hilbert_series(relation_degrees, variable_degrees, top):
    """Coefficients of prod (1 - t^d_i) / prod (1 - t^a_j), truncated; the
    exact graded dimensions of a complete-intersection quotient."""
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for a in variable_degrees:
        for i in range(a, top + 1):
            coeffs[i] += coeffs[i - a]
    for d in relation_degrees:
        for i in range(top, d - 1, -1):
            coeffs[i] -= coeffs[i - d]
    return coeffs


def test_graded_quotient_matches_hilbert_series():
    rng = random.Random(77)
    for _ in range(12):
        n = rng.randint(1, 3)
        var_degs = sorted(rng.choice([2, 2, 4]) for _ in range(n))
        ring = universe([(f"x{i+1}", d) for i, d in enumerate(var_degs)])
        relations = []
        rel_degs = []
        for i, g in enumerate(ring.evens):
            power = rng.randint(2, 3)
            rel = parse_expression(f"{g.name}^{power}", ring)
            degree = power * g.degree
            # mix in a random same-degree disturbance, keeping regularity
            extras = [m for m in ring.basis(degree)]
            for _ in range(rng.randint(0, 2)):
                coeff = Fraction(rng.randint(-2, 2))
                if coeff:
                    pick = extras[rng.randrange(len(extras))]
                    rel = rel + Element.from_monomial(ring, pick, coeff)
            relations.append(rel)
            rel_degs.append(degree)
        try:
            module = quotient_basis(ring, relations)
        except NotFiniteLengthError:
            continue  # the disturbance killed regularity; not this test's target
        socle = sum(rel_degs) - sum(var_degs)
        series = _ci_hilbert_series(rel_degs, var_degs, socle)
        per_degree = {d: len(v) for d, v in module.basis_by_degree().items()}
        assert module.length == sum(series)
        for d, expected in enumerate(series):
            assert per_degree.get(d, 0) == expected


def test_filtered_length_invariant_under_degree_mixing():
    # recombining relations across degrees changes nothing about the ideal;
    # the filtered staircase must report the same length as the graded one
    rng = random.Random(78)
    ring = universe([("x1", 2), ("x2", 2)])
    base = [parse_expression("x1^2 + x1*x2", ring),
            parse_expression("x2^3 + x1^2*x2", ring)]
    graded_module = quotient_basis(ring, base)
    for _ in range(8):
        a = Fraction(rng.randint(1, 3))
        b = Fraction(rng.randint(-2, 2))
        mixed = [base[0].scale(a) + base[1].scale(b), base[1]]
        rng.shuffle(mixed)
        module = quotient_basis(ring, mixed)
        assert module.length == graded_module.length


def test_cross_check_on_random_pure_models():
    from hilali import certify_elliptic, check_minimal, classify
    from modelgen import random_hyperelliptic_model
    rng = random.Random(909)
    checked = 0
    while checked < 6:
        m = random_hyperelliptic_model(rng, n_max=2, r_max=2)
        if not classify(m).is_pure or not check_minimal(m):
            continue
        if not certify_elliptic(m).elliptic:
            continue
        basis = halperin_basis(m, seed=0)
        table = tor_table(basis.module, basis.structure)
        report = tor_via_model_cross_check(m, basis, table)
        assert report.passes, m.name
        checked += 1


def _pure_elliptic_models(corpus_models):
    """The pure elliptic corpus models, then the first pure elliptic minimal
    model with an even generator that ``random_hyperelliptic_model`` draws
    at each seed 0-4."""
    from hilali import certify_elliptic, check_minimal, classify
    from modelgen import random_hyperelliptic_model
    models = [m for m in corpus_models.values()
              if classify(m).is_pure and certify_elliptic(m).elliptic]
    for seed in range(5):
        rng = random.Random(seed)
        while True:
            m = random_hyperelliptic_model(rng, n_max=2, r_max=2)
            if m.universe.evens and classify(m).is_pure and \
                    check_minimal(m) and certify_elliptic(m).elliptic:
                models.append(m)
                break
    return models


def _standard_fibers(model):
    """The graded fiber at 0 and two filtered fibers at the parameters
    ``flatness_check`` draws first, with the module's action polynomials."""
    from hilali.deformation import _distinct_parameters, standard_family
    family, actions = standard_family(model, seed=0)
    points = [0] + _distinct_parameters(random.Random(0), 2)
    return [family.fiber(xi) for xi in points], actions


def test_integer_products_match_element_products(corpus_models):
    # Multiplication columns are formed on packed keys; each must agree
    # with the Element product it replaces.
    graded = filtered = 0
    for model in _pure_elliptic_models(corpus_models):
        fibers, actions = _standard_fibers(model)
        for module in fibers:
            ring = module.ring
            graded += module.graded
            filtered += not module.graded
            gens = [Element.generator(ring, g.name) for g in ring.evens]
            for p in actions + gens:
                cols, denom = module.multiplication_matrix(p)
                assert denom > 0
                assert [{j: Fraction(c, denom) for j, c in col.items()}
                        for col in cols] == [
                    reduce_vector(module, Element.from_monomial(ring, b) * p)
                    for b in module.standard_basis]
    assert graded and filtered


def _accumulated_koszul_rows(s, k):
    """d_k built term by term: each signed entry of lambda_{i_l} m is added
    into its target column (zero sums dropped), over chain bases of pairs
    (basis position, ascending subset) in subset-major order."""
    mats, dim, r = s.matrices(), s.module.length, s.parameter_count

    def chain_basis(j):
        return [(i, subset) for subset in combinations(range(r), j)
                for i in range(dim)]
    target = {key: pos for pos, key in enumerate(chain_basis(k - 1))}
    rows = []
    for i, subset in chain_basis(k):
        row = {}
        for l, lam in enumerate(subset):
            rest = subset[:l] + subset[l + 1:]
            for t, c in mats[lam][i].items():
                col = target[(t, rest)]
                v = row.get(col, Fraction(0)) + (-1) ** l * c
                if v:
                    row[col] = v
                elif col in row:
                    del row[col]
        rows.append(row)
    return rows


def _assert_koszul_rows_match(s):
    mats, dim, r = s.matrices(), s.module.length, s.parameter_count
    for k in range(1, r + 1):
        rows = koszul_differential_rows(s, k)
        assert rows == _accumulated_koszul_rows(s, k)
        # the k faces are distinct, so the columns sit side by side
        sources = [(i, subset) for subset in combinations(range(r), k)
                   for i in range(dim)]
        assert [len(row) for row in rows] == [
            sum(len(mats[lam][i]) for lam in subset) for i, subset in sources]


def test_koszul_rows_place_columns_side_by_side(corpus_models):
    # The Koszul differential of the odd-basis structure (graded) and of
    # two filtered fibers must equal the accumulating construction.
    graded = rational = 0
    for model in _pure_elliptic_models(corpus_models):
        basis = halperin_basis(model)
        _assert_koszul_rows_match(basis.structure)
        graded += basis.structure.parameter_count > 0
        fibers, actions = _standard_fibers(model)
        for module in fibers[1:]:
            s = SModuleStructure(module, actions)
            _assert_koszul_rows_match(s)
            rational += any(module.multiplication_matrix(p)[1] != 1
                            for p in actions)
    assert graded and rational


def _clearing_structures(corpus_models):
    """The odd-basis structure of every model of ``_pure_elliptic_models``
    (graded), and its actions on the model's two filtered fibers."""
    for model in _pure_elliptic_models(corpus_models):
        yield halperin_basis(model).structure
        fibers, actions = _standard_fibers(model)
        for module in fibers[1:]:
            yield SModuleStructure(module, actions)


def test_koszul_clearing_keeps_every_rank(corpus_models):
    # tor_table eliminates d_r first and leaves out each row of d_k at a
    # pivot column of d_{k+1}: every row left out must reduce to zero
    # modulo the rows kept, and the kept rows must have the full rank.
    cleared = 0
    for s in _clearing_structures(corpus_models):
        assert actions_commute(s)
        pivots: set[int] = set()
        for k in range(s.parameter_count, 0, -1):
            rows = koszul_differential_rows(s, k)
            kept = koszul_differential_rows(s, k, pivots)
            assert kept == [row for pos, row in enumerate(rows)
                            if pos not in pivots]
            below: set[int] = set()
            assert rank_of_rows(kept, below) == rank_of_rows(rows)
            echelon = Echelon()
            for row in kept:
                echelon.add(row)
            assert all(not echelon.reduce(rows[pos]) for pos in pivots)
            cleared += len(pivots)
            pivots = below
    assert cleared


def _dense_koszul_rank(mats, dim, r, k):
    """Rank of d_k over the Fraction matrices ``mats``, by dense Fraction
    elimination."""
    target = {key: pos for pos, key in enumerate(
        (i, rest) for rest in combinations(range(r), k - 1)
        for i in range(dim))}
    dense = []
    for subset in combinations(range(r), k):
        for i in range(dim):
            row = [Fraction(0)] * len(target)
            for l, lam in enumerate(subset):
                rest = subset[:l] + subset[l + 1:]
                for t, c in mats[lam][i].items():
                    row[target[(t, rest)]] += (-1) ** l * c
            dense.append(row)
    return dense_rank(dense)


def test_integer_tor_table_matches_the_fraction_matrices(corpus_models):
    # The Koszul complex of the matrices M_i = columns / D_i themselves,
    # ranked densely over the rationals with no clearing, has the Tor
    # table that tor_table reads from the cleared integer columns.
    rational = 0
    for s in _clearing_structures(corpus_models):
        module, r, dim = s.module, s.parameter_count, s.module.length
        mats = []
        for p in s.action_polys:
            cols, denom = module.multiplication_matrix(p)
            rational += denom != 1
            mats.append([{i: Fraction(c, denom) for i, c in col.items()}
                         for col in cols])
        ranks = {k: _dense_koszul_rank(mats, dim, r, k)
                 for k in range(1, r + 1)}
        dims = {k: dim * comb(r, k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
                for k in range(r + 1)}
        assert tor_table(module, s).dims == dims
    assert rational


def test_halperin_images_are_restricted_images_of_combinations(corpus_models):
    # The images of z_i are formed as combinations of the restricted
    # generator images; they must equal d z_i restricted to the even ring.
    strategies = set()
    for model in _pure_elliptic_models(corpus_models):
        basis = halperin_basis(model)
        ring = basis.module.ring
        assert basis.images == [restrict_element(model.apply(z), ring)
                                for z in basis.combinations]
        strategies.add(basis.strategy)
    assert strategies == {"identity", "permutation", "random"}


def test_filtered_fiber_lengths_match_groebner_staircase(corpus_models):
    # An independent oracle for the filtered path, in another monomial order:
    # the number of standard monomials of a Groebner basis of P_i + xi x_i.
    sympy = pytest.importorskip("sympy")
    checked = 0
    for name in ("n1r1-powers", "pure-n2r1-diag", "squarefree-n2",
                 "pairwise-nonregular-n2r1"):
        fibers, _ = _standard_fibers(corpus_models[name])
        for module in fibers[1:]:
            ring = module.ring
            xs = sympy.symbols([g.name for g in ring.evens])
            polys = [sum(sympy.Rational(c.numerator, c.denominator) *
                         sympy.prod([x ** e for x, e in zip(xs, m.exps)])
                         for m, c in rel.terms.items())
                     for rel in module.relations]
            basis = sympy.groebner(polys, *xs, order="grevlex")
            leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0]
                     for g in basis.exprs]
            # a zero-dimensional ideal has a pure power of every variable
            # among its leading monomials, which bounds the staircase
            bounds = [min(lead[i] for lead in leads
                          if sum(lead) == lead[i]) for i in range(len(xs))]
            staircase = [e for e in product(*(range(b) for b in bounds))
                         if not any(all(a >= b for a, b in zip(e, lead))
                                    for lead in leads)]
            assert not module.graded
            assert module.length == len(staircase), name
            checked += 1
    assert checked == 8
