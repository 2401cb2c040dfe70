"""Acceptance criteria for the engine, one test per criterion.

Every expected value is exact (rational arithmetic end to end); there are no
tolerances anywhere.  Each test prints one PASS/FAIL line.

Criterion 2 checks the per-pair facts of the bundled mixed-powers model: two
of its three image pairs are regular sequences with elliptic sub-models, one
is not.  The expected values rest on hand certificates that the test checks
with Element arithmetic alone, e.g. (x1^3 + x2)*(P2 - x2*P1) + x1^6*P1 =
2*x1^12.  The negative claim that no image pair is regular, which is false
for the mixed-powers images, is checked on entangled-pairs-n2r1, the corpus
model where it holds.
"""

import random
import time
from math import comb

import pytest

from hilali import (Element, Model, NotFiniteLengthError, SModuleStructure,
                    betti, betti_complete, certify_elliptic, check_minimal,
                    classify, euler_characteristics, even_subring,
                    halperin_basis, hilali_verdict, is_exact,
                    is_regular_sequence, parse_expression,
                    perturb_and_reduce, quotient_basis, restrict_model,
                    standard_family, tor_bounds_check, tor_table,
                    tor_via_model_cross_check, universe)
from hilali.algebra import format_element, restrict_element

from dense_oracle import betti_dense
from modelgen import random_hyperelliptic_model, random_model


def report(number, ok, message):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>3}: {status}  {message}")
    return ok


@pytest.fixture(scope="module")
def mixed_powers():
    uni = universe([("x1", 2), ("x2", 6), ("y1", 11), ("y2", 17), ("y3", 13)])
    return Model(uni, {
        "y1": parse_expression("x1^6 + x2^2", uni),
        "y2": parse_expression("x1^9 + x2^3", uni),
        "y3": parse_expression("x1^4*x2 + x1*x2^2", uni)}, name="mixed-powers")


def pure_elliptic_corpus(corpus_models):
    out = {}
    for name, m in corpus_models.items():
        cls = classify(m)
        if cls.is_pure and cls.r >= 0 and certify_elliptic(m).elliptic:
            out[name] = m
    return out


def hyperelliptic_elliptic_corpus(corpus_models):
    out = {}
    for name, m in corpus_models.items():
        cls = classify(m)
        if cls.is_hyperelliptic and cls.r >= 0 and certify_elliptic(m).elliptic:
            out[name] = m
    return out


def test_c01_power_exactness_identities(mixed_powers):
    m = mixed_powers
    first = m.apply(parse_expression("x1^4*y1 + x1*y2 - x2*y3", m.universe))
    second = m.apply(parse_expression("x2^2*y1 + x2*y2 - x1^5*y3", m.universe))
    ok = (format_element(first) == "2*x1^10"
          and format_element(second) == "2*x2^4")
    assert report(1, ok, "even-power potentials reproduce 2*x1^10 and 2*x2^4 exactly")


# Per-pair facts, fixed by hand: the quotient length of each regular pair
# (None for an infinite-length quotient) and whether its sub-model is elliptic.
MIXED_POWERS_PAIRS = {
    ("y1", "y2"): (18, True),
    ("y1", "y3"): (14, True),
    ("y2", "y3"): (None, False),
}
ENTANGLED_PAIRS = {
    ("y1", "y2"): (None, False),
    ("y1", "y3"): (None, False),
    ("y2", "y3"): (None, False),
}


def pair_mismatches(model, expected):
    """Compare the engine's decision for each pair of odd images with the
    expected (length, elliptic) entry; return a list of disagreements."""
    ring = even_subring(model)
    odds = [g.name for g in model.universe.odds]
    images = {name: restrict_element(model.d.of_generator(name), ring)
              for name in odds}
    wrong = []
    for pair, (length, elliptic) in expected.items():
        relations = [images[name] for name in pair]
        regular = is_regular_sequence(ring, relations)
        if regular != (length is not None):
            wrong.append(f"{pair}: regular = {regular}")
        try:
            found = quotient_basis(ring, relations).length
        except NotFiniteLengthError:
            found = None
        if found != length:
            wrong.append(f"{pair}: quotient length {found}, expected {length}")
        sub = restrict_model(model, set(odds) - set(pair))
        certified = certify_elliptic(sub).elliptic
        if certified != elliptic:
            wrong.append(f"{pair}: sub-model elliptic = {certified}")
    return wrong


def test_c02_mixed_powers_negative_claims(mixed_powers, corpus_models):
    """Per-pair regularity and ellipticity of the mixed-powers images, backed
    by hand certificates, and the "no regular pair" claim on the corpus model
    where it holds.

    Mixed powers (P1, P2, P3 the images of y1, y2, y3): (P1, P2) and (P1, P3)
    are regular with Bezout lengths 18 and 14 and elliptic sub-models;
    (P2, P3) is not, since x2 + x1^3 divides both.  The certificates are
    checked with Element arithmetic alone:
    (x1^3 + x2)*(P2 - x2*P1) + x1^6*P1 = 2*x1^12 and
    x2^4 - x1^12 = (x2^2 - x1^6)*P1 put powers of x1 and x2 into (P1, P2);
    (2*x1^4 + x1*x2)*P1 - (x1^3 + x2)*P3 = 2*x1^10 and
    (x1^3*x2 + 2*x2^2)*P1 - (x1^5 + x1^2*x2)*P3 = 2*x2^4 do so for (P1, P3).
    In entangled-pairs-n2r1 every pair of images shares a linear factor, so
    no pair is regular and no pair sub-model is elliptic, although the whole
    model is certified elliptic.
    """
    wrong = pair_mismatches(mixed_powers, MIXED_POWERS_PAIRS)

    ring = even_subring(mixed_powers)

    def pe(text):
        return parse_expression(text, ring)

    P1, P2, P3 = pe("x1^6 + x2^2"), pe("x1^9 + x2^3"), pe("x1^4*x2 + x1*x2^2")
    images = [restrict_element(mixed_powers.d.of_generator(name), ring)
              for name in ("y1", "y2", "y3")]
    identities = {
        "images are P1, P2, P3": (images, [P1, P2, P3]),
        "(x1^3 + x2)*(P2 - x2*P1) + x1^6*P1 = 2*x1^12":
            (pe("x1^3 + x2") * (P2 - pe("x2") * P1) + pe("x1^6") * P1,
             pe("2*x1^12")),
        "x2^4 - x1^12 = (x2^2 - x1^6)*P1":
            (pe("x2^4 - x1^12"), pe("x2^2 - x1^6") * P1),
        "(2*x1^4 + x1*x2)*P1 - (x1^3 + x2)*P3 = 2*x1^10":
            (pe("2*x1^4 + x1*x2") * P1 - pe("x1^3 + x2") * P3,
             pe("2*x1^10")),
        "(x1^3*x2 + 2*x2^2)*P1 - (x1^5 + x1^2*x2)*P3 = 2*x2^4":
            (pe("x1^3*x2 + 2*x2^2") * P1 - pe("x1^5 + x1^2*x2") * P3,
             pe("2*x2^4")),
        "x2 + x1^3 divides P2 and P3 and leaves 2*x1^6 from P1":
            ([P1, P2, P3],
             [pe("x2 + x1^3") * pe("x2 - x1^3") + pe("2*x1^6"),
              pe("x2 + x1^3") * pe("x2^2 - x1^3*x2 + x1^6"),
              pe("x2 + x1^3") * pe("x1*x2")]),
    }

    entangled = corpus_models["entangled-pairs-n2r1"]
    ering = even_subring(entangled)
    f1, f2, f3 = (parse_expression(t, ering) for t in ("x1", "x2", "x1 + x2"))
    identities["entangled images are x1*x2, x1*(x1 + x2), x2*(x1 + x2)"] = (
        [restrict_element(entangled.d.of_generator(name), ering)
         for name in ("y1", "y2", "y3")],
        [f1 * f2, f1 * f3, f2 * f3])
    wrong += [f"identity fails: {text}"
              for text, (lhs, rhs) in identities.items() if lhs != rhs]

    if not certify_elliptic(entangled).elliptic:
        wrong.append("entangled-pairs-n2r1 is not certified elliptic")
    wrong += [f"entangled-pairs-n2r1 {w}"
              for w in pair_mismatches(entangled, ENTANGLED_PAIRS)]

    assert report(2, not wrong, "mixed powers: (y1,y2), (y1,y3) regular of "
                                "lengths 18, 14 and elliptic, (y2,y3) neither; "
                                "entangled pairs: no pair regular or elliptic"
                  ), wrong


def test_c03_augmentation_tor_is_binomial():
    ring = universe([])
    module = quotient_basis(ring, [])
    ok = True
    for r in range(6):
        table = tor_table(module, SModuleStructure(module, [Element.zero(ring)] * r))
        ok = ok and table.dims == {k: comb(r, k) for k in range(r + 1)}
    assert report(3, ok, "Tor of the one-point module equals binom(r, k) for r = 0..5")


def test_c04_cohomology_tor_cross_check(corpus_models):
    eligible = {}
    for name, m in pure_elliptic_corpus(corpus_models).items():
        cls = classify(m)
        degrees_ok = all(g.degree <= 8 for g in m.universe.generators)
        if cls.n <= 3 and degrees_ok:
            eligible[name] = m
    assert len(eligible) >= 5
    worst = 0.0
    ok = True
    for name, m in eligible.items():
        t0 = time.monotonic()
        basis = halperin_basis(m, seed=0)
        table = tor_table(basis.module, basis.structure)
        check = tor_via_model_cross_check(m, basis, table)
        worst = max(worst, time.monotonic() - t0)
        ok = ok and check.passes and check.total_cohomology == check.total_tor
        ok = ok and all(hq == tq for _, hq, tq in check.by_odd_count)
    ok = ok and worst <= 300
    assert report(4, ok, f"cohomology = Tor on {len(eligible)} pure elliptic "
                         f"corpus models, lower grading matched (max {worst:.1f}s)")


def test_c05_tor_endpoint_bounds(corpus_models):
    ok = True
    checked = 0
    for name, m in pure_elliptic_corpus(corpus_models).items():
        basis = halperin_basis(m, seed=0)
        bounds = tor_bounds_check(basis.module,
                                  tor_table(basis.module, basis.structure))
        n = classify(m).n
        r = classify(m).r
        ok = ok and bounds.tor_bottom >= n + 1 and bounds.tor_top >= n + 1
        if r == 0:
            ok = ok and basis.module.length >= 2 * n
        checked += 1
    assert report(5, ok, f"Tor^0, Tor^r >= n+1 on {checked} pure elliptic models; "
                         "length >= 2n when r = 0")


def test_c06_tor_semicontinuity(corpus_models):
    from hilali import tor_semicontinuity_check
    ok = True
    families = 0
    for name, m in pure_elliptic_corpus(corpus_models).items():
        family, actions = standard_family(m, seed=0)
        for seed in (0, 1, 2):
            semi = tor_semicontinuity_check(family, actions, samples=5, seed=seed)
            ok = ok and semi.passes
        families += 1
    assert report(6, ok, f"Tor semicontinuity on {families} families, "
                         "5 samples x 3 seeds, zero violations")


def test_c07_perturbation_pipeline(corpus_models):
    ok = True
    models = 0
    for name, m in hyperelliptic_elliptic_corpus(corpus_models).items():
        rep = perturb_and_reduce(m, samples=2, seed=0)
        cls = classify(m)
        ok = ok and rep.passes
        ok = ok and rep.terminal_dim == 2 ** (cls.n + cls.r)
        ok = ok and rep.dim_h >= 2 ** cls.r
        ok = ok and all(s.doubling_ok for s in rep.steps)
        ok = ok and all(t.collapse_ok and t.dominated
                        for s in rep.steps for t in s.samples)
        models += 1
    assert report(7, ok, f"cancellation pipeline on {models} hyperelliptic "
                         "models: collapse, doubling, domination, 2^r bound")


def test_c08_euler_sign_constraints(corpus_models):
    ok = True
    checked = 0
    for name, m in hyperelliptic_elliptic_corpus(corpus_models).items():
        cert = certify_elliptic(m)
        chi, chi_pi = euler_characteristics(m, betti_complete(m, cert))
        ok = ok and chi >= 0 and chi_pi <= 0 and ((chi_pi < 0) == (chi == 0))
        checked += 1
    assert report(8, ok, f"chi >= 0, chi_pi <= 0, chi_pi < 0 iff chi = 0 "
                         f"on {checked} certified-elliptic models")


def test_c09_endgame_model(corpus_models):
    m = corpus_models["all-quadrics-n3r3"]
    a1 = parse_expression("x3*y2*y3 + x1*y3*y5 - x2*y2*y5", m.universe)
    a2 = parse_expression("x3*y1*y2 - x2*y1*y4 + x1*y2*y4", m.universe)
    cocycles = m.apply(a1).is_zero and m.apply(a2).is_zero
    survives = (not is_exact(m, a1)) or (not is_exact(m, a2))
    verdict = hilali_verdict(m)
    ok = (cocycles and survives and verdict.dim_h >= 10 and verdict.dim_v == 9
          and verdict.holds)
    assert report(9, ok, f"terminal model: both classes closed, at least one "
                         f"survives, dim H = {verdict.dim_h} >= 10 >= 9")


def test_c10_random_hyperelliptic_verdicts():
    rng = random.Random(2024)
    budget = 15 * 60
    start = time.monotonic()
    kept = 0
    attempts = 0
    violations = []
    while kept < 200:
        attempts += 1
        assert time.monotonic() - start < budget, \
            f"runtime budget exceeded after {kept} models"
        m = random_hyperelliptic_model(rng)
        if not check_minimal(m):
            continue
        cert = certify_elliptic(m)
        if not cert.elliptic:
            continue
        verdict = hilali_verdict(m)
        if not verdict.holds:
            violations.append((m.name, verdict.dim_v, verdict.dim_h))
        kept += 1
    elapsed = time.monotonic() - start
    ok = not violations
    assert report(10, ok, f"200 random certified-elliptic hyperelliptic models "
                          f"({attempts} sampled) all satisfy dim V <= dim H "
                          f"({elapsed:.0f}s)"), violations


def test_c11_betti_oracle_equivalence():
    rng = random.Random(4096)
    checked = 0
    ok = True
    while checked < 50:
        m = random_model(rng)
        maxdeg = rng.randint(5, 10)
        engine = betti(m, maxdeg).dims
        oracle = betti_dense(m, maxdeg)
        if engine != oracle:
            ok = False
            break
        checked += 1
    assert report(11, ok, f"sparse engine matches the dense oracle on "
                          f"{checked} random models, exact")
