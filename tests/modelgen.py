"""Seeded random model generators for property and acceptance tests.

Differentials are built triangularly: the image of each generator is a
random closed element of the partial model on the earlier generators, which
makes the square of the differential vanish by construction.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from functools import cache
from math import lcm
from pathlib import Path

from hilali import (Element, Model, certify_elliptic, classify, load_model,
                    model_from_dict, universe)
from hilali.algebra import restrict_element
from hilali.linalg import kernel_of_rows


def fresh_copy(model: Model) -> Model:
    """The same model over a new differential, with nothing memoized: no
    rank, certificate or odd basis.  A test that patches an engine function
    reads a copy, so no artifact that an earlier test kept on a shared
    corpus model answers in place of the patched code."""
    return Model(model.universe, model.d.images, name=model.name)


def closed_elements(model: Model, degree: int, *, min_word_length: int = 2,
                    require_even_factor: bool = False) -> list[Element]:
    """Basis of the closed subspace spanned by admissible monomials."""
    uni = model.universe
    admissible = []
    for m in uni.basis(degree):
        if m.word_length < min_word_length:
            continue
        if require_even_factor and sum(m.exps) == 0:
            continue
        admissible.append(m)
    if not admissible:
        return []
    target = {m: i for i, m in enumerate(uni.basis(degree + 1))}
    images = [model.d.apply_monomial(m) for m in admissible]
    # one common scale for every row leaves the kernel as it is
    scale = lcm(*[c.denominator for img in images for c in img.terms.values()])
    rows = [{target[t]: int(c * scale) for t, c in img.terms.items()}
            for img in images]
    vectors = kernel_of_rows(rows, len(target))
    out = []
    for vec in vectors:
        e = Element.zero(uni)
        for j, c in vec.items():
            e.terms[admissible[j]] = Fraction(c)
        out.append(e)
    return out


def _sparse_combination(rng: random.Random, candidates: list[Element],
                        max_terms: int) -> Element | None:
    if not candidates:
        return None
    count = rng.randint(1, min(max_terms, len(candidates)))
    picks = rng.sample(range(len(candidates)), count)
    uni = candidates[0].universe
    out = Element.zero(uni)
    for i in picks:
        coeff = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2]))
        out = out + candidates[i].scale(coeff)
    return None if out.is_zero else out


def random_hyperelliptic_model(rng: random.Random, *, n_max: int = 3,
                               r_max: int = 3, max_degree: int = 8,
                               anchor_probability: float = 0.8) -> Model:
    """A random minimal hyperelliptic model, biased towards elliptic ones.

    With probability ``anchor_probability`` each of the first n odd
    generators carries a pure power of its matching even generator, which
    guarantees a finite pure-part quotient; the rest is rejection-sampled by
    the caller.
    """
    while True:
        n = rng.randint(0, n_max)
        r = rng.randint(0, r_max)
        if n + r > 0:
            break
    even_degrees = [rng.choice([2, 2, 2, 4]) for _ in range(n)]
    specs = [(f"x{i+1}", d) for i, d in enumerate(even_degrees)]
    odd_plan = []
    for j in range(n + r):
        if j < n:
            dx = even_degrees[j]
            powers = [k for k in range(2, max_degree) if k * dx - 1 <= max_degree - 1]
            k = rng.choice(powers)
            odd_plan.append((k * dx - 1, j + 1 if rng.random() < anchor_probability
                             else None, k))
        else:
            earlier_small = sum(1 for deg, _, _ in odd_plan if deg == 3)
            pool = [3, 5, 7, 7, 7] if earlier_small >= 2 else [3, 5, 7]
            odd_plan.append((rng.choice(pool), None, 0))
    specs += [(f"y{j+1}", deg) for j, (deg, _, _) in enumerate(odd_plan)]
    uni = universe(specs)
    diff: dict[str, Element] = {}
    for j, (deg, anchor, power) in enumerate(odd_plan):
        partial_uni = universe(specs[:n + j])
        rebuilt = {name: restrict_element(img, partial_uni)
                   for name, img in diff.items()}
        partial = Model(partial_uni, rebuilt)
        candidates = closed_elements(partial, deg + 1, require_even_factor=True)
        image = None
        if candidates and rng.random() < 0.9:
            image = _sparse_combination(rng, candidates, 2)
        if image is not None:
            image = restrict_element(image, uni)
        if anchor is not None:
            term = Element.generator(uni, f"x{anchor}")
            powered = term
            for _ in range(power - 1):
                powered = powered * term
            image = powered if image is None else image + powered
        if image is not None and not image.is_zero:
            diff[f"y{j+1}"] = image
    return Model(uni, diff, name=f"random-hyperelliptic-n{n}r{r}")


def random_model(rng: random.Random, *, max_generators: int = 5,
                 degree_cap: int = 7, dimension_cap: int = 300,
                 probe_degree: int = 12) -> Model:
    """A random valid model (d homogeneous of degree +1 with square zero),
    not necessarily minimal, pure, or elliptic."""
    while True:
        count = rng.randint(1, max_generators)
        specs = [(f"g{i+1}", rng.randint(2, degree_cap)) for i in range(count)]
        uni = universe(specs)
        from hilali.algebra import dimension_series
        if max(dimension_series(uni, probe_degree)) <= dimension_cap:
            break
    diff: dict[str, Element] = {}
    for j in range(len(specs)):
        if rng.random() < 0.45:
            continue
        partial_uni = universe(specs[:j])
        rebuilt = {name: restrict_element(img, partial_uni)
                   for name, img in diff.items()}
        partial = Model(partial_uni, rebuilt)
        deg = specs[j][1] + 1
        min_word = 1 if rng.random() < 0.2 else 2
        candidates = closed_elements(partial, deg, min_word_length=min_word)
        image = _sparse_combination(rng, candidates, 3)
        if image is not None:
            diff[specs[j][0]] = restrict_element(image, uni)
    return Model(uni, diff, name="random-model")


def random_element(rng: random.Random, uni, degree: int, max_terms: int = 4):
    """Random homogeneous element in one degree (possibly zero)."""
    monomials = uni.basis(degree)
    if not monomials:
        return Element.zero(uni)
    out = Element.zero(uni)
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monomials)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            out = out + Element.from_monomial(uni, m, c)
    return out


REPO = Path(__file__).resolve().parent.parent


@cache
def benchmark_documents(workload: str, seed: int
                        ) -> tuple[tuple[str, dict], ...]:
    """The model documents of a benchmark workload (``verdicts`` or
    ``koszul``) at one seed, at its reference length, from
    ``bench/workloads.py`` (read, not changed)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return tuple(workloads.MODELS[workload](seed, workloads.REFERENCE_SECONDS))


def certified_models() -> list[tuple[str, Model]]:
    """A fresh copy of every hyperelliptic model certified elliptic among:
    the corpus; ``random_hyperelliptic_model`` at seeds 0-4;
    ``random_model`` at seeds 0-49 (seeds 0-4 draw none); and the
    ``verdicts`` benchmark models of seed 0.  Each call builds new model
    objects, so no rank is memoized on them yet (only the certificate)."""
    models = [(path.name.replace(".model.json", ""), load_model(path))
              for path in sorted((REPO / "corpus").glob("*.model.json"))]
    models += [(f"random_hyperelliptic_model seed {seed}",
                random_hyperelliptic_model(random.Random(seed)))
               for seed in range(5)]
    models += [(f"random_model seed {seed}", random_model(random.Random(seed)))
               for seed in range(50)]
    models += [(f"verdicts seed 0 {key}", model_from_dict(doc))
               for key, doc in benchmark_documents("verdicts", 0)]
    return [(name, m) for name, m in models if classify(m).is_hyperelliptic
            and certify_elliptic(m).elliptic]
