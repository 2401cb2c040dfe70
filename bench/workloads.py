"""Seeded inputs for the three benchmark workloads.

Each workload turns ``(seed, seconds)`` into a list of items.  An item is a
list of CLI invocations of ``hilali.cli.main`` that the benchmark times as
one unit; the model files it names are written before timing starts (by
a child process, when run as ``python3 bench/workloads.py WORKLOAD SEED
SECONDS DIRECTORY``), so every timed item parses its model from disk and
shares no engine object (nor any per-object cache) with another item or
with input filtering.

Why these workloads (see ``design.json`` for the layer predictions):

* ``corpus`` re-verifies every frozen claim, as a user does.  Most of its
  time is the perturbation pipeline on one large model: big chain complexes
  whose coefficients grow during elimination.
* ``verdicts`` decides ``dim V <= dim H`` for random minimal, certified
  elliptic hyperelliptic models.  Many small-to-mid chain complexes with
  small coefficients; graded quotients for certification.
* ``koszul`` computes Tor tables and deformation checks of pure elliptic
  models.  No chain complex is assembled; the time goes to filtered
  quotients ``P_i + t x_i`` and incremental echelon forms.

Random models follow their generator's natural mix, stratified: a run
takes a fixed count from each stratum (size class for verdicts, exponents
and r for koszul) in proportion to the stratum's probability, so the work
of a run depends little on the seed; the seed picks the models.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

# Model documents are written in the engine's file format, so the timed
# command parses them exactly as it parses a user's file.
MODEL_FORMAT = "hilali-model/1"

# Runs are sized so that one run (all passes over its items, see run.py)
# does about ``seconds`` of work on the machine recorded in design.json;
# the counts below are for a run of this length.
REFERENCE_SECONDS = 20


def scaled(count: int, seconds: float) -> int:
    return max(1, round(count * seconds / REFERENCE_SECONDS))


# -- graded-commutative polynomials ------------------------------------------

# The benchmark writes its models with its own arithmetic, so that the
# inputs of a seed do not depend on the engine's basis order or normal
# forms.  A monomial is (exponents of the evens, ascending tuple of odd
# indices); a polynomial is a dict from monomials to Fractions.


def _mono_mul(a, b):
    """(sign, product) of two monomials, or None if they share an odd."""
    (ea, oa), (eb, ob) = a, b
    if set(oa) & set(ob):
        return None
    swaps = sum(1 for i in oa for j in ob if i > j)
    return (-1) ** swaps, (tuple(x + y for x, y in zip(ea, eb)),
                           tuple(sorted(oa + ob)))


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            prod = _mono_mul(ma, mb)
            if prod is not None:
                sign, m = prod
                out[m] = out.get(m, 0) + sign * ca * cb
    return {m: c for m, c in out.items() if c}


def _poly_add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def _d_monomial(mono, images: list[dict]) -> dict:
    """d of a monomial whose evens are closed: the odd factor at position i
    becomes its image, with sign (-1)^i.  Images have even degree, so they
    commute with everything."""
    exps, odds = mono
    out: dict = {}
    for i, j in enumerate(odds):
        rest = {(exps, odds[:i] + odds[i + 1:]): Fraction((-1) ** i)}
        out = _poly_add(out, _poly_mul(images[j], rest))
    return out


def _monomials(degree: int, even_degrees: list[int],
               odd_degrees: list[int]) -> list:
    """Monomials of one degree, in a fixed order of the benchmark's own."""
    out = []
    for odds in itertools.chain.from_iterable(
            itertools.combinations(range(len(odd_degrees)), k)
            for k in range(len(odd_degrees) + 1)):
        rest = degree - sum(odd_degrees[j] for j in odds)
        for exps in _even_exponents(rest, even_degrees):
            out.append((exps, odds))
    return out


def _even_exponents(degree: int, even_degrees: list[int]) -> list:
    if not even_degrees:
        return [()] if degree == 0 else []
    if degree < 0:
        return []
    first, rest = even_degrees[0], even_degrees[1:]
    return [(e,) + tail for e in range(degree // first + 1)
            for tail in _even_exponents(degree - e * first, rest)]


def _term_text(mono, coeff: Fraction, evens: list[str],
               odds: list[str]) -> str:
    exps, odd_ix = mono
    factors = [f"{evens[i]}" + (f"^{e}" if e > 1 else "")
               for i, e in enumerate(exps) if e]
    factors += [odds[j] for j in odd_ix]
    if abs(coeff) != 1:
        factors.insert(0, str(abs(coeff)))
    return "*".join(factors)


def _text(poly: dict, evens: list[str], odds: list[str]) -> str:
    out = []
    for mono in sorted(poly, key=lambda m: (m[1], tuple(-e for e in m[0]))):
        c = poly[mono]
        body = _term_text(mono, c, evens, odds)
        if out:
            out.append(("- " if c < 0 else "+ ") + body)
        else:
            out.append(("-" if c < 0 else "") + body)
    return " ".join(out)


# -- verdicts: random hyperelliptic models in the shape of the c10 criterion --

# Models reduce chain complexes of up to this many monomials (degrees up to
# the formal dimension bound plus one window); larger ones take seconds each
# and would make a run's time depend on how many of them a seed draws.
VERDICT_MAX_SIZE = 2048
# Models per run of the reference length.
VERDICT_MODELS = 240
# Size classes: one below 64 monomials, then half-octaves.  A run takes a
# fixed number of models from each class, in proportion to the class's
# share of the generator's accepted models (its natural mix, measured by
# ``python3 bench/measure_mix.py`` and recorded in design.json), so the mix
# of a run is the generator's own, without the seed-to-seed swing in how
# many large models a run draws.
VERDICT_SMALL_SIZE = 64
VERDICT_CLASS_SHARES = {0: 0.5220, 12: 0.0762, 13: 0.0387, 14: 0.0922,
                        15: 0.0210, 16: 0.0450, 17: 0.0393, 18: 0.0262,
                        19: 0.0605, 20: 0.0400, 21: 0.0387}


def size_class(size: int) -> int:
    return 0 if size < VERDICT_SMALL_SIZE else int(2 * math.log2(size))


def class_counts(shares: dict[int, float], total: int) -> dict[int, int]:
    """Largest-remainder apportionment of ``total`` models, at least one
    per class."""
    quotas = {c: share * total for c, share in shares.items()}
    counts = {c: max(1, math.floor(q)) for c, q in quotas.items()}
    for c in sorted(quotas, key=lambda c: counts[c] - quotas[c]):
        if sum(counts.values()) >= total:
            break
        counts[c] += 1
    return counts


def random_hyperelliptic(rng: random.Random) -> dict:
    """A random minimal hyperelliptic model, biased towards elliptic ones,
    drawn as in the c10 criterion: each of the first n odd generators
    usually carries a pure power of its even partner, and every image adds
    one or two random closed elements in the earlier generators with an even
    factor in every term: monomials in the evens, and d of monomials of word
    length >= 2, which makes d square to zero."""
    while True:
        n = rng.randint(0, 3)
        r = rng.randint(0, 3)
        if n + r > 0:
            break
    even_degrees = [rng.choice([2, 2, 2, 4]) for _ in range(n)]
    plan = []
    for j in range(n + r):
        if j < n:
            dx = even_degrees[j]
            k = rng.choice([k for k in range(2, 8) if k * dx <= 8])
            plan.append((k * dx - 1, j if rng.random() < 0.8 else None, k))
        else:
            small = sum(1 for deg, _, _ in plan if deg == 3)
            pool = [3, 5, 7, 7, 7] if small >= 2 else [3, 5, 7]
            plan.append((rng.choice(pool), None, 0))
    odd_degrees = [deg for deg, _, _ in plan]
    images: list[dict] = []
    for j, (deg, anchor, power) in enumerate(plan):
        earlier = odd_degrees[:j]
        candidates = [{m: Fraction(1)} for m in
                      _monomials(deg + 1, even_degrees, [])
                      if sum(m[0]) >= 2]
        for w in _monomials(deg, even_degrees, earlier):
            if w[1] and sum(w[0]) + len(w[1]) >= 2:
                dw = _d_monomial(w, images)
                if dw:
                    candidates.append(dw)
        image: dict = {}
        if candidates and rng.random() < 0.9:
            for i in rng.sample(range(len(candidates)),
                                rng.randint(1, min(2, len(candidates)))):
                coeff = Fraction(rng.choice([-2, -1, 1, 2]),
                                 rng.choice([1, 1, 2]))
                image = _poly_add(image, candidates[i], coeff)
        if anchor is not None:
            exps = tuple(power if i == anchor else 0 for i in range(n))
            image = _poly_add(image, {(exps, ()): Fraction(1)})
        images.append(image)
    evens = [f"x{i + 1}" for i in range(n)]
    odds = [f"y{j + 1}" for j in range(n + r)]
    return {"format": MODEL_FORMAT, "name": f"random-hyperelliptic-n{n}r{r}",
            "generators": [{"name": g, "degree": d} for g, d in
                           zip(evens + odds, even_degrees + odd_degrees)],
            "differential": {odds[j]: _text(img, evens, odds)
                             for j, img in enumerate(images) if img}}


def chain_size(doc: dict) -> int:
    """Monomials in the degrees a complete Betti table reduces: up to the
    formal dimension bound plus the largest generator degree, plus one."""
    degrees = [g["degree"] for g in doc["generators"]]
    bound = sum(d for d in degrees if d % 2) - sum(d - 1 for d in degrees
                                                   if d % 2 == 0)
    top = max(bound, 0) + max(degrees) + 1
    series = [1] + [0] * top
    for d in degrees:
        if d % 2 == 0:
            for i in range(d, top + 1):
                series[i] += series[i - d]
        else:
            for i in range(top, d - 1, -1):
                series[i] += series[i - d]
    return sum(series)


def accepted_models(seed: int):
    """The generator's stream at one seed, as (size, document) for each
    candidate that is small enough, minimal and certified elliptic."""
    from hilali.cohomology import certify_elliptic
    from hilali.model import check_minimal, model_from_dict
    rng = random.Random(seed)
    while True:
        doc = random_hyperelliptic(rng)
        size = chain_size(doc)
        if size >= VERDICT_MAX_SIZE:
            continue
        model = model_from_dict(doc)
        if check_minimal(model) and certify_elliptic(model).elliptic:
            yield size, doc


def verdict_models(seed: int, seconds: float) -> list[tuple[str, dict]]:
    """Minimal, certified elliptic models, a fixed count per size class.

    Candidates come from one seeded stream and fill their class in order of
    arrival, so a shorter run takes a prefix of each class of a longer one.
    """
    counts = class_counts(VERDICT_CLASS_SHARES,
                          scaled(VERDICT_MODELS, seconds))
    taken: dict[int, list[dict]] = {cls: [] for cls in sorted(counts)}
    missing = sum(counts.values())
    for size, doc in accepted_models(seed):
        cls = size_class(size)
        if len(taken[cls]) < counts[cls]:
            taken[cls].append(doc)
            missing -= 1
            if not missing:
                break
    return [(f"c{cls}.{k}", doc) for cls, docs in taken.items()
            for k, doc in enumerate(docs)]


# -- koszul: pure elliptic models with anchored powers ------------------------

# The generator's distribution: three even generators, each anchored power
# x_i^k_i with k_i uniform in KOSZUL_POWERS, and r uniform in KOSZUL_R.  Its
# strata (k_1, k_2, k_3, r) are equally likely, so a run takes each stratum
# equally often, in a fixed order; the seed picks the random terms.
KOSZUL_EVENS = 3
KOSZUL_POWERS = (2, 3)
KOSZUL_R = (1, 2, 3)
# Models per run of the reference length.
KOSZUL_MODELS = 48


def pure_model(rng: random.Random, ks: tuple[int, ...], r: int) -> dict:
    """A pure model over even generators x_1..x_n of degree 2.

    ``d y_i = x_i^k_i`` plus up to two random terms of the same degree in
    ``x_i..x_n`` only, for i <= n.  Under the lexicographic order the
    leading terms are the coprime powers ``x_i^k_i``, so the first n images
    always form a regular sequence with quotient length ``prod k_i``, and
    the odd-basis search succeeds at its first attempt.  The r further odd
    generators map to random quadratic forms with two terms.
    """
    n = len(ks)
    coeffs = (-2, -1, 1, 2)
    images, degrees = [], []
    for i, k in enumerate(ks):
        anchor = tuple(k if j == i else 0 for j in range(n))
        tails = [v for v in _even_exponents(k, [1] * n)
                 if v != anchor and not any(v[:i])]
        picks = rng.sample(tails, min(2, len(tails)))
        images.append({(anchor, ()): Fraction(1)} |
                      {(v, ()): Fraction(rng.choice(coeffs)) for v in picks})
        degrees.append(2 * k - 1)
    for _ in range(r):
        picks = rng.sample(_even_exponents(2, [1] * n), 2)
        images.append({(v, ()): Fraction(rng.choice(coeffs)) for v in picks})
        degrees.append(3)
    evens = [f"x{i + 1}" for i in range(n)]
    odds = [f"y{j + 1}" for j in range(len(images))]
    name = "pure-" + "".join(map(str, ks)) + f"-r{r}"
    return {"format": MODEL_FORMAT, "name": name,
            "generators": [{"name": g, "degree": d} for g, d in
                           zip(evens + odds, [2] * n + degrees)],
            "differential": {odds[j]: _text(img, evens, odds)
                             for j, img in enumerate(images)}}


def koszul_models(seed: int, seconds: float) -> list[tuple[str, dict]]:
    """Certified elliptic pure models, the strata in turn.  Each item draws
    from its own seeded stream, so a shorter run takes a prefix."""
    from hilali.cohomology import certify_elliptic
    from hilali.model import model_from_dict
    strata = [(ks, r) for ks in itertools.product(KOSZUL_POWERS,
                                                  repeat=KOSZUL_EVENS)
              for r in KOSZUL_R]
    out = []
    for k in range(scaled(KOSZUL_MODELS, seconds)):
        ks, r = strata[k % len(strata)]
        label = "".join(map(str, ks)) + f"r{r}"
        rng = random.Random(f"koszul:{seed}:{label}:{k // len(strata)}")
        while True:
            doc = pure_model(rng, ks, r)
            if certify_elliptic(model_from_dict(doc)).elliptic:
                break
        out.append((f"k{label}.{k // len(strata)}", doc))
    return out


# -- items --------------------------------------------------------------------

MODELS = {"verdicts": verdict_models, "koszul": koszul_models}


def invocations(workload: str, seed: int, path: str) -> list[list[str]]:
    """The CLI calls of one item on one model file."""
    if workload == "verdicts":
        return [["hilali", path, "--format", "machine"]]
    s = str(seed)
    return [["tor", path, "--seed", s, "--format", "machine"],
            ["deform", path, "--seed", s, "--format", "machine"]]


def items(workload: str, seed: int, seconds: float, directory: Path):
    """The items of a run, as ``(key, CLI invocations)``.  Model files are
    written to ``directory``; ``items.json`` there lists the items."""
    if workload == "corpus":
        # one item: the whole corpus, serially, as ``hilali corpus`` runs it
        out = [("corpus", [["corpus", "corpus/", "--seed", str(seed),
                            "--format", "machine"]])]
    else:
        out = []
        for key, doc in MODELS[workload](seed, seconds):
            path = directory / f"{key}.model.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            out.append((key, invocations(workload, seed, str(path))))
    (directory / "items.json").write_text(json.dumps(out))
    return out


def read_items(directory: Path) -> list[tuple[str, list[list[str]]]]:
    return [(key, calls) for key, calls in
            json.loads((directory / "items.json").read_text())]


def corpus_expectation_count(corpus_dir: str = "corpus") -> int:
    return sum(len(json.loads(p.read_text()).get("expectations", []))
               for p in sorted(Path(corpus_dir).glob("*.manifest.json")))


if __name__ == "__main__":
    # python3 bench/workloads.py WORKLOAD SEED SECONDS DIRECTORY
    sys.path.insert(0, str(Path("src").resolve()))
    workload, seed, seconds, directory = sys.argv[1:]
    items(workload, int(seed), float(seconds), Path(directory))
