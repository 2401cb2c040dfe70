"""Differential-graded structure on a free graded-commutative algebra.

A :class:`Model` couples a generator universe with images of the generators
under a degree +1 derivation.  Validation (degree bookkeeping, square zero),
minimality, the pure/hyperelliptic classification, the pure part, and the
lower grading all live here, together with the versioned model file format
of simply connected models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add
from pathlib import Path

from .algebra import (Element, GeneratorUniverse, Monomial, _merge_odds,
                      format_element, restrict_element, universe)
from .errors import EngineError, InhomogeneousError, ModelError
from .parsing import parse_expression

MODEL_FORMAT = "hilali-model/1"


class Derivation:
    """A graded derivation of odd degree, determined by generator images.

    Extends by the signed Leibniz rule ``D(ab) = D(a) b + (-1)^{deg a} a D(b)``.
    Image lookups are by generator name; missing names mean image zero.
    One integer kernel, :func:`_leibniz`, extends the images to monomials:
    it reads the integer image tables of :meth:`tables` (the images scaled
    by one common denominator D) and puts odd factors in order with
    :func:`~hilali.algebra._merge_odds`, the sign rule of products: each
    swap of two odd factors gives -1.  :meth:`apply_monomial` and calls on
    elements divide by D again.  ``ChainComplex.rows`` keeps the integer
    terms and, when every even generator is closed, runs the kernel once per
    odd monomial y_S and reads d(f y_S) = f d(y_S) by shifting exponents.
    The ranks that :class:`~hilali.cohomology.ChainComplex` takes of the
    derivation are kept in ``ranks``, per degree and block key (the
    odd-factor count, or None for a whole degree).  The dict ``memo`` keeps
    every other artifact of the model, made once: ``"pure"``,
    ``"validation"``, ``("certificate", max_probe)`` and ``("odd basis",
    seed, budget, max_probe)``; errors are not kept.
    """

    def __init__(self, uni: GeneratorUniverse, images: dict[str, Element]):
        for name, img in images.items():
            if name not in uni.by_name:
                raise ModelError(f"image given for unknown generator {name!r}")
            if img.universe != uni:
                raise ModelError(f"image of {name!r} lives over a different universe")
        self.universe = uni
        self.images = {name: img for name, img in images.items() if not img.is_zero}
        self.ranks: dict[int, dict[int | None, int]] = {}
        self.memo: dict = {}

    def of_generator(self, name: str) -> Element:
        img = self.images.get(name)
        return img if img is not None else Element.zero(self.universe)

    def tables(self) -> tuple[int, tuple, tuple]:
        """The integer image tables ``(D, even tables, odd tables)``.

        D is the lcm of the denominators of all image coefficients.  Each
        generator, in universe order, gets the tuple of its image terms
        ``(exps, odds, D*c)``.  Built on each call; nothing is kept.
        """
        denom = lcm(*[c.denominator for img in self.images.values()
                      for c in img.terms.values()])
        scaled = {name: tuple([(m.exps, m.odds,
                                c.numerator * (denom // c.denominator))
                               for m, c in img.terms.items()])
                  for name, img in self.images.items()}
        uni = self.universe
        return (denom, tuple([scaled.get(g.name, ()) for g in uni.evens]),
                tuple([scaled.get(g.name, ()) for g in uni.odds]))

    def __call__(self, e: Element) -> Element:
        if e.universe != self.universe:
            raise ModelError("element lives over a different universe")
        tables = self.tables()
        out = Element.zero(self.universe)
        for m, c in e.terms.items():
            out = out + self._image(tables, m).scale(c)
        return out

    def apply_monomial(self, m: Monomial) -> Element:
        return self._image(self.tables(), m)

    def _image(self, tables, m: Monomial) -> Element:
        return Element._raw(self.universe, {
            Monomial(*key): Fraction(c, tables[0])
            for key, c in _leibniz(tables, m.exps, m.odds).items()})


def _leibniz(tables, exps: tuple[int, ...],
             odds: tuple[int, ...]) -> dict[tuple, int]:
    """D times d(x^exps y_odds) as ``{(exps, odds): int}``, no zero entries.

    x_i^e gives e x^(e-1) d(x_i), whose odd factors stand before y_odds;
    the k-th odd factor gives (-1)^k times its image, whose odd factors
    stand between odds[:k] and odds[k+1:].  :func:`_merge_odds` puts them
    in order: its signs multiply, and a repeated factor drops the term.
    """
    _, even_tables, odd_tables = tables
    out: dict[tuple, int] = {}
    # per factor with an image: (factor, even part, odd prefix, odd suffix,
    # image terms)
    for factor, base, prefix, suffix, terms in chain(
            ((e, exps[:i] + (e - 1,) + exps[i + 1:], (), odds, even_tables[i])
             for i, e in enumerate(exps) if e and even_tables[i]),
            ((-1 if k % 2 else 1, exps, odds[:k], odds[k + 1:], odd_tables[t])
             for k, t in enumerate(odds) if odd_tables[t])):
        for iexps, iodds, c in terms:
            left = _merge_odds(prefix, iodds)
            right = left and _merge_odds(left[1], suffix)
            if right:
                key = (tuple(map(add, base, iexps)), right[1])
                s = out.get(key, 0) + left[0] * right[0] * factor * c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


class Model:
    """A presentation ``(universe, d)``; immutable once constructed.

    Light structural checks happen here; the full degree and square-zero
    report comes from :func:`check_differential`.  A generator may have
    degree 1, though model files refuse one (see :func:`read_model`).
    """

    def __init__(self, uni: GeneratorUniverse, differential: dict[str, Element],
                 name: str = ""):
        self.universe = uni
        self.name = name
        self.d = Derivation(uni, differential)

    def apply(self, e: Element) -> Element:
        """Extend d over a general element by linearity and Leibniz."""
        return self.d(e)

    def __repr__(self) -> str:
        return f"Model({self.name or self.universe!r})"


@dataclass(frozen=True)
class GeneratorCheck:
    name: str
    degree_ok: bool
    square_ok: bool
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[GeneratorCheck, ...]
    passed: bool

    def failures(self) -> list[GeneratorCheck]:
        return [e for e in self.entries if not (e.degree_ok and e.square_ok)]


def check_differential(model: Model) -> ValidationReport:
    """Per generator: image homogeneous of degree +1 and d(d g) = 0.  A
    model is immutable, so the report is made once and kept in
    ``model.d.memo``."""
    if "validation" in model.d.memo:
        return model.d.memo["validation"]
    entries = []
    ok = True
    for g in model.universe.generators:
        img = model.d.of_generator(g.name)
        message = ""
        if img.is_zero:
            degree_ok = True
            square_ok = True
        else:
            try:
                degree_ok = img.degree() == g.degree + 1
                if not degree_ok:
                    message = f"deg d({g.name}) = {img.degree()} != {g.degree + 1}"
            except InhomogeneousError:
                degree_ok = False
                message = f"d({g.name}) is not homogeneous"
            square = model.d(img)
            square_ok = square.is_zero
            if not square_ok:
                message = (message + "; " if message else "") + \
                    f"d(d({g.name})) = {format_element(square)} != 0"
        entries.append(GeneratorCheck(g.name, degree_ok, square_ok, message))
        ok = ok and degree_ok and square_ok
    report = model.d.memo["validation"] = ValidationReport(tuple(entries), ok)
    return report


def check_minimal(model: Model) -> bool:
    """True iff every differential image has all monomials of word length >= 2."""
    for img in model.d.images.values():
        for m in img.terms:
            if m.word_length < 2:
                return False
    return True


@dataclass(frozen=True)
class Classification:
    is_minimal: bool
    is_pure: bool
    is_hyperelliptic: bool
    n: int          # even generators
    n_plus_r: int   # odd generators
    r: int          # n_plus_r - n; negative values flag non-elliptic inputs


def classify(model: Model) -> Classification:
    """Syntactic classification from the differential images.

    Pure: d = 0 on evens and the odd images use even generators only.
    Hyperelliptic: d = 0 on evens and every monomial of every odd image
    contains at least one even factor.
    """
    uni = model.universe
    evens_closed = all(model.d.of_generator(g.name).is_zero for g in uni.evens)
    pure = evens_closed
    hyper = evens_closed
    for g in uni.odds:
        img = model.d.of_generator(g.name)
        for m in img.terms:
            if m.odds:
                pure = False
            if sum(m.exps) == 0:
                hyper = False
    n = len(uni.evens)
    n_plus_r = len(uni.odds)
    return Classification(
        is_minimal=check_minimal(model),
        is_pure=pure and hyper,
        is_hyperelliptic=hyper,
        n=n,
        n_plus_r=n_plus_r,
        r=n_plus_r - n,
    )


def pure_part(model: Model) -> Model:
    """Replace each odd image by its zero-odd-factor component.

    Only defined for hyperelliptic models, whose even generators are
    closed; the result is pure.
    """
    if not classify(model).is_hyperelliptic:
        raise ModelError("pure part is defined for hyperelliptic models only")
    zero = Element.zero(model.universe)         # Derivation drops zeros
    images = {name: img.split_by_odd_count().get(0, zero)
              for name, img in model.d.images.items()}
    return Model(model.universe, images, name=model.name + ".pure" if model.name else "")


# -- model files -------------------------------------------------------------


def model_to_dict(model: Model) -> dict:
    return {
        "format": MODEL_FORMAT,
        "name": model.name,
        "generators": [{"name": g.name, "degree": g.degree}
                       for g in model.universe.generators],
        "differential": {name: format_element(img)
                         for name, img in sorted(model.d.images.items())},
    }


def _parse_model(doc: dict, source: str) -> Model:
    """Build a model from its file document; structure only, the
    differential is not checked; a degree-1 generator is refused."""
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelError(f"{source}: expected a {MODEL_FORMAT!r} document")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        raise ModelError(f"{source}: missing generator list")
    specs = []
    for entry in gens:
        try:
            degree = entry["degree"]
            if type(degree) is not int:     # no float, bool or string
                raise TypeError(f"degree {degree!r} is not an integer")
            specs.append((str(entry["name"]), degree))
        except (KeyError, TypeError) as exc:
            raise ModelError(f"{source}: bad generator entry {entry!r}") from exc
    try:
        uni = universe(specs)
    except EngineError as exc:
        raise ModelError(f"{source}: {exc}") from exc
    images = doc.get("differential") or {}
    if not isinstance(images, dict):
        raise ModelError(f"{source}: the differential must map generator names "
                         "to expressions")
    diff = {}
    for name, text in images.items():
        if name not in uni.by_name:
            raise ModelError(f"{source}: differential given for unknown generator {name!r}")
        diff[name] = parse_expression(str(text), uni)
    for g in uni.generators:
        if g.degree < 2:
            raise ModelError(f"{source}: generator {g.name} has degree "
                             f"{g.degree}; the model is not simply-connected")
    return Model(uni, diff, name=str(doc.get("name", "")))


def _validated(model: Model, source: str) -> Model:
    report = check_differential(model)
    if not report.passed:
        bad = ", ".join(e.name for e in report.failures())
        details = "; ".join(e.message for e in report.failures() if e.message)
        raise ModelError(f"{source}: differential fails validation on {bad}: {details}")
    return model


def model_from_dict(doc: dict, *, source: str = "<dict>") -> Model:
    return _validated(_parse_model(doc, source), source)


def read_model(path: str | Path) -> Model:
    """Read a model file without checking its differential, so that a
    validation report can name what fails; see :func:`load_model`."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ModelError(f"{path}: {exc}") from exc
    return _parse_model(doc, str(path))


def load_model(path: str | Path) -> Model:
    """Load and fully validate a model file (degree +1, homogeneous, d^2 = 0)."""
    return _validated(read_model(path), str(Path(path)))


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def tensor_with_odd_line(model: Model, name: str, degree: int) -> Model:
    """Extend by one odd generator with zero differential (degree may be 1)."""
    if degree % 2 != 1:
        raise ModelError("the appended generator must have odd degree")
    if name in model.universe.by_name:
        raise ModelError(f"generator name {name!r} already used")
    specs = [(g.name, g.degree) for g in model.universe.generators] + [(name, degree)]
    uni = universe(specs)
    images = {g: restrict_element(img, uni) for g, img in model.d.images.items()}
    return Model(uni, images, name=model.name)


def restrict_model(model: Model, dropped: set[str]) -> Model:
    """Quotient by the ideal of the dropped generators: keep the others and
    set the dropped ones to zero inside every differential image."""
    specs = [(g.name, g.degree) for g in model.universe.generators
             if g.name not in dropped]
    uni = universe(specs)
    images = {g: restrict_element(img, uni)       # Derivation drops zeros
              for g, img in model.d.images.items() if g not in dropped}
    return Model(uni, images, name=model.name)

