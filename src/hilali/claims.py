"""Registry of the verified claims: what each one states, which operation
tests it, and which bundled corpus entries exercise it.

Corpus manifests reference these identifiers in their ``claim`` fields, so
coverage can be recovered by scanning a corpus directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ModelError

CORPUS_FORMAT = "hilali-corpus/1"


@dataclass(frozen=True)
class Claim:
    ident: str
    statement: str
    operation: str
    command: str


_CLAIMS = [
    Claim("power-exactness",
          "In the bundled two-even-generator model, explicit odd potentials "
          "make twice a power of each even generator exact.",
          "Model.apply", "hilali validate / library test"),
    Claim("nonregular-pairs",
          "Over two even generators, a pair of differential images that "
          "share a branch is not a regular sequence, and the pair sub-model "
          "fails ellipticity.  In entangled-pairs-n2r1 every pair of the "
          "three images shares a linear factor, so no pair is regular; "
          "nonelliptic-pair is the mixed-powers pair (y2, y3), whose images "
          "both vanish on x2 = -x1^3.",
          "is_regular_sequence / certify_elliptic", "hilali regseq"),
    Claim("regular-basis-existence",
          "A pure elliptic model admits an odd-generator basis whose first n "
          "differential images form a regular sequence.",
          "halperin_basis", "hilali tor"),
    Claim("tor-isomorphism",
          "Total cohomology of a pure elliptic model equals the total Tor "
          "dimension of its quotient module, matching the lower grading to "
          "the homological index.",
          "tor_via_model_cross_check", "hilali tor --cross-check"),
    Claim("tor-endpoint-bounds",
          "The bottom and top Tor dimensions are each at least n+1.",
          "tor_bounds_check", "hilali tor"),
    Claim("socle-pairing",
          "A finite-length complete-intersection quotient carries a perfect "
          "multiplication pairing into its one-dimensional socle.",
          "duality_pairing", "hilali tor"),
    Claim("binomial-tor",
          "The Tor table of the one-point module over r parameters is the "
          "row of binomial coefficients binom(r, k).",
          "tor_table", "hilali tor"),
    Claim("quadratic-count",
          "For r = 0 the quotient length is at least 2n, by counting the "
          "surviving quadratic monomials.",
          "tor_bounds_check", "hilali tor"),
    Claim("flat-family-constant-length",
          "A one-parameter family of finite-length quotients is flat exactly "
          "when the fiber length is constant.",
          "flatness_check", "hilali deform"),
    Claim("tor-semicontinuity",
          "In a flat family, each Tor dimension of the special fiber "
          "dominates that of a generic fiber.",
          "tor_semicontinuity_check", "hilali deform"),
    Claim("generic-fiber-binomials",
          "For the family P_i + t x_i, a generic fiber splits into reduced "
          "points and its Tor table equals the binomial row.",
          "tor_semicontinuity_check", "hilali deform"),
    Claim("homology-semicontinuity",
          "Perturbing the differential can only drop the total cohomology "
          "dimension at a generic parameter.",
          "perturb_and_reduce", "hilali reduce"),
    Claim("ks-collapse",
          "At a nonzero parameter the adjoined pair (x, ybar) becomes "
          "contractible: the perturbed total cohomology equals that of the "
          "model with the pair removed.  For every xi != 0, ybar -> ybar/xi "
          "is a DGA isomorphism (W, d_1) -> (W, d_xi), so this holds exactly "
          "for every nonzero xi at once; the sampled xi are labels.  One "
          "perturbed complex per step is checked to square to zero, and "
          "the isomorphism carries it to every xi.",
          "perturb_and_reduce", "hilali reduce"),
    Claim("doubling",
          "Tensoring with a free odd line exactly doubles total cohomology: "
          "(W, d_0) is the current model tensored with Lambda(ybar), "
          "d(ybar) = 0, so by Kunneth b^W_p = b_p + b_(p - deg ybar).  "
          "dim H(W, d_0) is read as twice the current model's complete "
          "total, so the doubling holds by construction.",
          "perturb_and_reduce", "hilali reduce"),
    Claim("exp-r-lower-bound",
          "Iterating the cancellation over all n even generators yields "
          "2^n dim H >= 2^(n+r), hence dim H >= 2^r.",
          "perturb_and_reduce", "hilali reduce"),
    Claim("euler-signs",
          "For a certified-elliptic model, chi >= 0, chi_pi <= 0, and "
          "chi_pi < 0 exactly when chi = 0.",
          "euler_characteristics", "hilali cohomology"),
    Claim("branch-inequality",
          "The hyperelliptic verdict follows arithmetically when either "
          "1 + n + binom(n+1, 2) - (n+r) >= n + r/2 or 2^r >= 2n + r.",
          "hilali_verdict", "hilali hilali"),
    Claim("endgame-model",
          "In the all-quadrics model with three degree-2 generators, two "
          "explicit degree-8 cocycles exist, at most one bounds, and the "
          "total cohomology is at least 10 >= 9 = dim V.",
          "cocycle_basis / hilali_verdict", "hilali hilali"),
    Claim("verdict",
          "dim V <= dim H for every minimal certified-elliptic model.",
          "hilali_verdict", "hilali hilali"),
]

CLAIMS = {c.ident: c for c in _CLAIMS}


def read_manifest(path: str | Path) -> dict:
    """One corpus manifest, checked for its format, its model file name and
    its expectations; any fault raises :class:`ModelError`."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ModelError(str(exc)) from exc
    if not isinstance(doc, dict) or doc.get("format") != CORPUS_FORMAT:
        raise ModelError(f"expected format {CORPUS_FORMAT!r}")
    if not isinstance(doc.get("model"), str):
        raise ModelError("the manifest names no model file")
    expectations = doc.get("expectations", [])
    if not isinstance(expectations, list) or \
            not all(_well_formed(exp) for exp in expectations):
        raise ModelError("expectations must be a list of expectation objects")
    return doc


def _well_formed(exp) -> bool:
    return (isinstance(exp, dict)
            and all(isinstance(exp.get(key, ""), str)
                    for key in ("operation", "check", "claim"))
            and isinstance(exp.get("params") or {}, dict))


def corpus_coverage(corpus_dir: str | Path) -> dict[str, list[str]]:
    """Map claim identifier -> names of the models whose manifests
    reference it.  A malformed manifest raises :class:`ModelError` naming
    it."""
    coverage: dict[str, list[str]] = {}
    for path in sorted(Path(corpus_dir).glob("*.manifest.json")):
        try:
            doc = read_manifest(path)
        except ModelError as exc:
            raise ModelError(f"{path}: {exc}") from exc
        name = path.name.removesuffix(".manifest.json")
        for ident in dict.fromkeys(exp.get("claim")
                                   for exp in doc.get("expectations", [])):
            if ident:
                coverage.setdefault(ident, []).append(name)
    return coverage


def explain(ident: str, corpus_dir: str | Path | None = None) -> str:
    """Human-readable description of one claim; raises KeyError when the
    identifier is unknown."""
    claim = CLAIMS[ident]
    lines = [f"claim:     {claim.ident}",
             f"statement: {claim.statement}",
             f"operation: {claim.operation}",
             f"command:   {claim.command}"]
    if corpus_dir is not None:
        covered = corpus_coverage(corpus_dir).get(ident, [])
        if covered:
            lines.append("corpus:    " + ", ".join(covered))
        else:
            lines.append("corpus:    (no bundled entry references this claim)")
    return "\n".join(lines)
