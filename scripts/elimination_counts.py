"""Print deterministic work counts of one corpus run.

Run from the repository root:

    python3 scripts/elimination_counts.py [--seed S | --seed A-B]

It runs ``hilali corpus corpus --seed S`` (default seed 0, one job) in this
process against this checkout's ``src/``, once for each seed S of the range
A to B inclusive when one is given, with these wrappers in place:

- ``hilali.cohomology.ChainComplex.rows``, chain-complex assembly, with the
  rows it returns and their nonzero entries counted, and, where
  ``ChainComplex.rank`` asks for part of a basis, the rows its clearing
  step leaves out;
- ``hilali.cohomology._leibniz``, the Leibniz kernel as ``ChainComplex``
  calls it;
- ``hilali.linalg._eliminate``, one step of exact elimination, with the
  entries it touches counted as the length of the row plus the length of
  the pivot;
- ``hilali.koszul.koszul_differential_rows``, the Koszul differential of
  ``tor_table`` (in the corpus's ``tor`` and ``deform`` claims), with the
  rows it builds counted, and the rows its clearing step leaves out;
- ``intify``, in every ``hilali`` module that binds it;
- ``certify_elliptic``, in every ``hilali`` module that binds it, counting
  the certificates computed, not the calls: a certificate kept on a model
  comes back as the same object, so each distinct object returned is one
  certificate computed;
- ``check_differential``, in every ``hilali`` module that binds it,
  counting the validation reports computed the same way;
- ``quotient_basis``, in every ``hilali`` module that binds it: each call
  builds one quotient (certificates, odd-basis searches, fibers);
- ``hilali.koszul.Rref``, the span a quotient reduces against, with the
  rows added to it counted;
- ``hilali.koszul._normal_form``, one reduction of Buchberger's algorithm
  (a relation, an S-pair, or an element of the basis being made reduced);
- ``hilali.deformation.PerturbedModel.at_parameter``, one perturbed model
  (W, d_xi) of a ``reduce`` step;
- ``hilali.model.Derivation.__call__``, a derivation applied to an element.

It prints one line per seed: the seed, the corpus run's exit code,
``_leibniz`` calls, ``_eliminate`` calls, entries touched, the rows and
nonzero entries assembled, the rows cleared, then the Koszul rows built, the
Koszul rows cleared, the ``intify`` calls, the certificates computed, the
``quotient_basis`` calls, the rows added to quotient spans, the
``_normal_form`` calls, the perturbed models built, the derivation calls
and the validation reports computed.  The counts depend only on the code
and the seed, not on the machine, so two trees compare by ``diff``.  The
corpus report itself is discarded; its ``# wall time`` line still goes to
stderr.
Each seed's run loads the corpus afresh, so its line is the same in a range
as on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hilali import (cli, cohomology, deformation, koszul, linalg,  # noqa: E402
                    model)
from hilali.model import Derivation  # noqa: E402


def seed_range(text: str) -> range:
    """``S`` or ``A-B`` (inclusive) as a range of seeds."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=seed_range, default=range(1),
                        metavar="S | A-B")
    args = parser.parse_args()
    counts = {}
    leibniz, eliminate = cohomology._leibniz, linalg._eliminate
    rows = cohomology.ChainComplex.rows

    def counted_rows(cx, degree, monomials=None):
        out = rows(cx, degree, monomials)
        if monomials is not None:
            counts["cleared"] += len(cx.basis(degree)) - len(monomials)
        counts["rows"] += len(out)
        counts["nnz"] += sum(map(len, out))
        return out

    def counted_leibniz(tables, exps, odds):
        counts["leibniz"] += 1
        return leibniz(tables, exps, odds)

    def counted_eliminate(row, piv, col):
        counts["eliminate"] += 1
        counts["entries"] += len(row) + len(piv)
        return eliminate(row, piv, col)

    koszul_rows, intify = koszul.koszul_differential_rows, linalg.intify

    def counted_koszul_rows(s, k, *skip):
        out = koszul_rows(s, k, *skip)
        counts["koszul_rows"] += len(out)
        counts["koszul_cleared"] += sum(map(len, skip))
        return out

    def counted_intify(row):
        counts["intify"] += 1
        return intify(row)

    certify, certificates = cohomology.certify_elliptic, {}

    def counted_certify(model, max_probe=None):
        certificate = certify(model, max_probe=max_probe)
        certificates[id(certificate)] = certificate     # kept: ids stay unique
        return certificate

    check_differential, validations = model.check_differential, {}

    def counted_check_differential(m):
        report = check_differential(m)
        validations[id(report)] = report        # kept: ids stay unique
        return report

    quotient_basis = koszul.quotient_basis

    def counted_quotient_basis(*args, **kwargs):
        counts["quotients"] += 1
        return quotient_basis(*args, **kwargs)

    normal_form = koszul._normal_form

    def counted_normal_form(*args):
        counts["normal_forms"] += 1
        return normal_form(*args)

    at_parameter = deformation.PerturbedModel.at_parameter

    def counted_at_parameter(self, xi):
        counts["at_parameter"] += 1
        return at_parameter(self, xi)

    derivation_call = Derivation.__call__

    def counted_derivation_call(self, e):
        counts["derivation"] += 1
        return derivation_call(self, e)

    class StaircaseRref(koszul.Rref):
        def add(self, row):
            counts["staircase_rows"] += 1
            return super().add(row)

    cohomology._leibniz, linalg._eliminate = counted_leibniz, counted_eliminate
    koszul.Rref, koszul._normal_form = StaircaseRref, counted_normal_form
    cohomology.ChainComplex.rows = counted_rows
    koszul.koszul_differential_rows = counted_koszul_rows
    deformation.PerturbedModel.at_parameter = counted_at_parameter
    Derivation.__call__ = counted_derivation_call
    for module in (linalg, koszul, cohomology):
        if getattr(module, "intify", None) is intify:
            module.intify = counted_intify
    for module in (cohomology, deformation, cli):
        if getattr(module, "certify_elliptic", None) is certify:
            module.certify_elliptic = counted_certify
    for module in (koszul, cohomology, deformation):
        if getattr(module, "quotient_basis", None) is quotient_basis:
            module.quotient_basis = counted_quotient_basis
    for module in (model, cohomology, deformation, cli):
        if getattr(module, "check_differential", None) is check_differential:
            module.check_differential = counted_check_differential
    for seed in args.seed:
        counts.update(dict.fromkeys(
            ("leibniz", "eliminate", "entries", "rows", "nnz", "cleared",
             "koszul_rows", "koszul_cleared", "intify", "quotients",
             "staircase_rows", "normal_forms", "at_parameter",
             "derivation"), 0))
        certificates.clear()
        validations.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["corpus", str(ROOT / "corpus"), "--seed",
                             str(seed), "--jobs", "1"])
        print(f"seed {seed} exit {code} _leibniz_calls {counts['leibniz']} "
              f"_eliminate_calls {counts['eliminate']} "
              f"entries_touched {counts['entries']} "
              f"rows_assembled {counts['rows']} nnz_assembled {counts['nnz']} "
              f"rows_cleared {counts['cleared']} "
              f"koszul_rows {counts['koszul_rows']} "
              f"koszul_rows_cleared {counts['koszul_cleared']} "
              f"intify_calls {counts['intify']} "
              f"certify_elliptic_calls {len(certificates)} "
              f"quotient_basis_calls {counts['quotients']} "
              f"staircase_rows {counts['staircase_rows']} "
              f"normal_form_calls {counts['normal_forms']} "
              f"at_parameter_calls {counts['at_parameter']} "
              f"derivation_calls {counts['derivation']} "
              f"validations {len(validations)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
