"""Command-line interface: validation, classification, cohomology and Tor
reports, deformation checks, the dimension-inequality verdict, corpus
execution, and claim lookup.

Exit codes: 0 success (or verdict holds), 1 a verified claim failed, 2 input
error, 3 indeterminate (a probe or search budget ran out).  Reports go to
stdout and are byte-stable for a fixed seed; diagnostics and timing go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .algebra import format_element
from .claims import CLAIMS, explain, read_manifest
from .cohomology import (ChainComplex, certify_elliptic, cohomology_table,
                         euler_characteristics, hilali_verdict)
from .deformation import (flatness_check, perturb_and_reduce, standard_family,
                          tor_semicontinuity_check)
from .errors import (ContradictionError, EngineError, IndeterminateError,
                     ModelError)
from .koszul import (duality_pairing, halperin_basis, is_regular_sequence,
                     odd_images, tor_bounds_check, tor_table,
                     tor_via_model_cross_check)
from .model import (check_differential, check_minimal, classify, load_model,
                    pure_part, read_model)
from .parsing import parse_expression

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


def _verdict_branch(cls) -> tuple[str, bool, bool]:
    """Which arithmetic branch already certifies the inequality for a
    hyperelliptic model: the quadratic-count bound, the 2^r bound, or
    neither (full computation).  Exact integer comparisons throughout."""
    n, r = cls.n, cls.r
    quadratic_count = 2 * (1 + n + n * (n + 1) // 2 - (n + r)) >= 2 * n + r
    power_bound = 2 ** r >= 2 * n + r if r >= 0 else False
    if cls.is_hyperelliptic and r >= 0 and quadratic_count:
        return "quadratic-count", quadratic_count, power_bound
    if cls.is_hyperelliptic and r >= 0 and power_bound:
        return "power-bound", quadratic_count, power_bound
    return "full-computation", quadratic_count, power_bound


# -- report plumbing -----------------------------------------------------------


def _report(command: str, target: str, seed: int | None, results: dict) -> dict:
    doc = {"command": command, "target": target,
           "engine": {"name": "hilali", "version": __version__}}
    if seed is not None:
        doc["seed"] = seed
    doc["results"] = results
    return doc


def _emit(doc: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "machine":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


# -- model commands ---------------------------------------------------------------
#
# Each model command is a pair: ``_X_results(model, args)`` builds the dict
# that ``--format machine`` prints under "results", and ``_X_text(results)``
# turns that dict into the text report and the exit code.  The corpus runner
# checks manifests against the same results dicts.


def _certificate_fields(cert) -> dict:
    return {"elliptic": cert.elliptic,
            "formal_dimension_bound": cert.formal_dimension_bound,
            "length": cert.length, "socle_degree": cert.socle_degree}


def _validate_results(model, args) -> dict:
    report = check_differential(model)
    return {
        "passed": report.passed,
        "minimal": check_minimal(model) if report.passed else False,
        "entries": [asdict(e) for e in report.entries],
    }


def _validate_text(results: dict) -> tuple[list[str], int]:
    lines = []
    failed = []
    for e in results["entries"]:
        ok = e["degree_ok"] and e["square_ok"]
        if not ok:
            failed.append(e["name"])
        suffix = f"  [{e['message']}]" if e["message"] else ""
        lines.append(f"  {e['name']:>8}  {'ok' if ok else 'FAIL'}{suffix}")
    lines.append(f"differential: {'valid' if results['passed'] else 'INVALID'}")
    if not results["passed"]:
        _diag("validation failed on: " + ", ".join(failed))
        return lines, EXIT_INPUT
    lines.append(f"minimal: {'yes' if results['minimal'] else 'no'}")
    return lines, EXIT_OK


def _classify_results(model, args) -> dict:
    return asdict(classify(model))


def _classify_text(results: dict) -> tuple[list[str], int]:
    lines = [f"  minimal:        {results['is_minimal']}",
             f"  pure:           {results['is_pure']}",
             f"  hyperelliptic:  {results['is_hyperelliptic']}",
             f"  even gens (n):  {results['n']}",
             f"  odd gens (n+r): {results['n_plus_r']}",
             f"  r:              {results['r']}"]
    if results["r"] < 0:
        lines.append("  note: r < 0 is incompatible with an elliptic model")
    return lines, EXIT_OK


def _cohomology_results(model, args) -> dict:
    table, cert = cohomology_table(
        model, assume_elliptic=args.assume_elliptic,
        max_degree=args.max_degree, max_probe=args.max_probe)
    cx = ChainComplex(model)
    rows = []
    rank = 0    # rank d_(p-1): rank d_p = dim C^p - b_p - rank d_(p-1)
    for p in range(table.max_degree_computed + 1):
        dim = cx.chain_dim(p)
        rank = dim - table[p] - rank
        rows.append({"degree": p, "chain_dim": dim, "rank_d": rank,
                     "betti": table[p]})
    results = {
        "dims": {str(p): d for p, d in sorted(table.dims.items())},
        "total": table.total_dim,
        "max_degree": table.max_degree_computed,
        "complete": cert is not None,
        "rows": rows,
    }
    if cert is not None:
        chi, chi_pi = euler_characteristics(model, table)
        results["chi"] = chi
        results["chi_pi"] = chi_pi
        # true by construction: a certified table is read from its lower
        # half by Poincaré duality (see betti_complete)
        bound = table.max_degree_computed
        results["poincare_symmetric"] = all(
            table[p] == table[bound - p] for p in range(bound + 1))
        results["certificate"] = {**_certificate_fields(cert),
                                  "evidence": cert.evidence}
    return results


def _cohomology_text(results: dict) -> tuple[list[str], int]:
    lines = [f"{'degree':>6} {'chain':>7} {'rank d':>7} {'betti':>6}"]
    for row in results["rows"]:
        if row["chain_dim"] == 0 and row["betti"] == 0:
            continue
        lines.append(f"{row['degree']:>6} {row['chain_dim']:>7} "
                     f"{row['rank_d']:>7} {row['betti']:>6}")
    lines.append(f"total dim H = {results['total']}"
                 + ("" if results["complete"] else " (truncated, not certified)"))
    if "chi" in results:
        lines.append(f"chi = {results['chi']}, chi_pi = {results['chi_pi']}")
    if "certificate" in results:
        lines.append("certificate: " + results["certificate"]["evidence"])
    return lines, EXIT_OK


def _hilali_results(model, args) -> dict:
    verdict = hilali_verdict(model, assume_elliptic=args.assume_elliptic,
                             max_degree=args.max_degree,
                             max_probe=args.max_probe)
    branch, quadratic_count, power_bound = _verdict_branch(classify(model))
    return {
        "dim_v": verdict.dim_v,
        "dim_h": verdict.dim_h,
        "holds": verdict.holds,
        "chi": verdict.chi,
        "chi_pi": verdict.chi_pi,
        "signs_ok": verdict.signs_ok,
        "assumed_elliptic": verdict.assumed_elliptic,
        "branch": branch,
        "branch_tests": {"quadratic_count": quadratic_count,
                         "power_bound": power_bound},
        "dims": {str(p): d for p, d in sorted(verdict.table.dims.items())},
    }


def _hilali_text(results: dict) -> tuple[list[str], int]:
    holds, signs_ok = results["holds"], results["signs_ok"]
    lines = [f"dim V = {results['dim_v']}",
             f"dim H = {results['dim_h']}",
             f"chi = {results['chi']}, chi_pi = {results['chi_pi']} "
             f"(sign constraints {'ok' if signs_ok else 'VIOLATED'})",
             f"certifying branch: {results['branch']}",
             f"verdict: dim V <= dim H {'HOLDS' if holds else 'FAILS'}"]
    return lines, EXIT_OK if holds and signs_ok else EXIT_CLAIM_FAILED


def _tor_results(model, args) -> dict:
    basis = halperin_basis(model, seed=args.seed, budget=args.budget,
                           max_probe=args.max_probe)
    table = tor_table(basis.module, basis.structure)
    bounds = tor_bounds_check(basis.module, table)
    pairing = duality_pairing(basis.module, seed=args.seed)
    results = {
        "strategy": basis.strategy,
        "attempts": basis.attempts,
        "length": basis.module.length,
        "socle_degree": basis.module.socle_degree,
        "dims": {str(k): d for k, d in sorted(table.dims.items())},
        "total": table.total,
        "bounds": {"tor_bottom": bounds.tor_bottom, "tor_top": bounds.tor_top,
                   "n": bounds.n, "r": bounds.r, "passes": bounds.passes},
        "duality": {"perfect": pairing.perfect, "mode": pairing.mode,
                    "socle_dimension": pairing.socle_dimension},
    }
    if args.cross_check:
        check = tor_via_model_cross_check(model, basis, table)
        results["cross_check"] = {
            "passes": check.passes,
            "total_cohomology": check.total_cohomology,
            "total_tor": check.total_tor,
            "by_odd_count": [list(row) for row in check.by_odd_count],
        }
    return results


def _tor_text(results: dict) -> tuple[list[str], int]:
    duality = results["duality"]
    lines = [f"odd basis: {results['strategy']} (attempt {results['attempts']})",
             f"quotient length {results['length']}, socle degree "
             f"{results['socle_degree']}",
             "Tor dims: " + ", ".join(f"{k}: {d}" for k, d in
                                      results["dims"].items()),
             f"total Tor = {results['total']}",
             "endpoint bounds >= n+1: "
             f"{'ok' if results['bounds']['passes'] else 'FAIL'}",
             f"duality pairing: "
             f"{'perfect' if duality['perfect'] else 'NOT certified'} "
             f"({duality['mode']})"]
    if "cross_check" in results:
        check = results["cross_check"]
        lines.append(f"cross-check: total H = {check['total_cohomology']} = "
                     f"total Tor = {check['total_tor']} "
                     f"({'ok' if check['passes'] else 'FAIL'})")
    return lines, EXIT_OK


def _regseq_results(model, args) -> dict:
    n = len(model.universe.evens)
    if len(model.universe.odds) < n:
        raise ModelError("fewer odd generators than even ones; no candidate sequence")
    ring, images = odd_images(pure_part(model))
    regular = is_regular_sequence(ring, images[:n], max_probe=args.max_probe)
    return {"regular": regular, "relations": [str(i) for i in range(n)]}


def _regseq_text(results: dict) -> tuple[list[str], int]:
    n = len(results["relations"])
    return [f"first {n} pure-part images regular: {results['regular']}"], EXIT_OK


def _deform_results(model, args) -> dict:
    family, action_polys = standard_family(model, seed=args.seed)
    flat = flatness_check(family, samples=args.samples, seed=args.seed)
    results = {
        "flatness": {
            "verdict": flat.verdict,
            "common_length": flat.common_length,
            "lengths": [[str(xi), n] for xi, n in flat.lengths],
        }
    }
    if flat.flat:
        semi = tor_semicontinuity_check(family, action_polys,
                                        samples=args.samples, seed=args.seed)
        results["semicontinuity"] = {
            "passes": semi.passes,
            "base_dims": {str(k): d for k, d in sorted(semi.base_dims.items())},
            "samples": [{"xi": str(s.xi),
                         "dims": {str(k): d for k, d in sorted(s.dims.items())},
                         "binomial_pattern": s.binomial_pattern}
                        for s in semi.samples],
            "all_binomial": all(s.binomial_pattern for s in semi.samples),
        }
    return results


def _deform_text(results: dict) -> tuple[list[str], int]:
    flat = results["flatness"]
    lines = ["family: n relations perturbed by t * x_i",
             f"flatness: {flat['verdict']}"
             + (f" (length {flat['common_length']})"
                if flat["verdict"] == "flat" else "")]
    if "semicontinuity" in results:
        semi = results["semicontinuity"]
        lines.append("base Tor dims: " + ", ".join(
            f"{k}: {d}" for k, d in semi["base_dims"].items()))
        lines.append(f"semicontinuity over {len(semi['samples'])} samples: "
                     f"{'ok' if semi['passes'] else 'FAIL'}")
        lines.append(f"generic binomial pattern: "
                     f"{'yes' if semi['all_binomial'] else 'no'}")
    return lines, EXIT_OK


def _reduce_results(model, args) -> dict:
    report = perturb_and_reduce(model, samples=args.samples, seed=args.seed)
    return {
        "n": report.n,
        "r": report.r,
        "dim_h": report.dim_h,
        "terminal_dim": report.terminal_dim,
        "chain_ok": report.chain_ok,
        "lower_bound_ok": report.lower_bound_ok,
        "passes": report.passes,
        "steps": [{
            "cancelled": s.x_name,
            "ybar_degree": s.ybar_degree,
            "dim_current": s.dim_current,
            "dim_w_zero": s.dim_w_zero,
            "dim_next": s.dim_next,
            "doubling_ok": s.doubling_ok,
            "anticommutator": s.anticommutator,
            "samples": [{"xi": str(t.xi), "dim_w_xi": t.dim_w_xi,
                         "collapse_ok": t.collapse_ok,
                         "dominated": t.dominated} for t in s.samples],
        } for s in report.steps],
    }


def _reduce_text(results: dict) -> tuple[list[str], int]:
    n, r = results["n"], results["r"]
    lines = [f"dim H = {results['dim_h']}, n = {n}, r = {r}"]
    for s in results["steps"]:
        xis = ", ".join(t["xi"] for t in s["samples"])
        lines.append(f"  cancel {s['cancelled']}: "
                     f"2*{s['dim_current']} = {s['dim_w_zero']} >= dim H(W, d_xi) = "
                     f"{s['samples'][0]['dim_w_xi']} = dim H(next)  [xi: {xis}]")
    lines.append(f"terminal all-odd dimension: {results['terminal_dim']}")
    lines.append(f"chain: 2^{n} * {results['dim_h']} >= 2^{n + r}"
                 f" {'HOLDS' if results['chain_ok'] else 'FAILS'}")
    lines.append(f"lower bound: dim H >= 2^{r} "
                 f"{'HOLDS' if results['lower_bound_ok'] else 'FAILS'}")
    return lines, EXIT_OK if results["passes"] else EXIT_CLAIM_FAILED


_MODEL_COMMANDS = {
    "validate": (_validate_results, _validate_text),
    "classify": (_classify_results, _classify_text),
    "cohomology": (_cohomology_results, _cohomology_text),
    "hilali": (_hilali_results, _hilali_text),
    "tor": (_tor_results, _tor_text),
    "regseq": (_regseq_results, _regseq_text),
    "deform": (_deform_results, _deform_text),
    "reduce": (_reduce_results, _reduce_text),
}


def _cmd_model(args) -> int:
    results_of, text_of = _MODEL_COMMANDS[args.command]
    # validate reports a failing differential that load_model would refuse
    model = (read_model if args.command == "validate" else load_model)(args.model)
    results = results_of(model, args)
    lines, code = text_of(results)
    _emit(_report(args.command, args.model, getattr(args, "seed", None), results),
          [f"model: {model.name or args.model}"] + lines, args.format)
    return code


def _cmd_explain(args) -> int:
    ident = args.claim
    if ident not in CLAIMS:
        available = ", ".join(sorted(CLAIMS))
        _diag(f"unknown claim {ident!r}; available: {available}")
        return EXIT_INPUT
    if args.corpus and not Path(args.corpus).is_dir():
        _diag(f"{Path(args.corpus)} is not a directory")
        return EXIT_INPUT
    corpus_dir = args.corpus if args.corpus else _default_corpus_dir()
    text = explain(ident, corpus_dir)
    results = {"claim": ident, "text": text}
    _emit(_report("explain", ident, None, results), [text], args.format)
    return EXIT_OK


def _default_corpus_dir() -> str | None:
    candidate = Path.cwd() / "corpus"
    return str(candidate) if candidate.is_dir() else None


# -- corpus runner ---------------------------------------------------------------


# Manifest operations answered by a model command: the command and the key
# under its results where the check path starts.  An operation not listed
# is the model command of its name, checked from the top of its results.
_OPERATIONS = {
    "hilali_verdict": ("hilali", None),
    "tor_bounds": ("tor", "bounds"),
    "duality": ("tor", "duality"),
    "cross_check": ("tor", "cross_check"),
    "flatness": ("deform", "flatness"),
    "semicontinuity": ("deform", "semicontinuity"),
}


def run_manifest(path: str, seed: int) -> dict:
    """Execute one manifest: every expectation, compared exactly with the
    results its command prints under ``--format machine`` (command defaults,
    the corpus seed).  The model is loaded once and each command runs at
    most once; ``tor`` runs with ``--cross-check`` exactly when an
    expectation checks the cross-check.  Certificates and odd bases come
    from ``model.d.memo``."""
    manifest_path = Path(path)
    name = manifest_path.stem
    try:
        doc = read_manifest(manifest_path)
        expectations = doc.get("expectations", [])
        model_path = manifest_path.parent / doc["model"]
        model = load_model(model_path)
    except (OSError, ValueError, EngineError) as exc:
        return {"manifest": name, "error": str(exc), "results": []}
    cross_check = any(exp.get("operation") == "cross_check"
                      for exp in expectations)
    cache: dict = {}

    def command_results(command: str) -> dict:
        if command not in cache:
            args = _PARSER.parse_args([command, str(model_path)])
            if hasattr(args, "seed"):
                args.seed = seed
            if hasattr(args, "cross_check"):
                args.cross_check = cross_check
            cache[command] = _MODEL_COMMANDS[command][0](model, args)
        return cache[command]

    def operation_results(op: str, params: dict | None) -> dict:
        if op == "apply":
            element = (params or {}).get("element", "0")
            image = model.apply(parse_expression(str(element), model.universe))
            return {"image": format_element(image)}
        if params:
            raise ModelError(f"operation {op!r} takes no params")
        if op == "certify_elliptic":
            return _certificate_fields(certify_elliptic(model))
        command, key = _OPERATIONS.get(op, (op, None))
        if command not in _MODEL_COMMANDS:
            raise ModelError(f"unknown operation {op!r}")
        results = command_results(command)
        if op == "reduce":
            # the summary flags are read from the steps
            steps = results["steps"]
            samples = [t for s in steps for t in s["samples"]]
            return {**results,
                    "all_collapse_ok": all(t["collapse_ok"] for t in samples),
                    "all_dominated": all(t["dominated"] for t in samples),
                    "all_doubling_ok": all(s["doubling_ok"] for s in steps)}
        return results.get(key, {}) if key else results

    results = []
    for exp in expectations:
        op = exp.get("operation", "")
        check = exp.get("check", "")
        expect = exp.get("expect")
        claim = exp.get("claim", "")
        try:
            actual = _lookup(operation_results(op, exp.get("params")), op, check)
            ok = actual == expect
        except EngineError as exc:
            actual = f"error: {exc}"
            ok = False
        results.append({"operation": op, "check": check, "claim": claim,
                        "expect": expect, "actual": actual, "ok": ok})
    return {"manifest": name, "model": doc["model"], "results": results}


def _lookup(value, op: str, check: str):
    """The value at a dotted check path."""
    for key in check.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ModelError(f"unknown check {check!r} for operation {op!r}")
        value = value[key]
    return value


def _cmd_corpus(args) -> int:
    if args.jobs < 1:
        raise ModelError(f"jobs must be at least 1, not {args.jobs}")
    directory = Path(args.directory)
    if not directory.is_dir():
        _diag(f"{directory} is not a directory")
        return EXIT_INPUT
    manifests = sorted(directory.glob("*.manifest.json"))
    if not manifests:
        _diag("warning: 0 expectations (no manifests found)")
        _emit(_report("corpus", str(directory), args.seed,
                      {"entries": [], "total": 0, "failed": 0}),
              ["0 expectations"], args.format)
        return EXIT_OK
    jobs = min(args.jobs, len(manifests))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(run_manifest, [str(p) for p in manifests],
                                    [args.seed] * len(manifests)))
    else:
        entries = [run_manifest(str(p), args.seed) for p in manifests]
    total = 0
    failed = 0
    lines = []
    claims_seen = set()
    for entry in entries:
        if entry.get("error"):
            failed += 1
            lines.append(f"{entry['manifest']}: ERROR {entry['error']}")
            continue
        for res in entry["results"]:
            total += 1
            if res["claim"]:
                claims_seen.add(res["claim"])
            if res["ok"]:
                lines.append(f"ok   {entry['manifest']}: {res['operation']}."
                             f"{res['check']} = {res['expect']}")
            else:
                failed += 1
                lines.append(f"FAIL {entry['manifest']}: {res['operation']}."
                             f"{res['check']} expected {res['expect']!r}, got "
                             f"{res['actual']!r}  [claim: {res['claim'] or '-'}]")
    lines.append(f"expectations: {total}, failed: {failed}")
    if total == 0:
        _diag("warning: 0 expectations")
    lines.append("claims exercised: " +
                 (", ".join(sorted(claims_seen)) if claims_seen else "(none)"))
    results = {"entries": entries, "total": total, "failed": failed,
               "claims": sorted(claims_seen)}
    _emit(_report("corpus", str(directory), args.seed, results), lines, args.format)
    return EXIT_OK if failed == 0 else EXIT_CLAIM_FAILED


# -- entry point ------------------------------------------------------------------


def _diag(message: str) -> None:
    sys.stderr.write(message + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilali",
        description="Exact computations with rational differential graded "
                    "models: cohomology, Tor tables, deformations, verdicts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, seed=False, samples=False, probe=False):
        if model:
            p.add_argument("model", help="model file (hilali-model/1 JSON)")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if samples:
            p.add_argument("--samples", type=int, default=5)
        if probe:
            p.add_argument("--max-probe", type=int, default=None,
                           help="truncation ceiling for quotient probes")
        return p

    common(sub.add_parser("validate", help="check the differential"))
    common(sub.add_parser("classify", help="minimal / pure / hyperelliptic flags"))
    p = common(sub.add_parser("cohomology", help="Betti table report"), probe=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--assume-elliptic", action="store_true")
    p = common(sub.add_parser("hilali", help="dimension-inequality verdict"),
               probe=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--assume-elliptic", action="store_true")
    p = common(sub.add_parser("tor", help="Tor table via the quotient module"),
               seed=True, probe=True)
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--cross-check", action="store_true")
    common(sub.add_parser("regseq", help="regular-sequence test"), probe=True)
    common(sub.add_parser("deform", help="flatness and Tor semicontinuity"),
           seed=True, samples=True)
    p = common(sub.add_parser("reduce", help="perturb and cancel even generators"),
               seed=True)
    p.add_argument("--samples", type=int, default=2)
    p = common(sub.add_parser("corpus", help="run a corpus directory"),
               model=False, seed=True)
    p.add_argument("directory")
    p.add_argument("--jobs", type=int, default=1)
    p = common(sub.add_parser("explain", help="describe a verified claim"),
               model=False)
    p.add_argument("claim")
    p.add_argument("--corpus", default=None)
    return parser


# built once per process, at import; parsing leaves it unchanged
_PARSER = build_parser()
_HANDLERS = {**{command: _cmd_model for command in _MODEL_COMMANDS},
             "corpus": _cmd_corpus, "explain": _cmd_explain}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    handler = _HANDLERS[args.command]
    start = time.monotonic()
    try:
        code = handler(args)
    except IndeterminateError as exc:
        _diag(f"indeterminate: {exc}")
        code = EXIT_INDETERMINATE
    except ContradictionError as exc:
        _diag(f"CONTRADICTION: {exc}")
        code = EXIT_CLAIM_FAILED
    except (EngineError, OSError) as exc:
        _diag(f"error: {exc}")
        code = EXIT_INPUT
    _diag(f"# wall time: {time.monotonic() - start:.3f}s")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
