"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each engine module, and a few
public methods that carry a layer's work, from outside the engine: no file
under ``src/`` knows about it.  Modules bind names with ``from .linalg import
rank_of_rows``, so a function is replaced in every ``hilali`` namespace that
binds it, not only in the module that defines it.

Spans are aggregated in memory while the traced pass runs and read out at
the end.  A span's self time is its duration minus the time covered by its
child spans; calls are single-threaded and nested, so the covered time is
the sum of the children's durations.  Counters (rows, nnz, lengths, ...) are
taken at the same boundaries from arguments and results.  The time spent
taking them is charged to the tracer, not to the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# The engine modules that are layers; ``claims`` and ``errors`` do no
# measurable work and are not wrapped.
LAYERS = ("cli", "parsing", "model", "algebra", "cohomology", "linalg",
          "koszul", "deformation")

# Public methods that carry a layer's work, with the span name each gets.
METHOD_SPANS = {
    ("algebra", "GeneratorUniverse", "basis"): "algebra.basis",
    ("cohomology", "ChainComplex", "rows"): "cohomology.assembly",
    ("cohomology", "ChainComplex", "rank"): "cohomology.rank",
    ("linalg", "Rref", "add"): "linalg.rref_add",
    ("linalg", "Rref", "reduce"): "linalg.rref_reduce",
    ("koszul", "QuotientModule", "reduce"): "koszul.reduce",
    ("koszul", "QuotientModule", "multiplication_matrix"):
        "koszul.multiplication_matrix",
    ("deformation", "ModuleFamily", "fiber"): "deformation.fiber",
    ("deformation", "PerturbedModel", "at_parameter"):
        "deformation.at_parameter",
}

# Spans whose individual durations are kept, not only their sums.
KEEP_DURATIONS = {"cli.run_manifest"}

# ``algebra.basis(uni, degree)`` only forwards to ``GeneratorUniverse.basis``,
# which is the span of that name.
SKIPPED_FUNCTIONS = {("algebra", "basis")}


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.parent_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.assembled: set = set()
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """A transparent wrapper recording one span per call.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        passed on; ``after(tracer, args, kwargs, result, state)`` runs after
        a call that returned.  Both are timed as tracer overhead.
        """
        stack = self._stack
        clock = time.perf_counter_ns
        durations = self.durations[name] if name in KEEP_DURATIONS else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0]
            parent = stack[-1] if stack else None
            state = None
            if before is not None:
                hook_start = clock()
                state = before(args, kwargs)
                if parent is not None:
                    parent[1] += clock() - hook_start
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    self.parent_calls[(parent[0], name)] += 1
                if durations is not None:
                    durations.append(duration)
            if after is not None:
                hook_start = clock()
                after(self, args, kwargs, result, state)
                if parent is not None:
                    parent[1] += clock() - hook_start
            return result

        return span

    def span_lines(self) -> list[str]:
        """One JSON line per span name and per counter, largest self time
        first."""
        names = sorted(self.calls, key=lambda n: -self.self_ns[n])
        lines = [json.dumps({"span": n, "calls": self.calls[n],
                             "total_s": self.total_ns[n] / 1e9,
                             "self_s": self.self_ns[n] / 1e9}) for n in names]
        lines += [json.dumps({"counter": k, "value": v})
                  for k, v in sorted(self.counts.items())]
        return lines

    def start_item(self) -> None:
        """Forget per-command state; called before each timed item."""
        self.assembled.clear()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and method in the loaded engine."""
        modules = {layer: importlib.import_module(f"hilali.{layer}")
                   for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or \
                        (layer, attr) in SKIPPED_FUNCTIONS:
                    continue
                name = f"{layer}.{attr}"
                before, after = HOOKS.get(name, (None, None))
                replacements[id(fn)] = self.wrap(name, fn, before, after)
        for (layer, cls_name, meth), name in METHOD_SPANS.items():
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            before, after = HOOKS.get(name, (None, None))
            self._set(cls, meth, self.wrap(name, fn, before, after))
        echelon = modules["linalg"].Echelon
        self._set(echelon, "add", self._pivot_bits(echelon.add))
        quotient_module = modules["koszul"].QuotientModule
        self._set(quotient_module, "__init__",
                  self._counter("koszul.quotient_basis.candidates",
                                quotient_module.__init__))
        namespaces = [sys.modules["hilali"]] + [
            mod for key, mod in sys.modules.items()
            if key.startswith("hilali.") and mod is not None]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _pivot_bits(self, fn):
        """``Echelon.add`` that records the largest coefficient, in bits, of
        the pivot rows ``rank_of_rows`` stores: the coefficients after
        elimination, where they grow."""
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        key = "linalg.rank_of_rows.max_bits"

        @functools.wraps(fn)
        def add(echelon, row):
            col = fn(echelon, row)
            if col is not None and stack and \
                    stack[-1][0] == "linalg.rank_of_rows":
                start = clock()
                bits = max(abs(v).bit_length()
                           for v in echelon.pivots[col].values())
                if bits > counts[key]:
                    counts[key] = bits
                stack[-1][1] += clock() - start
            return col
        return add

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- counters taken at span boundaries -----------------------------------------


def _after_basis(tracer, args, kwargs, result, state):
    tracer.counts["algebra.basis.monomials"] += len(result)


def _after_assembly(tracer, args, kwargs, result, state):
    # args: (chain_complex, degree).  A repeat is a second assembly of the
    # same differential in the same degree within one command.
    cx, degree = args[0], args[1]
    model = cx.model
    key = (model.universe, degree, frozenset(
        (name, frozenset(img.terms.items()))
        for name, img in model.d.images.items()))
    if key in tracer.assembled:
        tracer.counts["cohomology.assembly.repeats"] += 1
    tracer.assembled.add(key)
    tracer.counts["cohomology.assembly.rows"] += len(result)
    tracer.counts["cohomology.assembly.nnz"] += sum(len(r) for r in result)


def _after_rank_of_rows(tracer, args, kwargs, result, state):
    rows = args[0] if args else kwargs["rows"]
    counts = tracer.counts
    counts["linalg.rank_of_rows.rows"] += len(rows)
    counts["linalg.rank_of_rows.nnz"] += sum(len(r) for r in rows)
    counts["linalg.rank_of_rows.rank"] += result


def _after_quotient_basis(tracer, args, kwargs, result, state):
    kind = "graded_calls" if result.graded else "filtered_calls"
    tracer.counts[f"koszul.quotient_basis.{kind}"] += 1
    tracer.counts["koszul.quotient_basis.length"] += result.length


def _after_tor_table(tracer, args, kwargs, result, state):
    module, s = args[0], args[1]
    tracer.counts["koszul.tor_table.chain_dim"] += \
        module.length * 2 ** s.parameter_count


def _after_halperin_basis(tracer, args, kwargs, result, state):
    tracer.counts["koszul.halperin_basis.attempts"] += result.attempts


def _after_perturb_and_reduce(tracer, args, kwargs, result, state):
    counts = tracer.counts
    counts["deformation.perturb_and_reduce.steps"] += len(result.steps)
    counts["deformation.perturb_and_reduce.samples_taken"] += sum(
        len(step.samples) for step in result.steps)


def _before_fiber(args, kwargs):
    family, xi = args[0], args[1]
    return Fraction(xi) in family.fiber_cache


def _after_fiber(tracer, args, kwargs, result, state):
    if state:
        tracer.counts["deformation.fiber.hits"] += 1


HOOKS = {
    "algebra.basis": (None, _after_basis),
    "cohomology.assembly": (None, _after_assembly),
    "linalg.rank_of_rows": (None, _after_rank_of_rows),
    "koszul.quotient_basis": (None, _after_quotient_basis),
    "koszul.tor_table": (None, _after_tor_table),
    "koszul.halperin_basis": (None, _after_halperin_basis),
    "deformation.perturb_and_reduce": (None, _after_perturb_and_reduce),
    "deformation.fiber": (_before_fiber, _after_fiber),
}


# -- read-out ------------------------------------------------------------------


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Spans the per-layer metrics read: self time and calls, self time only,
# or calls only.
SPANS_S_AND_CALLS = (
    "parsing.parse_expression", "model.check_differential", "algebra.basis",
    "cohomology.assembly", "cohomology.certify_elliptic", "cohomology.betti",
    "linalg.intify", "linalg.rank_of_rows", "linalg.rref_add",
    "linalg.rref_reduce", "koszul.quotient_basis", "koszul.reduce",
    "koszul.halperin_basis", "deformation.fiber")
SPANS_S = (
    "cohomology.rank", "cohomology.betti_by_odd_count", "linalg.kernel_of_rows",
    "koszul.multiplication_matrix", "koszul.tor_table", "koszul.duality_pairing",
    "deformation.perturb_and_reduce", "deformation.flatness_check",
    "deformation.tor_semicontinuity_check")
SPANS_CALLS = ("model.classify", "model.pure_part")
NAMED_SPANS = SPANS_S_AND_CALLS + SPANS_S + SPANS_CALLS + (
    "cli.run_manifest", "model.load_model", "deformation.at_parameter")
COUNTERS = (
    "algebra.basis.monomials", "cohomology.assembly.rows",
    "cohomology.assembly.nnz", "linalg.rank_of_rows.rows",
    "linalg.rank_of_rows.nnz", "linalg.rank_of_rows.rank",
    "koszul.quotient_basis.graded_calls", "koszul.quotient_basis.filtered_calls",
    "koszul.quotient_basis.length", "koszul.tor_table.chain_dim",
    "deformation.perturb_and_reduce.steps")


def per_layer_metrics(tracer: Tracer, traced_s: float,
                      untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name: (value, unit)``.
    Time shares have unit ``s/s``; every other non-time metric is an exact
    count or a ratio of exact counts."""
    calls, counts = tracer.calls, tracer.counts

    def self_s(name):
        return tracer.self_ns.get(name, 0) / 1e9

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"layer.{layer}.s"] = (sum(
            ns for name, ns in tracer.self_ns.items()
            if name.startswith(layer + ".")) / 1e9, "s")
    manifests = tracer.durations.get("cli.run_manifest", [])
    out["cli.run_manifest.max_share"] = (
        _ratio(max(manifests, default=0), sum(manifests)), "s/s")
    out["cli.load_model.calls"] = (sum(
        n for (parent, child), n in tracer.parent_calls.items()
        if child == "model.load_model" and parent.startswith("cli.")), "count")
    for name in SPANS_S_AND_CALLS:
        out[f"{name}.s"] = (self_s(name), "s")
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SPANS_S:
        out[f"{name}.s"] = (self_s(name), "s")
    for name in SPANS_CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for key in COUNTERS:
        out[key] = (counts.get(key, 0), "count")
    out["linalg.rank_of_rows.max_bits"] = (
        counts.get("linalg.rank_of_rows.max_bits", 0), "bits")
    out["cohomology.assembly.repeat_frac"] = (_ratio(
        counts.get("cohomology.assembly.repeats", 0),
        calls.get("cohomology.assembly", 0)), "ratio")
    out["koszul.quotient_basis.candidates_per_call"] = (_ratio(
        counts.get("koszul.quotient_basis.candidates", 0),
        calls.get("koszul.quotient_basis", 0)), "ratio")
    out["koszul.halperin_basis.useful_frac"] = (_ratio(
        calls.get("koszul.halperin_basis", 0),
        counts.get("koszul.halperin_basis.attempts", 0)), "ratio")
    out["deformation.perturb_and_reduce.samples_useful_frac"] = (_ratio(
        counts.get("deformation.perturb_and_reduce.samples_taken", 0),
        calls.get("deformation.at_parameter", 0)), "ratio")
    out["deformation.fiber.hit_frac"] = (_ratio(
        counts.get("deformation.fiber.hits", 0),
        calls.get("deformation.fiber", 0)), "ratio")
    out["trace.overhead_frac"] = (_ratio(traced_s, untraced_s) - 1, "s/s")
    return out
