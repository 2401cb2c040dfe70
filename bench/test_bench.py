"""Tests of the benchmark itself.

    python3 -m pytest bench

Run from the repository root.  They cover the tracer (every named span
fires, output under tracing is byte-identical, counts repeat exactly across
processes), the cold-cache discipline (no engine object reaches two timed
items, and no module- or class-level engine state grows in a timed pass),
the output gate, and the refusal to run outside a checkout.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Spans no CLI command reaches on the models a user can write, with why.
UNREACHABLE = {
    "linalg.kernel_of_rows": "only the functional duality pairing (filtered "
                             "quotients of a Halperin basis, which graded "
                             "models never give) and cocycle_basis call it",
}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def tiny_items(tmp_path: Path):
    """One model through every command the workloads use."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("n1r1-powers.manifest.json", "n1r1-powers.model.json"):
        shutil.copy(ROOT / "corpus" / name, corpus / name)
    model = str(corpus / "n1r1-powers.model.json")
    return [
        ("corpus", [["corpus", str(corpus), "--seed", "0",
                     "--format", "machine"]]),
        ("verdict", [["hilali", model, "--format", "machine"]]),
        ("koszul", [["tor", model, "--seed", "0", "--format", "machine"],
                    ["deform", model, "--seed", "0", "--format", "machine"]]),
    ]


def model_items(tmp_path: Path):
    """The items of short verdicts and koszul runs at seed 0."""
    out = []
    for workload in ("verdicts", "koszul"):
        directory = tmp_path / workload
        directory.mkdir()
        out += workloads.items(workload, 0, 1, directory)
    return out


def stdout_and_codes(outputs):
    return [[(code, stdout) for code, stdout, _ in item] for item in outputs]


def test_every_named_span_fires_and_traced_output_is_identical(tmp_path):
    import hilali.cohomology
    import hilali.linalg
    items = tiny_items(tmp_path)
    _, plain = run.timed_pass(items)
    original = hilali.linalg.rank_of_rows
    with tracing.Tracer() as tracer:
        # wrapped where it is defined and where it is imported by name
        assert hilali.linalg.rank_of_rows is not original
        assert hilali.cohomology.rank_of_rows is hilali.linalg.rank_of_rows
        _, traced = run.timed_pass(items, tracer)
    assert hilali.cohomology.rank_of_rows is original
    assert stdout_and_codes(traced) == stdout_and_codes(plain)
    assert all(code == 0 for item in plain for code, _, _ in item)
    silent = [name for name in tracing.NAMED_SPANS
              if tracer.calls[name] == 0 and name not in UNREACHABLE]
    assert not silent
    metrics = tracing.per_layer_metrics(tracer, 1.0, 1.0)
    assert metrics["koszul.quotient_basis.graded_calls"][0] > 0
    assert metrics["koszul.quotient_basis.filtered_calls"][0] > 0
    assert metrics["cli.load_model.calls"][0] > 0
    for name, (value, _) in metrics.items():
        assert value >= 0, name


def test_speed_clock_probes_without_changing_outputs(tmp_path):
    """Probes fire from the timer while items run, the engine's outputs
    stay byte-identical, and probe time is left out of an item's time."""
    items = model_items(tmp_path)
    _, plain = run.timed_pass(items)
    clock = speed.SpeedClock()
    clock.probe()
    with clock:
        spans, probed = run.timed_pass(items)
        time.sleep(3 * speed.INTERVAL_S)
    clock.probe()
    assert stdout_and_codes(probed) == stdout_and_codes(plain)
    assert len(clock.seconds) >= 5
    start, end = spans[0][0], spans[-1][1]
    inside = sum(s for t, s in zip(clock.starts, clock.seconds)
                 if start <= t < end)
    assert inside > 0
    engine = (end - start) - inside
    ref = speed.REFERENCE_PROBE_S
    assert (engine * ref / max(clock.seconds) <= clock.scaled(start, end)
            <= engine * ref / min(clock.seconds))


def test_speed_clock_scales_to_the_reference_speed():
    """Work between probes that took twice the reference time counts half
    its seconds; the probes' own time is not counted."""
    ref = speed.REFERENCE_PROBE_S
    clock = speed.SpeedClock()
    clock.starts = [0.0, 1.0, 2.0]
    clock.seconds = [2 * ref] * 3
    assert abs(clock.scaled(0.5, 2.5) - (1 - 2 * ref)) < 1e-12
    assert abs(clock.scaled(3.0, 4.0) - 0.5) < 1e-12


def traced_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in ("s", "s/s")}


@pytest.mark.parametrize("workload", ["verdicts", "koszul"])
def test_traced_counts_repeat_exactly(workload):
    first = traced_counts(workload, "1")
    second = traced_counts(workload, "2")
    assert first == second
    assert first["linalg.rank_of_rows.calls"] > 0


def test_no_engine_object_reaches_two_timed_items(tmp_path, monkeypatch):
    """Tag every cache-bearing engine object with the timed item that made
    it, and fail if any other item (or input filtering) uses it."""
    from hilali.algebra import GeneratorUniverse
    from hilali.deformation import ModuleFamily
    from hilali.model import Derivation
    current = [None]
    crossings = []

    def tag_on_init(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            self.bench_item = current[0]
        monkeypatch.setattr(cls, "__init__", init)

    def check_on_use(cls, name):
        original = getattr(cls, name)

        def method(self, *args, **kwargs):
            if self.bench_item != current[0]:
                crossings.append((cls.__name__, self.bench_item, current[0]))
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, method)

    for cls, name in ((GeneratorUniverse, "basis"),
                      (Derivation, "apply_monomial"),
                      (ModuleFamily, "fiber")):
        tag_on_init(cls)
        check_on_use(cls, name)

    counter = itertools.count()
    run_item = run.run_item

    def counted_item(invocations):
        current[0] = next(counter)
        try:
            return run_item(invocations)
        finally:
            current[0] = None
    monkeypatch.setattr(run, "run_item", counted_item)

    items = model_items(tmp_path) + tiny_items(tmp_path)
    for _ in range(2):
        run.timed_pass(items)
    assert next(counter) == 2 * len(items)
    assert not crossings

    # the check itself sees an object made outside the timed items
    from hilali.algebra import universe
    outside = universe([("x", 2)])
    current[0] = -1
    outside.basis(2)
    assert crossings


def container_sizes() -> dict[str, int]:
    """Sizes of every container and ``functools`` cache reachable from the
    namespace of a ``hilali`` module or of a class defined there."""
    sizes = {}
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("hilali") or module is None:
            continue
        owners = [(modname, vars(module))]
        owners += [(f"{modname}.{name}", vars(value))
                   for name, value in vars(module).items()
                   if isinstance(value, type) and value.__module__ == modname]
        for owner, namespace in owners:
            for name, value in list(namespace.items()):
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                if hasattr(value, "cache_info"):
                    sizes[f"{owner}.{name}"] = value.cache_info().currsize
                elif isinstance(value, (dict, list, set, bytearray)):
                    sizes[f"{owner}.{name}"] = len(value)
    return sizes


def test_no_state_outlives_a_timed_item(tmp_path, monkeypatch):
    """No module- or class-level container of the engine grows during a
    timed pass: a memo keyed by model content would let later passes, or
    later items, run warm where a fresh CLI process runs cold."""
    items = model_items(tmp_path) + tiny_items(tmp_path)
    import hilali.cli  # noqa: F401
    before = container_sizes()
    assert before, "no engine module was inspected"
    run.timed_pass(items)
    after = container_sizes()
    grown = {name: (before.get(name, 0), size) for name, size in after.items()
             if size > before.get(name, 0)}
    assert not grown

    # the check itself sees a memo that a pass fills
    import functools
    import hilali.model
    memo = functools.lru_cache(maxsize=None)(hilali.model.load_model)
    monkeypatch.setattr(hilali.model, "memo_load", memo, raising=False)
    before = container_sizes()
    memo(items[0][1][0][1])
    assert container_sizes()["hilali.model.memo_load"] == \
        before["hilali.model.memo_load"] + 1


def test_gate_fails_wrong_answers(tmp_path):
    items = tiny_items(tmp_path)
    _, outputs = run.timed_pass(items)
    verdict_key, verdict_out = items[1][0], outputs[1]
    koszul_key, koszul_out = items[2][0], outputs[2]

    def altered(output, change):
        code, stdout, err = output
        doc = json.loads(stdout)
        change(doc["results"])
        return code, json.dumps(doc), err

    gate = checks.Gate("verdicts", seed=10**6, corpus_expectations=0)
    good = [items[1]]
    assert not gate.check(good, [verdict_out])
    bad = [altered(verdict_out[0], lambda r: r.update(dim_h=r["dim_h"] + 1))]
    assert gate.check(good, [bad]) == {verdict_key}
    model_digest = checks.input_digest(items[1][1])
    gate.frozen = {verdict_key: [model_digest, checks.digest(verdict_out)]}
    assert not gate.check(good, [verdict_out])
    gate.frozen = {verdict_key: [model_digest, "0" * 16]}
    assert gate.check(good, [verdict_out]) == {verdict_key}
    assert gate.problems[-1].endswith("differs from the frozen one")
    gate.frozen = {verdict_key: ["0" * 16, checks.digest(verdict_out)]}
    assert gate.check(good, [verdict_out]) == {verdict_key}
    assert "input model differs" in gate.problems[-1]

    gate = checks.Gate("koszul", seed=10**6, corpus_expectations=0)
    good = [items[2]]
    assert not gate.check(good, [koszul_out])
    not_flat = [koszul_out[0], altered(
        koszul_out[1], lambda r: r["flatness"].update(verdict="not flat"))]
    assert gate.check(good, [not_flat]) == {koszul_key}

    expectations = workloads.corpus_expectation_count(str(tmp_path / "corpus"))
    gate = checks.Gate("corpus", seed=0, corpus_expectations=expectations)
    corpus = [(items[0][0], None)]
    assert not gate.check(corpus, [outputs[0]])

    def one_expectation_fails(results):
        results["failed"] = 1
        results["entries"][0]["results"][0]["ok"] = False
    _, stdout, err = altered(outputs[0][0], one_expectation_fails)
    assert gate.check(corpus, [[(1, stdout, err)]]) == {"corpus"}
    assert gate.failed_count({"corpus"}) == 1


def test_frozen_outputs_and_dense_oracle(tmp_path):
    """Seed 0 has frozen outputs; a short run checks a prefix of them, and
    the small verdicts agree with the independent dense oracle."""
    from dense_oracle import betti_dense
    from hilali.cohomology import formal_dimension_bound
    from hilali.model import model_from_dict
    for workload in ("verdicts", "koszul"):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        assert proc.returncode == 0, proc.stdout[-2000:]
        assert "# gate: frozen outputs and invariants; 0 item(s)" in proc.stdout
    directory = tmp_path / "verdicts"
    directory.mkdir()
    items = workloads.items("verdicts", 0, 1, directory)
    _, outputs = run.timed_pass(items)
    checked = 0
    for (key, [argv]), ((code, stdout, _),) in zip(items, outputs):
        doc = json.loads(Path(argv[1]).read_text())
        if workloads.chain_size(doc) >= 256:
            continue
        model = model_from_dict(doc)
        dims = json.loads(stdout)["results"]["dims"]
        oracle = betti_dense(model, max(formal_dimension_bound(model), 0))
        assert dims == {str(p): d for p, d in oracle.items()}, key
        checked += 1
    assert checked >= 5


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
