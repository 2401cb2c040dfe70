"""Benchmark of the hilali engine through its public CLI entry point.

    python3 bench/run.py --workload {corpus,verdicts,koszul} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root.  It drives ``hilali.cli.main`` in this
process: one closed-loop caller, no threads, no worker processes.  Inputs
come from ``--seed``; the work of a run is sized to take about ``--seconds``
on the machine recorded in ``bench/design.json`` and is fixed by
``(workload, seed, seconds)``, so two runs at one seed do identical work.

Every output is checked (see ``checks.py``); a wrong answer makes the run
fail however fast it was.  With ``--trace 0`` the run reports the end-to-end
metrics, its times scaled to a fixed reference speed of the host by a probe
that runs between stretches of engine work (see ``speed.py``; the times as
measured are printed on a ``#`` line); with ``--trace 1`` it runs the same
items once untraced and once under the span tracer and reports the
per-layer metrics, as measured.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

WORK_DIR = Path(".bench_work")
# Interpreter starts per run, spread evenly over the passes.
SETUP_SAMPLES = 12
# Passes over the same items.  An item's latency is the median of its
# passes, which lie seconds apart: the machine's speed drifts in bursts of
# about that length, and a median ignores a burst either way.  (On the
# machine in design.json, over six repeated runs of one verdicts seed, the
# median of 4 passes spread 0.05 between quartiles in p50 and tail latency,
# the fastest of 4 passes 0.09 and 0.14.)  Verdict items take milliseconds;
# a koszul item takes a third of a second, and one corpus pass is already a
# whole run.
PASSES = {"corpus": 1, "verdicts": 4, "koszul": 1}
# The tail latency is the highest percentile with at least this many
# samples above it.
TAIL_BEYOND = 10


def run_item(invocations: list[list[str]]) -> list[tuple[int, str, str]]:
    """Run the CLI invocations of one item; the model files are parsed
    inside, so the item shares no engine object with any other.  An
    exception that escapes the CLI is recorded as exit code -1, which the
    gate counts as a failed item."""
    import hilali.cli
    outputs = []
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = hilali.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def timed_pass(items, tracer=None) -> tuple[list[tuple[float, float]], list]:
    """Run every item once; returns each item's ``perf_counter`` readings
    at start and end, and its outputs.  Garbage from one item is collected
    before the next starts, outside the clock."""
    spans, outputs = [], []
    for _, invocations in items:
        gc.collect()
        if tracer is not None:
            tracer.start_item()
        start = time.perf_counter()
        result = run_item(invocations)
        spans.append((start, time.perf_counter()))
        outputs.append(result)
    return spans, outputs


def make_items(workload: str, seed: int, seconds: int, directory: Path):
    """Write the inputs of a run and return its items.  The models are
    generated in a child process: the filtering that chooses them runs the
    engine, and it leaves nothing in this process, neither a cached object
    nor a memory high-water mark."""
    subprocess.run([sys.executable, str(Path(__file__).with_name(
        "workloads.py")), workload, str(seed), str(seconds), str(directory)],
        check=True)
    import workloads
    return workloads.read_items(directory)


def setup_samples(count: int, clock=None) -> list[tuple[float, float]]:
    """``perf_counter`` readings around fresh interpreters that import the
    CLI, each between two probes of ``clock`` when one is given.  Input
    generation is not part of set-up."""
    cmd = [sys.executable, "-c", "import hilali.cli"]
    env = dict(os.environ, PYTHONPATH="src")
    spans = []
    for _ in range(count):
        if clock is not None:
            clock.probe()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, env=env)
        spans.append((start, time.perf_counter()))
        if clock is not None:
            clock.probe()
    return spans


def tail_index(n: int) -> int:
    """Index into ascending samples of the highest percentile with
    ``TAIL_BEYOND`` samples above it (the maximum for small samples)."""
    return max(n - 1 - TAIL_BEYOND, 0) if n > TAIL_BEYOND else n - 1


def end_to_end(workload: str, items, gate):
    """Untraced passes; end-to-end metrics and the keys of failed items.
    Times are scaled to the reference speed of ``speed.py``."""
    passes = PASSES[workload]
    clock = speed.SpeedClock()
    setup, per_pass, failed = [], [], set()
    # one untimed start first, so that every sample finds bytecode caches
    setup_samples(1)
    for _ in range(passes):
        setup += setup_samples(SETUP_SAMPLES // passes, clock)
        with clock:
            spans, outputs = timed_pass(items)
        clock.probe()
        failed |= gate.check(items, outputs)
        per_pass.append(spans)
    latency = sorted(statistics.median(clock.scaled(*span) for span in spans)
                     for spans in zip(*per_pass))
    raw = sorted(statistics.median(end - start for start, end in spans)
                 for spans in zip(*per_pass))
    n = len(latency)
    total = sum(latency)
    units = gate.attempted(items)
    print(f"# {workload}: {n} items x {passes} passes; {units} units in "
          f"{total:.3f} s at reference speed (median pass per item); tail = "
          f"sample {tail_index(n) + 1} of {n}, {n - 1 - tail_index(n)} above "
          f"it; set-up median of {len(setup)}")
    print(f"# as measured: {sum(raw):.3f} s, p50 "
          f"{statistics.median(raw) * 1e3:.4g} ms, tail "
          f"{raw[tail_index(n)] * 1e3:.4g} ms, set-up "
          f"{statistics.median(end - start for start, end in setup):.4g} s; "
          f"{len(clock.seconds)} probes, median "
          f"{statistics.median(clock.seconds) * 1e3:.4g} ms (reference "
          f"{speed.REFERENCE_PROBE_S * 1e3:.4g} ms)")
    # this process imports the engine and runs the timed items; inputs
    # were generated by a child process
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "items_per_s": (units / total, "1/s"),
        "item_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "item_tail_ms": (latency[tail_index(n)] * 1e3, "ms"),
        "setup_s": (statistics.median(clock.scaled(*span) for span in setup),
                    "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "verdicts", "koszul"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (Path("src/hilali/cli.py").is_file() and Path("corpus").is_dir()):
        print("error: run from the repository root; src/hilali/ and corpus/ "
              "are required", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import checks
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                      dir=WORK_DIR))
    try:
        items = make_items(args.workload, args.seed, args.seconds,
                           directory)
        gate = checks.Gate(args.workload, args.seed,
                           workloads.corpus_expectation_count())
        if args.trace:
            metrics, failed = traced(items, gate)
        else:
            metrics, failed = end_to_end(args.workload, items, gate)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for line in gate.report(failed):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    attempted = gate.attempted(items)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": gate.failed_count(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def traced(items, gate):
    """One untraced and one traced pass over the same items; per-layer
    metrics and the keys of failed items.  Traced output must be
    byte-identical to untraced output."""
    import tracer as tracing
    spans, outputs = timed_pass(items)
    failed = gate.check(items, outputs)
    with tracing.Tracer() as tracer:
        traced_spans, traced_outputs = timed_pass(items, tracer)
    failed |= gate.check(items, traced_outputs)
    for (key, _), plain, under_trace in zip(items, outputs, traced_outputs):
        if [o[:2] for o in plain] != [o[:2] for o in under_trace]:
            gate.problems.append(f"FAIL {key}: traced output differs")
            failed.add(key)
    for line in tracer.span_lines():
        print(line, file=sys.stderr)
    return tracing.per_layer_metrics(tracer, busy(traced_spans),
                                     busy(spans)), failed


def busy(spans) -> float:
    return sum(end - start for start, end in spans)


if __name__ == "__main__":
    raise SystemExit(main())
