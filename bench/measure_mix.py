"""Measure the natural size mix of the ``verdicts`` model generator.

    python3 bench/measure_mix.py [SEEDS] [MODELS_PER_SEED]

Run from the repository root.  It draws the first MODELS_PER_SEED accepted
models (small enough, minimal, certified elliptic) at each of the seeds
1000 .. 1000 + SEEDS - 1, which no run uses by default, and prints each
size class's share of them as the ``VERDICT_CLASS_SHARES`` literal of
``workloads.py``.  Defaults: 100 seeds, 40 models each.
"""

from __future__ import annotations

import collections
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), "src"]

import workloads  # noqa: E402


def main(seeds: int, per_seed: int) -> None:
    counts: collections.Counter = collections.Counter()
    for seed in range(1000, 1000 + seeds):
        stream = workloads.accepted_models(seed)
        for _ in range(per_seed):
            size, _ = next(stream)
            counts[workloads.size_class(size)] += 1
    total = sum(counts.values())
    print(f"# {total} accepted models from {seeds} seeds")
    print("VERDICT_CLASS_SHARES = {" + ", ".join(
        f"{cls}: {counts[cls] / total:.4f}" for cls in sorted(counts)) + "}")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    main(*(args + [100, 40][len(args):]))
