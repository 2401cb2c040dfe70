"""Freeze the machine outputs of the ``verdicts`` and ``koszul`` workloads.

    python3 bench/record_expected.py [--workload NAME] [SEED ...]

Run from the repository root, at the commit whose outputs are to be frozen.
For each workload (default both) and seed (default 0 to 19) it generates
the items of a run of the reference length, runs each once, checks the
engine's invariants, checks every verdict with a small chain complex
against the independent dense oracle in ``tests/dense_oracle.py``, and
replaces ``bench/expected/<workload>.json`` with the digests of the inputs
and outputs.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), "src", "tests"]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# The dense oracle eliminates full matrices of fractions; beyond this chain
# size it takes minutes per model.
ORACLE_MAX_SIZE = 512


def oracle_mismatches(items, outputs) -> list[str]:
    """Keys of verdicts whose Betti table differs from the dense oracle's."""
    from dense_oracle import betti_dense
    from hilali.cohomology import formal_dimension_bound
    from hilali.model import load_model
    bad = []
    for (key, [argv]), [(_, stdout, _)] in zip(items, outputs):
        doc = json.loads(Path(argv[1]).read_text())
        if workloads.chain_size(doc) >= ORACLE_MAX_SIZE:
            continue
        model = load_model(argv[1])
        oracle = betti_dense(model, max(formal_dimension_bound(model), 0))
        if json.loads(stdout)["results"]["dims"] != \
                {str(p): d for p, d in oracle.items()}:
            bad.append(key)
    return bad


def main(names: list[str], seeds: list[int]) -> int:
    seconds = workloads.REFERENCE_SECONDS
    frozen = {name: {} for name in names}
    for seed in seeds:
        for name in frozen:
            gate = checks.Gate(name, seed, 0)
            gate.frozen = {}
            directory = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
            try:
                items = workloads.items(name, seed, seconds, directory)
                _, outputs = run.timed_pass(items)
                failed = gate.check(items, outputs)
                if name == "verdicts" and not failed:
                    failed = set(oracle_mismatches(items, outputs))
                digests = {key: [checks.input_digest(calls),
                                 checks.digest(out)]
                           for (key, calls), out in zip(items, outputs)}
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            if failed:
                print("\n".join(gate.problems), file=sys.stderr)
                print(f"seed {seed} {name}: failed {sorted(failed)}",
                      file=sys.stderr)
                return 1
            frozen[name][str(seed)] = digests
            print(f"seed {seed} {name}: {len(items)} items", flush=True)
    checks.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, by_seed in frozen.items():
        path = checks.EXPECTED_DIR / f"{name}.json"
        text = json.dumps({"workload": name, "seconds": seconds,
                           "seeds": by_seed}, indent=1)
        # one line per item: [input digest, output digest]
        text = re.sub(r'\[\s+("\w+"),\s+("\w+")\s+\]', r"[\1, \2]", text)
        path.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=("verdicts", "koszul"))
    parser.add_argument("seeds", nargs="*", type=int)
    args = parser.parse_args()
    run.WORK_DIR.mkdir(exist_ok=True)
    raise SystemExit(main(args.workload or ["verdicts", "koszul"],
                          args.seeds or list(range(20))))
