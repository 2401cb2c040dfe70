"""Print a fingerprint of the CLI's output over a fixed invocation matrix.

Run from the repository root:

    python3 scripts/cli_outputs.py [--seed S] > outputs.txt
    python3 scripts/cli_outputs.py --corpus-seeds A-B > corpus.txt

Each line is one invocation: the argv, the exit code, the sha256 of stdout,
and the sha256 of stderr with its ``# wall time`` line removed.  The matrix
is every corpus model under {validate, classify, cohomology, hilali, tor,
tor --cross-check, regseq, deform, reduce} in both formats, plus
``corpus corpus --seed 0`` with ``--jobs 1`` and ``--jobs 2`` in both
formats (256 invocations for the 14 bundled models).  With ``--seed S``,
every command that takes a seed (``tor``, ``tor --cross-check``, ``deform``,
``reduce`` and ``corpus``) runs at seed S; without it, those commands run at
their default seed and ``corpus`` at seed 0.  With ``--corpus-seeds A-B``,
the matrix is only ``corpus corpus --seed s --format machine`` for each s
from A to B inclusive.  Two trees give the same output exactly when their
lines are equal, so a byte check of a change is a ``diff`` of two runs.
Each invocation runs in a fresh process of ``python3 -m hilali.cli``
against this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (["validate"], ["classify"], ["cohomology"], ["hilali"], ["tor"],
            ["tor", "--cross-check"], ["regseq"], ["deform"], ["reduce"])
FORMATS = ("text", "machine")
SEEDED = ("tor", "deform", "reduce")


def invocations(seed: int | None = None) -> list[list[str]]:
    models = sorted(p.relative_to(ROOT).as_posix()
                    for p in (ROOT / "corpus").glob("*.model.json"))
    seeded = [] if seed is None else ["--seed", str(seed)]
    out = [[command[0], path, *command[1:],
            *(seeded if command[0] in SEEDED else []), "--format", fmt]
           for path in models for command in COMMANDS for fmt in FORMATS]
    out += [["corpus", "corpus", "--seed", str(seed or 0), "--jobs", jobs,
             "--format", fmt] for jobs in ("1", "2") for fmt in FORMATS]
    return out


def corpus_invocations(seeds: range) -> list[list[str]]:
    return [["corpus", "corpus", "--seed", str(s), "--format", "machine"]
            for s in seeds]


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        return range(int(first), int(last) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a seed range A-B, not {text!r}") from None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=None,
                       help="seed for every command that takes one")
    group.add_argument("--corpus-seeds", type=seed_range, metavar="A-B",
                       help="only the machine-format corpus run at each seed "
                            "from A to B")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (invocations(args.seed) if args.corpus_seeds is None
                 else corpus_invocations(args.corpus_seeds)):
        proc = subprocess.run([sys.executable, "-m", "hilali.cli", *argv],
                              capture_output=True, cwd=ROOT, env=env)
        stderr = b"".join(line for line in proc.stderr.splitlines(keepends=True)
                          if not line.startswith(b"# wall time:"))
        print(" ".join(argv), proc.returncode, sha256(proc.stdout),
              sha256(stderr), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
