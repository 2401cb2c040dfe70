"""Print a fingerprint of the CLI's output over a fixed invocation matrix.

Run from the repository root:

    python3 scripts/cli_outputs.py > outputs.txt

Each line is one invocation: the argv, the exit code, the sha256 of stdout,
and the sha256 of stderr with its ``# wall time`` line removed.  The matrix
is every corpus model under {validate, classify, cohomology, hilali, tor,
tor --cross-check, regseq, deform, reduce} in both formats, plus
``corpus corpus --seed 0`` with ``--jobs 1`` and ``--jobs 2`` in both
formats (256 invocations for the 14 bundled models).  Two trees give the
same output exactly when their lines are equal, so a byte check of a change
is a ``diff`` of two runs.  Each invocation runs in a fresh process of
``python3 -m hilali.cli`` against this checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (["validate"], ["classify"], ["cohomology"], ["hilali"], ["tor"],
            ["tor", "--cross-check"], ["regseq"], ["deform"], ["reduce"])
FORMATS = ("text", "machine")


def invocations() -> list[list[str]]:
    models = sorted(p.relative_to(ROOT).as_posix()
                    for p in (ROOT / "corpus").glob("*.model.json"))
    out = [[command[0], path, *command[1:], "--format", fmt]
           for path in models for command in COMMANDS for fmt in FORMATS]
    out += [["corpus", "corpus", "--seed", "0", "--jobs", jobs, "--format", fmt]
            for jobs in ("1", "2") for fmt in FORMATS]
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in invocations():
        proc = subprocess.run([sys.executable, "-m", "hilali.cli", *argv],
                              capture_output=True, cwd=ROOT, env=env)
        stderr = b"".join(line for line in proc.stderr.splitlines(keepends=True)
                          if not line.startswith(b"# wall time:"))
        print(" ".join(argv), proc.returncode, sha256(proc.stdout),
              sha256(stderr), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
