"""Print a fingerprint of the CLI's output over a fixed invocation matrix.

Run from the repository root:

    python3 scripts/cli_outputs.py [--seed S] > outputs.txt
    python3 scripts/cli_outputs.py --corpus-seeds A-B > corpus.txt
    python3 scripts/cli_outputs.py --koszul-seeds A-B > koszul.txt
    python3 scripts/cli_outputs.py --verdict-seeds A-B > verdicts.txt

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
from A to B inclusive, run in this process, through ``hilali.cli.main``,
from the repository root, one seed after another.  Two trees give the same
output exactly when their lines are equal, so a byte check of a change is a
``diff`` of two runs.  Every other invocation of the fixed matrix runs in a
fresh process of ``python3 -m hilali.cli`` against this checkout's
``src/``.

With ``--koszul-seeds A-B``, the matrix is the ``koszul`` benchmark
workload at each seed s from A to B: ``bench/workloads.py`` (read, not
changed) writes the seed's pure models into a temporary directory, and each
model gets ``tor`` and ``deform`` at seed s in machine format, as the
benchmark runs them.  A line names the model by its file name.  These
invocations run in this process, through ``hilali.cli.main``, from the
temporary directory, one seed after another; an exception that escapes
the CLI prints exit code -1.

With ``--verdict-seeds A-B``, the matrix is the ``verdicts`` benchmark
workload at each seed s from A to B, read the same way: each model gets
``hilali`` in machine format, as the benchmark runs it, and then
``cohomology`` in machine format, which prints the whole Betti table with
its ranks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

COMMANDS = (["validate"], ["classify"], ["cohomology"], ["hilali"], ["tor"],
            ["tor", "--cross-check"], ["regseq"], ["deform"], ["reduce"])
FORMATS = ("text", "machine")
SEEDED = ("tor", "deform", "reduce")
# The CLI calls each benchmark model gets, from the calls of its item.
WORKLOAD_CALLS = {
    "koszul": lambda calls: calls,
    "verdicts": lambda calls: calls + [["cohomology", *calls[0][1:]]],
}


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


def fingerprint(argv: list[str], code: int, stdout: bytes,
                stderr: bytes) -> str:
    stderr = b"".join(text for text in stderr.splitlines(keepends=True)
                      if not text.startswith(b"# wall time:"))
    return " ".join([*argv, str(code), sha256(stdout), sha256(stderr)])


def in_process(argv: list[str]) -> str:
    """The line of one call of ``hilali.cli.main`` in this process, from the
    current directory; an exception that escapes the CLI prints exit code
    -1."""
    from hilali import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
    return fingerprint(argv, code, out.getvalue().encode(),
                       err.getvalue().encode())


def workload_lines(workload: str, seeds: range):
    """One line per CLI call of ``WORKLOAD_CALLS[workload]`` on the models
    of that benchmark workload at each seed, keyed by model file name."""
    here = os.getcwd()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as directory:
            subprocess.run([sys.executable, str(ROOT / "bench" / "workloads.py"),
                            workload, str(seed), "20", directory],
                           cwd=ROOT, check=True)
            items = json.loads(Path(directory, "items.json").read_text())
            os.chdir(directory)
            try:
                for _, invocations in items:
                    for argv in WORKLOAD_CALLS[workload](invocations):
                        yield in_process([
                            Path(a).name if a.startswith(directory) else a
                            for a in argv])
            finally:
                os.chdir(here)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=None,
                       help="seed for every command that takes one")
    group.add_argument("--corpus-seeds", type=seed_range, metavar="A-B",
                       help="only the machine-format corpus run at each seed "
                            "from A to B")
    group.add_argument("--koszul-seeds", type=seed_range, metavar="A-B",
                       help="only tor and deform on the koszul benchmark "
                            "models of each seed from A to B")
    group.add_argument("--verdict-seeds", type=seed_range, metavar="A-B",
                       help="only hilali and cohomology on the verdicts "
                            "benchmark models of each seed from A to B")
    args = parser.parse_args()
    for workload, seeds in (("koszul", args.koszul_seeds),
                            ("verdicts", args.verdict_seeds)):
        if seeds is not None:
            for text in workload_lines(workload, seeds):
                print(text, flush=True)
            return 0
    if args.corpus_seeds is not None:
        os.chdir(ROOT)
        for argv in corpus_invocations(args.corpus_seeds):
            print(in_process(argv), flush=True)
        return 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in invocations(args.seed):
        proc = subprocess.run([sys.executable, "-m", "hilali.cli", *argv],
                              capture_output=True, cwd=ROOT, env=env)
        print(fingerprint(argv, proc.returncode, proc.stdout, proc.stderr),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
