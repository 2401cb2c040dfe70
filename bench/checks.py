"""Output gate: a run that gives a wrong answer fails, however fast it is.

* ``corpus``: exit 0 and every expectation of every frozen manifest met.
* ``verdicts`` and ``koszul``: for the seeds recorded in ``expected/``, each
  item's input model must equal the frozen one, and its machine output too
  (compared by digest, with the model path left out).  A changed input is
  reported as such: it means the generator changed, not the answer.  For
  every seed, the exit codes and the engine's own invariants must hold:
  ``holds`` and ``signs_ok`` for verdicts; Tor bounds, a perfect pairing,
  ``flat`` and passing semicontinuity for koszul.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def digest(outputs: list[tuple[int, str, str]]) -> str:
    """Digest of an item's exit codes and machine reports, without the
    model path, which names a temporary file."""
    docs = []
    for code, stdout, _ in outputs:
        doc = json.loads(stdout)
        doc.pop("target", None)
        docs.append([code, doc])
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def input_digest(invocations: list[list[str]]) -> str:
    """Digest of the model file an item reads."""
    data = Path(invocations[0][1]).read_bytes()
    return hashlib.sha256(data).hexdigest()[:16]


def load_frozen(workload: str, seed: int) -> dict[str, list[str]]:
    """``key: [input digest, output digest]`` for one seed, if recorded."""
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["seeds"].get(str(seed), {})


def _reports(outputs) -> list[dict]:
    return [json.loads(stdout)["results"] for _, stdout, _ in outputs]


def verdict_problems(outputs) -> list[str]:
    (code, _, err), = outputs
    if code != 0:
        return [f"exit {code}: {err.strip()}"]
    res, = _reports(outputs)
    problems = []
    if not (res["holds"] and res["signs_ok"]):
        problems.append(f"holds={res['holds']} signs_ok={res['signs_ok']}")
    if sum(res["dims"].values()) != res["dim_h"]:
        problems.append("dims do not sum to dim_h")
    return problems


def koszul_problems(outputs) -> list[str]:
    codes = [code for code, _, _ in outputs]
    if codes != [0, 0]:
        return [f"exit codes {codes}: " +
                " | ".join(err.strip() for _, _, err in outputs)]
    tor, deform = _reports(outputs)
    problems = []
    if not tor["bounds"]["passes"]:
        problems.append("Tor endpoint bounds fail")
    if not tor["duality"]["perfect"]:
        problems.append("duality pairing not perfect")
    if sum(tor["dims"].values()) != tor["total"]:
        problems.append("Tor dims do not sum to the total")
    if deform["flatness"]["verdict"] != "flat":
        problems.append(f"flatness {deform['flatness']['verdict']}")
    elif deform["flatness"]["common_length"] != tor["length"]:
        problems.append("fiber length differs from the quotient length")
    if not deform.get("semicontinuity", {}).get("passes"):
        problems.append("semicontinuity fails")
    return problems


def corpus_report(outputs) -> tuple[int, int, list[str]]:
    """(expectations verified, expectations failed, problems)."""
    (code, stdout, err), = outputs
    try:
        res = json.loads(stdout)["results"]
    except (json.JSONDecodeError, KeyError):
        return 0, 0, [f"exit {code}, no machine report: {err.strip()[-200:]}"]
    problems = [] if code == 0 else [f"exit {code}"]
    for entry in res["entries"]:
        for r in entry.get("results", []):
            if not r["ok"]:
                problems.append(f"{entry['manifest']}: {r['operation']}."
                                f"{r['check']} expected {r['expect']!r}, "
                                f"got {r['actual']!r}")
        if entry.get("error"):
            problems.append(f"{entry['manifest']}: {entry['error']}")
    return res["total"], res["failed"], problems


class Gate:
    """Checks every pass of one run and keeps the findings."""

    def __init__(self, workload: str, seed: int, corpus_expectations: int):
        self.workload = workload
        self.frozen = load_frozen(workload, seed)
        self.corpus_expectations = corpus_expectations
        self.corpus_failed = 0
        self.problems: list[str] = []

    def check(self, items, outputs) -> set[str]:
        """Keys of the items whose outputs are wrong."""
        failed = set()
        for (key, calls), out in zip(items, outputs):
            if self.workload == "corpus":
                total, bad, problems = corpus_report(out)
                if total != self.corpus_expectations:
                    problems.append(f"{total} expectations verified, "
                                    f"{self.corpus_expectations} expected")
                self.corpus_failed = max(
                    self.corpus_failed,
                    bad if total else self.corpus_expectations)
            else:
                find = verdict_problems if self.workload == "verdicts" \
                    else koszul_problems
                try:
                    problems = find(out)
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    problems = [f"unreadable report: {exc!r}"]
                frozen = self.frozen.get(key)
                if not problems and frozen is not None:
                    if input_digest(calls) != frozen[0]:
                        problems = ["input model differs from the frozen one "
                                    "(the generator changed)"]
                    elif digest(out) != frozen[1]:
                        problems = ["machine output differs from the frozen "
                                    "one"]
            if problems:
                failed.add(key)
                self.problems += [f"FAIL {key}: {p}" for p in problems]
        return failed

    def attempted(self, items) -> int:
        """Work units: verified expectations for corpus, models otherwise."""
        if self.workload == "corpus":
            return self.corpus_expectations
        return len(items)

    def failed_count(self, failed: set[str]) -> int:
        if self.workload == "corpus":
            return max(self.corpus_failed, 1) if failed else 0
        return len(failed)

    def report(self, failed: set[str]) -> list[str]:
        checked = "frozen outputs and invariants" if self.frozen \
            else "invariants (no frozen outputs for this seed)"
        lines = list(dict.fromkeys(self.problems))
        lines.append(f"# gate: {checked}; {len(failed)} item(s) failed")
        return lines
