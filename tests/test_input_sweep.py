"""A seeded mutation sweep of the input contract.

Corpus model files and manifests are mutated at a fixed seed: a bad or
missing degree or name, a duplicate generator, a broken expression, an
unknown key, a shifted degree, or a claim that is not a string.  Each
mutated model file runs through every model command and through ``hilali
corpus``, each mutated manifest through ``hilali corpus`` and ``hilali
explain CLAIM --corpus``, all in this process through ``main``.  A run may
succeed or fail with any documented exit code (0 ok, 1 a failed claim, 2 a
bad input, 3 a budget that ran out), but no exception may escape ``main``
and no traceback may reach stderr.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from hilali.cli import main

from conftest import CORPUS

CASES = 1000
SEED = 21
EXIT_CODES = {0, 1, 2, 3}
# every model command, each with only the flags it accepts
MODEL_CALLS = (["validate"], ["classify"], ["cohomology"],
               ["cohomology", "--assume-elliptic", "--max-degree", "8"],
               ["hilali"], ["tor", "--seed", "1"], ["regseq"],
               ["deform", "--seed", "1", "--samples", "2"],
               ["reduce", "--seed", "1"])
BAD_DEGREES = (0, -1, -3, "3", None, 2.5, True, [], {})
BAD_NAMES = ("", "2x", None, 7, "x y", " x", "x^2", "+", [])
BAD_EXPRESSIONS = ("", "x1^", "x1**2", "x1 +", "(x1", "q^2", "1/0", "x1^-1",
                   "x1^2.5", "3", None, 0, [], "x1*", "x1 x2", "x1^99999")
STEMS = sorted(p.name.replace(".model.json", "")
               for p in CORPUS.glob("*.model.json"))


def _document(stem, kind):
    return json.loads((CORPUS / f"{stem}.{kind}.json").read_text())


def _mutate_model(rng, doc):
    gens = doc.get("generators")
    gen = rng.choice(gens) if isinstance(gens, list) and gens else None
    images = doc.get("differential")
    choice = rng.randrange(9)
    if choice == 0 and gen is not None:
        gen["degree"] = rng.choice(BAD_DEGREES)
    elif choice == 1 and gen is not None:
        gen.pop(rng.choice(("degree", "name")), None)
    elif choice == 2 and gen is not None:
        gen["name"] = rng.choice(BAD_NAMES)
    elif choice == 3 and gen is not None:
        gens.append(copy.deepcopy(rng.choice(gens)))
    elif choice == 4 and isinstance(images, dict) and images:
        key = rng.choice(sorted(images))
        text = images[key]
        if isinstance(text, str) and text and rng.random() < 0.5:
            cut = rng.randrange(len(text) + 1)
            images[key] = text[:cut] + rng.choice("^*+-()/ 7") + text[cut:]
        else:
            images[key] = rng.choice(BAD_EXPRESSIONS)
    elif choice == 5:
        target = rng.choice([doc, gen if gen is not None else doc,
                             images if isinstance(images, dict) else doc])
        key = rng.choice(("extra", "degree2", "zz"))
        target[key] = rng.choice((1, "y1", None))
    elif choice == 6 and gen is not None and type(gen.get("degree")) is int:
        gen["degree"] += rng.choice((-2, -1, 1, 2))
    elif choice == 7:
        key = rng.choice(("format", "generators", "differential", "name"))
        doc.pop(key, None)
    else:
        key = rng.choice(("format", "generators", "differential"))
        doc[key] = rng.choice(("hilali-model/2", [], {}, None, 3, "x"))
    return doc


def _mutate_manifest(rng, doc):
    expectations = doc.get("expectations")
    exp = (rng.choice(expectations)
           if isinstance(expectations, list) and expectations else None)
    choice = rng.randrange(8)
    if choice == 0 and isinstance(exp, dict):
        exp["operation"] = rng.choice(("nope", "", None, 3, "apply", "corpus",
                                       "explain", "cross_check"))
    elif choice == 1 and isinstance(exp, dict):
        exp.pop(rng.choice(("operation", "check", "expect")), None)
    elif choice == 2 and isinstance(exp, dict):
        exp["params"] = rng.choice(({"element": "x1^"}, {"element": "q"},
                                    {"x": 1}, [], "y1", None,
                                    {"element": None}))
    elif choice == 3 and isinstance(exp, dict):
        exp["check"] = rng.choice(("nope", "", None, 3, "dims.99", []))
    elif choice == 4:
        doc["model"] = rng.choice(("missing.model.json", None, 3, "",
                                   "../corpus", "."))
    elif choice == 5:
        doc[rng.choice(("format", "expectations", "zz"))] = rng.choice(
            ("hilali-corpus/2", None, {}, [1], "x"))
    elif choice == 6 and isinstance(exp, dict):
        exp["claim"] = rng.choice((["verdict"], None, 3, {}, True))
    elif isinstance(expectations, list):
        expectations.append(rng.choice((None, 3, "x", [], {},
                                        {"operation": "validate"})))
    return doc


def _cases():
    rng = random.Random(SEED)
    for _ in range(CASES):
        stem = rng.choice(STEMS)
        kind = rng.choice(("model", "model", "manifest"))
        doc = _document(stem, kind)
        mutate = _mutate_model if kind == "model" else _mutate_manifest
        for _ in range(rng.choice((1, 1, 2))):
            doc = mutate(rng, doc)
        yield stem, kind, doc


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv} raised {exc!r}")
    return code, err.getvalue()


def test_mutated_inputs_exit_with_a_documented_code(tmp_path):
    seen = 0
    for stem, kind, doc in _cases():
        directory = tmp_path / f"case{seen}"
        directory.mkdir()
        other = "manifest" if kind == "model" else "model"
        for name, content in ((kind, doc), (other, _document(stem, other))):
            (directory / f"{stem}.{name}.json").write_text(json.dumps(content))
        model_path = str(directory / f"{stem}.model.json")
        calls = [[call[0], model_path, *call[1:]] for call in MODEL_CALLS
                 if kind == "model"]
        calls.append(["corpus", str(directory), "--seed", "1"])
        if kind == "manifest":
            calls.append(["explain", "verdict", "--corpus", str(directory)])
        for argv in calls:
            code, err = _call(argv)
            assert code in EXIT_CODES, (stem, kind, doc, argv, code)
            assert "Traceback" not in err, (stem, kind, doc, argv, err)
        seen += 1
    assert seen >= CASES
