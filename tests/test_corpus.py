"""The bundled corpus must be green, complete, and claim-covered."""

import json

import pytest

from hilali.claims import CLAIMS, corpus_coverage
from hilali.cli import main, run_manifest

from conftest import CORPUS


def test_every_model_has_a_manifest():
    models = {p.name.replace(".model.json", "") for p in CORPUS.glob("*.model.json")}
    manifests = {p.name.replace(".manifest.json", "")
                 for p in CORPUS.glob("*.manifest.json")}
    assert models == manifests
    assert len(models) >= 10


def test_manifest_schema():
    for path in sorted(CORPUS.glob("*.manifest.json")):
        doc = json.loads(path.read_text())
        assert doc["format"] == "hilali-corpus/1"
        assert (CORPUS / doc["model"]).exists()
        for exp in doc["expectations"]:
            assert exp["source"] in ("claimed", "derived", "elementary")
            assert "operation" in exp and "check" in exp and "expect" in exp
            if "claim" in exp:
                assert exp["claim"] in CLAIMS


def test_full_corpus_green():
    for path in sorted(CORPUS.glob("*.manifest.json")):
        result = run_manifest(str(path), 0)
        assert not result.get("error"), result
        bad = [r for r in result["results"] if not r["ok"]]
        assert not bad, (path.name, bad)


def test_claim_coverage_is_broad():
    coverage = corpus_coverage(CORPUS)
    covered = set(coverage)
    # every deformation/Tor/verdict claim is exercised by at least one entry
    expected = {"verdict", "tor-isomorphism", "tor-endpoint-bounds",
                "socle-pairing", "flat-family-constant-length",
                "tor-semicontinuity", "exp-r-lower-bound", "doubling",
                "euler-signs", "nonregular-pairs", "regular-basis-existence",
                "generic-fiber-binomials", "endgame-model"}
    assert expected <= covered


SWEEP_SEEDS = range(60)
# ROADMAP item 5: at these seeds of 0-399 the first regular random odd basis
# of entangled-pairs-n2r1 gave fibers with a second point where the action
# vanishes, breaking the binomial Tor pattern; the odd-basis search now
# rejects such draws
DEGENERATE_DRAW_SEEDS = (14, 69, 81, 144, 154, 155, 164, 178, 186, 256, 287,
                         288, 353, 360, 392)


def _semicontinuity_models():
    """(name, expected all_binomial) of each pure corpus model whose manifest
    checks Tor semicontinuity."""
    out = []
    for path in sorted(CORPUS.glob("*.manifest.json")):
        checks = {(e["operation"], e["check"]): e["expect"]
                  for e in json.loads(path.read_text())["expectations"]}
        if checks.get(("classify", "is_pure")) and \
                ("semicontinuity", "all_binomial") in checks:
            out.append((path.name.replace(".manifest.json", ""),
                        checks[("semicontinuity", "all_binomial")]))
    return out


def _sweep_cases():
    for name, binomial in _semicontinuity_models():
        yield pytest.param(name, binomial, list(SWEEP_SEEDS), id=name)
    yield pytest.param("entangled-pairs-n2r1", True, DEGENERATE_DRAW_SEEDS,
                       id="entangled-pairs-n2r1-degenerate-draw-seeds")


def test_seed_sweep_covers_every_semicontinuity_model():
    assert len(_semicontinuity_models()) == 11


def _machine_results(capsys, *argv):
    code = main([*argv, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0, (argv, out)
    return json.loads(out)["results"]


@pytest.mark.parametrize("name, binomial, seeds", list(_sweep_cases()))
def test_seed_sweep_of_tor_and_deform(capsys, name, binomial, seeds):
    # Seed-dependent claims must hold at every seed, not only the corpus's.
    model = str(CORPUS / f"{name}.model.json")
    for seed in seeds:
        tor = _machine_results(capsys, "tor", model, "--cross-check",
                               "--seed", str(seed))
        assert tor["cross_check"]["passes"], (name, seed)
        deform = _machine_results(capsys, "deform", model, "--seed", str(seed))
        assert deform["flatness"]["verdict"] == "flat", (name, seed)
        semi = deform["semicontinuity"]
        assert semi["passes"], (name, seed)
        assert semi["all_binomial"] == binomial, (name, seed)
