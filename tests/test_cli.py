"""Command-line behavior: reports, exit codes, determinism."""

import json

import pytest

from hilali.cli import main, run_manifest

from conftest import CORPUS, REPO


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model(name):
    return str(CORPUS / f"{name}.model.json")


def test_validate_good(capsys):
    code, out, err = run(capsys, "validate", model("n1r1-powers"))
    assert code == 0
    assert "valid" in out


def test_validate_bad_square_exit_2(tmp_path, capsys):
    doc = {"format": "hilali-model/1", "name": "bad-d-squared",
           "generators": [{"name": "x", "degree": 4},
                          {"name": "y2", "degree": 3},
                          {"name": "y1", "degree": 2}],
           "differential": {"y1": "y2", "y2": "x"}}
    path = tmp_path / "bad.model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "y1" in out          # the failing generator is named
    assert "y1" in err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", model("hyper-nonpure-n3r4"))
    assert code == 0
    assert "hyperelliptic:  True" in out
    assert "pure:           False" in out


def test_cohomology_machine_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "cohomology", model("pure-n2r1-diag"),
                         "--format", "machine")
    code2, out2, _ = run(capsys, "cohomology", model("pure-n2r1-diag"),
                         "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["results"]["total"] == 6
    assert doc["results"]["complete"] is True
    assert doc["results"]["chi"] == 0


def test_cohomology_rank_rows_are_the_direct_ranks(tmp_path, capsys):
    """``rank_d`` is derived from the table, which a certified model reads
    from its lower half; the derived ranks equal the ranks of d eliminated
    directly, in every degree through N."""
    from hilali import save_model
    from hilali.cohomology import ChainComplex
    from modelgen import certified_models
    path = str(tmp_path / "m.model.json")
    for name, m in certified_models():
        save_model(m, path)
        code, out, _ = run(capsys, "cohomology", path, "--format", "machine")
        results = json.loads(out)["results"]
        direct = ChainComplex(m)
        assert code == 0 and results["poincare_symmetric"], name
        assert [row["rank_d"] for row in results["rows"]] == \
            [direct.rank(p) for p in range(results["max_degree"] + 1)], name


def test_cohomology_needs_certificate_or_flag(tmp_path, capsys):
    code, out, err = run(capsys, "cohomology", model("nonelliptic-pair"))
    assert code == 2
    code, out, err = run(capsys, "cohomology", model("nonelliptic-pair"),
                         "--assume-elliptic", "--max-degree", "12")
    assert code == 0
    assert "truncated" in out


@pytest.mark.parametrize("command", ["cohomology", "hilali"])
def test_max_degree_needs_assume_elliptic(capsys, command):
    code, out, err = run(capsys, command, model("n1r1-powers"),
                         "--max-degree", "2")
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] \
        == ["error: max_degree truncates only under assume_elliptic"]
    assert "Traceback" not in err


def test_hilali_verdict_holds(capsys):
    code, out, _ = run(capsys, "hilali", model("pairwise-nonregular-n2r1"))
    assert code == 0
    assert "HOLDS" in out


def test_hilali_branch_report(capsys):
    code, out, _ = run(capsys, "hilali", model("all-quadrics-n3r3"),
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["branch"] in ("quadratic-count", "power-bound",
                                        "full-computation")
    assert doc["results"]["holds"] is True


def test_hilali_rejects_nonelliptic(capsys):
    code, out, err = run(capsys, "hilali", model("nonelliptic-even-only"))
    assert code == 2


def test_tor_table_output(capsys):
    code, out, _ = run(capsys, "tor", model("n1r1-powers"), "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["dims"] == {"0": 2, "1": 2}
    assert doc["results"]["total"] == 4
    assert doc["results"]["duality"]["perfect"] is True


def test_tor_cross_check(capsys):
    code, out, _ = run(capsys, "tor", model("sphere-s3"), "--cross-check")
    assert code == 0
    assert "cross-check" in out and "ok" in out


def test_tor_budget_exhaustion_exit_3(capsys):
    code, out, err = run(capsys, "tor", model("n1r1-powers"), "--max-probe", "1")
    assert code == 3
    assert "indeterminate" in err


def test_regseq(capsys):
    code, out, _ = run(capsys, "regseq", model("nonelliptic-pair"))
    assert code == 0
    assert "False" in out
    code, out, _ = run(capsys, "regseq", model("squarefree-n2"))
    assert "True" in out


def test_deform_report(capsys):
    code, out, _ = run(capsys, "deform", model("n1r1-powers"), "--samples", "3",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["flatness"]["verdict"] == "flat"
    assert doc["results"]["semicontinuity"]["passes"] is True


def test_reduce_report(capsys):
    code, out, _ = run(capsys, "reduce", model("squarefree-n2"),
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["passes"] is True
    assert doc["results"]["terminal_dim"] == 4


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_reduce_needs_one_sample(capsys, samples):
    for fmt in ("text", "machine"):
        code, out, err = run(capsys, "reduce", model("squarefree-n2"),
                             "--samples", samples, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == \
            "error: reduction sampling needs at least one parameter"
        assert "Traceback" not in err


@pytest.mark.parametrize("command, name, option", [
    ("cohomology", "sphere-s3", "--max-probe"),
    ("hilali", "sphere-s3", "--max-probe"),
    ("tor", "n1r1-powers", "--max-probe"),
    ("regseq", "n1r1-powers", "--max-probe"),
    ("tor", "n1r1-powers", "--budget"),
])
def test_negative_probe_or_budget_exit_2(capsys, command, name, option):
    message = f"error: {option[2:].replace('-', '_')} must be at least 0, not -1"
    for fmt in ("text", "machine"):
        code, out, err = run(capsys, command, model(name), option, "-1",
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == message
        assert "Traceback" not in err


def test_explain_known(capsys):
    code, out, _ = run(capsys, "explain", "tor-isomorphism",
                       "--corpus", str(CORPUS))
    assert code == 0
    assert "tor_via_model_cross_check" in out
    assert "n1r1-powers" in out


def test_explain_names_corpus_models(capsys):
    code, out, _ = run(capsys, "explain", "nonregular-pairs",
                       "--corpus", str(CORPUS))
    assert code == 0
    assert "corpus:    entangled-pairs-n2r1, nonelliptic-pair\n" in out


def test_explain_unknown_lists_available(capsys):
    code, out, err = run(capsys, "explain", "no-such-claim")
    assert code == 2
    assert "tor-isomorphism" in err


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_explain_with_a_missing_corpus_exits_2(tmp_path, capsys, fmt):
    missing = tmp_path / "nonexistent"
    code, out, err = run(capsys, "explain", "ks-collapse",
                         "--corpus", str(missing), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == f"{missing} is not a directory"


def test_corpus_empty_directory_warns(tmp_path, capsys):
    code, out, err = run(capsys, "corpus", str(tmp_path))
    assert code == 0
    assert "0 expectations" in err or "0 expectations" in out


def test_corpus_detects_corruption(tmp_path, capsys):
    manifest = json.loads((CORPUS / "sphere-s3.manifest.json").read_text())
    for exp in manifest["expectations"]:
        if exp["operation"] == "hilali_verdict" and exp["check"] == "holds":
            exp["expect"] = False
    (tmp_path / "sphere-s3.manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "sphere-s3.model.json").write_text(
        (CORPUS / "sphere-s3.model.json").read_text())
    code, out, err = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert "claim: verdict" in fails[0]


def test_run_manifest_single_entry():
    result = run_manifest(str(CORPUS / "odd-triple.manifest.json"), 0)
    assert not result.get("error")
    assert all(r["ok"] for r in result["results"])


def test_console_script_installed():
    # the installed console script, or else ``python -m hilali`` over src/
    import os
    import shutil
    import subprocess
    import sys
    exe = shutil.which("hilali")
    command, env = [exe], None
    if exe is None:
        command = [sys.executable, "-m", "hilali"]
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src")] + ([path] if path else []))}
    proc = subprocess.run([*command, "classify", model("sphere-s3")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "pure:           True" in proc.stdout


def test_corpus_missing_model_is_error(tmp_path, capsys):
    (tmp_path / "ghost.manifest.json").write_text(json.dumps({
        "format": "hilali-corpus/1", "model": "ghost.model.json",
        "expectations": [{"operation": "classify", "check": "n", "expect": 0,
                          "source": "elementary"}]}))
    code, out, err = run(capsys, "corpus", str(tmp_path))
    assert code == 1


def test_bare_engine_error_is_input_error(capsys):
    code, out, err = run(capsys, "cohomology", model("sphere-s3"),
                         "--assume-elliptic", "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == "error: max_degree must be non-negative"
    assert "Traceback" not in err


def test_s_pair_above_the_probe_ceiling_exit_3(tmp_path, capsys):
    # The images x1*x2 and x1^2 + x2^2 have degree 4 and their quotient
    # has socle degree 4, but their S-pairs have lcm degrees 6 and 8.
    doc = {"format": "hilali-model/1", "name": "s-pair-ceiling",
           "generators": [{"name": "x1", "degree": 2},
                          {"name": "x2", "degree": 2},
                          {"name": "y1", "degree": 3},
                          {"name": "y2", "degree": 3}],
           "differential": {"y1": "x1*x2", "y2": "x1^2 + x2^2"}}
    path = str(tmp_path / "s-pair.model.json")
    (tmp_path / "s-pair.model.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "regseq", path, "--max-probe", "8")
    assert code == 0 and "True" in out
    for command in ("regseq", "hilali"):
        code, _, err = run(capsys, command, path, "--max-probe", "5")
        assert code == 3
        assert "degree 6, above the probe ceiling 5" in err


def test_certification_budget_exhaustion_exit_3(capsys):
    from hilali import certify_elliptic, load_model
    cert = certify_elliptic(load_model(model("sphere-s3")), max_probe=0)
    assert not cert.elliptic and cert.indeterminate
    for command in ("hilali", "cohomology"):
        code, out, err = run(capsys, command, model("sphere-s3"),
                             "--max-probe", "0")
        assert code == 3
        assert err.startswith("indeterminate: not certified elliptic")
    # a quotient proven to have infinite length is still an input error
    for name in ("nonelliptic-pair", "nonelliptic-even-only"):
        assert not certify_elliptic(load_model(model(name))).indeterminate
        for command in ("hilali", "cohomology", "tor", "deform", "reduce"):
            code, _, err = run(capsys, command, model(name))
            assert code == 2
            assert err.startswith("error: not certified elliptic: not elliptic")


@pytest.mark.parametrize("doc, message", [
    ({"format": "hilali-model/1", "name": "x"}, "missing generator list"),
    ({"format": "hilali-model/1", "name": "x",
      "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
      "differential": [["y", "x^2"]]}, "the differential must map"),
])
def test_validate_malformed_file_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "x.model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("degree", [2.5, True, "3"])
def test_validate_rejects_a_degree_that_is_not_an_integer(tmp_path, capsys,
                                                          degree):
    doc = {"format": "hilali-model/1", "name": "x",
           "generators": [{"name": "x", "degree": degree}]}
    path = tmp_path / "x.model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] \
        == [f"error: {path}: bad generator entry "
            f"{{'name': 'x', 'degree': {degree!r}}}"]
    assert "Traceback" not in err


@pytest.mark.parametrize("manifest", [
    {"format": "hilali-corpus/1",
     "expectations": [{"operation": "classify", "check": "n", "expect": 0}]},
    {"format": "hilali-corpus/1", "model": "sphere-s3.model.json",
     "expectations": [["classify", "n", 0]]},
    {"format": "hilali-corpus/1", "model": "sphere-s3.model.json",
     "expectations": [{"operation": ["classify"], "check": "n", "expect": 0}]},
])
def test_malformed_manifest_is_error_entry(tmp_path, capsys, manifest):
    (tmp_path / "sphere-s3.model.json").write_text(
        (CORPUS / "sphere-s3.model.json").read_text())
    path = tmp_path / "nameless.manifest.json"
    path.write_text(json.dumps(manifest))
    entry = run_manifest(str(path), 0)
    assert entry["error"] and entry["results"] == []
    code, out, err = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "nameless.manifest: ERROR" in out
    assert "Traceback" not in err


# a malformed manifest and the message that names what is wrong with it
MALFORMED_MANIFESTS = {
    "json-list": ("[]", "expected format 'hilali-corpus/1'"),
    "expectation-not-an-object": (json.dumps(
        {"format": "hilali-corpus/1", "model": "sphere-s3.model.json",
         "expectations": [3]}),
        "expectations must be a list of expectation objects"),
    "list-valued-claim": (json.dumps(
        {"format": "hilali-corpus/1", "model": "sphere-s3.model.json",
         "expectations": [{"operation": "classify", "check": "n",
                           "expect": 0, "claim": ["verdict"]}]}),
        "expectations must be a list of expectation objects"),
    "not-json": ("{not json", "Expecting property name enclosed in double "
                 "quotes: line 1 column 2 (char 1)"),
}


def _corpus_with(tmp_path, text):
    """A corpus directory: sphere-s3 with its manifest, and a malformed
    manifest ``nameless.manifest.json`` holding ``text``."""
    for kind in ("model", "manifest"):
        path = CORPUS / f"sphere-s3.{kind}.json"
        (tmp_path / path.name).write_text(path.read_text())
    bad = tmp_path / "nameless.manifest.json"
    bad.write_text(text)
    return bad


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("text, message", MALFORMED_MANIFESTS.values(),
                         ids=MALFORMED_MANIFESTS)
def test_explain_names_a_malformed_manifest_and_exits_2(tmp_path, capsys,
                                                        text, message, fmt):
    bad = _corpus_with(tmp_path, text)
    code, out, err = run(capsys, "explain", "verdict", "--corpus",
                         str(tmp_path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == f"error: {bad}: {message}"
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("text, message", MALFORMED_MANIFESTS.values(),
                         ids=MALFORMED_MANIFESTS)
def test_corpus_reports_a_malformed_manifest_as_an_error_entry(
        tmp_path, capsys, text, message, fmt):
    _corpus_with(tmp_path, text)
    code, out, err = run(capsys, "corpus", str(tmp_path), "--format", fmt)
    assert code == 1
    assert "Traceback" not in err
    if fmt == "text":
        assert f"nameless.manifest: ERROR {message}" in out.splitlines()
        assert "FAIL" not in out
    else:
        results = json.loads(out)["results"]
        assert results["failed"] == 1
        assert [e.get("error") for e in results["entries"]] == [message, None]


def test_a_model_file_with_a_degree_one_generator_exits_2(tmp_path, capsys):
    doc = {"format": "hilali-model/1", "name": "deg1",
           "generators": [{"name": "x", "degree": 2}, {"name": "t", "degree": 1},
                          {"name": "y", "degree": 3}],
           "differential": {"y": "x^2"}}
    path = tmp_path / "deg1.model.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "hilali"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.splitlines()[0] == (
            f"error: {path}: generator t has degree 1; the model is not "
            "simply-connected")


def test_deform_has_no_max_probe(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deform", model("n1r1-powers"), "--max-probe", "1"])
    assert exc.value.code == 2
    assert "--max-probe" in capsys.readouterr().err


# manifest operation -> command line and the results key its checks start at
MANIFEST_COMMANDS = {
    "validate": (["validate"], None),
    "classify": (["classify"], None),
    "cohomology": (["cohomology"], None),
    "hilali_verdict": (["hilali"], None),
    "tor": (["tor", "--seed", "0"], None),
    "tor_bounds": (["tor", "--seed", "0"], "bounds"),
    "duality": (["tor", "--seed", "0"], "duality"),
    "cross_check": (["tor", "--seed", "0", "--cross-check"], "cross_check"),
    "regseq": (["regseq"], None),
    "flatness": (["deform", "--seed", "0"], "flatness"),
    "semicontinuity": (["deform", "--seed", "0"], "semicontinuity"),
    "reduce": (["reduce", "--seed", "0"], None),
    "certify_elliptic": (["cohomology"], "certificate"),
}


def test_manifest_values_are_machine_output_values(capsys):
    entry = run_manifest(str(CORPUS / "n1r1-powers.manifest.json"), 0)
    assert {r["operation"] for r in entry["results"]} <= set(MANIFEST_COMMANDS)
    outputs = {}
    for res in entry["results"]:
        argv, key = MANIFEST_COMMANDS[res["operation"]]
        argv = [argv[0], model("n1r1-powers"), *argv[1:], "--format", "machine"]
        if tuple(argv) not in outputs:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outputs[tuple(argv)] = json.loads(out)["results"]
        value = outputs[tuple(argv)]
        if key:
            value = value[key]
        check = res["check"]
        if res["operation"] == "reduce" and check.startswith("all_"):
            steps = value["steps"]
            samples = [t for s in steps for t in s["samples"]]
            value = {"all_collapse_ok": all(t["collapse_ok"] for t in samples),
                     "all_dominated": all(t["dominated"] for t in samples),
                     "all_doubling_ok": all(s["doubling_ok"] for s in steps)}
        for part in check.split("."):
            value = value[part]
        assert res["ok"] and res["actual"] == value, res


def test_run_manifest_loads_the_model_once(monkeypatch):
    import hilali.cli
    calls = {"load_model": 0, "standard_family": 0}

    def counted(name):
        original = getattr(hilali.cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(hilali.cli, name, wrapper)

    counted("load_model")
    counted("standard_family")
    entry = run_manifest(str(CORPUS / "n1r1-powers.manifest.json"), 0)
    assert all(r["ok"] for r in entry["results"])
    assert calls == {"load_model": 1, "standard_family": 1}


def test_run_manifest_assembles_each_degree_of_a_differential_once(
        monkeypatch):
    from hilali.cohomology import ChainComplex
    rows = ChainComplex.rows
    assembled = []

    def recorded(self, degree, *monomials):
        assembled.append((self.model.d, degree))
        return rows(self, degree, *monomials)

    monkeypatch.setattr(ChainComplex, "rows", recorded)
    entry = run_manifest(str(CORPUS / "squarefree-n2.manifest.json"), 0)
    assert {r["operation"] for r in entry["results"]} >= {
        "cohomology", "hilali_verdict", "reduce", "cross_check"}
    assert all(r["ok"] for r in entry["results"])
    # the list keeps every differential alive, so no identity is reused
    assert len(set(assembled)) == len(assembled)


def test_tor_cross_check_certifies_once_and_builds_one_table(monkeypatch, capsys):
    import hilali
    returned = {"certify_elliptic": [], "tor_table": []}

    def counted(name):
        original = getattr(hilali, name)

        def wrapper(*args, **kwargs):
            returned[name].append(original(*args, **kwargs))
            return returned[name][-1]
        for module in (hilali.cli, hilali.cohomology, hilali.koszul,
                       hilali.deformation):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    counted("certify_elliptic")
    counted("tor_table")
    code, out, _ = run(capsys, "tor", model("n1r1-powers"), "--cross-check")
    assert code == 0 and "cross-check: total H = 4 = total Tor = 4 (ok)" in out
    # the search and the cross-check both read the certificate; a kept
    # certificate comes back as the same object, so each object returned
    # is one certificate computed
    assert len(returned["certify_elliptic"]) == 2
    assert {name: len(set(map(id, values)))
            for name, values in returned.items()} == {
        "certify_elliptic": 1, "tor_table": 1}


def test_run_manifest_searches_the_odd_basis_once(monkeypatch):
    import hilali.koszul
    search = hilali.koszul._search
    searched = []

    def counted(model, *args):
        searched.append(args)
        return search(model, *args)

    monkeypatch.setattr(hilali.koszul, "_search", counted)
    entry = run_manifest(str(CORPUS / "squarefree-n2.manifest.json"), 0)
    assert {r["operation"] for r in entry["results"]} >= {
        "tor_bounds", "cross_check", "flatness", "semicontinuity"}
    assert all(r["ok"] for r in entry["results"])
    assert searched == [(0, 64, None)]


def test_run_manifest_runs_tor_once(monkeypatch):
    """The plain tor checks and the cross-check read one tor run, made with
    ``--cross-check`` because the manifest checks it."""
    import hilali.cli
    results_of, text_of = hilali.cli._MODEL_COMMANDS["tor"]
    cross_checked = []

    def counted(model, args):
        cross_checked.append(args.cross_check)
        return results_of(model, args)

    monkeypatch.setitem(hilali.cli._MODEL_COMMANDS, "tor", (counted, text_of))
    entry = run_manifest(str(CORPUS / "squarefree-n2.manifest.json"), 0)
    assert {r["operation"] for r in entry["results"]} >= {
        "tor", "tor_bounds", "duality", "cross_check"}
    assert all(r["ok"] for r in entry["results"])
    assert cross_checked == [True]


def test_corpus_jobs_2_prints_what_jobs_1_prints(tmp_path, capsys):
    import multiprocessing
    for name in ("n1r1-powers", "sphere-s3"):
        for kind in ("manifest", "model"):
            path = CORPUS / f"{name}.{kind}.json"
            (tmp_path / path.name).write_text(path.read_text())
    outputs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "corpus", str(tmp_path), "--jobs", jobs,
                           "--format", "machine")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["results"]["failed"] == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_corpus_jobs_below_one_exit_2(capsys, jobs):
    for fmt in ("text", "machine"):
        code, out, err = run(capsys, "corpus", str(CORPUS), "--jobs", jobs,
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == \
            f"error: jobs must be at least 1, not {jobs}"
        assert "Traceback" not in err


def test_corpus_starts_at_most_one_worker_per_manifest(tmp_path, capsys,
                                                       monkeypatch):
    import hilali.cli
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(hilali.cli, "ProcessPoolExecutor", SerialPool)
    for name in ("n1r1-powers", "sphere-s3"):
        for kind in ("manifest", "model"):
            path = CORPUS / f"{name}.{kind}.json"
            (tmp_path / path.name).write_text(path.read_text())
    code, _, _ = run(capsys, "corpus", str(tmp_path), "--jobs", "64")
    assert code == 0
    assert workers == [2]
    (tmp_path / "sphere-s3.manifest.json").unlink()
    code, _, _ = run(capsys, "corpus", str(tmp_path), "--jobs", "64")
    assert code == 0
    assert workers == [2]      # one manifest runs serially
