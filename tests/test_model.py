"""Differentials: Leibniz extension, validation, classification, files."""

import json
import random
from fractions import Fraction

import pytest

from hilali import (Element, Model, ModelError, check_differential,
                    check_minimal, classify, format_element,
                    formal_dimension_bound, load_model, model_from_dict,
                    model_to_dict, parse_expression, pure_part, read_model,
                    save_model, universe)
from hilali.algebra import Monomial
from hilali.model import _leibniz

from dense_oracle import naive_differential
from modelgen import random_element, random_hyperelliptic_model, random_model


def build(specs, diff_texts, **kw):
    uni = universe(specs)
    diff = {k: parse_expression(v, uni) for k, v in diff_texts.items()}
    return Model(uni, diff, **kw)


@pytest.fixture
def mixed_powers():
    return build(
        [("x1", 2), ("x2", 6), ("y1", 11), ("y2", 17), ("y3", 13)],
        {"y1": "x1^6 + x2^2", "y2": "x1^9 + x2^3", "y3": "x1^4*x2 + x1*x2^2"})


@pytest.fixture
def quadrics():
    return build(
        [("x1", 2), ("x2", 2), ("x3", 2)] + [(f"y{i}", 3) for i in range(1, 7)],
        {"y1": "x1^2", "y2": "x1*x2", "y3": "x2^2",
         "y4": "x1*x3", "y5": "x2*x3", "y6": "x3^2"})


def test_power_potentials(mixed_powers):
    m = mixed_powers
    e = parse_expression("x1^4*y1 + x1*y2 - x2*y3", m.universe)
    assert format_element(m.apply(e)) == "2*x1^10"
    e = parse_expression("x2^2*y1 + x2*y2 - x1^5*y3", m.universe)
    assert format_element(m.apply(e)) == "2*x2^4"


def test_triple_product_differential(quadrics):
    m = quadrics
    e = parse_expression("y1*y2*y3", m.universe)
    expected = parse_expression("x2^2*y1*y2 - x1*x2*y1*y3 + x1^2*y2*y3", m.universe)
    assert m.apply(e) == expected


def test_check_differential_passes(mixed_powers):
    report = check_differential(mixed_powers)
    assert report.passed
    assert all(e.degree_ok and e.square_ok for e in report.entries)


def test_check_differential_reports_once_per_model(mixed_powers):
    # a model is immutable, so its report is made once and kept on d
    report = check_differential(mixed_powers)
    assert mixed_powers.d.memo["validation"] is report
    assert check_differential(mixed_powers) is report
    failing = build([("x", 4), ("y2", 3), ("y1", 2)], {"y1": "y2", "y2": "x"})
    assert check_differential(failing) is check_differential(failing)
    assert not failing.d.memo["validation"].passed


def test_linear_image_valid_but_not_minimal():
    m = build([("x", 2), ("y", 1)], {"y": "x"})
    assert check_differential(m).passed
    assert not check_minimal(m)


def test_square_nonzero_flagged():
    # dy1 = y2 and dy2 = x gives d(d y1) = x != 0
    m = build([("x", 4), ("y2", 3), ("y1", 2)], {"y1": "y2", "y2": "x"})
    report = check_differential(m)
    assert not report.passed
    [failure] = [e for e in report.entries if not e.square_ok]
    assert failure.name == "y1"
    assert "x" in failure.message


def test_check_minimal_cases():
    assert check_minimal(build([("x", 2), ("y", 3)], {"y": "x^2"}))
    assert check_minimal(build([("y", 3)], {}))
    perturbed = build([("x", 2), ("ybar", 1)], {"ybar": "x"})
    assert not check_minimal(perturbed)


def test_classify_pure(mixed_powers):
    cls = classify(mixed_powers)
    assert cls.is_pure and cls.is_hyperelliptic and cls.is_minimal
    assert (cls.n, cls.n_plus_r, cls.r) == (2, 3, 1)


def test_classify_hyperelliptic_not_pure():
    m = build([("x1", 2), ("y1", 3), ("y2", 5)], {"y1": "x1^2", "y2": "x1^2*y1"})
    cls = classify(m)
    assert cls.is_hyperelliptic and not cls.is_pure


def test_classify_neither():
    m = build([("y1", 3), ("y2", 3), ("y", 5)], {"y": "y1*y2"})
    cls = classify(m)
    assert not cls.is_pure and not cls.is_hyperelliptic


def test_classify_negative_r():
    m = build([("x", 2)], {})
    cls = classify(m)
    assert cls.r == -1 and cls.n == 1 and cls.n_plus_r == 0


def test_pure_part_identity_on_pure(mixed_powers):
    p = pure_part(mixed_powers)
    assert p.d.images == mixed_powers.d.images


def test_pure_part_projects_odd_tail():
    m = build([("x1", 2), ("y1", 3), ("y2", 5)], {"y1": "x1^2", "y2": "x1^3 + x1^2*y1"})
    p = pure_part(m)
    assert p.d.of_generator("y2") == parse_expression("x1^3", m.universe)
    assert classify(p).is_pure


def test_pure_part_requires_hyperelliptic():
    m = build([("y1", 3), ("y2", 3), ("y", 5)], {"y": "y1*y2"})
    with pytest.raises(ModelError):
        pure_part(m)


def test_pure_part_recovers_quadric_listing(corpus_models):
    hyper = corpus_models["hyper-nonpure-n3r4"]
    projected = pure_part(hyper)
    quadrics = corpus_models["all-quadrics-n3r3"]
    for name in ("y1", "y2", "y3", "y4", "y5", "y6"):
        assert format_element(projected.d.of_generator(name)) == \
            format_element(quadrics.d.of_generator(name))
    assert projected.d.of_generator("y7").is_zero


def test_pure_part_commutes_with_classification():
    rng = random.Random(31)
    from modelgen import random_hyperelliptic_model
    for _ in range(10):
        m = random_hyperelliptic_model(rng)
        assert classify(pure_part(m)).is_pure


def test_lower_grading_split():
    uni = universe([("x1", 2), ("y1", 3), ("y2", 5)])
    e = parse_expression("x1 ", uni) + parse_expression("y1*y2", uni)
    parts = e.split_by_odd_count()
    assert set(parts) == {0, 2}
    assert parts[0] == parse_expression("x1", uni)
    total = Element.zero(uni)
    for part in parts.values():
        total = total + part
    assert total == e


def test_differential_drops_lower_grading_on_pure(mixed_powers):
    m = mixed_powers
    rng = random.Random(8)
    for _ in range(20):
        e = random_element(rng, m.universe, rng.randint(4, 24))
        for q, part in e.split_by_odd_count().items():
            image = m.apply(part)
            if not image.is_zero:
                assert set(image.split_by_odd_count()) == {q - 1}


def test_leibniz_rule_random_models():
    rng = random.Random(77)
    for _ in range(8):
        m = random_model(rng)
        uni = m.universe
        for _ in range(6):
            da, db = rng.randint(2, 7), rng.randint(2, 7)
            a = random_element(rng, uni, da)
            b = random_element(rng, uni, db)
            sign = -1 if da % 2 else 1
            lhs = m.apply(a * b)
            rhs = m.apply(a) * b + (a * m.apply(b)).scale(sign)
            assert lhs == rhs


def test_leibniz_kernel_is_the_scaled_naive_differential(corpus_models):
    """On every basis monomial through N + w (and at least through 10) of
    every corpus model and the generated models of seeds 0-9, the kernel's
    integer terms are D times the bubble-sort oracle's, term by term."""
    models = [*corpus_models.values()]
    for seed in range(10):
        models += [random_hyperelliptic_model(random.Random(seed)),
                   random_model(random.Random(seed))]
    even_slots = 0
    for m in models:
        uni = m.universe
        tables = m.d.tables()
        top = max(formal_dimension_bound(m)
                  + max(g.degree for g in uni.generators), 10)
        for p in range(top + 1):
            for mono in uni.basis(p):
                terms = _leibniz(tables, mono.exps, mono.odds)
                assert {Monomial(*key): Fraction(c, tables[0])
                        for key, c in terms.items()} == \
                    naive_differential(m, mono), (m.name, mono)
                even_slots += any(e and tables[1][i]
                                  for i, e in enumerate(mono.exps))
    assert even_slots


def test_square_zero_random_models():
    rng = random.Random(78)
    for _ in range(8):
        m = random_model(rng)
        assert check_differential(m).passed
        e = random_element(rng, m.universe, rng.randint(2, 9))
        assert m.apply(m.apply(e)).is_zero


def test_degree_one_models_are_built_but_not_loaded(tmp_path):
    """Model builds a degree-1 generator; a model file with one is refused
    by every reader, with the message naming the generator."""
    m = build([("x", 2), ("z", 1), ("y", 3)], {"y": "x^2"})
    assert [g.degree for g in m.universe.generators] == [2, 1, 3]
    doc = model_to_dict(m)
    path = tmp_path / "deg1.model.json"
    path.write_text(json.dumps(doc))
    message = "generator z has degree 1; the model is not simply-connected"
    for read, source in ((load_model, path), (read_model, path),
                         (model_from_dict, "<dict>")):
        with pytest.raises(ModelError) as exc:
            read(doc if read is model_from_dict else path)
        assert str(exc.value) == f"{source}: {message}"


def test_model_file_round_trip(tmp_path, mixed_powers):
    path = tmp_path / "m.model.json"
    save_model(mixed_powers, path)
    loaded = load_model(path)
    assert loaded.universe == mixed_powers.universe
    assert loaded.d.images == mixed_powers.d.images
    assert loaded.name == mixed_powers.name


def test_model_dict_format(mixed_powers):
    doc = model_to_dict(mixed_powers)
    assert doc["format"] == "hilali-model/1"
    assert [g["name"] for g in doc["generators"]][:2] == ["x1", "x2"]
    again = model_from_dict(doc)
    assert again.d.images == mixed_powers.d.images


def test_load_rejects_bad_square(tmp_path):
    doc = {"format": "hilali-model/1", "name": "bad",
           "generators": [{"name": "x", "degree": 4},
                          {"name": "y2", "degree": 3},
                          {"name": "y1", "degree": 2}],
           "differential": {"y1": "y2", "y2": "x"}}
    path = tmp_path / "bad.model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError):
        load_model(path)


def test_load_rejects_inhomogeneous(tmp_path):
    doc = {"format": "hilali-model/1", "name": "inhom",
           "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 5}],
           "differential": {"y": "x^2 + x^3"}}
    path = tmp_path / "inhom.model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError):
        load_model(path)


def test_load_rejects_degree_one(tmp_path):
    doc = {"format": "hilali-model/1", "name": "deg1",
           "generators": [{"name": "t", "degree": 1}], "differential": {}}
    path = tmp_path / "deg1.model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError):
        load_model(path)
