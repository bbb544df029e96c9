"""Tests for problem-file parsing and validation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from luklearn.logic import parse_formula
from luklearn.problem import (
    ProblemError,
    build_training_problem,
    load_problem,
    parse_problem,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _minimal() -> dict:
    return {
        "domains": {"points": {"x1": [0.4, 0.3]}},
        "predicates": {"p1": {"domains": ["points"]}},
    }


def test_parse_minimal_problem():
    problem = parse_problem(_minimal())
    assert [d.name for d in problem.decls] == ["p1"]
    assert problem.kernels["default"].kind == "linear"
    assert problem.formulas == []
    assert not problem.bias and not problem.keep_zero_pieces


def test_fixture_files_load():
    for name in ("example1", "example2", "example3", "example4"):
        problem = load_problem(FIXTURES / f"{name}.json")
        tp = build_training_problem(problem)
        assert tp.matrix.n_columns > 0
    ex1 = load_problem(FIXTURES / "example1.json")
    assert ex1.keep_zero_pieces
    assert [d.name for d in ex1.decls] == ["p1", "p2"]
    assert ex1.formulas == [parse_formula("forall x: forall y: (p1(x) * p1(y)) -> p2(x,y)")]


def test_missing_sections_name_the_section():
    with pytest.raises(ProblemError, match=r"\[domains\]"):
        parse_problem({"predicates": {}})
    with pytest.raises(ProblemError, match=r"\[predicates\]"):
        parse_problem({"domains": {"d": {"s": [0.0]}}})
    with pytest.raises(ProblemError, match=r"\[root\]"):
        parse_problem([1, 2, 3])


def test_bad_domain_and_predicate_entries():
    data = _minimal()
    data["domains"]["points"] = []
    with pytest.raises(ProblemError, match="must map sample names"):
        parse_problem(data)

    data = _minimal()
    data["predicates"]["p1"] = {}
    with pytest.raises(ProblemError, match="needs a 'domains' list"):
        parse_problem(data)

    data = _minimal()
    data["predicates"]["p1"]["domains"] = ["elsewhere"]
    with pytest.raises(ProblemError, match="unknown domain"):
        parse_problem(data)


def test_kernel_section_validation():
    data = _minimal()
    data["kernels"] = {"k": {"kind": "rbf", "bandwidth": 1.0}}
    with pytest.raises(ProblemError, match="unknown keys"):
        parse_problem(data)

    data = _minimal()
    data["kernels"] = {"k": {"kind": "warp"}}
    with pytest.raises(ProblemError, match=r"\[kernels\]"):
        parse_problem(data)

    data = _minimal()
    data["predicates"]["p1"]["kernel"] = "undefined"
    with pytest.raises(ProblemError, match="undefined kernel"):
        parse_problem(data)


def test_supervision_entries():
    data = _minimal()
    data["supervisions"] = [{"predicate": "p1", "sample": "x1", "label": 1}]
    problem = parse_problem(data)
    assert problem.samples.supervised["p1"] == ((("x1",), 1),)

    data["supervisions"] = [{"predicate": "p1"}]
    with pytest.raises(ProblemError, match="needs 'predicate', 'sample' and 'label'"):
        parse_problem(data)

    data["supervisions"] = [{"predicate": "p1", "sample": "x1", "label": 5}]
    with pytest.raises(ProblemError, match="-1 or \\+1"):
        parse_problem(data)


def _set_point(data, value):
    data["domains"]["points"]["x1"] = value


def _set_predicate(key):
    def setter(data, value):
        data["predicates"]["p1"][key] = value
    return setter


def _set_section(key):
    def setter(data, value):
        data[key] = value
    return setter


def _set_kernel(key):
    def setter(data, value):
        data["kernels"]["default"][key] = value
    return setter


def _set_supervision(key):
    def setter(data, value):
        data["supervisions"][0][key] = value
    return setter


@pytest.mark.parametrize(
    "setter, value, message",
    [
        (_set_supervision("sample"), 5, r"\[supervisions\] entry 0: 'sample' must be a sample name"),
        (_set_supervision("predicate"), ["p1"], r"\[supervisions\] entry 0: 'predicate' must be a string"),
        (_set_predicate("kernel"), ["lin"], r"\[predicates\] predicate 'p1' must name its kernel by a string"),
        (_set_point, "ab", r"\[domains\] point 'x1' in domain 'points' must be a list of numbers"),
        (_set_point, [0.4, True], r"\[domains\] point 'x1' .* must be a list of numbers"),
        (_set_supervision("label"), True, r"\[supervisions\] entry 0: 'label' must be the integer -1 or \+1"),
        (_set_supervision("label"), 1.0, r"\[supervisions\] entry 0: 'label' must be the integer -1 or \+1"),
        (_set_section("kernels"), [], r"\[kernels\] 'kernels' must be an object"),
        (_set_predicate("domains"), 5, r"\[predicates\] predicate 'p1' needs a 'domains' list of domain names"),
        (_set_predicate("domains"), "points", r"\[predicates\] predicate 'p1' needs a 'domains' list of domain names"),
        (_set_section("groundings"), {"p1": 5}, r"\[groundings\] grounding of 'p1' must be a list of sample-name"),
        (_set_section("groundings"), {"p1": "x1"}, r"\[groundings\] grounding of 'p1' must be a list"),
        (_set_section("groundings"), {"p1": ["x1"]}, r"\[groundings\] grounding of 'p1' must be a list"),
        (_set_section("groundings"), [["x1"]], r"\[groundings\] 'groundings' must be an object"),
        (_set_section("groundings"), {"p9": [["x1"]]}, r"\[groundings\] grounding of undeclared predicate 'p9'"),
        (_set_section("formulas"), "p1(x)", r"\[formulas\] 'formulas' must be an array"),
        (_set_section("supervisions"), {}, r"\[supervisions\] 'supervisions' must be an array"),
        (_set_kernel("offset"), "a", r"\[kernels\] kernel 'default': 'offset' must be a JSON number, got 'a'"),
        (_set_kernel("offset"), True, r"\[kernels\] kernel 'default': 'offset' must be a JSON number, got True"),
        (_set_kernel("sigma"), "1", r"\[kernels\] kernel 'default': 'sigma' must be a JSON number, got '1'"),
        (_set_kernel("sigma"), False, r"\[kernels\] kernel 'default': 'sigma' must be a JSON number"),
        (_set_kernel("degree"), True, r"\[kernels\] kernel 'default': 'degree' must be a JSON integer, got True"),
        (_set_kernel("degree"), 2.0, r"\[kernels\] kernel 'default': 'degree' must be a JSON integer, got 2.0"),
        (_set_kernel("degree"), "2", r"\[kernels\] kernel 'default': 'degree' must be a JSON integer"),
        (_set_point, [0.4, float("nan")], r"\[domains\] point 'x1' .* must be a list of numbers"),
        (_set_point, [float("inf"), 0.3], r"\[domains\] point 'x1' .* must be a list of numbers"),
        (_set_point, [0.4, float("-inf")], r"\[domains\] point 'x1' .* must be a list of numbers"),
        (_set_kernel("offset"), float("nan"), r"\[kernels\] kernel 'default': 'offset' must be a JSON number, got nan"),
        (_set_kernel("offset"), float("-inf"), r"\[kernels\] kernel 'default': 'offset' must be a JSON number"),
        (_set_kernel("sigma"), float("inf"), r"\[kernels\] kernel 'default': 'sigma' must be a JSON number, got inf"),
        (_set_section("options"), {"tolerances": {"qp": float("nan")}}, r"\[options\] bad tolerance override"),
    ],
    ids=[
        "sample-int", "predicate-list", "kernel-list", "point-string", "point-bool", "label-true", "label-float",
        "kernels-list", "domains-int", "domains-string", "groundings-int", "groundings-string", "groundings-flat",
        "groundings-list", "groundings-undeclared", "formulas-string", "supervisions-object",
        "offset-string", "offset-bool", "sigma-string", "sigma-bool", "degree-bool", "degree-float",
        "degree-string", "point-nan", "point-infinity", "point-minus-infinity", "offset-nan",
        "offset-minus-infinity", "sigma-infinity", "tolerance-nan",
    ],
)
def test_problem_values_of_the_wrong_type_are_refused(setter, value, message):
    """Each value once crashed the parser with a TypeError or ValueError,
    was read one character at a time, was silently ignored, or (the
    labels and the kernel parameters) was silently read as a number.
    The non-finite numbers, which ``json`` reads but JSON has not, once
    failed later as an asymmetric Gram matrix or trained a constant kernel."""
    data = json.loads((FIXTURES / "example4.json").read_text())
    setter(data, value)
    with pytest.raises(ProblemError, match=message):
        parse_problem(data)


def test_formula_errors_are_positioned():
    data = _minimal()
    data["formulas"] = ["p1(x1) +"]
    with pytest.raises(ProblemError, match="formula 1"):
        parse_problem(data)

    data["formulas"] = ["p9(x1)"]
    with pytest.raises(ProblemError, match="unknown predicate"):
        parse_problem(data)

    data["formulas"] = [42]
    with pytest.raises(ProblemError, match="must be a string"):
        parse_problem(data)


def test_groundings_override():
    data = {
        "domains": {"points": {"x1": [0.0], "x2": [1.0]}},
        "predicates": {"p1": {"domains": ["points"]}},
        "groundings": {"p1": [["x2"]]},
    }
    problem = parse_problem(data)
    assert problem.samples.groundings["p1"] == (("x2",),)


def test_options_section():
    data = _minimal()
    data["options"] = {"bias": True, "keep_zero_pieces": True, "tolerances": {"activity": 1e-4}}
    problem = parse_problem(data)
    assert problem.bias and problem.keep_zero_pieces
    assert problem.tolerances.activity == 1e-4
    assert problem.tolerances.qp == 1e-8

    data["options"] = {"verbose": True}
    with pytest.raises(ProblemError, match="unknown option keys"):
        parse_problem(data)

    data["options"] = {"tolerances": {"nothere": 1.0}}
    with pytest.raises(ProblemError, match="bad tolerance override"):
        parse_problem(data)

    data["options"] = {"tolerances": {"activity": "soft"}}
    with pytest.raises(ProblemError, match="bad tolerance override"):
        parse_problem(data)


@pytest.mark.parametrize("key", ["bias", "keep_zero_pieces"])
@pytest.mark.parametrize("value", ["false", 0, 1, None, [True]])
def test_boolean_options_accept_only_booleans(key, value):
    data = _minimal()
    data["options"] = {key: value}
    with pytest.raises(ProblemError, match=rf"\[options\] '{key}' must be true or false"):
        parse_problem(data)
    data["options"] = {key: False}
    assert getattr(parse_problem(data), key) is False


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9, "-inf"])
def test_tolerance_overrides_must_be_finite_and_nonnegative(value):
    data = _minimal()
    data["options"] = {"tolerances": {"entailment": value}}
    with pytest.raises(ProblemError, match="'entailment' must be finite and nonnegative"):
        parse_problem(data)
    data["options"] = {"tolerances": {"entailment": 0.0}}
    assert parse_problem(data).tolerances.entailment == 0.0


@pytest.mark.parametrize("value", [True, False, "1e-3", None, [1e-3]])
def test_tolerance_overrides_accept_json_numbers_only(value):
    data = _minimal()
    data["options"] = {"tolerances": {"activity": value}}
    with pytest.raises(ProblemError, match=r"\[options\] .*'activity' .*a JSON number"):
        parse_problem(data)
    data["options"] = {"tolerances": {"activity": 0, "qp": 1e-3}}
    problem = parse_problem(data)
    assert problem.tolerances.activity == 0.0 and problem.tolerances.qp == 1e-3


def test_load_problem_file_errors(tmp_path):
    with pytest.raises(ProblemError, match=r"\[file\]"):
        load_problem(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemError, match="invalid JSON"):
        load_problem(bad)


def test_build_training_problem_carries_options(tmp_path):
    data = _minimal()
    data["options"] = {"keep_zero_pieces": True, "tolerances": {"activity": 1e-5}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    problem = load_problem(path)
    tp = build_training_problem(problem)
    assert tp.keep_zero_pieces
    assert tp.tolerances.activity == 1e-5
