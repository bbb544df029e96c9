"""Tests for sample sets, the coordinate index, and quantifier expansion
as the affine compiler performs it."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest

from luklearn.constraints import Pieces, compile_min_affine
from luklearn.grounding import (
    GroundingError,
    PredicateDecl,
    build_grounding_index,
    build_samples,
    ground_assignment,
    sample_universe,
)
from luklearn.logic import Atom, Forall, eval_lukasiewicz, parse_formula, to_nnf
from luklearn.problem import build_training_problem, load_problem

DOMS = {"points": {"x2": (0.7, 0.3), "x1": (0.2, 0.6)}}
DECLS = [
    PredicateDecl("p1", ("points",)),
    PredicateDecl("p2", ("points", "points")),
]


def _index():
    samples = build_samples(DOMS, DECLS)
    return build_grounding_index(DECLS, samples)


def test_build_samples_sorts_names():
    samples = build_samples(DOMS, DECLS)
    assert list(samples.domains["points"]) == ["x1", "x2"]
    assert samples.groundings["p1"] == (("x1",), ("x2",))
    assert samples.groundings["p2"] == (
        ("x1", "x1"),
        ("x1", "x2"),
        ("x2", "x1"),
        ("x2", "x2"),
    )


def test_build_samples_validation():
    bad_dims = {"points": {"x1": (0.2, 0.6), "x2": (0.7,)}}
    with pytest.raises(GroundingError, match="dimension"):
        build_samples(bad_dims, DECLS)
    with pytest.raises(GroundingError, match="duplicate predicate"):
        build_samples(DOMS, [DECLS[0], DECLS[0]])
    with pytest.raises(GroundingError, match="unknown domain"):
        build_samples(DOMS, [PredicateDecl("q", ("elsewhere",))])
    with pytest.raises(GroundingError):
        PredicateDecl("q", ())


def test_build_samples_supervision_validation():
    with pytest.raises(GroundingError, match="unknown predicate"):
        build_samples(DOMS, DECLS, [("q", ("x1",), 1)])
    with pytest.raises(GroundingError, match="must be -1 or \\+1"):
        build_samples(DOMS, DECLS, [("p1", ("x1",), 2)])
    with pytest.raises(GroundingError, match="not in the grounding set"):
        build_samples(DOMS, DECLS, [("p1", ("x9",), 1)])


def test_build_samples_supervision_dedup_keeps_conflicts():
    pairs = [("p1", ("x1",), 1), ("p1", ("x1",), 1), ("p1", ("x1",), -1)]
    samples = build_samples(DOMS, DECLS, pairs)
    assert samples.supervised["p1"] == ((("x1",), -1), (("x1",), 1))


def test_build_samples_custom_groundings():
    samples = build_samples(
        DOMS, DECLS, groundings={"p2": [("x2", "x1"), ("x1", "x2")]}
    )
    assert samples.groundings["p2"] == (("x1", "x2"), ("x2", "x1"))
    with pytest.raises(GroundingError, match="wrong arity"):
        build_samples(DOMS, DECLS, groundings={"p2": [("x1",)]})
    with pytest.raises(GroundingError, match="unknown\\s+sample"):
        build_samples(DOMS, DECLS, groundings={"p2": [("x1", "zz")]})


def test_index_layout_and_labels():
    index = _index()
    assert index.size == 6
    assert index.offsets == {"p1": 0, "p2": 2}
    assert index.slice_of("p2") == slice(2, 6)
    assert index.labels() == [
        "p1:x1",
        "p1:x2",
        "p2:x1,x1",
        "p2:x1,x2",
        "p2:x2,x1",
        "p2:x2,x2",
    ]


def test_index_round_trip():
    index = _index()
    for k in range(index.size):
        pred, t = index.from_global(k)
        assert index.coordinate_of(Atom(pred, t)) == k
    with pytest.raises(GroundingError, match="out of range"):
        index.from_global(6)
    with pytest.raises(GroundingError, match="no coordinate"):
        index.coordinate_of(Atom("p1", ("x9",)))


def _from_global_labels(index):
    return [f"{pred}:{','.join(t)}" for pred, t in map(index.from_global, range(index.size))]


def test_labels_match_from_global_on_every_fixture_and_a_partial_index():
    fixtures = Path(__file__).parent / "fixtures"
    indexes = [
        build_training_problem(load_problem(path)).index
        for path in sorted(fixtures.glob("*.json")) + sorted(fixtures.glob("refused/*.json"))
    ]
    partial = {"p2": [("x2", "x1"), ("x1", "x1")]}
    indexes.append(build_grounding_index(DECLS, build_samples(DOMS, DECLS, groundings=partial)))
    for index in indexes:
        expected = _from_global_labels(index)
        labels = index.labels()
        assert labels == expected
        assert [index.label(k) for k in range(index.size)] == expected
        labels.append("changed")  # a fresh list each call
        assert index.labels() == expected
        with pytest.raises(GroundingError, match="out of range"):
            index.label(index.size)
    assert indexes[-1].labels() == ["p1:x1", "p1:x2", "p2:x1,x1", "p2:x2,x1"]


def test_coordinate_tables_hold_every_coordinate_and_minus_one_elsewhere():
    partial = {"p2": [("x2", "x1"), ("x1", "x1")]}
    for groundings in (None, partial):
        index = build_grounding_index(DECLS, build_samples(DOMS, DECLS, groundings=groundings))
        for decl in DECLS:
            table, axes = index.coordinate_table(decl.name)
            # each axis one position longer than its domain
            assert len(table) == np.prod([len(where) + 1 for where, _ in axes])
            for t in itertools.product(*(sorted(where) for where, _ in axes)):
                at = sum(where[name] for (where, _), name in zip(axes, t))
                assert table[at] == index.coordinates.get((decl.name, t), -1)
            # every grounded tuple once; every entry through an extra position -1
            assert sorted(k for k in table if k >= 0) == list(range(index.size))[index.slice_of(decl.name)]
            for i, (_, extra) in enumerate(axes):
                others = [[*where.values(), e] for j, (where, e) in enumerate(axes) if j != i]
                for rest in itertools.product(*others):
                    assert table[extra + sum(rest)] == -1
            assert index.coordinate_table(decl.name)[0] is table  # built once per index


def test_tuple_points_concatenate_coordinates():
    index = _index()
    assert index.tuple_points("p1") == [(0.2, 0.6), (0.7, 0.3)]
    assert index.tuple_points("p2")[1] == (0.2, 0.6, 0.7, 0.3)


def test_empty_domain_rejected():
    samples = build_samples(DOMS, DECLS)
    samples.domains["points"] = {}
    with pytest.raises(GroundingError, match="has no samples"):
        build_grounding_index(DECLS, samples)


def _pieces(text: str, index=None) -> Pieces:
    index = index or _index()
    return compile_min_affine(to_nnf(parse_formula(text)), index).pieces


def test_expand_transitive_formula_conjunct_count():
    """Eight instances, u outermost, each the cap and one sum; the
    pieces keep their first occurrences."""
    index = _index()
    expected = []
    for u, v, w in itertools.product(["x1", "x2"], repeat=3):
        coeffs: dict[int, float] = {}
        for pred, t, c in (("p2", (u, v), -1.0), ("p2", (v, w), -1.0), ("p2", (u, w), 1.0)):
            k = index.coordinate_of(Atom(pred, t))
            coeffs[k] = coeffs.get(k, 0.0) + c
        terms = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0.0))
        for piece in (((), 1.0), (terms, 2.0)):
            if piece not in expected:
                expected.append(piece)
    text = "forall u: forall v: forall w: ~p2(u,v) + ~p2(v,w) + p2(u,w)"
    assert _pieces(text, index) == Pieces.of(expected)
    assert len(expected) == 5


def test_expand_single_quantifier_structure():
    assert _pieces("forall v: p1(v)") == Pieces.of([
        (((0, 1.0),), 0.0),
        (((1, 1.0),), 0.0),
    ])


def test_expand_constant_arguments():
    assert _pieces("forall v: p2(x1,v)") == Pieces.of([
        (((2, 1.0),), 0.0),
        (((3, 1.0),), 0.0),
    ])


def test_expand_rejects_free_variables():
    with pytest.raises(GroundingError, match="free variable"):
        _pieces("p1(v)")


def test_variable_domain_conflict_detected():
    domains = {"a": {"s1": (0.0,)}, "b": {"t1": (1.0,)}}
    decls = [PredicateDecl("p", ("a",)), PredicateDecl("q", ("b",))]
    index = build_grounding_index(decls, build_samples(domains, decls))
    with pytest.raises(GroundingError, match="used over domains"):
        _pieces("forall v: p(v) & q(v)", index)


def test_expand_rejects_undeclared_and_unbound_names():
    with pytest.raises(GroundingError, match="undeclared predicate"):
        _pieces("forall v: q(v)")
    with pytest.raises(GroundingError, match="cannot infer a domain"):
        compile_min_affine(Forall("v", Atom("p1", ("x1",))), _index())
    partial = build_grounding_index(DECLS, build_samples(DOMS, DECLS, groundings={"p2": [["x1", "x1"]]}))
    with pytest.raises(GroundingError, match="no coordinate"):
        _pieces("p2(x1,x2)", partial)
    samples = build_samples(DOMS, DECLS)
    index = build_grounding_index(DECLS, samples)
    samples.domains["points"] = {}
    with pytest.raises(GroundingError, match="has no samples"):
        _pieces("forall v: p1(v)", index)


def test_sample_universe_inference():
    index = _index()
    f = parse_formula("forall u: forall v: p2(u,v)")
    assert sample_universe(f, index) == {"u": ["x1", "x2"], "v": ["x1", "x2"]}


def test_ground_assignment_reads_off_vector():
    index = _index()
    p = np.arange(6) / 10.0
    env = ground_assignment(index, p)
    assert env[Atom("p1", ("x2",))] == pytest.approx(0.1)
    assert env[Atom("p2", ("x2", "x2"))] == pytest.approx(0.5)
    with pytest.raises(GroundingError, match="length"):
        ground_assignment(index, p[:3])


def test_expansion_matches_direct_evaluation():
    """The min of the expanded pieces must agree with quantified
    evaluation pointwise."""
    index = _index()
    texts = [
        "forall v: p1(v)",
        "forall v: ~p1(v) + p1(v)",
        "forall u: forall v: ~p2(u,v) + p1(u)",
        "forall u: forall v: forall w: ~p2(u,v) + ~p2(v,w) + p2(u,w)",
        "forall v: p1(v) & p2(x1,v)",
        "p1(x1) & ~p2(x2,x1)",
    ]
    rng = np.random.default_rng(23)
    for text in texts:
        f = to_nnf(parse_formula(text))
        aset = compile_min_affine(f, index)
        universe = sample_universe(f, index)
        for _ in range(200):
            p = rng.random(index.size)
            direct = eval_lukasiewicz(f, ground_assignment(index, p), universe)
            assert abs(aset.value(p) - direct) <= 1e-12
