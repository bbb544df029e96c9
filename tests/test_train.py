"""Tests for assembling and solving the constrained training problem."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from oracles import is_farkas_vector
from scipy.optimize import linprog

from luklearn import solver
from luklearn.constraints import ConstraintMatrix
from luklearn.grounding import PredicateDecl, build_samples
from luklearn.kernels import KernelError, KernelSpec
from luklearn.logic import parse_formula
from luklearn.problem import build_training_problem, load_problem
from luklearn.solver import Infeasible, SolverError
from luklearn.train import TrainError, assemble_problem, load_model, solve_primal, write_json

FIXTURES = Path(__file__).parent / "fixtures"
POINT = {"points": {"x1": (0.4, 0.3)}}
CHAIN_DECLS = [
    PredicateDecl("p1", ("points",)),
    PredicateDecl("p2", ("points",)),
    PredicateDecl("p3", ("points",)),
]
CHAIN_TEXTS = [
    "forall x: p1(x) -> p2(x)",
    "forall x: p2(x) -> p3(x)",
    "forall x: p1(x) -> p3(x)",
]


def _chain_problem(**kwargs):
    samples = build_samples(
        POINT,
        CHAIN_DECLS,
        [("p1", ("x1",), -1), ("p2", ("x1",), 1), ("p3", ("x1",), 1)],
    )
    formulas = [parse_formula(t) for t in CHAIN_TEXTS]
    return assemble_problem(CHAIN_DECLS, samples, formulas, **kwargs)


def test_chain_problem_layout():
    tp = _chain_problem()
    assert tp.index.size == 3
    assert tp.matrix.matrix.shape == (3, 12)
    assert tp.matrix.block_order == [
        "phi1",
        "phi2",
        "phi3",
        "pt:p1:x1",
        "pt:p2:x1",
        "pt:p3:x1",
        "lb:p1:x1",
        "ub:p1:x1",
        "lb:p2:x1",
        "ub:p2:x1",
        "lb:p3:x1",
        "ub:p3:x1",
    ]
    # each logical block keeps one piece; the constant cap is dropped
    assert all(len(tp.matrix.block_columns[f"phi{i}"]) == 1 for i in (1, 2, 3))
    assert tp.matrix.dropped == {"phi1": 1, "phi2": 1, "phi3": 1}
    assert np.allclose(tp.khat(), 1.25 * np.eye(3), atol=1e-12)
    assert tp.psd == {p: "positive_definite" for p in ("p1", "p2", "p3")}
    assert tp.unique_optimum


def test_chain_problem_training_values():
    model = solve_primal(_chain_problem())
    assert np.allclose(model.alpha, [0.0, 0.8, 0.8], atol=1e-6)
    assert np.allclose(model.p_star, [0.0, 1.0, 1.0], atol=1e-6)
    assert model.loss == pytest.approx(1.6, abs=1e-6)
    assert model.max_violation() <= 1e-9

    active = {i + 1 for i in range(12) if model.activity[i]}
    assert active == {2, 4, 5, 6, 7, 10, 12}
    assert np.min(model.multipliers) >= 0.0
    assert model.qp.residuals["stationarity"] <= 1e-7


def test_alphas_split_by_predicate():
    model = solve_primal(_chain_problem())
    index = model.problem.index
    parts = {decl.name: model.alpha[index.slice_of(decl.name)] for decl in model.problem.decls}
    assert set(parts) == {"p1", "p2", "p3"}
    assert np.array_equal(np.concatenate(list(parts.values())), model.alpha)
    assert parts["p2"][0] == pytest.approx(0.8, abs=1e-6)


def test_fragment_violation_is_reported():
    samples = build_samples(POINT, CHAIN_DECLS[:2], [])
    bad = parse_formula("forall x: p1(x) * p2(x)")
    with pytest.raises(TrainError, match="StrongConj"):
        assemble_problem(CHAIN_DECLS[:2], samples, [bad])


def test_unknown_kernel_is_reported():
    decls = [PredicateDecl("p1", ("points",), kernel="missing")]
    samples = build_samples(POINT, decls, [])
    with pytest.raises(TrainError, match="unknown kernel"):
        assemble_problem(decls, samples, [])


def test_conflicting_supervisions_are_infeasible():
    decls = [PredicateDecl("p1", ("points",))]
    samples = build_samples(POINT, decls, [("p1", ("x1",), 1), ("p1", ("x1",), -1)])
    tp = assemble_problem(decls, samples, [])
    assert "pt:p1:x1" in tp.matrix.block_order
    assert "pt:p1:x1#2" in tp.matrix.block_order
    with pytest.raises(Infeasible) as info:
        solve_primal(tp)
    assert info.value.certificate > 0.0


def _coefficient_system(tp):
    """Training's constraints A a + b <= 0 over the coefficients a."""
    return tp.matrix.matrix.T @ tp.khat(), tp.matrix.offsets


def test_infeasible_carries_a_farkas_vector():
    tp = build_training_problem(load_problem(FIXTURES / "conflict.json"))
    with pytest.raises(Infeasible) as info:
        solve_primal(tp)
    A, b = _coefficient_system(tp)
    y = info.value.farkas
    assert y.shape == (tp.matrix.n_columns,)
    assert is_farkas_vector(y, A, b)
    assert info.value.certificate == pytest.approx(float(b @ y), rel=1e-12)


def test_feasible_chain_is_not_reported_infeasible():
    """The problem file is
    ``gen.chain_kb(np.random.default_rng([460, 5, 4, 20]), 4, 0.2).problem()``
    from ``perfbench/gen.py``: four RBF points, sigma 0.2, cond(K-hat) 28.6.
    A phase-1 simplex start once reported it infeasible."""
    tp = build_training_problem(load_problem(FIXTURES / "chain_false_infeasible.json"))
    A, b = _coefficient_system(tp)
    ref = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=-b, bounds=(None, None), method="highs")
    assert ref.status == 0
    model = solve_primal(tp)
    assert max(model.qp.residuals.values()) <= 1e-7
    assert model.max_violation() <= 1e-7


def test_near_singular_chain_is_refused_not_reported_infeasible():
    """The problem file is
    ``gen.chain_kb(np.random.default_rng([0, 5, 40, 50]), 40, 0.5).problem()``
    from ``perfbench/gen.py``: forty RBF points, sigma 0.5, cond(K-hat)
    2.0e12.  HiGHS finds M'p + q <= 0 feasible, yet the QP returns
    a vector y with K-hat M y near zero and q.y > 0, which is a Farkas
    vector in the coefficients only: ||M y||_inf is about 1.4 q.y."""
    tp = build_training_problem(load_problem(FIXTURES / "refused" / "chain_near_singular.json"))
    M, q = tp.matrix.matrix, tp.matrix.offsets
    ref = linprog(np.zeros(M.shape[0]), A_ub=M.T, b_ub=-q, bounds=(None, None), method="highs")
    assert ref.status == 0
    with pytest.raises(SolverError, match="cond") as info:
        solve_primal(tp)
    assert not isinstance(info.value, Infeasible)
    assert isinstance(info.value.__cause__, Infeasible)


def _kkt_residuals(model):
    """KKT residuals of the trained optimum, rebuilt from K-hat, M and q:
    stationarity in the coefficients (2 K a + K M mu) and in the biases
    (B'M mu), feasibility of M'p + q <= 0, and slackness mu * (M'p + q)."""
    tp = model.problem
    K, M, q = tp.khat(), tp.matrix.matrix, tp.matrix.offsets
    mu = model.multipliers
    bias = np.array([model.biases[d.name] for d in tp.decls])
    p = K @ model.alpha + tp.bias_map() @ bias
    violations = M.T @ p + q
    assert np.min(mu) >= 0.0
    assert np.max(np.abs(p - model.p_star)) <= 1e-12 * (1.0 + np.max(np.abs(p)))
    return {
        "stationarity": float(np.max(np.abs(2.0 * K @ model.alpha + K @ M @ mu))),
        "bias_stationarity": float(np.max(np.abs(tp.bias_map().T @ M @ mu))),
        "feasibility": float(np.max(violations, initial=0.0)),
        "slackness": float(np.max(np.abs(mu * violations))),
    }


def test_ill_conditioned_chain_trains_from_its_start():
    """The problem file is
    ``gen.chain_kb(np.random.default_rng([0, 5, 20, 50]), 20, 0.5).problem()``
    from ``perfbench/gen.py``: twenty RBF points, sigma 0.5, cond(K-hat)
    3.8e7.  A primal active-set loop once cycled on it until its
    iteration limit; one least-distance solve is a KKT point, and with
    no bias there is no proximal step."""
    tp = build_training_problem(load_problem(FIXTURES / "chain_ill_conditioned.json"))
    assert np.linalg.cond(tp.khat()) > 1e7
    model = solve_primal(tp)
    assert model.qp.iterations == 0
    res = _kkt_residuals(model)
    scale = 1.0 + float(np.max(model.multipliers))
    assert scale > 1e4  # the absolute slackness is large only because mu is
    assert res["stationarity"] <= 1e-8
    assert res["feasibility"] <= 1e-8
    assert res["slackness"] <= 1e-8 * scale
    assert model.max_violation() <= 1e-8


def test_bias_optimum_satisfies_kkt():
    """With biases Q has zero columns, and proximal steps on them find
    the optimum."""
    decls = [PredicateDecl("p1", ("points",), kernel="rbf"), PredicateDecl("p2", ("points",), kernel="rbf")]
    doms = {"points": {"x1": (0.2, 0.6), "x2": (0.7, 0.3), "x3": (0.5, 0.5)}}
    samples = build_samples(doms, decls, [("p1", ("x1",), 1), ("p1", ("x2",), -1), ("p2", ("x3",), -1)])
    formulas = [parse_formula("forall x: p1(x) -> p2(x)")]
    kernels = {"rbf": KernelSpec("rbf", sigma=0.5)}
    model = solve_primal(assemble_problem(decls, samples, formulas, kernels=kernels, bias=True))
    assert model.qp.iterations > 0
    assert min(abs(v) for v in model.biases.values()) > 0.1
    res = _kkt_residuals(model)
    assert max(res.values()) <= 1e-9
    plain = solve_primal(assemble_problem(decls, samples, formulas, kernels=kernels))
    assert model.loss < plain.loss - 1.0


def test_biased_chain_trains_by_proximal_steps():
    """The problem file is
    ``gen.chain_kb(np.random.default_rng([0, 9, 15, 50]), 15, 0.5).problem()``
    from ``perfbench/gen.py`` with ``"bias": true``: fifteen RBF points,
    sigma 0.5.  A primal active-set loop once ended at its iteration
    limit on it; a few proximal steps on the biases reach the optimum."""
    tp = build_training_problem(load_problem(FIXTURES / "chain_bias.json"))
    assert tp.bias
    model = solve_primal(tp)
    assert 0 < model.qp.iterations < solver.PROX_MAX_STEPS
    res = _kkt_residuals(model)
    scale = 1.0 + float(np.max(model.multipliers))
    assert res["stationarity"] <= 1e-9
    assert res["bias_stationarity"] <= 1e-9
    assert res["feasibility"] <= 1e-9
    assert res["slackness"] <= 1e-9 * scale


def test_linear_kernel_bias_trains_at_unnormalized_scale():
    """The problem file has a linear kernel on three points of magnitude
    80 to 300, so K-hat's diagonal reaches 1.3e5, and biases.  A bias
    gets curvature of about 1 / k(x, x) through the coefficients, so
    proximal steps of one fixed omega contracted by only about 1% per
    step here and reached their cap; omega grows with the square root of
    Q's diagonal instead.  The loss is the one a primal active-set solve
    reached, with KKT residuals below 3e-12."""
    tp = build_training_problem(load_problem(FIXTURES / "linear_bias.json"))
    khat = tp.khat()
    assert tp.bias and np.max(np.diag(khat)) > 1e5
    model = solve_primal(tp)
    assert 0 < model.qp.iterations < solver.PROX_MAX_STEPS
    res = _kkt_residuals(model)
    gradient = 1.0 + float(np.max(np.abs(2.0 * khat @ model.alpha)))
    assert res["stationarity"] <= 1e-9
    assert res["bias_stationarity"] <= 1e-8 * gradient  # the gate's bound, tol.qp
    assert res["feasibility"] <= 1e-9
    assert res["slackness"] <= 1e-9
    assert model.loss == pytest.approx(7.744113573378258e-05, rel=1e-9)


def test_supervision_forces_target_value():
    decls = [PredicateDecl("p1", ("points",))]
    point = {"points": {"x1": (0.5, 0.5)}}
    for label, target in ((1, 1.0), (-1, 0.0)):
        samples = build_samples(point, decls, [("p1", ("x1",), label)])
        model = solve_primal(assemble_problem(decls, samples, []))
        assert model.p_star[0] == pytest.approx(target, abs=1e-8)
    # the last model forces value 0, which the zero expansion gives for free
    assert model.loss == pytest.approx(0.0, abs=1e-12)


def test_loss_is_inverse_kernel_for_single_positive_label():
    decls = [PredicateDecl("p1", ("points",))]
    samples = build_samples({"points": {"x1": (0.5, 0.5)}}, decls, [("p1", ("x1",), 1)])
    model = solve_primal(assemble_problem(decls, samples, []))
    assert model.loss == pytest.approx(1.0 / 1.5, abs=1e-9)


def test_binary_predicate_training_is_consistent():
    doms = {"points": {"x1": (0.2, 0.6), "x2": (0.7, 0.3)}}
    decls = [
        PredicateDecl("p1", ("points",), kernel="poly2"),
        PredicateDecl("p2", ("points", "points"), kernel="poly2"),
    ]
    samples = build_samples(doms, decls, [("p1", ("x1",), 1), ("p1", ("x2",), -1)])
    f = parse_formula("forall x: forall y: (p1(x) * p1(y)) -> p2(x,y)")
    tp = assemble_problem(
        decls,
        samples,
        [f],
        kernels={"poly2": KernelSpec("polynomial", degree=2, offset=1.0)},
        keep_zero_pieces=True,
    )
    assert tp.matrix.n_columns == 5 + 2 + 12
    model = solve_primal(tp)
    assert model.max_violation() <= 1e-8
    assert model.p_star[0] == pytest.approx(1.0, abs=1e-7)
    assert model.p_star[1] == pytest.approx(0.0, abs=1e-7)
    phi1 = next(b for b in tp.blocks if b.block_id == "phi1")
    assert phi1.max_value(model.p_star) <= 1e-8


def test_predict_reproduces_training_values():
    model = solve_primal(_chain_problem())
    for k, pred in enumerate(("p1", "p2", "p3")):
        values = model.predict(pred, [(0.4, 0.3), (0.4, 0.3)])
        assert values.shape == (2,)
        assert values == pytest.approx([model.p_star[k]] * 2, abs=1e-9)
    with pytest.raises(TrainError, match="unknown predicate"):
        model.predict("zzz", [(0.4, 0.3)])


def test_predict_rejects_wrong_dimension(tmp_path):
    model = solve_primal(_chain_problem())
    model.save(tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    for predictor in (model, loaded):
        with pytest.raises(KernelError, match="dimension mismatch"):
            predictor.predict("p1", [(0.4,)])
        with pytest.raises(KernelError, match="dimension mismatch"):
            predictor.predict("p1", [(0.4, 0.3, 0.2)])
        # a bare point is not a sequence of inputs and must not broadcast
        with pytest.raises(KernelError, match="common dimension"):
            predictor.predict("p1", (0.4, 0.3))


def test_save_and_load_round_trip(tmp_path):
    model = solve_primal(_chain_problem())
    path = tmp_path / "model.json"
    model.save(path)
    loaded = load_model(path)
    X = np.random.default_rng(89).random((10, 2))
    for pred in ("p1", "p2", "p3"):
        assert np.allclose(loaded.predict(pred, X), model.predict(pred, X), rtol=0.0, atol=1e-12)
    with pytest.raises(TrainError, match="unknown predicate"):
        loaded.predict("zzz", X)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(TrainError, match="not a model file"):
        load_model(bad)


def test_bias_relaxes_the_problem():
    decls = [PredicateDecl("p1", ("points",)), PredicateDecl("p2", ("points",))]
    samples = build_samples({"points": {"x1": (0.5, 0.5)}}, decls, [("p1", ("x1",), 1)])
    formulas = [parse_formula("forall x: p1(x) -> p2(x)")]
    plain = solve_primal(assemble_problem(decls, samples, formulas))
    biased = solve_primal(assemble_problem(decls, samples, formulas, bias=True))
    assert biased.max_violation() <= 1e-8
    assert biased.loss <= plain.loss + 1e-9
    assert set(biased.biases) == {"p1", "p2"}
    assert not assemble_problem(decls, samples, formulas, bias=True).unique_optimum


def test_restriction_to_active_columns_keeps_optimum():
    model = solve_primal(_chain_problem())
    tp = model.problem
    active_cols = [i for i in range(tp.matrix.n_columns) if model.activity[i]]
    dense = tp.matrix.matrix[:, active_cols]
    cols, coords = np.nonzero(dense.T)
    restricted = ConstraintMatrix(
        dense.shape, coords, cols, dense[coords, cols], tp.matrix.offsets[active_cols],
        [tp.matrix.column_labels[i] for i in active_cols], [], [], {}, {}, {}, {},
    )
    assert restricted.matrix.tobytes() == dense.tobytes()
    tp2 = type(tp)(
        tp.decls,
        tp.index,
        tp.blocks,
        restricted,
        tp.grams,
        tp.kernel_specs,
        tp.psd,
        tp.bias,
        tp.tolerances,
        tp.keep_zero_pieces,
    )
    again = solve_primal(tp2)
    assert np.max(np.abs(again.p_star - model.p_star)) <= 1e-8
    assert again.loss == pytest.approx(model.loss, abs=1e-9)


def _written(tmp_path, payload) -> str:
    path = tmp_path / "out.json"
    write_json(path, payload)
    return path.read_text()


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}, [[]], [{}]]},
        [[], [], {}],
        {"inner": {"deeper": {"deepest": {"x": [1, 2, {"y": []}]}}}},
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, 0.1],
        {"nan": {"v": float("nan")}, "list": [1, [float("-inf"), -0.0]], "scalar": float("inf")},
        [10**30, -(10**30), -7, 0, True, False, None],
        {"flags": [True, False, None], "mixed": [True, {"k": None}, "s", 1.5, 2]},
        {"caf\u00e9": "\u00fcber \u2603 \U0001f600", "ctl": "a\tb\nc\u0000\u001f\"\\"},
        {"tuple": (1, (2.5, "x"), ()), "pair": (1.0, 2.0)},
        [np.float64(0.1), {"f": np.float64(-2.5e-7)}, [np.float64("nan")]],
        {1: "int key", 2.5: [1], True: {"b": 1}, None: "none"},
        "top-level string",
        3.25,
        None,
    ],
    ids=[
        "empty-dict", "empty-list", "nested-empties", "list-of-empties", "deep", "floats", "non-finite-nested",
        "ints-bools", "bools-in-mixed", "non-ascii-control", "tuples", "numpy-float64", "non-string-keys",
        "root-string", "root-float", "root-null",
    ],
)
def test_write_json_matches_json_dumps(tmp_path, payload):
    assert _written(tmp_path, payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        np.int64(3),
        {1, 2},
        {"v": [1.0, np.int64(2)]},
        {"deep": {"x": [1, {"y": np.bool_(True)}]}},
        [{"ok": 1}, {2, 3}],
        {"k": {(1, 2): "tuple key"}},
        {"k": [1, {"v": 1}], (1, 2): "tuple key"},
    ],
    ids=["numpy-int64", "set", "numpy-int64-in-flat", "numpy-bool-nested", "set-in-list", "tuple-key-flat",
         "tuple-key-mixed"],
)
def test_write_json_raises_where_json_dumps_does(tmp_path, payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError):
        write_json(tmp_path / "out.json", payload)
