"""Tests for the multiplier-system analysis and removability verdicts."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest
from oracles import linprog_supports
from scipy.optimize import linprog

from luklearn import analyze, solver
from luklearn.analyze import (
    AnalysisError,
    InconsistentSystem,
    SupportLimitExceeded,
    ablate_and_compare,
    ablated_problem,
    deactivation_report,
    grounded_entailment,
    logical_coefficients,
    minimal_support_sets,
    removable_constraints,
    solve_problem2,
)
from luklearn.constraints import ConstraintBlock, Pieces, assemble_matrix
from luklearn.grounding import PredicateDecl, build_samples
from luklearn.logic import parse_formula
from luklearn.problem import build_training_problem, load_problem, parse_problem
from luklearn.solver import Infeasible
from luklearn.train import assemble_problem, solve_primal

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).parent.parent / "perfbench"
FIXTURE_PATHS = sorted(FIXTURES.glob("*.json"))


def _fixture_model(path):
    """The trained model of a fixture, or None for the infeasible one and
    for the one whose target system has no solution, which no analysis
    accepts."""
    try:
        model = solve_primal(build_training_problem(load_problem(path)))
    except Infeasible:
        assert path.stem == "conflict"
        return None
    if path.stem == "linear_singular":
        for mode in ("all", "logical"):
            with pytest.raises(InconsistentSystem, match="positive semidefinite Gram matrices: p1, p2, p3"):
                removable_constraints(model, mode=mode)
        return None
    return model


def _fit_tol(model, target):
    """The inf-norm residual luklearn accepts for a multiplier fit."""
    return model.problem.tolerances.stationarity * (1.0 + np.max(np.abs(target), initial=0.0))


def _outside(gs, block_id):
    blocked = set(gs.block_columns.get(block_id, ()))
    return [c for c in np.flatnonzero(gs.active) if c not in blocked]


# ---------------------------------------------------------------------------
# Shared fixtures: the transitive implication chain p1 -> p2 -> p3 over one
# point with supervisions, and two algebraic multiplier systems over two and
# three points whose reference solutions are known to high precision.

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


def _chain_model():
    samples = build_samples(
        POINT,
        CHAIN_DECLS,
        [("p1", ("x1",), -1), ("p2", ("x1",), 1), ("p3", ("x1",), 1)],
    )
    tp = assemble_problem(CHAIN_DECLS, samples, [parse_formula(t) for t in CHAIN_TEXTS])
    return solve_primal(tp)


def _two_point_system():
    """Implication chain over two points: matrix, blocks, reference solution."""
    M = np.array(
        [
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
            [-1, 0, 1, 0, 0, 0],
            [0, -1, 0, 1, 0, 0],
            [0, 0, -1, 0, -1, 0],
            [0, 0, 0, -1, 0, -1],
        ],
        dtype=float,
    )
    column_blocks = ["phi1", "phi1", "phi2", "phi2", "phi3", "phi3"]
    lam_star = np.array([0.5549, 0.0, 0.0, 0.5706, 0.0, 0.0])
    return M, column_blocks, lam_star


def _three_point_system():
    I = np.eye(3)
    Z = np.zeros((3, 3))
    M = np.block([[I, Z, I], [-I, I, Z], [Z, -I, -I]])
    column_blocks = ["phi1"] * 3 + ["phi2"] * 3 + ["phi3"] * 3
    lam_star = np.array([0.3520, 0.3453, 0.0, 1.1529, 0.0, 0.5631, 0.4202, 0.0, 0.0])
    return M, column_blocks, lam_star


# ---------------------------------------------------------------------------
# solve_problem2


def test_solve_problem2_invertible_case():
    gs = solve_problem2(np.eye(3), [1.0, 2.0, 3.0])
    assert gs.nullspace_dim == 0
    assert np.allclose(gs.particular, [1.0, 2.0, 3.0], atol=1e-12)
    assert np.array_equal(gs.lambda_of([]), gs.particular)


def test_solve_problem2_inconsistent_target():
    M = np.array([[1.0], [0.0]])
    with pytest.raises(InconsistentSystem, match="residual"):
        solve_problem2(M, [0.0, 1.0])


def test_solve_problem2_parameterization_property():
    M, blocks, lam_star = _two_point_system()
    target = M @ lam_star
    gs = solve_problem2(M, target, column_blocks=blocks)
    assert gs.nullspace_dim == 2
    rng = np.random.default_rng(97)
    for _ in range(50):
        t = rng.standard_normal(gs.nullspace_dim)
        lam = gs.lambda_of(t)
        assert np.max(np.abs(M @ lam - target)) <= 1e-10


def test_solve_problem2_respects_activity():
    M, blocks, lam_star = _two_point_system()
    target = M @ lam_star
    active = np.array([True, False, False, True, False, False])
    gs = solve_problem2(M, target, active, blocks)
    # only the two active columns remain and they determine lambda uniquely
    assert gs.nullspace_dim == 0
    assert np.allclose(gs.particular, lam_star, atol=1e-12)
    rng = np.random.default_rng(101)
    for _ in range(20):
        t = rng.standard_normal(gs.nullspace_dim)
        assert np.max(np.abs(gs.lambda_of(t)[~active])) == 0.0


def test_two_point_reference_solution():
    M, blocks, lam_star = _two_point_system()
    expected_target = np.array([0.5549, 0.0, -0.5549, 0.5706, 0.0, -0.5706])
    assert np.max(np.abs(M @ lam_star - expected_target)) <= 1e-12
    gs = solve_problem2(M, M @ lam_star, column_blocks=blocks)
    assert gs.nullspace_dim == 2
    for v in ([-1, 0, -1, 0, 1, 0], [0, -1, 0, -1, 0, 1]):
        v = np.asarray(v, dtype=float)
        proj = gs.basis @ (gs.basis.T @ v)
        assert np.max(np.abs(proj - v)) <= 1e-10


# ---------------------------------------------------------------------------
# deactivation


def test_deactivate_two_point_chain_conclusion():
    M, blocks, lam_star = _two_point_system()
    gs = solve_problem2(M, M @ lam_star, column_blocks=blocks)
    result = deactivation_report(gs)["phi3"]
    assert result.certificate is not None
    assert np.allclose(result.certificate, lam_star, atol=1e-10)
    assert result.t_unique
    assert result.equality_residual <= 1e-12


def test_deactivate_two_point_chain_premise():
    M, blocks, lam_star = _two_point_system()
    gs = solve_problem2(M, M @ lam_star, column_blocks=blocks)
    result = deactivation_report(gs)["phi1"]
    assert result.certificate is None
    expected_relaxed = np.array([0.0, 0.0, -0.5549, 0.5706, 0.5549, 0.0])
    assert result.relaxed is not None
    assert np.allclose(result.relaxed, expected_relaxed, atol=1e-10)
    # the sign requirement fails only through the negative phi2 coordinate
    assert result.relaxed[2] < -1e-3


def test_deactivate_three_point_chain_conclusion():
    M, blocks, lam_star = _three_point_system()
    gs = solve_problem2(M, M @ lam_star, column_blocks=blocks)
    assert gs.nullspace_dim == 3
    result = deactivation_report(gs)["phi3"]
    lam_bar = np.array([0.7722, 0.3453, 0.0, 1.5731, 0.0, 0.5631, 0.0, 0.0, 0.0])
    assert result.certificate is not None
    assert np.max(np.abs(result.certificate - lam_bar)) <= 1e-9
    assert np.max(np.abs(M @ result.certificate - M @ lam_star)) <= 1e-9


def test_deactivation_report_verdicts():
    """The report holds every block in column order; a block's verdict in
    the target system is whether it has a certificate."""
    M, blocks, lam_star = _two_point_system()
    gs = solve_problem2(M, M @ lam_star, column_blocks=blocks)
    report = deactivation_report(gs)
    assert list(report) == ["phi1", "phi2", "phi3"]
    assert all(result.block == block for block, result in report.items())
    verdicts = {block: result.certificate is not None for block, result in report.items()}
    assert verdicts == {"phi1": False, "phi2": False, "phi3": True}


def test_deactivate_zero_nullspace_cases():
    """With a unique multiplier vector, a block is deactivated exactly when
    that vector already vanishes on it."""
    gs = solve_problem2(np.eye(2), [1.0, 0.0], column_blocks=["a", "b"])
    assert gs.nullspace_dim == 0
    free = deactivation_report(gs)["b"]
    assert np.array_equal(free.certificate, [1.0, 0.0])
    assert np.array_equal(free.relaxed, [1.0, 0.0])
    assert free.t_unique and free.equality_residual == 0.0
    blocked = deactivation_report(gs)["a"]
    assert blocked.certificate is None
    assert blocked.relaxed is None
    assert blocked.t_unique and blocked.equality_residual == 1.0


# ---------------------------------------------------------------------------
# gradient-system certificates


def _gradient_certificates(model):
    return {entry.block_id: entry.kkt for entry in removable_constraints(model).blocks}


def test_kkt_certificate_chain_model():
    model = _chain_model()
    matrix = model.problem.matrix
    target = -2.0 * model.alpha
    certs = _gradient_certificates(model)

    # a block with no active piece avoids nothing: its certificate fits the whole pool
    idle = [b for b in matrix.block_order if not model.activity[matrix.block_columns[b]].any()]
    assert idle
    for block_id in idle:
        full = certs[block_id]
        assert full is not None
        assert np.min(full) >= 0.0 and np.all(full[~model.activity] == 0.0)
        assert np.max(np.abs(matrix.matrix @ full - target)) <= 1e-7

    avoiding = certs["pt:p3:x1"]
    assert avoiding is not None
    for nu in matrix.block_columns["pt:p3:x1"]:
        assert avoiding[nu] == 0.0
    assert np.min(avoiding) >= 0.0
    assert np.max(np.abs(matrix.matrix @ avoiding - target)) <= 1e-7

    assert certs["pt:p2:x1"] is None


def test_kkt_certificate_scales_with_large_alpha():
    """On the ill-conditioned chain max |alpha| is about 9e4, and the best
    fit of the gradient system over the active columns leaves an inf-norm
    residual near 1e-5: above the absolute stationarity tolerance, yet a
    relative error of 1e-10.  A block with no active piece cannot move the
    optimum, so dropping it must keep a certificate."""
    model = solve_primal(build_training_problem(load_problem(FIXTURES / "chain_ill_conditioned.json")))
    matrix = model.problem.matrix
    target = -2.0 * model.alpha
    assert np.max(np.abs(target)) > 1e5
    cols = matrix.block_columns["ub:p1:x00"]
    assert not np.any(model.activity[cols])

    cert = _gradient_certificates(model)["ub:p1:x00"]
    assert cert is not None
    assert np.min(cert) >= 0.0
    assert np.all(cert[~model.activity] == 0.0)
    residual = np.max(np.abs(matrix.matrix @ cert - target))
    assert residual <= 1e-7 * (1.0 + np.max(np.abs(target)))


# ---------------------------------------------------------------------------
# grounded entailment


def _chain_blocks():
    samples = build_samples(POINT, CHAIN_DECLS, [])
    tp = assemble_problem(CHAIN_DECLS, samples, [parse_formula(t) for t in CHAIN_TEXTS])
    return tp.blocks, tp.index.size


def test_entailment_transitive_conclusion():
    blocks, size = _chain_blocks()
    result = grounded_entailment(blocks, "phi3", size)
    assert result.entailed and not result.vacuous
    assert max(result.piece_maxima) <= 1e-9


def test_entailment_fails_for_premise():
    blocks, size = _chain_blocks()
    result = grounded_entailment(blocks, "phi1", size)
    assert not result.entailed
    assert max(result.piece_maxima) == pytest.approx(1.0, abs=1e-9)


def test_entailment_duplicate_block():
    blocks, size = _chain_blocks()
    clone = type(blocks[2])("phi4", "logical", blocks[2].pieces, blocks[2].source)
    result = grounded_entailment(list(blocks) + [clone], "phi4", size)
    assert result.entailed


def test_entailment_unknown_block():
    blocks, size = _chain_blocks()
    with pytest.raises(AnalysisError, match="unknown block"):
        grounded_entailment(blocks, "zzz", size)


def test_entailment_vacuous_when_rest_is_contradictory():
    decls = [PredicateDecl("p1", ("points",))]
    samples = build_samples(POINT, decls, [("p1", ("x1",), 1), ("p1", ("x1",), -1)])
    tp = assemble_problem(decls, samples, [])
    result = grounded_entailment(tp.blocks, "lb:p1:x1", tp.index.size)
    assert result.vacuous and result.entailed


def test_entailment_of_box_side_is_not_circular():
    decls = [PredicateDecl("p1", ("points",)), PredicateDecl("p2", ("points",))]
    samples = build_samples(POINT, decls, [])

    # nothing else bounds p2 from above, so its upper bound is not entailed
    free = assemble_problem(decls, samples, [])
    result = grounded_entailment(free.blocks, "ub:p2:x1", free.index.size)
    assert not result.entailed

    # with one atom and no other block, nothing but the tested side bounds it
    alone = assemble_problem(decls[:1], build_samples(POINT, decls[:1], []), [])
    for side in ("lb", "ub"):
        result = grounded_entailment(alone.blocks, f"{side}:p1:x1", alone.index.size)
        assert result.piece_maxima == [float("inf")]

    # p2 <= p1 plus the p1 box does bound p2
    bounded = assemble_problem(decls, samples, [parse_formula("forall x: p2(x) -> p1(x)")])
    result = grounded_entailment(bounded.blocks, "ub:p2:x1", bounded.index.size)
    assert result.entailed


def _highs_entailment(tp, block_id, box_as_bounds):
    """(vacuous, piece maxima) of ``block_id`` by HiGHS over every other
    block's rows.  With ``box_as_bounds`` the unit box is also variable
    bounds (less the tested side of a box block); without, the variables
    are free and only the consistency blocks' rows hold the box."""
    size = tp.index.size
    rows, rhs = [], []
    for block in tp.blocks:
        if block.block_id != block_id:
            rows += list(block.pieces.dense(size))
            rhs += (-block.pieces.constants).tolist()
    bounds = [(0.0, 1.0) if box_as_bounds else (None, None)] * size
    kind, _, label = block_id.partition(":")
    if box_as_bounds and kind in ("lb", "ub"):
        k = [tp.index.label(i) for i in range(size)].index(label)
        bounds[k] = (None, 1.0) if kind == "lb" else (0.0, None)
    region = dict(A_ub=np.array(rows) if rows else None, b_ub=np.array(rhs) if rows else None,
                  bounds=bounds, method="highs")
    target = next(b for b in tp.blocks if b.block_id == block_id)
    maxima = []
    pieces = target.pieces
    for row, constant, length in zip(pieces.dense(size), pieces.constants.tolist(), pieces.lengths()):
        if not length:
            maxima.append(constant)
            continue
        res = linprog(-row, **region)
        assert res.status in (0, 2, 3)
        # HiGHS can call an LP that is unbounded over free variables
        # infeasible; the region alone tells the two apart
        if res.status == 2 and linprog(np.zeros(size), **region).status == 2:
            return True, []
        maxima.append(-res.fun + constant if res.status == 0 else np.inf)
    return False, maxima


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_entailment_maxima_match_highs(path):
    """The presolved entailment LPs (box lower sides as variable bounds,
    consistency blocks dropped) give HiGHS's maxima over the unpresolved
    region, with the box as variable bounds and as rows over free
    variables, for every block."""
    tp = build_training_problem(load_problem(path))
    for block in tp.blocks:
        result = grounded_entailment(tp.blocks, block.block_id, tp.index.size, tp.tolerances)
        for box_as_bounds in (True, False):
            vacuous, maxima = _highs_entailment(tp, block.block_id, box_as_bounds)
            where = (block.block_id, box_as_bounds)
            assert result.vacuous == vacuous, where
            assert len(result.piece_maxima) == len(maxima), where
            for got, want in zip(result.piece_maxima, maxima):
                if np.isinf(want):
                    assert got == want, where
                else:
                    assert abs(got - want) <= 1e-9, where


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_analysis_entailment_matches_grounded_entailment(path):
    """The entailment LPs of one analysis, all started from one region
    and pivoted in stacks, give each block the result of its own
    ``grounded_entailment``, maxima equal bit for bit."""
    model = _fixture_model(path)
    if model is None:
        return
    tp = model.problem
    for mode in ("all", "logical"):
        for entry in removable_constraints(model, mode=mode, check_entailment=True).blocks:
            alone = grounded_entailment(tp.blocks, entry.block_id, tp.index.size, tp.tolerances)
            where = (mode, entry.block_id)
            assert (entry.entailment.entailed, entry.entailment.vacuous) == (alone.entailed, alone.vacuous), where
            assert len(entry.entailment.piece_maxima) == len(alone.piece_maxima), where
            for got, want in zip(entry.entailment.piece_maxima, alone.piece_maxima):
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), where


def test_analysis_runs_one_phase1(monkeypatch):
    """One analysis with entailment runs phase 1 once, for every block of
    the ill-conditioned chain."""
    model = _fixture_model(FIXTURES / "chain_ill_conditioned.json")
    calls = []
    phase1 = solver._phase1

    def counting(*args):
        calls.append(args[0].shape)
        return phase1(*args)

    monkeypatch.setattr(solver, "_phase1", counting)
    report = removable_constraints(model, check_entailment=True)
    assert len(calls) == 1
    assert len(report.blocks) > 100
    assert all(entry.entailment is not None and not entry.entailment.vacuous for entry in report.blocks)


# ---------------------------------------------------------------------------
# minimal support sets


def test_minimal_support_sets_chain_model():
    model = _chain_model()
    sets = minimal_support_sets(
        model.problem.matrix, model.alpha, model.activity, limit=20
    )
    found = {s.blocks for s in sets}
    assert found == {("phi2", "ub:p3:x1"), ("ub:p2:x1", "ub:p3:x1")}
    for s in sets:
        assert np.min(s.certificate) >= 0.0
        assert np.max(np.abs(model.problem.matrix.matrix @ s.certificate - model.alpha)) <= 1e-7


def test_minimal_support_sets_limit_guard():
    model = _chain_model()
    with pytest.raises(SupportLimitExceeded):
        minimal_support_sets(model.problem.matrix, model.alpha, model.activity, limit=3)


def test_minimal_support_sets_unsolvable_pool_takes_one_solve(monkeypatch):
    """No active column has a negative first entry, so none of the 2^4
    subsets of the pool can carry the target; one fit of the whole pool
    decides that."""
    matrix = _chain_model().problem.matrix
    pool_cols = [1, 3, 4, 9]
    activity = np.isin(np.arange(matrix.n_columns), pool_cols)
    target = np.array([-1.0, 0.0, 0.0])
    assert not linprog_supports(matrix.matrix, target, pool_cols)

    calls = []
    nnls = analyze.nnls

    def counting(*args):
        calls.append(args)
        return nnls(*args)

    monkeypatch.setattr(analyze, "nnls", counting)
    assert minimal_support_sets(matrix, target, activity, limit=20) == []
    assert len(calls) == 1


def test_minimal_support_sets_unsolvable_pool_ignores_the_limit():
    """The ill-conditioned chain's pool of active blocks exceeds the
    default limit, but it cannot carry the target, so no set exists and
    the guard does not apply."""
    model = _fixture_model(FIXTURES / "chain_ill_conditioned.json")
    matrix = model.problem.matrix
    pool = [b for b in matrix.block_order if model.activity[matrix.block_columns[b]].any()]
    assert len(pool) > 20
    assert not linprog_supports(matrix.matrix, model.alpha, np.flatnonzero(model.activity), _fit_tol(model, model.alpha))
    assert minimal_support_sets(matrix, model.alpha, model.activity, limit=20) == []


def test_minimal_support_sets_against_brute_force():
    model = _chain_model()
    matrix = model.problem.matrix
    target = model.alpha
    active = model.activity
    pool = [
        b for b in matrix.block_order
        if any(active[nu] for nu in matrix.block_columns[b])
    ]
    reference = []
    for size in range(len(pool) + 1):
        for subset in itertools.combinations(pool, size):
            cols = [
                nu for b in subset for nu in matrix.block_columns[b] if active[nu]
            ]
            if linprog_supports(matrix.matrix, target, cols):
                reference.append(subset)
        if reference:
            break
    sets = minimal_support_sets(matrix, target, active, limit=20)
    assert {s.blocks for s in sets} == set(reference)


def test_minimal_support_sets_fix_mandatory_blocks(monkeypatch):
    """Only block a reaches the first coordinate, so every support set
    holds it and only the eight copies of b are enumerated: one fit of
    the pool, two leave-one-out fits (a, and b1, the copy the pool's fit
    uses), {a} and {a, b2} ... {a, b8}; {a, b1} takes the pool's fit.
    Trying every subset would take 46 fits."""
    blocks = [ConstraintBlock("a", "logical", Pieces.of([(((0, 1.0),), 0.0)]))]
    blocks += [
        ConstraintBlock(f"b{i}", "logical", Pieces.of([(((1, 1.0),), 0.0)])) for i in range(1, 9)
    ]
    matrix = assemble_matrix(blocks, 2)
    calls = _counting_nnls(monkeypatch)
    sets = minimal_support_sets(matrix, np.array([1.0, 1.0]), np.ones(9, dtype=bool))
    assert [s.blocks for s in sets] == [("a", f"b{i}") for i in range(1, 9)]
    assert len(calls) == 11


def test_minimal_support_sets_match_exhaustive_search_on_random_systems():
    """Integer systems with one to two pieces per block, most targets in
    the cone of a random column subset: the sets, in order, are those of
    an exhaustive search decided by HiGHS."""
    rng = np.random.default_rng(41)
    with_sets = 0
    for trial in range(48):
        size = int(rng.integers(2, 5))
        blocks = []
        for b in range(int(rng.integers(3, 8))):
            pieces = []
            for _ in range(int(rng.integers(1, 3))):
                coeffs = rng.integers(-2, 3, size).astype(float).tolist()
                terms = tuple((k, c) for k, c in enumerate(coeffs) if c) or ((0, 1.0),)
                if (terms, 0.0) not in pieces:
                    pieces.append((terms, 0.0))
            blocks.append(ConstraintBlock(f"b{b}", "logical", Pieces.of(pieces)))
        matrix = assemble_matrix(blocks, size)
        active = rng.random(matrix.n_columns) < 0.8
        lam = rng.integers(0, 3, matrix.n_columns) * (rng.random(matrix.n_columns) < 0.4) * active
        target = matrix.matrix @ lam if trial % 4 else rng.normal(size=size)
        pool = [b for b in matrix.block_order if active[matrix.block_columns[b]].any()]
        reference = []
        for k in range(len(pool) + 1):
            for subset in itertools.combinations(pool, k):
                cols = [nu for b in subset for nu in matrix.block_columns[b] if active[nu]]
                if linprog_supports(matrix.matrix, target, cols, 2e-7):
                    reference.append(subset)
            if reference:
                break
        sets = minimal_support_sets(matrix, target, active)
        assert [s.blocks for s in sets] == reference, trial
        with_sets += bool(reference)
    assert with_sets >= 30


# ---------------------------------------------------------------------------
# ablation


def test_ablate_necessary_block_moves_optimum():
    model = _chain_model()
    record = ablate_and_compare(model.problem, "pt:p2:x1", model)
    assert not record.identical
    assert record.ablated_loss < record.loss - 1e-6
    assert record.p_distance > 1e-7


def test_ablate_removable_block_keeps_optimum():
    model = _chain_model()
    record = ablate_and_compare(model.problem, "pt:p3:x1", model)
    assert record.identical
    assert record.dropped_satisfied
    assert record.ablated_loss == pytest.approx(record.loss, abs=1e-9)


def test_ablated_problem_structure():
    model = _chain_model()
    reduced = ablated_problem(model.problem, "phi2")
    assert reduced.matrix.n_columns == model.problem.matrix.n_columns - 1
    assert "phi2" not in reduced.matrix.block_order
    with pytest.raises(AnalysisError, match="unknown block"):
        ablated_problem(model.problem, "zzz")


@pytest.mark.parametrize("path", FIXTURE_PATHS + sorted(FIXTURES.glob("refused/*.json")), ids=lambda p: p.stem)
def test_ablated_matrix_is_the_assembly_of_the_other_blocks(path):
    """Ablating a block keeps M less that block's columns: the other
    column labels in order, each kept column with the parent's entries
    and offset, and every zero column of a problem that keeps zero
    pieces."""
    tp = build_training_problem(load_problem(path))
    parent = tp.matrix
    empty = np.bincount(parent.cols, minlength=parent.shape[1]) == 0
    assert empty.any() or not tp.keep_zero_pieces
    for block in tp.blocks:
        got = ablated_problem(tp, block.block_id).matrix
        kept = np.array([b != block.block_id for b in parent.column_block], dtype=bool)
        assert got.shape == (parent.shape[0], int(kept.sum()))
        assert got.column_labels == [label for label, k in zip(parent.column_labels, kept) if k]
        assert got.block_order == [b for b in parent.block_order if b != block.block_id]
        position = np.cumsum(kept) - 1  # a kept column's index in the ablated matrix
        entries = kept[parent.cols]
        assert np.array_equal(got.cols, position[parent.cols[entries]]), block.block_id
        assert np.array_equal(got.coords, parent.coords[entries]), block.block_id
        assert got.values.tobytes() == parent.values[entries].tobytes(), block.block_id
        assert got.offsets.tobytes() == parent.offsets[kept].tobytes(), block.block_id
        assert np.array_equal(np.bincount(got.cols, minlength=got.shape[1]) == 0, empty[kept])


def _idle(model, block_id) -> bool:
    """Whether every trained multiplier of ``block_id`` is exactly zero."""
    matrix = model.problem.matrix
    return not model.multipliers[matrix.block_columns.get(block_id, [])].any()


def _counting_solve_primal(monkeypatch):
    """Route ``analyze``'s ``solve_primal`` through a wrapper; returns
    the list it appends each call's problem to."""
    calls = []

    def counting(tp):
        calls.append(tp)
        return solve_primal(tp)

    monkeypatch.setattr(analyze, "solve_primal", counting)
    return calls


@pytest.mark.parametrize("path", [p for p in FIXTURE_PATHS if p.stem != "conflict"], ids=lambda p: p.stem)
def test_ablating_an_idle_block_matches_retraining(path):
    """A block whose multipliers are all zero is ablated without a
    retrain; its record matches the one an explicit retrain without the
    block gives: the same flags, the distance within 1e-12 relative to
    the loss, and the loss within the KKT gate's tolerance relative to
    it, the accuracy a retrain itself has.  On chain_bias and
    chain_ill_conditioned retrains scatter around the trained loss by up
    to 2.3e-10 and 5.8e-10 relative; on the other fixtures the two
    losses are equal."""
    tp = build_training_problem(load_problem(path))
    model = solve_primal(tp)
    idle = [b.block_id for b in tp.blocks if _idle(model, b.block_id)]
    assert idle
    for block_id in idle:
        record = ablate_and_compare(tp, block_id, model)
        assert record.p_distance == 0.0 and record.ablated_loss == record.loss, block_id
        retrained = solve_primal(ablated_problem(tp, block_id))
        violation = next(b for b in tp.blocks if b.block_id == block_id).max_value(retrained.p_star)
        distance = float(np.max(np.abs(model.p_star - retrained.p_star), initial=0.0))
        assert record.identical == (distance <= 1e-7), block_id
        assert record.dropped_satisfied == (violation <= 1e-7), block_id
        assert abs(record.ablated_loss - retrained.loss) <= tp.tolerances.qp * (1.0 + model.loss), block_id
        assert abs(record.p_distance - distance) <= 1e-12 * (1.0 + model.loss), block_id


def test_ablation_retrains_only_for_a_block_with_a_multiplier(monkeypatch):
    """Ablating a block trains the full problem, then retrains only when
    one of the block's multipliers is nonzero."""
    tp = build_training_problem(load_problem(FIXTURES / "example4.json"))
    model = solve_primal(tp)
    calls = _counting_solve_primal(monkeypatch)
    kinds = set()
    for block in tp.blocks:
        calls.clear()
        ablate_and_compare(tp, block.block_id)
        idle = _idle(model, block.block_id)
        assert len(calls) == (1 if idle else 2), block.block_id
        kinds.add(idle)
    assert kinds == {True, False}


def test_ablation_retrains_when_the_gate_refuses_the_trained_point(monkeypatch):
    """When the KKT gate refuses the trained point on the ablated QP, an
    idle block is ablated by retraining, exactly as a busy one."""
    tp = build_training_problem(load_problem(FIXTURES / "example4.json"))
    model = solve_primal(tp)
    block_id = next(b.block_id for b in tp.blocks if _idle(model, b.block_id))
    monkeypatch.setattr(analyze, "_kkt_residuals", lambda *args: ({}, False))
    calls = _counting_solve_primal(monkeypatch)
    record = ablate_and_compare(tp, block_id, model)
    assert len(calls) == 1 and [b.block_id for b in calls[0].blocks] == [b.block_id for b in tp.blocks if b.block_id != block_id]
    retrained = solve_primal(ablated_problem(tp, block_id))
    assert record.ablated_loss == retrained.loss
    assert record.p_distance == float(np.max(np.abs(model.p_star - retrained.p_star), initial=0.0))


@pytest.mark.parametrize("sigma", [0.2, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verdicts_agree_with_ablation_on_ladder_chains(monkeypatch, seed, sigma):
    """Ablation as the oracle of every verdict on the n = 10 ladder
    chains, judged on p*'s inf-norm shift: an entailed or removable
    block moves it by at most 1e-7, a necessary one by more, and a
    candidate keeps the loss."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    kb = gen.chain_kb(np.random.default_rng([seed, 5, 10, round(100 * sigma)]), 10, sigma)
    model = solve_primal(build_training_problem(parse_problem(kb.problem())))
    report = removable_constraints(model, check_entailment=True)
    for entry in report.blocks:
        record = ablate_and_compare(model.problem, entry.block_id, model)
        if entry.verdict in ("entailed", "removable"):
            assert record.p_distance <= 1e-7, (entry.block_id, entry.verdict, record.p_distance)
        elif entry.verdict == "necessary":
            assert record.p_distance > 1e-7, (entry.block_id, record.p_distance)
        else:
            assert entry.verdict == "candidate"
            assert abs(record.ablated_loss - record.loss) <= 1e-7 * (1.0 + record.loss), entry.block_id


# ---------------------------------------------------------------------------
# full report


def test_removable_constraints_verdicts_match_ablation():
    model = _chain_model()
    report = removable_constraints(model)
    verdicts = {entry.block_id: entry.verdict for entry in report.blocks}
    assert verdicts["pt:p2:x1"] == "necessary"
    for block_id in ("phi1", "phi2", "phi3", "pt:p1:x1", "pt:p3:x1", "ub:p2:x1", "ub:p3:x1"):
        assert verdicts[block_id] == "removable"

    # every verdict must agree with actually retraining without the block
    for entry in report.blocks:
        record = ablate_and_compare(model.problem, entry.block_id, model)
        if entry.verdict == "removable":
            assert record.identical, entry.block_id
        elif entry.verdict == "necessary":
            assert not record.identical, entry.block_id


def test_removable_constraints_entailment_mode():
    model = _chain_model()
    report = removable_constraints(model, check_entailment=True)
    entry = next(b for b in report.blocks if b.block_id == "phi3")
    assert entry.verdict == "entailed"
    assert entry.entailment is not None and entry.entailment.entailed


def test_removable_constraints_logical_mode():
    model = _chain_model()
    report = removable_constraints(model, mode="logical")
    assert [b.block_id for b in report.blocks] == ["phi1", "phi2", "phi3"]
    matrix = model.problem.matrix
    reconstructed = model.alpha.copy()
    for nu, block_id in enumerate(matrix.column_block):
        if matrix.families[block_id] != "logical":
            reconstructed += 0.5 * model.multipliers[nu] * matrix.matrix[:, nu]
    assert np.allclose(report.target, reconstructed, atol=1e-12)
    assert np.array_equal(report.target, logical_coefficients(model, "logical"))
    assert report.general.residual <= 1e-7


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_deactivation_certificates_solve_the_target_system(path):
    """Every reported deactivation certificate is a nonnegative solution of
    M lam = target that vanishes on its block and on inactive columns,
    whichever point of the solution set NNLS returned, and that lies in
    the solution set's parameterization."""
    model = _fixture_model(path)
    if model is None:
        return
    report = removable_constraints(model)
    gs = report.general
    scale = 1.0 + np.max(np.abs(gs.target), initial=0.0)
    for entry in report.blocks:
        cert = None if entry.deactivation is None else entry.deactivation.certificate
        if cert is None:
            continue
        assert np.min(cert) >= 0.0
        assert np.all(cert[gs.block_columns[entry.block_id]] == 0.0)
        assert np.all(cert[~gs.active] == 0.0)
        assert np.max(np.abs(gs.matrix @ cert - gs.target)) <= 1e-9 * scale
        t = gs.basis.T @ (cert - gs.particular)
        assert np.max(np.abs(gs.lambda_of(t) - cert)) <= 1e-9 * scale


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_deactivation_certificates_exist_where_linprog_finds_one(path):
    """A block has a deactivation certificate exactly when HiGHS fits the
    target with nonnegative multipliers on the active columns outside it,
    within the stationarity tolerance times 1 + ||target||_inf."""
    model = _fixture_model(path)
    if model is None:
        return
    for mode in ("all", "logical"):
        report = removable_constraints(model, mode=mode)
        gs = report.general
        tol = _fit_tol(model, gs.target)
        for entry in report.blocks:
            if entry.deactivation is None:
                continue
            expected = linprog_supports(gs.matrix, gs.target, _outside(gs, entry.block_id), tol)
            assert (entry.deactivation.certificate is not None) == expected, (mode, entry.block_id)


def _counting_nnls(monkeypatch):
    """Route ``analyze``'s NNLS through a wrapper; returns the list of
    (shape, matrix bytes, target bytes) it appends one entry per call to."""
    calls = []
    nnls = analyze.nnls

    def counting(A, b):
        calls.append((A.shape, A.tobytes(), np.asarray(b).tobytes()))
        return nnls(A, b)

    monkeypatch.setattr(analyze, "nnls", counting)
    return calls


def test_deactivation_fits_each_distinct_question_once(monkeypatch):
    """On the ill-conditioned chain the whole active pool cannot carry the
    target, so deactivation fits no block and runs no LP.  Each system's
    pool is fitted once.  A gradient question is fitted on its own only
    when its columns miss one the pool's fit uses, that is, once per
    block holding a column of that fit's support; every other block takes
    the pool's fit."""
    model = _fixture_model(FIXTURES / "chain_ill_conditioned.json")
    matrix = model.problem.matrix
    assert not linprog_supports(matrix.matrix, model.alpha, np.flatnonzero(model.activity), _fit_tol(model, model.alpha))
    pool = np.flatnonzero(model.activity)
    gradient = -2.0 * model.alpha
    lam_pool, _ = solver.nnls(matrix.matrix[:, pool], gradient)
    support = np.zeros(matrix.n_columns, dtype=bool)
    support[pool] = lam_pool > 0.0

    def no_lp(*args, **kwargs):
        raise AssertionError("deactivation ran an LP")

    calls = _counting_nnls(monkeypatch)
    monkeypatch.setattr(analyze, "LpRegion", no_lp)
    report = removable_constraints(model)

    assert all(entry.deactivation.certificate is None for entry in report.blocks)
    assert len(set(calls)) == len(calls)
    assert sum(b == model.alpha.tobytes() for _, _, b in calls) == 1
    pool_shape = (matrix.matrix.shape[0], pool.size)
    assert sum(shape == pool_shape and b == gradient.tobytes() for shape, _, b in calls) == 1
    holding = [b for b in matrix.block_order if support[matrix.block_columns[b]].any()]
    busy = [b for b in matrix.block_order if model.activity[matrix.block_columns[b]].any()]
    assert 0 < len(holding) < len(busy)
    assert len(calls) == 2 + len(holding)


def _workload_models(monkeypatch, workload, names=None):
    """The trained models of perfbench's ``workload`` KBs at seed 3, or
    of those in ``names``, that train; the infeasible ones are left
    out."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    models = []
    for inst in gen.workload(workload, 3):
        if names is not None and inst.name not in names:
            continue
        try:
            models.append(solve_primal(build_training_problem(parse_problem(inst.kb.problem()))))
        except Infeasible:
            pass
    return models


def test_analysis_fits_each_column_set_once(monkeypatch):
    """One analysis with the minimal-set search solves each (column set,
    target) pair at most once: the deactivation certificates, the
    minimal-set search and its mandatory-block test share the target
    system's fits.  Checked in both modes on every fixture that analyzes
    and on perfbench's ``audit`` KBs."""
    models = [m for m in map(_fixture_model, FIXTURE_PATHS) if m is not None] + _workload_models(monkeypatch, "audit")
    calls = _counting_nnls(monkeypatch)
    searched = 0
    for model in models:
        for mode in ("all", "logical"):
            calls.clear()
            try:
                report = removable_constraints(model, mode=mode, minimal_sets=True)
                searched += bool(report.minimal_sets)
            except SupportLimitExceeded:
                pass
            assert calls and len(set(calls)) == len(calls), mode
    assert searched > 0


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_logical_mode_matches_the_logical_blocks_matrix(path):
    """Mode "logical" masks the activity to the logical blocks' columns of
    M, and its report writes, value for value, what the public functions
    give over the matrix assembled from the logical blocks alone."""
    model = _fixture_model(path)
    if model is None:
        return
    tp = model.problem
    tol = tp.tolerances
    sub = assemble_matrix([b for b in tp.blocks if b.family == "logical"], tp.index.size, tp.keep_zero_pieces)
    target = logical_coefficients(model, "logical")
    active = model.activity[[tp.matrix.families[b] == "logical" for b in tp.matrix.column_block]]
    gs = solve_problem2(sub.matrix, target, active, sub.column_block, tol)
    deactivations = deactivation_report(gs, tol)
    try:
        sets = minimal_support_sets(sub, target, active, 20, tol)
    except SupportLimitExceeded:
        with pytest.raises(SupportLimitExceeded):
            removable_constraints(model, mode="logical", minimal_sets=True)
        sets = None

    def vec(v):
        return None if v is None else dict(zip(sub.column_labels, v.tolist()))

    data = removable_constraints(model, mode="logical", minimal_sets=sets is not None).to_dict()
    assert data["target"] == target.tolist()
    assert data["nullspace_dimension"] == gs.nullspace_dim
    assert data["system_residual"] == gs.residual
    assert data["particular_solution"] == vec(gs.particular)
    assert [b["id"] for b in data["blocks"]] == sub.block_order
    for entry in data["blocks"]:
        d = deactivations.get(entry["id"])
        assert entry["target_system"] == (
            None
            if d is None
            else {
                "certificate": vec(d.certificate),
                "relaxed": vec(d.relaxed),
                "t_unique": d.t_unique,
                "equality_residual": d.equality_residual,
            }
        ), entry["id"]
    if sets is not None:
        assert data["minimal_support_sets"] == [{"blocks": list(s.blocks), "certificate": vec(s.certificate)} for s in sets]


def _same_vector(a, b) -> bool:
    """Both None, or arrays equal bit for bit."""
    return (a is None and b is None) or (a is not None and b is not None and a.tobytes() == b.tobytes())


# Chain KBs of perfbench's ``train`` workload (seed 3) whose per-block
# systems of phi2, in mode ``all``, have singular values between the
# machine epsilon and the nullspace cutoff, times the largest.
NEAR_SINGULAR_TRAIN_KBS = ("train_n4_s0.3_2", "train_n4_s0.3_3", "train_n4_s0.5_1")


def test_relaxed_deactivations_drop_what_the_nullspace_drops(monkeypatch):
    """Each block's relaxed t, the minimum-norm solution of its equations
    in lam(t), has no component along the right singular vectors of
    those equations whose singular values are at or below the nullspace
    cutoff times the largest: the solve truncates where ``nullspace``
    does.  Checked in both modes on every fixture that analyzes and on
    three KBs with singular values inside that band."""
    models = [m for m in map(_fixture_model, FIXTURE_PATHS) if m is not None]
    models += _workload_models(monkeypatch, "train", NEAR_SINGULAR_TRAIN_KBS)
    assert len(models) == len(FIXTURE_PATHS) - 2 + len(NEAR_SINGULAR_TRAIN_KBS)
    checked = 0
    for model in models:
        cutoff = model.problem.tolerances.nullspace
        for mode in ("all", "logical"):
            report = removable_constraints(model, mode=mode)
            gs = report.general
            for entry in report.blocks:
                rows = gs.basis[[c for c in gs.block_columns[entry.block_id] if gs.active[c]]]
                if not rows.size or entry.deactivation.relaxed is None:
                    continue
                t = gs.basis.T @ (entry.deactivation.relaxed - gs.particular)  # orthonormal basis
                _, s, vt = np.linalg.svd(rows)
                rank = int(np.sum(s > cutoff * s[0]))
                assert entry.deactivation.t_unique is (rank == rows.shape[1])
                assert np.max(np.abs(vt[rank:] @ t), initial=0.0) <= 1e-9 * (1.0 + np.max(np.abs(t))), (
                    mode,
                    entry.block_id,
                )
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_blocks_with_no_active_piece_share_the_whole_systems_answers(path, monkeypatch):
    """A block with no active piece takes the deactivation result and the
    gradient certificate of the whole active system, bit for bit what its
    own ``_deactivate`` and ``_Fits.multipliers`` would give; so the
    analysis solves one least-squares system for the whole system and one
    per block with an active piece, and none for the others."""
    model = _fixture_model(path)
    if model is None:
        return
    tol = model.problem.tolerances
    matrix = model.problem.matrix
    lstsq_calls = []
    min_norm_solution = analyze.min_norm_solution

    def counting(M, rhs, *args):
        lstsq_calls.append(np.shape(M))
        return min_norm_solution(M, rhs, *args)

    monkeypatch.setattr(analyze, "min_norm_solution", counting)
    for mode in ("all", "logical"):
        lstsq_calls.clear()
        report = removable_constraints(model, mode=mode)
        gs = report.general
        busy = [b for b, cols in gs.block_columns.items() if gs.active[cols].any()]
        assert len(lstsq_calls) == 1 + len(busy), mode

        fits = analyze._Fits(gs.matrix, gs.target, np.flatnonzero(gs.active), tol)
        gradient = analyze._Fits(matrix.matrix, -2.0 * model.alpha, np.flatnonzero(model.activity), tol)
        for entry in report.blocks:
            if entry.active_columns:
                continue
            unfitted = gs.active.copy()
            unfitted[gs.block_columns[entry.block_id]] = False
            fresh = analyze._deactivate(gs, entry.block_id, tol, fits.multipliers(np.flatnonzero(unfitted)))
            shared = entry.deactivation
            assert shared.block == entry.block_id
            assert _same_vector(shared.certificate, fresh.certificate), (mode, entry.block_id)
            assert _same_vector(shared.relaxed, fresh.relaxed), (mode, entry.block_id)
            assert shared.t_unique is fresh.t_unique
            assert np.float64(shared.equality_residual).tobytes() == np.float64(fresh.equality_residual).tobytes()
            outside = model.activity.copy()
            outside[matrix.block_columns[entry.block_id]] = False
            assert _same_vector(entry.kkt, gradient.multipliers(np.flatnonzero(outside))), (mode, entry.block_id)


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_gradient_certificates_exist_where_linprog_finds_one(path):
    """A block has a gradient certificate exactly when HiGHS fits -2 alpha
    with nonnegative multipliers on the active columns outside it, within
    the stationarity tolerance times 1 + ||2 alpha||_inf, whether the
    analysis fitted those columns or took the whole pool's fit."""
    model = _fixture_model(path)
    if model is None:
        return
    matrix = model.problem.matrix
    target = -2.0 * model.alpha
    tol = _fit_tol(model, target)
    for mode in ("all", "logical"):
        for entry in removable_constraints(model, mode=mode).blocks:
            outside = model.activity.copy()
            outside[matrix.block_columns[entry.block_id]] = False
            expected = linprog_supports(matrix.matrix, target, np.flatnonzero(outside), tol)
            assert (entry.kkt is not None) == expected, (mode, entry.block_id)


def test_fits_answer_every_subset_like_a_fresh_nnls(monkeypatch):
    """On random systems, every subset of the pool gets the accept or
    reject decision of its own NNLS, and an accepted answer fits the
    target as well as that NNLS does; a subset holding the support of
    the pool's fit costs no NNLS."""
    rng = np.random.default_rng(2024)
    tol = solver.DEFAULT_TOLERANCES
    calls = _counting_nnls(monkeypatch)
    reused = 0
    for trial in range(40):
        S, N = int(rng.integers(2, 5)), int(rng.integers(4, 8))
        M = rng.standard_normal((S, N))
        pool = sorted(int(c) for c in rng.choice(N, size=int(rng.integers(3, N + 1)), replace=False))
        if trial % 2:
            target = rng.standard_normal(S)
        else:
            used = rng.choice(pool, size=int(rng.integers(1, S + 1)), replace=False)
            target = M[:, used] @ rng.uniform(0.5, 2.0, used.size)
        limit = analyze._fit_tolerance(target, tol)
        fits = analyze._Fits(M, target, pool, tol)
        if fits.pool_fits:
            lam_pool, _ = solver.nnls(M[:, pool], target)
            support = {c for c, v in zip(pool, lam_pool) if v > 0.0}
        for size in range(len(pool) + 1):
            for cols in itertools.combinations(pool, size):
                cols = list(cols)
                before = len(calls)
                lam = fits.multipliers(cols)
                fresh, _ = solver.nnls(M[:, cols], target)
                fresh_residual = np.max(np.abs(M[:, cols] @ fresh - target), initial=0.0)
                assert (lam is not None) == (fresh_residual <= limit), (trial, cols)
                if fits.pool_fits and support <= set(cols):
                    assert len(calls) == before, (trial, cols)
                    reused += 1
                if lam is None:
                    continue
                assert np.min(lam) >= 0.0
                assert np.all(np.delete(lam, cols) == 0.0)
                assert np.max(np.abs(M @ lam - M[:, cols] @ fresh)) <= limit
    assert reused > 0


def test_fits_check_each_column_set_once(monkeypatch):
    """Each distinct column set's fit is checked against the tolerance
    once, however often it is asked for, and a caller that changes a
    returned vector does not change a later answer."""
    rng = np.random.default_rng(77)
    checks = []
    answer = analyze._Fits._answer

    def counting(self, key):
        checks.append(key)
        return answer(self, key)

    monkeypatch.setattr(analyze._Fits, "_answer", counting)
    M = rng.standard_normal((3, 6))
    target = M[:, [0, 2, 4]] @ np.array([1.0, 0.5, 2.0])
    fits = analyze._Fits(M, target, range(6), solver.DEFAULT_TOLERANCES)
    subsets = [list(c) for size in (2, 3, 4) for c in itertools.combinations(range(6), size)]
    first = [fits.multipliers(cols) for cols in subsets]
    keys = {fits._key(cols) for cols in subsets}
    assert len(checks) == len(set(checks)) == len(keys)
    assert any(lam is not None for lam in first)
    for lam in first:
        if lam is not None:
            lam[:] = -1.0
    again = [fits.multipliers(cols) for cols in subsets]
    assert len(checks) == len(keys)
    for cols, lam in zip(subsets, again):
        fresh = answer(fits, fits._key(cols))
        assert (lam is None and fresh is None) or lam.tobytes() == fresh.tobytes(), cols


def test_report_to_dict_structure():
    model = _chain_model()
    report = removable_constraints(model, check_entailment=True, minimal_sets=True)
    data = report.to_dict()
    assert data["mode"] == "all"
    assert data["unique_optimum"] is True
    assert set(data["particular_solution"]) == set(model.problem.matrix.column_labels)
    by_id = {b["id"]: b for b in data["blocks"]}
    assert by_id["pt:p2:x1"]["verdict"] == "necessary"
    assert by_id["phi3"]["verdict"] == "entailed"
    assert by_id["phi2"]["gradient_certificate"] is not None
    assert len(data["minimal_support_sets"]) == 2


def test_logical_coefficients_rejects_unknown_mode():
    model = _chain_model()
    with pytest.raises(AnalysisError, match="unknown mode"):
        logical_coefficients(model, "weird")
