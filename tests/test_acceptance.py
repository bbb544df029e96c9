"""Acceptance gate: one test per published acceptance criterion.

Each test prints exactly one "criterion N: PASS/FAIL" line (visible
under pytest -s) and then asserts, so a red line always comes with a
failing test.  Random suites use fixed seeds; reruns are identical.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
from oracles import kkt_enumeration_qp, random_feasible_qp
from scipy.linalg import subspace_angles

from luklearn.analyze import (
    ablate_and_compare,
    deactivation_report,
    grounded_entailment,
    minimal_support_sets,
    removable_constraints,
    solve_problem2,
)
from luklearn.constraints import compile_min_affine, to_constraint_block
from luklearn.grounding import (
    PredicateDecl,
    build_grounding_index,
    build_samples,
    ground_assignment,
    sample_universe,
)
from luklearn.kernels import KernelSpec
from luklearn.logic import (
    Atom,
    Forall,
    Neg,
    StrongDisj,
    WeakConj,
    eval_lukasiewicz,
    iter_atoms,
    parse_formula,
    to_nnf,
)
from luklearn.problem import build_training_problem, load_problem
from luklearn.solver import Infeasible, QpProblem, min_norm_solution, solve_qp
from luklearn.train import assemble_problem, solve_primal

FIXTURES = Path(__file__).parent / "fixtures"


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def _logical_matrix(problem_file: str) -> np.ndarray:
    tp = build_training_problem(load_problem(FIXTURES / problem_file))
    logical = [
        nu
        for nu in range(tp.matrix.n_columns)
        if tp.matrix.families[tp.matrix.column_block[nu]] == "logical"
    ]
    return tp.matrix.matrix[:, logical]


def test_criterion_1_compilation():
    start = time.perf_counter()
    doms = {"points": {"x1": (0.2, 0.6), "x2": (0.7, 0.3)}}
    decls = [
        PredicateDecl("p1", ("points",)),
        PredicateDecl("p2", ("points", "points")),
    ]
    index = build_grounding_index(decls, build_samples(doms, decls))
    f = parse_formula("forall x: forall y: (p1(x) * p1(y)) -> p2(x,y)")
    aset = compile_min_affine(to_nnf(f), index)
    block = to_constraint_block(aset, "phi1")
    elapsed = time.perf_counter() - start

    M2 = block.pieces.dense(index.size)[1]
    q2 = block.pieces.constants[1]
    ok = (
        len(block.pieces) == 5
        and np.array_equal(M2, np.array([2.0, 0.0, -1.0, 0.0, 0.0, 0.0]))
        and q2 == -1.0
        and elapsed < 1.0
    )
    _report(1, ok, f"{len(block.pieces)} pieces, piece 2 = {M2.astype(int).tolist()}, "
                   f"q = {q2:g}, {elapsed:.3f}s")


def test_criterion_2_end_to_end():
    start = time.perf_counter()
    tp = build_training_problem(load_problem(FIXTURES / "example4.json"))
    checks = []

    K = tp.grams["p1"].matrix[0, 0]
    checks.append(abs(K - 1.25) <= 1e-12)

    model = solve_primal(tp)
    checks.append(np.max(np.abs(model.alpha - np.array([0.0, 0.8, 0.8]))) <= 1e-6)
    checks.append(abs(model.loss - 1.6) <= 1e-6)

    # slackness pins the multipliers of the five inactive pieces to zero
    pinned = [0, 2, 7, 8, 10]  # 1-based pieces 1, 3, 8, 9, 11
    checks.append(all(not model.activity[nu] for nu in pinned))
    gs = solve_problem2(
        tp.matrix.matrix, model.alpha, model.activity, tp.matrix.column_block,
        tp.tolerances,
    )
    lam = gs.particular
    checks.append(np.max(np.abs(lam[pinned])) == 0.0)

    # the residual stationarity rows over the remaining multipliers
    rows = [
        lam[3] - lam[6],
        lam[1] - lam[4] + lam[9] - 0.8,
        -lam[1] - lam[5] + lam[11] - 0.8,
    ]
    checks.append(max(abs(v) for v in rows) <= 1e-7)

    sets = minimal_support_sets(tp.matrix, model.alpha, model.activity, 20, tp.tolerances)
    by_blocks = {s.blocks: s.certificate for s in sets}
    checks.append(set(by_blocks) == {("ub:p2:x1", "ub:p3:x1"), ("phi2", "ub:p3:x1")})
    if len(checks) == len([c for c in checks if c]):
        lam_bar = by_blocks[("ub:p2:x1", "ub:p3:x1")]
        lam_hat = by_blocks[("phi2", "ub:p3:x1")]
        checks.append(abs(lam_bar[9] - 0.8) <= 1e-6 and abs(lam_bar[11] - 0.8) <= 1e-6)
        checks.append(abs(lam_hat[1] - 0.8) <= 1e-6 and abs(lam_hat[11] - 1.6) <= 1e-6)
        checks.append(np.sum(np.abs(lam_bar) > 1e-9) == 2)
        checks.append(np.sum(np.abs(lam_hat) > 1e-9) == 2)
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 5.0)

    ok = all(checks)
    _report(2, ok, f"K = {K:g}, loss = {model.loss:.7f}, "
                   f"{len(sets)} minimal sets, {elapsed:.3f}s")


def test_criterion_3_two_point_algebra():
    M2 = _logical_matrix("example2.json")
    printed = np.array(
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
    checks = [np.array_equal(M2, printed)]

    kernel = min_norm_solution(M2, np.zeros(6))[2]
    checks.append(kernel.shape[1] == 2)
    span = np.array([[-1, 0, -1, 0, 1, 0], [0, -1, 0, -1, 0, 1]], dtype=float).T
    angles = subspace_angles(kernel, span)
    checks.append(float(np.max(angles, initial=0.0)) <= 1e-8)

    lam_star = np.array([0.5549, 0.0, 0.0, 0.5706, 0.0, 0.0])
    target = np.array([0.5549, 0.0, -0.5549, 0.5706, 0.0, -0.5706])
    checks.append(np.max(np.abs(M2 @ lam_star - target)) <= 1e-12)

    blocks = ["phi1", "phi1", "phi2", "phi2", "phi3", "phi3"]
    gs = solve_problem2(M2, target, column_blocks=blocks)
    result = deactivation_report(gs)["phi3"]
    checks.append(result.t_unique)
    checks.append(
        result.certificate is not None
        and np.max(np.abs(result.certificate - lam_star)) <= 1e-8
    )

    ok = all(checks)
    _report(3, ok, f"dim Ker = {kernel.shape[1]}, max angle = {float(np.max(angles)):.2e}, "
                   f"t unique = {result.t_unique}")


def test_criterion_4_three_point_algebra():
    M3 = _logical_matrix("example3.json")
    I = np.eye(3)
    Z = np.zeros((3, 3))
    printed = np.block([[I, Z, I], [-I, I, Z], [Z, -I, -I]])
    checks = [np.array_equal(M3, printed)]

    kernel = min_norm_solution(M3, np.zeros(9))[2]
    checks.append(kernel.shape[1] == 3)

    lam_bar = np.array([0.7722, 0.3453, 0.0, 1.5731, 0.0, 0.5631, 0.0, 0.0, 0.0])
    lam_star = np.array([0.3520, 0.3453, 0.0, 1.1529, 0.0, 0.5631, 0.4202, 0.0, 0.0])
    gap = float(np.max(np.abs(M3 @ lam_bar - M3 @ lam_star)))
    checks.append(gap <= 1e-3)

    ok = all(checks)
    _report(4, ok, f"dim Ker = {kernel.shape[1]}, image gap = {gap:.2e}")


def _transitive_kb(rng):
    """A random implication-chain problem; returns (tp, size) or None."""
    n = int(rng.integers(1, 6))
    doms = {"points": {f"x{i + 1}": tuple(rng.random(2)) for i in range(n)}}
    decls = [PredicateDecl(p, ("points",), kernel="rbf") for p in ("p1", "p2", "p3")]
    supervisions = []
    for pred in ("p1", "p2", "p3"):
        for i in range(n):
            roll = rng.random()
            if roll < 0.25:
                supervisions.append((pred, (f"x{i + 1}",), 1))
            elif roll < 0.5:
                supervisions.append((pred, (f"x{i + 1}",), -1))
    samples = build_samples(doms, decls, supervisions)
    formulas = [
        parse_formula("forall x: p1(x) -> p2(x)"),
        parse_formula("forall x: p2(x) -> p3(x)"),
        parse_formula("forall x: p1(x) -> p3(x)"),
    ]
    return assemble_problem(
        decls, samples, formulas, kernels={"rbf": KernelSpec("rbf", sigma=0.6)}
    )


def test_criterion_5_entailment_soundness():
    rng = np.random.default_rng(2024)
    done = 0
    attempts = 0
    worst_gap = 0.0
    all_entailed = True
    while done < 20 and attempts < 300:
        attempts += 1
        tp = _transitive_kb(rng)
        ent = grounded_entailment(tp.blocks, "phi3", tp.index.size, tp.tolerances)
        all_entailed = all_entailed and ent.entailed
        try:
            record = ablate_and_compare(tp, "phi3")
        except Infeasible:
            continue
        worst_gap = max(worst_gap, abs(record.loss - record.ablated_loss))
        done += 1
    ok = done >= 20 and all_entailed and worst_gap <= 1e-8
    _report(5, ok, f"{done} configurations, entailed = {all_entailed}, "
                   f"max loss gap = {worst_gap:.2e}")


def _random_fragment_formula(rng, depth, scope, samples):
    """Random formula inside the concave fragment, already normalized."""

    def literal():
        names = list(scope) + samples
        kind = rng.integers(0, 3)
        if kind < 2:
            atom = Atom(f"p{kind + 1}", (names[rng.integers(0, len(names))],))
        else:
            atom = Atom(
                "r",
                (
                    names[rng.integers(0, len(names))],
                    names[rng.integers(0, len(names))],
                ),
            )
        return Neg(atom) if rng.random() < 0.4 else atom

    if depth == 0 or rng.random() < 0.3:
        return literal()
    roll = rng.random()
    if roll < 0.25 and len(scope) < 2:
        var = "u" if "u" not in scope else "w"
        body = _random_fragment_formula(rng, depth - 1, scope + [var], samples)
        if not any(var in atom.args for atom in iter_atoms(body)):
            body = WeakConj(body, Atom("p1", (var,)))
        return Forall(var, body)
    ctor = WeakConj if roll < 0.65 else StrongDisj
    return ctor(
        _random_fragment_formula(rng, depth - 1, scope, samples),
        _random_fragment_formula(rng, depth - 1, scope, samples),
    )


def test_criterion_6_compiler_oracle_property():
    rng = np.random.default_rng(2025)
    doms = {"points": {"s1": (0.1,), "s2": (0.5,), "s3": (0.9,)}}
    decls = [
        PredicateDecl("p1", ("points",)),
        PredicateDecl("p2", ("points",)),
        PredicateDecl("r", ("points", "points")),
    ]
    index = build_grounding_index(decls, build_samples(doms, decls))
    samples = ["s1", "s2", "s3"]
    worst = 0.0
    formulas = 0
    while formulas < 100:
        f = _random_fragment_formula(rng, 4, [], samples)
        block = to_constraint_block(compile_min_affine(f, index), "phi1")
        universe = sample_universe(f, index)
        rows = block.pieces.dense(index.size)
        offsets = block.pieces.constants
        points = rng.random((200, index.size))
        maxima = np.max(rows @ points.T + offsets[:, None], axis=0)
        for p, computed in zip(points, maxima):
            truth = eval_lukasiewicz(f, ground_assignment(index, p), universe)
            worst = max(worst, abs(computed - (1.0 - truth)))
        formulas += 1
    ok = worst <= 1e-12
    _report(6, ok, f"{formulas} formulas x 200 points, max gap = {worst:.2e}")


def test_criterion_7_qp_oracle_equivalence():
    rng = np.random.default_rng(2026)
    solved = 0
    worst_obj = 0.0
    worst_res = {"stationarity": 0.0, "feasibility": 0.0, "slackness": 0.0}
    bounds = {"stationarity": 1e-7, "feasibility": 1e-9, "slackness": 1e-7}
    ok = True
    while solved < 50:
        Q, c, A, b = random_feasible_qp(rng, n_max=8, m_max=12)
        sol = solve_qp(QpProblem(Q, c, A, b))
        ref = kkt_enumeration_qp(Q, c, A, b)
        if ref is None:
            ok = False
            break
        worst_obj = max(worst_obj, abs(sol.objective - ref[1]))
        for key in worst_res:
            worst_res[key] = max(worst_res[key], sol.residuals[key])
        solved += 1
    ok = (
        ok
        and solved >= 50
        and worst_obj <= 1e-6
        and all(worst_res[k] <= bounds[k] for k in bounds)
    )
    _report(7, ok, f"{solved} QPs, max objective gap = {worst_obj:.2e}, "
                   f"residuals = {{{', '.join(f'{k}: {v:.1e}' for k, v in worst_res.items())}}}")


def _random_pd_problem(rng):
    n = int(rng.integers(1, 4))
    doms = {"points": {f"x{i + 1}": tuple(rng.random(2)) for i in range(n)}}
    preds = ["p1", "p2", "p3"][: int(rng.integers(2, 4))]
    decls = [PredicateDecl(p, ("points",), kernel="rbf") for p in preds]
    texts = set()
    for _ in range(int(rng.integers(1, 4))):
        a, b = rng.choice(len(preds), size=2, replace=False)
        texts.add(f"forall x: {preds[a]}(x) -> {preds[b]}(x)")
    supervisions = []
    for pred in preds:
        for i in range(n):
            roll = rng.random()
            if roll < 0.3:
                supervisions.append((pred, (f"x{i + 1}",), 1))
            elif roll < 0.6:
                supervisions.append((pred, (f"x{i + 1}",), -1))
    samples = build_samples(doms, decls, supervisions)
    return assemble_problem(
        decls,
        samples,
        [parse_formula(t) for t in sorted(texts)],
        kernels={"rbf": KernelSpec("rbf", sigma=0.7)},
    )


def test_criterion_8_removal_preserves_optimum():
    rng = np.random.default_rng(2027)
    problems = 0
    attempts = 0
    removable_checked = 0
    necessary_checked = 0
    failures = []
    while problems < 20 and attempts < 400:
        attempts += 1
        tp = _random_pd_problem(rng)
        try:
            model = solve_primal(tp)
        except Infeasible:
            continue
        assert tp.unique_optimum
        report = removable_constraints(model)
        for entry in report.blocks:
            record = ablate_and_compare(tp, entry.block_id, model)
            if entry.verdict == "removable":
                removable_checked += 1
                if record.p_distance > 1e-7:
                    failures.append(
                        f"removable {entry.block_id} moved p* by {record.p_distance:.2e}"
                    )
            elif entry.verdict == "necessary":
                necessary_checked += 1
                decrease = record.loss - record.ablated_loss
                if not (decrease > 1e-6 or record.p_distance > 1e-7):
                    failures.append(
                        f"necessary {entry.block_id} left the optimum unchanged"
                    )
                if entry.kkt is not None:
                    failures.append(
                        f"necessary {entry.block_id} carries a certificate"
                    )
            else:
                failures.append(f"unexpected verdict {entry.verdict!r}")
        problems += 1
    ok = problems >= 20 and not failures
    detail = (
        f"{problems} problems, {removable_checked} removable + "
        f"{necessary_checked} necessary blocks checked"
    )
    if failures:
        detail += "; " + "; ".join(failures[:3])
    _report(8, ok, detail)
