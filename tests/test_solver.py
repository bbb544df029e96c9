"""Tests for the simplex LP, NNLS, nullspace helpers, and the least-distance QP."""

from __future__ import annotations

import time

import numpy as np
import pytest
from oracles import is_farkas_vector, kkt_enumeration_qp, random_feasible_qp
from scipy.optimize import linprog
from scipy.optimize import nnls as scipy_nnls

from luklearn import solver
from luklearn.solver import (
    DEFAULT_TOLERANCES,
    Infeasible,
    LpRegion,
    QpProblem,
    SolverError,
    min_norm_solution,
    nnls,
    nullspace,
    solve_qp,
    tolerances_with,
)


def test_tolerances_overrides():
    t = tolerances_with(qp=1e-5)
    assert t.qp == 1e-5
    assert t.lp == DEFAULT_TOLERANCES.lp
    t2 = tolerances_with(t, lp=1e-4)
    assert (t2.qp, t2.lp) == (1e-5, 1e-4)


def test_lp_simple_vertex():
    r = LpRegion([[1.0, 1.0]], [1.0]).minimize([-1.0, -1.0])
    assert r.status == "optimal"
    assert r.objective == pytest.approx(-1.0, abs=1e-9)
    assert r.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_lp_free_variable():
    r = LpRegion([[-1.0]], [3.0]).minimize([1.0], free_vars=[0])
    assert r.status == "optimal"
    assert r.x[0] == pytest.approx(-3.0, abs=1e-9)


def test_lp_infeasible_with_certificate():
    r = LpRegion([[1.0]], [-1.0]).minimize([0.0])
    assert r.status == "infeasible"
    assert r.certificate > 0.0

    # x1 + x2 <= 1 and x1 + x2 >= 1.5
    r = LpRegion([[1.0, 1.0], [-2.0, -2.0]], [1.0, -3.0]).minimize([0.0, 0.0])
    assert r.status == "infeasible"


def test_lp_unbounded():
    r = LpRegion([[-1.0]], [0.0]).minimize([-1.0])
    assert r.status == "unbounded"


def test_lp_no_constraints():
    """Without rows, only the variable bounds hold the objective down."""
    def minimize(c, free):
        return LpRegion(np.zeros((0, 2)), []).minimize(c, free_vars=free)

    assert minimize([1.0, -2.0], [0, 1]).status == "unbounded"
    assert minimize([1.0, 0.0], [0]).status == "unbounded"
    assert minimize([1.0, -2.0], []).status == "unbounded"
    r = minimize([1.0, 2.0], [])
    assert r.status == "optimal" and r.objective == 0.0
    assert np.array_equal(r.x, np.zeros(2))
    r = minimize([0.0, 3.0], [0])
    assert r.status == "optimal" and np.array_equal(r.x, np.zeros(2))


def test_lp_degenerate_cycling_guard():
    """A classically cycling-prone degenerate LP must still terminate."""
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    r = LpRegion(A, b).minimize(c)
    ref = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert r.status == "optimal"
    assert r.objective == pytest.approx(ref.fun, abs=1e-9)


def _bounds(n, free):
    """HiGHS bounds: x >= 0, less the variables ``free``."""
    freed = np.zeros(n, dtype=bool)
    freed[free] = True
    return [(None, None) if f else (0, None) for f in freed]


def _random_lp(rng, kind):
    """A random LP for ``LpRegion`` and the variables it frees.  "slack":
    every row has a positive right-hand side, so no row needs an
    artificial.  "mixed": mixed-sign right-hand sides and free variables.
    "artificial": nonnegative variables and costs, and negative
    right-hand sides only, so every row needs an artificial and the LP
    is bounded below.  Free variables get finite bounds on both sides,
    written as rows, since HiGHS calls some LPs that are unbounded below
    over free variables infeasible.  Nonnegative variables in "mixed" LPs
    are left unbounded above half of the time, so that some LPs are
    unbounded."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    c = rng.standard_normal(n)
    A_ub = rng.standard_normal((m, n))
    freed = np.zeros(n, dtype=bool)
    if kind == "slack":
        b_ub = rng.random(m) + 0.1
    elif kind == "mixed":
        freed = rng.random(n) < 0.5
        b_ub = rng.standard_normal(m)
    else:
        b_ub = -rng.random(m) - 0.1
        c = np.abs(c)
    if kind != "artificial":
        # -10 <= x <= 10 on the free variables, and x <= 10 on the others
        capped = freed | (kind == "slack") | (rng.random() < 0.5)
        box = np.vstack([np.eye(n)[capped], -np.eye(n)[freed]])
        A_ub = np.vstack([A_ub, box])
        b_ub = np.concatenate([b_ub, np.full(box.shape[0], 10.0)])
    return c, A_ub, b_ub, np.flatnonzero(freed)


def _highs_status(c, A, b, bounds):
    """HiGHS's status and optimum of min c.x over A x <= b and ``bounds``."""
    statuses = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    highs = dict(A_ub=A if len(A) else None, b_ub=b if len(A) else None, bounds=bounds, method="highs")
    ref = linprog(c, **highs)
    status = statuses[ref.status]
    if status == "infeasible" and linprog(np.zeros(len(c)), **highs).status == 0:
        # HiGHS can call an LP that is unbounded below infeasible
        status = "unbounded"
    return status, ref.fun


def test_lp_random_against_scipy():
    """Phase 1 runs with no, some and all rows on an artificial."""
    rng = np.random.default_rng(61)
    artificial_rows = set()
    seen = set()
    for kind in ("slack", "mixed", "artificial"):
        for _ in range(100):
            c, A_ub, b_ub, free = _random_lp(rng, kind)
            needy = int(np.sum(b_ub < 0))
            artificial_rows.add("none" if needy == 0 else "all" if needy == len(b_ub) else "some")
            r = LpRegion(A_ub, b_ub).minimize(c, free_vars=free)
            bounds = _bounds(len(c), free)
            expected, fun = _highs_status(c, A_ub, b_ub, bounds)
            assert r.status == expected
            seen.add((kind, r.status))
            if r.status != "optimal":
                continue
            assert r.objective == pytest.approx(fun, abs=1e-7)
            assert np.all(A_ub @ r.x <= b_ub + 1e-8)
            assert np.all(np.delete(r.x, free) >= -1e-12)
    assert artificial_rows == {"none", "some", "all"}
    assert {("mixed", "unbounded"), ("artificial", "optimal"), ("artificial", "infeasible")} <= seen


def _bogus_phase1(T, basis):
    """A phase 1 that returns the optimal tableau ``T``, whose basic
    solution breaks the rows it stands for."""
    return lambda A, b, tol, max_iter: (np.array(T), np.array(basis), 0.0)


def test_lp_rejects_an_optimum_that_violates_its_rows(monkeypatch):
    """A basic solution that breaks its own equations is an error, not an
    optimum."""
    # columns x, s: x = 2 breaks x <= 1
    monkeypatch.setattr(solver, "_phase1", _bogus_phase1([[1.0, 0.0, 2.0]], [0]))
    with pytest.raises(SolverError, match="violates"):
        LpRegion([[1.0]], [1.0]).minimize([1.0])
    # a freed x gets a negative part: x = 0.5 - 0 breaks x >= 1
    monkeypatch.setattr(solver, "_phase1", _bogus_phase1([[1.0, 0.0, 0.5]], [0]))
    with pytest.raises(SolverError, match="violates"):
        LpRegion([[-1.0]], [-1.0]).minimize([1.0], free_vars=[0])
    # a dropped row is not checked, a kept one is
    region = LpRegion([[1.0], [1.0]], [1.0, 3.0])
    region._T, region._basis = np.array([[1.0, 0.0, 0.0, 2.0], [0.0, 0.0, 1.0, 1.0]]), np.array([0, 2])
    assert region.minimize([1.0], drop_rows=[0]).x[0] == 2.0
    with pytest.raises(SolverError, match="violates"):
        region.minimize([1.0], drop_rows=[1])


def test_lp_frees_a_variable_over_an_empty_region():
    """x1 <= -1 empties the region x >= 0; freeing x1 relaxes it to a
    region with a negative x1, solved with x1's negative part as an extra
    column and matched against HiGHS."""
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-1.0, 3.0, 2.0])
    region = LpRegion(A, b)
    assert not region.feasible
    assert region.minimize([1.0, -1.0]).status == "infeasible"
    r = region.minimize([1.0, -1.0], free_vars=[0])
    expected, fun = _highs_status(np.array([1.0, -1.0]), A, b, _bounds(2, [0]))
    assert (r.status, expected) == ("optimal", "optimal")
    assert r.objective == pytest.approx(fun, abs=1e-9)
    assert r.x == pytest.approx([-3.0, 2.0], abs=1e-9)


def _random_region(rng, kind):
    """A random region A x <= b, x >= 0 for ``LpRegion``, around a random
    point of it, and a variable to free.  Every variable is capped at 10
    by a row and floored at -10 by another, so that freeing it keeps it
    bounded, but those rows can be dropped like any other.  "conflicting":
    a last row contradicts one of the others, so the region is empty
    until one of the two is dropped.  "signed": the point is negative in
    the variable to free and a last row keeps that variable negative, so
    the region is empty until the variable is freed or the row dropped."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    k = int(rng.integers(0, n))
    x0 = np.abs(rng.standard_normal(n))
    if kind == "signed":
        x0[k] = -x0[k] - 0.1
    A = np.vstack([rng.standard_normal((m, n)), np.eye(n), -np.eye(n)])
    b = A @ x0 + np.where(rng.random(A.shape[0]) < 0.3, 0.0, rng.random(A.shape[0]))
    b[m:] = 10.0
    if kind == "conflicting":
        r = int(rng.integers(0, m))
        A = np.vstack([A, -A[r]])
        b = np.append(b, -b[r] - 1.0)
    elif kind == "signed":
        A = np.vstack([A, np.eye(n)[k]])
        b = np.append(b, x0[k])
    return A, b, k


def test_lp_region_against_scipy():
    """Every ``minimize`` over a relaxation of one region matches HiGHS
    over the kept rows and bounds, from the region's feasible tableau or,
    for an empty region, from a phase 1 of its own.  Each signed region's
    first LP frees its negative variable and drops nothing."""
    rng = np.random.default_rng(131)
    seen = set()
    for kind in ("feasible", "conflicting", "signed"):
        for _ in range(60):
            A, b, k = _random_region(rng, kind)
            n = A.shape[1]
            region = LpRegion(A, b)
            assert region.feasible == (_highs_status(np.zeros(n), A, b, _bounds(n, []))[0] == "optimal")
            for trial in range(5):
                if kind == "signed" and trial == 0:
                    drop, free = np.array([], dtype=int), np.array([k])
                else:
                    drop = np.flatnonzero(rng.random(len(b)) < 0.3)
                    free = np.flatnonzero(rng.random(n) < 0.4)
                c = rng.standard_normal(n)
                r = region.minimize(c, drop, free)
                keep = np.ones(len(b), dtype=bool)
                keep[drop] = False
                bounds = _bounds(n, free)
                expected, fun = _highs_status(c, A[keep], b[keep], bounds)
                assert r.status == expected
                seen.add((kind, region.feasible, bool(drop.size), bool(free.size), r.status))
                if r.status != "optimal":
                    continue
                assert r.objective == pytest.approx(fun, abs=1e-7)
                assert np.all(A[keep] @ r.x <= b[keep] + 1e-8)
                assert np.all(np.delete(r.x, free) >= -1e-12)
    statuses = {(feasible, status) for _, feasible, _, _, status in seen}
    assert {(True, "optimal"), (True, "unbounded"), (False, "optimal"), (False, "infeasible")} <= statuses
    assert ("signed", False, False, True, "optimal") in seen


def _same_result(got, want) -> bool:
    """Same status, and the same bits of x and of the objective."""
    if got.status != want.status:
        return False
    if got.x is None or want.x is None:
        return got.x is None and want.x is None and got.objective == want.objective
    return got.x.tobytes() == want.x.tobytes() and np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()


@pytest.mark.parametrize("budget", [1, 2_000, 20_000, 1 << 20])
def test_minimize_many_matches_minimize_alone(budget, monkeypatch):
    """Every LP of a ``minimize_many`` call gets the status and the bits
    of x and the objective that ``minimize`` gives it alone, whatever the
    stack size (from one LP per stack to all in one) and the order of
    the LPs; the LPs cover degenerate vertices, unbounded relaxations,
    freed variables, dropped rows and relaxations of empty regions."""
    rng = np.random.default_rng(211)
    seen = set()
    for kind in ("feasible", "conflicting", "signed"):
        for _ in range(25):
            A, b, k = _random_region(rng, kind)
            n = A.shape[1]
            region = LpRegion(A, b)
            lps = [(rng.standard_normal(n), np.array([], dtype=int), np.array([k]))]
            for _ in range(7):
                drop = np.flatnonzero(rng.random(len(b)) < 0.3)
                free = np.flatnonzero(rng.random(n) < 0.4)
                lps.append((rng.standard_normal(n), drop, free))
            alone = [region.minimize(*lp) for lp in lps]
            monkeypatch.setattr(solver, "SIMPLEX_STACK_BYTES", budget)
            order = rng.permutation(len(lps))
            stacked = region.minimize_many([lps[i] for i in order])
            monkeypatch.undo()
            for i, got in zip(order, stacked):
                assert _same_result(got, alone[i]), (kind, i)
                seen.add((region.feasible, got.status))
    assert {(True, "optimal"), (True, "unbounded"), (False, "optimal"), (False, "infeasible")} <= seen


def test_minimize_many_of_no_lps():
    assert LpRegion([[1.0]], [1.0]).minimize_many([]) == []


def test_simplex_iteration_limit(monkeypatch):
    """An LP that needs more pivots than ``SIMPLEX_MAX_ITER`` raises
    SolverError, alone and inside a stack of LPs that need none."""
    region = LpRegion(np.eye(3), np.ones(3))
    climb = (-np.ones(3), (), ())  # three pivots, one per coordinate
    rest = (np.ones(3), (), ())  # optimal at the start
    assert region.minimize(*climb).objective == -3.0
    monkeypatch.setattr(solver, "SIMPLEX_MAX_ITER", 2)
    assert region.minimize(*rest).objective == 0.0
    with pytest.raises(SolverError, match="iteration limit"):
        region.minimize(*climb)
    with pytest.raises(SolverError, match="iteration limit"):
        region.minimize_many([rest, climb, rest])
    monkeypatch.setattr(solver, "SIMPLEX_MAX_ITER", 4)
    assert [r.objective for r in region.minimize_many([rest, climb, rest])] == [0.0, -3.0, 0.0]


def test_phase1_iteration_limit(monkeypatch):
    """Phase 1 runs the same kernel under the same limit."""
    A, b = -np.eye(3), -np.ones(3)  # x >= 1: one phase-1 pivot per row
    assert LpRegion(A, b).feasible
    monkeypatch.setattr(solver, "SIMPLEX_MAX_ITER", 2)
    with pytest.raises(SolverError, match="iteration limit"):
        LpRegion(A, b)


def _row_loop_pivot(T, row, col):
    """One tableau pivoted by eliminating row by row."""
    expected = T.copy()
    expected[row] /= expected[row, col]
    for i in range(expected.shape[0]):
        if i != row and expected[i, col] != 0.0:
            expected[i] -= expected[i, col] * expected[row]
    return expected


def test_pivot_matches_row_loop():
    """The rank-1 pivot gives the same bits as eliminating row by row,
    for a stack of one and for each tableau of a stack, each pivoted on
    its own entry."""
    rng = np.random.default_rng(59)
    for trial in range(20):
        stack = 1 if trial % 2 else int(rng.integers(2, 6))
        T = rng.standard_normal((stack, 6, 9))
        T[rng.random(T.shape) < 0.3] = 0.0
        rows, cols = rng.integers(0, 6, stack), rng.integers(0, 8, stack)
        T[np.arange(stack), rows, cols] = rng.standard_normal(stack) + 3.0
        expected = [_row_loop_pivot(T[l], rows[l], cols[l]) for l in range(stack)]
        solver._pivot(T, rows, cols)
        for l in range(stack):
            assert T[l].tobytes() == expected[l].tobytes(), (trial, l)


def _nnls_system(kind, rng):
    if kind == "tall":
        return rng.standard_normal((8, 4)), rng.standard_normal(8)
    if kind == "wide":
        return rng.standard_normal((3, 7)), rng.standard_normal(3)
    if kind == "rank_deficient":
        # small integers keep the rank deficiency exact in floating point
        A = rng.integers(-3, 4, (6, 2)) @ rng.integers(-2, 3, (2, 5))
        return A.astype(float), rng.integers(-5, 6, 6).astype(float)
    A = rng.standard_normal((5, 4))
    A[:, int(rng.integers(0, 4))] = 0.0
    return A, rng.standard_normal(5)


@pytest.mark.parametrize("kind", ["tall", "wide", "rank_deficient", "zero_column"])
def test_nnls_against_scipy(kind):
    rng = np.random.default_rng([89, len(kind)])
    for _ in range(25):
        A, b = _nnls_system(kind, rng)
        x, rnorm = nnls(A, b)
        _, ref = scipy_nnls(A, b)
        assert np.all(x >= 0.0)
        assert rnorm == pytest.approx(float(np.linalg.norm(A @ x - b)), abs=1e-12)
        assert rnorm == pytest.approx(ref, abs=1e-9)
        again, rnorm_again = nnls(A, b)
        assert np.array_equal(x, again) and rnorm == rnorm_again


def test_nnls_sets_aside_a_column_with_nonpositive_trial(monkeypatch):
    """Column 4 is column 0 minus column 1, so once three columns fit b
    exactly the remaining gradient entries are rounding noise, and two
    of them pass the entry threshold with negative trial coefficients."""
    rng = np.random.default_rng([97, 1871])
    A = rng.standard_normal((3, 4))
    A = np.hstack([A, A[:, :1] - A[:, 1:2]])
    b = rng.standard_normal(3)

    widths = []
    lstsq = np.linalg.lstsq

    def spy(a, *args, **kwargs):
        widths.append(a.shape[1])
        return lstsq(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    x, rnorm = nnls(A, b)
    monkeypatch.undo()
    # every entry widens the passive set by one and every leaving step
    # narrows it, so two trials of one width in a row mean a column was
    # set aside and another tried in its place
    assert any(p == q for p, q in zip(widths, widths[1:]))
    assert np.all(x >= 0.0)
    assert rnorm == pytest.approx(scipy_nnls(A, b)[1], abs=1e-9)


def test_nnls_without_columns():
    x, rnorm = nnls(np.zeros((2, 0)), [3.0, 4.0])
    assert x.shape == (0,)
    assert rnorm == pytest.approx(5.0)


def test_nullspace_identity_and_zero():
    basis = nullspace(np.eye(4))
    assert basis.dim == 0 and basis.rank == 4

    basis = nullspace(np.zeros((3, 5)))
    assert basis.dim == 5 and basis.rank == 0

    basis = nullspace(np.zeros((3, 0)))
    assert basis.dim == 0

    # without rows every vector is in the kernel
    basis = nullspace(np.zeros((0, 3)))
    assert basis.dim == 3 and basis.rank == 0
    assert np.array_equal(basis.vectors, np.eye(3))


def test_nullspace_known_matrix():
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
    basis = nullspace(M)
    assert basis.dim == 2
    assert np.max(np.abs(M @ basis.vectors)) <= 1e-12
    assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(2), atol=1e-12)
    for v in ([-1, 0, -1, 0, 1, 0], [0, -1, 0, -1, 0, 1]):
        v = np.asarray(v, dtype=float)
        proj = basis.vectors @ (basis.vectors.T @ v)
        assert np.max(np.abs(proj - v)) <= 1e-12


def test_nullspace_random_rank():
    rng = np.random.default_rng(67)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(0, n + 1))
        M = rng.standard_normal((10, r)) @ rng.standard_normal((r, n)) if r else np.zeros((10, n))
        basis = nullspace(M)
        assert basis.rank == r
        assert basis.dim == n - r
        if basis.dim:
            assert np.max(np.abs(M @ basis.vectors)) <= 1e-8
            assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(basis.dim), atol=1e-10)


def test_min_norm_solution_matches_pinv():
    rng = np.random.default_rng(71)
    M = rng.standard_normal((4, 6))
    rhs = rng.standard_normal(4)
    x, res, rank = min_norm_solution(M, rhs)
    assert res <= 1e-10 and rank == 4
    assert np.allclose(x, np.linalg.pinv(M) @ rhs, atol=1e-10)

    M2 = np.array([[1.0], [1.0]])
    x2, res2, rank2 = min_norm_solution(M2, [0.0, 2.0])
    assert x2[0] == pytest.approx(1.0, abs=1e-12)
    assert res2 == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rank2 == 1

    x3, res3, rank3 = min_norm_solution(np.zeros((2, 0)), [3.0, 4.0])
    assert x3.shape == (0,)
    assert res3 == pytest.approx(5.0)
    assert rank3 == 0


def test_min_norm_solution_truncates_where_nullspace_does():
    """Singular values at or below the cutoff times the largest count as
    zero in both the rank and the solution, as in ``nullspace``: the
    solution has no component along their right singular vectors."""
    rng = np.random.default_rng(72)
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    for tol in (1e-10, 1e-6):
        s = np.array([1.0, 0.5, 0.1 * tol, 0.01])
        M = u[:, :4] @ np.diag(s) @ v.T
        x, _, rank = min_norm_solution(M, rng.standard_normal(5), tol)
        assert rank == nullspace(M, tol).rank == 3
        assert abs(v[:, 2] @ x) <= 1e-12 * np.linalg.norm(x)


def test_qp_scalar_bound():
    A, b = np.array([[-1.0]]), np.array([1.0])
    sol = solve_qp(QpProblem(np.array([[2.0]]), np.zeros(1), A, b))
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.multipliers[0] == pytest.approx(2.0, abs=1e-8)
    assert abs(A @ sol.x + b)[0] <= 1e-9
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_qp_unconstrained():
    Q = np.array([[2.0, 0.0], [0.0, 4.0]])
    c = np.array([-2.0, -4.0])
    sol = solve_qp(QpProblem(Q, c, np.zeros((0, 2)), np.zeros(0)))
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)
    assert sol.residuals["stationarity"] <= 1e-9


def test_qp_infeasible():
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, 1.0])  # x <= -1 and x >= 1
    with pytest.raises(Infeasible) as info:
        solve_qp(QpProblem(np.array([[2.0]]), np.zeros(1), A, b))
    assert is_farkas_vector(info.value.farkas, A, b)
    assert info.value.certificate == pytest.approx(float(b @ info.value.farkas), rel=1e-12)


def test_qp_rejects_asymmetric_matrix():
    Q = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(SolverError, match="symmetric"):
        solve_qp(QpProblem(Q, np.zeros(2), np.zeros((0, 2)), np.zeros(0)))


def test_qp_random_against_enumeration():
    rng = np.random.default_rng(73)
    for _ in range(40):
        Q, c, A, b = random_feasible_qp(rng)
        sol = solve_qp(QpProblem(Q, c, A, b))
        ref = kkt_enumeration_qp(Q, c, A, b)
        assert ref is not None
        assert np.max(np.abs(sol.x - ref[0])) <= 1e-6
        assert sol.objective == pytest.approx(ref[1], abs=1e-6)
        assert sol.residuals["stationarity"] <= 1e-7
        assert sol.residuals["feasibility"] <= 1e-9
        assert sol.residuals["slackness"] <= 1e-7


def _free_column_qp(rng, zero_cost):
    """A random convex QP whose Q has 1 to n exactly-zero columns, and a
    point x feasible for it.  Rows drawn active at x get multipliers
    mu > 0, and the cost is zero or c = -Q x - A'mu, which makes x a KKT
    point, so the constraints bound the cost."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 7))
    free = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    R = rng.standard_normal((n, n))
    Q = R.T @ R + 0.5 * np.eye(n)
    Q[free, :] = 0.0
    Q[:, free] = 0.0
    A = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    active = rng.random(m) < 0.5
    b = -A @ x - np.where(active, 0.0, rng.random(m) + 0.1)
    mu = np.where(active, rng.random(m) + 0.1, 0.0)
    c = np.zeros(n) if zero_cost else -Q @ x - A.T @ mu
    return Q, c, A, b, x


@pytest.mark.parametrize("zero_cost", [True, False], ids=["zero-cost", "bounded-cost"])
def test_qp_free_columns_against_enumeration(zero_cost):
    """Every point returned is the enumeration's optimum.  Proximal steps
    converge only linearly, at a rate set by how strongly the free
    columns enter the binding rows, so an instance may instead be
    refused at the step cap, never answered wrongly; 1 of these 40 is."""
    rng = np.random.default_rng(89)
    refused = 0
    for _ in range(20):
        Q, c, A, b, x = _free_column_qp(rng, zero_cost)
        try:
            sol = solve_qp(QpProblem(Q, c, A, b))
        except SolverError as exc:
            assert f"after {solver.PROX_MAX_STEPS} proximal steps" in str(exc)
            refused += 1
            continue
        ref = kkt_enumeration_qp(Q, c, A, b)
        assert ref is not None
        assert 0 < sol.iterations <= solver.PROX_MAX_STEPS
        assert sol.objective == pytest.approx(ref[1], abs=1e-6)
        if not zero_cost:
            assert sol.objective == pytest.approx(0.5 * x @ Q @ x + c @ x, abs=1e-6)
        gradient = 1.0 + np.max(np.abs(Q @ sol.x)) + np.max(np.abs(c))
        assert sol.residuals["stationarity"] <= 1e-8 * gradient
        assert sol.residuals["feasibility"] <= 1e-9
        assert np.min(sol.multipliers) >= 0.0
    assert refused <= 1


def test_qp_unbounded_free_direction_is_refused_at_the_step_cap():
    """min x1^2 + x2 over x1 <= 1: no row bounds x2, so every proximal
    step moves it by omega^2 and the cap ends the steps."""
    problem = QpProblem(np.diag([2.0, 0.0]), np.array([0.0, 1.0]), np.array([[1.0, 0.0]]), np.array([-1.0]))
    start = time.perf_counter()
    with pytest.raises(SolverError, match=f"after {solver.PROX_MAX_STEPS} proximal steps: stationarity 1.000e"):
        solve_qp(problem)
    assert time.perf_counter() - start < 1.0


def test_qp_row_permutation_invariance():
    rng = np.random.default_rng(79)
    Q, c, A, b = random_feasible_qp(rng, n_max=3, m_max=5)
    base = solve_qp(QpProblem(Q, c, A, b))
    perm = rng.permutation(A.shape[0])
    permuted = solve_qp(QpProblem(Q, c, A[perm], b[perm]))
    assert np.max(np.abs(base.x - permuted.x)) <= 1e-8
    assert base.objective == pytest.approx(permuted.objective, abs=1e-10)


def test_qp_reruns_are_identical():
    rng = np.random.default_rng(83)
    Q, c, A, b = random_feasible_qp(rng)
    first = solve_qp(QpProblem(Q, c, A, b))
    second = solve_qp(QpProblem(Q, c, A, b))
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def test_qp_rejects_a_least_distance_point_off_its_kkt_conditions(monkeypatch):
    """min x1^2 + x2 over x2 >= x1 and x2 >= -5, with Q zero along x2:
    proximal steps on x2 find the optimum, and a least-distance point off
    the KKT conditions is an error at the gate, not an optimum: at once
    without a free column, at the step cap with one."""
    problem = QpProblem(
        np.diag([2.0, 0.0]), np.array([0.0, 1.0]), np.array([[0.0, -1.0], [1.0, -1.0]]), np.array([-5.0, 0.0])
    )
    sol = solve_qp(problem)
    assert sol.iterations > 0
    assert np.allclose(sol.x, [-0.5, -0.5], atol=1e-9)

    least_distance = solver._least_distance

    def perturbed(*args):
        x, mu = least_distance(*args)
        return x + np.array([1e-3, 0.0]), mu

    monkeypatch.setattr(solver, "_least_distance", perturbed)
    with pytest.raises(SolverError, match=f"after {solver.PROX_MAX_STEPS} proximal steps: stationarity 2.000e-03"):
        solve_qp(problem)
    with pytest.raises(SolverError, match="tolerance: stationarity 2.000e-03"):
        solve_qp(QpProblem(np.diag([2.0, 2.0]), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0])))


def test_qp_singular_q_bounds_its_zero_column_by_the_rows():
    """min x1^2 + x2 over x2 >= -1, with Q zero along x2: the first
    proximal step stops at x2 = -1 with a multiplier below 1, and the
    next one, centred there, is the optimum."""
    Q, c = np.diag([2.0, 0.0]), np.array([0.0, 1.0])
    A, b = np.array([[0.0, -1.0]]), np.array([-1.0])
    sol = solve_qp(QpProblem(Q, c, A, b))
    assert sol.iterations > 0
    assert np.allclose(sol.x, [0.0, -1.0], atol=1e-9)
    assert sol.multipliers[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(A @ sol.x + b)[0] <= 1e-9
    assert np.max(np.abs(Q @ sol.x + c + A.T @ sol.multipliers)) <= 1e-9
    assert np.max(A @ sol.x + b) <= 1e-9
    assert np.max(np.abs(sol.multipliers * (A @ sol.x + b))) <= 1e-9
