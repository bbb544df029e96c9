"""Dense numeric core: nonnegative least squares (NNLS), convex quadratic
programming started from an NNLS solve, linear programming by a
tableau simplex, and nullspace / least-squares helpers.

The simplex starts from the slack basis and adds artificials, and a
phase 1, only for the ``<=`` rows with a negative right-hand side.  An
``LpRegion`` is the one entry point for LPs: it keeps the feasible
tableau of that phase 1, so LPs over the region less some rows or
variable bounds each run phase 2 alone.  Every optimum is checked
against the rows it was solved over.

Everything here is deliberately small-scale and deterministic.  The
simplex uses Bland's rule, NNLS and the QP break ties by lowest index, and all
tolerances live in one configuration record, so repeated runs on the
same input produce identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np


class SolverError(Exception):
    pass


class Infeasible(SolverError):
    """The constraint system A x + b <= 0 admits no point.

    ``farkas`` is a verified Farkas vector y: y >= 0 with A'y = 0 (to
    1e-9 relative to b.y) and b.y > 0, so any x with A x + b <= 0 would
    give 0 >= y.(A x + b) = b.y > 0.  ``certificate`` is the number b.y.
    """

    def __init__(self, message: str, certificate: float, farkas: np.ndarray):
        super().__init__(f"{message} (Farkas certificate, b.y = {certificate:.3e})")
        self.certificate = certificate
        self.farkas = farkas


@dataclass(frozen=True)
class Tolerances:
    """Every numeric threshold of the package; each must be finite and
    nonnegative, and a ValueError names the first that is not."""

    qp: float = 1e-8           # multiplier nonnegativity / convergence in the QP
    lp: float = 1e-9           # simplex pivoting and feasibility threshold, QP start's squared NNLS residual
    nullspace: float = 1e-10   # singular value cutoff, relative to the largest
    activity: float = 1e-6     # |piece value| below this counts as active
    stationarity: float = 1e-7 # multiplier-system residual acceptance
    nonneg: float = 1e-9       # multiplier sign slack
    entailment: float = 1e-9   # LP maximum below this counts as entailed

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {f.name!r} must be finite and nonnegative, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


def tolerances_with(base: Tolerances | None = None, **overrides) -> Tolerances:
    return replace(base or DEFAULT_TOLERANCES, **overrides)


# ---------------------------------------------------------------------------
# Simplex

SIMPLEX_MAX_ITER = 20000  # pivots per simplex phase


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(factors)
    T[rows] -= np.outer(factors[rows], T[row])


def _run_simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, tol: float, max_iter: int) -> str:
    """Iterate a canonical tableau (basis columns = identity) to optimality.

    ``T`` has one trailing right-hand-side column.  Returns "optimal" or
    "unbounded"; Bland's rule prevents cycling: the lowest eligible
    column enters, and of the rows within 1e-12 of the minimum ratio the
    one with the lowest basic index leaves.
    """
    ncols = T.shape[1] - 1
    for _ in range(max_iter):
        eligible = np.flatnonzero(cost[:ncols] - cost[basis] @ T[:, :ncols] < -tol)
        if not eligible.size:
            return "optimal"
        entering = int(eligible[0])
        rows = np.flatnonzero(T[:, entering] > tol)
        if not rows.size:
            return "unbounded"
        ratios = T[rows, -1] / T[rows, entering]
        ties = rows[ratios <= np.min(ratios) + 1e-12]
        leaving = int(ties[np.argmin(basis[ties])])
        _pivot(T, leaving, entering)
        basis[leaving] = entering
    raise SolverError("simplex iteration limit exceeded")


def _phase1(
    A: np.ndarray, b: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray | None, np.ndarray | None, float]:
    """Feasible canonical tableau of A x = b, x >= 0.

    Rows with b < 0 are negated; then each row starts basic in the last
    unit column of A that has its 1 there, which for a ``<=`` row of
    ``LpRegion`` is its slack (the all-slack crash basis; Bixby, ORSA J.
    Computing 4(3), 1992).  Only rows without one get an artificial, and
    the phase-1 simplex runs only when some row has one.  Artificials
    still basic at its optimum are pivoted out, and rows where none can
    be are redundant and dropped.  Returns (T, basis, value): T has the
    columns of A and a trailing right-hand side, and value is the
    phase-1 optimum.  For an infeasible system T and basis are None.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    basis = np.full(m, -1)
    units = np.flatnonzero((np.count_nonzero(A, axis=0) == 1) & (np.max(A, axis=0, initial=0.0) == 1.0))[::-1]
    if units.size:
        rows, last = np.unique(np.argmax(A[:, units], axis=0), return_index=True)
        basis[rows] = units[last]
    needy = np.flatnonzero(basis < 0)
    artificials = np.zeros((m, needy.size))
    artificials[needy, np.arange(needy.size)] = 1.0
    basis[needy] = n + np.arange(needy.size)
    T = np.hstack([A, artificials, b[:, None]])
    value = 0.0
    if needy.size:
        phase1_cost = np.concatenate([np.zeros(n), np.ones(needy.size)])
        status = _run_simplex(T, basis, phase1_cost, tol, max_iter)
        if status != "optimal":
            raise SolverError("phase 1 cannot be unbounded")
        value = float(phase1_cost[basis] @ T[:, -1])
        if value > tol * max(1.0, float(np.max(np.abs(b)))):
            return None, None, value

    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(basis >= n):
        candidates = np.flatnonzero(np.abs(T[i, :n]) > tol)
        if not candidates.size:
            keep[i] = False
            continue
        _pivot(T, i, int(candidates[0]))
        basis[i] = candidates[0]
    return np.hstack([T[keep, :n], T[keep, -1:]]), basis[keep], value


@dataclass(eq=False)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    certificate: float | None  # phase-1 optimum when infeasible


class LpRegion:
    """The region A_ub x <= b_ub, with x_i >= 0 where ``nonneg[i]``,
    ready to minimize any linear cost over it or over a relaxation.

    Its standard form has the variables x, then the negative parts of
    the free variables, then one slack per row.  Phase 1 runs once, in
    the constructor, and every ``minimize`` runs phase 2 on a copy of
    its tableau.  Dropping rows or freeing variables only enlarges the
    region, so that tableau stays a feasible start for each relaxation
    (Chvatal, Linear Programming, 1983, ch. 10).
    """

    def __init__(
        self,
        A_ub: np.ndarray,
        b_ub: Sequence[float],
        nonneg: Sequence[bool],
        tol: float = DEFAULT_TOLERANCES.lp,
    ):
        self.nonneg = np.asarray(nonneg, dtype=bool)
        n = self.nonneg.size
        self.A = np.asarray(A_ub, dtype=float).reshape(-1, n)
        self.b = np.asarray(b_ub, dtype=float).reshape(-1)
        self.tol = tol
        m = self.A.shape[0]
        self._free = np.flatnonzero(~self.nonneg)
        self._slack0 = n + self._free.size
        A_std = np.hstack([self.A, -self.A[:, self._free], np.eye(m)])
        self._T, self._basis, self.certificate = _phase1(A_std, self.b, tol, SIMPLEX_MAX_ITER)

    @property
    def feasible(self) -> bool:
        return self._T is not None

    def minimize(
        self, c: Sequence[float], drop_rows: Sequence[int] = (), free_vars: Sequence[int] = ()
    ) -> LpResult:
        """min c.x over the region without the rows ``drop_rows`` and
        with the variables ``free_vars`` free.

        A dropped row's slack becomes free and a freed variable loses
        its bound: each gets a negative part, whose column is the
        negated tableau column of the slack or the variable.  An optimal
        x is checked against the kept rows, within ``tol`` times
        1 + ||b_ub||_inf over them, and SolverError is raised when it
        violates one.  Over an infeasible region, a relaxation runs its
        own phase 1 over the kept rows.
        """
        c = np.asarray(c, dtype=float)
        n = self.nonneg.size
        keep = np.ones(self.b.size, dtype=bool)
        keep[np.asarray(drop_rows, dtype=int)] = False
        freed = np.zeros(n, dtype=bool)
        freed[np.asarray(free_vars, dtype=int)] = True
        freed &= self.nonneg
        if not self.feasible:
            if keep.all() and not freed.any():
                return LpResult("infeasible", None, None, self.certificate)
            relaxed = LpRegion(self.A[keep], self.b[keep], self.nonneg & ~freed, self.tol)
            return relaxed.minimize(c)

        extra = np.flatnonzero(freed)
        dropped = self._slack0 + np.flatnonzero(~keep)
        width = self._T.shape[1] - 1
        T = np.hstack([self._T[:, :-1], -self._T[:, extra], -self._T[:, dropped], self._T[:, -1:]])
        cost = np.zeros(T.shape[1] - 1)
        cost[:n] = c
        cost[n : self._slack0] = -c[self._free]
        cost[width : width + extra.size] = -c[extra]
        basis = self._basis.copy()
        if _run_simplex(T, basis, cost, self.tol, SIMPLEX_MAX_ITER) == "unbounded":
            return LpResult("unbounded", None, None, None)
        z = np.zeros(T.shape[1] - 1)
        z[basis] = T[:, -1]
        x = z[:n].copy()
        x[self._free] -= z[n : self._slack0]
        x[extra] -= z[width : width + extra.size]
        if keep.any():
            b = self.b[keep]
            worst = float(np.max(self.A[keep] @ x - b))
            if worst > self.tol * (1.0 + float(np.max(np.abs(b)))):
                raise SolverError(f"simplex optimum violates its own constraints by {worst:.3e}")
        return LpResult("optimal", x, float(c @ x), None)


# ---------------------------------------------------------------------------
# Nullspace and least squares


@dataclass(eq=False)
class NullspaceBasis:
    """Orthonormal basis of Ker(M), one vector per column of ``vectors``."""

    vectors: np.ndarray  # n x dim
    rank: int
    tol: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def nullspace(M: np.ndarray, tol: float = DEFAULT_TOLERANCES.nullspace) -> NullspaceBasis:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[1]
    if M.size == 0:  # no rows, or no columns: the kernel is the whole space
        return NullspaceBasis(np.eye(n), 0, tol)
    _, s, vt = np.linalg.svd(M)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0.0 else 0
    return NullspaceBasis(vt[rank:].T.copy(), rank, tol)


def min_norm_solution(M: np.ndarray, rhs: Sequence[float]) -> tuple[np.ndarray, float]:
    """Least-squares solution of M x = rhs with minimal norm, plus the
    achieved residual norm."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rhs = np.asarray(rhs, dtype=float)
    if M.shape[1] == 0:
        return np.zeros(0), float(np.linalg.norm(rhs))
    x, _, _, _ = np.linalg.lstsq(M, rhs, rcond=None)
    return x, float(np.linalg.norm(M @ x - rhs))


def nnls(A: np.ndarray, b: Sequence[float]) -> tuple[np.ndarray, float]:
    """min ||A x - b|| subject to x >= 0, by Lawson and Hanson's active-set
    method (Solving Least Squares Problems, 1974, ch. 23); returns x and
    the residual 2-norm.  The column with the largest gradient entry
    enters, lowest index on ties.  One whose trial coefficient comes out
    <= 0, which only rounding causes, is set aside until the gradient is
    recomputed: letting it in would step zero distance and pick it again.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    x = np.zeros(n)
    gain_tol = 10.0 * max(A.shape) * np.finfo(float).eps * np.linalg.norm(b) * np.max(np.abs(A).sum(0), initial=0.0)

    def fit(cols: np.ndarray) -> np.ndarray:
        z = np.zeros(n)
        z[cols] = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
        return z

    passive = np.zeros(n, dtype=bool)
    gain = A.T @ b
    for _ in range(3 * n + 1):
        candidates = ~passive & (gain > gain_tol)
        while candidates.any():
            t = int(np.argmax(np.where(candidates, gain, -np.inf)))
            passive[t] = True
            z = fit(passive)
            if z[t] > 0.0:
                break
            passive[t] = candidates[t] = False
        else:
            return x, float(np.linalg.norm(A @ x - b))
        while np.any(z[passive] <= 0.0):
            # step towards z until the first coefficient reaches zero; it
            # and any other zero coefficient leave the passive set
            blocked = np.flatnonzero(passive & (z <= 0.0))
            ratios = x[blocked] / (x[blocked] - z[blocked])
            x = x + float(np.min(ratios)) * (z - x)
            x[blocked[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
            z = fit(passive)
        x = z
        gain = A.T @ (b - A @ x)
    raise SolverError("nnls iteration limit exceeded")


# ---------------------------------------------------------------------------
# Quadratic programming


@dataclass(eq=False)
class QpProblem:
    """min 0.5 x'Qx + c.x  subject to  A x + b <= 0."""

    Q: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray


@dataclass(eq=False)
class QpSolution:
    x: np.ndarray
    objective: float
    multipliers: np.ndarray      # one per inequality row, zero off the active set
    active_set: tuple[int, ...]  # rows with |A_i x + b_i| <= activity tolerance
    residuals: dict[str, float]
    iterations: int


def _least_distance_start(
    Q: np.ndarray, c: np.ndarray, A: np.ndarray, b: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Start point and multipliers for ``solve_qp``: the least-distance
    program in z = diag(sqrt(w)) V'(x - x0), with Q = V diag(w) V' split
    by ``eigh`` and weight 1 on Ker(Q), solved as its NNLS dual
    min ||[G'; h'] u - e|| over u >= 0 (Lawson and Hanson, ch. 23).  Its
    multipliers are mu = u / (1 - h.u), where 1 - h.u is the squared
    residual.  A residual whose square is within ``tol.lp`` makes u a
    Farkas vector, checked before ``Infeasible`` is raised.
    """
    n = Q.shape[0]
    w, V = np.linalg.eigh(Q)
    w = np.where(w > tol.nullspace * np.max(w, initial=0.0), w, 1.0)
    root_inv = V / np.sqrt(w)
    x0 = -V @ ((V.T @ c) / w)
    h = A @ x0 + b
    E = np.vstack([-(A @ root_inv).T, h[None, :]])
    e = np.zeros(n + 1)
    e[n] = 1.0
    u, rnorm = nnls(E, e)
    if rnorm**2 <= tol.lp:
        certificate = float(b @ u)
        if certificate > 0.0 and np.min(u) >= 0.0 and np.max(np.abs(A.T @ u)) <= 1e-9 * certificate:
            raise Infeasible("constraint system is infeasible", certificate, u)
        raise SolverError(f"least-distance residual {rnorm:.3e} vanishes without a Farkas certificate")
    r = E @ u - e
    x = root_inv @ (-r[:n] / r[n]) + x0
    return x, u / -r[n]


def _kkt_residuals(
    Q: np.ndarray, c: np.ndarray, A: np.ndarray, b: np.ndarray, x: np.ndarray, mu: np.ndarray, tol: float
) -> tuple[dict[str, float], bool]:
    """KKT residuals of (x, mu), and whether they are within ``tol`` of
    the problem's scale: the gradient terms for stationarity, the offsets
    for feasibility, and those times the largest multiplier for slackness."""
    violations = A @ x + b
    res = {
        "stationarity": float(np.max(np.abs(Q @ x + c + A.T @ mu), initial=0.0)),
        "feasibility": float(np.max(violations, initial=0.0)),
        "slackness": float(np.max(np.abs(mu * violations), initial=0.0)),
    }
    offsets = 1.0 + float(np.max(np.abs(b), initial=0.0))
    gradient = 1.0 + float(np.max(np.abs(Q @ x), initial=0.0)) + float(np.max(np.abs(c), initial=0.0))
    return res, (
        res["stationarity"] <= tol * gradient
        and res["feasibility"] <= tol * offsets
        and res["slackness"] <= tol * offsets * (1.0 + float(np.max(mu, initial=0.0)))
    )


def solve_qp(problem: QpProblem, tol: Tolerances = DEFAULT_TOLERANCES) -> QpSolution:
    """Global minimizer of a convex QP by a primal active-set method.

    It starts from ``_least_distance_start`` and returns that start with
    zero iterations when it is a KKT point within ``tol.qp``, which it
    is, up to rounding, for a positive-definite Q.  Otherwise the
    iterations move from it, with the rows active there (within
    ``tol.activity``) as the first working set, along the free
    directions of a singular Q, such as per-predicate biases, and
    SolverError is raised when the point they reach is not a KKT point
    within ``tol.qp``.  Equality-constrained subproblems are
    solved through the KKT system with a minimum-norm least-squares
    solve, which keeps dependent active rows harmless.  All tie-breaking
    is lowest-index, so runs are reproducible.
    """
    Q = np.atleast_2d(np.asarray(problem.Q, dtype=float))
    n = Q.shape[0]
    c = np.asarray(problem.c, dtype=float)
    A = np.asarray(problem.A, dtype=float).reshape(-1, n) if np.size(problem.A) else np.zeros((0, n))
    b = np.asarray(problem.b, dtype=float).reshape(-1)
    if np.max(np.abs(Q - Q.T), initial=0.0) > 1e-8:
        raise SolverError("Q must be symmetric")
    Q = (Q + Q.T) / 2.0

    x, mu = _least_distance_start(Q, c, A, b, tol)
    residuals, optimal = _kkt_residuals(Q, c, A, b, x, mu, tol.qp)
    iterations = 0
    if not optimal:
        work = np.flatnonzero(np.abs(A @ x + b) <= tol.activity).tolist()
        x, mu, iterations = _active_set(Q, c, A, b, x, work, tol)
        residuals, optimal = _kkt_residuals(Q, c, A, b, x, mu, tol.qp)
        if not optimal:
            named = ", ".join(f"{k} {v:.3e}" for k, v in residuals.items())
            raise SolverError(f"active-set point is not a KKT point within tolerance: {named}")
    violations = A @ x + b
    active = tuple(i for i in range(A.shape[0]) if abs(violations[i]) <= tol.activity)
    objective = float(0.5 * x @ Q @ x + c @ x)
    return QpSolution(x, objective, mu, active, residuals, iterations)


def _active_set(
    Q: np.ndarray, c: np.ndarray, A: np.ndarray, b: np.ndarray, x: np.ndarray,
    work: list[int], tol: Tolerances,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Primal active-set iterations from the feasible ``x`` and working
    set ``work``; returns the optimum, its multipliers and the number of
    iterations."""
    n = Q.shape[0]
    m = A.shape[0]
    max_iter = 100 + 30 * (n + m)

    def eqp(w: list[int]) -> tuple[np.ndarray, np.ndarray]:
        Aw = A[w] if w else np.zeros((0, n))
        bw = b[w] if w else np.zeros(0)
        size = n + len(w)
        K = np.zeros((size, size))
        rhs = np.zeros(size)
        K[:n, :n] = Q
        K[:n, n:] = Aw.T
        K[n:, :n] = Aw
        rhs[:n] = -c
        rhs[n:] = -bw
        sol, _, _, _ = np.linalg.lstsq(K, rhs, rcond=None)
        if np.max(np.abs(K @ sol - rhs), initial=0.0) > 1e-6 * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
            raise SolverError("equality-constrained subproblem is unbounded or inconsistent")
        return sol[:n], sol[n:]

    mu_w = np.zeros(0)
    for iterations in range(1, max_iter + 1):
        x_new, mu_w = eqp(work)
        if np.max(np.abs(x_new - x), initial=0.0) <= 1e-10 * (1.0 + float(np.max(np.abs(x), initial=0.0))):
            x = x_new
            if not mu_w.size or float(np.min(mu_w)) >= -tol.qp:
                break
            worst = int(np.argmin(mu_w))  # argmin returns the lowest index on ties
            del work[worst]
            continue
        direction = x_new - x
        alpha = 1.0
        blocking = -1
        for i in range(m):
            if i in work:
                continue
            advance = float(A[i] @ direction)
            if advance > 1e-12:
                limit = -(float(A[i] @ x + b[i])) / advance
                if limit < alpha - 1e-15:
                    alpha = max(limit, 0.0)
                    blocking = i
        x = x_new if alpha >= 1.0 else x + alpha * direction
        if blocking >= 0 and alpha < 1.0:
            work.append(blocking)
            work.sort()
    else:
        raise SolverError("active-set iteration limit exceeded")

    mu = np.zeros(m)
    mu[work] = np.maximum(mu_w, 0.0)
    return x, mu, iterations
