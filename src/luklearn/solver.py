"""Dense numeric core: nonnegative least squares (NNLS), convex quadratic
programming by least-distance NNLS solves behind a KKT gate, linear
programming by a tableau simplex, and nullspace / least-squares helpers.

An ``LpRegion`` is the one entry point for LPs: the region A x <= b,
x >= 0.  Its simplex starts from the slack basis and adds artificials,
and a phase 1, only for the rows with a negative right-hand side.  It
keeps the feasible tableau of that phase 1, so LPs over the region with
some rows dropped or some variables freed each run phase 2 alone.  Every
optimum is checked against the rows it was solved over.

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
    """Every numeric threshold of the package, each one read on the way to
    an artifact, a verdict or an exit code; each must be finite and
    nonnegative, and a ValueError names the first that is not."""

    qp: float = 1e-8           # KKT gate of a QP point, relative to the problem's scale
    lp: float = 1e-9           # simplex pivoting and feasibility threshold, least-distance squared NNLS residual
    nullspace: float = 1e-10   # singular value cutoff, relative to the largest
    activity: float = 1e-6     # |piece value| at most this counts as active, decided once in grounding space
    stationarity: float = 1e-7 # multiplier-system residual acceptance
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
    """Feasible canonical tableau of A x + s = b, x >= 0, s >= 0.

    Each row with b >= 0 starts basic in its slack (the all-slack crash
    basis; Bixby, ORSA J. Computing 4(3), 1992).  Each row with b < 0 is
    negated and starts basic in an artificial of its own, and the
    phase-1 simplex runs only when some row has one.  Artificials still
    basic at its optimum are pivoted out, and rows where none can be are
    redundant and dropped.  Returns (T, basis, value): T has the columns
    of A, then the slacks, and a trailing right-hand side, and value is
    the phase-1 optimum.  For an infeasible system T and basis are None.
    """
    m, n = A.shape
    flip = b < 0
    sign = np.where(flip, -1.0, 1.0)[:, None]
    needy = np.flatnonzero(flip)
    width = n + m
    artificials = np.zeros((m, needy.size))
    artificials[needy, np.arange(needy.size)] = 1.0
    basis = np.arange(n, width)
    basis[needy] = width + np.arange(needy.size)
    T = np.hstack([sign * A, sign * np.eye(m), artificials, sign * b[:, None]])
    value = 0.0
    if needy.size:
        phase1_cost = np.concatenate([np.zeros(width), np.ones(needy.size)])
        status = _run_simplex(T, basis, phase1_cost, tol, max_iter)
        if status != "optimal":
            raise SolverError("phase 1 cannot be unbounded")
        value = float(phase1_cost[basis] @ T[:, -1])
        if value > tol * max(1.0, float(np.max(np.abs(b)))):
            return None, None, value

    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(basis >= width):
        candidates = np.flatnonzero(np.abs(T[i, :width]) > tol)
        if not candidates.size:
            keep[i] = False
            continue
        _pivot(T, i, int(candidates[0]))
        basis[i] = candidates[0]
    return np.hstack([T[keep, :width], T[keep, -1:]]), basis[keep], value


@dataclass(eq=False)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    certificate: float | None  # phase-1 optimum when infeasible


class LpRegion:
    """The region A_ub x <= b_ub, x >= 0, with A_ub an m x n array,
    ready to minimize any linear cost over it or over a relaxation.

    Its standard form has the variables x, then one slack per row.
    Phase 1 runs once, in the constructor, and every ``minimize`` runs
    phase 2 on a copy of its tableau.  Dropping rows or freeing
    variables only enlarges the region, so that tableau stays a feasible
    start for each relaxation (Chvatal, Linear Programming, 1983, ch. 10).
    """

    def __init__(self, A_ub: np.ndarray, b_ub: Sequence[float], tol: float = DEFAULT_TOLERANCES.lp):
        self.A = np.asarray(A_ub, dtype=float)
        self.b = np.asarray(b_ub, dtype=float).reshape(-1)
        self.tol = tol
        self._T, self._basis, self.certificate = _phase1(self.A, self.b, tol, SIMPLEX_MAX_ITER)

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
        violates one.  Over an empty region, a relaxation runs its own
        phase 1 over the kept rows, with the negative parts of the freed
        variables as extra columns.
        """
        c = np.asarray(c, dtype=float)
        m, n = self.A.shape
        keep = np.ones(m, dtype=bool)
        keep[np.asarray(drop_rows, dtype=int)] = False
        freed = np.zeros(n, dtype=bool)
        freed[np.asarray(free_vars, dtype=int)] = True
        freed = np.flatnonzero(freed)
        if not self.feasible:
            if keep.all() and not freed.size:
                return LpResult("infeasible", None, None, self.certificate)
            A = self.A[keep]
            relaxed = LpRegion(np.hstack([A, -A[:, freed]]), self.b[keep], self.tol)
            res = relaxed.minimize(np.concatenate([c, -c[freed]]))
            if res.status != "optimal":
                return res
            x = res.x[:n]
            x[freed] -= res.x[n:]
            return LpResult("optimal", x, float(c @ x), None)

        dropped = n + np.flatnonzero(~keep)
        width = self._T.shape[1] - 1
        T = np.hstack([self._T[:, :-1], -self._T[:, freed], -self._T[:, dropped], self._T[:, -1:]])
        cost = np.zeros(T.shape[1] - 1)
        cost[:n] = c
        cost[width : width + freed.size] = -c[freed]
        basis = self._basis.copy()
        if _run_simplex(T, basis, cost, self.tol, SIMPLEX_MAX_ITER) == "unbounded":
            return LpResult("unbounded", None, None, None)
        z = np.zeros(T.shape[1] - 1)
        z[basis] = T[:, -1]
        x = z[:n].copy()
        x[freed] -= z[width : width + freed.size]
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

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def nullspace(M: np.ndarray, tol: float = DEFAULT_TOLERANCES.nullspace) -> NullspaceBasis:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[1]
    if M.size == 0:  # no rows, or no columns: the kernel is the whole space
        return NullspaceBasis(np.eye(n), 0)
    _, s, vt = np.linalg.svd(M)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0.0 else 0
    return NullspaceBasis(vt[rank:].T.copy(), rank)


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
    multipliers: np.ndarray      # one per inequality row
    residuals: dict[str, float]
    iterations: int  # proximal steps, 0 when Q has no zero column


# Proximal steps on the zero columns of Q.  A free variable gets curvature
# of about 1 / q through the others, q the scale of Q's diagonal, and a
# step shrinks its error by about 1 / (1 + omega^2 / q); so omega is
# PROX_WEIGHT * sqrt(max diag(Q) / 2), which is PROX_WEIGHT for training
# with a unit-diagonal kernel (Q = 2 K-hat).  On seeded biased chains with
# RBF, linear and polynomial kernels, points scaled up to 100, every
# chain that trains takes at most 4 steps.
PROX_WEIGHT = 10.0
PROX_MAX_STEPS = 20


def _least_distance(
    A: np.ndarray, b: np.ndarray, root_inv: np.ndarray, x0: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Point and multipliers of the least-distance program min 0.5 ||z||^2
    over A x + b <= 0 with x = ``root_inv`` z + ``x0``.  It is solved as
    its NNLS dual min ||[-(A R)'; h'] u - e|| over u >= 0, h = A x0 + b,
    R = ``root_inv`` (Lawson and Hanson, ch. 23).  Its multipliers are
    mu = u / (1 - h.u), where 1 - h.u is the squared residual.  A
    residual whose square is within ``tol.lp`` makes u a Farkas vector,
    checked before ``Infeasible`` is raised.
    """
    n = x0.size
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
    """Global minimizer of a convex QP by least-distance NNLS solves.

    The QP is a least-distance program in z, with x = R z + x0.  The
    exactly-zero columns of Q, such as per-predicate biases, are free
    variables; on the other columns R = V diag(w)^-1/2 and x0 = -V
    diag(w)^-1 V'c, with that part of Q = V diag(w) V' split once by
    ``eigh`` and weight 1 on its kernel, so 0.5 ||z||^2 is the QP's
    objective up to a constant.  Without free variables, one
    ``_least_distance`` solve is the answer.  With them, R = omega I, with
    omega set by Q's diagonal (see ``PROX_WEIGHT``), and x0 = x_k -
    omega^2 c on the free ones add the proximal term
    ||x_F - x_k||^2 / (2 omega^2) (Rockafellar, SIAM J. Control Optim.
    14(5), 1976), and each step solves again from the free coordinates
    x_k the last one reached, up to ``PROX_MAX_STEPS`` times.  A point is
    returned only when ``_kkt_residuals`` puts it within ``tol.qp`` of
    the problem's scale; otherwise SolverError names its residuals.  Which
    rows are active is left to the caller.  All tie-breaking is
    lowest-index, so runs are reproducible.
    """
    Q = np.atleast_2d(np.asarray(problem.Q, dtype=float))
    n = Q.shape[0]
    c = np.asarray(problem.c, dtype=float)
    A = np.asarray(problem.A, dtype=float).reshape(-1, n) if np.size(problem.A) else np.zeros((0, n))
    b = np.asarray(problem.b, dtype=float).reshape(-1)
    if np.max(np.abs(Q - Q.T), initial=0.0) > 1e-8:
        raise SolverError("Q must be symmetric")
    Q = (Q + Q.T) / 2.0

    free = ~np.any(Q, axis=0)
    kept = np.flatnonzero(~free)
    w, V = np.linalg.eigh(Q[np.ix_(kept, kept)])
    w = np.where(w > tol.nullspace * np.max(w, initial=0.0), w, 1.0)
    omega = PROX_WEIGHT * math.sqrt(float(Q.diagonal().max(initial=0.0)) / 2.0 or 1.0)
    root_inv = np.zeros((n, n))
    root_inv[np.ix_(kept, kept)] = V / np.sqrt(w)
    root_inv[free, free] = omega
    x0 = np.empty(n)
    x0[kept] = -V @ ((V.T @ c[kept]) / w)
    proximal = bool(free.any())
    x = np.zeros(n)
    for step in range(1, PROX_MAX_STEPS + 1):
        x0[free] = x[free] - omega**2 * c[free]
        x, mu = _least_distance(A, b, root_inv, x0, tol)
        residuals, optimal = _kkt_residuals(Q, c, A, b, x, mu, tol.qp)
        if optimal or not proximal:
            break
    if not optimal:
        named = ", ".join(f"{k} {v:.3e}" for k, v in residuals.items())
        after = f" after {step} proximal steps" if proximal else ""
        raise SolverError(f"least-distance point is not a KKT point within tolerance{after}: {named}")
    objective = float(0.5 * x @ Q @ x + c @ x)
    return QpSolution(x, objective, mu, residuals, step if proximal else 0)
