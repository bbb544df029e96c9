"""Dense numeric core: nonnegative least squares (NNLS), convex quadratic
programming by least-distance NNLS solves behind a KKT gate, linear
programming by a tableau simplex, and nullspace / least-squares helpers.

An ``LpRegion`` is the one entry point for LPs: the region A x <= b,
x >= 0.  Its simplex starts from the slack basis and adds artificials,
and a phase 1, only for the rows with a negative right-hand side.  It
keeps the feasible tableau of that phase 1, so LPs over the region with
some rows dropped or some variables freed run phase 2 alone.
``minimize_many`` solves many such LPs at once: they pivot as stacks of
tableaus in one simplex kernel, the one phase 1 runs in too, and each
LP's result does not depend on its stack.  Every optimum is checked
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

SIMPLEX_MAX_ITER = 20000  # pivots per LP per simplex phase
# Tableau bytes of one stack of LPs (``LpRegion.minimize_many``); an LP
# whose tableau alone is larger runs in a stack of its own.  An analysis
# of a chain of 40 points then stacks about four LPs and one of 80
# points runs them alone; at 256 KiB the chains of 20 and 40 points
# pivoted in stacks too small to beat one LP at a time.
SIMPLEX_STACK_BYTES = 1 << 20


def _pivot(T: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pivot each tableau T[l] of a stack on its entry (rows[l], cols[l]),
    and return the factors: the pivot column after the division, with
    zero in the pivot row.

    That row is divided by the entry; then each other row with a nonzero
    factor, and only such a row, has the factor times the pivot row
    subtracted.  Every operation is elementwise, so a tableau's bits do
    not depend on the others in its stack.
    """
    at = np.arange(T.shape[0])
    pivot_rows = T[at, rows]
    pivot_rows /= pivot_rows[at, cols][:, None]
    T[at, rows] = pivot_rows
    factors = T[at, :, cols]
    factors[at, rows] = 0.0
    lps, others = np.nonzero(factors)
    update = pivot_rows[lps]
    update *= factors[lps, others][:, None]
    T[lps, others] -= update
    return factors


def _exchange(T: np.ndarray, basis: np.ndarray, ids: np.ndarray, rows: np.ndarray, slots: np.ndarray) -> None:
    """Pivot each compact tableau T[l] of a stack on (rows[l], slots[l]):
    the variable ids[l, slot] enters the basis in that row, and the one
    that leaves takes its slot, with the column a full tableau would
    give it: 1 / pivot in the pivot row and -factor / pivot elsewhere."""
    at = np.arange(T.shape[0])
    inverse = 1.0 / T[at, rows, slots]
    factors = _pivot(T, rows, slots)
    factors *= -inverse[:, None]
    factors[at, rows] = inverse
    T[at, :, slots] = factors
    entering = ids[at, slots]
    ids[at, slots] = basis[at, rows]
    basis[at, rows] = entering


def _price(T: np.ndarray, cost: np.ndarray, basic_cost: np.ndarray) -> None:
    """Set the last row of each compact tableau T[l] of a stack to the
    reduced costs of its columns, cost[l] - basic_cost[l] T[l], with
    minus the basic cost in the right-hand side's column.  Each LP
    subtracts its rows with a nonzero basic cost one at a time, in row
    order, so its row depends on its own tableau only."""
    m = T.shape[1] - 1
    lps, rows = np.nonzero(basic_cost)
    priced = T[:, m]
    priced[:, :-1] = cost
    priced[:, -1] = 0.0
    np.subtract.at(priced, lps, basic_cost[lps, rows, None] * T[lps, rows])


def _simplex(T: np.ndarray, basis: np.ndarray, ids: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Iterate a stack of compact tableaus, each to its own optimum, by
    Bland's rule: of the columns with a reduced cost below -``tol`` the
    one of the lowest variable enters, and of the rows within 1e-12 of
    the minimum ratio the one with the lowest basic variable leaves.

    A compact tableau holds only the nonbasic columns of a canonical
    one, whose basic columns are unit vectors: T[l] has LP l's rows,
    then its reduced-cost row (``_price``), and its columns are the
    variables ids[l], then the right-hand side; basis[l] names the basic
    variable of each row.  Every LP still running pivots once per
    round, and one that stops, optimal or unbounded, swaps places with
    a running one at the end of the working stack, which shrinks; so
    each LP gets the decisions and arithmetic it gets alone.  Returns
    (slot, unbounded): LP l ends in T[slot[l]], basis[slot[l]] and
    ids[slot[l]], and unbounded[l] tells whether it is unbounded.
    SolverError is raised when an LP is still running after
    ``max_iter`` rounds.
    """
    stack, height, width = T.shape
    m, k = height - 1, width - 1
    spare = max(ids.max(initial=0), basis.max(initial=0)) + 1  # above every variable
    held = np.arange(stack)  # the LP in each slot
    unbounded = np.zeros(stack, dtype=bool)
    live = stack
    for _ in range(max_iter):
        at = np.arange(live)
        eligible = T[:live, m, :k] < -tol
        entering = np.argmin(np.where(eligible, ids[:live], spare), axis=1)
        column = T[at, :m, entering]
        ratios = np.full((live, m), np.inf)
        np.divide(T[:live, :m, k], column, out=ratios, where=column > tol)
        least = ratios.min(axis=1, initial=np.inf)
        priced = eligible[at, entering]
        stop = ~priced | (least == np.inf)
        if stop.any():
            unbounded[held[:live][stop]] = priced[stop]
            live -= int(np.count_nonzero(stop))
            out = np.flatnonzero(stop[:live])
            into = live + np.flatnonzero(~stop[live:])
            if out.size:
                to, fro = np.concatenate([out, into]), np.concatenate([into, out])
                for a in (T, basis, ids, held, entering, ratios, least):
                    a[to] = a[fro]
            if not live:
                slot = np.empty(stack, dtype=int)
                slot[held] = np.arange(stack)
                return slot, unbounded
            entering, ratios, least = entering[:live], ratios[:live], least[:live]
        ties = ratios <= (least + 1e-12)[:, None]
        leaving = np.argmin(np.where(ties, basis[:live], spare), axis=1)
        _exchange(T[:live], basis[:live], ids[:live], leaving, entering)
    raise SolverError("simplex iteration limit exceeded")


def _phase1(
    A: np.ndarray, b: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray | None, np.ndarray | None, float]:
    """Feasible canonical tableau of A x + s = b, x >= 0, s >= 0.

    Each row with b >= 0 starts basic in its slack (the all-slack crash
    basis; Bixby, ORSA J. Computing 4(3), 1992).  Each row with b < 0 is
    negated and starts basic in an artificial of its own, and the
    phase-1 simplex, a stack of one, runs only when some row has one.
    Artificials still basic at its optimum are pivoted out, and rows
    where none can be are redundant and dropped.  Returns (T, basis,
    value): T has the columns of A, then the slacks, and a trailing
    right-hand side, and value is the phase-1 optimum.  For an
    infeasible system T and basis are None.
    """
    m, n = A.shape
    flip = b < 0
    sign = np.where(flip, -1.0, 1.0)[:, None]
    needy = np.flatnonzero(flip)
    width = n + m
    # nonbasic at the start: x, and the slacks of the rows on an artificial
    ids = np.concatenate([np.arange(n), n + needy])[None]
    T = np.empty((1, m + 1, ids.size + 1))
    T[0, :m, :n] = sign * A
    T[0, :m, n:-1] = (sign * np.eye(m))[:, needy]
    T[0, :m, -1] = sign[:, 0] * b
    basis = np.arange(n, width)
    basis[needy] = width + np.arange(needy.size)
    basis = basis[None]
    value = 0.0
    if needy.size:
        _price(T, np.zeros(ids.shape), (basis >= width).astype(float))
        _, unbounded = _simplex(T, basis, ids, tol, max_iter)
        if unbounded[0]:
            raise SolverError("phase 1 cannot be unbounded")
        value = float((basis[0] >= width).astype(float) @ T[0, :m, -1])
        if value > tol * max(1.0, float(np.max(np.abs(b)))):
            return None, None, value

    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(basis[0] >= width):
        candidates = np.flatnonzero((np.abs(T[0, i, :-1]) > tol) & (ids[0] < width))
        if not candidates.size:
            keep[i] = False
            continue
        _exchange(T, basis, ids, np.array([i]), candidates[np.argmin(ids[0, candidates])][None])
    full = np.zeros((int(np.count_nonzero(keep)), width + 1))
    structural = ids[0] < width
    full[:, ids[0, structural]] = T[0, :m][keep][:, np.append(structural, False)]
    full[np.arange(full.shape[0]), basis[0, keep]] = 1.0
    full[:, -1] = T[0, :m, -1][keep]
    return full, basis[0, keep], value


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
    Phase 1 runs once, in the constructor, and every LP runs phase 2
    from its tableau.  Dropping rows or freeing variables only enlarges
    the region, so that tableau stays a feasible start for each
    relaxation (Chvatal, Linear Programming, 1983, ch. 10).
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
        with the variables ``free_vars`` free: ``minimize_many`` of this
        LP alone."""
        return self.minimize_many([(c, drop_rows, free_vars)])[0]

    def minimize_many(self, lps: Sequence[tuple[Sequence[float], Sequence[int], Sequence[int]]]) -> list[LpResult]:
        """The result of each LP (c, drop_rows, free_vars): min c.x over
        the region without the rows ``drop_rows`` and with the variables
        ``free_vars`` free.

        A dropped row's slack becomes free and a freed variable loses
        its bound: each gets a negative part, whose column is the
        negated tableau column of the slack or the variable, gathered
        for that LP alone.  The LPs pivot together in stacks of at most
        ``SIMPLEX_STACK_BYTES`` tableau bytes, and each LP's result is
        bit for bit the one it gets alone.  An optimal x is checked
        against the kept rows, within ``tol`` times 1 + ||b_ub||_inf
        over them, and SolverError is raised when it violates one.  Over
        an empty region, each relaxation runs its own phase 1 over the
        kept rows, with the negative parts of the freed variables as
        extra columns.
        """
        m, n = self.A.shape
        count = len(lps)
        costs = np.zeros((count, n))
        keep = np.ones((count, m), dtype=bool)
        freed = np.zeros((count, n), dtype=bool)
        for l, (c, drop_rows, free_vars) in enumerate(lps):
            costs[l] = np.asarray(c, dtype=float)
            keep[l, np.asarray(drop_rows, dtype=int)] = False
            freed[l, np.asarray(free_vars, dtype=int)] = True
        if not self.feasible:
            return [self._relaxed(costs[l], keep[l], np.flatnonzero(freed[l])) for l in range(count)]
        # the negated columns, freed variables first: LP owner[j] has variable negated[j] at extra column rank[j]
        owner, negated = np.nonzero(np.hstack([freed, ~keep]))
        extras = np.bincount(owner, minlength=count)
        starts = np.concatenate([[0], np.cumsum(extras)])
        rank = np.arange(owner.size) - starts[owner]
        rows, width = self._T.shape[0], self._T.shape[1] - 1
        nonbasic = np.ones(width, dtype=bool)
        nonbasic[self._basis] = False
        nonbasic = np.flatnonzero(nonbasic)
        compact = self._T[:, np.append(nonbasic, width)]
        results: list[LpResult] = []
        first = 0
        while first < count:
            last, extra = first + 1, extras[first]
            while last < count:
                grown = max(extra, extras[last])
                if (last + 1 - first) * (rows + 1) * (nonbasic.size + grown + 1) * 8 > SIMPLEX_STACK_BYTES:
                    break
                last, extra = last + 1, grown
            part = slice(starts[first], starts[last])
            results += self._phase2(
                costs[first:last], keep[first:last], compact, nonbasic, int(extra),
                owner[part] - first, negated[part], rank[part],
            )
            first = last
        return results

    def _relaxed(self, c: np.ndarray, keep: np.ndarray, freed: np.ndarray) -> LpResult:
        """min c.x over a relaxation of an empty region, by a phase 1 of its own."""
        n = self.A.shape[1]
        if keep.all() and not freed.size:
            return LpResult("infeasible", None, None, self.certificate)
        A = self.A[keep]
        res = LpRegion(np.hstack([A, -A[:, freed]]), self.b[keep], self.tol).minimize(np.concatenate([c, -c[freed]]))
        if res.status != "optimal":
            return res
        x = res.x[:n]
        x[freed] -= res.x[n:]
        return LpResult("optimal", x, float(c @ x), None)

    def _phase2(self, costs, keep, compact, nonbasic, extra, owner, negated, rank) -> list[LpResult]:
        """Phase 2 of one stack of LPs from the region's tableau, whose
        nonbasic columns ``nonbasic`` and right-hand side are ``compact``:
        those columns, then the ``extra`` columns of the negative parts
        (LP owner[j] negates variable negated[j] in its column rank[j])
        padded with zero columns, then the right-hand side."""
        B, (m, n) = self._T, self.A.shape
        rows, width = B.shape[0], B.shape[1] - 1
        stack, k = len(costs), nonbasic.size
        T = np.empty((stack, rows + 1, k + extra + 1))
        T[:, :rows, :k] = compact[:, :k]
        T[:, :rows, k:] = 0.0
        T[:, :rows, -1] = compact[:, -1]
        T[owner, :rows, k + rank] = -B[:, negated].T
        ids = np.empty((stack, k + extra), dtype=int)
        ids[:, :k] = nonbasic
        ids[:, k:] = width + extra  # padding, never eligible
        ids[owner, k + rank] = width + rank
        cost = np.zeros((stack, width + extra + 1))
        cost[:, :n] = costs
        on_freed = negated < n
        cost[owner[on_freed], width + rank[on_freed]] = -costs[owner[on_freed], negated[on_freed]]
        at = np.arange(stack)[:, None]
        basis = np.tile(self._basis, (stack, 1))
        _price(T, cost[at, ids], cost[at, basis])
        slot, unbounded = _simplex(T, basis, ids, self.tol, SIMPLEX_MAX_ITER)

        z = np.zeros((stack, width + extra + 1))
        z[at, basis] = T[:, :rows, -1]
        z = z[slot]
        X = z[:, :n].copy()
        X[owner[on_freed], negated[on_freed]] -= z[owner[on_freed], width + rank[on_freed]]
        excess = X @ self.A.T - self.b
        excess[~keep] = -np.inf
        worst = np.max(excess, axis=1, initial=-np.inf)
        bound = self.tol * (1.0 + np.max(np.abs(self.b) * keep, axis=1, initial=0.0))
        results = []
        for l in range(stack):
            if unbounded[l]:
                results.append(LpResult("unbounded", None, None, None))
            elif worst[l] > bound[l]:
                raise SolverError(f"simplex optimum violates its own constraints by {worst[l]:.3e}")
            else:
                results.append(LpResult("optimal", X[l], float(costs[l] @ X[l]), None))
        return results


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


def min_norm_solution(
    M: np.ndarray, rhs: Sequence[float], tol: float = DEFAULT_TOLERANCES.nullspace
) -> tuple[np.ndarray, float, int]:
    """Least-squares solution of M x = rhs with minimal norm, the
    achieved residual norm and the rank of M.  Singular values at or
    below ``tol`` times the largest count as zero, the cutoff of
    ``nullspace``, so the rank is the one ``nullspace`` finds."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rhs = np.asarray(rhs, dtype=float)
    if M.shape[1] == 0:
        return np.zeros(0), float(np.linalg.norm(rhs)), 0
    x, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=tol)
    return x, float(np.linalg.norm(M @ x - rhs)), int(rank)


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
