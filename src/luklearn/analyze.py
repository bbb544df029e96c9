"""Multiplier analysis: which constraints can be dropped without moving
the trained optimum.

Two multiplier systems appear here, with different signs, and both are
reported:

* The target system  M lam = a_target, lam >= 0, lam zero on inactive
  pieces.  Its solution set is parameterized by a particular solution
  plus the nullspace of the active-column matrix; zeroing a block's
  coordinates inside that set ("deactivation") is the published
  removability test, and minimal support sets are searched in it.
  A deactivation certificate is a verified nonnegative least-squares
  solution over the active columns outside the block; where the set
  has more than one such point it may differ from the vertex an LP
  would return.  These results are reported, but decide no verdict.
* The gradient system  M nu = -2 a_target, nu >= 0 on active pieces.
  At an optimum of the training QP this says the loss gradient is an
  (entering-sign-correct) conic combination of active constraint
  gradients.  When the Gram matrices are positive definite, a solution
  avoiding a block exists exactly when dropping that block keeps the
  same optimal grounding vector, so the verdicts rely on it alone.

Each question has one entry point: ``deactivation_report`` for the
deactivation of every block of a target system, ``removable_constraints``
for a whole analysis (gradient certificates included),
``grounded_entailment`` and ``minimal_support_sets``.  Every question is
asked of the one matrix M: a mode and a block are each a set of its
columns, and mode "logical" only masks the target system's activity to
the logical blocks' columns.  An analysis puts every question about one
system (deactivation certificates, the minimal-set search and its
mandatory-block test, or gradient certificates) to one ``_Fits``: a
nonnegative least-squares fit per distinct column set, where a column
set holding every column that the whole active pool's fit uses is
answered by that fit, since only an optimum's support matters to it.

Verdicts per block: "entailed" (the block follows from the others over
all truth assignments), "removable" (drop-safe, optimum provably
unchanged), "candidate" (certificate exists but uniqueness is not
guaranteed), "necessary" (no certificate; dropping moves the optimum).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .constraints import ConstraintBlock, ConstraintMatrix, Pieces
from .solver import (
    DEFAULT_TOLERANCES,
    LpRegion,
    Tolerances,
    min_norm_solution,
    nnls,
    nullspace,
)
from .train import TrainedModel, TrainingProblem, solve_primal


class AnalysisError(Exception):
    pass


class InconsistentSystem(AnalysisError):
    """The multiplier system has no solution at the requested tolerance:
    a stale target, a wrong activity set or a semidefinite Gram matrix."""


class SupportLimitExceeded(AnalysisError):
    pass


def logical_coefficients(model: TrainedModel, mode: str = "all") -> np.ndarray:
    """Target vector for the multiplier system.

    Mode "all" treats every constraint family uniformly and targets the
    full coefficient vector.  Mode "logical" removes the pointwise and
    consistency contributions, reconstructed from the training
    multipliers, leaving only what the logical blocks account for.
    """
    if mode == "all":
        return model.alpha.copy()
    if mode != "logical":
        raise AnalysisError(f"unknown mode {mode!r}")
    matrix = model.problem.matrix
    target = model.alpha.copy()
    for nu, block_id in enumerate(matrix.column_block):
        if matrix.families[block_id] != "logical":
            target += 0.5 * model.multipliers[nu] * matrix.matrix[:, nu]
    return target


@dataclass(eq=False)
class GeneralSolution:
    """All solutions of M lam = target over the active columns:
    lam(t) = particular + basis t, with inactive coordinates pinned
    to zero."""

    matrix: np.ndarray
    target: np.ndarray
    active: np.ndarray            # bool per column
    column_blocks: list[str]
    particular: np.ndarray        # length N, zero off the active set
    basis: np.ndarray             # N x dim, zero off the active set
    residual: float = 0.0

    @property
    def nullspace_dim(self) -> int:
        return self.basis.shape[1]

    def lambda_of(self, t: Sequence[float]) -> np.ndarray:
        return self.particular + self.basis @ np.asarray(t, dtype=float)

    @cached_property
    def block_columns(self) -> dict[str, list[int]]:
        """Each block's columns, by block id in column order."""
        columns: dict[str, list[int]] = {}
        for i, b in enumerate(self.column_blocks):
            columns.setdefault(b, []).append(i)
        return columns


def solve_problem2(
    M: np.ndarray,
    target: Sequence[float],
    activity: Sequence[bool] | None = None,
    column_blocks: Sequence[str] | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> GeneralSolution:
    """Minimum-norm particular solution plus nullspace basis of the
    multiplier system restricted to active columns.

    ``activity`` defaults to every column active.  Raises
    InconsistentSystem when no multiplier vector reproduces ``target``,
    as at an optimum whose alpha leaves the span of the active columns
    through the kernel of a positive semidefinite Gram matrix.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    S, N = M.shape
    target = np.asarray(target, dtype=float)
    active = (
        np.ones(N, dtype=bool) if activity is None else np.asarray(activity, dtype=bool)
    )
    if column_blocks is None:
        column_blocks = [f"c{i + 1}" for i in range(N)]
    act_idx = np.flatnonzero(active)
    sub = M[:, act_idx]
    lam_act, residual, _ = min_norm_solution(sub, target, tol.nullspace)
    if residual > tol.stationarity * (1.0 + float(np.linalg.norm(target))):
        raise InconsistentSystem(
            f"multiplier system residual {residual:.3e} exceeds tolerance"
        )
    ns = nullspace(sub, tol.nullspace)
    particular = np.zeros(N)
    particular[act_idx] = lam_act
    basis = np.zeros((N, ns.dim))
    basis[act_idx, :] = ns.vectors
    return GeneralSolution(M, target, active, list(column_blocks), particular, basis, residual)


@dataclass(eq=False)
class DeactivationResult:
    """Outcome of zeroing one block inside the multiplier solution set.

    ``certificate`` is a nonnegative multiplier vector avoiding the
    block, or None.  ``relaxed`` drops the sign requirement; it is
    reported separately and is never treated as a certificate.
    """

    block: str
    certificate: np.ndarray | None
    relaxed: np.ndarray | None
    t_unique: bool
    equality_residual: float


def _fit_tolerance(target: np.ndarray, tol: Tolerances) -> float:
    """Largest inf-norm residual accepted for a multiplier fit of
    ``target``: the stationarity tolerance, relative to its scale."""
    return tol.stationarity * (1.0 + float(np.max(np.abs(target), initial=0.0)))


class _Fits:
    """Nonnegative least-squares fits of M lam = target over subsets of
    the columns ``pool``, each distinct subset solved and checked once.

    A subset's problem is the pool's with the other columns pinned to
    zero, which gives two rules.  The subset fits the target no better
    than the whole pool does, and an inf-norm residual within tolerance
    has a 2-norm within sqrt(S) times it, so when the pool misses that
    bound no subset is solved at all.  And a subset holding every column
    the pool's fit uses contains that fit, which is then optimal for it
    too; the residual of a least-squares optimum is unique (Lawson and
    Hanson, Solving Least Squares Problems, 1974, ch. 23), so the pool's
    fit answers it with no NNLS.
    """

    def __init__(self, M: np.ndarray, target: np.ndarray, pool: Sequence[int], tol: Tolerances):
        self.M = M
        self.target = target
        self.pool = tuple(map(int, pool))
        self.limit = _fit_tolerance(target, tol)
        self._solved: dict[tuple, tuple[np.ndarray, float]] = {}
        self._answers: dict[tuple, np.ndarray | None] = {}

    def _solve(self, cols: tuple) -> tuple[np.ndarray, float]:
        if cols not in self._solved:
            self._solved[cols] = nnls(self.M[:, list(cols)], self.target)
        return self._solved[cols]

    @cached_property
    def _support(self) -> frozenset[int]:
        """The columns of M that the pool's fit uses."""
        return frozenset(np.array(self.pool, dtype=np.intp)[self._solve(self.pool)[0] > 0.0].tolist())

    def _key(self, cols: Sequence[int]) -> tuple:
        """The column set whose fit answers ``cols``, a subset of the pool."""
        return self.pool if self._support.issubset(cols) else tuple(cols)

    def may_fit(self, cols: Sequence[int]) -> bool:
        """False when no subset of ``cols`` carries multipliers: the fit
        over ``cols`` has a 2-norm residual above sqrt(S) times the fit
        tolerance, and no subset fits better."""
        return self._solve(self._key(cols))[1] <= np.sqrt(self.M.shape[0]) * self.limit

    @cached_property
    def pool_fits(self) -> bool:
        return self.may_fit(self.pool)

    def _answer(self, key: tuple) -> np.ndarray | None:
        """The fit over ``key`` as multipliers over every column, or None
        when an equation misses the fit tolerance."""
        lam_key, _ = self._solve(key)
        if float(np.max(np.abs(self.M[:, list(key)] @ lam_key - self.target), initial=0.0)) > self.limit:
            return None
        lam = np.zeros(self.M.shape[1])
        lam[list(key)] = lam_key
        return lam

    def multipliers(self, cols: Sequence[int]) -> np.ndarray | None:
        """Nonnegative multipliers on ``cols``, a subset of the pool,
        with every equation of M lam = target holding within the fit
        tolerance, or None; a fresh vector on every call."""
        if not self.pool_fits:
            return None
        key = self._key(cols)
        if key not in self._answers:
            self._answers[key] = self._answer(key)
        lam = self._answers[key]
        return None if lam is None else lam.copy()

    def avoiding(self, block_columns: dict[str, Sequence[int]]) -> dict[str, np.ndarray | None]:
        """Each block's multipliers on the pool outside its columns, by
        block id.  A block with no column in the pool leaves the pool
        whole, so every such block shares the pool's answer, one vector."""
        pool = frozenset(self.pool)
        whole = self.multipliers(self.pool)
        answers = {}
        for block_id, cols in block_columns.items():
            answers[block_id] = whole
            if not pool.isdisjoint(cols):
                blocked = set(cols)
                answers[block_id] = self.multipliers([c for c in self.pool if c not in blocked])
        return answers


def _deactivate(gs: GeneralSolution, block_id: str, tol: Tolerances, certificate: np.ndarray | None) -> DeactivationResult:
    """Search lam(t) for a nonnegative solution with every coordinate of
    ``block_id`` equal to zero.

    ``certificate`` is the block's answer from ``_Fits.avoiding`` over
    every active column: the nonnegative least-squares solution of
    M lam = target over the active columns outside the block, reported
    when every equation holds within the stationarity tolerance times
    1 + ||target||_inf.  Where ``t_unique`` is false, several multiplier
    vectors avoid the block, and this one may differ from the vertex an
    LP would return.  ``relaxed`` takes the minimum-norm t of the
    block's equations, with singular values at or below the nullspace
    cutoff dropped, and ``t_unique`` reads that solve's rank.
    """
    act_cols = [c for c in gs.block_columns[block_id] if gs.active[c]]
    eq_rows = gs.basis[act_cols, :]
    relaxed_t, residual, rank = min_norm_solution(eq_rows, -gs.particular[act_cols], tol.nullspace)
    relaxed = gs.lambda_of(relaxed_t) if residual <= tol.stationarity else None
    return DeactivationResult(block_id, certificate, relaxed, rank == eq_rows.shape[1], residual)


def _deactivations(gs: GeneralSolution, tol: Tolerances, fits: _Fits) -> dict[str, DeactivationResult]:
    """Every block's deactivation result, certificates from ``fits``,
    whose pool holds every active column.  A block with no active column
    constrains nothing in lam(t), so every such block takes lam(0), a
    unique t exactly when the nullspace is trivial, and residual 0."""
    active = frozenset(fits.pool)
    origin = gs.lambda_of(np.zeros(gs.nullspace_dim))
    return {
        block_id: DeactivationResult(block_id, certificate, origin, gs.nullspace_dim == 0, 0.0)
        if active.isdisjoint(gs.block_columns[block_id])
        else _deactivate(gs, block_id, tol, certificate)
        for block_id, certificate in fits.avoiding(gs.block_columns).items()
    }


def deactivation_report(gs: GeneralSolution, tol: Tolerances = DEFAULT_TOLERANCES) -> dict[str, DeactivationResult]:
    """Every block's deactivation result in the target multiplier system,
    by block id in column order.  The certificates come from one
    ``_Fits`` over the active columns, so a block whose columns the
    pool's fit does not use takes that fit, a block with no active
    column shares it, and none is fitted when the whole active pool
    cannot carry the target.
    """
    return _deactivations(gs, tol, _Fits(gs.matrix, gs.target, np.flatnonzero(gs.active), tol))


@dataclass(eq=False)
class EntailmentResult:
    entailed: bool
    piece_maxima: list[float]
    vacuous: bool


class _EntailmentRegion:
    """The feasible region of the entailment LPs over every block, with
    one phase 1, from which each block's LPs drop that block.

    The unit box is presolved: its lower sides are the region's
    x >= 0, its upper sides one row per coordinate, and the consistency
    blocks, which repeat the box, add no rows.  A tested box side is
    left out of the region, so that the test is not circular: a lower
    side frees its coordinate and an upper side drops its row.
    """

    def __init__(self, blocks: Sequence[ConstraintBlock], size: int, tol: Tolerances):
        self.size = size
        self.tol = tol
        self.rows: dict[str, list[int]] = {}
        kept = [block for block in blocks if block.family != "consistency"]
        count = 0
        for block in kept:
            self.rows.setdefault(block.block_id, []).extend(range(count, count + len(block.pieces)))
            count += len(block.pieces)
        stacked = Pieces.concatenate([block.pieces for block in kept])
        self.upper = len(stacked)  # the row of coordinate k's upper side is upper + k
        self.region = LpRegion(
            np.concatenate((stacked.dense(size), np.eye(size))),
            np.concatenate((-stacked.constants, np.ones(size))),
            tol.lp,
        )

    def _relaxation(self, target: ConstraintBlock) -> tuple[list[int], list[int]]:
        """The rows to drop and the coordinates to free when testing ``target``."""
        drop = self.rows.get(target.block_id, [])
        pieces = target.pieces
        if target.family == "consistency" and len(pieces) == 1 and pieces.indptr[1] == 1:
            coord = int(pieces.coords[0])
            return ([], [coord]) if pieces.coefs[0] < 0 else ([self.upper + coord], [])
        return drop, []

    def test(self, targets: Sequence[ConstraintBlock]) -> list[EntailmentResult]:
        """Maximize each piece of each block of ``targets`` over the
        region without that block, every LP in one ``minimize_many``;
        a block is entailed when no piece can become positive.  The
        targets' pieces are scattered into one array of objectives."""
        stacked = Pieces.concatenate([target.pieces for target in targets])
        has_terms = (stacked.lengths() > 0).tolist()
        objectives = -stacked.dense(self.size)
        bounds = [0, *itertools.accumulate(len(target.pieces) for target in targets)]
        lps = []
        for target, start, stop in zip(targets, bounds, bounds[1:]):
            drop, free = self._relaxation(target)
            lps += [(objectives[i], drop, free) for i in range(start, stop) if has_terms[i]]
        solved = iter(self.region.minimize_many(lps))
        constants = stacked.constants.tolist()
        results = []
        for start, stop in zip(bounds, bounds[1:]):
            maxima, vacuous = [], False
            for constant, terms in zip(constants[start:stop], has_terms[start:stop]):
                if not terms:
                    maxima.append(constant)
                    continue
                res = next(solved)
                if res.status == "infeasible":
                    vacuous = True
                elif res.status == "unbounded":
                    maxima.append(float("inf"))
                else:
                    maxima.append(float(-res.objective + constant))
            if vacuous:
                results.append(EntailmentResult(True, [], True))
            else:
                results.append(EntailmentResult(all(v <= self.tol.entailment for v in maxima), maxima, False))
        return results


def grounded_entailment(
    blocks: Sequence[ConstraintBlock],
    block_id: str,
    size: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> EntailmentResult:
    """Does the rest of the constraint set force ``block_id``?

    For each piece of the block, maximize its value over all truth
    assignments in [0,1]^S satisfying every other block; the block is
    entailed when no piece can become positive.  The unit box is always
    imposed, whether or not ``blocks`` hold its consistency blocks; when
    the block under test is itself one side of it, that side is left out
    of the feasible region so the test is not circular.  The LPs start from
    one phase 1 over every block, this one included; when that region
    is empty, each LP runs its own phase 1 without the block, and an
    empty one makes the result vacuous.
    """
    target = next((b for b in blocks if b.block_id == block_id), None)
    if target is None:
        raise AnalysisError(f"unknown block {block_id!r}")
    return _EntailmentRegion(blocks, size, tol).test([target])[0]


@dataclass(eq=False)
class SupportSet:
    blocks: tuple[str, ...]
    certificate: np.ndarray


def minimal_support_sets(
    matrix: ConstraintMatrix,
    target: np.ndarray,
    activity: Sequence[bool],
    limit: int = 20,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[SupportSet]:
    """All smallest block subsets whose active pieces alone can carry a
    nonnegative solution of the target multiplier system.

    Search in increasing cardinality over blocks with at least one
    active piece.  When one fit of the whole pool shows that no subset
    can carry a solution, the answer is empty whatever the pool's size;
    otherwise a pool larger than ``limit`` raises SupportLimitExceeded.
    A block is mandatory when the pool without it cannot fit
    (``_Fits.may_fit``); every support set holds it, so only the other
    blocks are enumerated.  The sets come in the order an exhaustive
    search finds them, lexicographic in pool order.
    """
    active = np.asarray(activity, dtype=bool)
    fits = _Fits(matrix.matrix, np.asarray(target, dtype=float), np.flatnonzero(active), tol)
    return _support_sets(matrix, active, fits, limit)


def _support_sets(matrix: ConstraintMatrix, active: np.ndarray, fits: _Fits, limit: int) -> list[SupportSet]:
    """``minimal_support_sets`` with the fits of its target, whose pool
    holds every active column."""
    pool = [b for b in matrix.block_order if active[matrix.block_columns[b]].any()]
    block_cols = {b: [nu for nu in matrix.block_columns[b] if active[nu]] for b in pool}

    def columns(blocks) -> list[int]:
        return [nu for b in blocks for nu in block_cols[b]]

    if not fits.pool_fits:
        return []
    if len(pool) > limit:
        raise SupportLimitExceeded(
            f"{len(pool)} active blocks exceed the search limit {limit}"
        )
    mandatory = {b for b in pool if not fits.may_fit(columns(o for o in pool if o != b))}
    optional = [b for b in pool if b not in mandatory]
    for size in range(len(optional) + 1):
        found = []
        for chosen in itertools.combinations(optional, size):
            subset = tuple(b for b in pool if b in mandatory or b in chosen)
            lam = fits.multipliers(columns(subset))
            if lam is not None:
                found.append(SupportSet(subset, lam))
        if found:
            return found
    return []


@dataclass(eq=False)
class AblationRecord:
    block: str
    loss: float
    ablated_loss: float
    p_distance: float           # sup distance between the two optima
    dropped_satisfied: bool     # dropped block still holds at the new optimum
    dropped_violation: float
    identical: bool


def _without_block(cm: ConstraintMatrix, block_id: str) -> ConstraintMatrix:
    """``cm`` less the columns of one block: the matrix
    ``assemble_matrix`` builds from the other blocks, whose columns keep
    their order and labels and close up over the removed ones."""
    columns = cm.block_columns[block_id]
    start = columns[0] if columns else 0
    stop = start + len(columns)
    kept = (cm.cols < start) | (cm.cols >= stop)
    cols = cm.cols[kept]
    cols[cols >= stop] -= len(columns)
    return ConstraintMatrix(
        (cm.shape[0], cm.shape[1] - len(columns)),
        cm.coords[kept],
        cols,
        cm.values[kept],
        np.concatenate((cm.offsets[:start], cm.offsets[stop:])),
        cm.column_labels[:start] + cm.column_labels[stop:],
        cm.column_block[:start] + cm.column_block[stop:],
        [b for b in cm.block_order if b != block_id],
        {
            b: [c - len(columns) if c >= stop else c for c in cs]
            for b, cs in cm.block_columns.items()
            if b != block_id
        },
        {b: f for b, f in cm.families.items() if b != block_id},
        {b: s for b, s in cm.sources.items() if b != block_id},
        {b: n for b, n in cm.dropped.items() if b != block_id},
    )


def ablated_problem(tp: TrainingProblem, block_id: str) -> TrainingProblem:
    """The same training problem with one constraint block removed; its
    matrix is the problem's less that block's columns."""
    if all(b.block_id != block_id for b in tp.blocks):
        raise AnalysisError(f"unknown block {block_id!r}")
    blocks = [b for b in tp.blocks if b.block_id != block_id]
    return replace(tp, blocks=blocks, matrix=_without_block(tp.matrix, block_id))


def ablate_and_compare(
    tp: TrainingProblem,
    block_id: str,
    model: TrainedModel | None = None,
) -> AblationRecord:
    """Retrain without one block and compare optima and losses."""
    dropped = next((b for b in tp.blocks if b.block_id == block_id), None)
    if dropped is None:
        raise AnalysisError(f"unknown block {block_id!r}")
    if model is None:
        model = solve_primal(tp)
    ablated = solve_primal(ablated_problem(tp, block_id))
    distance = float(np.max(np.abs(model.p_star - ablated.p_star), initial=0.0))
    violation = dropped.max_value(ablated.p_star)
    return AblationRecord(
        block_id,
        model.loss,
        ablated.loss,
        distance,
        violation <= 1e-7,
        float(violation),
        distance <= 1e-7,
    )


@dataclass(eq=False)
class BlockReport:
    block_id: str
    family: str
    source: str
    verdict: str
    active_columns: list[str]
    deactivation: DeactivationResult | None
    kkt: np.ndarray | None
    entailment: EntailmentResult | None


@dataclass(eq=False)
class AnalysisReport:
    mode: str
    target: np.ndarray
    general: GeneralSolution
    blocks: list[BlockReport]
    unique_optimum: bool
    psd: dict[str, str]
    loss: float
    minimal_sets: list[SupportSet] | None
    columns: np.ndarray          # the mode's columns of M, the ones reported
    column_labels: list[str]     # their labels

    def to_dict(self) -> dict:
        def vec(v, labels=None):
            if v is None:
                return None
            if labels is None:
                return np.asarray(v, dtype=float).tolist()
            return dict(zip(labels, np.asarray(v, dtype=float)[self.columns].tolist()))

        labels = self.column_labels
        blocks = []
        for entry in self.blocks:
            d = entry.deactivation
            blocks.append(
                {
                    "id": entry.block_id,
                    "family": entry.family,
                    "source": entry.source,
                    "verdict": entry.verdict,
                    "active_pieces": entry.active_columns,
                    "target_system": None
                    if d is None
                    else {
                        "certificate": vec(d.certificate, labels),
                        "relaxed": vec(d.relaxed, labels),
                        "t_unique": d.t_unique,
                        "equality_residual": d.equality_residual,
                    },
                    "gradient_certificate": vec(entry.kkt, labels),
                    "entailment": None
                    if entry.entailment is None
                    else {
                        "entailed": entry.entailment.entailed,
                        "vacuous": entry.entailment.vacuous,
                        "piece_maxima": [
                            float(v) if np.isfinite(v) else "unbounded"
                            for v in entry.entailment.piece_maxima
                        ],
                    },
                }
            )
        return {
            "mode": self.mode,
            "loss": self.loss,
            "unique_optimum": self.unique_optimum,
            "kernel_classification": dict(self.psd),
            "nullspace_dimension": self.general.nullspace_dim,
            "system_residual": self.general.residual,
            "target": vec(self.target),
            "particular_solution": vec(self.general.particular, labels),
            "blocks": blocks,
            "minimal_support_sets": None
            if self.minimal_sets is None
            else [
                {"blocks": list(s.blocks), "certificate": vec(s.certificate, labels)}
                for s in self.minimal_sets
            ],
        }


def removable_constraints(
    model: TrainedModel,
    mode: str = "all",
    check_entailment: bool = False,
    minimal_sets: bool = False,
    support_limit: int = 20,
) -> AnalysisReport:
    """Full per-block analysis of a trained model.

    The verdict chain per block: "entailed" when the remaining blocks
    force it over all truth assignments; otherwise "removable" or
    "candidate" (by optimum uniqueness) when a gradient-system
    certificate avoiding the block exists; otherwise "necessary".
    The target-system artifacts (particular solution, nullspace,
    deactivation results) are computed and reported alongside.  Where the
    target system has no solution neither has the gradient system, and
    InconsistentSystem names the positive semidefinite Gram matrices.

    Mode "logical" reports the logical blocks and masks the target
    system's activity to their columns of M; its vectors keep one entry
    per column of M, zero off the mode's columns, and ``to_dict`` writes
    the mode's entries only.  Each system's questions go to one
    ``_Fits``, the minimal-set search's included.
    """
    tp = model.problem
    tol = tp.tolerances
    matrix = tp.matrix
    target = logical_coefficients(model, mode)
    block_ids = [b for b in matrix.block_order if mode == "all" or matrix.families[b] == "logical"]
    # the mode's columns of M, and the target system's activity masked to them
    in_mode = np.array([mode == "all" or matrix.families[b] == "logical" for b in matrix.column_block], dtype=bool)
    active = model.activity & in_mode
    try:
        gs = solve_problem2(matrix.matrix, target, active, matrix.column_block, tol)
    except InconsistentSystem as exc:
        named = ", ".join(name for name, kind in tp.psd.items() if kind == "positive_semidefinite") or "none"
        raise InconsistentSystem(f"analysis refused: {exc}; positive semidefinite Gram matrices: {named}") from exc

    fits = _Fits(matrix.matrix, gs.target, np.flatnonzero(active), tol)
    deactivations = _deactivations(gs, tol, fits)
    gradient = _Fits(matrix.matrix, -2.0 * model.alpha, np.flatnonzero(model.activity), tol)
    certificates = gradient.avoiding({b: matrix.block_columns[b] for b in block_ids})
    entailments = dict.fromkeys(block_ids)
    if check_entailment:
        # every block's entailment LPs start from one phase 1, which p* makes feasible
        by_id = {b.block_id: b for b in tp.blocks}
        region = _EntailmentRegion(tp.blocks, tp.index.size, tol)
        entailments = dict(zip(block_ids, region.test([by_id[b] for b in block_ids])))
    reports = []
    for block_id in block_ids:
        active_labels = [matrix.column_labels[nu] for nu in matrix.block_columns[block_id] if model.activity[nu]]
        ent = entailments[block_id]
        cert = certificates[block_id]
        if ent is not None and ent.entailed:
            verdict = "entailed"
        elif cert is not None:
            verdict = "removable" if tp.unique_optimum else "candidate"
        else:
            verdict = "necessary"
        reports.append(
            BlockReport(
                block_id,
                matrix.families[block_id],
                matrix.sources[block_id],
                verdict,
                active_labels,
                deactivations.get(block_id),
                cert,
                ent,
            )
        )

    columns = np.flatnonzero(in_mode)
    return AnalysisReport(
        mode,
        target,
        gs,
        reports,
        tp.unique_optimum,
        tp.psd,
        model.loss,
        _support_sets(matrix, active, fits, support_limit) if minimal_sets else None,
        columns,
        [matrix.column_labels[nu] for nu in columns.tolist()],
    )
