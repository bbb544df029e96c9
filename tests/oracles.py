"""Independent reference implementations used to cross-check the solvers
and the formula compiler.

The solver oracles deliberately take the brute-force route: enumerate
candidate active sets and solve the stationarity conditions directly, so
they share no code path with the iterative solvers under test.  The
compiler oracle is a direct walk over (terms, constant) tuples;
``constraints.compile_min_affine`` must return exactly its pieces, in
its order.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from luklearn.constraints import AffineSet, CompileError, Pieces
from luklearn.grounding import GroundingError, sample_universe
from luklearn.logic import Atom, Forall, Neg, StrongDisj, WeakConj, to_text


def kkt_enumeration_qp(Q, c, A, b, tol=1e-9):
    """Global minimum of min 0.5 x'Qx + c.x s.t. A x + b <= 0 for PSD Q,
    found by trying every subset of constraints as the active set; with a
    singular Q, each KKT system is solved by minimum-norm least squares.

    Returns (x, objective) or None when no subset yields a point that is
    feasible with nonnegative multipliers.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = Q.shape[0]
    m = A.shape[0]
    best = None
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            W = list(subset)
            K = np.zeros((n + r, n + r))
            K[:n, :n] = Q
            rhs = np.empty(n + r)
            rhs[:n] = -c
            if r:
                K[:n, n:] = A[W].T
                K[n:, :n] = A[W]
                rhs[n:] = -b[W]
            sol, _, _, _ = np.linalg.lstsq(K, rhs, rcond=None)
            if np.max(np.abs(K @ sol - rhs), initial=0.0) > 1e-8 * (
                1.0 + float(np.max(np.abs(rhs), initial=0.0))
            ):
                continue
            x = sol[:n]
            mu = sol[n:]
            if m and np.max(A @ x + b) > tol:
                continue
            if r and np.min(mu) < -tol:
                continue
            obj = float(0.5 * x @ Q @ x + c @ x)
            if best is None or obj < best[1]:
                best = (x, obj)
    return best


def random_feasible_qp(rng, n_max=4, m_max=6):
    """A random strictly convex QP with a known interior-feasible point."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    R = rng.standard_normal((n, n))
    Q = R.T @ R + 0.5 * np.eye(n)
    c = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    x0 = rng.standard_normal(n)
    slack = rng.random(m) + 0.1
    b = -A @ x0 - slack
    return Q, c, A, b


def is_farkas_vector(y, A, b, tol=1e-9):
    """y >= 0, A'y = 0 (to ``tol`` relative to b.y) and b.y > 0: then
    0 >= y.(A x + b) = b.y > 0 for any x with A x + b <= 0, so none exists."""
    y = np.asarray(y, dtype=float)
    bty = float(np.asarray(b, dtype=float) @ y)
    return bool(np.min(y) >= 0.0 and bty > 0.0 and np.max(np.abs(np.asarray(A).T @ y)) <= tol * bty)


def linprog_supports(M, target, cols, tol=1e-7):
    """Can the columns ``cols`` of M alone carry a nonnegative solution of
    M lam = target?  Decided by HiGHS on min ||M lam - target||_inf over
    lam >= 0 on ``cols``, accepted when that minimum is within ``tol``."""
    k = len(cols)
    target = np.asarray(target, dtype=float)
    if k == 0:
        return float(np.max(np.abs(target), initial=0.0)) <= tol
    sub = np.asarray(M, dtype=float)[:, list(cols)]
    S = sub.shape[0]
    A_ub = np.vstack(
        [np.hstack([sub, -np.ones((S, 1))]), np.hstack([-sub, -np.ones((S, 1))])]
    )
    b_ub = np.concatenate([target, -target])
    c = np.zeros(k + 1)
    c[k] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    return res.status == 0 and res.x[k] <= tol


def _dedup(pieces):
    seen = set()
    out = []
    for piece in pieces:
        if piece not in seen:
            seen.add(piece)
            out.append(piece)
    return out


def _is_constant_true(piece):
    terms, constant = piece
    return not terms and constant >= 1.0


def _disjunct(pieces):
    if len(pieces) > 1:
        pieces = _dedup(pieces)
    return [a for a in pieces if not _is_constant_true(a)]


def reference_compile_min_affine(nnf, index):
    """The min-of-affines form of ``nnf`` by a walk over pieces as
    (terms, constant) tuples, terms as sorted (coordinate, coefficient)
    pairs: every node builds its pieces, strong-disjunction operands and
    the root are deduplicated through a set of seen pieces, and each
    ``forall`` instance copies the environment."""
    cap = ((), 1.0)
    universe = sample_universe(nnf, index)

    def coordinate(atom, env):
        args = []
        for arg in atom.args:
            if arg in env:
                args.append(env[arg])
            elif arg in universe:
                raise GroundingError(f"free variable {arg!r} in {to_text(nnf)}; quantify it")
            else:
                args.append(arg)
        return index.coordinate_of(Atom(atom.name, tuple(args)))

    def rec(node, env):
        kind = type(node)
        if kind is Atom:
            return [(((coordinate(node, env), 1.0),), 0.0)]
        if kind is Neg and type(node.child) is Atom:
            return [(((coordinate(node.child, env), -1.0),), 1.0)]
        if kind is WeakConj:
            return rec(node.left, env) + rec(node.right, env)
        if kind is Forall:
            names = universe.get(node.var)
            if names is None:
                raise GroundingError(f"cannot infer a domain for quantified variable {node.var!r}")
            if not names:
                raise GroundingError(f"the domain of variable {node.var!r} has no samples")
            pieces = []
            for name in names:
                pieces += rec(node.body, {**env, node.var: name})
            return pieces
        if kind is StrongDisj:
            left = _disjunct(rec(node.left, env))
            right = _disjunct(rec(node.right, env))
            sums = [cap]
            for a_terms, a_constant in left:
                for b_terms, b_constant in right:
                    coeffs = dict(a_terms)
                    for k, c in b_terms:
                        coeffs[k] = coeffs.get(k, 0.0) + c
                    terms = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0.0))
                    sums.append((terms, float(a_constant + b_constant)))
            return sums
        raise CompileError(f"node {kind.__name__} is outside the concave fragment")

    return AffineSet(Pieces.of(_dedup(rec(nnf, {}))))
