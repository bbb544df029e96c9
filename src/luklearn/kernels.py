"""Kernel functions and Gram matrices, one per predicate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class KernelError(Exception):
    pass


@dataclass(frozen=True)
class KernelSpec:
    """Configuration of a kernel function.

    kind "linear": k(x, y) = x . y + offset   (offset defaults to 1)
    kind "polynomial": k(x, y) = (x . y + offset) ** degree
    kind "rbf": k(x, y) = exp(-|x - y|^2 / (2 sigma^2))
    """

    kind: str = "linear"
    offset: float = 1.0
    degree: int = 2
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "rbf"):
            raise KernelError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial" and (self.degree < 1 or int(self.degree) != self.degree):
            raise KernelError("polynomial degree must be a positive integer")
        if self.kind == "rbf" and not self.sigma > 0:
            raise KernelError("rbf width sigma must be positive")


def _rows(points: Sequence[Sequence[float]]) -> np.ndarray:
    """``points`` as a float matrix, one row per point."""
    try:
        X = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise KernelError("points must be rows of one common dimension") from exc
    if X.ndim != 2:
        raise KernelError("points must be rows of one common dimension")
    return X


def cross_gram(
    spec: KernelSpec, X: Sequence[Sequence[float]], Y: Sequence[Sequence[float]]
) -> np.ndarray:
    """The matrix k(x_i, y_j) of ``spec`` between the rows of X and of Y.

    The RBF distances use the squared-norm expansion |x|^2 + |y|^2 - 2 x.y,
    clipped at zero.  They are computed in place, in one array beside
    X @ Y.T, with the same operations in the same order as the plain
    expression ``exp(-max(|x|^2 + |y|^2 - 2.0 * (X @ Y.T), 0) /
    (2 sigma^2))``, so K has its bits.
    """
    X, Y = _rows(X), _rows(Y)
    if X.shape[1] != Y.shape[1]:
        raise KernelError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    if spec.kind == "rbf":
        d2 = np.sum(X**2, axis=1)[:, None] + np.sum(Y**2, axis=1)[None, :]
        xy = X @ Y.T
        xy *= 2.0
        d2 -= xy
        del xy
        np.maximum(d2, 0.0, out=d2)
        np.negative(d2, out=d2)
        d2 /= 2.0 * spec.sigma**2
        return np.exp(d2, out=d2)
    K = X @ Y.T + spec.offset
    return K**spec.degree if spec.kind == "polynomial" else K


@dataclass(eq=False)
class GramMatrix:
    matrix: np.ndarray
    symmetric: bool
    min_eigenvalue: float


def gram(spec: KernelSpec, points: Sequence[Sequence[float]]) -> GramMatrix:
    """Gram matrix of ``spec`` on ``points``.

    Tuple samples of n-ary predicates are expected to be concatenated
    into flat vectors before this call.  Raises KernelError when an
    entry overflows to a non-finite value.
    """
    if len(points) == 0:
        raise KernelError("empty sample list")
    X = _rows(points)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by name
        K = cross_gram(spec, X, X)
    if not np.isfinite(K).all():
        raise KernelError(f"{spec.kind} Gram matrix is not finite: the kernel overflows on these points")
    if spec.kind == "rbf":
        np.fill_diagonal(K, 1.0)
    # one array on both sides: X @ X.T comes out exactly symmetric, and
    # eigvalsh reads one triangle of it
    symmetric = bool(np.array_equal(K, K.T))
    min_eig = float(np.linalg.eigvalsh(K)[0]) if symmetric else float("nan")
    return GramMatrix(K, symmetric, min_eig)


def psd_check(g: GramMatrix) -> str:
    """Classify a Gram matrix as positive_definite, positive_semidefinite
    or invalid by its smallest eigenvalue: above 1e-9 is definite, and
    below -1e-9 times max(1, largest |diagonal entry|) is invalid.
    Rounding moves an eigenvalue by about the machine epsilon times the
    largest, and the largest diagonal entry is within a factor n of it."""
    if not g.symmetric:
        raise KernelError("Gram matrix is not symmetric")
    if g.min_eigenvalue > 1e-9:
        return "positive_definite"
    if g.min_eigenvalue >= -1e-9 * max(1.0, float(np.max(np.abs(np.diagonal(g.matrix)), initial=0.0))):
        return "positive_semidefinite"
    return "invalid"
