"""Tests for kernel evaluation, Gram matrices, and the PSD classifier."""

from __future__ import annotations

import math

import numpy as np
import pytest

from luklearn.kernels import GramMatrix, KernelError, KernelSpec, cross_gram, gram, psd_check


def test_kernel_spec_validation():
    with pytest.raises(KernelError, match="unknown kernel kind"):
        KernelSpec(kind="sigmoid")
    with pytest.raises(KernelError, match="degree"):
        KernelSpec(kind="polynomial", degree=0)
    with pytest.raises(KernelError, match="sigma"):
        KernelSpec(kind="rbf", sigma=0.0)


def _closed_form(spec, x, y):
    """k(x, y) written out per kind, independently of the library."""
    dot = sum(u * v for u, v in zip(x, y))
    if spec.kind == "linear":
        return dot + spec.offset
    if spec.kind == "polynomial":
        return (dot + spec.offset) ** spec.degree
    return math.exp(-sum((u - v) ** 2 for u, v in zip(x, y)) / (2.0 * spec.sigma**2))


SPECS = (
    KernelSpec("linear", offset=0.5),
    KernelSpec("polynomial", offset=1.0, degree=3),
    KernelSpec("rbf", sigma=0.5),
)


def test_cross_gram_formulas():
    x, y = (0.4, 0.3), (0.1, 0.2)
    dot = 0.4 * 0.1 + 0.3 * 0.2
    d2 = (0.4 - 0.1) ** 2 + (0.3 - 0.2) ** 2
    K = cross_gram(KernelSpec("linear", offset=1.0), [x], [y])
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(dot + 1.0)
    K = cross_gram(KernelSpec("polynomial", offset=1.0, degree=3), [x], [y])
    assert K[0, 0] == pytest.approx((dot + 1.0) ** 3)
    K = cross_gram(KernelSpec("rbf", sigma=0.5), [x], [y])
    assert K[0, 0] == pytest.approx(np.exp(-d2 / (2.0 * 0.25)))


def test_cross_gram_non_square():
    rng = np.random.default_rng(29)
    X = rng.random((4, 3))
    Y = rng.random((7, 3))
    for spec in SPECS:
        K = cross_gram(spec, X, Y)
        assert K.shape == (4, 7)
        for i, x in enumerate(X):
            for j, y in enumerate(Y):
                assert K[i, j] == pytest.approx(_closed_form(spec, x, y), rel=1e-12, abs=1e-12)
        assert np.allclose(cross_gram(spec, Y, X), K.T, rtol=1e-14, atol=1e-14)


def test_cross_gram_dimension_mismatch():
    with pytest.raises(KernelError, match="dimension mismatch"):
        cross_gram(KernelSpec(), [(1.0, 2.0)], [(1.0,)])
    # a single point is not a list of points; it must not broadcast
    with pytest.raises(KernelError, match="common dimension"):
        cross_gram(KernelSpec(), (1.0, 2.0), [(1.0, 2.0)])


def test_single_point_linear_gram():
    g = gram(KernelSpec("linear", offset=1.0), [(0.4, 0.3)])
    assert g.matrix.shape == (1, 1)
    assert g.matrix[0, 0] == pytest.approx(1.25, abs=1e-12)
    assert psd_check(g) == "positive_definite"


def test_gram_matches_pairwise_kernel_values():
    rng = np.random.default_rng(31)
    points = [tuple(rng.random(3)) for _ in range(5)]
    X = np.asarray(points)
    for spec in SPECS:
        g = gram(spec, points)
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                assert g.matrix[i, j] == pytest.approx(_closed_form(spec, x, y), abs=1e-12)
        assert g.symmetric
        off = ~np.eye(5, dtype=bool)
        assert np.array_equal(g.matrix[off], cross_gram(spec, X, X)[off])


def test_rbf_gram_has_unit_diagonal():
    rng = np.random.default_rng(37)
    points = rng.random((6, 2))
    g = gram(KernelSpec("rbf", sigma=0.3), points)
    assert np.allclose(np.diag(g.matrix), 1.0)
    assert psd_check(g) == "positive_definite"


def test_gram_rejects_bad_inputs():
    with pytest.raises(KernelError, match="empty"):
        gram(KernelSpec(), [])
    with pytest.raises(KernelError, match="common dimension"):
        gram(KernelSpec(), [(1.0, 2.0), (1.0,)])
    # an entry that overflows is refused as such, not as asymmetry
    for spec, x in [(KernelSpec("linear"), 1e200), (KernelSpec("polynomial", degree=2), 1e160)]:
        with pytest.raises(KernelError, match="not finite"):
            gram(spec, [(x,), (2.0,)])


def test_psd_check_branches():
    pd = gram(KernelSpec("rbf"), [(0.0,), (1.0,)])
    assert psd_check(pd) == "positive_definite"

    # duplicated points make the linear Gram matrix rank deficient
    psd = gram(KernelSpec("linear", offset=0.0), [(1.0, 0.0), (1.0, 0.0)])
    assert psd_check(psd) == "positive_semidefinite"

    bad = GramMatrix(np.array([[1.0, -2.0], [-2.0, 1.0]]), True, -1.0)
    assert psd_check(bad) == "invalid"

    asym = GramMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), False, float("nan"))
    with pytest.raises(KernelError, match="not symmetric"):
        psd_check(asym)


def test_psd_check_scales_the_invalid_threshold_with_the_diagonal():
    """Rounding leaves eigenvalues of about -1e-8 on large valid Gram
    matrices; those are semidefinite, while a truly indefinite kernel
    stays invalid."""
    cases = [
        (KernelSpec("linear"), np.random.default_rng(0).random((6, 2)) * 1e4, "positive_semidefinite"),
        (KernelSpec("polynomial", degree=2), np.random.default_rng(1).random((8, 2)) * 100, "positive_semidefinite"),
        (KernelSpec("linear", offset=-1.0), np.random.default_rng(0).random((6, 2)), "invalid"),
    ]
    for spec, points, verdict in cases:
        g = gram(spec, points)
        assert g.min_eigenvalue < -1e-9
        assert psd_check(g) == verdict


def test_min_eigenvalue_matches_numpy():
    rng = np.random.default_rng(41)
    points = rng.random((5, 2))
    g = gram(KernelSpec("polynomial", degree=2), points)
    expected = float(np.linalg.eigvalsh(g.matrix)[0])
    assert g.min_eigenvalue == pytest.approx(expected, abs=1e-10)


def _plain_rbf(spec, X, Y):
    """The RBF Gram matrix as one expression, each step on a new array."""
    d2 = np.sum(X**2, axis=1)[:, None] + np.sum(Y**2, axis=1)[None, :] - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / (2.0 * spec.sigma**2))


def test_rbf_cross_gram_has_the_bits_of_the_plain_expression():
    """The in-place RBF steps round exactly as the plain expression does,
    on distances that clip at zero, widths that underflow, and
    coordinates whose squares overflow, under the errstate ``gram``
    uses."""
    rng = np.random.default_rng(2024)
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(300):
            n, m, dim = (int(v) for v in rng.integers(1, 9, size=3))
            X = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4)
            Y = rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-3, 4)
            if trial % 3 == 0:
                Y[: min(n, m)] = X[: min(n, m)]  # equal points: d2 may round below zero
            if trial % 10 == 0:
                X[0, 0] = 1e200  # squares overflow to inf and inf - inf
            spec = KernelSpec("rbf", sigma=float(10.0 ** rng.uniform(-3, 2)))
            assert cross_gram(spec, X, Y).tobytes() == _plain_rbf(spec, X, Y).tobytes()
            assert cross_gram(spec, X, X).tobytes() == _plain_rbf(spec, X, X).tobytes()


def test_rbf_gram_peaks_at_two_matrices():
    """A 256-point RBF Gram matrix holds one S x S temporary beside K:
    its traced peak stays within 1.1 MiB above entry, where the plain
    expression held three, 1.5 MiB."""
    import tracemalloc

    points = [tuple(p) for p in np.random.default_rng(7).random((256, 2))]
    spec = KernelSpec("rbf", sigma=0.5)
    gram(spec, points)  # first calls allocate LAPACK and ufunc state once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gram(spec, points)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2**20
