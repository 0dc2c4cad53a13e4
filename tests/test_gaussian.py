"""Closed-form Gaussian algebra against quadrature and hand-computed oracles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import multivariate_normal

from filtermaps.gaussian import (
    RCOND_SINGULAR,
    BlockStructure,
    GaussianMeasure,
    SingularCovarianceError,
    chol_spd,
    condition,
    dg_upper_bound,
    g2_moment,
    kl_divergence,
    log_density_at,
    sample,
)


def _quad_axis(g, points=20001, width=9.0):
    s = np.sqrt(float(g.cov[0, 0]))
    return np.linspace(g.mean[0] - width * s, g.mean[0] + width * s, points)


def _pdf_1d(g, x):
    s2 = float(g.cov[0, 0])
    return np.exp(-0.5 * (x - g.mean[0]) ** 2 / s2) / np.sqrt(2 * np.pi * s2)


def test_log_density_at_hand_value():
    # N(1, 4) evaluated at 3: exp(-1/2) / sqrt(8 pi), in logs
    g = GaussianMeasure([1.0], [[4.0]])
    expected = -0.5 - 0.5 * np.log(8.0 * np.pi)
    assert_allclose(log_density_at(g, np.array([3.0])), expected, rtol=1e-14)


def test_log_density_batch_matches_scalar():
    rng = np.random.default_rng(0)
    g = GaussianMeasure([0.3, -0.2], [[1.5, 0.4], [0.4, 0.8]])
    pts = rng.normal(size=(50, 2))
    batch = log_density_at(g, pts.T)
    singles = [float(log_density_at(g, p)) for p in pts]
    assert_allclose(batch, singles, rtol=1e-13)
    # direct formula check at one point
    p = pts[0]
    diff = p - g.mean
    quad = diff @ np.linalg.solve(g.cov, diff)
    expect = -0.5 * quad - 0.5 * np.log((2 * np.pi) ** 2 * np.linalg.det(g.cov))
    assert_allclose(batch[0], expect, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_log_density_on_open_mesh_matches_scipy(n):
    # coordinates first: the open mesh broadcasts to the grid without a point list
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    g = GaussianMeasure(rng.normal(size=n), A @ A.T + 0.5 * np.eye(n))
    axes = [np.linspace(-3.0, 3.0, s) for s in (9, 7, 5)[:n]]
    got = log_density_at(g, np.ix_(*axes))
    assert got.shape == tuple(a.size for a in axes)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    expect = multivariate_normal(g.mean, g.cov).logpdf(pts).reshape(got.shape)
    assert_allclose(got, expect, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_log_density_on_open_mesh_equals_its_point_list(n):
    # a row's leading terms are summed on their own broadcast shape and only its
    # last add spans the grid, yet every entry gets the point list's arithmetic
    rng = np.random.default_rng(10 + n)
    A = rng.normal(size=(n, n))
    g = GaussianMeasure(rng.normal(size=n), A @ A.T + 0.5 * np.eye(n))
    axes = [np.linspace(-3.0, 3.0, s) for s in (9, 7, 5)[:n]]
    shape = tuple(a.size for a in axes)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n).T
    expect = log_density_at(g, pts)
    flat = np.empty(expect.size)
    assert log_density_at(g, pts, flat) is flat
    assert np.array_equal(flat, expect)
    assert np.array_equal(log_density_at(g, np.ix_(*axes)), expect.reshape(shape))
    out = np.empty(shape)
    mesh = np.ix_(*axes)
    kept = [m.copy() for m in mesh]
    assert log_density_at(g, mesh, out) is out
    assert np.array_equal(out, expect.reshape(shape))
    # a last coordinate of another shape than out is centred apart from it
    assert all(np.array_equal(m, k) for m, k in zip(mesh, kept))
    if n == 1:
        # a full-size difference table is centred into itself when it is out
        table = np.subtract.outer(np.linspace(-3.0, 3.0, 300), np.linspace(-2.0, 2.0, 200))
        fresh = log_density_at(g, [table])
        tracemalloc.start()
        try:
            assert log_density_at(g, [table], table) is table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(table, fresh)
        assert peak < 0.1 * table.nbytes


def test_gaussian_measure_keeps_its_inverse_factor_and_normalizer(monkeypatch):
    # L^-1 and the log-normalizer are computed once per measure, on first use
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    g = GaussianMeasure([0.3, -0.2], [[1.5, 0.4], [0.4, 0.8]])
    mesh = np.ix_(np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 1.0, 4))
    first = log_density_at(g, mesh)
    for _ in range(3):
        assert np.array_equal(log_density_at(g, mesh), first)
    assert len(inverted) == 1
    log_density_at(GaussianMeasure([0.0, 0.0], np.eye(2)), mesh)
    assert len(inverted) == 2
    assert_allclose(g.chol_inv @ g.chol, np.eye(2), atol=1e-15)
    assert_allclose(g.log_normalizer, np.log(np.linalg.det(2.0 * np.pi * g.cov)), rtol=1e-14)
    with pytest.raises(ValueError):
        g.chol_inv[0, 0] = 5.0
    for name in ("chol_inv", "log_normalizer"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, None)
    assert len(inverted) == 2


def test_log_density_single_point_gives_float():
    g = GaussianMeasure([0.3, -0.2, 0.1], [[1.5, 0.4, -0.3], [0.4, 0.8, 0.2], [-0.3, 0.2, 1.1]])
    p = np.array([0.7, 0.1, -0.4])
    val = log_density_at(g, p)
    assert isinstance(val, float)
    assert_allclose(val, multivariate_normal(g.mean, g.cov).logpdf(p), rtol=1e-12)
    with pytest.raises(ValueError, match="dimension mismatch"):
        log_density_at(g, p[:2])


def test_g2_moment_standard_normal():
    # E[(1 + x^2)^2] = 1 + 2 E[x^2] + E[x^4] = 1 + 2 + 3 = 6 for N(0, 1)
    assert_allclose(g2_moment(GaussianMeasure([0.0], [[1.0]])), 6.0, rtol=1e-14)


def test_g2_moment_matches_quadrature():
    g = GaussianMeasure([0.7], [[2.3]])
    x = _quad_axis(g, 40001, 12.0)
    quad = np.trapezoid((1 + x**2) ** 2 * _pdf_1d(g, x), x)
    assert_allclose(g2_moment(g), quad, rtol=1e-10)

    # 2-D with correlation, Monte Carlo cross-check
    g2 = GaussianMeasure([0.5, -1.0], [[1.2, 0.5], [0.5, 2.0]])
    rng = np.random.default_rng(7)
    pts = sample(g2, rng, 2_000_000)
    vals = (1 + np.sum(pts**2, axis=1)) ** 2
    se = vals.std() / np.sqrt(len(vals))
    assert abs(g2_moment(g2) - vals.mean()) < 4 * se


def test_condition_hand_case():
    # joint N((0,0), [[2,1],[1,2]]), observe y = 1:
    # mean = 0 + (1/2)(1 - 0) = 0.5, var = 2 - 1/2 = 1.5
    joint = GaussianMeasure([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
    out = condition(joint, BlockStructure(1, 1), np.array([1.0]))
    assert_allclose(out.mean, [0.5], rtol=1e-14)
    assert_allclose(out.cov, [[1.5]], rtol=1e-14)


def test_condition_matches_slice_quadrature():
    # independent oracle: evaluate the joint pdf on a u-axis at fixed y,
    # renormalize, and take trapezoidal moments of the slice
    joint = GaussianMeasure([0.4, -0.3], [[1.7, -0.9], [-0.9, 2.4]])
    y = 0.8
    u = np.linspace(-12, 12, 60001)
    pts = np.stack([u, np.full_like(u, y)], axis=1)
    slc = np.exp(log_density_at(joint, pts.T))
    slc /= np.trapezoid(slc, u)
    mean = np.trapezoid(u * slc, u)
    var = np.trapezoid((u - mean) ** 2 * slc, u)

    out = condition(joint, BlockStructure(1, 1), np.array([y]))
    assert_allclose(out.mean[0], mean, atol=1e-10)
    assert_allclose(out.cov[0, 0], var, atol=1e-10)


def test_condition_block_shapes():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    joint = GaussianMeasure(rng.normal(size=4), a @ a.T + 0.5 * np.eye(4))
    out = condition(joint, BlockStructure(2, 2), rng.normal(size=2))
    assert out.mean.shape == (2,)
    assert out.cov.shape == (2, 2)
    chol_spd(out.cov)  # posterior covariance stays SPD
    with pytest.raises(ValueError, match="blocks cover 3, joint has 4"):
        condition(joint, BlockStructure(2, 1), rng.normal(size=1))
    with pytest.raises(ValueError, match="y_dagger has 3 entries, K = 2"):
        condition(joint, BlockStructure(2, 2), rng.normal(size=3))


@pytest.mark.parametrize("d, K", [(1, 1), (2, 1)])
def test_block_gain_matches_linear_solve(d, K):
    rng = np.random.default_rng(10 * d + K)
    a = rng.standard_normal((d + K, d + K))
    cov = a @ a.T + 0.5 * np.eye(d + K)
    gain = BlockStructure(d, K).gain(cov)
    # C_uy C_yy^-1 = (C_yy^-1 C_yu)^T for a symmetric C_yy
    assert gain.shape == (d, K)
    assert_allclose(gain, np.linalg.solve(cov[d:, d:], cov[d:, :d]).T, rtol=1e-12)


def test_kl_matches_quadrature_and_direction():
    # the first argument carries the expectation: KL(m1||m2) = E_m1[log(p1/p2)]
    g1 = GaussianMeasure([0.2], [[0.9]])
    g2 = GaussianMeasure([-0.5], [[1.8]])
    x = np.linspace(-15, 15, 120001)
    p1, p2 = _pdf_1d(g1, x), _pdf_1d(g2, x)
    quad_12 = np.trapezoid(p1 * np.log(p1 / p2), x)
    quad_21 = np.trapezoid(p2 * np.log(p2 / p1), x)
    assert_allclose(kl_divergence(g1, g2), quad_12, rtol=1e-8)
    assert_allclose(kl_divergence(g2, g1), quad_21, rtol=1e-8)
    # asymmetry is real: the two directions differ for these measures
    assert abs(quad_12 - quad_21) > 1e-3


def test_kl_zero_and_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = rng.normal(size=n)
        a = rng.standard_normal((n, n))
        g1 = GaussianMeasure(m, a @ a.T + 0.3 * np.eye(n))
        b = rng.standard_normal((n, n))
        g2 = GaussianMeasure(rng.normal(size=n), b @ b.T + 0.3 * np.eye(n))
        assert kl_divergence(g1, g1) < 1e-12
        assert kl_divergence(g1, g2) >= 0.0
        assert kl_divergence(g2, g1) >= 0.0


def _dg_quadrature_1d(g1, g2):
    lo = min(g1.mean[0] - 10 * np.sqrt(g1.cov[0, 0]), g2.mean[0] - 10 * np.sqrt(g2.cov[0, 0]))
    hi = max(g1.mean[0] + 10 * np.sqrt(g1.cov[0, 0]), g2.mean[0] + 10 * np.sqrt(g2.cov[0, 0]))
    x = np.linspace(lo, hi, 200001)
    return np.trapezoid((1 + x**2) * np.abs(_pdf_1d(g1, x) - _pdf_1d(g2, x)), x)


def test_pinsker_both_directions():
    # weighted total variation squared stays below 2 (mu1[g^2] + mu2[g^2]) KL,
    # whichever way the KL is oriented
    rng = np.random.default_rng(5)
    for _ in range(25):
        g1 = GaussianMeasure(rng.uniform(-1, 1, 1), [[rng.uniform(0.3, 3.0)]])
        g2 = GaussianMeasure(rng.uniform(-1, 1, 1), [[rng.uniform(0.3, 3.0)]])
        dg2 = _dg_quadrature_1d(g1, g2) ** 2
        cap = 2.0 * (g2_moment(g1) + g2_moment(g2))
        assert dg2 <= cap * kl_divergence(g1, g2) * (1 + 1e-9)
        assert dg2 <= cap * kl_divergence(g2, g1) * (1 + 1e-9)


def test_dg_upper_bound_dominates_quadrature():
    rng = np.random.default_rng(9)
    for _ in range(25):
        g1 = GaussianMeasure(rng.uniform(-1, 1, 1), [[rng.uniform(0.3, 3.0)]])
        g2 = GaussianMeasure(rng.uniform(-1, 1, 1), [[rng.uniform(0.3, 3.0)]])
        assert _dg_quadrature_1d(g1, g2) <= dg_upper_bound(g1, g2) * (1 + 1e-9)


def test_dg_upper_bound_zero_for_identical():
    g = GaussianMeasure([0.4], [[1.1]])
    assert dg_upper_bound(g, g) == 0.0


def test_chol_spd_exact_and_rcond_gate():
    L = chol_spd(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert_allclose(L @ L.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-14)

    # [[1, 1], [1, 1 + eps]] has rcond ~ eps / 4: at twice the gate it is
    # factored as it is, at half the gate it is rejected
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 8.0 * RCOND_SINGULAR]])
    L = chol_spd(near)
    assert_allclose(L @ L.T, near, rtol=1e-12)
    with pytest.raises(SingularCovarianceError):
        chol_spd(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 * RCOND_SINGULAR]]))
    with pytest.raises(SingularCovarianceError):
        chol_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularCovarianceError):
        chol_spd(np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_gaussian_measure_validation():
    with pytest.raises(ValueError):
        GaussianMeasure([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        GaussianMeasure([0.0], [[1.0, 0.0], [0.0, 1.0]])  # dim mismatch
    with pytest.raises(SingularCovarianceError):
        GaussianMeasure([0.0], [[0.0]])
    with pytest.raises(ValueError, match="must be square"):
        GaussianMeasure([0.0, 0.0], np.ones((2, 3)))
    with pytest.raises(ValueError, match="dimension >= 1"):
        GaussianMeasure([], np.ones((0, 0)))
    # non-finite parameters are rejected when the measure is built, not in a later use
    for cov in ([[np.nan]], [[np.inf]], [[1.0, 0.0], [0.0, np.nan]]):
        with pytest.raises(SingularCovarianceError, match="non-finite"):
            GaussianMeasure(np.zeros(len(cov)), cov)
    for mean in ([np.nan], [np.inf]):
        with pytest.raises(ValueError, match="mean has non-finite"):
            GaussianMeasure(mean, [[1.0]])
    g = GaussianMeasure([1.0, 2.0], np.eye(2))
    assert g.dim == 2
    with pytest.raises(ValueError):
        g.cov[0, 0] = 5.0  # stored arrays are read-only
    one = GaussianMeasure([0.0], [[1.0]])
    for distance in (kl_divergence, dg_upper_bound):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 1"):
            distance(g, one)


def test_block_structure_accessors():
    for d, K in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="d >= 1 and K >= 1"):
            BlockStructure(d, K)
    b = BlockStructure(2, 1)
    assert b.n == 3
    mean = np.array([1.0, 2.0, 3.0])
    cov = np.arange(9.0).reshape(3, 3)
    assert_allclose(b.mean_u(mean), [1.0, 2.0])
    assert_allclose(b.mean_y(mean), [3.0])
    assert_allclose(b.cov_uu(cov), [[0.0, 1.0], [3.0, 4.0]])
    assert_allclose(b.cov_uy(cov), [[2.0], [5.0]])
    assert_allclose(b.cov_yy(cov), [[8.0]])


def test_sample_deterministic_and_moments():
    g = GaussianMeasure([1.0, -2.0], [[2.0, 0.6], [0.6, 1.0]])
    a = sample(g, np.random.default_rng(42), 1000)
    b = sample(g, np.random.default_rng(42), 1000)
    assert_allclose(a, b)

    big = sample(g, np.random.default_rng(0), 400_000)
    assert_allclose(big.mean(axis=0), g.mean, atol=0.01)
    assert_allclose(np.cov(big.T), g.cov, atol=0.02)
    with pytest.raises(ValueError, match="count must be >= 1"):
        sample(g, np.random.default_rng(0), 0)
