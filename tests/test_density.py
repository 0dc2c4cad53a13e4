"""Grid densities: quadrature, the weighted-TV metric, projection, and files."""

from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from filtermaps.density import (
    CoverageError,
    GridDensity,
    GridMismatchError,
    ResolutionWarning,
    default_box,
    dg_distance,
    from_function,
    from_gaussian,
    gaussian_projection,
    integrate,
    lifted_epsilon,
    load_binary,
    marginal_u,
    moments,
    normalized,
    quad_weights,
    save_binary,
    tv_distance,
    weight_tensor,
)
from filtermaps.gaussian import BlockStructure, GaussianMeasure, condition


def _mixture_1d(lo=-10.0, hi=10.0, points=1024, w=(0.5, 0.5), m=(-2.0, 2.0), s=(0.5, 0.5)):
    x = np.linspace(lo, hi, points)
    vals = np.zeros_like(x)
    for wi, mi, si in zip(w, m, s):
        vals += wi * np.exp(-0.5 * ((x - mi) / si) ** 2) / (si * np.sqrt(2 * np.pi))
    return normalized([lo], [hi], vals)


def test_quad_weights_trapezoid_rule():
    w = quad_weights(np.array([0.0]), np.array([1.0]), (1025,))[0]
    x = np.linspace(0.0, 1.0, 1025)
    assert_allclose(w.sum(), 1.0, rtol=1e-12)          # integrates constants exactly
    assert_allclose((w * x**2).sum(), 1.0 / 3.0, atol=1e-6)
    # end weights are half the interior ones
    assert_allclose(w[0], w[1] / 2.0, rtol=1e-12)


def test_weight_tensor_outer_product():
    W = weight_tensor(np.array([0.0, 0.0]), np.array([1.0, 2.0]), (17, 33))
    assert W.shape == (17, 33)
    assert_allclose(W.sum(), 2.0, rtol=1e-12)


@pytest.mark.parametrize("shape", [(33,), (17, 21), (17, 20, 23)], ids=["1axis", "2axis", "3axis"])
def test_quadrature_matches_full_tensor_sums(shape):
    # integrate, moments and d_g against brute-force sums over the explicit
    # outer product of the per-axis weights and meshgrid coordinate tensors
    rng = np.random.default_rng(len(shape))
    lo = np.array([-1.0, 0.5, -2.0])[: len(shape)]
    hi = np.array([2.0, 3.0, 1.5])[: len(shape)]
    raw1, raw2 = rng.uniform(0.5, 1.5, shape), rng.uniform(0.5, 1.5, shape)
    W = reduce(np.multiply.outer, quad_weights(lo, hi, shape))
    X = np.meshgrid(*[np.linspace(lo[a], hi[a], shape[a]) for a in range(len(shape))],
                    indexing="ij")
    assert_allclose(integrate(raw1, lo, hi), np.sum(W * raw1), rtol=1e-12)

    mu1 = normalized(lo, hi, raw1, expect_unit_mass=False)
    mu2 = normalized(lo, hi, raw2, expect_unit_mass=False)
    rho = mu1.values
    mean = np.array([np.sum(W * rho * Xi) for Xi in X])
    cov = np.array([[np.sum(W * rho * (Xi - mean[i]) * (Xj - mean[j]))
                     for j, Xj in enumerate(X)] for i, Xi in enumerate(X)])
    mom = moments(mu1)
    assert_allclose(mom.mean, mean, rtol=1e-12)
    assert_allclose(mom.cov, cov, rtol=1e-12)

    g = 1.0 + sum(Xi * Xi for Xi in X)
    expected = np.sum(W * g * np.abs(mu1.values - mu2.values))
    assert_allclose(dg_distance(mu1, mu2), expected, rtol=1e-12)


def test_moments_mixture_hand_values():
    # equal mixture of N(-2, 0.25) and N(2, 0.25):
    # mean 0, variance = 0.25 + 4 = 4.25
    mu = _mixture_1d()
    mom = moments(mu)
    assert_allclose(mom.mean, [0.0], atol=1e-9)
    assert_allclose(mom.cov, [[4.25]], atol=1e-6)


def test_moments_computed_once_per_density():
    mu = _mixture_1d(points=64)
    assert moments(mu) is moments(mu)


def test_moments_skewed_density():
    # exponential-like density on a box, moments against direct quadrature
    lo, hi, n = 0.0, 20.0, 4097
    x = np.linspace(lo, hi, n)
    vals = np.exp(-x)
    mu = normalized([lo], [hi], vals, expect_unit_mass=False, context="test")
    mom = moments(mu)
    w = quad_weights(np.array([lo]), np.array([hi]), (n,))[0]
    mass = (w * vals).sum()
    mean = (w * x * vals).sum() / mass
    var = (w * (x - mean) ** 2 * vals).sum() / mass
    assert_allclose(mom.mean[0], mean, rtol=1e-12)
    assert_allclose(mom.cov[0, 0], var, rtol=1e-12)


def test_normalized_negative_clipping_and_errors():
    x = np.linspace(-5, 5, 64)
    vals = np.exp(-0.5 * x**2)
    vals[3] = -1e-15 * vals.max()  # tiny negative from arithmetic noise: clipped
    mu = normalized([-5.0], [5.0], vals, expect_unit_mass=False)
    assert mu.values[3] == 0.0

    bad = vals.copy()
    bad[10] = -0.5
    with pytest.raises(ValueError):
        normalized([-5.0], [5.0], bad, expect_unit_mass=False)


def test_normalized_drift_warning():
    x = np.linspace(-6, 6, 256)
    vals = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    with pytest.warns(ResolutionWarning):
        normalized([-6.0], [6.0], vals * 1.01, context="test")  # 1% mass drift
    # small drift stays silent
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        normalized([-6.0], [6.0], vals, context="test")


def test_grid_density_validation():
    ok = np.full(32, 1.0 / 10.0)
    ok_d = normalized([0.0], [10.0], ok)
    assert ok_d.ndim == 1 and ok_d.shape == (32,)
    with pytest.raises(ValueError):
        GridDensity(np.array([1.0]), np.array([0.0]), ok, None)  # lo >= hi
    with pytest.raises(ValueError):
        GridDensity(np.array([0.0]), np.array([10.0]), np.full(8, 0.1), None)  # too coarse
    with pytest.raises(ValueError):
        GridDensity(np.array([0.0]), np.array([10.0]), ok * 3.0, None)  # mass not 1


def test_from_gaussian_coverage():
    g = GaussianMeasure([0.0], [[1.0]])
    with pytest.raises(CoverageError):
        from_gaussian(g, [-3.0], [3.0], (128,))
    lo, hi = default_box(g)
    assert lo[0] <= -6.0 and hi[0] >= 6.0
    mu = from_gaussian(g)
    mom = moments(mu)
    assert_allclose(mom.mean, [0.0], atol=1e-12)
    assert_allclose(mom.cov, [[1.0]], atol=1e-8)


def test_dg_distance_against_refined_quadrature():
    # freeze the oracle by recomputing the same integral on a 16x finer grid
    g1 = GaussianMeasure([0.3], [[0.8]])
    g2 = GaussianMeasure([-0.6], [[1.7]])
    lo, hi = [-12.0], [12.0]
    coarse = dg_distance(from_gaussian(g1, lo, hi, (1024,)), from_gaussian(g2, lo, hi, (1024,)))
    fine = dg_distance(from_gaussian(g1, lo, hi, (16384,)), from_gaussian(g2, lo, hi, (16384,)))
    # the integrand has kinks where the densities cross, so refinement moves
    # the value at second order in the spacing, not faster
    assert abs(coarse - fine) < 1e-4
    # and against a direct formula evaluation
    x = np.linspace(lo[0], hi[0], 16384)
    p1 = np.exp(-0.5 * (x - 0.3) ** 2 / 0.8) / np.sqrt(2 * np.pi * 0.8)
    p2 = np.exp(-0.5 * (x + 0.6) ** 2 / 1.7) / np.sqrt(2 * np.pi * 1.7)
    direct = np.trapezoid((1 + x**2) * np.abs(p1 - p2), x)
    assert abs(fine - direct) < 1e-7


def test_dg_metric_properties_and_mismatch():
    a = _mixture_1d(m=(-2.0, 2.0))
    b = _mixture_1d(m=(-1.0, 2.5))
    c = _mixture_1d(m=(0.0, 1.0), s=(0.7, 0.7))
    assert dg_distance(a, a) == 0.0
    assert dg_distance(a, b) == dg_distance(b, a)
    assert dg_distance(a, c) <= dg_distance(a, b) + dg_distance(b, c) + 1e-12
    with pytest.raises(GridMismatchError):
        dg_distance(a, _mixture_1d(points=512))


def test_tv_distance_special_values():
    # bumps 12 standard deviations apart: overlap mass is ~1e-9
    a = _mixture_1d(w=(1.0, 0.0), m=(-3.0, 3.0))
    b = _mixture_1d(w=(0.0, 1.0), m=(-3.0, 3.0))
    assert_allclose(tv_distance(a, b), 2.0, atol=1e-7)
    assert tv_distance(a, a) == 0.0


def test_moment_difference_bound_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.uniform(-2.5, 2.5, 4)
        s = rng.uniform(0.4, 1.2, 4)
        a = _mixture_1d(m=m[:2], s=s[:2])
        b = _mixture_1d(m=m[2:], s=s[2:])
        dg = dg_distance(a, b)
        ma, mb = moments(a), moments(b)
        assert abs(ma.mean[0] - mb.mean[0]) <= 0.5 * dg + 1e-9
        factor = 1.0 + 0.5 * abs(ma.mean[0] + mb.mean[0])
        assert abs(ma.cov[0, 0] - mb.cov[0, 0]) <= factor * dg + 1e-9


def test_gaussian_projection_and_kl_optimality():
    mu = _mixture_1d(m=(-1.5, 1.0), s=(0.6, 1.1), w=(0.4, 0.6))
    g = gaussian_projection(mu)
    mom = moments(mu)
    assert_allclose(g.mean, mom.mean, rtol=1e-12)
    assert_allclose(g.cov, mom.cov, rtol=1e-12)

    # quadrature KL to the projection vs to a slightly wrong Gaussian
    x = np.linspace(-10, 10, 1024)
    w = quad_weights(np.array([-10.0]), np.array([10.0]), (1024,))[0]

    def kl_to(gm):
        s2 = float(gm.cov[0, 0])
        logphi = -0.5 * (x - gm.mean[0]) ** 2 / s2 - 0.5 * np.log(2 * np.pi * s2)
        mask = mu.values > 0
        return float(np.sum(w[mask] * mu.values[mask]
                            * (np.log(mu.values[mask]) - logphi[mask])))

    base = kl_to(g)
    for dm, ds in [(0.1, 1.0), (-0.2, 1.0), (0.0, 1.2), (0.0, 0.85), (0.15, 1.1)]:
        other = GaussianMeasure(g.mean + dm, g.cov * ds)
        assert kl_to(other) >= base - 1e-12


def test_lifted_epsilon_gaussian_vs_mixture():
    blocks = BlockStructure(1, 1)
    joint_g = GaussianMeasure([0.0, 0.0], [[1.0, 0.5], [0.5, 1.2]])
    grid_g = from_gaussian(joint_g, [-8.0, -8.0], [8.0, 8.0], (256, 256), blocks=blocks)
    assert lifted_epsilon(grid_g) < 1e-6

    def bimodal(pts):
        u, y = pts[:, 0], pts[:, 1]
        bump = lambda c: np.exp(-0.5 * ((u - c) ** 2 / 0.25 + (y - c) ** 2 / 0.25))
        return bump(-2.0) + bump(2.0)

    grid_b = from_function(bimodal, [-8.0, -8.0], [8.0, 8.0], (256, 256), blocks=blocks)
    assert lifted_epsilon(grid_b) > 1e-2


def test_marginal_u_matches_conditional_algebra():
    blocks = BlockStructure(1, 1)
    joint = GaussianMeasure([0.5, -0.2], [[1.5, 0.6], [0.6, 1.1]])
    grid = from_gaussian(joint, [-9.0, -9.0], [9.0, 9.0], (512, 512), blocks=blocks)
    marg = marginal_u(grid)
    mom = moments(marg)
    assert_allclose(mom.mean, [0.5], atol=1e-6)
    assert_allclose(mom.cov, [[1.5]], atol=1e-5)


def test_binary_roundtrip_and_layout(tmp_path):
    blocks = BlockStructure(1, 1)
    joint = GaussianMeasure([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
    mu = from_gaussian(joint, [-7.0, -7.0], [7.0, 7.0], (64, 96), blocks=blocks)
    path = tmp_path / "joint.bin"
    save_binary(mu, path)
    back = load_binary(path, blocks=blocks)
    assert back.shape == mu.shape
    assert_allclose(back.box_lo, mu.box_lo)
    assert_allclose(back.box_hi, mu.box_hi)
    assert_allclose(back.values, mu.values)

    # documented layout: n, shape, corners, then row-major values, all f8 LE
    raw = np.fromfile(path, dtype="<f8")
    assert raw[0] == 2.0
    assert tuple(raw[1:3].astype(int)) == (64, 96)
    assert_allclose(raw[3:5], [-7.0, -7.0])
    assert_allclose(raw[5:7], [7.0, 7.0])
    assert_allclose(raw[7:].reshape(64, 96), mu.values)


def test_bayes_conditioning_consistency_with_gaussian_module():
    # the grid-Bayes slice agrees with closed-form conditioning; this pins the
    # orientation of the joint's axes (state first, data last)
    from filtermaps.operators import bayes

    blocks = BlockStructure(1, 1)
    joint = GaussianMeasure([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
    grid = from_gaussian(joint, [-11.0, -11.0], [11.0, 11.0], (512, 512), blocks=blocks)
    post = bayes(grid, np.array([1.0]))
    exact = condition(joint, blocks, np.array([1.0]))
    mom = moments(post)
    assert_allclose(mom.mean, exact.mean, atol=5e-4)
    assert_allclose(mom.cov, exact.cov, atol=5e-4)
