"""Grid densities: quadrature, the weighted-TV metric and projection."""

from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

import filtermaps.density as density
from filtermaps.density import (
    CoverageError,
    GridDensity,
    GridMismatchError,
    ResolutionWarning,
    dg_distance,
    from_gaussian,
    gaussian_projection,
    grid_points,
    integrate,
    lifted_epsilon,
    moments,
    normalized,
    quad_weights,
    tv_distance,
    weight_tensor,
)
from filtermaps.gaussian import BlockStructure, GaussianMeasure, condition, log_density_at


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


def test_density_values_are_read_only_and_never_aliased():
    x = np.linspace(-5.0, 5.0, 64)
    raw = np.exp(-0.5 * x**2)
    mu = normalized([-5.0], [5.0], raw, expect_unit_mass=False)
    assert not mu.values.flags.writeable
    with pytest.raises(ValueError):
        mu.values[0] = 1.0
    before = mu.values.copy()
    raw[:] = 0.0
    assert np.array_equal(mu.values, before)
    # a writable array, a read-only view of one, or another density's values
    # are copied; re-wrapping renormalizes, which can move a value by an ulp
    writable = before.copy()
    view = writable.view()
    view.setflags(write=False)
    copied = [GridDensity(mu.box_lo, mu.box_hi, a) for a in (writable, view, mu.values)]
    writable[:] = 0.0
    for other in copied:
        assert_allclose(other.values, before, rtol=4 * np.finfo(float).eps, atol=0.0)
        assert not other.values.flags.writeable
        assert not np.shares_memory(other.values, mu.values)


def test_grid_density_validation():
    ok = np.full(32, 1.0 / 10.0)
    ok_d = normalized([0.0], [10.0], ok)
    assert ok_d.ndim == 1 and ok_d.shape == (32,)
    with pytest.raises(ValueError):
        GridDensity(np.array([1.0]), np.array([0.0]), ok)  # lo >= hi
    with pytest.raises(ValueError):
        GridDensity(np.array([0.0]), np.array([10.0]), np.full(8, 0.1))  # too coarse
    with pytest.raises(ValueError, match="values have 2 axes, box corners have 1/1"):
        GridDensity([0.0], [10.0], np.ones((32, 32)))
    with pytest.raises(ValueError, match="grids support 1 to 3 axes"):
        GridDensity([0.0] * 4, [1.0] * 4, np.ones((16,) * 4))
    negative = ok.copy()
    negative[5] = -1e-3
    with pytest.raises(ValueError, match="substantial negative"):
        GridDensity(np.array([0.0]), np.array([10.0]), negative)
    for bad_mass in (np.zeros(32), np.full(32, np.nan)):
        with pytest.raises(ValueError, match="cannot normalize"):
            GridDensity(np.array([0.0]), np.array([10.0]), bad_mass)
    # a lifted joint's mass is checked by the same rule: a data axis far from H
    # leaves a likelihood that is zero wherever the state density is positive
    from filtermaps.model import bounded_model_1d
    from filtermaps.operators import OperatorWorkspace, lift

    ws = OperatorWorkspace(bounded_model_1d(), [-7.0], [7.0], (64,), y_lo=200.0, y_hi=210.0,
                           y_points=32)
    with pytest.raises(ValueError, match="cannot normalize a grid density: mass is 0.0"):
        lift(from_gaussian(GaussianMeasure([0.0], [[1.0]]), [-7.0], [7.0], (64,)), ws)
    # values of any positive mass are normalized, not rejected
    tripled = GridDensity(np.array([0.0]), np.array([10.0]), ok * 3.0)
    assert_allclose(integrate(tripled.values, tripled.box_lo, tripled.box_hi), 1.0, rtol=1e-15)
    assert_allclose(tripled.values, ok_d.values, rtol=1e-15)


def test_grid_density_normalizes_like_normalized():
    x = np.linspace(-4.0, 4.0, 48)
    raw = np.exp(-0.5 * (x[:, None] ** 2 + 2.0 * (x[None, :] - 0.5) ** 2)) * 7.3
    raw[0, 0] = -1e-15 * raw.max()  # clipped, as interpolation noise
    lo, hi = [-4.0, -4.0], [4.0, 4.0]
    mu = GridDensity(lo, hi, raw)
    assert_allclose(integrate(mu.values, mu.box_lo, mu.box_hi), 1.0, rtol=1e-14)
    assert mu.values[0, 0] == 0.0
    ref = normalized(lo, hi, raw, expect_unit_mass=False)
    assert np.array_equal(mu.values, ref.values)
    assert np.array_equal(mu.box_lo, ref.box_lo) and np.array_equal(mu.box_hi, ref.box_hi)


def test_building_a_density_integrates_once(monkeypatch):
    calls = []
    real = density.integrate

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(density, "integrate", counting)
    x = np.linspace(-5.0, 5.0, 64)
    normalized([-5.0], [5.0], np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi), context="test")
    assert len(calls) == 1


def test_from_gaussian_coverage():
    g = GaussianMeasure([0.0], [[1.0]])
    with pytest.raises(CoverageError):
        from_gaussian(g, [-3.0], [3.0], (128,))
    mu = from_gaussian(g, [-6.0], [6.0], (1024,))  # exactly mean +- 6 stdev
    mom = moments(mu)
    assert_allclose(mom.mean, [0.0], atol=1e-12)
    assert_allclose(mom.cov, [[1.0]], atol=1e-8)
    with pytest.raises(ValueError, match="box has 2 axes, measure has 1"):
        from_gaussian(g, [-8.0, -8.0], [8.0, 8.0], (64, 64))
    # a shape of another dimension than the box names both, for either grid builder
    with pytest.raises(ValueError, match=r"grid shape \(64, 64\) has 2 axes, box .* has 1/1"):
        from_gaussian(g, [-8.0], [8.0], (64, 64))
    with pytest.raises(ValueError, match=r"grid shape \(32, 32\) has 2 axes, box .* has 1/1"):
        grid_points([-1.0], [1.0], (32, 32))


@pytest.mark.parametrize("g, shape", [
    (GaussianMeasure([0.4, -0.3], [[1.3, 0.8], [0.8, 1.1]]), (384, 256)),
    (GaussianMeasure([0.2, -0.5, 0.3], [[1.0, 0.3, 0.5], [0.3, 0.8, -0.4], [0.5, -0.4, 1.2]]),
     (48, 40, 36)),
], ids=["d1", "d2"])
def test_from_gaussian_joint_matches_the_table(g, shape):
    # the lifted joint q l equals the normalized table of N(m, C) to rounding
    lo, hi = g.mean - 7.0 * np.sqrt(np.diag(g.cov)), g.mean + 7.0 * np.sqrt(np.diag(g.cov))
    blocks = BlockStructure(g.dim - 1, 1)
    joint = from_gaussian(g, lo, hi, shape, blocks)
    table = GridDensity(lo, hi, np.exp(log_density_at(g, np.ix_(*joint.axes()))))
    assert joint.blocks == blocks and joint.shape == table.shape
    assert np.abs(joint.values - table.values).max() <= 1e-13 * table.values.max()
    lifted, stored = moments(joint), moments(table)
    assert_allclose(lifted.mean, stored.mean, rtol=0.0, atol=1e-12)
    assert_allclose(lifted.cov, stored.cov, rtol=0.0, atol=1e-12)
    # a grid joint has exactly one data axis (K = 1), and blocks covering every axis
    for wrong in (BlockStructure(g.dim - 2, 2) if g.dim > 2 else BlockStructure(1, 2),
                  BlockStructure(g.dim, 1)):
        with pytest.raises(ValueError, match=r"needs blocks \(d, K = 1\) over the measure's"):
            from_gaussian(g, lo, hi, shape, wrong)


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


def _lifted_joint(model, lo, hi, shape, prior, y_lo, y_hi, y_points):
    """``prior(*state mesh)``, normalized on the state grid, lifted by ``model``."""
    from filtermaps.operators import OperatorWorkspace, lift

    ws = OperatorWorkspace(model, lo, hi, shape, y_lo=y_lo, y_hi=y_hi, y_points=y_points)
    values = prior(*np.meshgrid(*ws.state_axes, indexing="ij"))
    return lift(normalized(ws.state_lo, ws.state_hi, values, expect_unit_mass=False), ws)


def test_lifted_epsilon_gaussian_vs_mixture():
    from filtermaps.model import linear_model_1d

    joint_g = GaussianMeasure([0.0, 0.0], [[1.0, 0.5], [0.5, 1.2]])
    grid_g = from_gaussian(joint_g, [-8.0, -8.0], [8.0, 8.0], (256, 256), blocks=BlockStructure(1, 1))
    assert lifted_epsilon(grid_g) < 1e-6

    def bimodal(u):
        return np.exp(-0.5 * (u + 2.0) ** 2 / 0.25) + np.exp(-0.5 * (u - 2.0) ** 2 / 0.25)

    grid_b = _lifted_joint(linear_model_1d(), [-8.0], [8.0], (256,), bimodal, -8.0, 8.0, 256)
    assert lifted_epsilon(grid_b) > 1e-2


def test_lifted_epsilon_matches_a_fine_midpoint_sum():
    # eps on a lifted mixture against an independent value: the midpoint sum of
    # (1 + u^2 + y^2) |pi - N| over 4096^2 cells, with pi = p(u) N(y; u, 0.25)
    # the continuous joint and N the closed-form Gaussian of its moments. It
    # pins eps's absolute scale, which its definition test does not.
    from filtermaps.model import linear_model_1d

    def mixture(u):
        return sum(np.exp(-0.5 * (u - c) ** 2 / 0.09) for c in (-1.0, 1.0)) / (2.0 * np.sqrt(2 * np.pi * 0.09))

    joint = _lifted_joint(linear_model_1d(), [-4.5], [4.5], (256,), mixture, -6.0, 6.0, 128)
    cells = 4096
    hu, hy = 9.0 / cells, 12.0 / cells
    u = -4.5 + hu * (np.arange(cells) + 0.5)
    y = -6.0 + hy * (np.arange(cells) + 0.5)
    cov = np.array([[1.09, 1.09], [1.09, 1.34]])
    prec = np.linalg.inv(cov)
    norm = 1.0 / (2 * np.pi * np.sqrt(np.linalg.det(cov)))
    total = 0.0
    for rows in np.array_split(np.arange(cells), 16):
        uu, yy = u[rows, None], y[None, :]
        pi = mixture(uu) * np.exp(-0.5 * (yy - uu) ** 2 / 0.25) / np.sqrt(2 * np.pi * 0.25)
        quad = prec[0, 0] * uu**2 + 2.0 * prec[0, 1] * uu * yy + prec[1, 1] * yy**2
        total += float(np.sum((1.0 + uu**2 + yy**2) * np.abs(pi - norm * np.exp(-0.5 * quad))))
    reference = total * hu * hy
    assert abs(lifted_epsilon(joint) / reference - 1.0) < 1e-3


def _lifted_1d_joint():
    from filtermaps.model import bounded_model_1d
    from filtermaps.operators import OperatorWorkspace, lift

    model = bounded_model_1d()
    ws = OperatorWorkspace(model, [-7.0], [7.0], (256,), y_points=128)
    x = ws.state_axes[0]
    bumps = np.exp(-0.5 * (x - 1.0) ** 2) + np.exp(-2.0 * (x + 1.5) ** 2)
    prior = normalized(ws.state_lo, ws.state_hi, bumps, expect_unit_mass=False)
    return lift(prior, ws)


def _linear_model(h, gamma):
    """A model with the linear observation map ``h`` and noise variance ``gamma``."""
    from filtermaps.model import MapSpec, ModelSpec

    d = len(h)
    return ModelSpec(d=d, K=1, psi=MapSpec("linear", {"matrix": np.eye(d).tolist()}),
                     h=MapSpec("linear", {"matrix": [h]}), Sigma=np.eye(d).tolist(),
                     Gamma=[[gamma]], m0=[0.0] * d, S0=np.eye(d).tolist())


def _skewed_3_axis_joint():
    def skewed(u1, u2):
        return np.exp(-0.5 * (u1**2 + (u2 - 0.3 * u1**2) ** 2))

    return _lifted_joint(_linear_model([1.0, 0.3], 1.0), [-6.0, -5.0], [6.0, 9.0], (40, 36),
                         skewed, -7.0, 7.0, 32)


def _truncated_joint():
    # a half-Gaussian in u: the box ends where the density is largest, so its
    # projection (mean ~0.8, sd ~0.6) loses a visible tail below u = 0
    return _lifted_joint(_linear_model([1.0], 0.5), [0.0], [5.0], (128,),
                         lambda u: np.exp(-0.5 * u**2), -5.0, 8.0, 96)


@pytest.mark.parametrize("make_joint, truncated", [
    (_lifted_1d_joint, False), (_skewed_3_axis_joint, False), (_truncated_joint, True),
], ids=["lifted_1d", "3_axis", "truncated_tail"])
def test_lifted_epsilon_matches_its_definition(make_joint, truncated):
    # the streamed kernel equals d_g to the renormalized grid of the projection, bit for bit
    joint = make_joint()
    projected = np.exp(log_density_at(gaussian_projection(joint), np.ix_(*joint.axes())))
    assert (integrate(projected, joint.box_lo, joint.box_hi) < 0.99) == truncated
    gridded = normalized(joint.box_lo, joint.box_hi, projected, expect_unit_mass=False)
    expected = dg_distance(joint, gridded)
    assert expected > 1e-3
    assert lifted_epsilon(joint) == expected


@pytest.mark.parametrize("rows_per_block, count", [(40, 7), (256, 1)])
def test_lifted_epsilon_evaluates_its_last_block_once(monkeypatch, rows_per_block, count):
    # pass 2 starts with the block that pass 1 evaluated last, so B blocks cost
    # 2 B - 1 evaluations of the projection, and the value does not change
    joint = _lifted_1d_joint()
    expected = lifted_epsilon(joint)
    monkeypatch.setattr(density, "_BLOCK_ENTRIES", rows_per_block * joint.shape[1])
    assert len(density._blocks(joint.shape[0], joint.shape[1])) == count
    calls = []

    def counted(*args):
        calls.append(args)
        return log_density_at(*args)

    monkeypatch.setattr(density, "log_density_at", counted)
    assert lifted_epsilon(joint) == expected
    assert len(calls) == 2 * count - 1


def test_lifted_epsilon_rejects_a_projection_without_mass(monkeypatch):
    # a projection centred far outside the box underflows to zero mass on it
    far = GaussianMeasure([60.0, 60.0], np.eye(2) * 0.01)
    monkeypatch.setattr(density, "gaussian_projection", lambda _: far)
    with pytest.raises(ValueError, match="cannot normalize lifted_epsilon: mass is 0.0"):
        lifted_epsilon(_truncated_joint())
    # a density without a data block has no lifted structure to measure
    with pytest.raises(ValueError, match="requires a joint density with a BlockStructure"):
        lifted_epsilon(_mixture_1d())


def test_marginal_u_matches_conditional_algebra():
    blocks = BlockStructure(1, 1)
    joint = GaussianMeasure([0.5, -0.2], [[1.5, 0.6], [0.6, 1.1]])
    grid = from_gaussian(joint, [-9.0, -9.0], [9.0, 9.0], (512, 512), blocks=blocks)
    w_y = quad_weights(grid.box_lo, grid.box_hi, grid.shape)[1]
    marg = normalized(grid.box_lo[:1], grid.box_hi[:1], grid.values @ w_y)
    mom = moments(marg)
    assert_allclose(mom.mean, [0.5], atol=1e-6)
    assert_allclose(mom.cov, [[1.5]], atol=1e-5)


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
