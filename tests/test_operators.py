"""Grid measure maps: prediction, lifting, conditioning, transport."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import filtermaps.operators as ops
from filtermaps.density import (
    CoverageError,
    GridMismatchError,
    dg_distance,
    from_gaussian,
    marginal_u,
    moments,
    normalized,
    weight_tensor,
)
from filtermaps.gaussian import BlockStructure, GaussianMeasure
from filtermaps.model import MapSpec, ModelSpec, bounded_model_1d, linear_model_1d
from filtermaps.operators import (
    DegenerateEvidenceError,
    OperatorWorkspace,
    OutOfDomainError,
    WorkspaceMismatchError,
    bayes,
    default_workspace,
    kalman_gain,
    lift,
    lifted_envelope,
    predict,
    prediction_envelope,
    transport,
)


def _constant_h_model(value=0.7):
    return ModelSpec(
        d=1, K=1,
        psi=MapSpec("tanh", {"scale": 0.9}),
        h=MapSpec("constant", {"value": [value]}),
        Sigma=[[0.25]], Gamma=[[0.25]], m0=[0.0], S0=[[1.0]],
    )


def _state_mixture(ws, rng):
    """Random two-bump density on the workspace state grid."""
    x = ws.state_axes[0]
    c = rng.uniform(-2.0, 2.0, size=2)
    s = rng.uniform(0.4, 1.0, size=2)
    w = rng.uniform(0.3, 0.7)
    vals = w * np.exp(-0.5 * ((x - c[0]) / s[0]) ** 2) / (s[0] * np.sqrt(2 * np.pi))
    vals += (1 - w) * np.exp(-0.5 * ((x - c[1]) / s[1]) ** 2) / (s[1] * np.sqrt(2 * np.pi))
    return normalized(ws.state_lo, ws.state_hi, vals, expect_unit_mass=False,
                      context="test mixture")


def test_predict_forgets_prior_when_dynamics_are_constant():
    # Psi = 0 maps every prior to N(0, Sigma) exactly
    model = ModelSpec(
        d=1, K=1,
        psi=MapSpec("linear", {"matrix": [[0.0]]}),
        h=MapSpec("tanh", {"scale": 1.0}),
        Sigma=[[0.25]], Gamma=[[0.25]], m0=[0.0], S0=[[1.0]],
    )
    ws = default_workspace(model, [-7.0], [7.0], (1024,))
    rng = np.random.default_rng(0)
    out = predict(_state_mixture(ws, rng), model, ws)
    x = ws.state_axes[0]
    expected = np.exp(-0.5 * x**2 / 0.25) / np.sqrt(2 * np.pi * 0.25)
    assert_allclose(out.values, expected, rtol=1e-8, atol=1e-12)


def test_predict_against_monte_carlo():
    model = bounded_model_1d()
    ws = default_workspace(model, [-7.0], [7.0], (1024,))
    prior = GaussianMeasure([0.8], [[0.3]])
    mu = from_gaussian(prior, box_lo=ws.state_lo, box_hi=ws.state_hi, shape=ws.state_shape)
    mom = moments(predict(mu, model, ws))

    rng = np.random.default_rng(42)
    n = 1_000_000
    v = 0.8 + np.sqrt(0.3) * rng.standard_normal(n)
    u = 0.9 * np.tanh(v) + 0.5 * rng.standard_normal(n)
    se_mean = u.std(ddof=1) / np.sqrt(n)
    se_var = u.var(ddof=1) * np.sqrt(2.0 / (n - 1))
    assert abs(mom.mean[0] - u.mean()) < 4 * se_mean
    assert abs(mom.cov[0, 0] - u.var(ddof=1)) < 4 * se_var


def test_predict_moment_envelope_random_priors():
    model = bounded_model_1d()
    ws = default_workspace(model, [-7.0], [7.0], (512,))
    kappa, lower, upper = prediction_envelope(model)
    rng = np.random.default_rng(7)
    for _ in range(20):
        mom = moments(predict(_state_mixture(ws, rng), model, ws))
        assert abs(mom.mean[0]) <= kappa + 1e-9
        assert mom.cov[0, 0] >= lower[0, 0] - 1e-9
        assert mom.cov[0, 0] <= upper[0, 0] + 1e-9


def test_envelope_hand_values():
    model = bounded_model_1d()  # kappa_psi = 0.9, kappa_h = 1, Sigma = Gamma = 0.25
    kappa, lower, upper = prediction_envelope(model)
    assert kappa == pytest.approx(0.9)
    assert_allclose(lower, [[0.25]])
    assert_allclose(upper, [[0.81 + 0.25]])

    kappa_j, c_min, c_up = lifted_envelope(model)
    assert kappa_j == pytest.approx(np.sqrt(1.81))
    assert c_min == pytest.approx(0.25 * 0.25 / (2.0 + 0.25))
    assert_allclose(c_up, [[2 * 0.81 + 2 * 0.25, 0.0], [0.0, 2.0 + 0.25]])


def test_lift_with_constant_observation_is_a_product():
    model = _constant_h_model(0.7)
    ws = default_workspace(model, [-7.0], [7.0], (512,))
    rng = np.random.default_rng(3)
    mu = _state_mixture(ws, rng)
    joint = lift(mu, model, ws)
    pdf_y = np.exp(-0.5 * (ws.y_axis - 0.7) ** 2 / 0.25) / np.sqrt(2 * np.pi * 0.25)
    assert_allclose(joint.values, mu.values[:, None] * pdf_y[None, :], rtol=1e-8, atol=1e-12)
    mom = moments(joint)
    assert mom.mean[1] == pytest.approx(0.7, abs=1e-8)
    assert mom.cov[1, 1] == pytest.approx(0.25, abs=1e-8)
    assert abs(mom.cov[0, 1]) < 1e-10


def test_lift_odd_symmetry():
    # tanh is odd and the prior is even, so the lifted data marginal has zero mean
    model = bounded_model_1d()
    ws = default_workspace(model, [-7.0], [7.0], (512,))
    mu = from_gaussian(GaussianMeasure([0.0], [[1.0]]),
                       box_lo=ws.state_lo, box_hi=ws.state_hi, shape=ws.state_shape)
    mom = moments(lift(mu, model, ws))
    assert abs(mom.mean[0]) < 1e-12
    assert abs(mom.mean[1]) < 1e-12
    assert mom.cov[0, 1] > 0.0  # tanh is increasing, so state and datum correlate


def test_bayes_on_product_joint_returns_prior():
    model = _constant_h_model(0.7)
    ws = default_workspace(model, [-7.0], [7.0], (512,))
    mu = _state_mixture(ws, np.random.default_rng(5))
    joint = lift(mu, model, ws)
    post = bayes(joint, 0.4)  # datum carries no information here
    assert_allclose(post.values, mu.values, rtol=1e-10, atol=1e-13)


def test_bayes_against_fine_quadrature():
    model = bounded_model_1d()
    ws = default_workspace(model, [-7.0], [7.0], (1024,), y_points=4096)
    mu = from_gaussian(GaussianMeasure([0.3], [[0.4]]),
                       box_lo=ws.state_lo, box_hi=ws.state_hi, shape=ws.state_shape)
    post = bayes(lift(mu, model, ws), 0.35)
    mom = moments(post)

    # independent oracle: pointwise prior-times-likelihood on its own fine axis
    v = np.linspace(-7.0, 7.0, 200001)
    dens = np.exp(-0.5 * (v - 0.3) ** 2 / 0.4) * np.exp(-0.5 * (0.35 - np.tanh(v)) ** 2 / 0.25)
    dens /= np.trapezoid(dens, v)
    mean = np.trapezoid(v * dens, v)
    var = np.trapezoid((v - mean) ** 2 * dens, v)
    assert mom.mean[0] == pytest.approx(mean, abs=1e-4)
    assert mom.cov[0, 0] == pytest.approx(var, abs=1e-4)


def test_bayes_datum_domain_errors():
    model = bounded_model_1d()
    ws = default_workspace(model, [-7.0], [7.0], (256,))
    mu = _state_mixture(ws, np.random.default_rng(1))
    joint = lift(mu, model, ws)
    with pytest.raises(OutOfDomainError):
        bayes(joint, 50.0)
    # inside the axis but within the two-cell margin of the edge
    with pytest.raises(OutOfDomainError):
        bayes(joint, float(ws.y_axis[-1]) - 0.5 * float(ws.y_axis[1] - ws.y_axis[0]))


def test_bayes_degenerate_evidence():
    # joint whose mass lives entirely at negative y; conditioning at y = +0.5 finds nothing
    x = np.linspace(-1.0, 1.0, 64)
    y = np.linspace(-1.0, 1.0, 64)
    vals = np.exp(-0.5 * (x[:, None] ** 2 + (y[None, :] + 0.6) ** 2) / 0.01)
    vals[:, y > -0.2] = 0.0
    joint = normalized([-1.0, -1.0], [1.0, 1.0], vals, blocks=BlockStructure(1, 1),
                       expect_unit_mass=False, context="degenerate joint")
    with pytest.raises(DegenerateEvidenceError):
        bayes(joint, 0.5)


def test_transport_with_zero_gain_returns_state_marginal():
    model = _constant_h_model(0.7)
    ws = default_workspace(model, [-7.0], [7.0], (512,))
    mu = _state_mixture(ws, np.random.default_rng(9))
    joint = lift(mu, model, ws)
    assert abs(kalman_gain(joint)[0, 0]) < 1e-9
    moved = transport(joint, 0.2)
    assert_allclose(moved.values, marginal_u(joint).values, rtol=1e-7, atol=1e-10)


def test_kalman_gain_hand_value():
    g = GaussianMeasure([0.2, -0.1], [[2.0, 0.6], [0.6, 0.5]])
    joint = from_gaussian(g, blocks=BlockStructure(1, 1))
    assert kalman_gain(joint)[0, 0] == pytest.approx(0.6 / 0.5, abs=1e-6)


def test_transport_equals_bayes_on_gaussian_joints():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = rng.uniform(-1.0, 1.0, size=2)
        su, sy = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5)
        c = rng.uniform(-0.85, 0.85) * np.sqrt(su * sy)
        g = GaussianMeasure(m, [[su, c], [c, sy]])
        joint = from_gaussian(g, blocks=BlockStructure(1, 1))
        y_dagger = m[1] + 0.4 * np.sqrt(sy)
        assert dg_distance(transport(joint, y_dagger), bayes(joint, y_dagger)) <= 5e-3


def test_transport_mean_identity():
    model = bounded_model_1d()
    ws = default_workspace(model, [-7.0], [7.0], (1024,))
    joint = lift(_state_mixture(ws, np.random.default_rng(13)), model, ws)
    mom = moments(joint)
    gain = kalman_gain(joint)[0, 0]
    y_dagger = 0.3
    expected = mom.mean[0] + gain * (y_dagger - mom.mean[1])
    assert moments(transport(joint, y_dagger)).mean[0] == pytest.approx(expected, abs=3e-3)


def test_transport_coverage_error():
    g = GaussianMeasure([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])
    joint = from_gaussian(g, blocks=BlockStructure(1, 1))
    with pytest.raises(CoverageError):
        transport(joint, 40.0)  # shift of ~36 state units empties the box


def test_workspace_model_fingerprint_check():
    ws = default_workspace(bounded_model_1d(), [-7.0], [7.0], (256,))
    mu = _state_mixture(ws, np.random.default_rng(2))
    other = linear_model_1d()
    with pytest.raises(WorkspaceMismatchError):
        predict(mu, other, ws)
    with pytest.raises(WorkspaceMismatchError):
        lift(mu, other, ws)


def test_grid_mismatch_rejected():
    model = bounded_model_1d()
    ws = default_workspace(model, [-7.0], [7.0], (256,))
    off_grid = from_gaussian(GaussianMeasure([0.0], [[1.0]]),
                             box_lo=[-8.0], box_hi=[8.0], shape=(256,))
    with pytest.raises(GridMismatchError):
        predict(off_grid, model, ws)


def test_default_workspace_requires_bounded_h_or_explicit_axis():
    with pytest.raises(ValueError):
        default_workspace(linear_model_1d(), [-7.0], [7.0], (256,))
    ws = default_workspace(linear_model_1d(), [-7.0], [7.0], (256,), y_lo=-9.0, y_hi=9.0)
    assert ws.y_axis[0] == -9.0 and ws.y_axis[-1] == 9.0


def test_state_grid_views_gaussians_and_state_densities():
    ws = default_workspace(bounded_model_1d(), [-7.0], [7.0], (256,))
    g = GaussianMeasure([0.3], [[0.5]])
    grid = ws.state_grid(g)
    assert np.array_equal(grid.values, from_gaussian(g, ws.state_lo, ws.state_hi, ws.state_shape).values)
    assert ws.state_grid(grid) is grid
    with pytest.raises(GridMismatchError):
        ws.state_grid(from_gaussian(g, [-6.0], [6.0], (256,)))


def test_default_workspace_takes_the_default_resolution():
    ws = default_workspace(bounded_model_1d(), [-7.0], [7.0])
    assert (ws.state_shape, ws.joint_shape[-1]) == ops.default_resolution(1) == ((1024,), 512)
    assert ops.default_resolution(2) == ((96, 96), 96)


def test_workspace_dimension_limits():
    with pytest.raises(ValueError):
        OperatorWorkspace(
            ModelSpec(d=1, K=2,
                      psi=MapSpec("tanh", {"scale": 0.9}),
                      h=MapSpec("linear", {"matrix": [[1.0], [1.0]]}),
                      Sigma=[[0.25]], Gamma=np.eye(2).tolist(), m0=[0.0], S0=[[1.0]]),
            [-7.0], [7.0], (64,), -5.0, 5.0, 64,
        )
    with pytest.raises(ValueError):
        OperatorWorkspace(
            ModelSpec(d=3, K=1,
                      psi=MapSpec("linear", {"matrix": np.eye(3).tolist()}),
                      h=MapSpec("linear", {"matrix": [[1.0, 0.0, 0.0]]}),
                      Sigma=np.eye(3).tolist(), Gamma=[[0.25]],
                      m0=[0.0, 0.0, 0.0], S0=np.eye(3).tolist()),
            [-7.0] * 3, [7.0] * 3, (32, 32, 32), -5.0, 5.0, 32,
        )


def _linear_model_2d(sigma):
    return ModelSpec(
        d=2, K=1,
        psi=MapSpec("linear", {"matrix": [[0.8, 0.1], [0.0, 0.7]]}),
        h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
        Sigma=sigma, Gamma=[[0.25]], m0=[0.0, 0.0], S0=np.eye(2).tolist(),
    )


_KERNEL_CASES = {
    "1d": (bounded_model_1d(), [-7.0], [7.0], (256,), GaussianMeasure([0.4], [[0.8]])),
    "2d": (_linear_model_2d((0.25 * np.eye(2)).tolist()), [-7.0, -7.0], [7.0, 7.0], (24, 24),
           GaussianMeasure([0.4, -0.3], [[0.8, 0.2], [0.2, 0.6]])),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_chunked_kernel_matches_cached(monkeypatch, case):
    # a diagonal Sigma caches per-axis kernel factors; shrinking the cache streams rows
    model, lo, hi, shape, prior = _KERNEL_CASES[case]
    mu = from_gaussian(prior, box_lo=lo, box_hi=hi, shape=shape)
    ws_cached = default_workspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=64)
    assert ws_cached._factors is not None and len(ws_cached._factors) == model.d
    reference = predict(mu, model, ws_cached)

    monkeypatch.setattr(ops, "KERNEL_CACHE_MAX", 1024)
    ws_chunked = default_workspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=64)
    assert ws_chunked._factors is None
    assert_allclose(predict(mu, model, ws_chunked).values, reference.values,
                    rtol=1e-12, atol=1e-15)


def test_non_diagonal_sigma_streams_kernel_matching_brute_force():
    sigma = np.array([[0.3, 0.1], [0.1, 0.2]])
    model = _linear_model_2d(sigma.tolist())
    lo, hi, shape = [-6.0, -5.0], [6.0, 5.0], (20, 18)
    ws = default_workspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=32)
    assert ws._factors is None
    mu = from_gaussian(GaussianMeasure([0.5, -0.4], [[0.5, 0.1], [0.1, 0.4]]), lo, hi, shape)
    got = predict(mu, model, ws).values

    # direct quadrature of N(u_i; A v_j, Sigma) w_j mu(v_j) over every pair of grid points
    u1, u2 = np.meshgrid(np.linspace(lo[0], hi[0], shape[0]),
                         np.linspace(lo[1], hi[1], shape[1]), indexing="ij")
    pts = np.stack([u1.ravel(), u2.ravel()], axis=1)
    w = weight_tensor(lo, hi, shape).ravel()
    diff = pts[:, None, :] - (pts @ np.array([[0.8, 0.1], [0.0, 0.7]]).T)[None, :, :]
    q = np.einsum("ija,ab,ijb->ij", diff, np.linalg.inv(sigma), diff)
    kernel = np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(np.linalg.det(sigma)))
    raw = (kernel @ (w * mu.values.ravel())).reshape(shape)
    expected = raw / np.sum(raw * weight_tensor(lo, hi, shape))
    assert_allclose(got, expected, rtol=1e-12, atol=1e-15)
