"""Grid measure maps: prediction, lifting, conditioning, transport."""

import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import ndimage

import filtermaps.density as density
import filtermaps.gaussian as gaussian
import filtermaps.operators as ops
from filtermaps.density import (
    CoverageError,
    GridMismatchError,
    ResolutionWarning,
    dg_distance,
    from_gaussian,
    integrate,
    lifted_epsilon,
    moments,
    normalized,
    quad_weights,
    tv_distance,
    weight_tensor,
)
from filtermaps.gaussian import BlockStructure, GaussianMeasure
from filtermaps.model import MapSpec, ModelSpec, bounded_model_1d, linear_model_1d
from filtermaps.operators import (
    DegenerateEvidenceError,
    OperatorWorkspace,
    OutOfDomainError,
    bayes,
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
    # Psi = c maps every prior to N(c, Sigma) exactly: a zero linear map, which
    # is certified componentwise, and the constant family, which is not
    rng = np.random.default_rng(0)
    for psi, c in ((MapSpec("linear", {"matrix": [[0.0]]}), 0.0),
                   (MapSpec("constant", {"value": [1.5]}), 1.5)):
        model = ModelSpec(
            d=1, K=1, psi=psi,
            h=MapSpec("tanh", {"scale": 1.0}),
            Sigma=[[0.25]], Gamma=[[0.25]], m0=[0.0], S0=[[1.0]],
        )
        ws = OperatorWorkspace(model, [-7.0], [7.0], (1024,))
        out = predict(_state_mixture(ws, rng), ws)
        x = ws.state_axes[0]
        expected = np.exp(-0.5 * (x - c) ** 2 / 0.25) / np.sqrt(2 * np.pi * 0.25)
        assert_allclose(out.values, expected, rtol=1e-8, atol=1e-12)


def test_predict_against_monte_carlo():
    model = bounded_model_1d()
    ws = OperatorWorkspace(model, [-7.0], [7.0], (1024,))
    prior = GaussianMeasure([0.8], [[0.3]])
    mu = from_gaussian(prior, box_lo=ws.state_lo, box_hi=ws.state_hi, shape=ws.state_shape)
    mom = moments(predict(mu, ws))

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
    ws = OperatorWorkspace(model, [-7.0], [7.0], (512,))
    kappa, lower, upper = prediction_envelope(model)
    rng = np.random.default_rng(7)
    for _ in range(20):
        mom = moments(predict(_state_mixture(ws, rng), ws))
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
    for envelope in (prediction_envelope, lifted_envelope):
        with pytest.raises(ValueError, match="finite sup bounds on psi and h"):
            envelope(linear_model_1d())


def test_lift_with_constant_observation_is_a_product():
    model = _constant_h_model(0.7)
    ws = OperatorWorkspace(model, [-7.0], [7.0], (512,))
    rng = np.random.default_rng(3)
    mu = _state_mixture(ws, rng)
    joint = lift(mu, ws)
    pdf_y = np.exp(-0.5 * (ws.y_axis - 0.7) ** 2 / 0.25) / np.sqrt(2 * np.pi * 0.25)
    assert_allclose(joint.values, mu.values[:, None] * pdf_y[None, :], rtol=1e-8, atol=1e-12)
    mom = moments(joint)
    assert mom.mean[1] == pytest.approx(0.7, abs=1e-8)
    assert mom.cov[1, 1] == pytest.approx(0.25, abs=1e-8)
    assert abs(mom.cov[0, 1]) < 1e-10


def test_lift_odd_symmetry():
    # tanh is odd and the prior is even, so the lifted data marginal has zero mean
    model = bounded_model_1d()
    ws = OperatorWorkspace(model, [-7.0], [7.0], (512,))
    mu = from_gaussian(GaussianMeasure([0.0], [[1.0]]),
                       box_lo=ws.state_lo, box_hi=ws.state_hi, shape=ws.state_shape)
    mom = moments(lift(mu, ws))
    assert abs(mom.mean[0]) < 1e-12
    assert abs(mom.mean[1]) < 1e-12
    assert mom.cov[0, 1] > 0.0  # tanh is increasing, so state and datum correlate


def test_bayes_on_product_joint_returns_prior():
    model = _constant_h_model(0.7)
    ws = OperatorWorkspace(model, [-7.0], [7.0], (512,))
    mu = _state_mixture(ws, np.random.default_rng(5))
    joint = lift(mu, ws)
    post = bayes(joint, 0.4)  # datum carries no information here
    assert_allclose(post.values, mu.values, rtol=1e-10, atol=1e-13)


def test_bayes_against_fine_quadrature():
    model = bounded_model_1d()
    ws = OperatorWorkspace(model, [-7.0], [7.0], (1024,), y_points=4096)
    mu = from_gaussian(GaussianMeasure([0.3], [[0.4]]),
                       box_lo=ws.state_lo, box_hi=ws.state_hi, shape=ws.state_shape)
    post = bayes(lift(mu, ws), 0.35)
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
    ws = OperatorWorkspace(model, [-7.0], [7.0], (256,))
    mu = _state_mixture(ws, np.random.default_rng(1))
    joint = lift(mu, ws)
    with pytest.raises(OutOfDomainError):
        bayes(joint, 50.0)
    # inside the axis but within the two-cell margin of the edge
    with pytest.raises(OutOfDomainError):
        bayes(joint, float(ws.y_axis[-1]) - 0.5 * float(ws.y_axis[1] - ws.y_axis[0]))


@pytest.mark.parametrize("analysis", [bayes, transport])
def test_analyses_take_a_datum_of_exactly_one_value(analysis):
    # one value in any shape is the datum; more or fewer is an error, never dropped
    ws = OperatorWorkspace(bounded_model_1d(), [-7.0], [7.0], (256,))
    joint = lift(_state_mixture(ws, np.random.default_rng(1)), ws)
    reference = analysis(joint, 0.3).values
    for datum in ([0.3], [[0.3]], np.array([0.3])):
        assert np.array_equal(analysis(joint, datum).values, reference)
    for datum in ([0.3, 0.9], [[0.3], [0.3]], []):
        with pytest.raises(ValueError, match="datum of one value"):
            analysis(joint, datum)
    with pytest.raises(ValueError, match="requires a joint with a scalar data axis"):
        analysis(_state_mixture(ws, np.random.default_rng(1)), 0.3)


def test_bayes_degenerate_evidence():
    # |H| <= 1 and Gamma = 0.25, so at y = 20 the likelihood underflows to about
    # 1e-314: the slice there carries no representable mass
    ws = OperatorWorkspace(bounded_model_1d(), [-7.0], [7.0], (64,), y_lo=-25.0, y_hi=25.0,
                           y_points=101)
    joint = lift(from_gaussian(GaussianMeasure([0.0], [[1.0]]), [-7.0], [7.0], (64,)), ws)
    assert 0.0 < ws._likelihood[:, ws.y_axis == 20.0].max() < 1e-300
    with pytest.raises(DegenerateEvidenceError):
        bayes(joint, 20.0)


def test_transport_with_zero_gain_returns_state_marginal():
    model = _constant_h_model(0.7)
    ws = OperatorWorkspace(model, [-7.0], [7.0], (512,))
    mu = _state_mixture(ws, np.random.default_rng(9))
    joint = lift(mu, ws)
    assert abs(kalman_gain(joint)[0, 0]) < 1e-9
    moved = transport(joint, 0.2)
    w_y = quad_weights(joint.box_lo, joint.box_hi, joint.shape)[1]
    marginal = normalized(joint.box_lo[:1], joint.box_hi[:1], joint.values @ w_y)
    assert_allclose(moved.values, marginal.values, rtol=1e-7, atol=1e-10)


def test_kalman_gain_hand_value():
    g = GaussianMeasure([0.2, -0.1], [[2.0, 0.6], [0.6, 0.5]])
    joint = from_gaussian(g, [-9.0, -9.0], [9.0, 9.0], (512, 512), blocks=BlockStructure(1, 1))
    assert kalman_gain(joint)[0, 0] == pytest.approx(0.6 / 0.5, abs=1e-6)
    state = from_gaussian(GaussianMeasure([0.2], [[2.0]]), [-9.0], [9.0], (512,))
    with pytest.raises(ValueError, match="requires a joint density with a BlockStructure"):
        kalman_gain(state)


def test_transport_equals_bayes_on_gaussian_joints():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = rng.uniform(-1.0, 1.0, size=2)
        su, sy = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5)
        c = rng.uniform(-0.85, 0.85) * np.sqrt(su * sy)
        g = GaussianMeasure(m, [[su, c], [c, sy]])
        joint = from_gaussian(g, [-10.0, -10.0], [10.0, 10.0], (512, 512),
                              blocks=BlockStructure(1, 1))
        y_dagger = m[1] + 0.4 * np.sqrt(sy)
        assert dg_distance(transport(joint, y_dagger), bayes(joint, y_dagger)) <= 5e-3


def test_transport_mean_identity():
    model = bounded_model_1d()
    ws = OperatorWorkspace(model, [-7.0], [7.0], (1024,))
    joint = lift(_state_mixture(ws, np.random.default_rng(13)), ws)
    mom = moments(joint)
    gain = kalman_gain(joint)[0, 0]
    y_dagger = 0.3
    expected = mom.mean[0] + gain * (y_dagger - mom.mean[1])
    assert moments(transport(joint, y_dagger)).mean[0] == pytest.approx(expected, abs=3e-3)


def _transport_reference(joint, y_dagger, gain):
    """Unnormalized transport by interpolation routines from numpy and scipy.

    d = 1 interpolates each state column with np.interp, d = 2 shifts each
    state plane with ndimage.shift; both read zero off the grid.
    """
    d = joint.blocks.d
    ya = joint.axis(d)
    wy = quad_weights(joint.box_lo[d:], joint.box_hi[d:], (ya.size,))[0]
    spacings = np.array([joint.spacing(a) for a in range(d)])
    out = np.zeros(joint.shape[:d])
    for j in range(ya.size):
        s = gain * (y_dagger - ya[j])
        if d == 1:
            xu = joint.axis(0)
            out += wy[j] * np.interp(xu - s[0], xu, joint.values[:, j], left=0.0, right=0.0)
        else:
            out += wy[j] * ndimage.shift(joint.values[..., j], s / spacings, order=1,
                                         mode="constant", cval=0.0)
    return out


# Box [-9, 9] with 73 state points (spacing 0.25) and 37 data / 2-D state
# points (spacing 0.5): every grid coordinate is exact in binary, so the
# "integer" gains shift by whole cells with a fractional part of exactly 0.
# The "mixed" gains shift some planes by whole cells and the others by
# fractions of a cell, so the edge rule is exercised plane by plane.
@pytest.mark.parametrize("d, gain, y_dagger, escapes", [
    (1, [0.37], 0.6, False),
    (1, [-0.61], -0.8, False),
    (1, [0.0], 0.3, False),
    (1, [0.5], 0.0, False),
    (1, [0.25], 0.0, False),
    (1, [2.0], 2.5, True),
    (2, [0.37, -0.23], 0.6, False),
    (2, [-0.61, 0.45], -0.8, False),
    (2, [0.0, 0.0], 0.3, False),
    (2, [1.0, -2.0], 0.0, False),
    (2, [0.25, 0.5], 0.0, False),
    (2, [2.0, -1.5], 2.5, True),
], ids=["1d_pos", "1d_neg", "1d_zero", "1d_integer", "1d_mixed", "1d_edge",
        "2d_pos", "2d_neg", "2d_zero", "2d_integer", "2d_mixed", "2d_edge"])
def test_transport_matches_interpolation_back_ends(monkeypatch, d, gain, y_dagger, escapes):
    cov = [[1.0, 0.5], [0.5, 1.0]] if d == 1 else [[1.0, 0.2, 0.5], [0.2, 1.0, 0.3], [0.5, 0.3, 1.0]]
    shape = (73, 37) if d == 1 else (37, 37, 37)
    joint = from_gaussian(GaussianMeasure(np.zeros(d + 1), cov), [-9.0] * (d + 1), [9.0] * (d + 1),
                          shape, blocks=BlockStructure(d, 1))
    gain = np.array(gain)
    monkeypatch.setattr(ops, "kalman_gain", lambda _: gain.reshape(-1, 1))
    raw = _transport_reference(joint, y_dagger, gain)
    mass = np.sum(weight_tensor(joint.box_lo[:d], joint.box_hi[:d], raw.shape) * raw)
    assert (mass < 0.99) == escapes
    with pytest.warns(ResolutionWarning) if escapes else nullcontext():
        moved = transport(joint, y_dagger)
    assert_allclose(moved.values, raw / mass, rtol=1e-12)


def test_transport_coverage_error():
    g = GaussianMeasure([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])
    joint = from_gaussian(g, [-8.0, -8.0], [8.0, 8.0], (512, 512), blocks=BlockStructure(1, 1))
    with pytest.raises(CoverageError):
        transport(joint, 40.0)  # shift of ~36 state units empties the box


@pytest.mark.parametrize("d", [1, 2])
def test_maps_and_diagnostics_leave_their_inputs_untouched(d):
    # transport and the d_g diagnostics work in place on their own buffers
    shape = (64, 48) if d == 1 else (40, 36, 32)
    cov = np.eye(d + 1) + 0.4 * (np.ones((d + 1, d + 1)) - np.eye(d + 1))
    grid = dict(box_lo=[-8.0] * (d + 1), box_hi=[8.0] * (d + 1), shape=shape,
                blocks=BlockStructure(d, 1))
    joint = from_gaussian(GaussianMeasure(np.zeros(d + 1), cov), **grid)
    other = from_gaussian(GaussianMeasure(np.full(d + 1, 0.3), 1.2 * cov), **grid)
    before = {id(mu): mu.values.tobytes() for mu in (joint, other)}
    for call in (lambda: transport(joint, 0.4), lambda: bayes(joint, 0.4),
                 lambda: lifted_epsilon(joint), lambda: dg_distance(joint, other)):
        call()
        for mu in (joint, other):
            assert mu.values.tobytes() == before[id(mu)]
            assert not mu.values.flags.writeable


def test_grid_mismatch_rejected():
    model = bounded_model_1d()
    ws = OperatorWorkspace(model, [-7.0], [7.0], (256,))
    off_grid = from_gaussian(GaussianMeasure([0.0], [[1.0]]),
                             box_lo=[-8.0], box_hi=[8.0], shape=(256,))
    for grid_map in (predict, lift):
        with pytest.raises(GridMismatchError):
            grid_map(off_grid, ws)


def test_workspace_requires_bounded_h_or_explicit_axis():
    with pytest.raises(ValueError):
        OperatorWorkspace(linear_model_1d(), [-7.0], [7.0], (256,))
    ws = OperatorWorkspace(linear_model_1d(), [-7.0], [7.0], (256,), y_lo=-9.0, y_hi=9.0)
    assert ws.y_axis[0] == -9.0 and ws.y_axis[-1] == 9.0


def test_state_grid_views_gaussians_and_state_densities():
    ws = OperatorWorkspace(bounded_model_1d(), [-7.0], [7.0], (256,))
    g = GaussianMeasure([0.3], [[0.5]])
    grid = ws.state_grid(g)
    assert np.array_equal(grid.values, from_gaussian(g, ws.state_lo, ws.state_hi, ws.state_shape).values)
    assert ws.state_grid(grid) is grid
    with pytest.raises(GridMismatchError):
        ws.state_grid(from_gaussian(g, [-6.0], [6.0], (256,)))


def test_workspace_takes_the_default_resolution():
    ws = OperatorWorkspace(bounded_model_1d(), [-7.0], [7.0])
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


_WORKSPACE_2D = dict(state_lo=[-7.0, -7.0], state_hi=[7.0, 7.0], state_shape=(24, 24),
                     y_lo=-8.0, y_hi=8.0, y_points=32)


@pytest.mark.parametrize("field, value", [
    ("state_lo", [-7.0]),
    ("state_hi", [7.0, 7.0, 7.0]),
    ("state_shape", (24,)),
    ("state_lo", [7.0, -7.0]),
    ("y_lo", 8.0),
    ("state_shape", (24, 8)),
    ("y_points", 8),
    ("y_hi", None),
    ("y_lo", None),
], ids=["lo_axes", "hi_axes", "shape_axes", "reversed_box", "reversed_y", "coarse_state", "coarse_y",
        "lone_y_lo", "lone_y_hi"])
def test_workspace_rejects_a_malformed_grid(field, value):
    # a 1-axis shape for a 2-D model used to fail deep in the kernel build
    # with a bare IndexError, a reversed box was accepted, and a lone data-axis
    # bound was dropped for the envelope of a bounded H
    model = ModelSpec(d=2, K=1, psi=MapSpec("linear", {"matrix": [[0.8, 0.1], [0.0, 0.7]]}),
                      h=MapSpec("constant", {"value": [0.5]}), Sigma=(0.25 * np.eye(2)).tolist(),
                      Gamma=[[0.25]], m0=[0.0, 0.0], S0=np.eye(2).tolist())
    OperatorWorkspace(model, **_WORKSPACE_2D)
    with pytest.raises(ValueError, match=field):
        OperatorWorkspace(model, **dict(_WORKSPACE_2D, **{field: value}))


def _linear_model_2d(sigma):
    return ModelSpec(
        d=2, K=1,
        psi=MapSpec("linear", {"matrix": [[0.8, 0.1], [0.0, 0.7]]}),
        h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
        Sigma=sigma, Gamma=[[0.25]], m0=[0.0, 0.0], S0=np.eye(2).tolist(),
    )


def _tanh_sin_model_2d():
    return ModelSpec(
        d=2, K=1,
        psi=MapSpec("tanh_sin", {"scale": 0.9, "radius": 2.0, "delta": 0.2}),
        h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
        Sigma=[[0.25, 0.0], [0.0, 0.3]], Gamma=[[0.25]], m0=[0.0, 0.0], S0=np.eye(2).tolist(),
    )


_KERNEL_CASES = {
    "1d": (bounded_model_1d(), [-7.0], [7.0], (256,), GaussianMeasure([0.4], [[0.8]])),
    "2d": (_linear_model_2d((0.25 * np.eye(2)).tolist()), [-7.0, -7.0], [7.0, 7.0], (24, 24),
           GaussianMeasure([0.4, -0.3], [[0.8, 0.2], [0.2, 0.6]])),
    "2d_tanh_sin": (_tanh_sin_model_2d(), [-7.0, -6.0], [7.0, 6.0], (24, 24),
                    GaussianMeasure([0.4, -0.3], [[0.8, 0.2], [0.2, 0.6]])),
}

#: Entries of the cached kernel factors: a componentwise Psi (1d, 2d_tanh_sin)
#: gives one (n_a, n_a) factor per axis, the 2-D linear Psi with an
#: off-diagonal entry one (n_a, m) factor per axis against all m = 24^2 points.
_FACTOR_ENTRIES = {"1d": 256 * 256, "2d": 2 * 24 * 576, "2d_tanh_sin": 2 * 24 * 24}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_chunked_kernel_matches_cached(monkeypatch, case):
    # a diagonal Sigma caches per-axis kernel factors; shrinking the cache streams rows
    model, lo, hi, shape, prior = _KERNEL_CASES[case]
    mu = from_gaussian(prior, box_lo=lo, box_hi=hi, shape=shape)
    ws_cached = OperatorWorkspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=64)
    assert ws_cached._factors is not None and len(ws_cached._factors) == model.d
    assert sum(f.size for f in ws_cached._factors) == _FACTOR_ENTRIES[case]
    reference = predict(mu, ws_cached)

    monkeypatch.setattr(ops, "KERNEL_CACHE_MAX", 1024)
    ws_chunked = OperatorWorkspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=64)
    assert ws_chunked._factors is None
    assert_allclose(predict(mu, ws_chunked).values, reference.values,
                    rtol=1e-12, atol=1e-15)


def test_non_diagonal_sigma_streams_kernel_matching_brute_force():
    sigma = np.array([[0.3, 0.1], [0.1, 0.2]])
    model = _linear_model_2d(sigma.tolist())
    lo, hi, shape = [-6.0, -5.0], [6.0, 5.0], (20, 18)
    ws = OperatorWorkspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=32)
    assert ws._factors is None
    mu = from_gaussian(GaussianMeasure([0.5, -0.4], [[0.5, 0.1], [0.1, 0.4]]), lo, hi, shape)
    got = predict(mu, ws).values

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


def test_streamed_kernel_rows_hold_one_block():
    # a non-diagonal Sigma streams the kernel rows one block of _BLOCK_ENTRIES
    # entries at a time, so a predict holds a few blocks, never the m^2 kernel
    model = _linear_model_2d([[0.3, 0.1], [0.1, 0.25]])
    lo, hi, shape = [-7.0, -7.0], [7.0, 7.0], (48, 48)
    ws = OperatorWorkspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=32)
    assert ws._factors is None
    mu = from_gaussian(GaussianMeasure([0.5, -0.4], [[0.5, 0.1], [0.1, 0.4]]), lo, hi, shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        predict(mu, ws)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * density._BLOCK_ENTRIES


def test_cached_1d_kernel_factor_matches_brute_force():
    model = bounded_model_1d()
    lo, hi, shape = [-7.0], [7.0], (200,)
    ws = OperatorWorkspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=32)
    assert ws._factors is not None
    mu = from_gaussian(GaussianMeasure([0.4], [[0.8]]), lo, hi, shape)
    got = predict(mu, ws).values

    # direct quadrature of N(u_i; 0.9 tanh(v_j), Sigma) w_j mu(v_j) over every pair of grid points
    u = np.linspace(lo[0], hi[0], shape[0])
    w = weight_tensor(lo, hi, shape).ravel()
    diff = u[:, None] - 0.9 * np.tanh(u)[None, :]
    kernel = np.exp(-0.5 * diff**2 / 0.25) / np.sqrt(2.0 * np.pi * 0.25)
    raw = kernel @ (w * mu.values)
    expected = raw / np.sum(raw * w)
    assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_componentwise_workspace_holds_its_likelihood_and_axis_factors():
    # a 96^2 tanh_sin workspace caches two 96 x 96 kernel factors; with one
    # (96, 96^2) factor per axis it held about three likelihoods
    lo, hi, shape = [-7.0, -7.0], [7.0, 7.0], (96, 96)
    tracemalloc.start()
    try:
        ws = OperatorWorkspace(_tanh_sin_model_2d(), lo, hi, shape, y_lo=-8.0, y_hi=8.0,
                               y_points=96)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [f.shape for f in ws._factors] == [(96, 96), (96, 96)]
    assert held < ws._likelihood.nbytes + 1e6


def test_covariances_are_factored_once_when_validated(monkeypatch):
    # Gaussians and models keep the Cholesky factors that validation computes;
    # densities, sampling, the divergences and the workspace kernels use them
    g = GaussianMeasure([0.5, -0.4], [[0.5, 0.1], [0.1, 0.4]])
    other = GaussianMeasure([0.0, 0.0], [[0.6, -0.1], [-0.1, 0.3]])
    model_1d = bounded_model_1d()
    model_2d = _linear_model_2d([[0.3, 0.1], [0.1, 0.2]])
    ws_1d = OperatorWorkspace(model_1d, [-7.0], [7.0], (128,))
    lo, hi, shape = [-6.0, -5.0], [6.0, 5.0], (20, 18)
    ws_2d = OperatorWorkspace(model_2d, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=32)
    assert ws_2d._factors is None  # a non-diagonal Sigma streams the kernel rows
    mu_1d = from_gaussian(GaussianMeasure([0.4], [[0.8]]), [-7.0], [7.0], (128,))
    mu_2d = from_gaussian(g, lo, hi, shape)

    def refactor(cov):
        raise AssertionError("a validated covariance was factored again")

    monkeypatch.setattr(gaussian, "chol_spd", refactor)
    assert np.isfinite(gaussian.log_density_at(g, [0.1, 0.2]))
    assert gaussian.sample(g, np.random.default_rng(0), 5).shape == (5, 2)
    assert gaussian.kl_divergence(g, other) > 0.0
    assert gaussian.dg_upper_bound(g, other) > 0.0
    for mu, ws in ((mu_1d, ws_1d), (mu_2d, ws_2d)):
        assert lift(predict(mu, ws), ws).shape == ws.joint_shape
    assert np.all(np.isfinite(ws_2d.apply_markov(mu_2d.values)))


def _lifted_joint(model, lo, hi, shape, y_points, prior):
    ws = OperatorWorkspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=y_points)
    return lift(predict(from_gaussian(prior, lo, hi, shape), ws), ws)


_JOINTS = {
    "lifted_1d": lambda prior=GaussianMeasure([0.4], [[0.8]]): _lifted_joint(
        bounded_model_1d(), [-7.0], [7.0], (128,), 64, prior),
    "3_axis": lambda prior=_KERNEL_CASES["2d"][4]: _lifted_joint(
        *_KERNEL_CASES["2d"][:4], 24, prior),
}


@pytest.mark.parametrize("case", sorted(_JOINTS))
def test_block_size_cannot_change_a_result(monkeypatch, case):
    # the streamed kernels give every entry the same arithmetic in the same
    # order whatever the block: one row or plane per block, or the whole grid.
    # transport blends each state axis in chunks of rows of an eighth of a block:
    # one row each, several with a shorter last chunk, or the whole axis at once
    def results():
        joint = _JOINTS[case]()  # a fresh joint, so its moments are computed again
        moved = transport(joint, 0.3)
        kept, image = moments(joint), moments(moved)
        # d_g of two lifted joints, and of a lifted joint against its plain tensor;
        # each equals d_g with its arguments swapped bit for bit, which
        # metric_axioms relies on
        stored = density.GridDensity(joint.box_lo, joint.box_hi, joint.values)
        other = _JOINTS[case](GaussianMeasure(np.zeros(moved.ndim), np.eye(moved.ndim)))
        pairs = [(joint, other), (joint, stored), (stored, other)]
        dg = [dg_distance(a, b) for a, b in pairs]
        assert dg == [dg_distance(b, a) for a, b in pairs]
        return [lifted_epsilon(joint), moved.values, kept.mean, kept.cov, image.mean, image.cov,
                dg_distance(moved, bayes(joint, 0.3)), *dg]

    default = results()
    plane = default[1].size
    for entries in (1, 2 * plane - 1, 10**9):
        monkeypatch.setattr(density, "_BLOCK_ENTRIES", entries)
        for got, expected in zip(results(), default, strict=True):
            assert np.array_equal(got, expected)


_TRUNCATED = {
    # H(u) = u reaches 7 at the state box's edges, where the data axis [-8, 8]
    # cuts N(y; H(u), 0.25) one standard deviation on: R0 is 0.975 there
    "truncated_1d": lambda: _lifted_joint(linear_model_1d(), [-7.0], [7.0], (128,), 64,
                                          GaussianMeasure([0.4], [[0.8]])),
}


@pytest.mark.parametrize("case", sorted(_JOINTS) + sorted(_TRUNCATED))
def test_lifted_joint_moments_match_its_tensor(case):
    # the closed-form data-axis sums q R0, q R1, ... give the moments that
    # the four passes over the materialized tensor give, also where the data
    # axis cuts the likelihood off (3_axis and truncated_1d, at the box edges)
    joint = {**_JOINTS, **_TRUNCATED}[case]()
    r0 = joint._sums[0]
    assert (max(r0[(0,) * r0.ndim], r0[(-1,) * r0.ndim]) < 0.98) == (case != "lifted_1d")
    stored = density.GridDensity(joint.box_lo, joint.box_hi, joint.values)
    got, expected = moments(joint), density._quadrature_moments(stored)
    assert_allclose(got.mean, expected.mean, rtol=1e-12)
    assert_allclose(got.cov, expected.cov, rtol=1e-12)


def test_lifted_joint_values_are_built_from_its_factors():
    # the joint keeps q = mu / M and shares the workspace's likelihood; its
    # values are built on request, read-only and not kept
    model, lo, hi, shape, prior = _KERNEL_CASES["2d"]
    ws = OperatorWorkspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=24)
    joint = lift(from_gaussian(prior, lo, hi, shape), ws)
    assert joint._likelihood is ws._likelihood and joint._q.shape == ws.state_shape
    values = joint.values
    assert np.array_equal(values, joint._q[..., None] * ws._likelihood)
    assert not values.flags.writeable
    assert values is not joint.values


def test_streamed_kernels_hold_no_second_joint():
    # a 3-axis joint of 8 MB: the kernels that stream a grid in blocks stay
    # far below its size, lift makes no joint-sized array (nor one the size
    # of a block buffer), and building the workspace makes its likelihood in place
    model = _linear_model_2d((0.25 * np.eye(2)).tolist())
    lo, hi, shape = [-7.0, -7.0], [7.0, 7.0], (64, 64)
    tracemalloc.start()
    try:
        ws = OperatorWorkspace(model, lo, hi, shape, y_lo=-8.0, y_hi=8.0, y_points=256)
        held, peak = tracemalloc.get_traced_memory()
        assert peak - held < 0.5 * ws._likelihood.nbytes
        mu = predict(from_gaussian(GaussianMeasure([0.4, -0.3], [[0.8, 0.2], [0.2, 0.6]]),
                                   lo, hi, shape), ws)
        other = lift(from_gaussian(GaussianMeasure([0.0, 0.0], np.eye(2)), lo, hi, shape), ws)

        def peak_of(call):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            return tracemalloc.get_traced_memory()[1] - before, result

        lift_peak, joint = peak_of(lambda: lift(mu, ws))
        nbytes = 8 * np.prod(ws.joint_shape)
        assert nbytes >= 8e6
        assert lift_peak < 8 * density._BLOCK_ENTRIES
        moments(joint)  # kept on the joint, outside the peaks below
        # one block buffer of rows, and the joint's rows an eighth of a block at a time
        row = np.prod(ws.joint_shape[1:])
        rows = 8 * density._blocks(ws.joint_shape[0], row)[0].stop * row
        assert peak_of(lambda: lifted_epsilon(joint))[0] < 1.25 * rows
        transport_peak = peak_of(lambda: transport(joint, 0.3))[0]
        assert transport_peak < 0.5 * nbytes
        # one block buffer of data-axis planes, a fraction of one more, and the output
        plane = 8 * np.prod(ws.state_shape)
        buffer = density._blocks(joint.shape[-1], np.prod(ws.state_shape))[0].stop * plane
        assert transport_peak < 1.5 * buffer + plane
        # one block buffer of rows, into which the first joint's rows are written,
        # and the second joint's rows an eighth of a block at a time
        assert peak_of(lambda: dg_distance(joint, other))[0] < 1.25 * rows
        # plain TV is the first term of the same pass
        tv_peak, tv = peak_of(lambda: tv_distance(joint, other))
        assert tv_peak < 1.25 * rows
        # a 512^2 Gaussian joint, as verify grids them: from_gaussian builds its
        # likelihood in one buffer and makes no copy of it
        table_peak, table = peak_of(lambda: from_gaussian(
            GaussianMeasure([0.2, -0.1], [[2.0, 0.6], [0.6, 0.5]]), [-9.0, -9.0], [9.0, 9.0],
            (512, 512), blocks=BlockStructure(1, 1)))
        assert table_peak < 1.25 * table.values.nbytes
    finally:
        tracemalloc.stop()
    assert tv == integrate(np.abs(joint.values - other.values), joint.box_lo, joint.box_hi)
