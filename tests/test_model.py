"""Model specifications: map families, config round-trips, assumption probes."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from filtermaps.model import (
    MapSpec,
    ModelSpec,
    SWEEP_RADIUS,
    bounded_model_1d,
    fingerprint,
    from_config,
    linear_model_1d,
    load_config,
    make_map,
    save_config,
    sweep_model,
    to_config,
    validate_assumptions,
)


def test_make_map_unknown_family():
    with pytest.raises(ValueError):
        make_map("sigmoid", {}, 1, 1)


def test_linear_map_application_and_norm():
    h = make_map("linear", {"matrix": [[0.8, 0.1], [0.0, 0.7]]}, 2, 2)
    x = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert_allclose(h.fn(x), x @ np.array([[0.8, 0.1], [0.0, 0.7]]).T)
    assert_allclose(h.lipschitz, np.linalg.norm([[0.8, 0.1], [0.0, 0.7]], 2))
    assert h.sup_bound is None  # unbounded unless the matrix is zero
    zero = make_map("linear", {"matrix": [[0.0]]}, 1, 1)
    assert zero.sup_bound == 0.0


def test_constant_map():
    h = make_map("constant", {"value": [1.5]}, 1, 1)
    assert_allclose(h.fn(np.array([[-3.0], [4.0]])), [[1.5], [1.5]])
    assert h.lipschitz == 0.0
    assert h.sup_bound == 1.5


def test_tanh_map_saturation():
    # scale 0.9, radius 1: value at 5 is 0.9 tanh(5)
    h = make_map("tanh", {"scale": 0.9, "radius": 1.0}, 1, 1)
    assert_allclose(h.fn(np.array([[5.0]])), [[0.9 * np.tanh(5.0)]], rtol=1e-14)
    assert h.sup_bound == pytest.approx(0.9)
    assert h.lipschitz == pytest.approx(0.9)


def test_tanh_sin_and_rational_bounds():
    g = make_map("tanh_sin", {"scale": 0.9, "radius": 4.0, "delta": 0.2, "freq": 3.0}, 1, 1)
    x = np.linspace(-50, 50, 20001)[:, None]
    vals = g.fn(x)
    assert np.abs(vals).max() <= g.sup_bound + 1e-12
    assert_allclose(vals[:, 0], 0.9 * 4.0 * np.tanh(x[:, 0] / 4.0) + 0.2 * np.sin(3.0 * x[:, 0]))

    r = make_map("tanh_rational", {"radius": 4.0, "delta": 0.3}, 1, 1)
    vals = r.fn(x)
    assert np.abs(vals).max() <= r.sup_bound + 1e-12
    assert_allclose(vals[:, 0], 4.0 * np.tanh(x[:, 0] / 4.0) + 0.3 * x[:, 0] ** 2 / (1 + x[:, 0] ** 2))


def test_model_spec_validation():
    with pytest.raises(Exception):
        ModelSpec(d=1, K=1, psi=MapSpec("linear", {"matrix": [[0.9]]}),
                  h=MapSpec("linear", {"matrix": [[1.0]]}),
                  Sigma=[[-0.25]], Gamma=[[0.25]], m0=[0.0], S0=[[1.0]])
    with pytest.raises(Exception):
        ModelSpec(d=2, K=1, psi=MapSpec("linear", {"matrix": [[0.9]]}),  # 1x1 matrix, d=2
                  h=MapSpec("linear", {"matrix": [[1.0, 0.0]]}),
                  Sigma=np.eye(2), Gamma=[[0.25]], m0=[0.0, 0.0], S0=np.eye(2))


def test_model_apply_batches():
    spec = bounded_model_1d()
    x = np.array([[0.0], [1.0], [-2.0]])
    out = spec.psi_apply(x)
    assert out.shape == (3, 1)
    assert_allclose(spec.h_apply(x).shape, (3, 1))


def test_linear_model_is_linear_and_bounded_is_not():
    assert linear_model_1d().is_linear()
    assert not bounded_model_1d().is_linear()
    assert bounded_model_1d().psi_bound() is not None
    assert linear_model_1d().psi_bound() is None


def test_config_roundtrip_identity(tmp_path):
    for spec in (linear_model_1d(), bounded_model_1d(), sweep_model(0.15)):
        cfg = to_config(spec)
        back = from_config(json.loads(json.dumps(cfg)))  # through real JSON
        assert fingerprint(back) == fingerprint(spec)
        assert_allclose(back.Sigma, spec.Sigma)
        assert_allclose(back.m0, spec.m0)

    path = tmp_path / "model.json"
    save_config(sweep_model(0.25), path)
    loaded = load_config(path)
    assert fingerprint(loaded) == fingerprint(sweep_model(0.25))


def test_fingerprint_distinguishes_models():
    assert fingerprint(sweep_model(0.1)) != fingerprint(sweep_model(0.2))
    assert fingerprint(linear_model_1d()) != fingerprint(bounded_model_1d())


def test_validate_assumptions_bounded_model():
    report = validate_assumptions(bounded_model_1d())
    assert report.passed
    assert not report.linear_exactness_mode
    names = {c.name for c in report.checks}
    assert {"sigma_spd", "gamma_spd", "s0_spd", "psi_bounded", "h_bounded",
            "h_lipschitz"} <= names
    # the probe certificate stays below the declared bound
    for c in report.checks:
        if c.name in ("psi_bounded", "h_bounded") and c.value is not None:
            assert c.value <= c.bound + 1e-9


def test_validate_assumptions_linear_mode():
    report = validate_assumptions(linear_model_1d())
    assert report.linear_exactness_mode
    assert any("linear" in line.lower() for line in report.lines())


def test_validate_assumptions_beyond_three_state_axes():
    # d = 4 probes round(10^4 ** (1/4)) = 10 points per axis
    eye = np.eye(4).tolist()
    model = ModelSpec(d=4, K=4, psi=MapSpec("tanh", {"scale": 0.9}), h=MapSpec("tanh", {"scale": 1.0}),
                      Sigma=eye, Gamma=eye, m0=[0.0] * 4, S0=eye)
    report = validate_assumptions(model)
    assert report.passed
    assert {c.name for c in report.checks} >= {"psi_bounded", "h_bounded", "h_lipschitz"}


def test_probe_reproducibility():
    r1 = validate_assumptions(sweep_model(0.2))
    r2 = validate_assumptions(sweep_model(0.2))
    for c1, c2 in zip(r1.checks, r2.checks):
        assert c1.passed == c2.passed
        if c1.value is not None:
            assert c1.value == c2.value


def test_sweep_family_shape():
    # delta = 0 is close to the linear model 0.9 u inside a few prior widths:
    # the cubic tanh correction u^3 / (3 R^2) is about 2e-2 at u = 4
    spec0 = sweep_model(0.0)
    u = np.linspace(-4.0, 4.0, 41)[:, None]
    assert np.abs(spec0.psi_apply(u)[:, 0] - 0.9 * u[:, 0]).max() < 2.5e-2
    assert np.abs(spec0.h_apply(u)[:, 0] - u[:, 0]).max() < 2.5e-2
    assert spec0.psi_bound() == pytest.approx(0.9 * SWEEP_RADIUS, rel=0.2)

    # growing delta strengthens the nonlinearity
    spec3 = sweep_model(0.3)
    dev0 = np.abs(spec0.psi_apply(u)[:, 0] - 0.9 * u[:, 0]).max()
    dev3 = np.abs(spec3.psi_apply(u)[:, 0] - 0.9 * u[:, 0]).max()
    assert dev3 > 10 * dev0
