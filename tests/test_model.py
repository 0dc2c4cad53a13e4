"""Model specifications: map families, config round-trips, reference scenarios."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from filtermaps import model, verify
from filtermaps.model import (
    MapSpec,
    ModelSpec,
    SWEEP_RADIUS,
    bounded_model_1d,
    fingerprint,
    from_config,
    linear_model_1d,
    make_map,
    sweep_model,
    to_config,
)


def test_make_map_unknown_family():
    with pytest.raises(ValueError):
        make_map("sigmoid", {}, 1, 1)


def test_make_map_rejects_unknown_and_missing_parameters():
    # a misspelt radius used to build radius 1 without a word
    with pytest.raises(ValueError, match="radious"):
        make_map("tanh", {"scale": 0.9, "radious": 32.0}, 1, 1)
    with pytest.raises(ValueError, match="freq"):
        make_map("tanh_rational", {"delta": 0.1, "freq": 3.0}, 1, 1)
    with pytest.raises(ValueError, match="scale"):
        make_map("tanh", {"radius": 2.0}, 1, 1)
    with pytest.raises(ValueError, match="componentwise; needs dim_out == dim_in"):
        make_map("tanh", {"scale": 0.9}, 2, 1)


def test_from_config_rejects_unknown_keys():
    cfg = to_config(sweep_model(0.1))
    for key, bad in (("sigmaa", dict(cfg, sigmaa=[[0.25]])),
                     ("bounds", dict(cfg, bounds={"kappa_psi": 5.0})),
                     ("param", dict(cfg, psi=dict(cfg["psi"], param={}))),
                     ("psi", dict(cfg, psi="tanh_sin")),
                     ("'psi' map 'params'", dict(cfg, psi=dict(cfg["psi"], params=[1.0]))),
                     ("'h' map 'params'", dict(cfg, h=dict(cfg["h"], params="radius")))):
        with pytest.raises(ValueError, match=key):
            from_config(bad)
    assert fingerprint(from_config(cfg)) == fingerprint(sweep_model(0.1))


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
    with pytest.raises(ValueError, match="constant value has 2 entries, needs 1"):
        make_map("constant", {"value": [1.5, 0.5]}, 1, 1)


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
    good = dict(d=1, K=1, psi=MapSpec("linear", {"matrix": [[0.9]]}),
                h=MapSpec("linear", {"matrix": [[1.0]]}),
                Sigma=[[0.25]], Gamma=[[0.25]], m0=[0.0], S0=[[1.0]])
    ModelSpec(**good)
    for key, bad, match in (("Gamma", np.eye(2), r"Gamma must be 1x1, got \(2, 2\)"),
                            ("m0", [0.0, 0.0], "m0 has 2 entries, d = 1"),
                            ("Sigma", [[np.nan]], "non-finite"),
                            ("m0", [np.nan], "m0 has non-finite")):
        with pytest.raises(ValueError, match=match):
            ModelSpec(**dict(good, **{key: bad}))


def test_model_spec_keeps_noise_factors_and_rejects_asymmetric_covariances():
    sigma = [[0.3, 0.1], [0.1, 0.2]]
    model = ModelSpec(d=2, K=1, psi=MapSpec("linear", {"matrix": np.eye(2).tolist()}),
                      h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
                      Sigma=sigma, Gamma=[[0.25]], m0=[0.0, 0.0], S0=np.eye(2))
    assert_allclose(model.sigma_chol @ model.sigma_chol.T, sigma, rtol=1e-14)
    assert_allclose(model.gamma_chol, [[0.5]])
    assert not model.sigma_chol.flags.writeable and not model.gamma_chol.flags.writeable
    # a covariance is checked by the same rule as a GaussianMeasure's, not by its lower triangle
    with pytest.raises(ValueError, match="not symmetric"):
        ModelSpec(d=2, K=1, psi=MapSpec("linear", {"matrix": np.eye(2).tolist()}),
                  h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
                  Sigma=[[0.3, 0.0], [0.1, 0.2]], Gamma=[[0.25]], m0=[0.0, 0.0], S0=np.eye(2))


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


def test_config_roundtrip_identity():
    for spec in (linear_model_1d(), bounded_model_1d(), sweep_model(0.15), sweep_model(0.25)):
        cfg = to_config(spec)
        back = from_config(json.loads(json.dumps(cfg)))  # through real JSON
        assert fingerprint(back) == fingerprint(spec)
        assert_allclose(back.Sigma, spec.Sigma)
        assert_allclose(back.m0, spec.m0)


def test_fingerprint_distinguishes_models():
    assert fingerprint(sweep_model(0.1)) != fingerprint(sweep_model(0.2))
    assert fingerprint(linear_model_1d()) != fingerprint(bounded_model_1d())


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


# Parameters of every registered family, as a function of the dimension d.
_FAMILY_PARAMS = {
    "linear": lambda d: {"matrix": np.diag([0.8, 0.7][:d]).tolist()},
    "constant": lambda d: {"value": [1.5, -0.5][:d]},
    "tanh": lambda d: {"scale": 0.9, "radius": 2.0},
    "tanh_sin": lambda d: {"scale": 0.9, "delta": 0.2, "radius": 2.0},
    "tanh_rational": lambda d: {"delta": 0.3, "radius": 2.0},
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("family", sorted(_FAMILY_PARAMS))
def test_componentwise_certificate_holds(family, d):
    # a certified map's component a does not move, bit for bit, when another coordinate does
    assert set(_FAMILY_PARAMS) == set(model._FAMILIES)
    handle = make_map(family, _FAMILY_PARAMS[family](d), d, d)
    assert handle.componentwise == (family in ("linear", "tanh", "tanh_sin", "tanh_rational"))
    rng = np.random.default_rng(7)
    x = rng.uniform(-6.0, 6.0, size=(500, d))
    base = handle.fn(x)
    for a in range(d):
        for b in set(range(d)) - {a}:
            moved = x.copy()
            moved[:, b] = rng.uniform(-6.0, 6.0, size=500)
            assert np.array_equal(handle.fn(moved)[:, a], base[:, a])


@pytest.mark.parametrize("matrix, componentwise", [
    ([[0.9]], True),
    ([[0.8, 0.0], [0.0, 0.7]], True),
    ([[0.8, 0.1], [0.0, 0.7]], False),
    ([[0.8, 0.0], [0.1, 0.7]], False),
    ([[1.0, 0.5]], False),
    ([[1.0], [0.5]], False),
])
def test_linear_map_is_componentwise_exactly_when_diagonal(matrix, componentwise):
    A = np.array(matrix)
    handle = make_map("linear", {"matrix": matrix}, A.shape[1], A.shape[0])
    assert handle.componentwise is componentwise
    if A.shape == (2, 2):
        # an off-diagonal entry makes a component read the other coordinate
        x = np.array([[1.0, 2.0]])
        reads_other = []
        for a in range(2):
            moved = x.copy()
            moved[0, 1 - a] += 3.0
            reads_other.append(not np.array_equal(handle.fn(moved)[:, a], handle.fn(x)[:, a]))
        assert any(reads_other) is not componentwise


def test_componentwise_certificate_is_not_config():
    # the certificate is derived from the family and its parameters, so the
    # config, its round-trip and the fingerprint stay what they were
    tanh_sin_2d = ModelSpec(d=2, K=1, psi=MapSpec("tanh_sin", {"scale": 0.9, "radius": 32.0,
                                                               "delta": 0.2}),
                            h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
                            Sigma=0.25 * np.eye(2), Gamma=[[0.25]], m0=[0.0, 0.0], S0=np.eye(2))
    diagonal_2d = ModelSpec(d=2, K=1, psi=MapSpec("linear", {"matrix": [[0.8, 0.0], [0.0, 0.7]]}),
                            h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
                            Sigma=0.25 * np.eye(2), Gamma=[[0.25]], m0=[0.0, 0.0], S0=np.eye(2))
    for spec, expected in ((sweep_model(0.1), "34ae133a4dfa1f36"),
                           (tanh_sin_2d, "f98e5eff44af2e4e"),
                           (diagonal_2d, "d7e37291030e585a")):
        assert spec.psi_handle.componentwise
        assert "componentwise" not in json.dumps(to_config(spec))
        assert fingerprint(spec) == expected
    assert verify.check_config_roundtrip().passed
