"""Filter drivers: data generation, per-step maps, multi-kind runs, CSV export."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from filtermaps.density import from_gaussian, moments
from filtermaps.filters import (
    Ensemble,
    FilterConfig,
    FilterStepError,
    FilterTrajectory,
    generate_data,
    kalman_analytic,
    lipschitz_p,
    lipschitz_q,
    plan_workspace,
    run_filter,
    step_enkf_particles,
    step_gpf,
    step_true,
    trajectory_to_csv,
)
from filtermaps.gaussian import GaussianMeasure, sample
from filtermaps.model import MapSpec, ModelSpec, bounded_model_1d, linear_model_1d, sweep_model
from filtermaps.operators import OutOfDomainError, default_workspace


SMALL = FilterConfig(state_shape=(256,), y_points=128)


def test_generate_data_shapes_and_determinism():
    model = bounded_model_1d()
    traj = generate_data(model, J=6, seed=4)
    assert traj.data.shape == (6, 1)
    assert traj.states.shape == (7, 1)
    assert traj.J == 6
    assert traj.kappa_y == pytest.approx(np.abs(traj.data).max())
    again = generate_data(model, J=6, seed=4)
    assert_allclose(again.data, traj.data)
    assert_allclose(again.states, traj.states)
    other = generate_data(model, J=6, seed=5)
    assert not np.allclose(other.data, traj.data)


def test_generate_data_requires_steps():
    with pytest.raises(ValueError):
        generate_data(bounded_model_1d(), J=0, seed=0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        FilterTrajectory(data=[[2.0]], kappa_y=1.0)  # recorded bound below the data
    with pytest.raises(ValueError):
        FilterTrajectory(data=[[np.inf]])
    traj = FilterTrajectory(data=[[2.0], [-3.0]])
    assert traj.kappa_y == 3.0


def test_ensemble_validation_and_moments():
    with pytest.raises(ValueError):
        Ensemble(np.zeros((1, 1)))
    ens = Ensemble([[0.0], [2.0]])
    assert ens.N == 2 and ens.d == 1
    m, c = ens.moments()
    assert m[0] == 1.0
    assert c[0, 0] == 2.0  # ddof = 1


def test_kalman_recursion_hand_case():
    # Psi = 0, H = id, Sigma = 1, Gamma = 2, u0 ~ N(5, 3), datum 0:
    # prediction N(0, 1); gain 1/3; posterior N(0, 2/3)
    model = linear_model_1d(a=0.0, c=1.0, sigma=1.0, gamma=2.0, m0=5.0, s0=3.0)
    chain = kalman_analytic(model, FilterTrajectory(data=[[0.0]], kappa_y=1.0))
    assert len(chain) == 2
    assert_allclose(chain[0].mean, [5.0])
    assert_allclose(chain[0].cov, [[3.0]])
    assert_allclose(chain[1].mean, [0.0], atol=1e-15)
    assert_allclose(chain[1].cov, [[2.0 / 3.0]], rtol=1e-14)


def test_kalman_analytic_requires_linear_maps():
    traj = FilterTrajectory(data=[[0.1]])
    with pytest.raises(ValueError):
        kalman_analytic(bounded_model_1d(), traj)


def test_grid_true_filter_tracks_kalman():
    model = linear_model_1d()
    traj = generate_data(model, J=5, seed=0)
    oracle = kalman_analytic(model, traj)
    run = run_filter("true", model, traj, config=FilterConfig(state_shape=(1024,)))
    for j in range(traj.J + 1):
        assert_allclose(run.diagnostics["mean"][j], oracle[j].mean, atol=5e-4)
        assert_allclose(run.diagnostics["cov"][j], oracle[j].cov, atol=5e-4)


def test_grid_filters_track_kalman_in_2d():
    model = ModelSpec(
        d=2, K=1,
        psi=MapSpec("linear", {"matrix": [[0.8, 0.1], [0.0, 0.7]]}),
        h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
        Sigma=(0.25 * np.eye(2)).tolist(), Gamma=[[0.25]],
        m0=[0.0, 0.0], S0=np.eye(2).tolist(),
    )
    traj = generate_data(model, J=3, seed=2)
    oracle = kalman_analytic(model, traj)
    results = run_filter(["true", "enkf_mf", "gpf_bg", "gpf_gt"], model, traj,
                         config=FilterConfig(state_shape=(48, 48), y_points=48))
    # Tolerances are grid error on a 48^2 state grid (cell about 0.28 against a
    # prior stdev of 1) with 48 data points (cell about 0.34); measured errors are
    # at most half of each bound:
    # - gpf_bg conditions the quadrature moments of a lifted Gaussian, which the
    #   trapezoid rule integrates to near rounding level;
    # - true slices the joint at the datum by linear interpolation between data nodes;
    # - enkf_mf and gpf_gt transport by linear interpolation on the state grid,
    #   which smooths by about cell^2 / 6 of variance per step.
    tolerances = {"gpf_bg": (1e-9, 1e-8), "true": (3e-3, 3e-2),
                  "enkf_mf": (3e-3, 5e-2), "gpf_gt": (3e-3, 5e-2)}
    for kind, (atol_mean, atol_cov) in tolerances.items():
        diag = results[kind].diagnostics
        for j in range(traj.J + 1):
            assert_allclose(diag["mean"][j], oracle[j].mean, atol=atol_mean)
            assert_allclose(diag["cov"][j], oracle[j].cov, atol=atol_cov)
    # a Gaussian joint stays Gaussian under transport, so both transport forms coincide
    for key in ("mean", "cov"):
        for a, b in zip(results["enkf_mf"].diagnostics[key], results["gpf_gt"].diagnostics[key]):
            assert_allclose(a, b, atol=1e-6)


def test_run_filter_matches_manual_step_loop():
    model = bounded_model_1d()
    traj = generate_data(model, J=3, seed=7)
    ws = plan_workspace(model, traj, SMALL)
    run = run_filter("true", model, traj, config=SMALL, ws=ws)

    mu = from_gaussian(model.initial_law(), ws.state_lo, ws.state_hi, ws.state_shape)
    for j in range(traj.J):
        mu = step_true(mu, model, traj.data[j], ws)
    assert np.array_equal(run.measures[-1].values, mu.values)


def test_particle_step_matches_kalman_for_linear_model():
    model = linear_model_1d()
    n = 200_000
    rng = np.random.default_rng(21)
    ens = Ensemble(sample(model.initial_law(), rng, n))
    post = step_enkf_particles(ens, model, [0.3], rng)
    oracle = kalman_analytic(model, FilterTrajectory(data=[[0.3]]))[-1]
    m, c = post.moments()
    se_mean = np.sqrt(oracle.cov[0, 0] / n)
    se_var = oracle.cov[0, 0] * np.sqrt(2.0 / n)
    assert abs(m[0] - oracle.mean[0]) < 6 * se_mean
    assert abs(c[0, 0] - oracle.cov[0, 0]) < 6 * se_var


def test_particle_step_determinism_and_small_ensemble_warning():
    model = bounded_model_1d()
    ens = Ensemble([[0.0], [1.0], [-1.0], [0.5]])
    a = step_enkf_particles(ens, model, [0.2], 3)
    b = step_enkf_particles(ens, model, [0.2], 3)
    assert np.array_equal(a.particles, b.particles)
    with pytest.warns(RuntimeWarning):
        step_enkf_particles(Ensemble([[0.0], [1.0]]), model, [0.2], 3)


def test_gpf_forms_agree():
    model = bounded_model_1d()
    ws = default_workspace(model, [-7.0], [7.0], (512,))
    mu = GaussianMeasure([0.2], [[0.8]])
    bg = step_gpf(mu, model, [0.1], ws, form="bg")
    gt = step_gpf(mu, model, [0.1], ws, form="gt")
    assert_allclose(bg.mean, gt.mean, atol=5e-3)
    assert_allclose(bg.cov, gt.cov, atol=5e-3)
    with pytest.raises(ValueError):
        step_gpf(mu, model, [0.1], ws, form="midpoint")


def test_run_filter_multi_kind_contract():
    model = bounded_model_1d()
    traj = generate_data(model, J=3, seed=1)
    results = run_filter(("true", "enkf_mf", "gpf_bg", "enkf_N"), model, traj,
                         config=FilterConfig(state_shape=(256,), y_points=128,
                                             n_particles=64))
    assert set(results) == {"true", "enkf_mf", "gpf_bg", "enkf_N"}
    for kind, out in results.items():
        assert out.kind == kind
        assert len(out.measures) == 4
        assert len(out.diagnostics["mean"]) == 4
        assert len(out.diagnostics["cov"]) == 4
        assert out.diagnostics["eps"][0] is None
    for kind in ("true", "enkf_mf", "gpf_bg"):
        assert all(e is not None for e in results[kind].diagnostics["eps"][1:])
        dg = results[kind].diagnostics["dg_vs_true"]
        assert len(dg) == 4 and all(v >= 0.0 for v in dg)
    assert_allclose(results["true"].diagnostics["dg_vs_true"], np.zeros(4), atol=1e-12)
    assert all(e is None for e in results["enkf_N"].diagnostics["eps"])
    assert "dg_vs_true" not in results["enkf_N"].diagnostics


def test_run_filter_zero_steps():
    model = bounded_model_1d()
    traj = FilterTrajectory(data=np.zeros((0, 1)))
    out = run_filter("gpf_bg", model, traj, config=SMALL)
    assert out.J == 0
    assert len(out.measures) == 1
    assert len(out.diagnostics["mean"]) == 1


def test_run_filter_rejects_unknown_kind():
    model = bounded_model_1d()
    traj = generate_data(model, J=1, seed=0)
    with pytest.raises(ValueError):
        run_filter("particle_flow", model, traj)


def test_filter_step_error_carries_location():
    model = bounded_model_1d()
    traj = FilterTrajectory(data=[[0.05], [50.0]])  # second datum far outside any axis
    ws = default_workspace(model, [-7.0], [7.0], (256,), y_points=128)
    with pytest.raises(FilterStepError) as err:
        run_filter("true", model, traj, ws=ws)
    assert err.value.step == 1
    assert err.value.kind == "true"
    assert "step 1" in str(err.value)
    assert isinstance(err.value.__cause__, OutOfDomainError)


def test_lipschitz_constant_values():
    model = bounded_model_1d()  # kappa_psi = 0.9, kappa_h = 1, traces 0.25
    assert lipschitz_p(model) == pytest.approx(1.0 + 0.81 + 0.25)
    assert lipschitz_q(model) == pytest.approx(1.0 + 1.0 + 0.25)
    with pytest.raises(ValueError):
        lipschitz_p(linear_model_1d())


def test_trajectory_to_csv_layout(tmp_path):
    model = bounded_model_1d()
    traj = generate_data(model, J=2, seed=2)
    kinds = ("true", "enkf_mf")

    def render(path):
        results = run_filter(kinds, model, traj, config=SMALL)
        trajectory_to_csv(results, path, model=model)
        return path.read_bytes()

    first = render(tmp_path / "a.csv")
    lines = first.decode().strip().split("\n")
    assert lines[0] == "step,kind,mean_0,cov_0_0,eps,dg_to_true"
    assert len(lines) == 1 + len(kinds) * (traj.J + 1)
    step0 = lines[1].split(",")
    assert step0[0] == "0" and step0[1] == "true"
    assert step0[4] == ""  # no lifted joint before the first step
    assert float(step0[5]) == 0.0
    assert first == render(tmp_path / "b.csv")


def test_plan_workspace_margins_and_determinism():
    model = sweep_model(0.2)
    traj = generate_data(model, J=8, seed=5)
    ws = plan_workspace(model, traj, SMALL)
    h = ws.y_axis[1] - ws.y_axis[0]
    for y in traj.data[:, 0]:
        assert ws.y_axis[0] + 2 * h < y < ws.y_axis[-1] - 2 * h
    again = plan_workspace(model, traj, SMALL)
    assert_allclose(again.state_lo, ws.state_lo)
    assert_allclose(again.state_hi, ws.state_hi)
    assert_allclose(again.y_axis, ws.y_axis)
