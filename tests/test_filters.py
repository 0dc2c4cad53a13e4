"""Filter drivers: data generation, per-step maps, multi-kind runs, CSV export."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from filtermaps import density, filters, operators
from filtermaps.density import CoverageError, GridDensity, from_gaussian, gaussian_projection, lifted_epsilon, moments
from filtermaps.filters import (
    Ensemble,
    FilterConfig,
    FilterRun,
    FilterStepError,
    FilterTrajectory,
    generate_data,
    kalman_analytic,
    lipschitz_p,
    lipschitz_q,
    plan_workspace,
    run_filter,
    step_enkf_particles,
    trajectory_to_csv,
)
from filtermaps.gaussian import GaussianMeasure, SingularCovarianceError, condition, sample
from filtermaps.model import MapSpec, ModelSpec, bounded_model_1d, linear_model_1d, sweep_model
from filtermaps.operators import (OutOfDomainError, WorkspaceMismatchError, bayes,
                                  default_workspace, lift, predict, transport)


SMALL = FilterConfig(state_shape=(256,), y_points=128)


def _linear_model_2d():
    return ModelSpec(
        d=2, K=1,
        psi=MapSpec("linear", {"matrix": [[0.8, 0.1], [0.0, 0.7]]}),
        h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
        Sigma=(0.25 * np.eye(2)).tolist(), Gamma=[[0.25]],
        m0=[0.0, 0.0], S0=np.eye(2).tolist(),
    )


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
        FilterTrajectory(data=[[np.inf]])
    traj = FilterTrajectory(data=[[2.0], [-3.0]])
    assert traj.kappa_y == 3.0  # derived from the data, not settable
    with pytest.raises(TypeError):
        FilterTrajectory(data=[[2.0]], kappa_y=1.0)
    assert FilterTrajectory(data=np.zeros((0, 1))).kappa_y == 0.0


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
    model = ModelSpec(d=1, K=1, psi=MapSpec("linear", {"matrix": [[0.0]]}),
                      h=MapSpec("linear", {"matrix": [[1.0]]}),
                      Sigma=[[1.0]], Gamma=[[2.0]], m0=[5.0], S0=[[3.0]])
    chain = kalman_analytic(model, FilterTrajectory(data=[[0.0]]))
    assert len(chain) == 2
    assert_allclose(chain[0].mean, [5.0])
    assert_allclose(chain[0].cov, [[3.0]])
    assert_allclose(chain[1].mean, [0.0], atol=1e-15)
    assert_allclose(chain[1].cov, [[2.0 / 3.0]], rtol=1e-14)


def _textbook_kalman(model, data):
    """Covariance-form Kalman filter with an explicit inverse, as in the textbooks."""
    A, C = model.psi_handle.matrix, model.h_handle.matrix
    m, P = model.m0, model.S0
    out = [(m, P)]
    for y in data:
        m, P = A @ m, A @ P @ A.T + model.Sigma
        gain = P @ C.T @ np.linalg.inv(C @ P @ C.T + model.Gamma)
        m, P = m + gain @ (y - C @ m), (np.eye(model.d) - gain @ C) @ P
        out.append((m, P))
    return out


@pytest.mark.parametrize("model", [linear_model_1d(), _linear_model_2d()], ids=["1d", "2d"])
def test_kalman_analytic_matches_textbook_recursion(model):
    traj = generate_data(model, J=6, seed=4)
    chain = kalman_analytic(model, traj)
    reference = _textbook_kalman(model, traj.data)
    assert len(chain) == len(reference)
    for g, (m, P) in zip(chain, reference):
        assert_allclose(g.mean, m, rtol=0, atol=1e-12)
        assert_allclose(g.cov, P, rtol=0, atol=1e-12)


def test_kalman_analytic_requires_linear_maps():
    traj = FilterTrajectory(data=[[0.1]])
    with pytest.raises(ValueError):
        kalman_analytic(bounded_model_1d(), traj)


def test_grid_true_filter_tracks_kalman():
    model = linear_model_1d()
    traj = generate_data(model, J=5, seed=0)
    oracle = kalman_analytic(model, traj)
    run = run_filter(["true"], model, traj, config=FilterConfig(state_shape=(1024,)))["true"]
    for j in range(traj.J + 1):
        assert_allclose(run.diagnostics["mean"][j], oracle[j].mean, atol=5e-4)
        assert_allclose(run.diagnostics["cov"][j], oracle[j].cov, atol=5e-4)


def test_grid_filters_track_kalman_in_2d():
    model = _linear_model_2d()
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


# The analysis of each kind applied to the lifted prediction Q.P, composed by hand.
ANALYSES = {
    "true": bayes,
    "enkf_mf": transport,
    "gpf_bg": lambda joint, y: condition(gaussian_projection(joint), joint.blocks,
                                         np.atleast_1d(y)),
    "gpf_gt": lambda joint, y: gaussian_projection(transport(joint, y)),
}


def _on_grid(measure, ws):
    if isinstance(measure, GridDensity):
        return measure
    return from_gaussian(measure, ws.state_lo, ws.state_hi, ws.state_shape)


def _same_measure(a, b):
    if isinstance(a, GridDensity):
        return np.array_equal(a.values, b.values)
    if isinstance(a, Ensemble):
        return np.array_equal(a.particles, b.particles)
    return np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)


@pytest.fixture(scope="module")
def all_kinds_run():
    """One run of every kind, enkf_N among them, on a shared workspace."""
    model = bounded_model_1d()
    traj = generate_data(model, J=3, seed=7)
    ws = plan_workspace(model, traj, SMALL)
    return model, traj, ws, run_filter(list(filters.FILTER_KINDS), model, traj, SMALL, ws)


@pytest.mark.parametrize("kind", list(ANALYSES) + ["enkf_N"])
def test_run_filter_matches_manual_step_loop(kind, all_kinds_run):
    # alone or among all kinds, whose shared work must not change its record
    model, traj, ws, together = all_kinds_run
    alone = run_filter([kind], model, traj, config=SMALL, ws=ws)[kind]
    for run in (alone, together[kind]):
        mu = model.initial_law()
        if kind == "enkf_N":
            rng = np.random.default_rng([SMALL.seed, filters._PARTICLE_STREAM])
            mu = Ensemble(sample(mu, rng, SMALL.n_particles))
        elif kind in ("true", "enkf_mf"):
            mu = _on_grid(mu, ws)
        assert _same_measure(run.measures[0], mu)
        for j in range(traj.J):
            if kind == "enkf_N":
                mu, eps = step_enkf_particles(mu, model, traj.data[j], rng), None
            else:
                joint = lift(predict(_on_grid(mu, ws), ws), ws)
                mu, eps = ANALYSES[kind](joint, traj.data[j]), lifted_epsilon(joint)
            assert _same_measure(run.measures[j + 1], mu)
            assert run.diagnostics["eps"][j + 1] == eps


# The paper's compositions after Q.P: true = B, enkf_mf = T, gpf_bg = condition.G,
# gpf_gt = G.T; each kind first measures eps on the lifted joint.
COMPOSITIONS = {
    "true": ["bayes"],
    "enkf_mf": ["transport"],
    "gpf_bg": ["gaussian_projection", "condition"],
    "gpf_gt": ["transport", "gaussian_projection"],
}


@pytest.mark.parametrize("kind", list(COMPOSITIONS))
def test_each_kind_applies_its_composition_through_the_module_namespace(kind, monkeypatch):
    # the maps are rebound where run_filter looks them up, as the benchmark tracer
    # does; a stage holding a reference taken at import would record nothing
    calls, depth = [], [0]

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            if depth[0] == 0:  # only the calls run_filter makes, not nested ones
                calls.append((name, args[0]))
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((filters, "lifted_epsilon"), (filters, "bayes"), (filters, "transport"),
                         (filters, "condition"), (density, "gaussian_projection")):
        recording(module, name)
    model = bounded_model_1d()
    run_filter([kind], model, generate_data(model, J=1, seed=5), SMALL)
    assert [name for name, _ in calls] == ["lifted_epsilon"] + COMPOSITIONS[kind]
    assert calls[1][1] is calls[0][1]  # the first stage analyses the joint eps measured


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
    a = step_enkf_particles(ens, model, [0.2], np.random.default_rng(3))
    b = step_enkf_particles(ens, model, [0.2], np.random.default_rng(3))
    assert np.array_equal(a.particles, b.particles)
    with pytest.warns(RuntimeWarning):
        step_enkf_particles(Ensemble([[0.0], [1.0]]), model, [0.2], np.random.default_rng(3))


def test_gpf_forms_agree():
    model = bounded_model_1d()
    ws = default_workspace(model, [-7.0], [7.0], (512,))
    mu = GaussianMeasure([0.2], [[0.8]])
    joint = lift(predict(_on_grid(mu, ws), ws), ws)
    bg = ANALYSES["gpf_bg"](joint, [0.1])
    gt = ANALYSES["gpf_gt"](joint, [0.1])
    assert_allclose(bg.mean, gt.mean, atol=5e-3)
    assert_allclose(bg.cov, gt.cov, atol=5e-3)


def test_run_filter_multi_kind_contract():
    model = bounded_model_1d()
    traj = generate_data(model, J=3, seed=1)
    results = run_filter(("true", "enkf_mf", "gpf_bg", "enkf_N"), model, traj,
                         config=FilterConfig(state_shape=(256,), y_points=128,
                                             n_particles=64))
    assert list(results) == ["true", "enkf_mf", "gpf_bg", "enkf_N"]
    for kind, out in results.items():
        assert isinstance(out, FilterRun) and out.kind == kind
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


def test_run_filter_makes_one_moment_pass_per_lifted_joint(monkeypatch):
    # the Kalman gain, the Gaussian projection and eps of a joint share its moments
    lifted, passes = [], []
    real_lift, real_pass = filters.lift, density._quadrature_moments

    def recording_lift(*args):
        lifted.append(real_lift(*args))
        return lifted[-1]

    def recording_pass(mu):
        passes.append(mu)
        return real_pass(mu)

    monkeypatch.setattr(filters, "lift", recording_lift)
    monkeypatch.setattr(density, "_quadrature_moments", recording_pass)
    model = bounded_model_1d()
    traj = generate_data(model, J=2, seed=3)
    run_filter(["true", "enkf_mf", "gpf_bg", "gpf_gt"], model, traj, config=SMALL)
    joint_passes = [mu for mu in passes if mu.blocks is not None]
    # the 4 kinds share step 1's joint and each lift their own after it
    assert len(lifted) == 1 + 4 * (traj.J - 1)
    assert len(joint_passes) == len(lifted)
    assert {id(mu) for mu in joint_passes} == {id(mu) for mu in lifted}


def test_run_filter_applies_each_map_once_per_distinct_input(monkeypatch):
    # every kind enters step 1 with the gridded initial law, so P, Q and eps run
    # once there, and enkf_mf's T is the T that gpf_gt projects; from step 2 on
    # each kind has its own state density
    calls = []
    for name in ("predict", "lift", "lifted_epsilon", "transport"):
        real = getattr(filters, name)
        monkeypatch.setattr(filters, name,
                            lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    model = bounded_model_1d()
    traj = generate_data(model, J=2, seed=3)
    ws = plan_workspace(model, traj, SMALL)
    kinds = ["true", "enkf_mf", "gpf_bg", "gpf_gt"]
    counts = []
    for steps in (traj.data[:1], traj.data):  # step 1 alone, then steps 1 and 2
        calls.clear()
        run_filter(kinds, model, FilterTrajectory(data=steps), SMALL, ws)
        counts.append({name: calls.count(name) for name in set(calls)})
    step_1, both = counts
    assert step_1 == {"predict": 1, "lift": 1, "lifted_epsilon": 1, "transport": 1}
    assert {name: both[name] - step_1[name] for name in both} == \
        {"predict": 4, "lift": 4, "lifted_epsilon": 4, "transport": 2}


def test_pairwise_distances_are_measured_once_per_pair(monkeypatch):
    # d_g is symmetric and zero on the diagonal: one call per unordered pair and step
    calls = []
    real = density.dg_distance

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(density, "dg_distance", counting)
    model = bounded_model_1d()
    traj = generate_data(model, J=2, seed=3)
    ws = plan_workspace(model, traj, SMALL)
    kinds = ["true", "enkf_mf", "gpf_bg", "gpf_gt"]
    results = run_filter(kinds, model, traj, SMALL, ws)
    # lifted_epsilon measures joints; the pairwise distances are on the state grid
    state_calls = [pair for pair in calls if pair[0].blocks is None]
    assert len(state_calls) == 6 * (traj.J + 1)
    for a in kinds:
        assert [k for k in results[a].diagnostics if k.startswith("dg_vs_")] == \
            [f"dg_vs_{b}" for b in kinds]
        assert results[a].diagnostics[f"dg_vs_{a}"] == [0.0] * (traj.J + 1)
        for b in kinds:
            ab, ba = results[a].diagnostics[f"dg_vs_{b}"], results[b].diagnostics[f"dg_vs_{a}"]
            assert ab == [real(ws.state_grid(x), ws.state_grid(y))
                          for x, y in zip(results[a].measures, results[b].measures)]
            assert ba == ab and (a == b or ba is not ab)


def test_run_filter_zero_steps():
    model = bounded_model_1d()
    traj = FilterTrajectory(data=np.zeros((0, 1)))
    out = run_filter(["gpf_bg"], model, traj, config=SMALL)["gpf_bg"]
    assert len(out.measures) == 1
    assert len(out.diagnostics["mean"]) == 1


def test_run_filter_rejects_unknown_kind():
    model = bounded_model_1d()
    traj = generate_data(model, J=1, seed=0)
    with pytest.raises(ValueError, match="unknown filter kind"):
        run_filter(["particle_flow"], model, traj)


def test_run_filter_rejects_a_bare_string():
    # a string is a sequence of one-letter kinds; ask for the list instead
    model = bounded_model_1d()
    traj = generate_data(model, J=1, seed=0)
    with pytest.raises(ValueError, match=r"list of filter kinds.*\['true'\]"):
        run_filter("true", model, traj, config=SMALL)


def test_run_filter_rejects_repeated_kind():
    # a repeated kind would assimilate each datum twice into one record
    model = bounded_model_1d()
    traj = generate_data(model, J=1, seed=0)
    with pytest.raises(ValueError, match="distinct"):
        run_filter(["true", "true"], model, traj, config=SMALL)


def _forbid(monkeypatch, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("run_filter went past its input checks")

    for name in names:
        monkeypatch.setattr(filters, name, forbidden)


def test_run_filter_rejects_another_models_workspace(monkeypatch):
    # the pairing is checked once, before any step or pilot; the maps take no model
    model = bounded_model_1d()
    traj = generate_data(model, J=1, seed=0)
    ws = default_workspace(linear_model_1d(), [-7.0], [7.0], (256,), y_lo=-9.0, y_hi=9.0)
    _forbid(monkeypatch, "predict", "plan_workspace", "step_enkf_particles")
    for kinds in (["true"], ["enkf_N"]):
        with pytest.raises(WorkspaceMismatchError, match="different model"):
            run_filter(kinds, model, traj, SMALL, ws)


@pytest.mark.parametrize("planned", [False, True])
def test_run_filter_rejects_data_of_the_wrong_width(monkeypatch, planned):
    # the maps read one datum value; a second column is rejected before the pilot
    model = sweep_model(0.2)
    traj = generate_data(model, J=2, seed=1)
    ws = plan_workspace(model, traj, SMALL) if planned else None
    wide = FilterTrajectory(data=np.hstack([traj.data, traj.data]))
    _forbid(monkeypatch, "predict", "plan_workspace", "step_enkf_particles")
    with pytest.raises(ValueError, match="2 components per step.*K = 1"):
        run_filter(["true", "enkf_mf"], model, wide, SMALL, ws)


def test_model_is_fingerprinted_once_per_workspace_and_per_run(monkeypatch):
    # the workspace hashes its model when built, run_filter when handed one
    calls = []
    real = filters.fingerprint

    def counting(spec):
        calls.append(spec)
        return real(spec)

    for module in (filters, operators):
        monkeypatch.setattr(module, "fingerprint", counting)
    model = sweep_model(0.2)
    traj = generate_data(model, J=5, seed=1)
    config = FilterConfig(seed=1, state_shape=(128,), y_points=64)
    ws = plan_workspace(model, traj, config)
    assert len(calls) == 1
    run_filter(["true", "enkf_mf", "gpf_bg", "gpf_gt"], model, traj, config, ws)
    assert len(calls) == 2
    run_filter(["true", "enkf_mf", "gpf_bg", "gpf_gt"], model, traj, config)
    assert len(calls) == 3  # the planned workspace only


def test_filter_step_error_carries_location():
    model = bounded_model_1d()
    traj = FilterTrajectory(data=[[0.05], [50.0]])  # second datum far outside any axis
    ws = default_workspace(model, [-7.0], [7.0], (256,), y_points=128)
    with pytest.raises(FilterStepError) as err:
        run_filter(["true"], model, traj, ws=ws)
    assert err.value.step == 1
    assert err.value.kind == "true"
    assert "step 1" in str(err.value)
    assert isinstance(err.value.__cause__, OutOfDomainError)


@pytest.mark.parametrize("kinds", [["true"], ["gpf_bg", "gpf_gt"]])
def test_initial_law_outside_the_state_box_fails_before_any_step(kinds):
    # every grid kind starts from the one gridded initial law, N(0, 1) here,
    # whose 6-stdev band the [-3, 3] box does not cover
    model = bounded_model_1d()
    ws = default_workspace(model, [-3.0], [3.0], (256,), y_points=128)
    with pytest.raises(CoverageError):
        run_filter(kinds, model, FilterTrajectory(data=[[0.1]]), ws=ws)


def test_distance_block_failure_carries_step_and_kind():
    # Every step completes, but the datum 8 pulls the gpf_bg posterior of step 2
    # to N(4.8, 0.15), whose 6-stdev band reaches past the [-6, 6] state box;
    # putting that Gaussian on the state grid for the pairwise distances fails.
    model = linear_model_1d()
    ws = default_workspace(model, [-6.0], [6.0], (256,), y_lo=-30.0, y_hi=30.0, y_points=256)
    traj = FilterTrajectory(data=[[0.0], [0.0], [8.0]])
    with pytest.raises(FilterStepError) as err:
        run_filter(["true", "gpf_bg"], model, traj, FilterConfig(), ws)
    assert (err.value.step, err.value.kind) == (2, "gpf_bg")
    assert isinstance(err.value.__cause__, CoverageError)


@pytest.mark.parametrize("kinds", [["true", "gpf_bg"], ["gpf_bg"]])
@pytest.mark.parametrize("J", [3, 4])
def test_gridding_failure_belongs_to_the_step_that_made_the_measure(J, kinds):
    # the escaping gpf_bg posterior of the test above fails step 2, which made
    # it, whether or not a step follows and whether or not another kind runs
    model = linear_model_1d()
    ws = default_workspace(model, [-6.0], [6.0], (256,), y_lo=-30.0, y_hi=30.0, y_points=256)
    traj = FilterTrajectory(data=[[0.0], [0.0], [8.0], [0.0]][:J])
    with pytest.raises(FilterStepError) as err:
        run_filter(kinds, model, traj, FilterConfig(), ws)
    assert (err.value.step, err.value.kind) == (2, "gpf_bg")
    assert isinstance(err.value.__cause__, CoverageError)


def test_from_gaussian_runs_once_per_distinct_gaussian(monkeypatch):
    # the initial law, then each posterior of gpf_bg and gpf_gt, is put on the
    # state grid once: for the next step and the pairwise distances alike
    model = bounded_model_1d()
    traj = generate_data(model, J=3, seed=3)
    ws = plan_workspace(model, traj, SMALL)
    gridded = []
    real = operators.from_gaussian
    monkeypatch.setattr(operators, "from_gaussian", lambda g, *args: gridded.append(g) or real(g, *args))
    run_filter(["true", "enkf_mf", "gpf_bg", "gpf_gt"], model, traj, SMALL, ws)
    assert len(gridded) == 1 + 2 * traj.J
    assert len({id(g) for g in gridded}) == len(gridded)


def test_moment_failure_carries_step_and_kind(monkeypatch):
    # moments validate the covariance as a GaussianMeasure does, so a singular
    # one raises; that failure belongs to the step and kind that produced it
    real = filters._measure_moments
    calls = []

    def failing(measure):
        calls.append(measure)
        if len(calls) == 4:  # one initial law per kind, then step 0 of each kind
            raise SingularCovarianceError("synthetic singular covariance")
        return real(measure)

    monkeypatch.setattr(filters, "_measure_moments", failing)
    model = bounded_model_1d()
    with pytest.raises(FilterStepError) as err:
        run_filter(["true", "enkf_mf"], model, generate_data(model, J=2, seed=2), SMALL)
    assert (err.value.step, err.value.kind) == (0, "enkf_mf")
    assert isinstance(err.value.__cause__, SingularCovarianceError)


def test_gaussian_kinds_run_on_the_default_2d_grid():
    # the correlated gpf posteriors cover their marginals on the planned box,
    # which is sized from per-axis stdevs; from_gaussian checks that same rule
    model = ModelSpec(
        d=2, K=1,
        psi=MapSpec("tanh_sin", {"scale": 0.9, "radius": 32.0, "delta": 0.2}),
        h=MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
        Sigma=(0.25 * np.eye(2)).tolist(), Gamma=[[0.25]],
        m0=[0.0, 0.0], S0=np.eye(2).tolist(),
    )
    traj = generate_data(model, J=3, seed=1)
    results = run_filter(["true", "enkf_mf", "gpf_bg", "gpf_gt"], model, traj, FilterConfig(seed=1))
    for traj_k in results.values():
        assert len(traj_k.measures) == traj.J + 1
        assert all(np.isfinite(v) for v in traj_k.diagnostics["dg_vs_true"])


def test_run_filter_never_builds_a_flat_point_list(monkeypatch):
    # Gaussians, moments and d_g are evaluated from per-axis factors; only the
    # workspace, built before the run, evaluates the model maps point by point
    model = sweep_model(0.2)
    traj = generate_data(model, J=2, seed=1)
    config = FilterConfig(seed=1, state_shape=(128,), y_points=64)
    ws = plan_workspace(model, traj, config)

    def forbidden(*args, **kwargs):
        raise AssertionError("grid_points called during run_filter")

    monkeypatch.setattr(density, "grid_points", forbidden)
    results = run_filter(["true", "enkf_mf", "gpf_bg", "gpf_gt"], model, traj, config, ws)
    for traj_k in results.values():
        assert len(traj_k.diagnostics["eps"]) == traj.J + 1
        assert len(traj_k.diagnostics["dg_vs_true"]) == traj.J + 1


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
        trajectory_to_csv(results, path)
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
