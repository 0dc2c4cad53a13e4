"""Measure-valued filter recursions and their drivers.

Five filter kinds over a shared trajectory of observed data:

- ``true``     grid recursion  bayes . lift . predict  (the exact filter),
- ``enkf_mf``  grid recursion  transport . lift . predict  (mean-field
               ensemble Kalman filter, the infinite-ensemble limit),
- ``gpf_bg``   Gaussian recursion  condition . project . lift . predict,
- ``gpf_gt``   Gaussian recursion  project . transport . lift . predict
               (equivalent form of the same Gaussian projected filter),
- ``enkf_N``   finite ensemble with perturbed observations.

Each composition is written once, as the step of its kind in the table
``_KINDS`` (kind -> (init, step)); ``FILTER_KINDS`` are its keys. A step
returns the next measure and the lifted prediction it analysed (None for
``enkf_N``). ``run_filter`` drives any subset of kinds through that table
over one data realization on a shared workspace, recording per-step
measures, the near-Gaussianity defect eps_j of each lifted prediction, and
pairwise weighted-TV distances between kinds. ``kalman_analytic`` is the
closed-form oracle for linear models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import density
from .density import GridDensity, lifted_epsilon, moments
from .gaussian import Array, BlockStructure, GaussianMeasure, condition, sample
from .model import ModelSpec
from .operators import OperatorWorkspace, bayes, default_resolution, lift, predict, transport

#: Jitter scale added to the empirical data covariance of the particle filter.
ENSEMBLE_JITTER = 1e-10

#: Size of the pilot ensemble that ``plan_workspace`` sizes the grids from.
PILOT_SIZE = 4096

#: Padding of the planned state and data boxes, as a fraction of their width.
BOX_PAD = 0.05

_PILOT_STREAM = 101
_PARTICLE_STREAM = 202


class FilterStepError(RuntimeError):
    """A filter step failed; carries the step index and filter kind."""

    def __init__(self, step: int, kind: str, cause: Exception):
        super().__init__(f"step {step} ({kind}) failed: {cause}")
        self.step = step
        self.kind = kind


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Particle representation: an N x d array of ensemble members."""

    particles: Array

    def __post_init__(self) -> None:
        p = np.array(self.particles, dtype=float)
        if p.ndim != 2 or p.shape[0] < 2:
            raise ValueError(f"ensemble must be an N x d array with N >= 2, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("ensemble contains non-finite entries")
        p.setflags(write=False)
        object.__setattr__(self, "particles", p)

    @property
    def N(self) -> int:
        return self.particles.shape[0]

    @property
    def d(self) -> int:
        return self.particles.shape[1]

    def moments(self) -> tuple[Array, Array]:
        """Empirical mean and covariance (ddof = 1)."""
        m = self.particles.mean(axis=0)
        c = np.atleast_2d(np.cov(self.particles.T, ddof=1))
        return m, c


@dataclass(eq=False)
class FilterTrajectory:
    """One data realization plus (optionally) the measures and diagnostics of a run.

    ``data`` holds y_1..y_J rows; ``states`` the ground truth u_0..u_J when
    generated synthetically; ``kappa_y`` the recorded max |y_j|. After a
    filter run, ``measures`` has J + 1 entries (step 0 is the initial law) and
    ``diagnostics`` carries per-step records (means, covariances, eps, and
    pairwise distances when several kinds ran together).
    """

    data: Array
    states: Array | None = None
    kappa_y: float = 0.0
    kind: str | None = None
    measures: list | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if data.size == 0:
            data = data.reshape(0, max(1, data.shape[-1] if data.ndim else 1))
        if not np.all(np.isfinite(data)):
            raise ValueError("data contains non-finite entries")
        norms = np.linalg.norm(data, axis=1) if len(data) else np.zeros(0)
        if len(norms) and self.kappa_y == 0.0:
            self.kappa_y = float(norms.max())
        if len(norms) and norms.max() > self.kappa_y * (1.0 + 1e-12):
            raise ValueError("recorded kappa_y does not dominate the data norms")
        self.data = data
        if self.states is not None:
            self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.measures is not None and len(self.measures) != self.J + 1:
            raise ValueError(f"measures must have J+1 = {self.J + 1} entries, got {len(self.measures)}")

    @property
    def J(self) -> int:
        return self.data.shape[0]


def generate_data(model: ModelSpec, J: int, seed: int) -> FilterTrajectory:
    """Simulate the hidden chain and its observations.

    u_0 ~ N(m0, S0); u_{j+1} = Psi(u_j) + xi_j; y_{j+1} = H(u_{j+1}) + eta_{j+1}
    with independent Gaussian noises. Deterministic given the seed.
    """
    if J < 1:
        raise ValueError("generate_data requires J >= 1")
    rng = np.random.default_rng(seed)
    u = sample(model.initial_law(), rng, 1)[0]
    states = [u]
    data = []
    for _ in range(J):
        u = model.psi_apply(u[None, :])[0] + model.sigma_chol @ rng.standard_normal(model.d)
        y = model.h_apply(u[None, :])[0] + model.gamma_chol @ rng.standard_normal(model.K)
        states.append(u)
        data.append(y)
    return FilterTrajectory(data=np.array(data), states=np.array(states))


@dataclass(frozen=True)
class FilterConfig:
    """Knobs for a filter run: resolutions, seed and ensemble size."""

    seed: int = 0
    state_shape: tuple[int, ...] | None = None
    y_points: int | None = None
    n_particles: int = 1000


def plan_workspace(model: ModelSpec, trajectory: FilterTrajectory,
                   config: FilterConfig | None = None) -> OperatorWorkspace:
    """Size the fixed grids of a run from a deterministic pilot ensemble.

    A pilot particle EnKF (seeded from the run seed) tracks the envelope of
    per-step predicted means +- 6 stdev for the state and the data; the boxes
    take that envelope plus padding, and the data axis is widened so every
    observed datum keeps the conditioning margin. One fixed grid per run keeps
    the per-step measures of all kinds comparable in the weighted-TV metric.
    """
    config = config or FilterConfig()
    if model.K != 1:
        raise ValueError("grid filtering supports K = 1 only")
    rng = np.random.default_rng([config.seed, _PILOT_STREAM])
    ens = sample(model.initial_law(), rng, PILOT_SIZE)

    u_lo = ens.mean(axis=0) - 6.0 * np.maximum(ens.std(axis=0), 1e-9)
    u_hi = ens.mean(axis=0) + 6.0 * np.maximum(ens.std(axis=0), 1e-9)
    y_lo, y_hi = np.inf, -np.inf
    for j in range(trajectory.J):
        ens, yhat = _forecast(ens, model, rng)
        u_lo = np.minimum(u_lo, ens.mean(axis=0) - 6.0 * ens.std(axis=0))
        u_hi = np.maximum(u_hi, ens.mean(axis=0) + 6.0 * ens.std(axis=0))
        y_lo = min(y_lo, float(yhat.mean() - 6.0 * yhat.std()))
        y_hi = max(y_hi, float(yhat.mean() + 6.0 * yhat.std()))
        ens = _particle_analysis(ens, yhat, trajectory.data[j])
    if not np.isfinite(y_lo):
        y_lo, y_hi = -1.0, 1.0

    pad_u = BOX_PAD * (u_hi - u_lo)
    u_lo, u_hi = u_lo - pad_u, u_hi + pad_u
    pad_y = BOX_PAD * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    default_shape, default_points = default_resolution(model.d)
    state_shape = config.state_shape or default_shape
    y_points = config.y_points or default_points
    if trajectory.J:
        cell = (y_hi - y_lo) / (y_points - 1)
        y_lo = min(y_lo, float(trajectory.data.min()) - 5.0 * cell)
        y_hi = max(y_hi, float(trajectory.data.max()) + 5.0 * cell)
    return OperatorWorkspace(model, u_lo, u_hi, state_shape, y_lo, y_hi, y_points)


def _forecast(ens: Array, model: ModelSpec, rng: np.random.Generator) -> tuple[Array, Array]:
    """Particles pushed through Psi plus Sigma-noise, and their data H(u) plus Gamma-noise."""
    pushed = model.psi_apply(ens) + rng.standard_normal(ens.shape) @ model.sigma_chol.T
    yhat = model.h_apply(pushed) + rng.standard_normal((ens.shape[0], model.K)) @ model.gamma_chol.T
    return pushed, yhat


def _particle_analysis(ens: Array, yhat: Array, y_dagger: Array) -> Array:
    """Perturbed-observation analysis: u + C_uy C_yy^-1 (y_dagger - yhat) per particle."""
    d, K = ens.shape[1], yhat.shape[1]
    both = np.cov(np.hstack([ens, yhat]).T, ddof=1)
    both[d:, d:] += ENSEMBLE_JITTER * np.trace(both[d:, d:]) / K * np.eye(K)
    return ens + (y_dagger - yhat) @ BlockStructure(d, K).gain(both).T


def step_enkf_particles(ens: Ensemble, model: ModelSpec, y_dagger,
                        rng: np.random.Generator) -> Ensemble:
    """One step of the finite-N EnKF with perturbed observations.

    Each particle is pushed through the dynamics with fresh noise, assigned a
    synthetic datum H(u) + eta, and updated with the empirical Kalman gain.
    Deterministic given the generator state.
    """
    if ens.N < ens.d + model.K + 1:
        warnings.warn(
            f"ensemble size N={ens.N} below d+K+1={ens.d + model.K + 1}; "
            "empirical covariances are rank-deficient",
            RuntimeWarning,
            stacklevel=2,
        )
    pushed, yhat = _forecast(ens.particles, model, rng)
    return Ensemble(_particle_analysis(pushed, yhat, np.atleast_1d(y_dagger)))


def lipschitz_p(model: ModelSpec) -> float:
    """Explicit weighted-TV Lipschitz constant of prediction: 1 + kappa_psi^2 + tr Sigma."""
    kp = model.psi_bound()
    if kp is None:
        raise ValueError("the prediction Lipschitz constant requires a finite sup bound on psi")
    return 1.0 + float(kp) ** 2 + float(np.trace(model.Sigma))


def lipschitz_q(model: ModelSpec) -> float:
    """Explicit weighted-TV Lipschitz constant of lifting: 1 + kappa_h^2 + tr Gamma."""
    kh = model.h_bound()
    if kh is None:
        raise ValueError("the lifting Lipschitz constant requires a finite sup bound on h")
    return 1.0 + float(kh) ** 2 + float(np.trace(model.Gamma))


def kalman_analytic(model: ModelSpec, trajectory: FilterTrajectory) -> list[GaussianMeasure]:
    """Closed-form Kalman recursion for linear models; the exactness oracle.

    It is the Gaussian form of the maps: each step lifts the predicted law
    N(m, S), m = A m_prev, S = A S_prev A^T + Sigma, to the joint
    N([m; C m], [[S, S C^T], [C S, C S C^T + Gamma]]) and conditions it on
    the datum. Returns J + 1 Gaussians: the initial law and each posterior.
    Raises for models whose maps are not declared linear.
    """
    if not model.is_linear():
        raise ValueError("kalman_analytic requires linear psi and h with explicit matrices")
    A = model.psi_handle.matrix
    C = model.h_handle.matrix
    blocks = BlockStructure(model.d, model.K)
    out = [model.initial_law()]
    for j in range(trajectory.J):
        m = A @ out[-1].mean
        S = A @ out[-1].cov @ A.T + model.Sigma
        SC = S @ C.T
        joint = GaussianMeasure(np.concatenate([m, C @ m]),
                                np.block([[S, SC], [SC.T, C @ SC + model.Gamma]]))
        out.append(condition(joint, blocks, trajectory.data[j]))
    return out


# -- sequential driver ---------------------------------------------------------


def _lifted_prediction(mu, model: ModelSpec, ws: OperatorWorkspace) -> GridDensity:
    return lift(predict(ws.state_grid(mu), model, ws), model, ws)


# Each kind is (init, step). init(model, ws, config, rng) gives the step-0
# measure; step(measure, model, y_dagger, ws, rng) gives the next measure and
# the lifted joint it analysed. The bodies look the measure maps up as module
# globals at call time, so rebinding a map (e.g. to trace it) reaches the table.

def _init_grid(model, ws, config, rng):
    return ws.state_grid(model.initial_law())


def _init_gaussian(model, ws, config, rng):
    return model.initial_law()


def _init_ensemble(model, ws, config, rng):
    return Ensemble(sample(model.initial_law(), rng, config.n_particles))


def _step_true(mu, model, y_dagger, ws, rng):
    joint = _lifted_prediction(mu, model, ws)
    return bayes(joint, y_dagger), joint


def _step_enkf_mf(mu, model, y_dagger, ws, rng):
    joint = _lifted_prediction(mu, model, ws)
    return transport(joint, y_dagger), joint


def _step_gpf_bg(mu, model, y_dagger, ws, rng):
    joint = _lifted_prediction(mu, model, ws)
    proj = density.gaussian_projection(joint)
    return condition(proj, joint.blocks, np.atleast_1d(y_dagger)), joint


def _step_gpf_gt(mu, model, y_dagger, ws, rng):
    joint = _lifted_prediction(mu, model, ws)
    return density.gaussian_projection(transport(joint, y_dagger)), joint


def _step_enkf_n(ens, model, y_dagger, ws, rng):
    return step_enkf_particles(ens, model, y_dagger, rng), None


_KINDS = {
    "true": (_init_grid, _step_true),
    "enkf_mf": (_init_grid, _step_enkf_mf),
    "gpf_bg": (_init_gaussian, _step_gpf_bg),
    "gpf_gt": (_init_gaussian, _step_gpf_gt),
    "enkf_N": (_init_ensemble, _step_enkf_n),
}
FILTER_KINDS = tuple(_KINDS)


def _measure_moments(measure) -> tuple[Array, Array]:
    if isinstance(measure, GridDensity):
        mom = moments(measure)
        return mom.mean, mom.cov
    if isinstance(measure, GaussianMeasure):
        return measure.mean, measure.cov
    return measure.moments()


def _state_grids(traj: FilterTrajectory, ws: OperatorWorkspace) -> list[GridDensity]:
    """Each measure of a run on the state grid, for the pairwise distances.

    A failure raises :class:`FilterStepError` naming the kind and the step
    that produced the measure (measure i comes from step i - 1; the initial
    law counts as step 0).
    """
    out = []
    for i, measure in enumerate(traj.measures):
        try:
            out.append(ws.state_grid(measure))
        except Exception as exc:  # noqa: BLE001 - step index must be attached
            raise FilterStepError(max(i - 1, 0), traj.kind, exc) from exc
    return out


def run_filter(kind: str | Sequence[str], model: ModelSpec, trajectory: FilterTrajectory,
               config: FilterConfig | None = None, ws: OperatorWorkspace | None = None):
    """Drive one or several filter kinds over a shared data realization.

    Parameters
    ----------
    kind : str or sequence of str
        Any of 'true', 'enkf_mf', 'gpf_bg', 'gpf_gt', 'enkf_N'. A sequence
        of distinct kinds runs them all on one shared workspace and records
        pairwise weighted-TV distances between the density-representable kinds.
    model, trajectory, config : problem definition, data realization, knobs
    ws : OperatorWorkspace, optional
        Reuse an existing workspace (must match the model).

    Returns
    -------
    FilterTrajectory or dict[str, FilterTrajectory]
        One trajectory per kind with measures (J + 1 entries), per-step
        moment records, eps_j for kinds with a grid joint, and
        ``dg_vs_<other>`` diagnostics when several kinds run together.
        A failing step, or a measure the pairwise distances cannot put on
        the state grid, aborts with :class:`FilterStepError` carrying the
        step index and the kind.
    """
    single = isinstance(kind, str)
    kinds = [kind] if single else list(kind)
    for k in kinds:
        if k not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind '{k}'; known: {FILTER_KINDS}")
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"filter kinds must be distinct, got {kinds}")
    config = config or FilterConfig()
    if any(k != "enkf_N" for k in kinds):
        if model.d not in (1, 2) or model.K != 1:
            raise ValueError("grid filter kinds require d in {1, 2} and K = 1")
        if ws is None:
            ws = plan_workspace(model, trajectory, config)

    rng = np.random.default_rng([config.seed, _PARTICLE_STREAM])
    current: dict[str, object] = {}
    results: dict[str, FilterTrajectory] = {}
    for k in kinds:
        current[k] = init = _KINDS[k][0](model, ws, config, rng)
        mean0, cov0 = _measure_moments(init)
        results[k] = FilterTrajectory(
            data=trajectory.data, states=trajectory.states, kappa_y=trajectory.kappa_y,
            kind=k, measures=None,
            diagnostics={"mean": [mean0], "cov": [cov0], "eps": [None]},
        )
        results[k].measures = [init]

    for j in range(trajectory.J):
        yd = trajectory.data[j]
        for k in kinds:
            try:
                nxt, joint = _KINDS[k][1](current[k], model, yd, ws, rng)
                eps_j = None if joint is None else lifted_epsilon(joint)
                mean, cov = _measure_moments(nxt)
            except Exception as exc:  # noqa: BLE001 - step index must be attached
                raise FilterStepError(j, k, exc) from exc
            current[k] = nxt
            results[k].measures.append(nxt)
            results[k].diagnostics["mean"].append(mean)
            results[k].diagnostics["cov"].append(cov)
            results[k].diagnostics["eps"].append(eps_j)

    if len(kinds) > 1 and ws is not None:
        grids = {k: _state_grids(results[k], ws) for k in kinds if k != "enkf_N"}
        for a in grids:
            for b in grids:
                results[a].diagnostics[f"dg_vs_{b}"] = [
                    density.dg_distance(ga, gb) for ga, gb in zip(grids[a], grids[b])
                ]
    return results[kinds[0]] if single else results


def trajectory_to_csv(results: dict[str, FilterTrajectory], path) -> None:
    """Write per-step records as CSV: step, kind, moments, eps, dg_to_true.

    ``results`` maps each kind to its trajectory, as a multi-kind
    :func:`run_filter` returns them. Mean components and covariance entries
    are flattened row-major; empty cells mark diagnostics that do not apply
    to a kind. Output bytes depend only on the recorded values, so identical
    runs serialize identically.
    """
    first = next(iter(results.values()))
    d = len(first.diagnostics["mean"][0])
    cols = ["step", "kind"]
    cols += [f"mean_{i}" for i in range(d)]
    cols += [f"cov_{i}_{j}" for i in range(d) for j in range(d)]
    cols += ["eps", "dg_to_true"]
    fmt = lambda v: "" if v is None else "%.17g" % v
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for kind_name, traj in results.items():
            dg_true = traj.diagnostics.get("dg_vs_true")
            for step in range(len(traj.diagnostics["mean"])):
                row = [str(step), kind_name]
                row += [fmt(v) for v in np.asarray(traj.diagnostics["mean"][step]).reshape(-1)]
                row += [fmt(v) for v in np.asarray(traj.diagnostics["cov"][step]).reshape(-1)]
                row.append(fmt(traj.diagnostics["eps"][step]))
                row.append(fmt(dg_true[step] if dg_true is not None else None))
                fh.write(",".join(row) + "\n")
