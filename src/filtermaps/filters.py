"""Measure-valued filter recursions and their drivers.

Five filter kinds over a shared trajectory of observed data. Four are
compositions of maps on measures, applied to the lifted prediction Q P mu:

- ``true``     B . Q . P  (conditioning ``bayes``; the exact filter),
- ``enkf_mf``  T . Q . P  (``transport``; the mean-field ensemble Kalman
               filter, the infinite-ensemble limit),
- ``gpf_bg``   condition . G . Q . P  (Gaussian projection G, then Gaussian
               conditioning),
- ``gpf_gt``   G . T . Q . P  (equivalent form of the same Gaussian
               projected filter),

and ``enkf_N`` is a finite ensemble with perturbed observations.

The table ``_KINDS`` gives each kind its step-0 form (grid, Gaussian or
ensemble) and the names of its analysis stages after P and Q;
``FILTER_KINDS`` are its keys. ``run_filter`` takes a list of kinds and
drives them over one data realization (a ``FilterTrajectory``) on a shared
workspace: its loop is the one place that applies P and Q, measures the
near-Gaussianity defect eps_j of the lifted joint, applies the named stages in
order and puts the result on the state grid, once, for the next step and the
pairwise distances; a measure that leaves the state box fails its own step,
for a lone kind and at the last step too. Each map is applied once per step
and distinct input: kinds that enter a step with the same state density (at
step 1, every grid kind) share its P, Q and eps, and their common leading
stages, such as the T of ``enkf_mf`` and ``gpf_gt``. It returns a dict of one
``FilterRun`` per kind: its per-step measures, their moments, eps_j, and
weighted-TV distances to the other kinds. ``kalman_analytic`` is the
closed-form oracle for linear models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import density
from .density import GridDensity, lifted_epsilon, moments
from .gaussian import Array, BlockStructure, GaussianMeasure, condition, sample
from .model import ModelSpec, fingerprint
from .operators import (OperatorWorkspace, WorkspaceMismatchError, bayes, default_resolution,
                        lift, predict, transport)

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
    """One data realization: the data y_1..y_J as rows and, when simulated, the states.

    ``states`` holds the ground truth u_0..u_J of a synthetic realization.
    """

    data: Array
    states: Array | None = None

    def __post_init__(self) -> None:
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if data.size == 0:
            data = data.reshape(0, max(1, data.shape[-1] if data.ndim else 1))
        if not np.all(np.isfinite(data)):
            raise ValueError("data contains non-finite entries")
        self.data = data
        if self.states is not None:
            self.states = np.atleast_2d(np.asarray(self.states, dtype=float))

    @property
    def J(self) -> int:
        return self.data.shape[0]

    @property
    def kappa_y(self) -> float:
        """max_j |y_j|, the data bound of the stability estimates (0 without data)."""
        return float(np.linalg.norm(self.data, axis=1).max()) if self.J else 0.0


@dataclass(eq=False)
class FilterRun:
    """One kind's record of a :func:`run_filter` call.

    ``measures`` has J + 1 entries (step 0 is the initial law). Each entry of
    ``diagnostics`` is a per-step list: ``mean``, ``cov``, ``eps`` of the lifted
    prediction analysed (None at step 0 and for ``enkf_N``) and, when several
    kinds run, ``dg_vs_<other>`` to each kind with a state grid.
    """

    kind: str
    measures: list
    diagnostics: dict


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


# Each kind is (step-0 form, analysis stages after P and Q). A kind with stages
# steps as stages[-1] . ... . stages[0] . Q . P on the state grid; enkf_N, with
# none, is the particle step. A stage looks its map up as a module global at call
# time, so rebinding a map (e.g. to trace it) reaches every kind.
_STAGES = {
    "bayes": lambda m, y, ws: bayes(m, y),
    "transport": lambda m, y, ws: transport(m, y),
    "project": lambda m, y, ws: density.gaussian_projection(m),
    "condition": lambda m, y, ws: condition(m, ws.blocks, np.atleast_1d(y)),
}
_KINDS = {
    "true": ("grid", ("bayes",)),
    "enkf_mf": ("grid", ("transport",)),
    "gpf_bg": ("gaussian", ("project", "condition")),
    "gpf_gt": ("gaussian", ("transport", "project")),
    "enkf_N": ("ensemble", ()),
}
FILTER_KINDS = tuple(_KINDS)
#: The kinds that step on the workspace's grids and are compared there in d_g.
_GRID_KINDS = tuple(k for k, (_, stages) in _KINDS.items() if stages)


def _measure_moments(measure) -> tuple[Array, Array]:
    if isinstance(measure, GridDensity):
        mom = moments(measure)
        return mom.mean, mom.cov
    if isinstance(measure, GaussianMeasure):
        return measure.mean, measure.cov
    return measure.moments()


def validate_kinds(kinds: Sequence[str], model: ModelSpec) -> None:
    """Raise ``ValueError`` unless ``kinds`` can run together on ``model``.

    ``kinds`` must be a nonempty list of distinct known kinds, and every kind
    that steps on the grids (all but ``enkf_N``) needs d in {1, 2} and K = 1.
    """
    if isinstance(kinds, str):
        raise ValueError(f"kinds must be a list of filter kinds, e.g. [{kinds!r}], not a string")
    kinds = list(kinds)
    if not kinds:
        raise ValueError("kinds must be nonempty")
    for k in kinds:
        if k not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind '{k}'; known: {FILTER_KINDS}")
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"filter kinds must be distinct, got {kinds}")
    if any(k in _GRID_KINDS for k in kinds) and (model.d not in (1, 2) or model.K != 1):
        raise ValueError("grid filter kinds require d in {1, 2} and K = 1")


def run_filter(kinds: Sequence[str], model: ModelSpec, trajectory: FilterTrajectory,
               config: FilterConfig | None = None,
               ws: OperatorWorkspace | None = None) -> dict[str, FilterRun]:
    """Drive filter kinds over a shared data realization, one record per kind.

    Parameters
    ----------
    kinds : sequence of str
        Distinct kinds out of 'true', 'enkf_mf', 'gpf_bg', 'gpf_gt',
        'enkf_N'; a single kind is passed as a one-element list. All kinds
        run on one shared workspace. :func:`validate_kinds` rejects the rest.
    model, trajectory, config : problem definition, data realization, knobs
        Each datum needs K = ``model.K`` components.
    ws : OperatorWorkspace, optional
        Reuse an existing workspace; it must have been built for ``model``.

    Returns
    -------
    dict[str, FilterRun]
        One :class:`FilterRun` per kind, in the order given. Invalid kinds,
        data of the wrong width, a workspace built for another model or a
        state box that does not cover the initial law raise ``ValueError``
        (``WorkspaceMismatchError`` for the workspace, ``CoverageError`` for
        the box) before any step. A failing step, including a grid kind's
        step whose measure cannot be put on the state grid, aborts with
        :class:`FilterStepError` carrying the step index and the kind.
    """
    validate_kinds(kinds, model)
    kinds = list(kinds)
    config = config or FilterConfig()
    if trajectory.data.shape[1] != model.K:
        raise ValueError(f"data have {trajectory.data.shape[1]} components per step, "
                         f"the model observes K = {model.K}")
    if ws is not None and ws.model_fingerprint != fingerprint(model):
        raise WorkspaceMismatchError("the workspace was built for a different model")
    if ws is None and any(k in _GRID_KINDS for k in kinds):
        ws = plan_workspace(model, trajectory, config)

    rng = np.random.default_rng([config.seed, _PARTICLE_STREAM])
    law = model.initial_law()
    # each grid kind's measures on the state grid; all enter step 1 with one density
    law_grid = ws.state_grid(law) if any(k in _GRID_KINDS for k in kinds) else None
    grids = {k: [law_grid] for k in kinds if k in _GRID_KINDS}
    runs: dict[str, FilterRun] = {}
    for k in kinds:
        form = _KINDS[k][0]
        init = (law_grid if form == "grid" else
                Ensemble(sample(law, rng, config.n_particles)) if form == "ensemble" else law)
        mean0, cov0 = _measure_moments(init)
        runs[k] = FilterRun(k, [init], {"mean": [mean0], "cov": [cov0], "eps": [None]})

    # Grid kinds that enter a step with the same state density (the group's `mu`)
    # share its P, Q and eps, and each leading stage prefix: `done` maps a prefix
    # of stage names to its output, () to the lifted joint. The group holds `mu`,
    # so the identity test cannot match a freed object. The work is done for the
    # first kind that needs it, so a failure names the kind that fails first.
    for j in range(trajectory.J):
        yd, mu = trajectory.data[j], None  # the stages read this step's datum
        for k, run in runs.items():
            try:
                if k in _GRID_KINDS:
                    state = grids[k][-1]
                    if state is not mu:
                        # the previous joint is dropped once the next lift returns, no
                        # sooner (its pages would be re-faulted) and no later (memory)
                        mu, done = state, {(): lift(predict(state, ws), ws)}
                        eps_j = lifted_epsilon(done[()])
                    stages = _KINDS[k][1]
                    for i in range(1, len(stages) + 1):
                        if stages[:i] not in done:
                            done[stages[:i]] = _STAGES[stages[i - 1]](done[stages[:i - 1]], yd, ws)
                    nxt, eps = done[stages], eps_j
                    grids[k].append(ws.state_grid(nxt))
                else:
                    nxt, eps = step_enkf_particles(run.measures[-1], model, yd, rng), None
                mean, cov = _measure_moments(nxt)
            except Exception as exc:  # noqa: BLE001 - step index must be attached
                raise FilterStepError(j, k, exc) from exc
            run.measures.append(nxt)
            run.diagnostics["mean"].append(mean)
            run.diagnostics["cov"].append(cov)
            run.diagnostics["eps"].append(eps)

    if len(kinds) > 1:
        # d_g is symmetric and zero on the diagonal: one pass per unordered pair
        names = list(grids)
        for i, a in enumerate(names):
            for b in names[i:]:
                dg = [0.0 if a == b else density.dg_distance(ga, gb)
                      for ga, gb in zip(grids[a], grids[b])]
                runs[a].diagnostics[f"dg_vs_{b}"] = dg
                runs[b].diagnostics[f"dg_vs_{a}"] = list(dg)  # each kind owns its lists
    return runs


def trajectory_to_csv(results: dict[str, FilterRun], path) -> None:
    """Write per-step records as CSV: step, kind, moments, eps, dg_to_true.

    ``results`` maps each kind to its :class:`FilterRun`, as :func:`run_filter`
    returns them. Mean components and covariance entries
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
        for kind_name, run in results.items():
            dg_true = run.diagnostics.get("dg_vs_true")
            for step in range(len(run.diagnostics["mean"])):
                row = [str(step), kind_name]
                row += [fmt(v) for v in np.asarray(run.diagnostics["mean"][step]).reshape(-1)]
                row += [fmt(v) for v in np.asarray(run.diagnostics["cov"][step]).reshape(-1)]
                row.append(fmt(run.diagnostics["eps"][step]))
                row.append(fmt(dg_true[step] if dg_true is not None else None))
                fh.write(",".join(row) + "\n")
