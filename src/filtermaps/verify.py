"""Runnable property suites: lemma-level checks with measured margins.

Each suite exercises one module's contract inequalities on randomized inputs
(seeded, hence reproducible) and reports measured worst cases against their
bounds. Each check states its threshold once, as the bound it reports, and a
``PropertyResult`` derives the verdict from the measured value, the bound and
the side of the bound that passes. The model suite also owns the probes of a
model's standing assumptions (:func:`validate_assumptions`). The suites back
the ``verify`` CLI subcommand and the acceptance tests. Checks resolve the
functions they exercise through the module objects at call time, so a
monkeypatched (or broken) implementation is what actually gets measured.

Tables of sweep points, (delta, seed) -> (eps, err_enkf, err_gpf), run through
one engine, :func:`sweep_rows`, on a process pool; ``filtermaps sweep`` and the
filters suite's eps scaling check use it. The pool's modules
(``concurrent.futures``, ``multiprocessing``) load when a pool first starts, so
a process that runs on one CPU or sweeps one point never loads them.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import density, filters, gaussian, model, operators

SUITE_NAMES = ("gaussian", "density", "operators", "filters", "model")

#: Smallest positive float: ``x >= SPD_FLOOR`` holds exactly when ``x > 0``.
SPD_FLOOR = math.ulp(0.0)


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property check: worst measured value against its bound.

    ``relation`` says which side of the bound passes: ``"<="`` (measured at
    most the bound) or ``">="`` (at least the bound). A NaN measured value or
    bound never passes.
    """

    suite: str
    name: str
    measured: float
    bound: float
    relation: str = "<="
    detail: str = ""
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.relation not in ("<=", ">="):
            raise ValueError(f"relation must be '<=' or '>=', got {self.relation!r}")

    @property
    def passed(self) -> bool:
        if self.relation == "<=":
            return bool(self.measured <= self.bound)
        return bool(self.measured >= self.bound)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (f"{tag}  {self.suite}.{self.name}  "
                f"measured={self.measured:.6g} {self.relation} bound={self.bound:.6g}{extra}")


# -- randomized inputs ----------------------------------------------------------


def _random_gaussian(rng: np.random.Generator, n: int) -> gaussian.GaussianMeasure:
    """Mean in [-1, 1]^n, covariance eigenvalues in [0.3, 3]."""
    mean = rng.uniform(-1.0, 1.0, n)
    eigs = rng.uniform(0.3, 3.0, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cov = (q * eigs) @ q.T
    return gaussian.GaussianMeasure(mean, 0.5 * (cov + cov.T))


def _random_joint_1x1(rng: np.random.Generator) -> gaussian.GaussianMeasure:
    """2x2 joint (d = K = 1) with eigenvalues in [0.3, 3] and |correlation| <= 0.9."""
    while True:
        g = _random_gaussian(rng, 2)
        corr = g.cov[0, 1] / math.sqrt(g.cov[0, 0] * g.cov[1, 1])
        if abs(corr) <= 0.9:
            return g


def _pair_box(g1: gaussian.GaussianMeasure,
              g2: gaussian.GaussianMeasure) -> tuple[np.ndarray, np.ndarray]:
    """A box covering both Gaussians out to 6.5 standard deviations."""
    los, his = [], []
    for g in (g1, g2):
        r = 6.5 * math.sqrt(float(np.linalg.eigvalsh(g.cov).max()))
        los.append(g.mean - r)
        his.append(g.mean + r)
    return np.minimum(*los), np.maximum(*his)


def _gridded(g: gaussian.GaussianMeasure, shape, blocks=None) -> density.GridDensity:
    """``g`` on the box centred at its mean with half-width |mean| + 6 max-stdev per axis."""
    half = np.abs(g.mean) + 6.0 * float(np.sqrt(np.linalg.eigvalsh(g.cov)[-1]))
    return density.from_gaussian(g, g.mean - half, g.mean + half, shape, blocks)


def _kl_quadrature(mu1: density.GridDensity, g1: gaussian.GaussianMeasure,
                   g2: gaussian.GaussianMeasure) -> float:
    """Quadrature of rho1 (log phi1 - log phi2) over mu1's grid."""
    mesh = np.ix_(*mu1.axes())
    diff = gaussian.log_density_at(g1, mesh) - gaussian.log_density_at(g2, mesh)
    return density.integrate(mu1.values * diff, mu1.box_lo, mu1.box_hi)


def _grid_kl_to_gaussian(mu: density.GridDensity, g: gaussian.GaussianMeasure) -> float:
    """Quadrature KL(mu || g) for a grid density against a Gaussian."""
    logphi = gaussian.log_density_at(g, np.ix_(*mu.axes()))
    vals = mu.values
    mask = vals > 0.0
    integrand = np.zeros_like(vals)
    integrand[mask] = vals[mask] * (np.log(vals[mask]) - logphi[mask])
    return density.integrate(integrand, mu.box_lo, mu.box_hi)


def _random_mixture(rng: np.random.Generator, lo, hi, shape) -> density.GridDensity:
    """Gaussian mixture gridded on a fixed box; 2 or 3 well-contained modes."""
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    n = lo.size
    k = int(rng.integers(2, 4))
    centers = rng.uniform(lo * 0.4, hi * 0.4, size=(k, n))
    stds = rng.uniform(0.4, 1.2, size=(k, n))
    weights = rng.dirichlet(np.ones(k))

    def pdf(x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[0])
        for i in range(k):
            z = (x - centers[i]) / stds[i]
            norm = np.prod(stds[i]) * (2.0 * np.pi) ** (n / 2.0)
            out += weights[i] * np.exp(-0.5 * np.sum(z * z, axis=1)) / norm
        return out

    return density.from_function(pdf, lo, hi, shape)


# -- gaussian suite -------------------------------------------------------------


def check_kl_zero_and_nonnegative(seed: int = 0) -> PropertyResult:
    """KL(mu, mu) = 0 and KL >= 0 on 100 random pairs of matched dimension."""
    rng = np.random.default_rng([seed, 1])
    worst_self, worst_cross = 0.0, np.inf
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a, b = _random_gaussian(rng, n), _random_gaussian(rng, n)
        worst_self = max(worst_self, abs(gaussian.kl_divergence(a, a)))
        worst_cross = min(worst_cross,
                          gaussian.kl_divergence(a, b), gaussian.kl_divergence(b, a))
    return PropertyResult("gaussian", "kl_zero_and_nonnegative",
                          min(worst_cross, -worst_self), -1e-12, ">=",
                          detail=f"min cross-KL {worst_cross:.3g}, max self-KL {worst_self:.3g}")


def _gaussian_pair_check(name: str, stream: int, seed: int, ratios, detail: str) -> PropertyResult:
    """Largest ``ratios(a, b, ga, gb, d_g(ga, gb))`` over 100 Gaussian pairs gridded on one box."""
    rng = np.random.default_rng([seed, stream])
    worst = 0.0
    for i in range(100):
        n = 1 if i % 2 == 0 else 2
        shape = (2048,) if n == 1 else (192, 192)
        a, b = _random_gaussian(rng, n), _random_gaussian(rng, n)
        lo, hi = _pair_box(a, b)
        ga, gb = (density.from_gaussian(g, lo, hi, shape) for g in (a, b))
        worst = max(worst, *ratios(a, b, ga, gb, density.dg_distance(ga, gb)))
    return PropertyResult("gaussian", name, worst, 1.0, detail=detail)


def check_pinsker(seed: int = 0) -> PropertyResult:
    """d_g^2 <= 2 (mu1[g^2] + mu2[g^2]) KL, quadrature d_g and KL, both KL directions."""
    def ratios(a, b, ga, gb, dg):
        cap = 2.0 * (gaussian.g2_moment(a) + gaussian.g2_moment(b))
        return [dg**2 / max(cap * kl, 1e-300)
                for kl in (_kl_quadrature(ga, a, b), _kl_quadrature(gb, b, a))]

    return _gaussian_pair_check("pinsker", 2, seed, ratios, "100 pairs, both directions")


def check_dg_bound_dominates(seed: int = 0) -> PropertyResult:
    """The closed-form Gaussian d_g bound dominates the quadrature distance."""
    def ratios(a, b, ga, gb, dg):
        return [dg / max(gaussian.dg_upper_bound(a, b), 1e-300)]

    return _gaussian_pair_check("dg_bound_dominates", 3, seed, ratios, "100 pairs, 1-D and 2-D")


def check_conditioning_matches_bayes(seed: int = 0) -> PropertyResult:
    """Closed-form conditioning matches the grid-Bayes oracle in both moments."""
    rng = np.random.default_rng([seed, 4])
    blocks = gaussian.BlockStructure(1, 1)
    worst = 0.0
    for _ in range(20):
        joint = _random_joint_1x1(rng)
        yd = rng.uniform(-2.0, 2.0, 1)
        exact = gaussian.condition(joint, blocks, yd)
        lo, hi = _pair_box(joint, joint)
        grid = density.from_gaussian(joint, lo, hi, (384, 384), blocks=blocks)
        mom = density.moments(operators.bayes(grid, yd))
        worst = max(worst, float(abs(mom.mean[0] - exact.mean[0])),
                    float(abs(mom.cov[0, 0] - exact.cov[0, 0])))
    return PropertyResult("gaussian", "conditioning_matches_bayes", worst, 5e-3,
                          detail="20 random joints, moment error")


def check_conditioning_spd(seed: int = 0) -> PropertyResult:
    """Conditioned covariances stay positive definite (Cholesky succeeds)."""
    rng = np.random.default_rng([seed, 5])
    min_eig = np.inf
    for _ in range(100):
        d, K = (1, 1) if rng.random() < 0.5 else (2, 1)
        joint = _random_gaussian(rng, d + K)
        blocks = gaussian.BlockStructure(d, K)
        out = gaussian.condition(joint, blocks, rng.uniform(-2.0, 2.0, K))
        gaussian.chol_spd(out.cov)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(out.cov).min()))
    return PropertyResult("gaussian", "conditioning_spd", min_eig, SPD_FLOOR, ">=",
                          detail="100 joints, min output eigenvalue")


# -- density suite --------------------------------------------------------------


def check_moment_difference_bounds(seed: int = 1) -> PropertyResult:
    """|M1 - M2| <= d_g/2 and ||C1 - C2|| <= (1 + |M1 + M2|/2) d_g on random pairs."""
    rng = np.random.default_rng([seed, 1])
    worst = -np.inf
    for i in range(100):
        if i % 5 == 4:
            lo, hi, shape = [-6.0, -6.0], [6.0, 6.0], (96, 96)
        else:
            lo, hi, shape = [-8.0], [8.0], (512,)
        mu, nu = (_random_mixture(rng, lo, hi, shape) for _ in range(2))
        dg = density.dg_distance(mu, nu)
        a, b = density.moments(mu), density.moments(nu)
        mean_excess = float(np.linalg.norm(a.mean - b.mean)) - 0.5 * dg
        factor = 1.0 + 0.5 * float(np.linalg.norm(a.mean + b.mean))
        cov_excess = float(np.linalg.norm(a.cov - b.cov, 2)) - factor * dg
        worst = max(worst, mean_excess, cov_excess)
    return PropertyResult("density", "moment_difference_bounds", worst, 1e-6,
                          detail="100 pairs, max excess over bound")


def check_metric_axioms(seed: int = 1) -> PropertyResult:
    """Symmetry, identity of indiscernibles, triangle inequality on a fixed grid."""
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(40):
        a, b, c = (_random_mixture(rng, [-8.0], [8.0], (512,)) for _ in range(3))
        worst = max(worst,
                    abs(density.dg_distance(a, b) - density.dg_distance(b, a)),
                    density.dg_distance(a, a),
                    density.dg_distance(a, c)
                    - density.dg_distance(a, b) - density.dg_distance(b, c))
    return PropertyResult("density", "metric_axioms", worst, 1e-12, detail="40 triples")


def check_projection_idempotent(seed: int = 1) -> PropertyResult:
    """Projecting the gridded projection reproduces the same Gaussian moments."""
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    for _ in range(25):
        mu = _random_mixture(rng, [-8.0], [8.0], (512,))
        g = density.gaussian_projection(mu)
        again = density.gaussian_projection(_gridded(g, (1024,)))
        worst = max(worst, float(np.abs(again.mean - g.mean).max()),
                    float(np.abs(again.cov - g.cov).max()))
    return PropertyResult("density", "projection_idempotent", worst, 1e-6,
                          detail="25 densities")


def check_kl_minimizer(seed: int = 1) -> PropertyResult:
    """No perturbed Gaussian beats the moment-matched projection in quadrature KL."""
    rng = np.random.default_rng([seed, 4])
    worst = np.inf
    for _ in range(20):
        mu = _random_mixture(rng, [-8.0], [8.0], (512,))
        g = density.gaussian_projection(mu)
        base = _grid_kl_to_gaussian(mu, g)
        for _ in range(20):
            dm = rng.uniform(-0.2, 0.2, g.dim) * np.sqrt(np.diag(g.cov))
            ds = 1.0 + rng.uniform(-0.15, 0.15)
            other = gaussian.GaussianMeasure(g.mean + dm, g.cov * ds)
            worst = min(worst, _grid_kl_to_gaussian(mu, other) - base)
    return PropertyResult("density", "kl_minimizer", worst, -1e-10, ">=",
                          detail="20x20 perturbations, min KL gap")


# -- operators suite ------------------------------------------------------------


def _bounded_workspace() -> tuple[model.ModelSpec, operators.OperatorWorkspace]:
    spec = model.bounded_model_1d()
    return spec, operators.OperatorWorkspace(spec, [-7.0], [7.0], (512,))


def _eighth_buffers(count: int, shape) -> np.ndarray:
    """``count`` buffers in one allocation, each for an eighth of a block of rows of ``shape``."""
    rows = density._blocks(shape[0], 8 * math.prod(shape[1:]))[0].stop
    return np.empty((count, rows) + tuple(shape[1:]))


def _row_blocks(mu: density.GridDensity, buffer: np.ndarray):
    """The values of ``mu`` an eighth of a block of rows at a time.

    A stored tensor gives views; a lifted joint writes q l of each slice of rows
    into ``buffer`` (from :func:`_eighth_buffers`), so no tensor is built and
    every slice of rows reuses the same memory.
    """
    for s in density._blocks(mu.shape[0], 8 * math.prod(mu.shape[1:])):
        yield density._block(mu, s, buffer)


def _mass(mu: density.GridDensity, buffer: np.ndarray) -> float:
    """``density.integrate`` of the values of ``mu``, read through ``buffer`` by :func:`_row_blocks`."""
    w = density.quad_weights(mu.box_lo, mu.box_hi, mu.shape)
    rows = np.concatenate([density._contract_trailing(v, w[1:]) for v in _row_blocks(mu, buffer)])
    return density._contract(rows, w[:1])


def _map_lipschitz(name: str, op, constant, stream: int, seed: int) -> PropertyResult:
    """Largest d_g(op mu, op nu) - L d_g(mu, nu), L = constant(spec), over 50 mixture pairs."""
    spec, ws = _bounded_workspace()
    rng = np.random.default_rng([seed, stream])
    L = constant(spec)
    worst = -np.inf
    for _ in range(50):
        mu, nu = (_random_mixture(rng, ws.state_lo, ws.state_hi, ws.state_shape)
                  for _ in range(2))
        lhs = density.dg_distance(op(mu, ws), op(nu, ws))
        worst = max(worst, lhs - L * density.dg_distance(mu, nu))
    return PropertyResult("operators", name, worst, 1e-3, detail=f"50 pairs, constant {L:.3f}")


def check_p_lipschitz(seed: int = 2) -> PropertyResult:
    """d_g(P mu, P nu) <= (1 + kappa_psi^2 + tr Sigma) d_g(mu, nu) + 1e-3."""
    return _map_lipschitz("p_lipschitz", operators.predict, filters.lipschitz_p, 1, seed)


def check_q_lipschitz(seed: int = 2) -> PropertyResult:
    """d_g(Q mu, Q nu) <= (1 + kappa_h^2 + tr Gamma) d_g(mu, nu) + 1e-3."""
    return _map_lipschitz("q_lipschitz", operators.lift, filters.lipschitz_q, 2, seed)


def check_pq_linear(seed: int = 2) -> PropertyResult:
    """P and Q commute with convex combinations on the raw tensors.

    The outputs are compared an eighth of a block of rows at a time, in three
    buffers of one allocation per map: alpha a + (1 - alpha) b, the difference
    to the combination's image and its absolute value are formed in place.
    """
    _, ws = _bounded_workspace()
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    for _ in range(20):
        mu, nu = (_random_mixture(rng, ws.state_lo, ws.state_hi, ws.state_shape)
                  for _ in range(2))
        alpha = float(rng.uniform(0.1, 0.9))
        combo = density.normalized(mu.box_lo, mu.box_hi,
                                   alpha * mu.values + (1 - alpha) * nu.values)
        for op in (operators.predict, operators.lift):
            images = [op(m, ws) for m in (combo, mu, nu)]
            buffers = _eighth_buffers(3, images[0].shape)
            error = peak = 0.0
            for mixed, a, b in zip(*map(_row_blocks, images, buffers)):
                split, diff = buffers[1][: len(a)], buffers[2][: len(b)]
                np.multiply(alpha, a, out=split)
                np.add(split, np.multiply(1 - alpha, b, out=diff), out=split)
                np.abs(np.subtract(mixed, split, out=diff), out=diff)
                error = max(error, float(diff.max()))
                peak = max(peak, float(split.max()))
            worst = max(worst, error / peak)
    return PropertyResult("operators", "pq_linear", worst, 1e-9,
                          detail="20 combinations, relative tensor error")


def check_transport_equals_bayes(seed: int = 2) -> PropertyResult:
    """Transport equals conditioning on Gaussian joints on a 512 x 512 grid."""
    rng = np.random.default_rng([seed, 4])
    blocks = gaussian.BlockStructure(1, 1)
    worst = 0.0
    for _ in range(50):
        joint = _random_joint_1x1(rng)
        yd = rng.uniform(-2.0, 2.0, 1)
        grid = _gridded(joint, (512, 512), blocks)
        worst = max(worst, density.dg_distance(operators.transport(grid, yd),
                                               operators.bayes(grid, yd)))
    return PropertyResult("operators", "transport_equals_bayes", worst, 5e-3,
                          detail="50 Gaussian joints")


def check_mass_conservation(seed: int = 2) -> PropertyResult:
    """Every operator output integrates to one within 1e-8."""
    _, ws = _bounded_workspace()
    rng = np.random.default_rng([seed, 5])
    buffer = _eighth_buffers(1, ws.joint_shape)[0]
    worst = 0.0
    for _ in range(10):
        mu = _random_mixture(rng, ws.state_lo, ws.state_hi, ws.state_shape)
        pred = operators.predict(mu, ws)
        joint = operators.lift(pred, ws)
        yd = rng.uniform(-1.0, 1.0, 1)
        for out in (pred, joint, operators.bayes(joint, yd), operators.transport(joint, yd)):
            worst = max(worst, abs(_mass(out, buffer) - 1.0))
    return PropertyResult("operators", "mass_conservation", worst, 1e-8,
                          detail="10 chains of P, Q, B, T")


def check_moment_envelopes(seed: int = 2) -> PropertyResult:
    """Predicted and lifted moments stay inside their closed-form envelopes."""
    spec, ws = _bounded_workspace()
    rng = np.random.default_rng([seed, 6])
    mean_p, cov_lo, cov_hi = operators.prediction_envelope(spec)
    mean_qp, eig_lo, cov_up = operators.lifted_envelope(spec)
    worst = -np.inf
    for _ in range(50):
        mu = _random_mixture(rng, ws.state_lo, ws.state_hi, ws.state_shape)
        pred = operators.predict(mu, ws)
        pm = density.moments(pred)
        worst = max(worst,
                    float(np.linalg.norm(pm.mean)) - mean_p,
                    float(np.linalg.eigvalsh(cov_lo - pm.cov).max()),
                    float(np.linalg.eigvalsh(pm.cov - cov_hi).max()))
        jm = density.moments(operators.lift(pred, ws))
        worst = max(worst,
                    float(np.linalg.norm(jm.mean)) - mean_qp,
                    eig_lo - float(np.linalg.eigvalsh(jm.cov).min()),
                    float(np.linalg.eigvalsh(jm.cov - cov_up).max()))
    return PropertyResult("operators", "moment_envelopes", worst, 1e-3,
                          detail="50 densities, max envelope excess")


# -- filters suite --------------------------------------------------------------


def check_linear_collapse(seed: int = 3) -> list[PropertyResult]:
    """All grid filter kinds reproduce the analytic Kalman law on a linear model.

    One run of the four kinds gives two results: the largest moment error and
    the largest weighted-TV distance to the Kalman law on the state grid.
    """
    spec = model.linear_model_1d()
    traj = filters.generate_data(spec, J=10, seed=seed)
    cfg = filters.FilterConfig(seed=seed)
    ws = filters.plan_workspace(spec, traj, cfg)
    runs = filters.run_filter(["true", "enkf_mf", "gpf_bg", "gpf_gt"], spec, traj, cfg, ws,
                              eps_kinds=())
    exact = filters.kalman_analytic(spec, traj)
    oracle = [ws.state_grid(g) for g in exact]
    worst_mom = worst_dg = 0.0
    for res in runs.values():
        for step, g in enumerate(exact):
            worst_mom = max(worst_mom,
                            float(np.abs(res.diagnostics["mean"][step] - g.mean).max()),
                            float(np.abs(res.diagnostics["cov"][step] - g.cov).max()))
            worst_dg = max(worst_dg, density.dg_distance(ws.state_grid(res.measures[step]),
                                                         oracle[step]))
    return [
        PropertyResult("filters", "linear_collapse_moments", worst_mom, 5e-3,
                       detail="4 kinds x 11 steps vs analytic Kalman"),
        PropertyResult("filters", "linear_collapse_dg", worst_dg, 1e-2,
                       detail="4 kinds x 11 steps, weighted-TV to Kalman"),
    ]


def check_linear_collapse_particles(seed: int = 3) -> PropertyResult:
    """The finite ensemble tracks the Kalman moments within Monte Carlo bands."""
    spec = model.linear_model_1d()
    traj = filters.generate_data(spec, J=10, seed=seed)
    res = filters.run_filter(["enkf_N"], spec, traj,
                             filters.FilterConfig(seed=seed, n_particles=4000))["enkf_N"]
    exact = filters.kalman_analytic(spec, traj)
    band = 6.0 / math.sqrt(4000.0)
    worst = 0.0
    for step, g in enumerate(exact):
        worst = max(worst,
                    float(np.abs(res.diagnostics["mean"][step] - g.mean).max()),
                    float(np.abs(res.diagnostics["cov"][step] - g.cov).max()))
    return PropertyResult("filters", "linear_collapse_particles", worst, band,
                          detail="N=4000, 6/sqrt(N) band")


def check_gpf_equivalence(seed: int = 3) -> PropertyResult:
    """Both forms of the Gaussian projected filter agree step by step."""
    spec = model.sweep_model(0.2)
    traj = filters.generate_data(spec, J=5, seed=seed + 8)
    runs = filters.run_filter(["gpf_bg", "gpf_gt"], spec, traj,
                              filters.FilterConfig(seed=seed), eps_kinds=())
    worst = max(runs["gpf_bg"].diagnostics["dg_vs_gpf_gt"])
    return PropertyResult("filters", "gpf_equivalence", worst, 5e-3,
                          detail="delta=0.2, J=5, per-step weighted TV")


#: The filter kinds the nonlinearity sweep runs at every delta.
SWEEP_KINDS = ("true", "enkf_mf", "gpf_bg")


def _sweep_row(delta: float, J: int, seed: int, config: filters.FilterConfig | None) -> dict:
    """One sweep point: (eps, filter errors) at ``delta`` on the data of ``seed``.

    The true filter, the mean-field EnKF, and the Gaussian projected filter
    run on a shared workspace and one data realization; eps is the largest
    per-step distance from the lifted prediction to its Gaussian projection
    along the true chain, the only chain whose eps is measured, and the
    errors are the largest per-step distances of each approximate filter to
    the true one. ``config`` sets the grids and the ensemble size; ``seed``,
    not the config's, seeds the data and the workspace's pilot ensemble.
    Module-level, so a process pool can pickle it.
    """
    spec = model.sweep_model(float(delta))
    traj = filters.generate_data(spec, J=J, seed=seed)
    runs = filters.run_filter(list(SWEEP_KINDS), spec, traj,
                              replace(config or filters.FilterConfig(), seed=seed),
                              eps_kinds=("true",))
    eps = max(e for e in runs["true"].diagnostics["eps"] if e is not None)
    return {
        "delta": float(delta),
        "eps_measured": float(eps),
        "err_enkf": float(max(runs["enkf_mf"].diagnostics["dg_vs_true"])),
        "err_gpf": float(max(runs["gpf_bg"].diagnostics["dg_vs_true"])),
    }


def sweep_rows(points, J: int, config: filters.FilterConfig | None = None):
    """Yield the row of each (delta, seed) point, in point order.

    The points run on min(#points, usable CPUs) worker processes; with one,
    they run in the calling process: no pool starts, and the pool's modules,
    imported here when a pool first starts, never load. If the pool cannot
    start or breaks (``OSError``, ``BrokenProcessPool``), the points not yet
    yielded run in the calling process. A point's own exception, such as a
    ``FilterStepError``, propagates unchanged.
    """
    points = list(points)
    # the CPUs this process may run on: cpu_count ignores affinity and cpusets
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(points), cpus)
    done = 0
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                deltas, seeds = zip(*points)
                for row in pool.map(_sweep_row, deltas, repeat(J), seeds, repeat(config)):
                    yield row
                    done += 1
        except (OSError, BrokenProcessPool):
            pass
    for delta, seed in points[done:]:
        yield _sweep_row(delta, J, seed, config)


def measure_sweep(deltas=model.SWEEP_DELTAS, J: int = 5, seed: int = 3,
                  config: filters.FilterConfig | None = None) -> list[dict]:
    """Run the nonlinearity sweep on the data of ``seed``: one row per delta (see ``_sweep_row``)."""
    return list(sweep_rows([(delta, seed) for delta in deltas], J, config))


#: Largest decrease of a filter error between sweep rows that still counts as monotone.
MONOTONE_SLACK = 1e-9


def _error_increments(rows: list[dict]) -> dict[str, float]:
    """Smallest step of each filter error between sweep rows ordered by eps (0 for one row)."""
    rows_sorted = sorted(rows, key=lambda r: r["eps_measured"])
    return {key: min((b[key] - a[key] for a, b in zip(rows_sorted, rows_sorted[1:])),
                     default=0.0)
            for key in ("err_enkf", "err_gpf")}


def sweep_checks(rows: list[dict]) -> dict:
    """Whether each filter error grows with eps along the sweep, and the largest err/eps."""
    checks = {f"monotone_{key}": inc >= -MONOTONE_SLACK
              for key, inc in _error_increments(rows).items()}
    checks["max_err_over_eps"] = max(max(r["err_enkf"], r["err_gpf"]) / r["eps_measured"]
                                     for r in rows)
    return checks


def check_eps_scaling(seed: int = 3) -> list[PropertyResult]:
    """Filter errors vanish with eps at the Gaussian end and grow monotonically.

    One table runs the default sweep on the 8 data realizations ``seed`` ...
    ``seed + 7``. The first three results read the sweep at ``seed``; the
    last, ``sweep_monotone_seeds``, the smallest error increment over all 8.
    """
    seeds = range(seed, seed + 8)
    n = len(model.SWEEP_DELTAS)
    table = list(sweep_rows([(d, s) for s in seeds for d in model.SWEEP_DELTAS], J=5))
    sweeps = [table[i:i + n] for i in range(0, len(table), n)]
    rows = sweeps[0]
    origin = max(rows[0]["eps_measured"], rows[0]["err_enkf"], rows[0]["err_gpf"])
    eps = sorted(r["eps_measured"] for r in rows)
    ratio = sweep_checks(rows)["max_err_over_eps"]
    monotone = min(_error_increments(rows).values())
    worst = min(min(_error_increments(sweep).values()) for sweep in sweeps)
    return [
        PropertyResult("filters", "eps_scaling_origin", origin, 2e-2,
                       detail="eps and both errors at delta=0"),
        PropertyResult("filters", "eps_scaling_monotone", monotone, -MONOTONE_SLACK, ">=",
                       detail=f"min error increment along eps={['%.3g' % e for e in eps]}"),
        # a max of nonnegative quotients is <= the largest float exactly when it is finite
        PropertyResult("filters", "eps_error_ratio", ratio, sys.float_info.max,
                       detail="max err/eps across sweep (reported, bounded only by finiteness)"),
        PropertyResult("filters", "sweep_monotone_seeds", worst, -MONOTONE_SLACK, ">=",
                       detail=f"min error increment along eps over seeds "
                              f"{seeds.start}-{seeds.stop - 1}"),
    ]


def check_particle_convergence(seed: int = 3) -> PropertyResult:
    """Moment error of the finite-N EnKF decays like N^(-1/2) toward the mean field."""
    spec = model.sweep_model(0.2)
    traj = filters.generate_data(spec, J=5, seed=seed + 4)
    ref = filters.run_filter(["enkf_mf"], spec, traj, filters.FilterConfig(seed=seed),
                             eps_kinds=())["enkf_mf"]
    sizes = (100, 1000, 10000)
    avg_err = []
    for n in sizes:
        errs = []
        for rep in range(20):
            rng = np.random.default_rng([seed, n, rep])
            ens = filters.Ensemble(gaussian.sample(spec.initial_law(), rng, n))
            err = 0.0
            for j in range(traj.J):
                ens = filters.step_enkf_particles(ens, spec, traj.data[j], rng)
                m, c = ens.moments()
                err += float(np.abs(m - ref.diagnostics["mean"][j + 1]).max()
                             + np.abs(c - ref.diagnostics["cov"][j + 1]).max())
            errs.append(err / traj.J)
        avg_err.append(np.mean(errs))
    slope = float(np.polyfit(np.log(sizes), np.log(avg_err), 1)[0])
    return PropertyResult("filters", "particle_convergence", abs(slope + 0.5), 0.2,
                          detail=f"|slope + 0.5|, log-log slope {slope:.6g} over N={sizes},"
                                 " 20 replicates")


def check_data_inside_axis(seed: int = 3) -> PropertyResult:
    """Every datum lies inside the planned data axis with the 2-cell margin ``bayes`` needs."""
    rng = np.random.default_rng([seed, 9])
    worst = np.inf
    for _ in range(10):
        spec = model.sweep_model(float(rng.uniform(0.0, 0.3)))
        run_seed = int(rng.integers(0, 2**31))
        traj = filters.generate_data(spec, J=int(rng.integers(1, 8)), seed=run_seed)
        ya = filters.plan_workspace(spec, traj, filters.FilterConfig(seed=run_seed)).y_axis
        cell = (ya[-1] - ya[0]) / (ya.size - 1)
        y = traj.data[:, 0]
        worst = min(worst, float(np.minimum(y - ya[0], ya[-1] - y).min() / cell))
    return PropertyResult("filters", "data_inside_axis", worst, 2.0, ">=",
                          detail="10 trajectories, fewest cells between a datum and the axis edge")


# -- model suite ----------------------------------------------------------------


def check_config_roundtrip(seed: int = 4) -> PropertyResult:
    """ModelSpec -> config dict -> ModelSpec is the identity (same fingerprint)."""
    specs = [model.linear_model_1d(), model.bounded_model_1d(),
             model.sweep_model(0.1),
             model.ModelSpec(d=2, K=1,
                             psi=model.MapSpec("linear", {"matrix": [[0.8, 0.1], [0.0, 0.7]]}),
                             h=model.MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
                             Sigma=0.2 * np.eye(2), Gamma=[[0.3]],
                             m0=np.zeros(2), S0=np.eye(2))]
    mism = 0
    for spec in specs:
        back = model.from_config(model.to_config(spec))
        if model.fingerprint(back) != model.fingerprint(spec):
            mism += 1
    return PropertyResult("model", "config_roundtrip", float(mism), 0.0,
                          detail=f"{len(specs)} models, fingerprint mismatches")


def validate_assumptions(spec: model.ModelSpec) -> list[PropertyResult]:
    """Probe the standing assumptions: SPD noises, bounded maps, Lipschitz observation.

    Sup-norm bounds are probed on a fixed mesh of about 10^4 points
    (round(10^4 ** (1/d)) per axis) over [-25, 25]^d, the Lipschitz bound
    by finite differences along each axis with 5% slack. A map without a
    certificate gets a NaN bound and fails: an unbounded family (a linear
    map) makes a model usable for exactness tests only.
    """
    out = [PropertyResult("model", name, float(np.linalg.eigvalsh(cov)[0]), SPD_FLOOR, ">=",
                          detail="smallest eigenvalue")
           for name, cov in (("sigma_spd", spec.Sigma), ("gamma_spd", spec.Gamma),
                             ("s0_spd", spec.S0))]

    per_axis = round(10_000 ** (1 / spec.d))
    half = np.full(spec.d, 25.0)
    pts = density.grid_points(-half, half, (per_axis,) * spec.d)
    for name, handle, apply_fn in (("psi_bounded", spec.psi_handle, spec.psi_apply),
                                   ("h_bounded", spec.h_handle, spec.h_apply)):
        sup = float(np.linalg.norm(apply_fn(pts), axis=1).max())
        if handle.sup_bound is None:
            out.append(PropertyResult("model", name, sup, math.nan,
                                      detail=f"{handle.family} family is unbounded"))
        else:
            out.append(PropertyResult("model", name, sup, handle.sup_bound * (1.0 + 1e-12)))

    step = 2.0 * 25.0 / 10_000
    slopes = []
    for a in range(spec.d):
        shifted = pts.copy()
        shifted[:, a] += step
        diff = np.linalg.norm(spec.h_apply(shifted) - spec.h_apply(pts), axis=1)
        slopes.append(diff.max() / step)
    ell = spec.h_lipschitz()
    out.append(PropertyResult(
        "model", "h_lipschitz", float(max(slopes)),
        math.nan if ell is None else ell * (1.0 + 0.05),
        detail="no Lipschitz certificate" if ell is None else "certificate plus 5% slack"))
    return out


def check_probe_reproducible(seed: int = 4) -> PropertyResult:
    """Assumption probes are deterministic: two runs give identical values."""
    worst = 0.0
    for spec in (model.bounded_model_1d(), model.sweep_model(0.2)):
        for r1, r2 in zip(validate_assumptions(spec), validate_assumptions(spec)):
            worst = max(worst, abs(r1.measured - r2.measured))
            if r1.passed != r2.passed:
                worst = max(worst, 1.0)
    return PropertyResult("model", "probe_reproducible", worst, 0.0,
                          detail="two probe runs per model")


def check_assumptions_hold(seed: int = 4) -> PropertyResult:
    """Bounded scenario models pass every probe; a linear model fails the boundedness probes."""
    wrong = 0
    notes = []
    for spec in (model.bounded_model_1d(), model.sweep_model(0.0), model.sweep_model(0.3)):
        ok = all(r.passed for r in validate_assumptions(spec))
        wrong += int(not ok)
        notes.append("pass" if ok else "fail")
    flagged = any(not r.passed for r in validate_assumptions(model.linear_model_1d())
                  if r.name.endswith("_bounded"))
    wrong += int(not flagged)
    notes.append("linear-mode" if flagged else "linear-mode-missing")
    return PropertyResult("model", "assumptions_hold", float(wrong), 0.0,
                          detail=", ".join(notes))


# -- suite registry -------------------------------------------------------------

SUITES = {
    "gaussian": (check_kl_zero_and_nonnegative, check_pinsker, check_dg_bound_dominates,
                 check_conditioning_matches_bayes, check_conditioning_spd),
    "density": (check_moment_difference_bounds, check_metric_axioms,
                check_projection_idempotent, check_kl_minimizer),
    "operators": (check_p_lipschitz, check_q_lipschitz, check_pq_linear,
                  check_transport_equals_bayes, check_mass_conservation,
                  check_moment_envelopes),
    "filters": (check_linear_collapse, check_linear_collapse_particles, check_gpf_equivalence,
                check_eps_scaling, check_particle_convergence, check_data_inside_axis),
    "model": (check_config_roundtrip, check_probe_reproducible, check_assumptions_hold),
}


def run_suites(names, seed: int = 0) -> list[PropertyResult]:
    """Run the named suites; a raising check becomes a failed result, not a crash."""
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; known: {sorted(SUITES)}")
    results: list[PropertyResult] = []
    for suite_name in names:
        for check in SUITES[suite_name]:
            start = time.perf_counter()
            try:
                out = check(seed)
                out = list(out) if isinstance(out, list) else [out]
            except Exception as exc:  # noqa: BLE001 - failures are report contents
                out = [PropertyResult(suite_name, check.__name__.removeprefix("check_"),
                                      math.nan, math.nan, detail=f"error: {exc!r}")]
            elapsed = time.perf_counter() - start
            results.extend(replace(r, seconds=elapsed / len(out)) for r in out)
    return results
