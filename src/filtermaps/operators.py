"""Measure maps on grid densities: prediction, lifting, conditioning, transport.

The four maps act on ``GridDensity`` values through an ``OperatorWorkspace``
that pins the state grid, the data axis, and the quadrature kernels for a
specific model:

- ``predict`` convolves with the Markov kernel of the stochastic dynamics,
- ``lift`` extends a state density to the joint state x data space,
- ``bayes`` conditions a joint on an observed datum (slice + renormalize),
- ``transport`` pushes a joint through the affine Kalman map
  u + C_uy C_yy^-1 (y_dagger - y), one per-axis linear shift for d in {1, 2}.

Grid operators support state dimension d in {1, 2} with a scalar data axis
(K = 1); the joint therefore has at most 3 axes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from .density import (
    CoverageError,
    GridDensity,
    GridMismatchError,
    from_gaussian,
    grid_points,
    integrate,
    moments,
    normalized,
    quad_weights,
    weight_tensor,
)
from .gaussian import Array, BlockStructure, GaussianMeasure, chol_spd
from .model import ModelSpec, fingerprint

#: Largest number of Markov-kernel entries held in memory. With a diagonal Sigma
#: the per-axis factors (sum(state_shape) * m entries for m state points) are
#: cached when they fit; otherwise kernel rows are streamed in chunks of this size.
KERNEL_CACHE_MAX = 2**24

#: Fraction of mass that may leave the state box in ``transport`` before it is an error.
TRANSPORT_COVERAGE_MIN = 0.9


def default_resolution(d: int) -> tuple[tuple[int, ...], int]:
    """Default ``(state_shape, y_points)`` of a workspace for state dimension ``d``."""
    return ((1024,), 512) if d == 1 else ((96,) * d, 96)


class WorkspaceMismatchError(ValueError):
    """Workspace kernel caches were built for a different model or grid."""


class OutOfDomainError(ValueError):
    """The observed datum lies outside the data axis, or too close to its edge."""


class DegenerateEvidenceError(ValueError):
    """The joint density carries no numerically representable mass at the datum."""


class OperatorWorkspace:
    """Precomputed grids and kernels binding a model to a state box and data axis.

    Parameters
    ----------
    model : ModelSpec with K = 1 and d in {1, 2}
    state_lo, state_hi : ndarray, shape (d,)
    state_shape : tuple of int
    y_lo, y_hi : float
        Data-axis bounds.
    y_points : int
        Points on the data axis.

    The prediction kernel N(u_i; Psi(v_j), Sigma) w_j factors exactly per
    state axis when Sigma is diagonal:
    K[(i_1, ..., i_d), j] = prod_a N(u_a,i_a; Psi_a(v_j), Sigma_aa) w_j.
    Those factors, one (state_shape[a], m) matrix per axis, are cached when
    they fit ``KERNEL_CACHE_MAX`` entries in total; a non-diagonal Sigma or
    larger factors stream the full kernel in row chunks instead. The
    likelihood tensor N(y; H(u), Gamma) is always cached.
    """

    def __init__(self, model: ModelSpec, state_lo, state_hi, state_shape,
                 y_lo: float, y_hi: float, y_points: int):
        if model.K != 1:
            raise ValueError("grid operators support K = 1 only")
        if model.d not in (1, 2):
            raise ValueError("grid operators support d in {1, 2} only")
        self.model_fingerprint = fingerprint(model)
        self.d = model.d
        self.blocks = BlockStructure(model.d, 1)
        self.state_lo = np.asarray(state_lo, dtype=float).reshape(-1)
        self.state_hi = np.asarray(state_hi, dtype=float).reshape(-1)
        self.state_shape = tuple(int(s) for s in state_shape)
        self.joint_lo = np.concatenate([self.state_lo, [float(y_lo)]])
        self.joint_hi = np.concatenate([self.state_hi, [float(y_hi)]])
        self.joint_shape = self.state_shape + (int(y_points),)
        self.y_axis = np.linspace(float(y_lo), float(y_hi), int(y_points))

        self.state_axes = [np.linspace(self.state_lo[a], self.state_hi[a], self.state_shape[a])
                           for a in range(self.d)]
        self._mesh = grid_points(self.state_lo, self.state_hi, self.state_shape)
        self._state_w = weight_tensor(self.state_lo, self.state_hi, self.state_shape).reshape(-1)
        self._psi_mesh = np.asarray(model.psi_apply(self._mesh), dtype=float)
        self._sigma_chol = chol_spd(model.Sigma)
        norm = (2.0 * np.pi) ** (-0.5 * self.d) / np.prod(np.diag(self._sigma_chol))
        self._kernel_norm = float(norm)
        sigma = model.Sigma
        self._factors = None
        if (np.array_equal(sigma, np.diag(np.diag(sigma)))
                and sum(self.state_shape) * self._mesh.shape[0] <= KERNEL_CACHE_MAX):
            self._factors = [self._axis_factor(a, sigma[a, a]) for a in range(self.d)]
            # the first factor also carries the normalization and the source weights w_j
            self._factors[0] *= self._kernel_norm * self._state_w

        h_mesh = np.asarray(model.h_apply(self._mesh), dtype=float).reshape(-1)
        gamma = float(model.Gamma[0, 0])
        like = np.exp(-0.5 * (self.y_axis[None, :] - h_mesh[:, None]) ** 2 / gamma)
        like /= np.sqrt(2.0 * np.pi * gamma)
        self._likelihood = like.reshape(self.state_shape + (int(y_points),))

    def _axis_factor(self, a: int, var: float) -> Array:
        """exp(-(u_a,i - Psi_a(v_j))^2 / (2 var)) over output points i, source points j.

        Built in place in one buffer: chained full-size temporaries fragment the
        heap when many workspaces are built in one process.
        """
        f = np.subtract.outer(self.state_axes[a], self._psi_mesh[:, a])
        f *= f
        f *= -0.5 / var
        np.exp(f, out=f)
        return f

    def _kernel_rows(self, rows: Array) -> Array:
        """Markov-kernel rows N(u_i; Psi(v_j), Sigma) for the output points ``rows``."""
        diff = self._mesh[rows][:, None, :] - self._psi_mesh[None, :, :]
        flat = diff.reshape(-1, self.d)
        z = solve_triangular(self._sigma_chol, flat.T, lower=True)
        q = np.sum(z * z, axis=0).reshape(len(rows), -1)
        return self._kernel_norm * np.exp(-0.5 * q)

    def state_matches(self, mu: GridDensity) -> bool:
        return (
            mu.shape == self.state_shape
            and np.array_equal(mu.box_lo, self.state_lo)
            and np.array_equal(mu.box_hi, self.state_hi)
        )

    def state_grid(self, measure) -> GridDensity:
        """A measure on the state grid: a Gaussian is evaluated there, a grid density passes."""
        if isinstance(measure, GaussianMeasure):
            return from_gaussian(measure, self.state_lo, self.state_hi, self.state_shape)
        if isinstance(measure, GridDensity) and self.state_matches(measure):
            return measure
        raise GridMismatchError("measure is neither a Gaussian nor a density on the state grid")

    def state_density(self, values: Array, context: str) -> GridDensity:
        return normalized(self.state_lo, self.state_hi, values, context=context)

    def apply_markov(self, state_values: Array) -> Array:
        """Quadrature image of the Markov kernel on a state-value tensor (unnormalized)."""
        flat = state_values.reshape(-1)
        if self._factors is None:
            weighted = self._state_w * flat
            m = flat.size
            chunk = max(1, KERNEL_CACHE_MAX // m)
            out = np.empty(m)
            for start in range(0, m, chunk):
                rows = np.arange(start, min(start + chunk, m))
                out[rows] = self._kernel_rows(rows) @ weighted
        elif self.d == 1:
            out = self._factors[0] @ flat
        else:
            out = (self._factors[0] * flat) @ self._factors[1].T
        return out.reshape(self.state_shape)


def default_workspace(model: ModelSpec, state_lo, state_hi, state_shape=None,
                      y_lo=None, y_hi=None, y_points=None) -> OperatorWorkspace:
    """Build a workspace with default resolutions and a data axis sized from model bounds.

    The data axis defaults to half-width kappa_H + 6 sqrt(2 kappa_H^2 + Gamma)
    around zero (the a priori envelope of the lifted law); bounded observation
    maps are required unless explicit y bounds are passed.
    """
    default_shape, default_points = default_resolution(model.d)
    if state_shape is None:
        state_shape = default_shape
    if y_points is None:
        y_points = default_points
    if y_lo is None or y_hi is None:
        kappa_h = model.h_bound()
        if kappa_h is None:
            raise ValueError("observation map is unbounded; pass explicit y_lo/y_hi")
        half = kappa_h + 6.0 * np.sqrt(2.0 * kappa_h**2 + float(model.Gamma[0, 0]))
        y_lo, y_hi = -half, half
    return OperatorWorkspace(model, state_lo, state_hi, state_shape, y_lo, y_hi, y_points)


def _check_model(ws: OperatorWorkspace, model: ModelSpec) -> None:
    if ws.model_fingerprint != fingerprint(model):
        raise WorkspaceMismatchError("workspace kernels were built for a different model")


def predict(mu: GridDensity, model: ModelSpec, ws: OperatorWorkspace) -> GridDensity:
    """Prediction map: push a state density through the stochastic dynamics.

    Computes (P mu)(u) = (2 pi)^(-d/2) det(Sigma)^(-1/2)
    integral exp(-1/2 |u - Psi(v)|^2_Sigma) mu(v) dv by quadrature and
    renormalizes.
    """
    _check_model(ws, model)
    if not ws.state_matches(mu):
        raise GridMismatchError("input density does not live on the workspace state grid")
    return ws.state_density(ws.apply_markov(mu.values), context="predict")


def lift(mu: GridDensity, model: ModelSpec, ws: OperatorWorkspace) -> GridDensity:
    """Lifting map: extend a state density to the joint state x data space.

    Computes (Q mu)(u, y) = N(y; H(u), Gamma) mu(u) on the workspace's joint
    grid; the result carries a BlockStructure with the trailing data axis.
    """
    _check_model(ws, model)
    if not ws.state_matches(mu):
        raise GridMismatchError("input density does not live on the workspace state grid")
    joint = mu.values[..., None] * ws._likelihood
    return normalized(ws.joint_lo, ws.joint_hi, joint, blocks=ws.blocks, context="lift")


def _slice_at_datum(pi: GridDensity, y_dagger) -> Array:
    """Piecewise-linear slice of a joint at the datum along the trailing data axis."""
    if pi.blocks is None or pi.blocks.K != 1:
        raise ValueError("grid conditioning requires a joint with a scalar data axis")
    y = float(np.asarray(y_dagger, dtype=float).reshape(-1)[0])
    ya = pi.axis(pi.ndim - 1)
    h = pi.spacing(pi.ndim - 1)
    if y < ya[0] + 2.0 * h or y > ya[-1] - 2.0 * h:
        raise OutOfDomainError(
            f"datum {y:.6g} is not inside the data axis [{ya[0]:.6g}, {ya[-1]:.6g}] "
            "with a 2-cell margin"
        )
    t = min(int(np.searchsorted(ya, y)) - 1, ya.size - 2)
    t = max(t, 0)
    theta = (y - ya[t]) / (ya[t + 1] - ya[t])
    return (1.0 - theta) * pi.values[..., t] + theta * pi.values[..., t + 1]


def bayes(joint: GridDensity, y_dagger) -> GridDensity:
    """Conditioning map: slice the joint at the observed datum and renormalize.

    The datum must lie inside the data axis with a margin of two cells; a
    slice with no representable mass raises :class:`DegenerateEvidenceError`.
    """
    slc = _slice_at_datum(joint, y_dagger)
    d = joint.blocks.d
    lo, hi = joint.box_lo[:d], joint.box_hi[:d]
    mass = integrate(slc, lo, hi)
    if mass < 1e-300:
        raise DegenerateEvidenceError(f"joint density carries no mass at datum {y_dagger}")
    return normalized(lo, hi, slc, expect_unit_mass=False, context="bayes")


def kalman_gain(joint: GridDensity) -> Array:
    """Gain A = C_uy C_yy^-1 of a joint density, from its quadrature moments."""
    if joint.blocks is None:
        raise ValueError("transport requires a joint density with a BlockStructure")
    return joint.blocks.gain(moments(joint).cov)


def _shift_axis(a: Array, axis: int, t: float) -> Array:
    """``a`` resampled at index i - t along ``axis`` by linear interpolation.

    A sample whose position falls off the grid is zero; no value is
    interpolated between the edge and the outside. With t = k + f (k integer,
    0 <= f < 1), output i blends input i - k with weight 1 - f and input
    i - k - 1 with weight f, so the integer part is a slice and the
    fractional part one blend.
    """
    n = a.shape[axis]
    k = math.floor(t)
    f = t - k
    src = a.swapaxes(0, axis)
    out = np.zeros_like(a)
    dst = out.swapaxes(0, axis)
    # outputs whose neighbours i - k (and i - k - 1 when f > 0) are both on the grid
    first, stop = max(k + 1 if f > 0.0 else k, 0), min(n + k, n)
    if first < stop:
        dst[first:stop] = (1.0 - f) * src[first - k:stop - k]
        if f > 0.0:
            dst[first:stop] += f * src[first - k - 1:stop - k - 1]
    return out


def transport(joint: GridDensity, y_dagger) -> GridDensity:
    """Kalman transport map: push the joint through (u, y) -> u + A (y_dagger - y).

    Realized by the change-of-variables integral
    (T pi)(v) = integral pi(v - A (y_dagger - y), y) dy: for each data point
    the state plane is shifted by A (y_dagger - y) with one per-axis linear
    shift, the same code for d in {1, 2}, and points shifted in from outside
    the box are zero. More than 10% of the mass leaving the state box raises
    :class:`CoverageError`; the output mean equals M_u + A (y_dagger - M_y)
    up to grid error.
    """
    if joint.blocks is None or joint.blocks.K != 1:
        raise ValueError("grid transport requires a joint with a scalar data axis")
    y = float(np.asarray(y_dagger, dtype=float).reshape(-1)[0])
    gain = kalman_gain(joint)[:, 0]
    d = joint.blocks.d
    lo, hi = joint.box_lo[:d], joint.box_hi[:d]
    ya = joint.axis(joint.ndim - 1)
    wy = quad_weights(joint.box_lo[-1:], joint.box_hi[-1:], (ya.size,))[0]
    spacings = [joint.spacing(a) for a in range(d)]
    out = np.zeros(joint.shape[:d])
    for j in range(ya.size):
        plane = joint.values[..., j]
        for a in range(d):
            plane = _shift_axis(plane, a, gain[a] * (y - ya[j]) / spacings[a])
        out += wy[j] * plane
    mass = integrate(out, lo, hi)
    if mass < TRANSPORT_COVERAGE_MIN:
        raise CoverageError(
            f"transport image escapes the state box: only {mass:.4f} of the mass remains"
        )
    return normalized(lo, hi, out, context="transport")


def _bounded_constants(model: ModelSpec) -> tuple[float, float]:
    kp, kh = model.psi_bound(), model.h_bound()
    if kp is None or kh is None:
        raise ValueError("moment envelopes require finite sup bounds on psi and h")
    return float(kp), float(kh)


def prediction_envelope(model: ModelSpec) -> tuple[float, Array, Array]:
    """Envelope of the predicted moments for a bounded model.

    Returns ``(mean_bound, cov_lower, cov_upper)``: the predicted mean
    satisfies |mean| <= kappa_psi and the predicted covariance is squeezed
    between Sigma and kappa_psi^2 I + Sigma in the positive-semidefinite
    order, up to grid tolerance.
    """
    kp, _ = _bounded_constants(model)
    return kp, model.Sigma.copy(), kp**2 * np.eye(model.d) + model.Sigma


def lifted_envelope(model: ModelSpec) -> tuple[float, float, Array]:
    """Envelope of the lifted-prediction moments for a bounded model.

    Returns ``(mean_bound, eig_lower, cov_upper)``: the joint mean satisfies
    |mean| <= sqrt(kappa_psi^2 + kappa_h^2); every eigenvalue of the joint
    covariance is at least min{gamma sigma / (2 kappa_h^2 + gamma), gamma/2}
    with sigma, gamma the smallest eigenvalues of the noise covariances; and
    the joint covariance is dominated by the block-diagonal matrix
    diag(2 kappa_psi^2 I + 2 Sigma, 2 kappa_h^2 I + Gamma).
    """
    kp, kh = _bounded_constants(model)
    sig, gam = model.sigma_floor(), model.gamma_floor()
    eig_lower = min(gam * sig / (2.0 * kh**2 + gam), gam / 2.0)
    n = model.d + model.K
    upper = np.zeros((n, n))
    upper[: model.d, : model.d] = 2.0 * kp**2 * np.eye(model.d) + 2.0 * model.Sigma
    upper[model.d :, model.d :] = 2.0 * kh**2 * np.eye(model.K) + model.Gamma
    return float(np.sqrt(kp**2 + kh**2)), float(eig_lower), upper
