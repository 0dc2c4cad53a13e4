"""Measure maps on grid densities: prediction, lifting, conditioning, transport.

The four maps act on ``GridDensity`` values through an ``OperatorWorkspace``
that pins the state grid, the data axis, and the quadrature kernels for a
specific model; the maps read the model only through it:

- ``predict`` convolves with the Markov kernel of the stochastic dynamics,
- ``lift`` extends a state density to the joint state x data space, kept
  as its factors: the state density over its mass and the workspace's
  likelihood, so no joint-sized array is made,
- ``bayes`` conditions a joint on an observed datum (slice + renormalize),
- ``transport`` pushes a joint through the affine Kalman map
  u + C_uy C_yy^-1 (y_dagger - y) by linear interpolation: every data-axis
  plane is blended by its fractional cell shift, a block of planes at once,
  then added into the output at its whole-cell shift; one code path for
  d in {1, 2}.

Grid operators support state dimension d in {1, 2} with a scalar data axis
(K = 1); the joint therefore has at most 3 axes.
"""

from __future__ import annotations

import math

import numpy as np

from .density import (
    CoverageError,
    GridDensity,
    GridMismatchError,
    MIN_POINTS,
    _block,
    _blocks,
    _gaussian_at,
    _lifted,
    from_gaussian,
    grid_points,
    integrate,
    moments,
    normalized,
    quad_weights,
    weight_tensor,
)
from .gaussian import Array, BlockStructure, GaussianMeasure
from .model import ModelSpec, fingerprint

#: Largest number of Markov-kernel entries held in memory. With a diagonal Sigma
#: the per-axis factors are cached when their entries fit: sum(n_a^2) for a
#: componentwise Psi, sum(n_a) * m for m state points otherwise; else kernel
#: rows are streamed in chunks of this size.
KERNEL_CACHE_MAX = 2**24

#: Fraction of mass that may leave the state box in ``transport`` before it is an error.
TRANSPORT_COVERAGE_MIN = 0.9


def default_resolution(d: int) -> tuple[tuple[int, ...], int]:
    """Default ``(state_shape, y_points)`` of a workspace for state dimension ``d``."""
    return ((1024,), 512) if d == 1 else ((96,) * d, 96)


class WorkspaceMismatchError(ValueError):
    """A workspace was built for a different model than the one it is used with."""


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

    Each of ``state_lo``, ``state_hi`` and ``state_shape`` needs one entry per
    state axis, the boxes need lo < hi, and every axis needs at least
    ``density.MIN_POINTS`` points; a violation raises ``ValueError`` naming
    the field.

    The prediction kernel N(u_i; Psi(v_j), Sigma) w_j and the always cached
    likelihood N(y; H(u), Gamma) are ``density._gaussian_at`` of the noise
    Gaussians, whose covariances are factored once, when they are validated.
    The likelihood is N(H(u_i) - y_k; 0, Gamma), a joint-sized table that
    :func:`_gaussian_table` builds in its one buffer. It is read-only: every
    lifted joint shares it as its data factor (``lift``). Beside it the
    workspace keeps R0, R1 and R2, its data-axis trapezoid sums against w_y,
    w_y y and w_y y^2, one value per state point, from which a lifted joint's
    mass and moments follow. With a diagonal Sigma the kernel factors
    exactly per axis:
    K[(i_1, ..., i_d), j] = prod_a N(u_a,i_a; Psi_a(v_j), Sigma_aa) w_j.
    When Psi is componentwise (``MapHandle.componentwise``), Psi_a(v_j) reads
    v_a,j_a alone and so does the weight factor w_a,j_a, so the kernel is a
    tensor product of one (n_a, n_a) matrix per axis,
    F_a[i, j] = N(u_a,i; Psi_a(v_a,j), Sigma_aa) w_a,j, and a 2-D prediction
    is F_0 T F_1^T on the value tensor T. Any other Psi keeps one (n_a, m)
    factor per axis against all m source points, with w_j on the first. The
    factors are tables of N(0, Sigma_aa) at u_a,i - Psi_a(v_j), each built in
    one buffer by :func:`_gaussian_table`, and cached when they fit
    ``KERNEL_CACHE_MAX`` entries in total. A non-diagonal Sigma or larger
    factors stream the full kernel in row chunks instead.

    Matrix-vector products over grid points (the 1-D factor, the streamed
    rows) and the 2-D tensor-product factors contract with ``np.einsum``,
    which does not call BLAS. A threaded BLAS product is faster in a lone
    process, but after each call its helper threads spin on the cores that
    other worker processes need: with one core busy elsewhere, a 96^2
    tensor-product prediction takes 16 ms through BLAS and 0.7 ms through
    ``einsum``. The (n_a, m) factors' product is compute-bound and stays on
    BLAS, where it is about ten times faster than ``einsum`` at 96^2.
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
        for name, size in (("state_lo", self.state_lo.size), ("state_hi", self.state_hi.size),
                           ("state_shape", len(self.state_shape))):
            if size != self.d:
                raise ValueError(f"{name} has {size} entries, the model has d = {self.d}")
        if not np.all(self.state_lo < self.state_hi):
            raise ValueError(f"state_lo {self.state_lo} must be below state_hi {self.state_hi}")
        if not float(y_lo) < float(y_hi):
            raise ValueError(f"y_lo {y_lo} must be below y_hi {y_hi}")
        for name, points in (("state_shape", min(self.state_shape)), ("y_points", int(y_points))):
            if points < MIN_POINTS:
                raise ValueError(f"{name} needs at least {MIN_POINTS} points per axis, got {points}")
        self.joint_lo = np.concatenate([self.state_lo, [float(y_lo)]])
        self.joint_hi = np.concatenate([self.state_hi, [float(y_hi)]])
        self.joint_shape = self.state_shape + (int(y_points),)
        self.y_axis = np.linspace(float(y_lo), float(y_hi), int(y_points))

        self.state_axes = [np.linspace(self.state_lo[a], self.state_hi[a], self.state_shape[a])
                           for a in range(self.d)]
        self._mesh = grid_points(self.state_lo, self.state_hi, self.state_shape)
        self._state_w = weight_tensor(self.state_lo, self.state_hi, self.state_shape).reshape(-1)
        self._psi_mesh = np.asarray(model.psi_apply(self._mesh), dtype=float)
        self._sigma_noise = GaussianMeasure(np.zeros(self.d), model.Sigma)
        sigma = model.Sigma
        self._factors = None
        self._tensor = model.psi_handle.componentwise
        if self._tensor:
            # Psi_a reads v_a alone: its values along axis a through the first grid point
            psi_grid = self._psi_mesh.reshape(self.state_shape + (self.d,))
            sources = [psi_grid[(0,) * a + (slice(None),) + (0,) * (self.d - 1 - a) + (a,)]
                       for a in range(self.d)]
            weights = quad_weights(self.state_lo, self.state_hi, self.state_shape)
        else:
            sources = [self._psi_mesh[:, a] for a in range(self.d)]
            weights = [self._state_w]  # the first factor carries the source weights w_j
        entries = sum(n * psi_a.size for n, psi_a in zip(self.state_shape, sources))
        if np.array_equal(sigma, np.diag(np.diag(sigma))) and entries <= KERNEL_CACHE_MAX:
            self._factors = [_gaussian_table(GaussianMeasure(np.zeros(1), [[sigma[a, a]]]),
                                             self.state_axes[a], sources[a]) for a in range(self.d)]
            for factor, w in zip(self._factors, weights):
                factor *= w

        h_mesh = np.asarray(model.h_apply(self._mesh), dtype=float).reshape(-1)
        gamma_noise = GaussianMeasure(np.zeros(1), model.Gamma)
        self._likelihood = _gaussian_table(gamma_noise, h_mesh, self.y_axis).reshape(self.joint_shape)
        w_y = quad_weights(self.joint_lo[-1:], self.joint_hi[-1:], self.joint_shape[-1:])[0]
        self._likelihood_sums = tuple(
            np.einsum("...i,i->...", self._likelihood, w_y * self.y_axis**p) for p in range(3))
        for a in (self._likelihood,) + self._likelihood_sums:
            a.setflags(write=False)

    def _kernel_rows(self, rows: Array) -> Array:
        """Markov-kernel rows N(u_i; Psi(v_j), Sigma) for the output points ``rows``."""
        diff = [self._mesh[rows, a][:, None] - self._psi_mesh[None, :, a] for a in range(self.d)]
        return _gaussian_at(self._sigma_noise, diff, out=diff[-1])

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
                out[rows] = np.einsum("ij,j->i", self._kernel_rows(rows), weighted)
        elif self.d == 1:
            out = np.einsum("ij,j->i", self._factors[0], flat)
        elif self._tensor:
            out = np.einsum("ik,lk->il", np.einsum("ij,jk->ik", self._factors[0], state_values),
                            self._factors[1])
        else:
            out = (self._factors[0] * flat) @ self._factors[1].T
        return out.reshape(self.state_shape)


def _gaussian_table(noise: GaussianMeasure, points: Array, centres: Array) -> Array:
    """N(points_i - centres_j; noise) over every pair (i, j) of a 1-D noise, in one buffer."""
    t = np.subtract.outer(points, centres)
    return _gaussian_at(noise, [t], out=t)


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


def predict(mu: GridDensity, ws: OperatorWorkspace) -> GridDensity:
    """Prediction map: push a state density through the stochastic dynamics.

    Computes (P mu)(u) = (2 pi)^(-d/2) det(Sigma)^(-1/2)
    integral exp(-1/2 |u - Psi(v)|^2_Sigma) mu(v) dv by quadrature and
    renormalizes.
    """
    if not ws.state_matches(mu):
        raise GridMismatchError("input density does not live on the workspace state grid")
    return normalized(ws.state_lo, ws.state_hi, ws.apply_markov(mu.values), context="predict")


def lift(mu: GridDensity, ws: OperatorWorkspace) -> GridDensity:
    """Lifting map: extend a state density to the joint state x data space.

    Computes (Q mu)(u, y) = N(y; H(u), Gamma) mu(u) on the workspace's joint
    grid; the result carries a BlockStructure with the trailing data axis. It
    is kept as its factors, mu / M on the state grid and the workspace's
    likelihood, with the mass M = sum_i w_i mu_i R0_i, so the call costs
    O(state points) and makes no joint-sized array.
    """
    if not ws.state_matches(mu):
        raise GridMismatchError("input density does not live on the workspace state grid")
    return _lifted(mu, ws._likelihood, ws._likelihood_sums, ws.joint_lo, ws.joint_hi, ws.blocks)


def _scalar_datum(joint: GridDensity, y_dagger, analysis: str) -> float:
    """The datum of a joint with a scalar data axis; it must hold exactly one value."""
    if joint.blocks is None or joint.blocks.K != 1:
        raise ValueError(f"grid {analysis} requires a joint with a scalar data axis")
    y = np.asarray(y_dagger, dtype=float).reshape(-1)
    if y.size != 1:
        raise ValueError(f"a scalar data axis takes a datum of one value, got {y.size}")
    return float(y[0])


def _slice_at_datum(pi: GridDensity, y_dagger) -> Array:
    """Piecewise-linear slice of a joint at the datum along the trailing data axis."""
    y = _scalar_datum(pi, y_dagger, "conditioning")
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
    # each plane on its own, so a lifted joint's q l is a contiguous state-grid array
    below, above = (_block(pi, slice(j, j + 1), axis=-1)[..., 0] for j in (t, t + 1))
    return (1.0 - theta) * below + theta * above


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


def transport(joint: GridDensity, y_dagger) -> GridDensity:
    """Kalman transport map: push the joint through (u, y) -> u + A (y_dagger - y).

    Realized by the change-of-variables integral
    (T pi)(v) = integral pi(v - A (y_dagger - y), y) dy with linear
    interpolation: the plane at y_j moves by A (y_dagger - y_j) / h = k_j + f_j
    cells per state axis (k_j integer, 0 <= f_j < 1). The planes go in blocks
    of consecutive j: each block is blended at once, axis by axis, in one block
    buffer, z[i] <- (1 - f_j) z[i] + f_j z[i-1], the products f_j z[i-1] taken
    an eighth of a block at a time: axis 0 in chunks of its rows taken from
    the last, a later axis within contiguous slabs of axis-0 rows. Then each
    of its planes is added into the output k_j cells on, in order of j. A
    lifted joint's planes are written into that buffer and blended there. So
    the call holds one block buffer and the adds read planes that are still
    in cache; one code path serves d in {1, 2}. Points off the grid read
    zero, and entry 0 keeps its value only where f_j = 0, so nothing is
    interpolated between the edge and the outside. More than 10% of the mass
    leaving the state box raises :class:`CoverageError`; the output mean
    equals M_u + A (y_dagger - M_y) up to grid error.
    """
    y = _scalar_datum(joint, y_dagger, "transport")
    gain = kalman_gain(joint)[:, 0]
    d = joint.blocks.d
    lo, hi = joint.box_lo[:d], joint.box_hi[:d]
    n = joint.shape[:d]
    ya = joint.axis(d)
    wy = quad_weights(joint.box_lo[d:], joint.box_hi[d:], (ya.size,))[0]
    spacings = np.array([joint.spacing(a) for a in range(d)])
    cells = gain[:, None] * (y - ya) / spacings[:, None]
    k = np.floor(cells)
    f = cells - k
    # output i takes blended input i - k_j: on the grid, one slice per axis
    size = np.array(n)[:, None]
    first, stop = np.clip(k, 0, size), np.clip(k + size, 0, size)
    live = np.all(first < stop, axis=0).tolist()
    out = np.zeros(n)
    blocks = _blocks(ya.size, math.prod(n))
    # z keeps the joint's layout: a data-axis-first block would make every
    # later pass contiguous, but its transposing copy made a 1-D run slower
    buf = np.empty(n + (blocks[0].stop,))
    for cols in blocks:
        z = buf[..., : cols.stop - cols.start]
        source = _block(joint, cols, buf, axis=-1)  # z itself for a lifted joint
        for a in range(d):
            fa, keep = f[a, cols], 1.0 - f[a, cols]
            chunks = _blocks(n[0], 8 * z[0].size)
            if a == 0:
                # chunks of rows from the last: where the source is z itself (a
                # lifted joint), each reads its rows i - 1 before any is overwritten
                for r in reversed(chunks):
                    _blend(source, z, r, fa, keep)
            else:
                # a later axis is blended within contiguous slabs of axis-0 rows
                for r in chunks:
                    slab = z[r].swapaxes(0, a)
                    _blend(slab, slab, slice(0, n[a]), fa, keep)
        z *= wy[cols]
        # this block's slices, made as the adds take them: output first:stop
        # reads input first - k:stop - k; no list of every plane's slices is held
        on, off, k_j = first[:, cols], stop[:, cols], k[:, cols]
        slices = [zip(*(map(slice, a.tolist(), b.tolist())
                        for a, b in zip(start.astype(int), end.astype(int))))
                  for start, end in ((on, off), (on - k_j, off - k_j))]
        for p, (dst, src, ok) in enumerate(zip(*slices, live[cols])):
            if ok:
                out[dst] += z[src + (p,)]
    mass = integrate(out, lo, hi)
    if mass < TRANSPORT_COVERAGE_MIN:
        raise CoverageError(
            f"transport image escapes the state box: only {mass:.4f} of the mass remains"
        )
    return normalized(lo, hi, out, context="transport")


def _blend(source: Array, z: Array, r: slice, f: Array, keep: Array) -> None:
    """z[i] <- keep source[i] + f source[i - 1] for the rows i in ``r`` of the first axis.

    ``f`` and ``keep`` = 1 - f hold one value per plane of the last axis. Row 0
    has no neighbour i - 1 on the grid: it reads zero, and keeps its value only
    where f = 0. ``source`` may be ``z`` itself: every row i - 1 is read
    before a row is written.
    """
    below = max(r.start, 1)
    lower = f * source[below - 1 : r.stop - 1]
    np.multiply(source[r], keep, out=z[r])
    if r.start == 0:
        z[0][..., f > 0.0] = 0.0
    z[below : r.stop] += lower


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
