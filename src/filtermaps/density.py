"""Grid densities: probability measures on truncated boxes in R^n.

A ``GridDensity`` stores nonnegative values on a uniform tensor grid and is
always normalized to unit mass under trapezoidal quadrature. This module is the
one home of grid quadrature and coordinates: :func:`integrate` is the only
integration rule (per-axis trapezoidal weights contracted one axis at a time),
open-mesh axes (``np.ix_(*mu.axes())``) supply coordinates that broadcast
against a value tensor, and :func:`grid_points` is the only flat point list,
used wherever a function is evaluated at every grid point. On these it builds
moments (computed once per density and kept on it), the weighted
total-variation metric d_g with weight g(v) = 1 + |v|^2, Gaussian projection
(moment matching), and the flat binary serialization format.

Grids support n = 1, 2, 3 axes; joints carry a ``BlockStructure`` marking the
trailing axes as the data block. Densities on different grids cannot be
compared; callers must construct compatible grids.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .gaussian import Array, BlockStructure, GaussianMeasure, log_density_at

#: Default points per axis, keyed by the number of grid axes.
DEFAULT_POINTS = {1: 1024, 2: 512, 3: 96}

#: Minimum points per axis.
MIN_POINTS = 16

#: Unit-mass tolerance for a constructed density.
MASS_TOL = 1e-8

#: Pre-normalization mass drift that triggers a ResolutionWarning.
DRIFT_WARN = 1e-3


class CoverageError(ValueError):
    """The grid box fails to cover the required mass region."""


class GridMismatchError(ValueError):
    """Two densities live on different grids; the operation is undefined."""


class ResolutionWarning(RuntimeWarning):
    """Quadrature mass drifted before renormalization; the grid may be too coarse."""


@dataclass(frozen=True, eq=False)
class Moments:
    """First two moments of a measure: mean vector and symmetric PSD covariance."""

    mean: Array
    cov: Array

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        cov = 0.5 * (cov + cov.T)
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] < -1e-10:
            raise ValueError(f"covariance has eigenvalue {eigs[0]:.3e} below the -1e-10 PSD tolerance")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Normalized density values on a uniform tensor grid over [box_lo, box_hi].

    Parameters
    ----------
    box_lo, box_hi : ndarray, shape (n,)
        Box corners, componentwise lo < hi.
    values : ndarray
        Nonnegative tensor with one axis per dimension; trapezoidal mass 1
        within 1e-8. Use :func:`normalized` to build from raw values.
    blocks : BlockStructure, optional
        Present for joint state x data densities (trailing axes are data).
    """

    box_lo: Array
    box_hi: Array
    values: Array
    blocks: BlockStructure | None = None
    _moments: Moments | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        lo = np.array(self.box_lo, dtype=float).reshape(-1)
        hi = np.array(self.box_hi, dtype=float).reshape(-1)
        vals = np.array(self.values, dtype=float)
        if vals.ndim != lo.size or lo.size != hi.size:
            raise ValueError(
                f"dimension mismatch: values have {vals.ndim} axes, box corners have {lo.size}/{hi.size}"
            )
        if vals.ndim not in (1, 2, 3):
            raise ValueError("grids support 1 to 3 axes")
        if not np.all(lo < hi):
            raise ValueError("box_lo must be componentwise below box_hi")
        if any(s < MIN_POINTS for s in vals.shape):
            raise ValueError(f"every axis needs at least {MIN_POINTS} points, got shape {vals.shape}")
        if vals.min() < 0.0:
            raise ValueError("density values must be nonnegative")
        mass = integrate(vals, lo, hi)
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {mass:.12f} is not 1 within {MASS_TOL}")
        if self.blocks is not None and self.blocks.n != vals.ndim:
            raise ValueError(f"blocks cover {self.blocks.n} axes, values have {vals.ndim}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "box_lo", lo)
        object.__setattr__(self, "box_hi", hi)
        object.__setattr__(self, "values", vals)

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def axis(self, i: int) -> Array:
        """Grid coordinates along axis ``i``."""
        return np.linspace(self.box_lo[i], self.box_hi[i], self.shape[i])

    def axes(self) -> list[Array]:
        return [self.axis(i) for i in range(self.ndim)]

    def spacing(self, i: int) -> float:
        return float((self.box_hi[i] - self.box_lo[i]) / (self.shape[i] - 1))

    def same_grid(self, other: "GridDensity") -> bool:
        return (
            self.shape == other.shape
            and np.array_equal(self.box_lo, other.box_lo)
            and np.array_equal(self.box_hi, other.box_hi)
        )


def quad_weights(lo: Array, hi: Array, shape: Sequence[int]) -> list[Array]:
    """Per-axis trapezoidal weights for a uniform grid."""
    out = []
    for a in range(len(shape)):
        h = (hi[a] - lo[a]) / (shape[a] - 1)
        w = np.full(shape[a], h)
        w[0] = w[-1] = 0.5 * h
        out.append(w)
    return out


def weight_tensor(lo: Array, hi: Array, shape: Sequence[int]) -> Array:
    """Full tensor of quadrature weights (outer product of the per-axis weights)."""
    return reduce(np.multiply.outer, quad_weights(lo, hi, shape))


def integrate(values: Array, lo: Array, hi: Array) -> float:
    """Trapezoidal integral of a value tensor over the box [lo, hi].

    The per-axis weights are contracted one axis at a time, never formed into
    their full outer product. ``einsum`` contracts without calling BLAS: a
    threaded BLAS call costs more than the whole contraction when several
    processes share the cores, as the sweep's worker pool does.
    """
    out = values
    for w in reversed(quad_weights(lo, hi, values.shape)):
        out = np.einsum("...i,i->...", out, w)
    return float(out)


def normalized(
    box_lo: Array,
    box_hi: Array,
    values: Array,
    blocks: BlockStructure | None = None,
    expect_unit_mass: bool = True,
    context: str = "grid density",
) -> GridDensity:
    """Build a GridDensity from raw nonnegative values, renormalizing to unit mass.

    Tiny negative values (interpolation noise) are clipped to zero. When
    ``expect_unit_mass`` is set, a pre-normalization mass drift beyond 1e-3
    emits a :class:`ResolutionWarning` naming ``context``.
    """
    box_lo = np.asarray(box_lo, dtype=float).reshape(-1)
    box_hi = np.asarray(box_hi, dtype=float).reshape(-1)
    values = np.asarray(values, dtype=float)
    if values.min() < 0.0:
        floor = -1e-12 * max(values.max(), np.finfo(float).tiny)
        if values.min() < floor:
            raise ValueError(f"density values have a substantial negative entry ({values.min():.3e})")
        values = np.clip(values, 0.0, None)
    mass = integrate(values, box_lo, box_hi)
    if mass <= 0.0 or not np.isfinite(mass):
        raise ValueError(f"cannot normalize {context}: mass is {mass}")
    if expect_unit_mass and abs(mass - 1.0) > DRIFT_WARN:
        warnings.warn(
            f"{context}: mass drifted to {mass:.6f} before renormalization; grid may be too coarse",
            ResolutionWarning,
            stacklevel=2,
        )
    return GridDensity(box_lo, box_hi, values / mass, blocks)


def default_shape(n: int) -> tuple[int, ...]:
    """Default points per axis: 1024 for n=1, 512 for n=2, 96 for n=3."""
    if n not in DEFAULT_POINTS:
        raise ValueError(f"grids support 1 to 3 axes, got n={n}")
    return (DEFAULT_POINTS[n],) * n


def default_box(g: GaussianMeasure) -> tuple[Array, Array]:
    """Box rule: center at the mean, half-width |mean| + 6 max-stdev per axis."""
    smax = float(np.sqrt(np.linalg.eigvalsh(g.cov)[-1]))
    half = np.abs(g.mean) + 6.0 * smax
    return g.mean - half, g.mean + half


def grid_points(lo: Array, hi: Array, shape: Sequence[int]) -> Array:
    """All grid points as a (prod(shape), n) matrix in row-major order."""
    axes = [np.linspace(lo[a], hi[a], shape[a]) for a in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def from_gaussian(
    g: GaussianMeasure,
    box_lo: Array | None = None,
    box_hi: Array | None = None,
    shape: Sequence[int] | None = None,
    blocks: BlockStructure | None = None,
) -> GridDensity:
    """Evaluate a Gaussian on a grid and normalize.

    The box must cover mean +- 6 max-stdev on every axis (a smaller box raises
    :class:`CoverageError`). Box and shape default to :func:`default_box` and
    :func:`default_shape`.
    """
    if box_lo is None or box_hi is None:
        box_lo, box_hi = default_box(g)
    box_lo = np.asarray(box_lo, dtype=float).reshape(-1)
    box_hi = np.asarray(box_hi, dtype=float).reshape(-1)
    if box_lo.size != g.dim:
        raise ValueError(f"dimension mismatch: box has {box_lo.size} axes, measure has {g.dim}")
    if shape is None:
        shape = default_shape(g.dim)
    smax = float(np.sqrt(np.linalg.eigvalsh(g.cov)[-1]))
    needed_lo = g.mean - 6.0 * smax
    needed_hi = g.mean + 6.0 * smax
    if np.any(box_lo > needed_lo) or np.any(box_hi < needed_hi):
        raise CoverageError(
            f"box [{box_lo}, {box_hi}] does not cover mean +- 6 max-stdev ([{needed_lo}, {needed_hi}])"
        )
    logs = log_density_at(g, grid_points(box_lo, box_hi, shape))
    values = np.exp(np.asarray(logs)).reshape(tuple(shape))
    return normalized(box_lo, box_hi, values, blocks, context="from_gaussian")


def from_function(
    f: Callable[[Array], Array],
    box_lo: Array,
    box_hi: Array,
    shape: Sequence[int] | None = None,
    blocks: BlockStructure | None = None,
) -> GridDensity:
    """Grid an unnormalized nonnegative function; ``f`` maps (m, n) points to (m,) values."""
    box_lo = np.asarray(box_lo, dtype=float).reshape(-1)
    box_hi = np.asarray(box_hi, dtype=float).reshape(-1)
    if shape is None:
        shape = default_shape(box_lo.size)
    values = np.asarray(f(grid_points(box_lo, box_hi, shape)), dtype=float).reshape(tuple(shape))
    return normalized(box_lo, box_hi, values, blocks, expect_unit_mass=False, context="from_function")


def moments(mu: GridDensity) -> Moments:
    """Trapezoidal-quadrature mean and covariance (covariance symmetrized).

    The quadrature runs once per density; the result is kept on ``mu``, whose
    values and box are read-only, and every later call returns the same
    ``Moments``. Gaussian projection, ``lifted_epsilon`` and the Kalman gain of
    a joint therefore share one pass.
    """
    if mu._moments is None:
        object.__setattr__(mu, "_moments", _quadrature_moments(mu))
    return mu._moments


def _quadrature_moments(mu: GridDensity) -> Moments:
    lo, hi, vals = mu.box_lo, mu.box_hi, mu.values
    coords = np.ix_(*mu.axes())
    mean = np.array([integrate(vals * X, lo, hi) for X in coords])
    n = mu.ndim
    cov = np.empty((n, n))
    centered = [coords[i] - mean[i] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            cov[i, j] = cov[j, i] = integrate(vals * centered[i] * centered[j], lo, hi)
    return Moments(mean, cov)


def _require_same_grid(mu1: GridDensity, mu2: GridDensity) -> None:
    if not mu1.same_grid(mu2):
        raise GridMismatchError(
            f"grids differ: shapes {mu1.shape} vs {mu2.shape}, "
            f"boxes [{mu1.box_lo},{mu1.box_hi}] vs [{mu2.box_lo},{mu2.box_hi}]"
        )


def dg_distance(mu1: GridDensity, mu2: GridDensity) -> float:
    """Weighted total-variation metric d_g = integral of (1 + |v|^2) |rho1 - rho2| dv.

    Both densities must live on the identical grid.
    """
    _require_same_grid(mu1, mu2)
    g = 1.0 + sum(X * X for X in np.ix_(*mu1.axes()))
    return integrate(g * np.abs(mu1.values - mu2.values), mu1.box_lo, mu1.box_hi)


def tv_distance(mu1: GridDensity, mu2: GridDensity) -> float:
    """Plain total variation: integral of |rho1 - rho2| dv on the shared grid."""
    _require_same_grid(mu1, mu2)
    return integrate(np.abs(mu1.values - mu2.values), mu1.box_lo, mu1.box_hi)


def gaussian_projection(mu: GridDensity) -> GaussianMeasure:
    """Moment-matched Gaussian N(mean, cov) of a grid density (its KL-closest Gaussian)."""
    m = moments(mu)
    return GaussianMeasure(m.mean, m.cov)


def lifted_epsilon(joint: GridDensity) -> float:
    """d_g between a joint density and the grid of its own Gaussian projection.

    This is the per-step near-Gaussianity defect of a lifted predicted law.
    The projection is evaluated on the joint's own grid and renormalized
    there, so a box that truncates a Gaussian tail narrows the comparison
    rather than failing; the joint's box is sized for the joint itself.
    """
    if joint.blocks is None:
        raise ValueError("lifted_epsilon requires a joint density with a BlockStructure")
    proj = gaussian_projection(joint)
    logs = log_density_at(proj, grid_points(joint.box_lo, joint.box_hi, joint.shape))
    values = np.exp(np.asarray(logs)).reshape(joint.shape)
    gridded = normalized(joint.box_lo, joint.box_hi, values, joint.blocks,
                         expect_unit_mass=False, context="lifted_epsilon")
    return dg_distance(joint, gridded)


def marginal_u(joint: GridDensity) -> GridDensity:
    """Integrate out the data block of a joint density; returns the state marginal."""
    if joint.blocks is None:
        raise ValueError("marginal_u requires a joint density with a BlockStructure")
    d = joint.blocks.d
    ws = quad_weights(joint.box_lo, joint.box_hi, joint.shape)
    vals = joint.values
    for _ in range(joint.blocks.K):
        vals = np.tensordot(vals, ws[vals.ndim - 1], axes=([vals.ndim - 1], [0]))
    return normalized(joint.box_lo[:d], joint.box_hi[:d], vals, context="marginal_u")


def save_binary(mu: GridDensity, path) -> None:
    """Write the flat binary layout: n, shape, box corners, then values row-major.

    Every field is a little-endian 64-bit float; the value block has
    prod(shape) entries in row-major (C) order.
    """
    header = np.concatenate(
        [[float(mu.ndim)], np.asarray(mu.shape, dtype=float), mu.box_lo, mu.box_hi]
    )
    with open(path, "wb") as fh:
        fh.write(header.astype("<f8").tobytes())
        fh.write(mu.values.astype("<f8").reshape(-1).tobytes())


def load_binary(path, blocks: BlockStructure | None = None) -> GridDensity:
    """Read a density written by :func:`save_binary`; ``blocks`` reattaches joint structure."""
    raw = np.fromfile(path, dtype="<f8")
    n = int(raw[0])
    shape = tuple(int(s) for s in raw[1 : 1 + n])
    lo = raw[1 + n : 1 + 2 * n]
    hi = raw[1 + 2 * n : 1 + 3 * n]
    count = int(np.prod(shape))
    values = raw[1 + 3 * n : 1 + 3 * n + count].reshape(shape)
    return GridDensity(lo, hi, values, blocks)

