"""Grid densities: probability measures on truncated boxes in R^n.

A ``GridDensity`` stores nonnegative values on a uniform tensor grid, and its
constructor normalizes them to unit trapezoidal mass. This module is the
one home of grid quadrature and coordinates. Everything of product form is
evaluated from per-axis factors: :func:`integrate` is the only integration
rule (per-axis trapezoidal weights contracted one axis at a time), moments and
the weighted total-variation metric d_g (weight g(v) = 1 + |v|^2) are the same
contractions with per-axis coordinate factors in the weights, and plain total
variation is the first term of d_g's. Every Gaussian density value, here and
in the workspace's kernels, is :func:`_gaussian_at`; a grid is evaluated on
its open mesh (``np.ix_`` of the grid axes), whose coordinates broadcast
against a value tensor. :func:`grid_points`, the only flat point list, serves
model maps that are evaluated point by point. On these the module builds
moments, kept on the density as its moment-matched Gaussian (which is also
its Gaussian projection), and d_g.
A kernel that would otherwise make full-grid temporaries (:func:`dg_distance`,
:func:`tv_distance` and :func:`lifted_epsilon` here, ``operators.transport``
and the workspace's streamed Markov-kernel rows) runs over blocks of
``_BLOCK_ENTRIES`` entries; each of the first four holds one block buffer,
allocated once per call, besides temporaries of an eighth of a block, and the
kernel holds a few temporaries of one block's size; each entry gets the same
arithmetic and each row is contracted on its own, so no result depends on the
block size or on the order of the blocks.
``GridDensity`` (and :func:`normalized`, through which ``predict``, ``bayes``
and ``transport`` return) copies the values it is given once and normalizes
the copy; :func:`from_gaussian` normalizes the table it evaluated in place.
A lifted joint mu(u) l(u, y) is kept as its two factors (:func:`_lifted`): the
state-grid array q = mu / M and the workspace's likelihood l, shared and never
copied, so no joint-sized array is made for it. The kernels read a joint only
through :func:`_block`, which writes q l of one block into a buffer of the
kernel's, or of a fraction of a block into a temporary; its moments come from
q and three per-state-point sums of l; and its ``values`` are built on
request and not kept.
A density is stored as its three arrays (``np.savez`` of ``box_lo``,
``box_hi`` and ``values``); passing them back to ``GridDensity`` validates it.

Grids support n = 1, 2, 3 axes; joints carry a ``BlockStructure`` marking the
trailing axes as the data block. Densities on different grids cannot be
compared; callers must construct compatible grids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .gaussian import Array, BlockStructure, GaussianMeasure, log_density_at

#: Minimum points per axis.
MIN_POINTS = 16

#: Pre-normalization mass drift that triggers a ResolutionWarning.
DRIFT_WARN = 1e-3

#: Entries in one block of a kernel that streams a computation over a grid
#: (``dg_distance``, ``lifted_epsilon``, ``operators.transport``, the rows of
#: ``operators.OperatorWorkspace``'s streamed Markov kernel): its temporaries
#: are this size.
_BLOCK_ENTRIES = 2**17


class CoverageError(ValueError):
    """The grid box fails to cover the required mass region."""


class GridMismatchError(ValueError):
    """Two densities live on different grids; the operation is undefined."""


class ResolutionWarning(RuntimeWarning):
    """Quadrature mass drifted before renormalization; the grid may be too coarse."""


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Density values on a uniform tensor grid over [box_lo, box_hi], normalized when built.

    The constructor's validator is the only code that checks and normalizes
    density values: it clips tiny negatives (interpolation noise), rejects a
    substantial negative or a mass that is not positive and finite, and
    stores a read-only values / mass: a copy of the values passed in, which
    it divides in place.

    Parameters
    ----------
    box_lo, box_hi : ndarray, shape (n,)
        Box corners, componentwise lo < hi.
    values : ndarray
        Nonnegative tensor with one axis per dimension, of any positive mass.
    blocks : BlockStructure, optional
        Present for joint state x data densities (trailing axes are data).
    """

    box_lo: Array
    box_hi: Array
    values: Array
    blocks: BlockStructure | None = None
    _moments: GaussianMeasure | None = field(default=None, init=False, repr=False)
    _raw_mass: float = field(init=False, repr=False)  # mass of the values as given

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.array(self.values, dtype=float))
        self._validate()

    def _validate(self) -> None:
        """The one check and normalization of the fields; the values are clipped and divided in place."""
        lo = np.array(self.box_lo, dtype=float).reshape(-1)
        hi = np.array(self.box_hi, dtype=float).reshape(-1)
        vals = self.values
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
        if self.blocks is not None and self.blocks.n != vals.ndim:
            raise ValueError(f"blocks cover {self.blocks.n} axes, values have {vals.ndim}")
        if vals.min() < 0.0:
            floor = -1e-12 * max(vals.max(), np.finfo(float).tiny)
            if vals.min() < floor:
                raise ValueError(f"density values have a substantial negative entry ({vals.min():.3e})")
            np.clip(vals, 0.0, None, out=vals)
        mass = integrate(vals, lo, hi)
        if mass <= 0.0 or not np.isfinite(mass):
            raise ValueError(f"cannot normalize a grid density: mass is {mass}")
        vals /= mass
        for a in (lo, hi, vals):
            a.setflags(write=False)
        object.__setattr__(self, "box_lo", lo)
        object.__setattr__(self, "box_hi", hi)
        object.__setattr__(self, "_raw_mass", mass)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def axis(self, i: int) -> Array:
        """Grid coordinates along axis ``i``."""
        return np.linspace(self.box_lo[i], self.box_hi[i], self.shape[i])

    def axes(self) -> list[Array]:
        return _grid_axes(self.box_lo, self.box_hi, self.shape)

    def spacing(self, i: int) -> float:
        return float((self.box_hi[i] - self.box_lo[i]) / (self.shape[i] - 1))

    def same_grid(self, other: "GridDensity") -> bool:
        return (
            self.shape == other.shape
            and np.array_equal(self.box_lo, other.box_lo)
            and np.array_equal(self.box_hi, other.box_hi)
        )


class _LiftedJoint(GridDensity):
    """A joint kept as its factors (see :func:`_lifted`): values[..., k] = q * likelihood[..., k]."""

    @property
    def values(self) -> Array:
        """The tensor, built on each request and not kept."""
        out = self._q[..., None] * self._likelihood
        out.setflags(write=False)
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self._likelihood.shape


def _lifted(mu: GridDensity, likelihood: Array, sums: tuple[Array, Array, Array],
            box_lo: Array, box_hi: Array, blocks: BlockStructure) -> GridDensity:
    """The joint mu(u) likelihood(u, y), normalized and kept as q = mu / M and the likelihood.

    The likelihood is shared, not copied. ``sums`` are R0, R1, R2, its
    data-axis trapezoid sums against w_y, w_y y and w_y y^2, which give the
    mass M = sum_i w_i mu_i R0_i and the moments; a drift of M from 1 warns
    as in :func:`normalized`.
    """
    mass = integrate(mu.values * sums[0], mu.box_lo, mu.box_hi)
    if mass <= 0.0 or not np.isfinite(mass):
        raise ValueError(f"cannot normalize a grid density: mass is {mass}")
    lo, hi, q = np.array(box_lo, dtype=float), np.array(box_hi, dtype=float), mu.values / mass
    for a in (lo, hi, q):
        a.setflags(write=False)
    joint = _taken(_LiftedJoint, box_lo=lo, box_hi=hi, blocks=blocks, _raw_mass=mass, _q=q,
                   _likelihood=likelihood, _sums=sums)
    return _checked_drift(joint, True, "lift")


def _taken(cls: type, **fields) -> GridDensity:
    """A ``cls`` with ``fields`` taken as given, neither copied nor checked (``from_gaussian``, ``_lifted``)."""
    mu = cls.__new__(cls)
    for name, value in dict(fields, _moments=None).items():
        object.__setattr__(mu, name, value)
    return mu


def _block(mu: GridDensity, s: slice, out: Array | None = None, axis: int = 0) -> Array:
    """The values of ``mu`` on the rows ``s`` of its first axis, or the planes ``s`` of its last.

    ``axis`` is 0 for rows, -1 for planes. This is how the kernels read a
    joint: a stored tensor gives a view and ``out`` is not used; a lifted joint
    writes q l of the block into the leading rows (planes) of ``out``, a buffer
    with room for the block, and returns them (a fresh array without ``out``).
    """
    index = (s,) if axis == 0 else (..., s)
    if not isinstance(mu, _LiftedJoint):
        return mu.values[index]
    like = mu._likelihood[index]
    q = (mu._q[s] if axis == 0 else mu._q)[..., None]
    if out is not None:
        out = out[: like.shape[0]] if axis == 0 else out[..., : like.shape[-1]]
    return np.multiply(q, like, out=out)


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
    their full outer product (see :func:`_contract`).
    """
    return _contract(values, quad_weights(lo, hi, values.shape))


def _contract(values: Array, weights: Sequence[Array]) -> float:
    """sum over the grid of values * prod_a weights[a], one axis at a time.

    Every integral of a product-form integrand is one such contraction with
    per-axis weights, so no full-grid tensor of weights or coordinates is
    built. ``einsum`` contracts without calling BLAS: a threaded BLAS call
    costs more than the whole contraction when several processes share the
    cores, as the sweep's worker pool does.
    """
    return float(_contract_trailing(values, weights))


def _contract_trailing(values: Array, weights: Sequence[Array]) -> Array:
    """The contraction of :func:`_contract` over the last ``len(weights)`` axes only.

    The axes go from the last, so contracting the trailing axes of a block of
    leading rows gives each row the numbers it gets in the whole tensor.
    """
    out = values
    for w in reversed(weights):
        out = np.einsum("...i,i->...", out, w)
    return out


def _blocks(count: int, entries_each: int) -> list[slice]:
    """Consecutive slices over ``count`` items, each of at most ``_BLOCK_ENTRIES`` entries.

    An item holds ``entries_each`` entries; every slice takes at least one.
    """
    step = max(1, _BLOCK_ENTRIES // entries_each)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def normalized(
    box_lo: Array,
    box_hi: Array,
    values: Array,
    blocks: BlockStructure | None = None,
    expect_unit_mass: bool = True,
    context: str = "grid density",
) -> GridDensity:
    """Build a GridDensity from raw nonnegative values, which it renormalizes to unit mass.

    When ``expect_unit_mass`` is set, a pre-normalization mass drift beyond
    1e-3 emits a :class:`ResolutionWarning` naming ``context``.
    """
    return _checked_drift(GridDensity(box_lo, box_hi, values, blocks), expect_unit_mass, context)


def _checked_drift(mu: GridDensity, expect_unit_mass: bool, context: str) -> GridDensity:
    if expect_unit_mass and abs(mu._raw_mass - 1.0) > DRIFT_WARN:
        warnings.warn(
            f"{context}: mass drifted to {mu._raw_mass:.6f} before renormalization; grid may be too coarse",
            ResolutionWarning,
            stacklevel=3,
        )
    return mu


def _grid_axes(lo: Array, hi: Array, shape: Sequence[int]) -> list[Array]:
    """Grid coordinates along each axis; ``shape`` needs one entry per axis of the box."""
    if not len(shape) == len(lo) == len(hi):
        raise ValueError(f"dimension mismatch: grid shape {tuple(shape)} has {len(shape)} axes, "
                         f"box [{lo}, {hi}] has {len(lo)}/{len(hi)}")
    return [np.linspace(lo[a], hi[a], shape[a]) for a in range(len(shape))]


def grid_points(lo: Array, hi: Array, shape: Sequence[int]) -> Array:
    """All grid points as a (prod(shape), n) matrix in row-major order."""
    mesh = np.meshgrid(*_grid_axes(lo, hi, shape), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _gaussian_at(g: GaussianMeasure, x, out: Array | None = None) -> Array:
    """Density of ``g`` at coordinates ``x``: ``log_density_at(g, x, out)`` exponentiated in place."""
    values = log_density_at(g, x, out)
    return np.exp(values, out=values)


def from_gaussian(
    g: GaussianMeasure,
    box_lo: Array,
    box_hi: Array,
    shape: Sequence[int],
    blocks: BlockStructure | None = None,
) -> GridDensity:
    """Evaluate a Gaussian on a grid and normalize the table in place.

    The box must cover mean +- 6 marginal stdev sqrt(C_aa) on every axis a,
    the rule planned workspace boxes are sized by (a smaller box raises
    :class:`CoverageError`).
    """
    box_lo = np.asarray(box_lo, dtype=float).reshape(-1)
    box_hi = np.asarray(box_hi, dtype=float).reshape(-1)
    if box_lo.size != g.dim:
        raise ValueError(f"dimension mismatch: box has {box_lo.size} axes, measure has {g.dim}")
    half = 6.0 * np.sqrt(np.diag(g.cov))
    needed_lo, needed_hi = g.mean - half, g.mean + half
    if np.any(box_lo > needed_lo) or np.any(box_hi < needed_hi):
        raise CoverageError(
            f"box [{box_lo}, {box_hi}] does not cover mean +- 6 stdev ([{needed_lo}, {needed_hi}])"
        )
    values = _gaussian_at(g, np.ix_(*_grid_axes(box_lo, box_hi, shape)))
    mu = _taken(GridDensity, box_lo=box_lo, box_hi=box_hi, values=values, blocks=blocks)
    mu._validate()
    return _checked_drift(mu, True, "from_gaussian")


def from_function(
    f: Callable[[Array], Array],
    box_lo: Array,
    box_hi: Array,
    shape: Sequence[int],
    blocks: BlockStructure | None = None,
) -> GridDensity:
    """Grid an unnormalized nonnegative function; ``f`` maps (m, n) points to (m,) values."""
    box_lo = np.asarray(box_lo, dtype=float).reshape(-1)
    box_hi = np.asarray(box_hi, dtype=float).reshape(-1)
    values = np.asarray(f(grid_points(box_lo, box_hi, shape)), dtype=float).reshape(tuple(shape))
    return normalized(box_lo, box_hi, values, blocks, expect_unit_mass=False, context="from_function")


def moments(mu: GridDensity) -> GaussianMeasure:
    """Trapezoidal-quadrature mean and covariance, as the moment-matched Gaussian.

    The quadrature runs once per density and the covariance is validated and
    factored once; the result is kept on ``mu``, whose values and box are
    read-only, and every later call returns the same ``GaussianMeasure``.
    Gaussian projection, ``lifted_epsilon`` and the Kalman gain of a joint
    therefore share one pass and one factorization.
    """
    if mu._moments is None:
        object.__setattr__(mu, "_moments", _quadrature_moments(mu))
    return mu._moments


def _quadrature_moments(mu: GridDensity) -> GaussianMeasure:
    """Mean and covariance as per-axis contractions of the value tensor.

    The mean on axis a weights that axis by w_a x_a; a covariance entry
    weights its axes by w_a (x_a - m_a) (by w_a (x_a - m_a)^2 on the diagonal).
    The last axis is contracted first, in the only pass over the full tensor,
    and entries that weight it alike share that pass: w_y for the entries of
    the other axes, w_y (y - m_y) for those pairing y with another axis. With
    the mean and variance of y that is four full passes for any number of axes.
    A lifted joint makes none: its values are q l, so each of these sums is q
    times the likelihood's sums R0, R1, R2 against w_y, w_y y and w_y y^2.
    """
    w = quad_weights(mu.box_lo, mu.box_hi, mu.shape)
    axes = mu.axes()
    n = mu.ndim
    *lead, last = range(n)

    def tail(power: int = 0, shift: float = 0.0) -> Array:
        """The last axis contracted against w_y (y - shift)^power."""
        if isinstance(mu, _LiftedJoint):
            r0, r1, r2 = mu._sums
            return mu._q * (r0, r1 - shift * r0, r2 - 2.0 * shift * r1 + shift * shift * r0)[power]
        return np.einsum("...i,i->...", mu.values, w[last] * (axes[last] - shift) ** power)

    def weighted(partial: Array, factors: dict[int, Array]) -> float:
        return _contract(partial, [w[a] * factors[a] if a in factors else w[a] for a in lead])

    plain = tail() if lead else None
    mean = np.array([weighted(plain, {a: axes[a]}) for a in lead] + [weighted(tail(1), {})])
    centered = [axes[a] - mean[a] for a in range(n)]
    cross = tail(1, mean[last]) if lead else None
    cov = np.empty((n, n))
    for i in lead:
        cov[i, i] = weighted(plain, {i: centered[i] ** 2})
        for j in lead[i + 1:]:
            cov[i, j] = cov[j, i] = weighted(plain, {i: centered[i], j: centered[j]})
        cov[i, last] = cov[last, i] = weighted(cross, {i: centered[i]})
    cov[last, last] = weighted(tail(2, mean[last]), {})
    return GaussianMeasure(mean, cov)


def _require_same_grid(mu1: GridDensity, mu2: GridDensity) -> None:
    if not mu1.same_grid(mu2):
        raise GridMismatchError(
            f"grids differ: shapes {mu1.shape} vs {mu2.shape}, "
            f"boxes [{mu1.box_lo},{mu1.box_hi}] vs [{mu2.box_lo},{mu2.box_hi}]"
        )


def dg_distance(mu1: GridDensity, mu2: GridDensity) -> float:
    """Weighted total-variation metric d_g = integral of (1 + |v|^2) |rho1 - rho2| dv.

    Both densities must live on the identical grid. The difference is taken a
    block of rows at a time in the call's one block buffer, so no array of the
    grid's size is made. It is filled an eighth of a block of rows at a time:
    ``mu1``'s rows are views of a stored tensor, or q l of a lifted joint
    written into the buffer, and ``mu2``'s rows, views or q l temporaries of
    an eighth of a block, are subtracted from them there. |rho1 - rho2| is
    |rho2 - rho1| entry by entry, so ``dg_distance(mu1, mu2)`` equals
    ``dg_distance(mu2, mu1)`` bit for bit.
    """
    return sum(_dg_terms(mu1, mu2))


def tv_distance(mu1: GridDensity, mu2: GridDensity) -> float:
    """Plain total variation: integral of |rho1 - rho2| dv, the first term of d_g's one pass."""
    return _dg_terms(mu1, mu2)[0]


def _dg_terms(mu1: GridDensity, mu2: GridDensity) -> list[float]:
    """The terms of :func:`dg_distance` that :func:`_integrate_g` returns."""
    _require_same_grid(mu1, mu2)
    row = math.prod(mu1.shape[1:])
    buffer = np.empty((_blocks(mu1.shape[0], row)[0].stop,) + mu1.shape[1:])

    def deviation(s: slice) -> Array:
        diff = buffer[: s.stop - s.start]
        for t in _blocks(s.stop - s.start, 8 * row):
            rows, r = diff[t], slice(s.start + t.start, s.start + t.stop)
            np.subtract(_block(mu1, r, rows), _block(mu2, r), out=rows)
        return np.abs(diff, out=diff)

    return _integrate_g(deviation, mu1.box_lo, mu1.box_hi, mu1.shape)


def _integrate_g(block: Callable[[slice], Array], lo: Array, hi: Array,
                 shape: Sequence[int]) -> list[float]:
    """The terms of the integral of (1 + |v|^2) f(v) over the box, as per-axis contractions.

    ``block(s)`` gives f on the rows ``s`` of the first axis, one block of
    :func:`_blocks` at a time, from the last block to the first. Each block is
    contracted over the trailing axes, and the first axis is contracted last,
    over the per-row results, so the order of the blocks changes no result.
    The terms, integrals of f, x_0^2 f, x_1^2 f, ..., add up to it in order.
    """
    w = quad_weights(lo, hi, shape)
    x = _grid_axes(lo, hi, shape)
    # g is a sum of product-form terms: 1 and x_a^2 for each axis a. The axes are
    # contracted from the last, so the term of axis a and every term of an earlier
    # axis share the contraction over the axes after a: two full-grid passes in all.
    # Row a >= 1 of `rows` holds the term of axis a; row 0 the contraction that the
    # term 1 and the term of axis 0 share.
    rows = np.empty((len(shape), shape[0]))
    for s in reversed(_blocks(shape[0], math.prod(shape[1:]))):
        partial = block(s)
        for a in reversed(range(1, len(shape))):
            rows[a, s] = _contract_trailing(partial, w[1:a] + [w[a] * x[a] * x[a]])
            partial = np.einsum("...i,i->...", partial, w[a])
        rows[0, s] = partial
    return ([_contract(rows[0], w[:1]), _contract(rows[0], [w[0] * x[0] * x[0]])]
            + [_contract(r, w[:1]) for r in rows[1:]])


def gaussian_projection(mu: GridDensity) -> GaussianMeasure:
    """Moment-matched Gaussian N(mean, cov) of a grid density (its KL-closest Gaussian).

    It is the measure :func:`moments` keeps on ``mu``, so it is built once.
    """
    return moments(mu)


def lifted_epsilon(joint: GridDensity) -> float:
    """d_g between a joint density and the grid of its own Gaussian projection.

    This is the per-step near-Gaussianity defect of a lifted predicted law.
    The projection is evaluated on the joint's own grid and renormalized
    there, so a box that truncates a Gaussian tail narrows the comparison
    rather than failing; the joint's box is sized for the joint itself. It
    equals ``dg_distance(joint, normalized(...))`` of those gridded values
    bit for bit, but holds no array of the joint's size: it runs over blocks
    of rows of the first axis, twice. The first pass contracts each block of
    the projection's values over the trailing axes, which gives their mass;
    the second starts with the block the first pass evaluated last and
    evaluates each other block again. Every block of the projection, with its
    normalized values, their difference to the joint and its absolute value,
    is written into the call's one block buffer. The joint is subtracted an
    eighth of a block of rows at a time: views of a stored tensor, or q l
    temporaries of that size of a lifted joint.
    """
    if joint.blocks is None:
        raise ValueError("lifted_epsilon requires a joint density with a BlockStructure")
    projection = gaussian_projection(joint)
    w = quad_weights(joint.box_lo, joint.box_hi, joint.shape)
    x = joint.axes()
    row = math.prod(joint.shape[1:])
    blocks = _blocks(joint.shape[0], row)
    *head, last = blocks
    buffer = np.empty((blocks[0].stop,) + joint.shape[1:])

    def projected(s: slice) -> Array:
        return _gaussian_at(projection, np.ix_(x[0][s], *x[1:]), buffer[: s.stop - s.start])

    row_mass = np.empty(joint.shape[0])
    for s in head:
        row_mass[s] = _contract_trailing(projected(s), w[1:])
    kept = projected(last)  # the block that pass 2 takes first
    row_mass[last] = _contract_trailing(kept, w[1:])
    mass = _contract(row_mass, w[:1])
    if mass <= 0.0 or not np.isfinite(mass):
        raise ValueError(f"cannot normalize lifted_epsilon: mass is {mass}")

    def deviation(s: slice) -> Array:
        diff = kept if s == last else projected(s)
        diff /= mass
        for t in _blocks(s.stop - s.start, 8 * row):
            rows = diff[t]
            np.subtract(_block(joint, slice(s.start + t.start, s.start + t.stop)), rows, out=rows)
        return np.abs(diff, out=diff)

    return sum(_integrate_g(deviation, joint.box_lo, joint.box_hi, joint.shape))

