"""Closed-form algebra on Gaussian measures.

Everything the filtering code needs from Gaussians in exact arithmetic:
densities, sampling, block conditioning, KL divergence, and the weighted
total-variation upper bound between two Gaussians. All functions are pure;
``GaussianMeasure`` is immutable after construction. Every covariance system
is solved with numpy against a Cholesky factor: the one a ``GaussianMeasure``
keeps, or that of C_yy for the Kalman gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Array = np.ndarray

#: Reciprocal condition number below which a covariance is treated as singular.
RCOND_SINGULAR = 1e-12


class SingularCovarianceError(ValueError):
    """Covariance matrix is numerically singular or indefinite."""


def _finite(cov: Array) -> Array:
    """A float copy of ``cov``; a non-finite entry raises ``SingularCovarianceError``."""
    cov = np.array(cov, dtype=float)
    if not np.all(np.isfinite(cov)):
        raise SingularCovarianceError("covariance has non-finite entries")
    return cov


def chol_spd(cov: Array) -> Array:
    """Lower Cholesky factor of an SPD matrix.

    A non-finite entry, a reciprocal condition estimate (smallest over
    largest eigenvalue) below ``RCOND_SINGULAR``, or a failed factorization,
    raises ``SingularCovarianceError``.

    Parameters
    ----------
    cov : ndarray, shape (n, n)
        Symmetric positive definite matrix.

    Returns
    -------
    ndarray, shape (n, n)
        Lower triangular factor L with ``L @ L.T = cov``.
    """
    cov = _finite(cov)
    eigs = np.linalg.eigvalsh(cov)
    if eigs[-1] <= 0.0 or eigs[0] / eigs[-1] < RCOND_SINGULAR:
        raise SingularCovarianceError(
            f"covariance is numerically singular (rcond ~ {eigs[0] / max(eigs[-1], np.finfo(float).tiny):.2e})"
        )
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(f"Cholesky factorization failed: {exc}") from None


def _validated_cov(cov: Array) -> tuple[Array, Array]:
    """Check finiteness, symmetry (1e-12 relative), SPD-ness; return a symmetrized copy, its factor."""
    cov = _finite(cov)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    scale = max(1.0, float(np.abs(cov).max()))
    if np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise ValueError("covariance is not symmetric to 1e-12 relative tolerance")
    cov = 0.5 * (cov + cov.T)
    return cov, chol_spd(cov)


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Gaussian measure N(mean, cov) on R^n.

    Parameters
    ----------
    mean : ndarray, shape (n,)
    cov : ndarray, shape (n, n)
        Symmetric (to 1e-12 relative tolerance) positive definite. Validation
        keeps its lower Cholesky factor read-only as ``chol`` (see :func:`chol_spd`).

    ``chol_inv`` and ``log_normalizer``, which every :func:`log_density_at`
    call reads, are computed when first needed and kept, the inverse read-only.
    """

    mean: Array
    cov: Array
    chol: Array = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float).reshape(-1)
        if mean.size < 1:
            raise ValueError("mean must have dimension >= 1")
        if not np.all(np.isfinite(mean)):
            raise ValueError(f"mean has non-finite entries: {mean}")
        cov, chol = _validated_cov(self.cov)
        if cov.shape[0] != mean.size:
            raise ValueError(
                f"dimension mismatch: mean has {mean.size} entries, cov is {cov.shape}"
            )
        for name, arr in (("mean", mean), ("cov", cov), ("chol", chol)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.mean.size

    @cached_property
    def chol_inv(self) -> Array:
        """L^-1 of the kept factor ``chol``, read-only."""
        inv = np.linalg.inv(self.chol)
        inv.setflags(write=False)
        return inv

    @cached_property
    def log_normalizer(self) -> float:
        """n log(2 pi) + log det(cov), which :func:`log_density_at` adds before scaling by -1/2."""
        return self.dim * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diag(self.chol)))


@dataclass(frozen=True)
class BlockStructure:
    """Split of R^(d+K) into a state block (first d axes) and a data block (last K axes)."""

    d: int
    K: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.K < 1:
            raise ValueError("block dimensions must satisfy d >= 1 and K >= 1")

    @property
    def n(self) -> int:
        return self.d + self.K

    def mean_u(self, mean: Array) -> Array:
        return np.asarray(mean)[: self.d]

    def mean_y(self, mean: Array) -> Array:
        return np.asarray(mean)[self.d :]

    def cov_uu(self, cov: Array) -> Array:
        return np.asarray(cov)[: self.d, : self.d]

    def cov_uy(self, cov: Array) -> Array:
        return np.asarray(cov)[: self.d, self.d :]

    def cov_yy(self, cov: Array) -> Array:
        return np.asarray(cov)[self.d :, self.d :]

    def gain(self, cov: Array) -> Array:
        """Kalman gain C_uy C_yy^-1 of a joint covariance, shape (d, K)."""
        L_yy = chol_spd(self.cov_yy(cov))
        return np.linalg.solve(L_yy.T, np.linalg.solve(L_yy, self.cov_uy(cov).T)).T


def log_density_at(g: GaussianMeasure, x, out: Array | None = None) -> Array | float:
    """Log density of ``g`` at coordinates given coordinate first.

    ``x[i]`` is the i-th coordinate; the n arrays broadcast against each other
    and the result has their broadcast shape. A point of shape (n,) gives a
    float, a list of m points is passed transposed (shape (n, m)), and a
    tensor grid as its open mesh ``np.ix_(*axes)``, so no point list is built.
    The quadratic form is sum_i (sum_{j<=i} (L^-1)_ij (x_j - m_j))^2 with L the
    kept Cholesky factor ``g.chol``: L^-1 (``g.chol_inv``) is n x n, so the
    points meet only scalar multiply-adds and no BLAS call. Each row sums its
    terms from the left, those before the diagonal on their own broadcast
    shape, so on an open mesh only the add of the last row's diagonal term
    spans every axis. The result is built in that row's term: in ``out``, of
    the broadcast shape, when it is given. Only that row reads the last
    coordinate, so one of ``out``'s shape is centred into ``out`` itself, which
    may be that coordinate: a full-size table then needs no second buffer. A
    mesh and its point list give the same numbers bit for bit.
    """
    if len(x) != g.dim:
        raise ValueError(f"dimension mismatch: {len(x)} coordinates, measure has {g.dim}")
    *lead, last = (np.asarray(xi, dtype=float) for xi in x)
    centered = [xi - mi for xi, mi in zip(lead, g.mean)]
    in_out = out is not None and out.shape == last.shape
    centered.append(np.subtract(last, g.mean[-1], out=out if in_out else None))
    L_inv = g.chol_inv
    for i in range(g.dim):
        row_out = out if i == g.dim - 1 else None
        z = np.multiply(L_inv[i, 0], centered[0], out=None if i else row_out)
        for j in range(1, i):
            z = z + L_inv[i, j] * centered[j]
        if i:
            z = np.add(z, L_inv[i, i] * centered[i], out=row_out)
        z *= z
        if i == 0:
            quad = z
        elif isinstance(z, np.ndarray) and z.shape == np.broadcast_shapes(np.shape(quad), z.shape):
            # row i spans the axes of every earlier row, so its own term holds the sum
            quad = np.add(quad, z, out=z)
        else:
            quad = quad + z
    quad += g.log_normalizer
    quad *= -0.5
    return float(quad) if np.ndim(quad) == 0 else quad


def condition(joint: GaussianMeasure, blocks: BlockStructure, y_dagger: Array) -> GaussianMeasure:
    """Condition a joint Gaussian on the data block taking the value ``y_dagger``.

    Returns N(m_u + S_uy S_yy^-1 (y_dagger - m_y), S_uu - S_uy S_yy^-1 S_uy^T),
    the Schur-complement update of the state block.

    Parameters
    ----------
    joint : GaussianMeasure on R^(d+K)
    blocks : BlockStructure with d + K = joint.dim
    y_dagger : ndarray, shape (K,)
    """
    if blocks.n != joint.dim:
        raise ValueError(f"dimension mismatch: blocks cover {blocks.n}, joint has {joint.dim}")
    y_dagger = np.asarray(y_dagger, dtype=float).reshape(-1)
    if y_dagger.size != blocks.K:
        raise ValueError(f"dimension mismatch: y_dagger has {y_dagger.size} entries, K = {blocks.K}")
    gain = blocks.gain(joint.cov)
    mean = blocks.mean_u(joint.mean) + gain @ (y_dagger - blocks.mean_y(joint.mean))
    cov = blocks.cov_uu(joint.cov) - gain @ blocks.cov_uy(joint.cov).T
    return GaussianMeasure(mean, 0.5 * (cov + cov.T))


def kl_divergence(mu1: GaussianMeasure, mu2: GaussianMeasure) -> float:
    """KL divergence KL(mu1 || mu2) between Gaussians, in closed form.

    Equals 1/2 (trace(S2^-1 S1) - n - log det(S2^-1 S1) + |m1 - m2|^2_S2).
    The opposite direction is the argument swap.
    """
    if mu1.dim != mu2.dim:
        raise ValueError(f"dimension mismatch: {mu1.dim} vs {mu2.dim}")
    w = np.linalg.solve(mu2.chol, mu1.chol)
    trace_term = float(np.sum(w * w))
    logdet = 2.0 * float(np.sum(np.log(np.diag(mu1.chol))) - np.sum(np.log(np.diag(mu2.chol))))
    z = np.linalg.solve(mu2.chol, mu1.mean - mu2.mean)
    return 0.5 * (trace_term - mu1.dim - logdet + float(z @ z))


def g2_moment(mu: GaussianMeasure) -> float:
    """Expectation mu[g^2] of g(v)^2 = (1 + |v|^2)^2 under a Gaussian, in closed form.

    Uses the exact Gaussian moments E|v|^2 = tr S + |m|^2 and
    E|v|^4 = 2 tr(S^2) + 4 m^T S m + (tr S + |m|^2)^2.
    """
    m, S = mu.mean, mu.cov
    second = float(np.trace(S) + m @ m)
    fourth = float(2.0 * np.sum(S * S) + 4.0 * m @ S @ m + second**2)
    return 1.0 + 2.0 * second + fourth


def dg_upper_bound(mu1: GaussianMeasure, mu2: GaussianMeasure) -> float:
    """Closed-form upper bound on the weighted TV distance d_g between two Gaussians.

    Returns sqrt(mu1[g^2] + mu2[g^2]) * (3 ||S2^-1 S1 - I||_F + |m1 - m2|_S2).
    The bound dominates the quadrature d_g (verified in tests, not enforced here).
    """
    if mu1.dim != mu2.dim:
        raise ValueError(f"dimension mismatch: {mu1.dim} vs {mu2.dim}")
    ratio = np.linalg.solve(mu2.chol.T, np.linalg.solve(mu2.chol, mu1.cov))
    frob = float(np.linalg.norm(ratio - np.eye(mu1.dim), "fro"))
    z = np.linalg.solve(mu2.chol, mu1.mean - mu2.mean)
    mdist = float(np.sqrt(z @ z))
    return float(np.sqrt(g2_moment(mu1) + g2_moment(mu2)) * (3.0 * frob + mdist))


def sample(g: GaussianMeasure, rng: np.random.Generator, count: int) -> Array:
    """Draw ``count`` i.i.d. samples from ``g``.

    Parameters
    ----------
    g : GaussianMeasure
    rng : numpy Generator
        Callers running in parallel should pass disjoint streams.
    count : int, >= 1

    Returns
    -------
    ndarray, shape (count, n)
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    z = rng.standard_normal((count, g.dim))
    return g.mean + z @ g.chol.T
