"""Closed-form algebra on Gaussian measures.

Everything the filtering code needs from Gaussians in exact arithmetic:
densities, sampling, block conditioning, KL divergence, and the weighted
total-variation upper bound between two Gaussians. All functions are pure;
``GaussianMeasure`` is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

Array = np.ndarray

#: Reciprocal condition number below which a covariance is treated as singular.
RCOND_SINGULAR = 1e-12

#: Relative jitter added to a covariance whose Cholesky factorization fails.
JITTER_SCALE = 1e-12

#: Number of times the jitter is doubled before giving up.
JITTER_DOUBLINGS = 3


class SingularCovarianceError(ValueError):
    """Covariance matrix is numerically singular or indefinite."""


def chol_spd(cov: Array) -> Array:
    """Lower Cholesky factor of an SPD matrix, with a deterministic repair rule.

    A failed factorization is retried with an additive jitter of
    ``1e-12 * trace(cov)/n`` on the diagonal, doubled up to three times.
    A reciprocal condition estimate below ``RCOND_SINGULAR`` raises
    ``SingularCovarianceError`` regardless.

    Parameters
    ----------
    cov : ndarray, shape (n, n)
        Symmetric positive definite matrix.

    Returns
    -------
    ndarray, shape (n, n)
        Lower triangular factor L with ``L @ L.T = cov`` (possibly jittered).
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    eigs = np.linalg.eigvalsh(cov)
    if eigs[-1] <= 0.0 or eigs[0] / eigs[-1] < RCOND_SINGULAR:
        raise SingularCovarianceError(
            f"covariance is numerically singular (rcond ~ {eigs[0] / max(eigs[-1], np.finfo(float).tiny):.2e})"
        )
    jitter = JITTER_SCALE * np.trace(cov) / n
    attempt = cov
    for k in range(JITTER_DOUBLINGS + 2):
        try:
            return np.linalg.cholesky(attempt)
        except np.linalg.LinAlgError:
            attempt = cov + jitter * np.eye(n)
            jitter *= 2.0
    raise SingularCovarianceError("Cholesky failed after jitter retries")


def _validated_cov(cov: Array) -> Array:
    """Check symmetry to 1e-12 relative tolerance and SPD-ness; return a symmetrized copy."""
    cov = np.array(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    scale = max(1.0, float(np.abs(cov).max()))
    if np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise ValueError("covariance is not symmetric to 1e-12 relative tolerance")
    cov = 0.5 * (cov + cov.T)
    chol_spd(cov)
    return cov


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Gaussian measure N(mean, cov) on R^n.

    Parameters
    ----------
    mean : ndarray, shape (n,)
    cov : ndarray, shape (n, n)
        Symmetric (to 1e-12 relative tolerance) positive definite.
    """

    mean: Array
    cov: Array

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float).reshape(-1)
        if mean.size < 1:
            raise ValueError("mean must have dimension >= 1")
        cov = _validated_cov(self.cov)
        if cov.shape[0] != mean.size:
            raise ValueError(
                f"dimension mismatch: mean has {mean.size} entries, cov is {cov.shape}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


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
        return cho_solve((L_yy, True), self.cov_uy(cov).T).T


def log_density_at(g: GaussianMeasure, x: Array) -> Array | float:
    """Log density of ``g`` at one point (shape (n,)) or a batch (shape (m, n))."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != g.dim:
        raise ValueError(f"dimension mismatch: points have {pts.shape[1]} columns, measure has {g.dim}")
    L = chol_spd(g.cov)
    z = solve_triangular(L, (pts - g.mean).T, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    out = -0.5 * (g.dim * np.log(2.0 * np.pi) + logdet + np.sum(z * z, axis=0))
    return float(out[0]) if single else out


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
    L2 = chol_spd(mu2.cov)
    L1 = chol_spd(mu1.cov)
    w = solve_triangular(L2, L1, lower=True)
    trace_term = float(np.sum(w * w))
    logdet = 2.0 * float(np.sum(np.log(np.diag(w))))
    z = solve_triangular(L2, mu1.mean - mu2.mean, lower=True)
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
    L2 = chol_spd(mu2.cov)
    ratio = cho_solve((L2, True), mu1.cov)
    frob = float(np.linalg.norm(ratio - np.eye(mu1.dim), "fro"))
    z = solve_triangular(L2, mu1.mean - mu2.mean, lower=True)
    mdist = float(np.sqrt(z @ z))
    return float(np.sqrt(g2_moment(mu1) + g2_moment(mu2)) * (3.0 * frob + mdist))


def sample(g: GaussianMeasure, rng: np.random.Generator | int, count: int) -> Array:
    """Draw ``count`` i.i.d. samples from ``g``.

    Parameters
    ----------
    g : GaussianMeasure
    rng : numpy Generator or integer seed
        Callers running in parallel should pass disjoint streams.
    count : int, >= 1

    Returns
    -------
    ndarray, shape (count, n)
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    L = chol_spd(g.cov)
    z = rng.standard_normal((count, g.dim))
    return g.mean + z @ L.T
