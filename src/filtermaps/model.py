"""Filtering-problem definitions.

A ``ModelSpec`` packages the state map Psi, the observation map H, the noise
covariances Sigma and Gamma, and the initial Gaussian law N(m0, S0). Maps come
from a closed registry of named families so that models serialize to plain
config files and grid kernels can be precomputed. Each family carries its
analytic certificates (sup bound, Lipschitz constant); probing a model's
standing assumptions against them is ``verify.validate_assumptions``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gaussian import Array, GaussianMeasure


@dataclass(frozen=True, eq=False)
class MapHandle:
    """A realized map from the registry: callable plus its analytic certificates.

    ``fn`` maps an (m, dim_in) batch to (m, dim_out). ``sup_bound`` is an
    analytic bound on |f(x)|_2 (None when unbounded), ``lipschitz`` a bound on
    the Lipschitz constant, and ``matrix`` the matrix of a linear map.
    ``componentwise`` certifies that dim_out == dim_in and that component a of
    f(x) reads x_a alone, so a Markov kernel with a diagonal noise covariance
    is a product of one factor per axis.
    """

    family: str
    fn: Callable[[Array], Array]
    dim_in: int
    dim_out: int
    sup_bound: float | None
    lipschitz: float | None
    matrix: Array | None = None
    componentwise: bool = False


def _componentwise(family, dim_in, dim_out, scalar_fn, bound_per_comp, lipschitz):
    if dim_out != dim_in:
        raise ValueError(f"family '{family}' is componentwise; needs dim_out == dim_in")
    fn = lambda x: scalar_fn(np.asarray(x, dtype=float))
    return MapHandle(
        family, fn, dim_in, dim_out,
        sup_bound=bound_per_comp * np.sqrt(dim_out),
        lipschitz=lipschitz,
        componentwise=True,
    )


def _build_linear(dim_in, dim_out, *, matrix):
    A = np.asarray(matrix, dtype=float)
    if A.shape != (dim_out, dim_in):
        raise ValueError(f"linear matrix shape {A.shape} does not match ({dim_out}, {dim_in})")
    zero = not A.any()
    return MapHandle(
        "linear", lambda x: np.asarray(x, dtype=float) @ A.T, dim_in, dim_out,
        sup_bound=0.0 if zero else None,
        lipschitz=float(np.linalg.norm(A, 2)),
        matrix=A,
        componentwise=dim_out == dim_in and np.array_equal(A, np.diag(np.diag(A))),
    )


def _build_constant(dim_in, dim_out, *, value):
    c = np.asarray(value, dtype=float).reshape(-1)
    if c.size != dim_out:
        raise ValueError(f"constant value has {c.size} entries, needs {dim_out}")
    return MapHandle(
        "constant", lambda x: np.broadcast_to(c, (np.atleast_2d(x).shape[0], dim_out)).copy(),
        dim_in, dim_out,
        sup_bound=float(np.linalg.norm(c)),
        lipschitz=0.0,
    )


def _build_tanh(dim_in, dim_out, *, scale, radius=1.0):
    a, R = float(scale), float(radius)
    return _componentwise(
        "tanh", dim_in, dim_out,
        lambda x: a * R * np.tanh(x / R),
        bound_per_comp=abs(a) * R,
        lipschitz=abs(a),
    )


def _build_tanh_sin(dim_in, dim_out, *, scale, delta, radius=1.0, freq=3.0):
    a, R, delta, freq = float(scale), float(radius), float(delta), float(freq)
    return _componentwise(
        "tanh_sin", dim_in, dim_out,
        lambda x: a * R * np.tanh(x / R) + delta * np.sin(freq * x),
        bound_per_comp=abs(a) * R + abs(delta),
        lipschitz=abs(a) + abs(delta) * abs(freq),
    )


#: Sup of |d/du (u^2 / (1 + u^2))| = 9 / (8 sqrt(3)), attained at u = 1/sqrt(3).
_RATIONAL_SLOPE = 9.0 / (8.0 * np.sqrt(3.0))


def _build_tanh_rational(dim_in, dim_out, *, delta, radius=1.0):
    R, delta = float(radius), float(delta)
    return _componentwise(
        "tanh_rational", dim_in, dim_out,
        lambda x: R * np.tanh(x / R) + delta * x * x / (1.0 + x * x),
        bound_per_comp=R + abs(delta),
        lipschitz=1.0 + abs(delta) * _RATIONAL_SLOPE,
    )


_FAMILIES = {
    "linear": _build_linear,
    "constant": _build_constant,
    "tanh": _build_tanh,
    "tanh_sin": _build_tanh_sin,
    "tanh_rational": _build_tanh_rational,
}


def make_map(family: str, params: dict, dim_in: int, dim_out: int) -> MapHandle:
    """Realize a registered family with the given parameters and dimensions.

    Families and their ``params`` (defaults after ``=``): ``linear`` matrix
    (dim_out x dim_in, row-major); ``constant`` value (length dim_out);
    ``tanh`` scale, radius=1; ``tanh_sin`` scale, delta, radius=1, freq=3;
    ``tanh_rational`` delta, radius=1. A parameter the family does not take,
    or a missing one without a default, raises ``ValueError`` naming it.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown map family '{family}'; known: {sorted(_FAMILIES)}")
    build = _FAMILIES[family]
    try:
        inspect.signature(build).bind(dim_in, dim_out, **params)
    except TypeError as exc:
        raise ValueError(f"map family '{family}': {exc}") from None
    return build(dim_in, dim_out, **params)


@dataclass(frozen=True)
class MapSpec:
    """Serializable reference to a registry family with its parameters."""

    family: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A complete filtering problem.

    Dynamics u' = Psi(u) + xi with xi ~ N(0, Sigma); data y = H(u') + eta with
    eta ~ N(0, Gamma); initial law u0 ~ N(m0, S0). The bounds on the maps are
    the certificates of their families, probed by ``verify.validate_assumptions``.
    Validation keeps the lower Cholesky factors of Sigma and Gamma read-only as
    ``sigma_chol`` and ``gamma_chol``.
    """

    d: int
    K: int
    psi: MapSpec
    h: MapSpec
    Sigma: Array
    Gamma: Array
    m0: Array
    S0: Array
    sigma_chol: Array = field(init=False, repr=False)
    gamma_chol: Array = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, mat, dim, chol_name in (("Sigma", self.Sigma, self.d, "sigma_chol"),
                                          ("Gamma", self.Gamma, self.K, "gamma_chol"),
                                          ("S0", self.S0, self.d, None)):
            arr = np.array(mat, dtype=float)
            if arr.shape != (dim, dim):
                raise ValueError(f"{name} must be {dim}x{dim}, got {arr.shape}")
            law = GaussianMeasure(np.zeros(dim), arr)  # checks symmetry and SPD, factors once
            object.__setattr__(self, name, law.cov)
            if chol_name is not None:
                object.__setattr__(self, chol_name, law.chol)
        m0 = np.array(self.m0, dtype=float).reshape(-1)
        if m0.size != self.d:
            raise ValueError(f"m0 has {m0.size} entries, d = {self.d}")
        if not np.all(np.isfinite(m0)):
            raise ValueError(f"m0 has non-finite entries: {m0}")
        m0.setflags(write=False)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "_psi_handle", make_map(self.psi.family, self.psi.params, self.d, self.d))
        object.__setattr__(self, "_h_handle", make_map(self.h.family, self.h.params, self.d, self.K))

    @property
    def psi_handle(self) -> MapHandle:
        return self._psi_handle  # type: ignore[attr-defined]

    @property
    def h_handle(self) -> MapHandle:
        return self._h_handle  # type: ignore[attr-defined]

    def psi_apply(self, x: Array) -> Array:
        """Apply the state map to an (m, d) batch."""
        return self.psi_handle.fn(x)

    def h_apply(self, x: Array) -> Array:
        """Apply the observation map to an (m, d) batch."""
        return self.h_handle.fn(x)

    def psi_bound(self) -> float | None:
        """Family bound on |Psi|; None when unbounded."""
        return self.psi_handle.sup_bound

    def h_bound(self) -> float | None:
        return self.h_handle.sup_bound

    def h_lipschitz(self) -> float | None:
        return self.h_handle.lipschitz

    def sigma_floor(self) -> float:
        """Smallest eigenvalue of Sigma."""
        return float(np.linalg.eigvalsh(self.Sigma)[0])

    def gamma_floor(self) -> float:
        return float(np.linalg.eigvalsh(self.Gamma)[0])

    def initial_law(self) -> GaussianMeasure:
        return GaussianMeasure(self.m0, self.S0)

    def is_linear(self) -> bool:
        """True when both maps carry explicit matrices (Kalman oracle available)."""
        return self.psi_handle.matrix is not None and self.h_handle.matrix is not None


def to_config(model: ModelSpec) -> dict:
    """Plain-dict form of a model: family names, parameter lists, matrices row-major."""
    return {
        "d": model.d,
        "K": model.K,
        "psi": {"family": model.psi.family, "params": dict(model.psi.params)},
        "h": {"family": model.h.family, "params": dict(model.h.params)},
        "sigma": model.Sigma.tolist(),
        "gamma": model.Gamma.tolist(),
        "m0": model.m0.tolist(),
        "s0": model.S0.tolist(),
    }


_CONFIG_KEYS = ("d", "K", "psi", "h", "sigma", "gamma", "m0", "s0")
_MAP_KEYS = ("family", "params")


def _reject_unknown(cfg: dict, known: tuple, where: str) -> None:
    if not isinstance(cfg, dict):
        raise ValueError(f"{where} must be an object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; known: {list(known)}")


def _map_spec(cfg: dict, name: str) -> MapSpec:
    _reject_unknown(cfg[name], _MAP_KEYS, f"'{name}' map")
    params = cfg[name].get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"'{name}' map 'params' must be an object, got {params!r}")
    return MapSpec(cfg[name]["family"], dict(params))


def from_config(cfg: dict) -> ModelSpec:
    """Inverse of :func:`to_config`; an unknown key raises ``ValueError`` naming it."""
    _reject_unknown(cfg, _CONFIG_KEYS, "model config")
    return ModelSpec(
        d=int(cfg["d"]),
        K=int(cfg["K"]),
        psi=_map_spec(cfg, "psi"),
        h=_map_spec(cfg, "h"),
        Sigma=cfg["sigma"],
        Gamma=cfg["gamma"],
        m0=cfg["m0"],
        S0=cfg["s0"],
    )


def fingerprint(model: ModelSpec) -> str:
    """Stable short hash of the model config; used to validate kernel caches."""
    blob = json.dumps(to_config(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- reference scenarios ------------------------------------------------------


def linear_model_1d() -> ModelSpec:
    """1-D linear-Gaussian model: Psi(u) = 0.9 u, H(u) = u, Sigma = Gamma = 0.25, u0 ~ N(0, 1)."""
    return ModelSpec(
        d=1, K=1,
        psi=MapSpec("linear", {"matrix": [[0.9]]}),
        h=MapSpec("linear", {"matrix": [[1.0]]}),
        Sigma=[[0.25]], Gamma=[[0.25]], m0=[0.0], S0=[[1.0]],
    )


def bounded_model_1d() -> ModelSpec:
    """Bounded 1-D model: Psi = 0.9 tanh, H = tanh (unit radius), Sigma = Gamma = 0.25, u0 ~ N(0, 1)."""
    return ModelSpec(
        d=1, K=1,
        psi=MapSpec("tanh", {"scale": 0.9}),
        h=MapSpec("tanh", {"scale": 1.0}),
        Sigma=[[0.25]], Gamma=[[0.25]], m0=[0.0], S0=[[1.0]],
    )


#: Saturation radius of the default sweep family. Wide enough that the
#: delta = 0 member is near-linear over the filter's operating range (small
#: measured near-Gaussianity defect) while both maps stay bounded.
SWEEP_RADIUS = 32.0

#: The delta grid of the default sweep.
SWEEP_DELTAS = (0.0, 0.05, 0.1, 0.2, 0.3)


def sweep_model(delta: float) -> ModelSpec:
    """Member of the default nonlinearity sweep family.

    Psi_delta(u) = 0.9 R tanh(u/R) + delta sin(3u),
    H_delta(u) = R tanh(u/R) + delta u^2/(1+u^2) with R = ``SWEEP_RADIUS``,
    Sigma = Gamma = 0.25, u0 ~ N(0, 1). delta = 0 is the near-linear member;
    growing delta injects oscillatory and asymmetric nonlinearity into both maps.
    """
    R = SWEEP_RADIUS
    return ModelSpec(
        d=1, K=1,
        psi=MapSpec("tanh_sin", {"scale": 0.9, "radius": R, "delta": delta, "freq": 3.0}),
        h=MapSpec("tanh_rational", {"radius": R, "delta": delta}),
        Sigma=[[0.25]], Gamma=[[0.25]], m0=[0.0], S0=[[1.0]],
    )
