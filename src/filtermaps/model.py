"""Filtering-problem definitions.

A ``ModelSpec`` packages the state map Psi, the observation map H, the noise
covariances Sigma and Gamma, and the initial Gaussian law N(m0, S0). Maps come
from a closed registry of named families so that models serialize to plain
config files and grid kernels can be precomputed. Assumption checks (bounded
maps, Lipschitz observation, SPD noises) are probe-based on a fixed mesh.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .density import grid_points
from .gaussian import Array, GaussianMeasure, chol_spd

#: Number of probe points used by the assumption checks.
PROBE_POINTS = 10_000

#: Half-width of the probe mesh per axis.
PROBE_RANGE = 25.0

#: Relative slack allowed on the probed Lipschitz constant.
LIPSCHITZ_SLACK = 0.05


@dataclass(frozen=True, eq=False)
class MapHandle:
    """A realized map from the registry: callable plus its analytic certificates.

    ``fn`` maps an (m, dim_in) batch to (m, dim_out). ``sup_bound`` is an
    analytic bound on |f(x)|_2 (None when unbounded), ``lipschitz`` a bound on
    the Lipschitz constant, and ``matrix`` the matrix of a linear map.
    """

    family: str
    fn: Callable[[Array], Array]
    dim_in: int
    dim_out: int
    sup_bound: float | None
    lipschitz: float | None
    matrix: Array | None = None


def _componentwise(family, dim_in, dim_out, scalar_fn, bound_per_comp, lipschitz):
    if dim_out != dim_in:
        raise ValueError(f"family '{family}' is componentwise; needs dim_out == dim_in")
    fn = lambda x: scalar_fn(np.asarray(x, dtype=float))
    return MapHandle(
        family, fn, dim_in, dim_out,
        sup_bound=bound_per_comp * np.sqrt(dim_out),
        lipschitz=lipschitz,
    )


def _build_linear(params, dim_in, dim_out):
    A = np.asarray(params["matrix"], dtype=float)
    if A.shape != (dim_out, dim_in):
        raise ValueError(f"linear matrix shape {A.shape} does not match ({dim_out}, {dim_in})")
    zero = not A.any()
    return MapHandle(
        "linear", lambda x: np.asarray(x, dtype=float) @ A.T, dim_in, dim_out,
        sup_bound=0.0 if zero else None,
        lipschitz=float(np.linalg.norm(A, 2)),
        matrix=A,
    )


def _build_constant(params, dim_in, dim_out):
    c = np.asarray(params["value"], dtype=float).reshape(-1)
    if c.size != dim_out:
        raise ValueError(f"constant value has {c.size} entries, needs {dim_out}")
    return MapHandle(
        "constant", lambda x: np.broadcast_to(c, (np.atleast_2d(x).shape[0], dim_out)).copy(),
        dim_in, dim_out,
        sup_bound=float(np.linalg.norm(c)),
        lipschitz=0.0,
    )


def _build_tanh(params, dim_in, dim_out):
    a = float(params["scale"])
    R = float(params.get("radius", 1.0))
    return _componentwise(
        "tanh", dim_in, dim_out,
        lambda x: a * R * np.tanh(x / R),
        bound_per_comp=abs(a) * R,
        lipschitz=abs(a),
    )


def _build_tanh_sin(params, dim_in, dim_out):
    a = float(params["scale"])
    R = float(params.get("radius", 1.0))
    delta = float(params["delta"])
    freq = float(params.get("freq", 3.0))
    return _componentwise(
        "tanh_sin", dim_in, dim_out,
        lambda x: a * R * np.tanh(x / R) + delta * np.sin(freq * x),
        bound_per_comp=abs(a) * R + abs(delta),
        lipschitz=abs(a) + abs(delta) * abs(freq),
    )


#: Sup of |d/du (u^2 / (1 + u^2))| = 9 / (8 sqrt(3)), attained at u = 1/sqrt(3).
_RATIONAL_SLOPE = 9.0 / (8.0 * np.sqrt(3.0))


def _build_tanh_rational(params, dim_in, dim_out):
    R = float(params.get("radius", 1.0))
    delta = float(params["delta"])
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
    ``tanh_rational`` delta, radius=1.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown map family '{family}'; known: {sorted(_FAMILIES)}")
    return _FAMILIES[family](params, dim_in, dim_out)


@dataclass(frozen=True)
class MapSpec:
    """Serializable reference to a registry family with its parameters."""

    family: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A complete filtering problem.

    Dynamics u' = Psi(u) + xi with xi ~ N(0, Sigma); data y = H(u') + eta with
    eta ~ N(0, Gamma); initial law u0 ~ N(m0, S0). Optional declared bounds
    kappa_psi, kappa_h, ell_h override the family certificates and are checked
    by :func:`validate_assumptions`.
    """

    d: int
    K: int
    psi: MapSpec
    h: MapSpec
    Sigma: Array
    Gamma: Array
    m0: Array
    S0: Array
    kappa_psi: float | None = None
    kappa_h: float | None = None
    ell_h: float | None = None

    def __post_init__(self) -> None:
        for name, mat, dim in (("Sigma", self.Sigma, self.d), ("Gamma", self.Gamma, self.K), ("S0", self.S0, self.d)):
            arr = np.array(mat, dtype=float)
            if arr.shape != (dim, dim):
                raise ValueError(f"{name} must be {dim}x{dim}, got {arr.shape}")
            chol_spd(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        m0 = np.array(self.m0, dtype=float).reshape(-1)
        if m0.size != self.d:
            raise ValueError(f"m0 has {m0.size} entries, d = {self.d}")
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
        """Declared or family bound on |Psi|; None when unbounded."""
        return self.kappa_psi if self.kappa_psi is not None else self.psi_handle.sup_bound

    def h_bound(self) -> float | None:
        return self.kappa_h if self.kappa_h is not None else self.h_handle.sup_bound

    def h_lipschitz(self) -> float | None:
        return self.ell_h if self.ell_h is not None else self.h_handle.lipschitz

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
    cfg = {
        "d": model.d,
        "K": model.K,
        "psi": {"family": model.psi.family, "params": dict(model.psi.params)},
        "h": {"family": model.h.family, "params": dict(model.h.params)},
        "sigma": model.Sigma.tolist(),
        "gamma": model.Gamma.tolist(),
        "m0": model.m0.tolist(),
        "s0": model.S0.tolist(),
    }
    bounds = {}
    if model.kappa_psi is not None:
        bounds["kappa_psi"] = model.kappa_psi
    if model.kappa_h is not None:
        bounds["kappa_h"] = model.kappa_h
    if model.ell_h is not None:
        bounds["ell_h"] = model.ell_h
    if bounds:
        cfg["bounds"] = bounds
    return cfg


def from_config(cfg: dict) -> ModelSpec:
    """Inverse of :func:`to_config`."""
    bounds = cfg.get("bounds", {})
    return ModelSpec(
        d=int(cfg["d"]),
        K=int(cfg["K"]),
        psi=MapSpec(cfg["psi"]["family"], dict(cfg["psi"].get("params", {}))),
        h=MapSpec(cfg["h"]["family"], dict(cfg["h"].get("params", {}))),
        Sigma=cfg["sigma"],
        Gamma=cfg["gamma"],
        m0=cfg["m0"],
        S0=cfg["s0"],
        kappa_psi=bounds.get("kappa_psi"),
        kappa_h=bounds.get("kappa_h"),
        ell_h=bounds.get("ell_h"),
    )


def save_config(model: ModelSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_config(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> ModelSpec:
    with open(path) as fh:
        return from_config(json.load(fh))


def fingerprint(model: ModelSpec) -> str:
    """Stable short hash of the model config; used to validate kernel caches."""
    blob = json.dumps(to_config(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- assumption validation ---------------------------------------------------


@dataclass(frozen=True)
class AssumptionCheck:
    """One probed assumption: measured value vs its declared bound."""

    name: str
    passed: bool
    value: float | None = None
    bound: float | None = None
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]
    linear_exactness_mode: bool

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            detail = ""
            if c.value is not None:
                detail = f" value={c.value:.6g}"
                if c.bound is not None:
                    detail += f" bound={c.bound:.6g}"
            note = f" ({c.note})" if c.note else ""
            out.append(f"[{status}] {c.name}{detail}{note}")
        if self.linear_exactness_mode:
            out.append("note: linear map present; model usable for exactness tests only")
        return out


def validate_assumptions(model: ModelSpec) -> AssumptionReport:
    """Probe the standing assumptions: SPD noises, bounded maps, Lipschitz observation.

    Sup-norm bounds are probed on a fixed mesh of about 10^4 points
    (round(10^4 ** (1/d)) per axis); the Lipschitz bound by finite
    differences along each axis with 5% slack. Unbounded families (linear
    maps) fail the boundedness check with a note that such models are for
    exactness tests only.
    """
    checks = []
    for name, floor in (("sigma_spd", model.sigma_floor()), ("gamma_spd", model.gamma_floor())):
        checks.append(AssumptionCheck(name, floor > 0.0, value=floor, bound=0.0))
    checks.append(AssumptionCheck("s0_spd", float(np.linalg.eigvalsh(model.S0)[0]) > 0.0))

    per_axis = round(PROBE_POINTS ** (1 / model.d))
    half = np.full(model.d, PROBE_RANGE)
    pts = grid_points(-half, half, (per_axis,) * model.d)
    for label, handle, apply_fn, bound in (
        ("psi_bounded", model.psi_handle, model.psi_apply, model.psi_bound()),
        ("h_bounded", model.h_handle, model.h_apply, model.h_bound()),
    ):
        sup = float(np.linalg.norm(apply_fn(pts), axis=1).max())
        if bound is None:
            checks.append(
                AssumptionCheck(label, False, value=sup, note=f"{handle.family} family is unbounded")
            )
        else:
            checks.append(AssumptionCheck(label, sup <= bound * (1.0 + 1e-12), value=sup, bound=bound))

    ell = model.h_lipschitz()
    slopes = []
    eps = 2.0 * PROBE_RANGE / PROBE_POINTS
    for a in range(model.d):
        shifted = pts.copy()
        shifted[:, a] += eps
        diff = np.linalg.norm(model.h_apply(shifted) - model.h_apply(pts), axis=1)
        slopes.append(diff.max() / eps)
    probe_ell = float(max(slopes))
    if ell is None:
        checks.append(AssumptionCheck("h_lipschitz", False, value=probe_ell, note="no Lipschitz certificate"))
    else:
        checks.append(
            AssumptionCheck("h_lipschitz", probe_ell <= ell * (1.0 + LIPSCHITZ_SLACK), value=probe_ell, bound=ell)
        )

    linear_mode = model.psi_handle.family == "linear" or model.h_handle.family == "linear"
    return AssumptionReport(tuple(checks), linear_exactness_mode=linear_mode)


# -- reference scenarios ------------------------------------------------------


def linear_model_1d(a: float = 0.9, c: float = 1.0, sigma: float = 0.25, gamma: float = 0.25,
                    m0: float = 0.0, s0: float = 1.0) -> ModelSpec:
    """1-D linear-Gaussian model: Psi(u) = a u, H(u) = c u."""
    return ModelSpec(
        d=1, K=1,
        psi=MapSpec("linear", {"matrix": [[a]]}),
        h=MapSpec("linear", {"matrix": [[c]]}),
        Sigma=[[sigma]], Gamma=[[gamma]], m0=[m0], S0=[[s0]],
    )


def bounded_model_1d(a: float = 0.9, sigma: float = 0.25, gamma: float = 0.25,
                     m0: float = 0.0, s0: float = 1.0) -> ModelSpec:
    """Default bounded 1-D model: Psi = a tanh, H = tanh (unit radius)."""
    return ModelSpec(
        d=1, K=1,
        psi=MapSpec("tanh", {"scale": a}),
        h=MapSpec("tanh", {"scale": 1.0}),
        Sigma=[[sigma]], Gamma=[[gamma]], m0=[m0], S0=[[s0]],
    )


#: Saturation radius of the default sweep family. Wide enough that the
#: delta = 0 member is near-linear over the filter's operating range (small
#: measured near-Gaussianity defect) while both maps stay bounded.
SWEEP_RADIUS = 32.0

#: The delta grid of the default sweep.
SWEEP_DELTAS = (0.0, 0.05, 0.1, 0.2, 0.3)


def sweep_model(delta: float, radius: float = SWEEP_RADIUS) -> ModelSpec:
    """Member of the default nonlinearity sweep family.

    Psi_delta(u) = 0.9 R tanh(u/R) + delta sin(3u),
    H_delta(u) = R tanh(u/R) + delta u^2/(1+u^2), Sigma = Gamma = 0.25,
    u0 ~ N(0, 1). delta = 0 is the near-linear member; growing delta injects
    oscillatory and asymmetric nonlinearity into both maps.
    """
    return ModelSpec(
        d=1, K=1,
        psi=MapSpec("tanh_sin", {"scale": 0.9, "radius": radius, "delta": delta, "freq": 3.0}),
        h=MapSpec("tanh_rational", {"radius": radius, "delta": delta}),
        Sigma=[[0.25]], Gamma=[[0.25]], m0=[0.0], S0=[[1.0]],
    )
