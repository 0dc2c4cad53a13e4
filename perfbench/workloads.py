"""The four benchmark workloads, driven through filtermaps' public API.

Each workload is a closed loop of one caller: ``setup`` builds its inputs
from the input seed once, and ``run`` is one repetition of the timed call.
``outputs`` turns the result of one repetition into plain, JSON-ready
numbers that are compared with the stored reference and across repetitions.
``ops`` is the number of operations one repetition counts towards
``attempted``: one ``run_filter`` call, one property check or one sweep point.
``failed_ops`` counts those whose outputs miss the reference, and
``required`` names the traced boundaries that must record calls.

The benchmark's seed selects one of ``INPUT_SEEDS`` input sets, because the
reference outputs are stored for exactly those.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import filtermaps as fm
from filtermaps import cli, model, verify

#: Number of distinct input sets; the benchmark seed is reduced modulo this.
INPUT_SEEDS = 8

FILTER_1D_KINDS = ("true", "enkf_mf", "gpf_bg", "gpf_gt")
FILTER_2D_KINDS = ("true", "enkf_mf")
VERIFY_SUITES = ("gaussian", "density", "operators")
SWEEP_KINDS = ("true", "enkf_mf", "gpf_bg")

#: Checks run by ``verify_small``, in suite order (function names minus ``check_``).
VERIFY_CHECKS = tuple(
    check.__name__.removeprefix("check_")
    for suite in VERIFY_SUITES for check in verify.SUITES[suite]
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def model_2d() -> fm.ModelSpec:
    """The 2-D workload model: tanh_sin dynamics, linear scalar observation."""
    return fm.ModelSpec(
        d=2, K=1,
        psi=fm.MapSpec("tanh_sin", {"scale": 0.9, "radius": 32.0, "delta": 0.2}),
        h=fm.MapSpec("linear", {"matrix": [[1.0, 0.5]]}),
        Sigma=[[0.25, 0.0], [0.0, 0.25]], Gamma=[[0.25]],
        m0=[0.0, 0.0], S0=[[1.0, 0.0], [0.0, 1.0]],
    )


def _floats(values) -> list:
    """Nested lists of floats; None stays None."""
    if values is None:
        return None
    if hasattr(values, "tolist"):
        return values.tolist()
    if isinstance(values, (list, tuple)):
        return [_floats(v) for v in values]
    return float(values)


#: Boundaries every filter workload must call when traced.
_FILTER_BOUNDARIES = (
    "filters.run_filter", "filters.plan_workspace", "filters.generate_data",
    "operators.workspace", "operators.predict", "operators.lift", "operators.bayes",
    "operators.transport", "operators.kalman_gain", "density.lifted_epsilon",
    "density.moments", "density.dg_distance", "density.normalized",
    "density.from_gaussian", "density.gaussian_projection", "gaussian.log_density_at",
    "model.fingerprint",
)


class FilterWorkload:
    """``run_filter`` over several kinds with an explicitly planned workspace."""

    def __init__(self, name, spec_fn, kinds, J, state_shape=None, y_points=None):
        self.name = name
        self.spec_fn = spec_fn
        self.kinds = kinds
        self.J = J
        self.state_shape = state_shape
        self.y_points = y_points
        self.ops = 1

    def setup(self, seed: int) -> dict:
        spec = self.spec_fn()
        cfg = fm.FilterConfig(seed=seed, state_shape=self.state_shape, y_points=self.y_points)
        traj = fm.generate_data(spec, J=self.J, seed=seed)
        ws = fm.plan_workspace(spec, traj, cfg)
        return {"spec": spec, "cfg": cfg, "traj": traj, "ws": ws}

    def run(self, state: dict, rep: int):
        return fm.run_filter(list(self.kinds), state["spec"], state["traj"], state["cfg"], state["ws"])

    def outputs(self, result) -> dict:
        out = {}
        for kind, traj in result.items():
            diag = traj.diagnostics
            out[kind] = {key: _floats(diag[key]) for key in sorted(diag)}
        return out

    def failed_ops(self, got: dict, ref: dict) -> int:
        return int(bool(mismatches(got, ref)))

    def required(self) -> tuple:
        extra = ("gaussian.condition",) if "gpf_bg" in self.kinds else ()
        return _FILTER_BOUNDARIES + extra


class VerifyWorkload:
    """Property suites that make many small calls into density and operators."""

    name = "verify_small"

    def __init__(self, suites=VERIFY_SUITES):
        self.suites = suites
        self.ops = sum(len(verify.SUITES[s]) for s in suites)

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def run(self, state: dict, rep: int):
        return verify.run_suites(list(self.suites), state["seed"])

    def outputs(self, result) -> dict:
        return {
            f"{r.suite}.{r.name}": {"passed": bool(r.passed), "measured": r.measured}
            for r in result
        }

    def failed_ops(self, got: dict, ref: dict) -> int:
        return sum(bool(mismatches(got.get(k), ref[k])) for k in ref)

    def required(self) -> tuple:
        checks = tuple(f"verify.check.{c.__name__.removeprefix('check_')}"
                       for s in self.suites for c in verify.SUITES[s])
        return ("density.from_gaussian", "density.moments", "density.normalized",
                "density.dg_distance", "gaussian.log_density_at") + checks


class SweepWorkload:
    """``filtermaps sweep`` through ``cli.main``: one process per delta."""

    name = "sweep_cli"

    def __init__(self, deltas=model.SWEEP_DELTAS, J=5, state_points=None, y_points=None):
        self.deltas = tuple(deltas)
        self.J = J
        self.state_points = state_points
        self.y_points = y_points
        self.ops = len(self.deltas)

    def workers(self) -> int:
        return min(len(self.deltas), os.cpu_count() or 1)

    def setup(self, seed: int) -> dict:
        work = os.path.join(OUT_DIR, f"sweep-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        config = {"scenario": "sweep", "J": self.J, "seed": seed,
                  "kinds": list(SWEEP_KINDS), "deltas": list(self.deltas)}
        if self.state_points is not None:
            config["state_points"] = self.state_points
        if self.y_points is not None:
            config["y_points"] = self.y_points
        path = os.path.join(work, "sweep.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return {"seed": seed, "work": work, "config": path}

    def run(self, state: dict, rep: int):
        out = os.path.join(state["work"], f"rep{rep}")
        code = cli.main(["sweep", "--config", state["config"], "--out", out])
        if code != 0:
            raise RuntimeError(f"filtermaps sweep exited with code {code}")
        with open(os.path.join(out, "sweep.csv")) as fh:
            text = fh.read()
        shutil.rmtree(out)
        return text

    def outputs(self, result) -> dict:
        lines = result.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]
        return {"rows": rows}

    def failed_ops(self, got: dict, ref: dict) -> int:
        if len(got["rows"]) != len(ref["rows"]):
            return self.ops
        return sum(bool(mismatches(g, r)) for g, r in zip(got["rows"], ref["rows"]))

    def point_failed(self, row: dict, ref: dict) -> bool:
        """Whether one serial sweep point misses its reference row."""
        match = [r for r in ref["rows"] if r["delta"] == row["delta"]]
        return not match or bool(mismatches(row, match[0]))

    def required(self) -> tuple:
        return ("cli.main", "cli.cmd_sweep", "verify.measure_sweep", "filters.run_filter",
                "filters.plan_workspace", "operators.predict", "operators.lift", "operators.bayes",
                "operators.transport", "density.lifted_epsilon", "density.moments",
                "density.dg_distance")

    def teardown(self, state: dict) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)

    def serial_points(self, state: dict) -> list:
        """Arguments of one in-process ``verify.measure_sweep`` call per delta."""
        shape = None if self.state_points is None else (self.state_points,)
        cfg = fm.FilterConfig(seed=state["seed"], state_shape=shape, y_points=self.y_points)
        return [dict(deltas=[d], J=self.J, seed=state["seed"], config=cfg) for d in self.deltas]


def make(name: str, tiny: bool = False):
    """The named workload; ``tiny`` shrinks grids and step counts for the smoke test."""
    if name == "filter_1d":
        if tiny:
            return FilterWorkload(name, lambda: model.sweep_model(0.2), FILTER_1D_KINDS, 2, (128,), 64)
        return FilterWorkload(name, lambda: model.sweep_model(0.2), FILTER_1D_KINDS, 5)
    if name == "filter_2d":
        if tiny:
            return FilterWorkload(name, model_2d, FILTER_2D_KINDS, 1, (24, 24), 24)
        return FilterWorkload(name, model_2d, FILTER_2D_KINDS, 1)
    if name == "verify_small":
        return VerifyWorkload(("gaussian",) if tiny else VERIFY_SUITES)
    if name == "sweep_cli":
        if tiny:
            return SweepWorkload(deltas=(0.0, 0.2), J=1, state_points=128, y_points=64)
        return SweepWorkload()
    raise ValueError(f"unknown workload '{name}'")


NAMES = ("filter_1d", "filter_2d", "verify_small", "sweep_cli")


# -- comparison -------------------------------------------------------------------

#: Relative tolerance of a repetition against the stored reference.
REL_TOL = 1e-6
#: Absolute floor of that tolerance, for values that are zero at the reference.
ABS_TOL = 1e-12


def mismatches(got, ref, path: str = "") -> list[str]:
    """Paths where ``got`` differs from ``ref`` beyond REL_TOL/ABS_TOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        return [m for k in ref for m in mismatches(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        return [m for i, (g, r) in enumerate(zip(got, ref)) for m in mismatches(g, r, f"{path}[{i}]")]
    if ref is None or isinstance(ref, bool) or isinstance(got, bool) or got is None:
        return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]
    if math.isnan(ref) or math.isnan(got):
        return [] if math.isnan(ref) and math.isnan(got) else [f"{path}: {got!r} != {ref!r}"]
    if abs(got - ref) <= REL_TOL * abs(ref) + ABS_TOL:
        return []
    return [f"{path}: {got!r} != {ref!r}"]


def known_failures(outputs: dict) -> list[str]:
    """Property checks that fail in these outputs (verify_small only)."""
    return [k for k, v in outputs.items() if isinstance(v, dict) and v.get("passed") is False]


# -- oracle and per-layer metrics ---------------------------------------------------

#: Seed of the ``oracle_dg`` check: the verify CLI's default, so the value
#: matches ``filtermaps verify --suite operators``. Fixed, so that the metric
#: moves only when the accuracy of transport or conditioning moves.
ORACLE_SEED = 0


#: Per-layer metrics: (name, unit, better, how it is obtained).
PER_LAYER = (
    ("operators.predict.calls", "count", "lower", "counted"),
    ("operators.predict.self_s", "s", "lower", "measured"),
    ("operators.predict.kernel_mb", "MB", "lower", "computed"),
    ("operators.predict.kernel_gflop", "GFLOP", "lower", "computed"),
    ("operators.workspace.build_s", "s", "lower", "measured"),
    ("operators.lift.self_s", "s", "lower", "measured"),
    ("operators.bayes.self_s", "s", "lower", "measured"),
    ("operators.transport.calls", "count", "lower", "counted"),
    ("operators.transport.self_s", "s", "lower", "measured"),
    ("operators.transport.total_s", "s", "lower", "measured"),
    ("operators.kalman_gain.self_s", "s", "lower", "measured"),
    ("density.lifted_epsilon.self_s", "s", "lower", "measured"),
    ("density.lifted_epsilon.total_s", "s", "lower", "measured"),
    ("density.moments.calls", "count", "lower", "counted"),
    ("density.moments.self_s", "s", "lower", "measured"),
    ("density.moments.calls_per_density", "ratio", "lower", "computed"),
    ("density.dg_distance.calls", "count", "lower", "counted"),
    ("density.dg_distance.self_s", "s", "lower", "measured"),
    ("density.normalized.calls", "count", "lower", "counted"),
    ("density.normalized.self_s", "s", "lower", "measured"),
    ("density.normalized.max_mass_drift", "mass", "lower", "computed"),
    ("density.resolution_warnings", "count", "lower", "counted"),
    ("density.from_gaussian.calls", "count", "lower", "counted"),
    ("density.from_gaussian.self_s", "s", "lower", "measured"),
    ("density.from_gaussian.total_s", "s", "lower", "measured"),
    ("density.gaussian_projection.self_s", "s", "lower", "measured"),
    ("gaussian.log_density_at.calls", "count", "lower", "counted"),
    ("gaussian.log_density_at.self_s", "s", "lower", "measured"),
    ("gaussian.condition.self_s", "s", "lower", "measured"),
    ("model.fingerprint.calls", "count", "lower", "counted"),
    ("model.fingerprint.self_s", "s", "lower", "measured"),
    ("filters.run_filter.self_s", "s", "lower", "measured"),
    ("filters.plan_workspace.s", "s", "lower", "measured"),
    ("filters.generate_data.s", "s", "lower", "measured"),
) + tuple(
    (f"verify.check.{name}.s", "s", "lower", "measured") for name in VERIFY_CHECKS
) + (
    ("cli.sweep.point_s.max", "s", "lower", "measured"),
    ("cli.sweep.point_s.sum", "s", "lower", "measured"),
    ("cli.sweep.parallel_eff", "ratio", "higher", "computed"),
    ("trace.run_s", "s", "lower", "measured"),
    ("trace.overhead_s", "s", "lower", "measured"),
    ("trace.covered_frac", "ratio", "higher", "computed"),
    ("trace.counters.self_s", "s", "lower", "measured"),
)


def layer_metrics(w, summary: dict, tracer, point_s: list, untraced_s: float,
                  traced_s: float) -> dict:
    """Per-layer values from the traced run's span summary and counters.

    ``density.resolution_warnings`` is filled in by the caller, which owns the
    captured warnings.
    """
    def agg(name, key):
        return float(summary.get(name, {}).get(key, 0))

    out = {}
    for name, _, _, _ in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if quantity in ("calls", "self_s", "total_s"):
            out[name] = agg(span, quantity)
        elif quantity in ("s", "build_s"):
            out[name] = agg(span, "total_s")

    entries, flops = tracer.kernel_entries, tracer.kernel_flops
    out["operators.predict.kernel_mb"] = 8.0 * sum(entries) / len(entries) / 1e6 if entries else 0.0
    out["operators.predict.kernel_gflop"] = sum(flops) / len(flops) / 1e9 if flops else 0.0
    out["density.moments.calls_per_density"] = (
        agg("density.moments", "calls") / tracer.moments_densities if tracer.moments_densities else 0.0)
    out["density.normalized.max_mass_drift"] = tracer.max_mass_drift
    out["density.resolution_warnings"] = 0.0
    out["cli.sweep.point_s.max"] = max(point_s, default=0.0)
    out["cli.sweep.point_s.sum"] = sum(point_s)
    out["cli.sweep.parallel_eff"] = (
        sum(point_s) / (w.workers() * untraced_s) if point_s else 0.0)
    rep_total = agg("bench.rep", "total_s")
    out["trace.run_s"] = traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.covered_frac"] = 1.0 - agg("bench.rep", "self_s") / rep_total if rep_total else 0.0
    return out
